(** Orchestration: runs workloads under MVEE configurations in fresh
    kernels and reports virtual-time durations and overheads. *)

open Remon_core
open Remon_sim

exception Mvee_terminated of Divergence.t * Mvee.outcome
(** Raised when a run that should have been benign was killed. It carries
    the run's outcome, so a caller that catches it still reaches
    [outcome.recording]: the reproducer of the very failure that raised. *)

type run_result = { duration : Vtime.t; outcome : Mvee.outcome }

val trace_dir : string option ref
(** When set (the bench harness's [--trace DIR] flag), every run dumps its
    structured trace into the directory as
    [NAME-BACKEND-nN-seedS.json] (atomic tmp+rename publish). *)

val run_body :
  ?cost:Cost_model.t ->
  ?net_latency:Vtime.t ->
  ?check_verdict:bool ->
  ?obs:Remon_obs.Obs.t ->
  Mvee.config ->
  name:string ->
  body:(Mvee.env -> unit) ->
  run_result
(** [?obs] installs a structured trace/metrics sink into the fresh kernel
    before launch; export it afterwards with {!Remon_obs.Obs.export_string}.
    Identical seeds yield byte-identical exports. *)

val run_profile :
  ?cost:Cost_model.t -> ?obs:Remon_obs.Obs.t -> Profile.t -> Mvee.config ->
  run_result

val normalized_time : ?cost:Cost_model.t -> Profile.t -> Mvee.config -> float
(** MVEE duration / native duration: the y-axis of Figures 3 and 4. *)

(** {1 Standard configurations} *)

val cfg_ghumvee : ?nreplicas:int -> ?seed:int -> unit -> Mvee.config
(** GHUMVEE standalone, monitor-everything: the "no IP-MON" bars. *)

val cfg_remon : ?nreplicas:int -> ?seed:int -> Classification.level -> Mvee.config
val cfg_varan : ?nreplicas:int -> ?seed:int -> unit -> Mvee.config
val cfg_native : ?seed:int -> unit -> Mvee.config

(** {1 Server benchmarks (Figure 5 / Table 2)} *)

type server_run = {
  client_duration : Vtime.t; (** client-observed wall time *)
  responses : int;
  latency : Latency.summary; (** per-request client-observed latency *)
  transport_errors : int; (** client-side short reads *)
  truncated_requests : int; (** server-side partial requests *)
  server_outcome : Mvee.outcome;
}

val run_server_bench :
  ?latency:Vtime.t ->
  ?obs:Remon_obs.Obs.t ->
  server:Servers.spec ->
  client:Clients.spec ->
  Mvee.config ->
  server_run
(** Launches the (replicated) server and the client fleet over a link of
    the given latency; fails if any request goes unanswered. *)

val server_overhead :
  ?latency:Vtime.t ->
  server:Servers.spec ->
  client:Clients.spec ->
  Mvee.config ->
  float
(** Client-observed overhead vs. a native run: Figure 5's y-axis. *)
