(** Simulated L4 load balancer: an unreplicated process that proxies
    fixed-size request/response pairs from a front port to a set of MVEE
    backend instances, with active health probes, eject/readmit hysteresis,
    connection draining and bounded per-request failover. Dead instances
    signal through the socket layer: their listener unbinds (ECONNREFUSED)
    and established streams EOF, because the kernel releases a process's
    descriptors when it dies. *)

open Remon_kernel
open Remon_sim

type policy = Round_robin | Least_conns

type state =
  | Up
  | Draining  (** operator-held: no new picks, health state frozen *)
  | Ejected  (** failed the probe hysteresis; routed around *)

type backend = {
  id : int;
  port : int;
  mutable state : state;
  mutable active_conns : int;  (** proxied client conns pinned to it *)
  mutable consec_failures : int;
  mutable consec_successes : int;
  mutable probes : int;
  mutable probe_failures : int;
}

type config = {
  front_port : int;
  policy : policy;
  probe_interval : Vtime.t;
  probe_timeout : Vtime.t;  (** a slower connect counts as a failure *)
  unhealthy_threshold : int;  (** consecutive failures before eject *)
  healthy_threshold : int;  (** consecutive successes before readmit *)
  failover_budget : int;  (** distinct backends tried per request *)
  request_bytes : int;
  response_bytes : int;
}

val default_config :
  front_port:int -> request_bytes:int -> response_bytes:int -> config
(** Round-robin, 2 ms probes with 1 ms timeout, 2/2 hysteresis, failover
    budget 3. *)

type t = {
  kernel : Kernel.t;
  config : config;
  backends : backend array;
  deadline : Vtime.t;  (** the prober stops here, so the run can drain *)
  mutable rr_cursor : int;
  mutable proxied : int;  (** requests answered end to end *)
  mutable failovers : int;  (** backend switches forced mid-request *)
  mutable lb_errors : int;  (** requests dropped: no responsive backend *)
  mutable ejections : int;
  mutable readmissions : int;
}

val launch :
  Kernel.t -> config -> backend_ports:int list -> deadline:Vtime.t -> t
(** Spawns the balancer process (listener + prober) into the kernel. *)

val backend_for : t -> port:int -> backend
(** Raises [Invalid_argument] on an unknown port. *)

val pick : t -> excluding:int list -> backend option
(** One routing decision (exposed for tests; the proxy path uses it). *)

val set_draining : t -> backend -> unit
(** Operator hold: stop picking the backend, let its connections drain. *)

val readmit : t -> backend -> unit
(** Operator release: back to [Up] with hysteresis counters reset. *)

val flush_metrics : t -> unit
(** Fold LB/prober counters into the kernel's metrics sink, if any. *)
