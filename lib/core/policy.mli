(** Monitoring relaxation policies (Section 3.4): spatial exemption levels
    plus the stochastic temporal exemption. *)

open Remon_kernel
open Remon_util

type temporal = {
  min_approvals : int;
      (** identical monitor approvals needed before exemption can start *)
  exempt_probability : float; (** chance an eligible call is exempted *)
  window_ns : Remon_sim.Vtime.t; (** approvals older than this are forgotten *)
}

type t = {
  spatial : Classification.level option;
      (** [None]: monitor everything (GHUMVEE standalone) *)
  temporal : temporal option;
}

val monitor_everything : t
val spatial : Classification.level -> t
val with_temporal : t -> temporal -> t
val default_temporal : temporal
val to_string : t -> string

val level_to_string : t -> string
(** The spatial level alone (temporal exemption is not part of it): a
    Table 1 level name, or ["monitor-all"]. Recordings store it. *)

val level_of_string : string -> t option
(** Inverse of {!level_to_string}; also accepts the short level names
    ([socket_rw], ...) and ["all"]. *)

val spatial_allows : t -> Syscall.call -> on_socket:bool -> bool
(** Does the spatial policy exempt this call from cross-process
    monitoring? *)

(** Broker-side state for the temporal policy. Lives in kernel space, out
    of the replicas' reach. *)
type temporal_state = {
  rng : Rng.t;
  approvals : (Sysno.t, (Remon_sim.Vtime.t * int) ref) Hashtbl.t;
}

val make_temporal_state : seed:int -> temporal_state

val record_approval :
  temporal_state -> now:Remon_sim.Vtime.t -> Sysno.t -> cfg:temporal -> unit
(** Called when GHUMVEE approves a monitored call at a rendezvous. *)

val temporal_exempts :
  temporal_state -> now:Remon_sim.Vtime.t -> Sysno.t -> cfg:temporal -> bool
(** One stochastic draw. The paper requires unpredictability: deterministic
    temporal policies are insecure. *)
