(** IK-B: the in-kernel broker (Sections 3 and 3.1). Decides, for every
    syscall a replica issues, whether IP-MON may complete it unmonitored
    (granting a single-use 64-bit authorization token) or whether it must
    be reported to GHUMVEE. Enforces the Section 3.1 invariants: one-time
    tokens, same thread + same call + IP-MON entry point, revocation when a
    stray syscall follows a grant, and forced monitoring of calls that
    could tamper with IP-MON or expose the RB. *)

open Remon_kernel
open Remon_util

type t = {
  kernel : Kernel.t;
  mutable policy : Policy.t;
  rng : Rng.t; (** token generator; each thread's token is [Proc.ikb_token] *)
  temporal_state : Policy.temporal_state;
  temporal_decisions : (int * int, bool) Hashtbl.t;
      (** one stochastic draw per logical call, shared by all replicas *)
  mutable rb : Replication_buffer.t option;
  mutable route_all : bool; (** VARAN baseline: forward everything *)
  mutable master_proc : Proc.process option;
      (** authoritative fd table for classification (slaves hold stubs) *)
  replaying : bool array;
      (** per variant: resynchronizing from the journal, forced monitored *)
}

val create :
  kernel:Kernel.t -> policy:Policy.t -> seed:int -> nreplicas:int -> t

val classify : t -> Proc.thread -> Syscall.call -> Proc.route
(** The interceptor: one routing decision per syscall entry. Each replica
    of the group carries it in its [Proc.replica_info.classify], so
    several MVEE instances (a fleet) coexist in one kernel; the verifier
    needs no hook, IP-MON calls {!verify} directly. *)

val verify : t -> Proc.thread -> token:int64 -> call:Syscall.call -> bool
(** The verifier: single-shot token check. *)

val destroy_token : t -> Proc.thread -> unit
(** IP-MON's fallback: destroy before restarting as a monitored call. *)

val consume_token : Proc.thread -> unit
(** Silent invalidation for calls IP-MON aborts without restarting. *)

val set_replaying : t -> variant:int -> bool -> unit
(** While on, every call from [variant] is routed monitored so GHUMVEE can
    replay-verify it against the journal. *)

val was_temporal_grant : Proc.thread -> token:int64 -> bool
val note_approval : t -> Sysno.t -> unit

val execute :
  t ->
  Proc.thread ->
  token:int64 ->
  Syscall.call ->
  ret:(Syscall.result -> unit) ->
  fallback:(unit -> unit) ->
  unit
(** Complete a forwarded call through the verifier, or run [fallback]. *)
