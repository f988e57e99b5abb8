(** GHUMVEE: the security-oriented cross-process monitor. Attached to every
    replica via the simulated ptrace API; monitored calls execute in
    lockstep (rendezvous -> deep argument comparison -> master-only I/O with
    result replication), asynchronous signals are deferred to rendezvous
    points, and any divergence shuts the whole replica set down — unless the
    group's recovery policy ([Context.failure_policy]) absorbs the fault by
    quarantining the offending non-master replica, after which the group
    keeps running degraded. Under [Respawn], a fresh replica resynchronizes
    by replaying the master syscall journal through the monitored path. *)

open Remon_kernel
open Remon_sim

type arrival = { variant : int; th : Proc.thread; call : Syscall.call }

type rstate =
  | Idle
  | Collecting of {
      arrivals : arrival list;
      count : int;
      mutable watchdog : Event_queue.handle;
    }
      (** [count = List.length arrivals]: the per-arrival completeness
          check is O(1). [watchdog] is the rendezvous's stall timer,
          cancelled when it completes or a purge empties it. *)
  | Master_running of { slaves : arrival list; nslaves : int }
      (** waiting slaves only, pre-split for the master's exit stop *)
  | Await_slave_exits of { mutable remaining : int }
  | All_running of { mutable remaining : int }

type t = {
  g : Context.group;
  kernel : Kernel.t;
  mutable rendezvous : rstate array; (** per thread rank *)
  mutable busy_until : Vtime.t;
      (** monitor serialization: concurrent stops queue behind it *)
  deferred_signals : int Queue.t;
  watchdog_ns : Vtime.t;
  max_watchdog_retries : int;
      (** stalled rendezvous grace periods (each doubling the delay) before
          the watchdog escalates *)
  replaying : (int, Record_log.cursor) Hashtbl.t option array;
      (** per variant: while respawned, its per-rank replay cursors into the
          stream store *)
  waiting_replay : (int * int, arrival) Hashtbl.t;
      (** (rank, variant) -> replaying arrival parked at the journal head *)
  mutable exits_seen : (int * int) list;
  mutable shutting_down : bool;
  mutable rendezvous_count : int;
}

val create :
  Context.group -> ?watchdog_ns:Vtime.t -> ?watchdog_retries:int -> unit -> t

val attach : t -> Proc.process -> unit
(** ptrace-attach to a replica and watch for abnormal death. *)

val shutdown : t -> Divergence.t -> unit
(** Record the verdict and kill every replica. *)

val quiesce : t -> unit
(** Operator-initiated teardown (fleet rolling restarts): stop monitoring
    without recording a divergence verdict; pending watchdogs go quiet.
    The caller kills the replicas. *)

val purge_variant : t -> variant:int -> unit
(** Remove a quarantined variant from all in-flight rendezvous state so the
    survivors are not stranded. Called by the recovery handler after the
    variant's process is killed. *)

val is_replaying : t -> variant:int -> bool
(** The variant is between respawn and journal drain: still consuming the
    master syscall journal, not yet rejoined to lockstep. *)

val begin_replay : t -> variant:int -> unit
(** Start journal replay for a freshly respawned variant: its calls are
    verified against the master syscall journal and satisfied the way the
    original execution went, until it catches up and rejoins the group. *)

val tracer : t -> Proc.tracer
(** The raw stop-event handler (exposed for tests). *)
