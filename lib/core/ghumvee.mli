(** GHUMVEE: the security-oriented cross-process monitor. Attached to every
    replica as its ptrace tracer; monitored calls execute in lockstep
    (rendezvous -> deep argument comparison -> master-only I/O with result
    replication): it answers each entry stop with continue, or with skip
    and the master's result. It takes each asynchronous signal at its
    delivery stop and injects it at the next rendezvous, and lets exit and
    death stops pass. Any divergence shuts the whole replica set down —
    unless the group's recovery policy ([Context.failure_policy]) absorbs
    the fault by quarantining the offending non-master replica, after
    which the group keeps running degraded. Under [Respawn], a fresh
    replica resynchronizes by replaying the master syscall journal through
    the monitored path. *)

open Remon_kernel
open Remon_sim

type t

val create : Context.group -> watchdog_ns:Vtime.t -> t
(** A monitor for the group. A rendezvous that stalls for [watchdog_ns]
    gets two grace periods, each doubling the delay, before the watchdog
    escalates. *)

val monitor_work : t -> earliest:Vtime.t -> work_ns:int -> Vtime.t
(** Charges [work_ns] of the monitor's serialized time, starting no
    earlier than [earliest], the current time or the end of its previous
    work, and answers when it is done: concurrent stops queue behind the
    monitor. *)

val rendezvous_count : t -> int
(** Rendezvous completed so far. *)

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
