(** The record log: the lock-order log of the record/replay agent (Section
    2.3) and the single store of the master's replicated stream.

    The lock-order log always runs: the master appends lock-acquisition
    events and each slave consumes them in order to replay the master's
    acquisition order.

    The stream store runs only when capture is enabled ([Mvee] enables it
    when the run records or its failure policy is [Respawn]). It holds
    every replicated master call, lock acquisition and injected signal
    once, in one ordered array. A respawned replica reads its thread
    rank's calls through a {!cursor}; a recording is a snapshot of the
    array ({!events}). *)

open Remon_kernel

(** One event of the master's replicated stream. *)
type event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
      (** one replicated master call on thread [rank] *)
  | Lock of { lock_id : int; thread_rank : int }
      (** user-space lock acquisition order (Section 2.3 agent) *)
  | Signal of { rank : int; signo : int }  (** delivered/injected signal *)

type lock_event = { lock_id : int; thread_rank : int }

type t

val create : nreplicas:int -> t

(** {1 Lock-order log} *)

val length : t -> int

val append : t -> lock_id:int -> thread_rank:int -> unit
(** Log a master lock acquisition (and capture it, when capture is on). *)

val peek : t -> variant:int -> lock_event option
(** Next unconsumed event for [variant], if the master has produced it. *)

val advance : t -> variant:int -> unit

val reset_variant : t -> variant:int -> unit
(** Rewind [variant]'s consumption position to the beginning; a respawned
    replica re-consumes the whole lock-order history. *)

(** {1 Stream store} *)

val enable_capture : t -> unit
(** Start storing the stream. Off by default: the store costs memory
    proportional to the run. *)

val set_on_call : t -> (rank:int -> unit) -> unit
(** Callback fired after each captured call; GHUMVEE uses it to feed
    fresh records to replaying replicas waiting at the head of a rank. *)

val note_call :
  t -> rank:int -> call:Syscall.call -> result:Syscall.result -> unit
(** Capture one replicated master call. No-op unless capture is on. *)

val note_signal : t -> rank:int -> signo:int -> unit
(** Capture a delivered/injected signal. No-op unless capture is on. *)

val events : t -> event array
(** A snapshot of the store, in capture order. *)

type cursor
(** A read position into the store for one thread rank. *)

val cursor : rank:int -> cursor
(** A cursor at the start of the store. *)

val next_call : t -> cursor -> (Syscall.call * Syscall.result) option
(** The cursor rank's next captured call, advancing past it; [None] when
    the cursor has caught up with the store. *)
