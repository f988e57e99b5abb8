(** Wait queues: each waitable object keeps the entries of the threads
    blocked on it, and a state change wakes only those. Wait kinds without
    an object queue park on their scheduler's catch-all queue, which every
    sweep wakes. A woken entry moves into its scheduler's run queue, which
    the scheduler's sweep drains in park order (see {!Sched}). Linking,
    unlinking and waking allocate nothing. *)

open Remon_sim

type state =
  | Waiting  (** on a wait queue (or none), not woken since its last retry *)
  | Woken  (** in its scheduler's run queue *)
  | Done  (** completed or unparked *)

type entry = {
  mutable retry : unit -> bool;
      (** re-attempts the pending operation; true = unblocked (the retry
          has scheduled the thread's resumption itself) *)
  mutable timeout : Event_queue.handle option;
  mutable interrupt : Syscall.result -> unit;
      (** force-completes the blocked call with the given result (signal
          delivery, GHUMVEE's abort of a blocked master call, Section 3.8);
          {!no_interrupt} when the wait cannot be interrupted *)
  what : string;  (** human-readable reason, for reports *)
  seq : int;  (** park order: the sweep retries entries in this order *)
  mutable state : state;
  mutable queue : t;
  mutable prev : entry;
  mutable next : entry;
}

and t = { mutable head : entry; mutable runq : runq }
(** A wait queue. [runq] is the run queue of the scheduler whose threads
    wait here, set when a thread parks. *)

and runq = {
  mutable heap : entry array;  (** woken entries, a min-heap on [seq] *)
  mutable size : int;
  mutable later : entry array;  (** woken for the next sweep *)
  mutable nlater : int;
  mutable sweeping : bool;
  mutable cursor : int;  (** [seq] of the entry the sweep last visited *)
  mutable limit : int;  (** entries parked during the sweep are [>= limit] *)
}

val no_interrupt : Syscall.result -> unit

val nil : entry
(** The end of every list; never parked. *)

val none : t
(** No object: a wait that only a signal or its timeout ends. Also the
    placeholder of an object whose queue was never needed. *)

val global : t
(** Names the catch-all queue, for wait kinds without a wait queue of their
    own: {!Sched.park} links an entry parked here on its scheduler's
    catch-all queue, which every sweep wakes first. *)

val create : unit -> t
val create_runq : unit -> runq
val entry : what:string -> seq:int -> entry
(** A [Waiting] entry on no queue. *)

val link : t -> entry -> unit
val unlink : entry -> unit
(** No-op for an entry on no queue. *)

val pop : runq -> entry
(** Removes the earliest woken entry and moves the cursor to it; the run
    queue must not be empty. *)

val begin_sweep : runq -> limit:int -> unit
(** From here until {!end_sweep}, an entry woken at or behind [cursor], or
    with [seq >= limit], is held for the next sweep. *)

val end_sweep : runq -> unit

val wake_entry : runq -> entry -> unit
(** Moves a [Waiting] entry into the run queue; any other entry is left
    alone. *)

val wake : t -> unit
(** Wakes every entry on the queue. *)
