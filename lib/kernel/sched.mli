(** Discrete-event cooperative scheduler. Every simulated thread is an
    OCaml 5 fiber, and its syscalls run on it: the kernel handler is an
    ordinary function of the running thread, and a thread's fiber
    suspends only to wait ({!suspend}), in a ptrace stop ({!stop}) and on
    its return to user code, which the scheduler resumes at the thread's
    clock. A blocked thread parks a retry thunk on the wait queue of the
    object it waits for ({!Waitq}), or on the scheduler's catch-all queue
    for a wait kind that has no wait queue yet. Each {!kick} schedules a
    sweep that wakes the catch-all queue, then retries, in park order,
    every entry woken since its last retry. *)

open Remon_sim

exception Lost_wakeup of string
(** Raised in checking mode (see {!set_wakeup_check}) when a parked entry
    that nothing woke could have completed; names the wait's [what]. *)

type t = {
  events : (unit -> unit) Event_queue.t;
  slot : (unit -> unit) Event_queue.slot;  (** run-loop landing pad *)
  mutable now : Vtime.t;
  mutable syscall_handler : Proc.thread -> Syscall.call -> Syscall.result;
      (** the kernel, run on the calling thread's fiber *)
  mutable on_thread_exit : Proc.thread -> unit;
  global : Waitq.t;
      (** the catch-all queue, for kinds without a wait queue; every sweep
          wakes it first *)
  runq : Waitq.runq;  (** woken entries awaiting their retry *)
  mutable next_seq : int;
  mutable kick_scheduled : bool;
  mutable kick_thunk : unit -> unit;  (** preallocated retry sweep *)
  mutable events_processed : int;
  mutable retries : int;  (** retries run by sweeps *)
  mutable retries_ok : int;  (** retries that unblocked their thread *)
  mutable max_events : int;
  checking : bool;
  mutable watched : Waitq.entry list;
}

val create : unit -> t
val now : t -> Vtime.t

val schedule_at : t -> time:Vtime.t -> (unit -> unit) -> Event_queue.handle
(** Times in the past are clamped to [now]. *)

val cancel : t -> Event_queue.handle -> unit
(** Cancels an event from {!schedule_at}; a no-op once it ran. *)

val schedule : t -> time:Vtime.t -> (unit -> unit) -> unit

val schedule_pre : t -> time:Vtime.t -> (unit -> unit) -> unit
(** Like [schedule] but lands in the event queue's pre-lane: at a time tie
    the thunk runs before every normally scheduled event, independent of
    insertion round. Used for cross-host message delivery. *)

val park :
  t ->
  Proc.thread ->
  on:Waitq.t ->
  what:string ->
  retry:(unit -> bool) ->
  Waitq.entry
(** Parks a thread on the wait queue [on]; [retry] returns true once the
    thread has rescheduled itself. [on] is an object's queue (retried by
    the first sweep after the queue is woken), {!Waitq.none} (retried only
    after a signal, see {!wake_process}) or {!Waitq.global}, which stands
    for the scheduler's catch-all queue (retried by every sweep). *)

val kick : t -> unit
(** Schedules a retry sweep (coalesced). *)

val unpark : Waitq.entry -> unit
(** Ends a wait without retrying it (timeout, forced completion, kill):
    O(1), on any queue. *)

val wake_process : t -> Proc.process -> unit
(** Wakes every parked thread of the process: a signal or a signal-mask
    change can end any interruptible wait. *)

val set_wakeup_check : bool -> unit
(** Test-only lost-wakeup oracle. Schedulers created while it is on follow
    every sweep with a retry of each queued entry that was not woken, and
    raise {!Lost_wakeup} if one succeeds. A failed retry has no effect, so
    the oracle does not perturb a correct run. *)

val spawn : t -> Proc.thread -> (unit -> unit) -> unit

(** {1 Suspending a thread's fiber}

    These run on the fiber of the thread they suspend, inside its
    syscall; whoever ends the suspension continues the fiber at once, on
    its own stack. *)

val suspend : unit -> unit
(** Suspends the running thread's fiber until {!wake}. *)

val wake : Proc.thread -> unit
(** Continues a fiber suspended in {!suspend}; returns when it suspends
    again. *)

val stop : Proc.stop_reason -> Proc.resume_action
(** A ptrace stop: suspends the running fiber, records it in the thread's
    [Trace_stopped] state, then calls the process's tracer; answers the
    action {!resume} gives, which may come from inside the tracer. *)

val resume : Proc.thread -> Proc.resume_action -> unit
(** Continues a trace-stopped thread (a no-op once it is dead). Raises
    [Invalid_argument] if the thread is not stopped. *)

val drop : unit -> 'a
(** Ends the running fiber without continuing it: its thread died
    mid-call. *)

exception Event_budget_exhausted

val run : t -> unit
(** Drains the event queue. *)

val run_before : t -> bound:Vtime.t -> unit
(** Processes every event with [time < bound] (strict) and leaves the rest
    queued: one conservative-parallel shard window. *)

val next_event_time : t -> Vtime.t
(** Time of the earliest queued event, or [Vtime.infinity] when idle — the
    local component of the shard synchronizer's lookahead fixed point. *)

(** {1 API for program bodies}

    Called on a thread's fiber; each syscall's return and each compute
    step resume through one scheduled event. *)

val syscall : Syscall.call -> Syscall.result
val compute : Vtime.t -> unit
val vnow : unit -> Vtime.t
val self : unit -> Proc.thread

val wait_user : (unit -> bool) -> unit
(** Blocks until the condition holds; models user-space spinning on shared
    memory (used by the record/replay agent and thread joins). *)
