(** Discrete-event cooperative scheduler. Simulated threads are OCaml 5
    effect-handler coroutines; the kernel decides when (in virtual time)
    each one resumes. Blocked threads are parked with retry thunks that
    re-run on every {!kick}. *)

open Remon_sim

type _ Effect.t +=
  | Syscall_eff : Syscall.call -> Syscall.result Effect.t
  | Compute_eff : Vtime.t -> unit Effect.t
  | Now_eff : Vtime.t Effect.t
  | Self_eff : Proc.thread Effect.t
  | Wait_user_eff : (unit -> bool) -> unit Effect.t
        (** user-space busy-wait on a memory condition (no syscall) *)

exception Thread_killed

type t = {
  events : (unit -> unit) Event_queue.t;
  slot : (unit -> unit) Event_queue.slot;  (** run-loop landing pad *)
  mutable now : Vtime.t;
  mutable syscall_handler :
    Proc.thread -> Syscall.call -> return:(Syscall.result -> unit) -> unit;
  mutable on_thread_exit : Proc.thread -> unit;
  mutable blocked : Proc.thread list;
  mutable kick_scheduled : bool;
  mutable kick_thunk : unit -> unit;  (** preallocated retry sweep *)
  mutable events_processed : int;
  mutable max_events : int;
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

val park : t -> Proc.thread -> what:string -> retry:(unit -> bool) -> Proc.blocked
(** Park a thread; its [retry] runs on every kick and returns true once the
    thread has rescheduled itself. *)

val kick : t -> unit
(** Schedule a retry sweep over all parked threads (coalesced). *)

val unpark : t -> Proc.thread -> unit
val spawn : t -> Proc.thread -> (unit -> unit) -> unit

exception Event_budget_exhausted

val run : t -> unit
(** Drains the event queue. *)

val run_before : t -> bound:Vtime.t -> unit
(** Processes every event with [time < bound] (strict) and leaves the rest
    queued: one conservative-parallel shard window. *)

val next_event_time : t -> Vtime.t
(** Time of the earliest queued event, or [Vtime.infinity] when idle — the
    local component of the shard synchronizer's lookahead fixed point. *)

(** {1 Effect-performing API for program bodies} *)

val syscall : Syscall.call -> Syscall.result
val compute : Vtime.t -> unit
val vnow : unit -> Vtime.t
val self : unit -> Proc.thread

val wait_user : (unit -> bool) -> unit
(** Blocks until the condition holds; models user-space spinning on shared
    memory (used by the record/replay agent and thread joins). *)
