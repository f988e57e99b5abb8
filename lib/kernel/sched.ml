(* Discrete-event cooperative scheduler.

   Every simulated thread is an OCaml 5 fiber, and its syscalls run on
   it: [syscall] calls the installed kernel handler directly, finding the
   running thread in a domain-local slot that is set while a fiber runs.
   A fiber suspends in three ways, and whoever ends the suspension
   continues it at that point:
   - returning to user code, at the end of a syscall or a compute step,
     schedules the thread's resume event at its clock (one event each);
   - a wait ([suspend]) is continued by [wake] from what ends it: a
     sweep's retry, a timeout, a forced completion;
   - a ptrace stop ([stop]) suspends before the tracer's [on_stop] runs
     and is continued by [resume], so a tracer may resume the stopped
     thread from inside its own stop.
   A thread that dies is never continued: a fiber whose thread died
   mid-call ends in [drop]. All replicas of a benchmark therefore run "in
   parallel" on the simulated machine while the host execution stays
   single-threaded and deterministic.

   Blocking model: a blocked thread parks one [Waitq.entry] holding a
   [retry] thunk, on the wait queue of the object it waits for or, for
   kinds without one yet, on the scheduler's catch-all queue ([Waitq]
   says which). A state mutation calls [kick], which schedules one retry
   sweep at the current virtual time. The sweep wakes the catch-all queue
   into the run queue of woken entries (a heap on park order), then
   retries the run queue in park order: every catch-all entry and every
   entry woken since its last retry. [Waitq] states when an entry woken
   during a sweep joins it. A failed retry has no effect, so skipping one
   that cannot succeed changes nothing.

   Checking mode (tests only, see [set_wakeup_check]): after every sweep,
   each parked entry that was not woken is retried too; a success there is
   a state change that forgot to wake its queue, reported as
   [Lost_wakeup].

   Hot-path discipline: a suspended thread has exactly one pending
   continuation, kept in [Proc.thread.fiber] (a stopped one in its
   [Trace_stopped] state); its resume event is the thread's preallocated
   [resume_thunk], and the handler answers the payload-free effects with
   closures allocated once per thread. The run loop pops through
   [Event_queue.pop_into] (no tuple/option per event), and plain
   [schedule] uses [Event_queue.add_] (no handle). *)

open Remon_sim

type _ Effect.t +=
  | Suspend : unit Effect.t (* until [wake] *)
  | Stop : Proc.stop_reason -> Proc.resume_action Effect.t (* until [resume] *)
  | Drop : 'a Effect.t (* never continued *)

exception Lost_wakeup of string

type t = {
  events : (unit -> unit) Event_queue.t;
  slot : (unit -> unit) Event_queue.slot; (* run-loop landing pad *)
  mutable now : Vtime.t;
  mutable syscall_handler : Proc.thread -> Syscall.call -> Syscall.result;
  mutable on_thread_exit : Proc.thread -> unit;
  global : Waitq.t; (* catch-all queue, woken by every sweep *)
  runq : Waitq.runq; (* woken entries *)
  mutable next_seq : int; (* park sequence numbers *)
  mutable kick_scheduled : bool;
  mutable kick_thunk : unit -> unit; (* preallocated retry sweep *)
  mutable events_processed : int;
  mutable retries : int; (* retries run by sweeps *)
  mutable retries_ok : int; (* ... of which unblocked their thread *)
  mutable max_events : int; (* runaway-simulation guard *)
  checking : bool; (* lost-wakeup oracle on *)
  mutable watched : Waitq.entry list; (* checking mode: queued entries *)
}

let nop () = ()

(* Test-only: schedulers created while this is set run the lost-wakeup
   oracle after every sweep. *)
let wakeup_check = Atomic.make false
let set_wakeup_check on = Atomic.set wakeup_check on

(* Takes a parked entry off its queue without retrying it (a timeout, a
   forced completion or a kill ends the wait). O(1); a woken entry left in
   the run queue is skipped when the sweep reaches it. *)
let unpark (b : Waitq.entry) =
  Waitq.unlink b;
  b.Waitq.state <- Waitq.Done

(* The oracle: retry every queued entry that was not woken. *)
let check_wakeups t =
  t.watched <- List.filter (fun b -> b.Waitq.state <> Waitq.Done) t.watched;
  List.iter
    (fun (b : Waitq.entry) ->
      if b.Waitq.state = Waitq.Waiting && b.Waitq.retry () then
        raise
          (Lost_wakeup
             (Printf.sprintf "%s (park #%d) unblocked without a wake-up"
                b.Waitq.what b.Waitq.seq)))
    (List.rev t.watched)

(* One retry sweep: wakes the catch-all queue, then retries the run queue
   in park order. With nothing parked there and nothing woken it retries
   nothing and allocates nothing. *)
let sweep t =
  t.kick_scheduled <- false;
  let rq = t.runq in
  Waitq.wake t.global;
  if rq.Waitq.size > 0 then begin
    Waitq.begin_sweep rq ~limit:t.next_seq;
    while rq.Waitq.size > 0 do
      let b = Waitq.pop rq in
      if b.Waitq.state = Waitq.Woken then begin
        b.Waitq.state <- Waitq.Waiting;
        t.retries <- t.retries + 1;
        if b.Waitq.retry () then begin
          t.retries_ok <- t.retries_ok + 1;
          unpark b
        end
      end
    done;
    Waitq.end_sweep rq
  end;
  if t.checking then check_wakeups t

let create () =
  let runq = Waitq.create_runq () in
  let global = Waitq.create () in
  global.Waitq.runq <- runq;
  let t =
    {
      events = Event_queue.create ();
      slot = Event_queue.make_slot nop;
      now = Vtime.zero;
      syscall_handler =
        (fun _ _ -> failwith "Sched: no syscall handler installed");
      on_thread_exit = (fun _ -> ());
      global;
      runq;
      next_seq = 0;
      kick_scheduled = false;
      kick_thunk = nop;
      events_processed = 0;
      retries = 0;
      retries_ok = 0;
      max_events = 200_000_000;
      checking = Atomic.get wakeup_check;
      watched = [];
    }
  in
  t.kick_thunk <- (fun () -> sweep t);
  t

let now t = t.now

let schedule_at t ~time thunk =
  let time = Vtime.max time t.now in
  Event_queue.add t.events ~time thunk

let cancel t h = Event_queue.cancel t.events h

(* Handle-free scheduling: the hot path for syscall returns and computes. *)
let schedule t ~time thunk =
  Event_queue.add_ t.events ~time:(Vtime.max time t.now) thunk

(* Pre-lane scheduling: at a time tie the thunk runs before every normally
   scheduled event. The shard coordinator delivers cross-host messages
   through this lane so that delivery order relative to locally-scheduled
   events at the same instant is a property of the message timestamps, not
   of which synchronization round happened to drain the link. *)
let schedule_pre t ~time thunk =
  Event_queue.add_pre_ t.events ~time:(Vtime.max time t.now) thunk

(* ------------------------------------------------------------------ *)
(* Fibers *)

(* The thread whose user code this domain runs, with its scheduler. User
   code is entered only from the run loop, at a thread's first run and at
   its resume events, which set the slot; a fiber continued inline (a
   wait's end, a tracer's resume) runs kernel code, which never reads it.
   The run loop restores it when it returns. *)
type running = { sched : t; thread : Proc.thread }

let running_thread : running option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get running_thread with
  | Some r -> r
  | None -> invalid_arg "Sched: no simulated thread is running"

let suspend () = Effect.perform Suspend
let stop reason = Effect.perform (Stop reason)
let drop () = Effect.perform Drop

let wake (th : Proc.thread) =
  match th.Proc.fiber with
  | Some k ->
    th.Proc.fiber <- None;
    Effect.Deep.continue k ()
  | None -> failwith "Sched.wake: the thread is not suspended"

let resume (th : Proc.thread) action =
  match th.Proc.tstate with
  | Proc.Trace_stopped { resume; _ } ->
    th.Proc.tstate <- Proc.Ready;
    Effect.Deep.continue resume action
  | Proc.Dead -> ()
  | Proc.Ready | Proc.Blocked _ ->
    invalid_arg "Kernel.resume: thread is not trace-stopped"

(* The body of every thread's preallocated [resume_thunk]: back to user
   code, unless the thread died first. *)
let resume_user me (th : Proc.thread) =
  match th.Proc.tstate with
  | Proc.Dead -> th.Proc.fiber <- None
  | _ ->
    th.Proc.tstate <- Proc.Ready;
    Domain.DLS.set running_thread me;
    wake th

(* Returns to user code at the thread's clock: one scheduled event. *)
let return_at t (th : Proc.thread) =
  schedule t ~time:th.Proc.clock th.Proc.resume_thunk;
  suspend ()

let dropped = Some ignore

let run_thread_body t (th : Proc.thread) me (body : unit -> unit) =
  let suspended =
    Some (fun (k : (unit, unit) Effect.Deep.continuation) -> th.Proc.fiber <- Some k)
  in
  Domain.DLS.set running_thread me;
  Effect.Deep.match_with body ()
    {
      retc =
        (fun () ->
          th.Proc.tstate <- Proc.Dead;
          t.on_thread_exit th);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Suspend -> suspended
          | Stop reason ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                th.Proc.tstate <- Proc.Trace_stopped { reason; resume = k };
                match th.Proc.proc.Proc.tracer with
                | Some tracer -> tracer.Proc.on_stop th reason
                | None -> ())
          | Drop -> dropped
          | _ -> None);
    }

(* Parks [th] on the wait queue [on]: [Waitq.global] for the scheduler's
   catch-all queue, [Waitq.none] for a wait only a signal (see
   [wake_process]) or a timeout ends. *)
let park t th ~(on : Waitq.t) ~what ~(retry : unit -> bool) =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let b = Waitq.entry ~what ~seq in
  b.Waitq.retry <- retry;
  th.Proc.tstate <- Proc.Blocked b;
  if on == Waitq.global then Waitq.link t.global b
  else begin
    if on != Waitq.none then begin
      if on.Waitq.runq != t.runq then on.Waitq.runq <- t.runq;
      Waitq.link on b
    end;
    if t.checking then t.watched <- b :: t.watched
  end;
  b

let spawn t (th : Proc.thread) body =
  let me = Some { sched = t; thread = th } in
  th.Proc.resume_thunk <- (fun () -> resume_user me th);
  schedule t ~time:th.Proc.clock (fun () ->
      match th.Proc.tstate with
      | Proc.Dead -> () (* killed before it ever ran *)
      | _ -> run_thread_body t th me body)

(* ------------------------------------------------------------------ *)
(* Blocking *)

let kick t =
  if not t.kick_scheduled then begin
    t.kick_scheduled <- true;
    schedule t ~time:t.now t.kick_thunk
  end

(* A signal or a signal-mask change can end any interruptible wait of the
   process. *)
let wake_process t (p : Proc.process) =
  for i = 0 to Remon_util.Vec.length p.Proc.threads - 1 do
    match (Remon_util.Vec.get p.Proc.threads i).Proc.tstate with
    | Proc.Blocked b -> Waitq.wake_entry t.runq b
    | Proc.Ready | Proc.Trace_stopped _ | Proc.Dead -> ()
  done

(* ------------------------------------------------------------------ *)
(* Main loop *)

exception Event_budget_exhausted

(* Unbounded drain: the common case, kept free of any per-event bound
   check or peek. *)
let run t =
  let saved = Domain.DLS.get running_thread in
  let slot = t.slot in
  let running = ref true in
  while !running do
    if not (Event_queue.pop_into t.events slot) then running := false
    else begin
      t.events_processed <- t.events_processed + 1;
      if t.events_processed > t.max_events then raise Event_budget_exhausted;
      let time = Event_queue.slot_time slot in
      if Vtime.(time > t.now) then t.now <- time;
      (Event_queue.slot_payload slot) ()
    end
  done;
  Domain.DLS.set running_thread saved

(* Conservative-parallel window: process everything strictly below
   [bound], leave the rest queued. The first out-of-bound event is
   *peeked*, not popped, so no future event is lost. An empty queue reads
   as [Vtime.infinity], which no bound exceeds. *)
let run_before t ~bound =
  let saved = Domain.DLS.get running_thread in
  let slot = t.slot in
  while
    Vtime.(Event_queue.min_time t.events < bound)
    && Event_queue.pop_into t.events slot
  do
    t.events_processed <- t.events_processed + 1;
    if t.events_processed > t.max_events then raise Event_budget_exhausted;
    let time = Event_queue.slot_time slot in
    if Vtime.(time > t.now) then t.now <- time;
    (Event_queue.slot_payload slot) ()
  done;
  Domain.DLS.set running_thread saved

(* Time of the next runnable event, [Vtime.infinity] on an empty queue:
   the E_i input of the shard synchronizer's lookahead fixed point. *)
let next_event_time t = Event_queue.min_time t.events

(* The program-facing API, called on a thread's fiber. *)
let syscall call : Syscall.result =
  let { sched = t; thread = th } = current () in
  let result = t.syscall_handler th call in
  return_at t th;
  result

let compute d =
  let { sched = t; thread = th } = current () in
  th.Proc.clock <- Vtime.add th.Proc.clock d;
  return_at t th

let vnow () = (current ()).thread.Proc.clock
let self () = (current ()).thread

(* A user-space wait resumes through its own event, like a compute step. *)
let wait_user cond =
  if not (cond ()) then begin
    let { sched = t; thread = th } = current () in
    ignore
      (park t th ~on:Waitq.global ~what:"user-space wait" ~retry:(fun () ->
           match th.Proc.tstate with
           | Proc.Dead -> true
           | _ ->
             if cond () then begin
               th.Proc.clock <- Vtime.max th.Proc.clock t.now;
               schedule t ~time:th.Proc.clock th.Proc.resume_thunk;
               true
             end
             else false));
    suspend ()
  end
