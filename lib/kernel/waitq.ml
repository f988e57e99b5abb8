(* Wait queues, in the manner of Linux's wait_queue_head.

   A thread that blocks in the kernel parks one [entry]: a retry thunk
   plus the bookkeeping the scheduler's sweep needs. Every entry hangs on
   one queue or on none. Entries of converted wait kinds (stream
   read/write, listener accept) hang on the wait queue of the object they
   wait for, and the code that changes the object's state wakes that
   queue; waits that only a signal or their timeout can end (nanosleep,
   pause, local and refused connect, an injected stall) hang on no queue
   at all. Every other kind parks on its scheduler's catch-all queue
   ([global]), which each sweep wakes first, so those entries are retried
   on every kick as before.

   A woken entry moves into its scheduler's run queue ([runq]): a binary
   min-heap keyed by the entry's park sequence number, so the sweep
   retries woken threads in park order. During a sweep, an entry woken
   ahead of the sweep's cursor joins this sweep; one woken at or behind
   the cursor, or parked during the sweep, waits in [later] for the next
   sweep. That is exactly when a sweep that retried every parked entry
   would see the change, so which retries succeed, and in what order, is
   the same as with such a sweep.

   Linking, unlinking and waking an entry are O(1) and allocate nothing;
   the queue record itself is allocated lazily by its owner. *)

open Remon_sim

type state =
  | Waiting (* not woken since its last retry *)
  | Woken (* in its scheduler's run queue *)
  | Done (* completed or unparked *)

type entry = {
  mutable retry : unit -> bool;
  mutable timeout : Event_queue.handle option;
  mutable interrupt : Syscall.result -> unit;
  what : string;
  seq : int;
  mutable state : state;
  mutable queue : t;
  mutable prev : entry;
  mutable next : entry;
}

and t = { mutable head : entry; mutable runq : runq }

and runq = {
  mutable heap : entry array;
  mutable size : int;
  mutable later : entry array;
  mutable nlater : int;
  mutable sweeping : bool;
  mutable cursor : int;
  mutable limit : int;
}

let no_interrupt (_ : Syscall.result) = ()

(* Sentinels. [nil] ends every list; [none] is "no object" and the lazy
   placeholder of an object that never had a waiter; [global] names the
   scheduler's catch-all queue. None of them is ever written to. *)
let rec nil =
  {
    retry = (fun () -> false);
    timeout = None;
    interrupt = no_interrupt;
    what = "";
    seq = max_int;
    state = Done;
    queue = none;
    prev = nil;
    next = nil;
  }

and none = { head = nil; runq = no_runq }
and global = { head = nil; runq = no_runq }

and no_runq =
  {
    heap = [||];
    size = 0;
    later = [||];
    nlater = 0;
    sweeping = false;
    cursor = -1;
    limit = 0;
  }

let create () = { head = nil; runq = no_runq }

let create_runq () =
  {
    heap = Array.make 16 nil;
    size = 0;
    later = Array.make 16 nil;
    nlater = 0;
    sweeping = false;
    cursor = -1;
    limit = 0;
  }

let entry ~what ~seq =
  {
    retry = (fun () -> false);
    timeout = None;
    interrupt = no_interrupt;
    what;
    seq;
    state = Waiting;
    queue = none;
    prev = nil;
    next = nil;
  }

(* ------------------------------------------------------------------ *)
(* Queue membership *)

let link q e =
  e.queue <- q;
  e.next <- q.head;
  if q.head != nil then q.head.prev <- e;
  q.head <- e

(* The entry's own links are left as they are: it is never linked
   again. *)
let unlink e =
  let q = e.queue in
  if q != none then begin
    if e.prev != nil then e.prev.next <- e.next else q.head <- e.next;
    if e.next != nil then e.next.prev <- e.prev;
    e.queue <- none
  end

(* ------------------------------------------------------------------ *)
(* Run queue: a min-heap on [seq] *)

let grow a n =
  let b = Array.make (max 16 (2 * n)) nil in
  Array.blit a 0 b 0 n;
  b

let rec sift_up h i e =
  if i = 0 then h.(0) <- e
  else
    let parent = (i - 1) / 2 in
    if h.(parent).seq > e.seq then begin
      h.(i) <- h.(parent);
      sift_up h parent e
    end
    else h.(i) <- e

let rec sift_down h n i e =
  let l = (2 * i) + 1 in
  if l >= n then h.(i) <- e
  else
    let c = if l + 1 < n && h.(l + 1).seq < h.(l).seq then l + 1 else l in
    if h.(c).seq < e.seq then begin
      h.(i) <- h.(c);
      sift_down h n c e
    end
    else h.(i) <- e

let heap_add rq e =
  if rq.size = Array.length rq.heap then rq.heap <- grow rq.heap rq.size;
  rq.size <- rq.size + 1;
  sift_up rq.heap (rq.size - 1) e

let pop rq =
  let h = rq.heap in
  let top = h.(0) in
  let n = rq.size - 1 in
  rq.size <- n;
  let last = h.(n) in
  h.(n) <- nil;
  if n > 0 then sift_down h n 0 last;
  rq.cursor <- top.seq;
  top

(* Ahead of the cursor of a running sweep: this sweep; otherwise the
   next one. *)
let enqueue rq e =
  if rq.sweeping && (e.seq <= rq.cursor || e.seq >= rq.limit) then begin
    if rq.nlater = Array.length rq.later then
      rq.later <- grow rq.later rq.nlater;
    rq.later.(rq.nlater) <- e;
    rq.nlater <- rq.nlater + 1
  end
  else heap_add rq e

let begin_sweep rq ~limit =
  rq.sweeping <- true;
  rq.cursor <- -1;
  rq.limit <- limit

let end_sweep rq =
  rq.sweeping <- false;
  for i = 0 to rq.nlater - 1 do
    heap_add rq rq.later.(i);
    rq.later.(i) <- nil
  done;
  rq.nlater <- 0

(* ------------------------------------------------------------------ *)
(* Waking *)

let wake_entry rq e =
  if e.state = Waiting then begin
    e.state <- Woken;
    enqueue rq e
  end

let rec wake_from rq e =
  if e != nil then begin
    wake_entry rq e;
    wake_from rq e.next
  end

let wake q = wake_from q.runq q.head
