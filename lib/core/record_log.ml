(* The record log: the lock-order log of the record/replay agent (Section
   2.3) and the single store of the master's replicated stream.

   Lock-order log. The agent embedded in each replica forces all replicas
   to acquire user-space locks in the order the master acquired them,
   removing scheduling non-determinism that would otherwise make replicas
   issue different syscall sequences. The master appends (lock,
   thread-rank) events; each slave consumes them in order, gating its own
   acquisitions. This log runs whether or not the stream is captured.

   Stream store. When capture is on, every replicated master call, every
   lock acquisition and every injected signal is appended to one ordered
   array, once. Two consumers read that same array: a respawned replica
   under the Respawn recovery policy walks its thread rank's calls through
   a cursor to resynchronize with the group, and [Mvee] snapshots it into
   an RMRC recording. *)

open Remon_kernel

type event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
  | Lock of { lock_id : int; thread_rank : int }
  | Signal of { rank : int; signo : int }

type lock_event = { lock_id : int; thread_rank : int }

type t = {
  mutable locks : lock_event array;
  mutable len : int;
  consumed : int array; (* per variant; index 0 unused *)
  mutable capture : bool;
  mutable stream : event array;
  mutable stream_len : int;
  mutable on_call : (rank:int -> unit) option;
      (* fired after each captured call; GHUMVEE uses it to feed records
         to replaying replicas waiting at the head of the stream *)
}

let create ~nreplicas =
  {
    locks = Array.make 64 { lock_id = 0; thread_rank = 0 };
    len = 0;
    consumed = Array.make nreplicas 0;
    capture = false;
    stream = [||];
    stream_len = 0;
    on_call = None;
  }

let push t ev =
  if t.stream_len = Array.length t.stream then begin
    let bigger = Array.make (max 256 (2 * t.stream_len)) ev in
    Array.blit t.stream 0 bigger 0 t.stream_len;
    t.stream <- bigger
  end;
  t.stream.(t.stream_len) <- ev;
  t.stream_len <- t.stream_len + 1

(* ------------------------------------------------------------------ *)
(* Lock-order log *)

let length t = t.len

let append t ~lock_id ~thread_rank =
  if t.capture then push t (Lock { lock_id; thread_rank });
  if t.len = Array.length t.locks then begin
    let bigger = Array.make (2 * t.len) t.locks.(0) in
    Array.blit t.locks 0 bigger 0 t.len;
    t.locks <- bigger
  end;
  t.locks.(t.len) <- { lock_id; thread_rank };
  t.len <- t.len + 1

(* The next unconsumed event for [variant], if the master has produced it. *)
let peek t ~variant =
  let pos = t.consumed.(variant) in
  if pos < t.len then Some t.locks.(pos) else None

let advance t ~variant = t.consumed.(variant) <- t.consumed.(variant) + 1

(* A respawned replica restarts from the beginning: it must re-consume the
   whole lock-order history to reproduce the master's schedule. *)
let reset_variant t ~variant = t.consumed.(variant) <- 0

(* ------------------------------------------------------------------ *)
(* Stream store *)

let enable_capture t = t.capture <- true
let set_on_call t f = t.on_call <- Some f

let note_call t ~rank ~call ~result =
  if t.capture then begin
    push t (Call { rank; call; result });
    match t.on_call with Some f -> f ~rank | None -> ()
  end

let note_signal t ~rank ~signo =
  if t.capture then push t (Signal { rank; signo })

let events t = Array.sub t.stream 0 t.stream_len

type cursor = { rank : int; mutable pos : int }

let cursor ~rank = { rank; pos = 0 }

(* Scans forward to the cursor rank's next call. Events of other ranks are
   passed over for good, so each cursor reads the store once. *)
let rec next_call t (c : cursor) =
  if c.pos >= t.stream_len then None
  else begin
    let ev = t.stream.(c.pos) in
    c.pos <- c.pos + 1;
    match ev with
    | Call r when r.rank = c.rank -> Some (r.call, r.result)
    | Call _ | Lock _ | Signal _ -> next_call t c
  end
