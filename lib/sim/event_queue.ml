(* Binary min-heap of timestamped events.

   Ties are broken by insertion sequence so that simulation runs are fully
   deterministic regardless of heap internals: (time, seq) is a total
   order, and any heap over it pops the same sequence.

   Layout (structure of arrays):
   - The heap is three parallel int arrays, [heap_time], [heap_seq] and
     [heap_slot]: position i holds the key (time, seq) of one queued
     event and the slot its payload sits in. Sifts move only immediates,
     so they never run the GC write barrier, and they move a hole instead
     of swapping.
   - Payloads live in a slot table ([payloads]) indexed by slot and never
     move while their event is queued. Every heap entry, live or dead,
     holds its own slot, so the free slots fit in [heap_slot]'s unused
     tail: positions [size, nslots) list them, and an insert takes the
     one at position [size]. All the arrays share one capacity.
   - [gens] holds a per-slot generation, odd while the slot's event is
     live. A handle is (generation, slot) packed into an immediate int;
     popping or cancelling the event bumps the generation, so every
     earlier handle to that slot goes inert.

   Hot-path properties:
   - [length]/[is_empty] are O(1): a live-entry counter is maintained by
     add/cancel/pop.
   - [add]/[add_] are amortized O(1) for the common monotone-time
     insertion pattern: a new entry that is not earlier than its parent
     needs a single comparison and no sift.
   - Steady-state operation allocates nothing: handles are immediates,
     and [pop_into] writes the popped event into a caller-owned slot.
   - Cancelled entries stay in the heap until popped, or are compacted
     away once they outnumber the live ones, so a workload that
     schedules-and-cancels (timeouts, watchdogs) cannot grow the heap
     without bound. *)

type 'a t = {
  mutable heap_time : int array;
  mutable heap_seq : int array;
  mutable heap_slot : int array;
  mutable size : int; (* physical heap entries, live + dead *)
  mutable lives : int; (* live (non-cancelled, non-popped) entries *)
  mutable next_seq : int;
  (* pre-lane sequence counter: starts at [min_int] and counts up, so every
     pre-lane event compares before every normally-added event at the same
     time while pre-lane insertions keep their own relative order. The shard
     coordinator uses this to deliver cross-host messages ahead of any
     locally-scheduled event at the same instant, making pop order at a tie
     independent of which synchronization round performed the insertion. *)
  mutable next_pre_seq : int;
  mutable payloads : 'a array;
  mutable gens : int array;
  mutable nslots : int; (* slots ever handed out; the rest are untouched *)
  (* lifetime tallies, scraped into the observability metrics at run end;
     plain int increments, cheap enough to keep unconditionally *)
  mutable adds : int;
  mutable cancels : int;
  mutable pops : int;
  mutable compactions : int;
  mutable lazy_drops : int;
      (* dead entries discarded by [min_time]'s lazy sweep: without this
         tally the metrics scrape undercounts queue work under
         cancellation-heavy loads (the drops appear in no other stat) *)
}

type stats = {
  adds : int;
  cancels : int;
  pops : int;
  compactions : int;
  lazy_drops : int;
}

type handle = int

(* 2^30 slots bound the queue's physical size; the generation takes the
   remaining bits (it would have to wrap past 2^32 reuses of one slot for
   a stale handle to alias a live event). *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let handle_of slot gen = (gen lsl slot_bits) lor slot

type 'a slot = { mutable s_time : Vtime.t; mutable s_payload : 'a }

let make_slot payload = { s_time = Vtime.zero; s_payload = payload }

let slot_time slot = slot.s_time
let slot_payload slot = slot.s_payload

let create () =
  {
    heap_time = [||];
    heap_seq = [||];
    heap_slot = [||];
    size = 0;
    lives = 0;
    next_seq = 0;
    next_pre_seq = min_int;
    payloads = [||];
    gens = [||];
    nslots = 0;
    adds = 0;
    cancels = 0;
    pops = 0;
    compactions = 0;
    lazy_drops = 0;
  }

let stats (t : _ t) : stats =
  {
    adds = t.adds;
    cancels = t.cancels;
    pops = t.pops;
    compactions = t.compactions;
    lazy_drops = t.lazy_drops;
  }

let length t = t.lives

let is_empty t = t.lives = 0

let physical_size t = t.size

(* Fill the hole at heap position [i] with (time, seq, slot), first moving
   the hole up past every parent that sorts after the new key. *)
let sift_up t i time seq slot =
  let time_at = t.heap_time and seq_at = t.heap_seq and slot_at = t.heap_slot in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = time_at.(p) in
    if time < pt || (time = pt && seq < seq_at.(p)) then begin
      time_at.(!i) <- pt;
      seq_at.(!i) <- seq_at.(p);
      slot_at.(!i) <- slot_at.(p);
      i := p
    end
    else moving := false
  done;
  time_at.(!i) <- time;
  seq_at.(!i) <- seq;
  slot_at.(!i) <- slot

(* Fill the hole at heap position [i] with (time, seq, slot), first moving
   the hole down past every smaller child. *)
let sift_down t i time seq slot =
  let time_at = t.heap_time and seq_at = t.heap_seq and slot_at = t.heap_slot in
  let n = t.size in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let lt = time_at.(l) and rt = time_at.(r) in
          if rt < lt || (rt = lt && seq_at.(r) < seq_at.(l)) then r else l
        end
        else l
      in
      let ct = time_at.(c) in
      if ct < time || (ct = time && seq_at.(c) < seq) then begin
        time_at.(!i) <- ct;
        seq_at.(!i) <- seq_at.(c);
        slot_at.(!i) <- slot_at.(c);
        i := c
      end
      else moving := false
    end
  done;
  time_at.(!i) <- time;
  seq_at.(!i) <- seq;
  slot_at.(!i) <- slot

(* Drop heap position 0, re-seat the last entry, and return the dropped
   entry's slot to the free tail. Its payload stays in the table until
   the slot is reused. *)
let remove_top t =
  let slot = t.heap_slot.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 t.heap_time.(n) t.heap_seq.(n) t.heap_slot.(n);
  t.heap_slot.(n) <- slot

(* The slot table is full: double every array. The payload fills the new
   table's unused cells. *)
let grow t payload =
  let cap = Array.length t.gens in
  let cap' = max 16 (2 * cap) in
  let widen a =
    let b = Array.make cap' 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.heap_time <- widen t.heap_time;
  t.heap_seq <- widen t.heap_seq;
  t.heap_slot <- widen t.heap_slot;
  t.gens <- widen t.gens;
  let payloads = Array.make cap' payload in
  Array.blit t.payloads 0 payloads 0 cap;
  t.payloads <- payloads

let insert (t : _ t) ~seq ~time payload =
  let i = t.size in
  if i = t.nslots then begin
    (* no free slot: hand out a fresh one *)
    if i = Array.length t.gens then grow t payload;
    t.heap_slot.(i) <- i;
    t.nslots <- i + 1
  end;
  let slot = t.heap_slot.(i) in
  t.payloads.(slot) <- payload;
  let gen = t.gens.(slot) + 1 in
  t.gens.(slot) <- gen;
  t.size <- i + 1;
  t.lives <- t.lives + 1;
  t.adds <- t.adds + 1;
  sift_up t i time seq slot;
  handle_of slot gen

(* Drop dead entries and re-establish the heap property bottom-up
   (Floyd heapify, O(size)). Run when dead entries outnumber live ones,
   which amortizes to O(1) per cancellation. *)
let compact (t : _ t) =
  t.compactions <- t.compactions + 1;
  (* partition: live entries to the front, dead slots behind them, where
     they join the free tail *)
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.heap_slot.(i) in
    if t.gens.(slot) land 1 = 1 then begin
      let dead = t.heap_slot.(!j) in
      t.heap_time.(!j) <- t.heap_time.(i);
      t.heap_seq.(!j) <- t.heap_seq.(i);
      t.heap_slot.(!j) <- slot;
      t.heap_slot.(i) <- dead;
      incr j
    end
  done;
  t.size <- !j;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.heap_time.(i) t.heap_seq.(i) t.heap_slot.(i)
  done

let take_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let add t ~time payload = insert t ~seq:(take_seq t) ~time payload

let add_ t ~time payload =
  ignore (insert t ~seq:(take_seq t) ~time payload : handle)

let add_pre_ t ~time payload =
  let s = t.next_pre_seq in
  t.next_pre_seq <- s + 1;
  ignore (insert t ~seq:s ~time payload : handle)

let cancel (t : _ t) h =
  let slot = h land slot_mask in
  let gen = t.gens.(slot) in
  if handle_of slot gen = h then begin
    t.gens.(slot) <- gen + 1;
    t.lives <- t.lives - 1;
    t.cancels <- t.cancels + 1;
    if t.size >= 32 && t.size - t.lives > t.lives then compact t
  end

(* Remove the earliest entry, skipping dead ones, and copy the live one's
   time and payload into [slot]. A top-level recursion, not a local
   closure, so a pop allocates nothing. *)
let rec pop_into (t : _ t) slot =
  if t.size = 0 then false
  else begin
    let s = t.heap_slot.(0) in
    let time = t.heap_time.(0) in
    remove_top t;
    let gen = t.gens.(s) in
    if gen land 1 = 1 then begin
      t.gens.(s) <- gen + 1;
      t.lives <- t.lives - 1;
      t.pops <- t.pops + 1;
      slot.s_time <- time;
      slot.s_payload <- t.payloads.(s);
      true
    end
    else pop_into t slot
  end

let pop t =
  if t.size = 0 then None
  else begin
    let slot = make_slot t.payloads.(0) in
    if pop_into t slot then Some (slot.s_time, slot.s_payload) else None
  end

let rec min_time (t : _ t) =
  if t.size = 0 then Vtime.infinity
  else if t.gens.(t.heap_slot.(0)) land 1 = 1 then t.heap_time.(0)
  else begin
    (* Drop dead entries lazily. *)
    t.lazy_drops <- t.lazy_drops + 1;
    remove_top t;
    min_time t
  end
