(* The IP-MON replication buffer (Section 3.2).

   A linear (non-circular) buffer in shared memory. Each replica thread only
   advances its own position; when the master would overflow the buffer it
   signals GHUMVEE, which waits for all replicas to drain and resets the
   buffer — avoiding read-write sharing on head/tail indices.

   Each syscall invocation gets its own record with its own condition
   variable (Section 3.7): slaves wait only on the record they need, and the
   master skips the FUTEX_WAKE entirely when nobody is waiting. *)

open Remon_kernel

type flags = {
  forwarded_to_monitor : bool; (* master bounced this call to GHUMVEE *)
  expect_block : bool; (* file-map prediction: the call may block *)
}

type entry = {
  seq : int;
  bytes : int; (* space this record occupies in the buffer *)
  mutable call : Syscall.call option; (* master's deep-copied arguments *)
  mutable result : Syscall.result option;
  mutable flags : flags;
  mutable waiters : int; (* slaves waiting on this record's condvar *)
}

(* One record stream per thread rank: replica threads are matched by rank,
   and each (master-thread, slave-thread) pair has its own stream, so
   per-thread positions are single-writer. The stream holds records
   [low, master_next) in a ring indexed by [seq] modulo its power-of-two
   length. *)
type stream = {
  mutable ring : entry array;
  mutable low : int; (* oldest record still held *)
  mutable master_next : int;
  slave_next : int array; (* per variant; index 0 unused *)
}

type t = {
  size_bytes : int;
  nreplicas : int;
  mutable streams : stream array; (* per thread rank, grown on first use *)
  mutable used_bytes : int;
  mutable signals_pending : bool; (* set by GHUMVEE (Section 3.8) *)
  mutable generation : int; (* bumped at each reset *)
  active : bool array;
      (* per variant; quarantined replicas stop counting towards drains so
         the master can keep publishing while the group runs degraded *)
  mutable tamper : (entry -> unit) option;
      (* fault-injection hook: may drop (call <- None) or corrupt a freshly
         appended record before the slaves see it *)
  (* statistics *)
  mutable total_records : int;
  mutable resets : int;
  mutable wakes_issued : int;
  mutable wakes_skipped : int;
  (* the record log rides in the same segment: the record/replay agent's
     lock-order log (Section 2.3) and the master-stream store *)
  sync_log : Record_log.t;
  mutable obs : (Remon_obs.Obs.t * (unit -> int)) option;
      (* structured trace sink + virtual-clock reader, set by [Mvee] when
         observability is on; None = zero-cost disabled path *)
}

(* The RB travels in a System V segment; higher layers find it there. *)
type Shm.payload += Rb_payload of t

let header_bytes = 64

let create ~size_bytes ~nreplicas =
  {
    size_bytes;
    nreplicas;
    streams = [||];
    used_bytes = 0;
    signals_pending = false;
    generation = 0;
    active = Array.make nreplicas true;
    tamper = None;
    total_records = 0;
    resets = 0;
    wakes_issued = 0;
    wakes_skipped = 0;
    sync_log = Record_log.create ~nreplicas;
    obs = None;
  }

let default_size = 16 * 1024 * 1024 (* the paper's 16 MiB *)

(* RB events belong to the monitor context, not any replica: pid/tid 0.
   Occupancy rides along as a high-water-mark metric on every event, and
   as this Perfetto-graphable counter track after a reset or an append.
   Each site matches on the sink itself, so no argument list is built
   when it's off. *)
let obs_occupancy t =
  match t.obs with
  | None -> ()
  | Some (o, now) ->
    Remon_obs.Trace.counter o.Remon_obs.Obs.trace ~ts:(now ()) ~cat:"rb"
      ~name:"rb.used_bytes" ~pid:0 ~tid:0
      [ ("used_bytes", Remon_obs.Trace.Int t.used_bytes) ]

(* Fills ring slots that hold no record; never handed out, as lookups stay
   inside [low, master_next). *)
let no_entry =
  {
    seq = -1;
    bytes = 0;
    call = None;
    result = None;
    flags = { forwarded_to_monitor = false; expect_block = false };
    waiters = 0;
  }

let stream t rank =
  let n = Array.length t.streams in
  if rank >= n then
    t.streams <-
      Array.init (max (rank + 1) (2 * n)) (fun r ->
          if r < n then t.streams.(r)
          else
            {
              ring = Array.make 64 no_entry;
              low = 0;
              master_next = 0;
              slave_next = Array.make t.nreplicas 0;
            });
  t.streams.(rank)

(* The position of the slowest active slave on [s]; the master's own when
   no slave is active. *)
let slowest t s =
  let m = ref s.master_next in
  for v = 1 to t.nreplicas - 1 do
    if t.active.(v) && s.slave_next.(v) < !m then m := s.slave_next.(v)
  done;
  !m

let record_bytes (call : Syscall.call) =
  header_bytes + Syscall.arg_bytes call

(* Would appending a record of [bytes] overflow the linear buffer? *)
let would_overflow t ~bytes = t.used_bytes + bytes > t.size_bytes

let fits_at_all t ~bytes = bytes <= t.size_bytes

(* All active slaves have consumed every record: safe to reset. Quarantined
   variants no longer pull records and must not wedge the master. *)
let fully_drained t =
  Array.for_all (fun s -> slowest t s = s.master_next) t.streams

(* GHUMVEE-arbitrated reset: clears all records and reclaims the space.
   Caller must have established that the buffer is drained. *)
let reset t =
  Array.iter
    (fun s ->
      s.low <- s.master_next;
      Array.fill s.ring 0 (Array.length s.ring) no_entry)
    t.streams;
  t.used_bytes <- 0;
  t.generation <- t.generation + 1;
  t.resets <- t.resets + 1;
  (match t.obs with
  | None -> ()
  | Some (o, now) ->
    Remon_obs.Obs.instant o ~ts:(now ()) ~cat:"rb" ~name:"reset" ~pid:0 ~tid:0
      [ ("generation", Remon_obs.Trace.Int t.generation) ];
    Remon_obs.Metrics.hwm o.Remon_obs.Obs.metrics "rb.used_bytes" t.used_bytes);
  obs_occupancy t

(* Drop the records every active slave has moved past. Lookups only
   target [slave_next] positions, and [reactivate] fast-forwards a
   returning replica to the master, so such a record is unreachable;
   clearing its slot lets it die young instead of pinning the simulator's
   memory until the ring wraps. [used_bytes] is untouched: the record
   still occupies simulated buffer space until GHUMVEE resets it. *)
let release t s =
  let slow = slowest t s in
  let mask = Array.length s.ring - 1 in
  while s.low < slow do
    s.ring.(s.low land mask) <- no_entry;
    s.low <- s.low + 1
  done

(* The ring is full. Records only a deactivated slave still held give up
   their slots; the ring doubles when the active slaves need them all. *)
let make_room t s =
  release t s;
  let len = Array.length s.ring in
  if s.master_next - s.low = len then begin
    let ring = Array.make (2 * len) no_entry in
    for seq = s.low to s.master_next - 1 do
      ring.(seq land ((2 * len) - 1)) <- s.ring.(seq land (len - 1))
    done;
    s.ring <- ring
  end

(* Master side: append the record for its next call on [rank]'s stream. *)
let master_append t ~rank ~call ~expect_block ~forwarded =
  let s = stream t rank in
  let bytes = record_bytes call in
  let e =
    {
      seq = s.master_next;
      bytes;
      call = Some call;
      result = None;
      flags = { forwarded_to_monitor = forwarded; expect_block };
      waiters = 0;
    }
  in
  if e.seq - s.low = Array.length s.ring then make_room t s;
  s.ring.(e.seq land (Array.length s.ring - 1)) <- e;
  s.master_next <- e.seq + 1;
  t.used_bytes <- t.used_bytes + bytes;
  t.total_records <- t.total_records + 1;
  (match t.obs with
  | None -> ()
  | Some (o, now) ->
    Remon_obs.Obs.instant o ~ts:(now ()) ~cat:"rb" ~name:"append" ~pid:0
      ~tid:0
      [
        ("rank", Remon_obs.Trace.Int rank);
        ("seq", Remon_obs.Trace.Int e.seq);
        ("bytes", Remon_obs.Trace.Int bytes);
      ];
    Remon_obs.Metrics.hwm o.Remon_obs.Obs.metrics "rb.used_bytes" t.used_bytes);
  obs_occupancy t;
  (match t.tamper with Some f -> f e | None -> ());
  e

(* Master side: publish the result and decide whether a FUTEX_WAKE is
   needed (only when slaves are already waiting on this record). *)
let master_publish t e result =
  e.result <- Some result;
  t.used_bytes <- t.used_bytes + Syscall.result_bytes result;
  (match t.obs with
  | None -> ()
  | Some (o, _) ->
    Remon_obs.Metrics.hwm o.Remon_obs.Obs.metrics "rb.used_bytes" t.used_bytes);
  if e.waiters > 0 then begin
    t.wakes_issued <- t.wakes_issued + 1;
    true
  end
  else begin
    t.wakes_skipped <- t.wakes_skipped + 1;
    false
  end

(* Slave side: the record this variant must consume next on [rank]. *)
let slave_lookup t ~rank ~variant =
  let s = stream t rank in
  let seq = s.slave_next.(variant) in
  if seq >= s.low && seq < s.master_next then
    Some s.ring.(seq land (Array.length s.ring - 1))
  else None

let slave_advance t ~rank ~variant =
  let s = stream t rank in
  let seq = s.slave_next.(variant) in
  s.slave_next.(variant) <- seq + 1;
  release t s;
  match t.obs with
  | None -> ()
  | Some (o, now) ->
    Remon_obs.Obs.instant o ~ts:(now ()) ~cat:"rb" ~name:"consume" ~pid:0
      ~tid:0
      [
        ("rank", Remon_obs.Trace.Int rank);
        ("variant", Remon_obs.Trace.Int variant);
        ("seq", Remon_obs.Trace.Int seq);
      ]

(* How many records the master is ahead of the slowest slave on [rank]'s
   stream; bounds the run-ahead window ablation. *)
let lag t ~rank =
  let s = stream t rank in
  s.master_next - slowest t s

(* ------------------------------------------------------------------ *)
(* Quarantine / rejoin support *)

(* Stop counting [variant] towards drains and run-ahead windows. *)
let deactivate t ~variant = if variant > 0 then t.active.(variant) <- false

(* Re-admit a (respawned) replica: it resumes consumption at the master's
   current position — its backlog was satisfied from the journal, not the
   buffer, so the stale positions are fast-forwarded. *)
let reactivate t ~variant =
  if variant > 0 then begin
    t.active.(variant) <- true;
    Array.iter (fun s -> s.slave_next.(variant) <- s.master_next) t.streams
  end
