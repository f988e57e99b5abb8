(* Typed inter-host link: the one and only shard boundary.

   In a sharded (PDES) run every simulated host owns its processes,
   scheduler and event queue outright; the sole way state crosses hosts is
   a message on one of these links. A link is unidirectional, FIFO, and
   carries a fixed propagation latency: a message sent at virtual time [t]
   becomes visible to the destination host at [t + latency], never
   earlier. That latency is the conservative synchronizer's lookahead —
   the destination may safely simulate up to (but excluding) the earliest
   time a not-yet-seen message could still arrive.

   Layout: the queue is a [Ring] of two parallel arrays, delivery time and
   payload, so a queued message costs two array cells and no allocation
   beyond its payload. A message's sequence number is its position in send
   order: the ring's absolute index.

   Thread safety: none is needed. The shard runner's round barrier orders
   every access — the sending host only sends while it runs, and the
   coordinator only peeks and drains between run phases, so a link is
   never touched by two domains at once. Determinism does not depend on
   domain scheduling either: sequence numbers are assigned in the
   (single-threaded) sender's own event order, and receivers drain
   strictly below a bound that the synchronizer derives from published
   frontiers, so the set and order of messages an advance observes is a
   pure function of virtual time. *)

open Remon_sim

type payload =
  | Syn of { conn : int; src_port : int; dst_port : int; window : int }
      (* open a connection to [dst_port]; [window] is how many bytes the
         initiator can buffer on the return direction before window
         updates (its receive buffer size) *)
  | Syn_ok of { conn : int; window : int }
      (* accepted; [window] is the acceptor's receive buffer size *)
  | Syn_refused of { conn : int }
      (* no listener / backlog full: the initiator observes ECONNREFUSED *)
  | Data of { conn : int; data : string }
  | Window of { conn : int; bytes : int }
      (* receiver drained [bytes]: sender may push that much more *)
  | Fin of { conn : int }
      (* sender's write side is done (close or SHUT_WR) and all data for
         [conn] has been flushed: the peer observes EOF after draining *)
  | Rst of { conn : int }
      (* data arrived for a connection whose application endpoint is
         closed: both ends tear down, writers observe EPIPE *)

(* A FIFO of (int key, payload) entries. Entry [k] (the k-th ever pushed)
   sits at index [k land (capacity - 1)]; the capacity is a power of two
   and doubles when full. A taken entry's payload cell is cleared so the
   ring never keeps a delivered payload alive. *)
module Ring = struct
  type t = {
    mutable keys : int array;
    mutable vals : payload array;
    mutable head : int; (* absolute index of the oldest entry *)
    mutable tail : int; (* absolute index the next push takes *)
  }

  let vacant = Fin { conn = -1 }

  let create () = { keys = [||]; vals = [||]; head = 0; tail = 0 }

  let is_empty r = r.tail = r.head

  let grow r =
    let cap = Array.length r.keys in
    let cap' = max 8 (2 * cap) in
    let keys = Array.make cap' 0 and vals = Array.make cap' vacant in
    for k = r.head to r.tail - 1 do
      keys.(k land (cap' - 1)) <- r.keys.(k land (cap - 1));
      vals.(k land (cap' - 1)) <- r.vals.(k land (cap - 1))
    done;
    r.keys <- keys;
    r.vals <- vals

  let push r key v =
    if r.tail - r.head = Array.length r.keys then grow r;
    let i = r.tail land (Array.length r.keys - 1) in
    r.keys.(i) <- key;
    r.vals.(i) <- v;
    r.tail <- r.tail + 1

  let peek_key r =
    if r.tail = r.head then invalid_arg "Link.Ring.peek_key: empty";
    r.keys.(r.head land (Array.length r.keys - 1))

  let take r =
    if r.tail = r.head then invalid_arg "Link.Ring.take: empty";
    let i = r.head land (Array.length r.keys - 1) in
    let v = r.vals.(i) in
    r.vals.(i) <- vacant;
    r.head <- r.head + 1;
    v
end

type t = {
  dst : int;
  latency : Vtime.t;
  q : Ring.t; (* key: delivery instant at the destination, send + latency *)
  mutable data_bytes : int; (* lifetime tally for the observability scrape *)
}

let create ~dst ~latency =
  if Vtime.(latency <= Vtime.zero) then
    invalid_arg "Link.create: latency must be positive (it is the lookahead)";
  { dst; latency; q = Ring.create (); data_bytes = 0 }

let dst t = t.dst

let send t ~now payload =
  Ring.push t.q (Vtime.add now t.latency) payload;
  match payload with
  | Data { data; _ } -> t.data_bytes <- t.data_bytes + String.length data
  | _ -> ()

(* Earliest queued delivery time, [Vtime.infinity] when empty. Sends are
   stamped with the sender's nondecreasing clock, so the head is the
   minimum. *)
let peek_at t = if Ring.is_empty t.q then Vtime.infinity else Ring.peek_key t.q

let take t = Ring.take t.q

let stats t = (t.q.Ring.tail, t.data_bytes)
