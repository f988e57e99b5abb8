(* Typed inter-host link: the one and only shard boundary.

   In a sharded (PDES) run every simulated host owns its processes,
   scheduler and event queue outright; the sole way state crosses hosts is
   a message on one of these links. A link is unidirectional, FIFO, and
   carries a fixed propagation latency: a message sent at virtual time [t]
   becomes visible to the destination host at [t + latency], never
   earlier. That latency is the conservative synchronizer's lookahead —
   the destination may safely simulate up to (but excluding) the earliest
   time a not-yet-seen message could still arrive.

   Thread safety: the queue is mutex-protected because the sending and
   receiving shards may run on different domains. Everything else about a
   link is immutable after construction. Determinism does not depend on
   domain scheduling: messages are stamped with a per-link sequence number
   at send time (sender-deterministic), and receivers drain strictly below
   a bound that the synchronizer derives from published frontiers, so the
   set and order of messages an advance observes is a pure function of
   virtual time. *)

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

type msg = {
  at : Vtime.t; (* delivery instant at the destination: send + latency *)
  seq : int; (* per-link send order; ties at equal [at] break by this *)
  payload : payload;
}

type t = {
  dst : int;
  latency : Vtime.t;
  mu : Mutex.t;
  q : msg Queue.t;
  mutable next_seq : int;
  (* lifetime tallies for the observability scrape *)
  mutable sent : int;
  mutable data_bytes : int;
}

let create ~dst ~latency =
  if Vtime.(latency <= Vtime.zero) then
    invalid_arg "Link.create: latency must be positive (it is the lookahead)";
  {
    dst;
    latency;
    mu = Mutex.create ();
    q = Queue.create ();
    next_seq = 0;
    sent = 0;
    data_bytes = 0;
  }

let dst t = t.dst

(* Called by the source shard only (single-threaded per shard), while the
   destination may concurrently drain: only the queue needs the lock. *)
let send t ~now payload =
  let at = Vtime.add now t.latency in
  Mutex.lock t.mu;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Queue.push { at; seq; payload } t.q;
  t.sent <- t.sent + 1;
  (match payload with
  | Data { data; _ } -> t.data_bytes <- t.data_bytes + String.length data
  | _ -> ());
  Mutex.unlock t.mu

(* Earliest queued delivery time, [Vtime.infinity] when empty. Sends are
   stamped with the sender's nondecreasing clock, so the head is the
   minimum. *)
let peek_at t =
  Mutex.lock t.mu;
  let r = match Queue.peek_opt t.q with Some m -> m.at | None -> Vtime.infinity in
  Mutex.unlock t.mu;
  r

(* Pops every message with [at < bound], in send order. The conservative
   bound guarantees the sender can no longer produce messages below
   [bound], so the returned list is complete and final for that window. *)
let drain_before t ~bound =
  Mutex.lock t.mu;
  let rec take acc =
    match Queue.peek_opt t.q with
    | Some m when Vtime.(m.at < bound) ->
      ignore (Queue.pop t.q);
      take (m :: acc)
    | _ -> List.rev acc
  in
  let msgs = take [] in
  Mutex.unlock t.mu;
  msgs

let stats t =
  Mutex.lock t.mu;
  let r = (t.sent, t.data_bytes) in
  Mutex.unlock t.mu;
  r
