(** Typed inter-host link — the shard boundary of sharded (PDES) runs.

    Unidirectional FIFO of timestamped messages with a fixed positive
    propagation latency; the latency doubles as the conservative
    synchronizer's lookahead. Messages queue in a ring of parallel arrays
    (delivery time, payload) and carry no record of their own: a message's
    sequence number is its position in send order. There is no lock — the
    shard runner's round barrier orders every access (the sender sends
    while it runs, the coordinator peeks and drains between run phases) —
    so draining is deterministic regardless of domain scheduling. *)

open Remon_sim

type payload =
  | Syn of { conn : int; src_port : int; dst_port : int; window : int }
  | Syn_ok of { conn : int; window : int }
  | Syn_refused of { conn : int }
  | Data of { conn : int; data : string }
  | Window of { conn : int; bytes : int }
  | Fin of { conn : int }
  | Rst of { conn : int }

(** A growable FIFO of [(int key, payload)] entries in two parallel
    arrays: a link's queue (key: delivery time) and the shard runner's
    per-host delivery inbox (key: source host). Pushing allocates only
    when the ring doubles; taking clears the payload's cell. *)
module Ring : sig
  type t

  val create : unit -> t
  val push : t -> int -> payload -> unit

  val peek_key : t -> int
  (** The oldest entry's key. Raises [Invalid_argument] when empty. *)

  val take : t -> payload
  (** Removes the oldest entry and returns its payload. Raises
      [Invalid_argument] when empty. *)
end

type t

val create : dst:int -> latency:Vtime.t -> t
(** Raises [Invalid_argument] on a non-positive latency: zero lookahead
    would deadlock the conservative synchronizer. *)

val dst : t -> int

val send : t -> now:Vtime.t -> payload -> unit
(** Enqueue for delivery at [now + latency]. Called by the sending host
    while it runs; [now] never decreases, so the queue stays sorted by
    delivery time. *)

val peek_at : t -> Vtime.t
(** Earliest queued delivery time; [Vtime.infinity] when empty. *)

val take : t -> payload
(** Removes the earliest queued message (the one {!peek_at} names) and
    returns its payload. The caller drains only below a bound that
    respects the sender's frontier + latency (the conservative invariant),
    so what it takes is complete and final for that window. Raises
    [Invalid_argument] when empty. *)

val stats : t -> int * int
(** [(messages_sent, data_bytes)] lifetime tallies. *)
