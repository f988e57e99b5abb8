(** Typed inter-host link — the shard boundary of sharded (PDES) runs.

    Unidirectional FIFO of timestamped messages with a fixed positive
    propagation latency; the latency doubles as the conservative
    synchronizer's lookahead. Mutex-protected so the sending and receiving
    shards can live on different domains; message order is fixed by the
    sender's virtual clock plus a per-link sequence number, so draining is
    deterministic regardless of domain scheduling. *)

open Remon_sim

type payload =
  | Syn of { conn : int; src_port : int; dst_port : int; window : int }
  | Syn_ok of { conn : int; window : int }
  | Syn_refused of { conn : int }
  | Data of { conn : int; data : string }
  | Window of { conn : int; bytes : int }
  | Fin of { conn : int }
  | Rst of { conn : int }

type msg = { at : Vtime.t; seq : int; payload : payload }

type t

val create : dst:int -> latency:Vtime.t -> t
(** Raises [Invalid_argument] on a non-positive latency: zero lookahead
    would deadlock the conservative synchronizer. *)

val dst : t -> int

val send : t -> now:Vtime.t -> payload -> unit
(** Enqueue for delivery at [now + latency]. Source-shard side only. *)

val peek_at : t -> Vtime.t
(** Earliest queued delivery time; [Vtime.infinity] when empty. *)

val drain_before : t -> bound:Vtime.t -> msg list
(** Pops every message with [at < bound] in send order. Complete and final
    for that window, provided [bound] respects the sender's frontier +
    latency (the conservative invariant). *)

val stats : t -> int * int
(** [(messages_sent, data_bytes)] lifetime tallies. *)
