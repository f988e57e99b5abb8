(** Multi-host world: conservative-parallel (PDES) shard runner.

    Each simulated host owns a whole kernel; hosts interact only through
    typed inter-host links with a fixed positive latency (the lookahead).
    [run] drives all hosts in barrier-synchronous conservative rounds with
    one round loop at every shard count: each round's hosts are pulled
    from a shared cursor by the coordinator and [shards - 1] worker
    domains ([shards = 1] spawns none). Hosts interact only through links
    drained between rounds, so every observable outcome (digests,
    recordings, traces) is byte-identical at any shard count, and
    identical between the two lookahead modes. *)

open Remon_kernel
open Remon_sim

type t

type mode =
  | Fixed
      (** single-latency lookahead over all host pairs — the reference
          algorithm and the conservative-safety oracle *)
  | Adaptive
      (** per-pair earliest-output guarantees: bounds advance past a
          single link latency when inbound links are provably idle
          (default) *)

val create :
  ?link_latency:Vtime.t -> n:int -> mk:(int -> Kernel.t) -> unit -> t
(** [create ~n ~mk ()] builds [n] hosts; host [i]'s kernel is [mk i],
    with its gateway installed. No links exist yet: {!route} creates them
    (no eager n^2 mesh).
    [link_latency] defaults to the cost model's inter-host latency
    ({!Cost_model.link_latency} of the default model) and must be
    positive — it is the conservative lookahead. *)

val kernel : t -> int -> Kernel.t
val hostnet : t -> int -> Hostnet.t

val route : ?initiators:int list -> t -> port:int -> host:int -> unit
(** Statically declare that [port] is served from [host]; connects from
    initiator hosts are carried over the links. [initiators] is the set of
    hosts that may ever connect to the port (default: every host) —
    narrowing it is what lets adaptive lookahead decouple unrelated host
    groups. Each initiator's pair with [host] gets its two links here,
    handed to the two gateways, so routing must be set up before
    [run]. *)

exception
  Conservative_violation of {
    round : int;  (** the round whose drain found the message *)
    src : int;  (** sending host *)
    dst : int;  (** destination host *)
    at : Vtime.t;  (** the message's delivery time *)
    clock : Vtime.t;  (** the destination's clock, already past [at] *)
    bound : Vtime.t;  (** the destination's bound for that round *)
  }
(** A message would arrive behind its destination's clock: the
    conservative contract broke, and delivering it would reorder the
    destination's past. [run] raises it rather than deliver. It has a
    printer. *)

val run : ?shards:int -> ?mode:mode -> t -> unit
(** Runs every host to completion. [shards] is clamped to the host count;
    [shards = 1] (default) runs the same round loop on the calling domain
    alone. [mode] defaults to [Adaptive]; outcomes are byte-identical in
    either mode, only the round partitioning differs. Raises
    {!Conservative_violation} if a link message would arrive behind its
    destination's clock. *)

val rounds : t -> int
(** Conservative rounds executed so far (a parallelism diagnostic). *)

val link_stats : t -> (int * int * int * int) list
(** Per-link [(src, dst, messages, data_bytes)] tallies for every link
    created so far, sorted by [(src, dst)]. *)
