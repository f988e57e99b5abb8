(** Multi-host topologies for sharded (PDES) runs.

    A scenario places one MVEE-monitored server group on each of
    [server_hosts] simulated hosts and a client fleet on one extra host;
    clients reach servers only over the inter-host links. The contract that
    the determinism corpus enforces: running the same scenario with any
    shard count yields a byte-identical {!result.digest}, byte-identical
    RMRC recordings, and byte-identical trace exports. *)

open Remon_sim
open Remon_core

type scenario = {
  id : int;
  seed : int;
  server_hosts : int;  (** one MVEE server group per host *)
  nreplicas : int;
  backend : Mvee.backend;
  arch : Servers.arch;
  requests_per_server : int;
  concurrency : int;  (** client workers per server *)
  requests_per_conn : int;  (** 1 = ab-like, >1 = keep-alive *)
  link_latency : Vtime.t;
  faults : string;  (** [--faults] syntax, applied to the host-0 group *)
  record : bool;
}

type server_report = {
  host : int;
  port : int;
  outcome : Mvee.outcome;
  served : int;
  truncated : int;
}

type result = {
  digest : string;
      (** canonical text rendering of every shard-invariant observable *)
  recordings : (int * Recording.t) list;
  traces : (int * string) list;
  servers : server_report list;
  responses : int;
  transport_errors : int;
  connect_retries : int;
  client_latency : Latency.summary list;
  rounds : int;
}

val render : scenario -> string
(** One-line human description of a scenario. *)

val run :
  ?shards:int -> ?mode:World.mode -> ?with_obs:bool -> scenario -> result
(** Builds the world, runs it with [shards] (default 1) and the given
    lookahead [mode] (default {!World.Adaptive}), and collects the digest
    and artifacts. The digest is byte-identical across shard counts and
    lookahead modes. [with_obs] attaches a trace collector to every host
    and fills {!result.traces}; the digest itself never depends on
    [with_obs]. *)

val corpus : n:int -> scenario list
(** [n] seeded scenarios spanning backends, server architectures, replica
    counts, link latencies, keep-alive vs one-shot clients and fault
    chaos. Stable across runs (seeded from {!Remon_util.Rng.stable_seed}). *)

(** {1 The herd tier}

    Many tiny echo cells — a (server host, client host) pair per cell —
    for memory and scaling runs up to ~10^6 simulated connections. Cells
    never talk to each other, which is what lets adaptive lookahead run
    each cell at its own pace. *)

type herd = {
  h_seed : int;
  cells : int;  (** independent (server host, client host) pairs *)
  conns_per_cell : int;
  rounds_per_conn : int;  (** closed-loop echo rounds per connection *)
  payload : int;  (** request/echo size in bytes *)
  think_ns : int;  (** whole-cell idle time between echo rounds *)
  stagger_ns : int;  (** per-cell start offset *)
  h_link_latency : Vtime.t;
}

type herd_result = {
  hr_digest : string;
      (** counters + per-cell hash; O(1) size, shard- and mode-invariant *)
  hr_connections : int;
  hr_responses : int;
  hr_served : int;
  hr_errors : int;
  hr_rounds : int;  (** synchronizer rounds (diagnostic, mode-dependent) *)
  hr_events : int;  (** total scheduler events across all hosts *)
}

val render_herd : herd -> string

val run_herd : ?shards:int -> ?mode:World.mode -> herd -> herd_result
(** Runs the herd to completion; {!herd_result.hr_digest} must be
    byte-identical at any shard count and in either lookahead mode. *)

val herd_of_connections : seed:int -> int -> herd
(** Shapes a total connection budget into a herd: cells grow first (up to
    1000, i.e. 2000 hosts), then connections per cell; one echo round per
    connection, 5 ms of think time. *)

val stream_pair_cost_bytes : ?n:int -> unit -> int
(** Live-heap bytes per connected stream pair, measured with a GC probe
    over [n] pairs in a fresh kernel. Diagnostic only — never part of a
    digest or of shard-invariant stdout. *)
