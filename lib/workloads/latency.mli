(** Per-request latency reservoir (virtual-time durations) with
    deterministic stride decimation: no RNG, so percentile tables are
    byte-identical under any [--domains] value. Exact count, mean and max
    are tracked undecimated. *)

open Remon_sim

type t

val create : ?cap:int -> unit -> t
val record : t -> Vtime.t -> unit

val count : t -> int
(** Exact number of observations (not the stored-sample count). *)

val max_sample : t -> Vtime.t
val mean_ns : t -> float

val percentile : t -> float -> Vtime.t
(** Nearest-rank percentile (argument in percent, e.g. [99.0]) over the
    stored — possibly decimated — samples. *)

type summary = {
  count : int;
  mean_ns : float;
  p50 : Vtime.t;
  p90 : Vtime.t;
  p99 : Vtime.t;
  max : Vtime.t;
}

val summary : t -> summary
val summary_to_string : summary -> string
