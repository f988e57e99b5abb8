(** Statistics helpers for the benchmark harness and tests. *)

val mean : float list -> float
val geomean : float list -> float

val min_max : float list -> float * float

(** Nearest-rank percentile, [p] in [\[0, 100\]]. *)
val percentile : float list -> float -> float

val median : float list -> float

(** [(measured - baseline) / baseline]. *)
val overhead : baseline:float -> measured:float -> float

(** [measured / baseline], the paper's "normalized execution time". *)
val ratio : baseline:float -> measured:float -> float
