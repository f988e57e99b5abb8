(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All randomness in the simulator flows through explicitly-seeded values of
    type {!t}; [split] yields statistically independent child streams so that
    components do not perturb each other's draws. *)

type t

val make : int -> t
(** [make seed] creates a generator from an integer seed. *)

val stable_seed : string -> int -> int
(** [stable_seed name rank] derives a non-negative seed from a component
    name and a small integer rank: FNV-1a over the name bytes, rank folded
    in through a SplitMix64 round. Stable across OCaml versions and
    platforms, unlike [Hashtbl.hash], so recorded runs replay
    byte-identically after a compiler upgrade. *)

val split : t -> t
(** [split t] returns an independent child generator, advancing [t]. *)

val bits : t -> int
(** [bits t] returns a uniform non-negative OCaml [int] (62 random bits). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in the inclusive range. *)

val int64 : t -> int64
(** [int64 t] returns a uniform 64-bit value; used for IK-B tokens. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val bool : t -> bool

val weighted : t -> float array -> int
(** [weighted t w] draws an index with probability proportional to [w.(i)]. *)
