(** Virtual time: nanoseconds since simulation start, carried as an
    immediate [int]. 63-bit ns covers ~146 years of virtual time, and
    keeping the representation unboxed means time arithmetic on the
    scheduler hot path allocates nothing (an [int64] would box on every
    add/max/charge). *)

type t = int

val zero : t

val infinity : t
(** Later than any reachable event time; the identity of [min]. Used as
    the horizon of an idle shard in conservative-parallel runs. *)

val is_finite : t -> bool
(** [is_finite t] is [false] only for {!infinity}. *)

val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

val of_float_ns : float -> t
val to_float_ns : t -> float
val to_float_s : t -> float

val to_int_ns : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val compare : t -> t -> int

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val max : t -> t -> t
val min : t -> t -> t

val scale : t -> float -> t
(** [scale t f] multiplies a duration by a float factor. *)

val to_string : t -> string
