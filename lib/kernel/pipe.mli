(** Anonymous pipe: bounded FIFO with reader/writer reference counting.
    Blocking is implemented by the dispatcher; this module is pure state. *)

type t = {
  capacity : int;
  data : Bytestream.t;
  mutable readers : int;
  mutable writers : int;
}

val default_capacity : int
val create : ?capacity:int -> unit -> t
val bytes_available : t -> int
val space_available : t -> int
val write_closed : t -> bool
val read_closed : t -> bool

val write : t -> string -> int
(** Returns the number of bytes accepted (short write when nearly full). *)

val read : t -> int -> string
