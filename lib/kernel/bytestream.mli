(** FIFO byte stream backing pipes and socket receive queues. Chunks are
    the writers' own strings, never copied on the way in. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> string -> unit
(** Appends bytes at the back, keeping [s] itself rather than a copy.
    Empty strings are ignored. *)

val pull : t -> int -> string
(** [pull t n] removes and returns up to [n] bytes from the front; nothing
    when [n <= 0]. A pull of exactly what is left of an unsplit front chunk
    returns that pushed string itself ([==]); any other pull returns a
    fresh string. *)
