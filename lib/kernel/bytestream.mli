(** FIFO byte stream backing pipes and socket receive queues. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> string -> unit
(** Appends bytes at the back. Empty strings are ignored. *)

val pull : t -> int -> string
(** [pull t n] removes and returns up to [n] bytes from the front; nothing
    when [n <= 0]. *)
