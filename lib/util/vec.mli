(** Minimal growable array with O(1) amortized append and insertion-order
    iteration. Replaces list-append ([xs @ [x]]) patterns on hot paths. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val push : 'a t -> 'a -> unit
(** Appends at the end; amortized O(1). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Insertion order. Elements pushed during iteration are not visited. *)

val for_all : ('a -> bool) -> 'a t -> bool

val first_opt : 'a t -> 'a option

val to_list : 'a t -> 'a list
