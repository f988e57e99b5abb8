(* Virtual time: nanoseconds since simulation start, as an immediate int.

   The representation is deliberately unboxed: thread clocks are bumped on
   every simulated syscall stage, so a boxed int64 here would allocate
   three words per charge. A native 63-bit int still spans ~146 years of
   virtual nanoseconds. *)

type t = int

let zero = 0

(* Horizon sentinel for conservative-parallel synchronization: later than
   any reachable event time, absorbing under [min]. *)
let infinity = max_int

let is_finite t = t <> max_int

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let of_float_ns f = int_of_float f
let to_float_ns t = float_of_int t

let to_float_s t = float_of_int t /. 1e9

let to_int_ns t = t

let add = ( + )
let sub = ( - )
let compare = Int.compare
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let ( < ) (a : int) b = Stdlib.( < ) a b
let ( <= ) (a : int) b = Stdlib.( <= ) a b
let ( > ) (a : int) b = Stdlib.( > ) a b
let ( >= ) (a : int) b = Stdlib.( >= ) a b
let max (a : int) b = if Stdlib.( >= ) a b then a else b
let min (a : int) b = if Stdlib.( <= ) a b then a else b

let scale t f = int_of_float (float_of_int t *. f)

let to_string t = Remon_util.Table.fmt_ns t
