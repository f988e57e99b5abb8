(* Deterministic splittable pseudo-random number generator (SplitMix64).

   The whole simulator must be reproducible: every source of randomness is
   drawn from an explicitly-seeded generator, and independent components
   receive independent streams via [split] so that adding draws in one
   component never perturbs another. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let make seed = { state = Int64.of_int seed }

(* ------------------------------------------------------------------ *)
(* Stable seed derivation.

   [Hashtbl.hash] is explicitly *not* stable across OCaml releases, so a
   seed derived from it silently changes the whole simulation after a
   compiler upgrade — recorded runs stop replaying byte-identically.
   Components that key RNG streams by a name and a small integer rank
   derive their seeds through these fixed, in-repo mixers instead. *)

(* FNV-1a over the bytes of a string (64-bit offset basis / prime). *)
let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

(* One SplitMix64 finalization round: a stateless bijective mixer. *)
let splitmix64 z =
  let z = Int64.add z golden_gamma in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Stable (name, rank) -> seed: FNV-1a over the name bytes, then the rank
   folded in through splitmix so that adjacent ranks land far apart. The
   result is a non-negative OCaml int, usable directly with [make]. *)
let stable_seed name rank =
  let h = splitmix64 (Int64.logxor (fnv1a64 name) (Int64.of_int rank)) in
  Int64.to_int (Int64.shift_right_logical h 2)

(* SplitMix64 finalizer: advances the state by the golden-ratio increment and
   scrambles it through two xor-shift-multiply rounds. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next_int64 t }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: empty range";
  lo + int t (hi - lo + 1)

let int64 t = next_int64 t

let float t =
  let mask53 = (1 lsl 53) - 1 in
  float_of_int (Int64.to_int (next_int64 t) land mask53)
  /. float_of_int (mask53 + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Draws an index according to the given non-negative weights. *)
let weighted t weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Rng.weighted: weights must sum to > 0";
  let x = float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.
