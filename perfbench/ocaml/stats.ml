(* Order statistics as the benchmark reports them. Medians and quartiles
   follow Python's [statistics] module (median of the two middle values;
   [quantiles ~n:4] with the default "exclusive" method), so the spread a
   run prints is the spread a Python reader of the results would compute. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty list"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(xs, n=4)]: first, second and third quartile. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median: the spread the benchmark
   bounds are stated in. *)
let rel_iqr xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let q1, _, q3 = quartiles xs in
    let m = median xs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Tail levels as the share beyond them, in thousandths: p99.9, p99, p95,
   p90, p75. Integer arithmetic keeps "at least ten beyond" exact. *)
let tail_levels = [ 1; 10; 50; 100; 250 ]

(* The highest of those percentiles that still has at least ten samples
   beyond it, and its nearest-rank value; [None] when even p75 has fewer
   (the median is then the only order statistic worth reporting). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_opt (fun beyond -> n * beyond >= 10_000) tail_levels
  |> Option.map (fun beyond ->
         let rank = ((n * (1000 - beyond)) + 999) / 1000 in
         (float_of_int (1000 - beyond) /. 10., a.(rank - 1)))

(* Figure-level fidelity: exp(mean |ln(sim/paper)|) - 1 over every bar. *)
let fidelity_err pairs =
  match pairs with
  | [] -> invalid_arg "Stats.fidelity_err: no bars"
  | _ ->
    let logs =
      List.map (fun (sim, paper) -> Float.abs (log (sim /. paper))) pairs
    in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
    -. 1.
