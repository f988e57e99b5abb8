(* Small statistics helpers used by the benchmark harness and tests. *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty list"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Geometric mean; the paper reports GEOMEAN bars for every suite. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty list"
  | _ ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Stats.geomean: non-positive value"
          else acc +. log x)
        0. xs
    in
    exp (sum_logs /. float_of_int (List.length xs))

let min_max xs =
  match xs with
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest

(* Nearest-rank percentile on a private sorted copy. *)
let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ ->
    if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    arr.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

(* Relative overhead of [measured] versus [baseline], e.g. 0.10 for +10%. *)
let overhead ~baseline ~measured =
  if baseline <= 0. then invalid_arg "Stats.overhead: non-positive baseline";
  (measured -. baseline) /. baseline

let ratio ~baseline ~measured =
  if baseline <= 0. then invalid_arg "Stats.ratio: non-positive baseline";
  measured /. baseline
