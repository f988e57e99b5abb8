(* Unit tests for the benchmark's statistics helpers. Expected values are
   Python's: statistics.median and statistics.quantiles(xs, n=4). *)

let failures = ref 0

let near ?(eps = 1e-9) name got want =
  if Float.abs (got -. want) > eps then begin
    incr failures;
    Printf.printf "FAIL %s: got %.12g, want %.12g\n" name got want
  end

let () =
  near "median odd" (Stats.median [ 3.; 1.; 2. ]) 2.;
  near "median even" (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5;
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  near "q1 of 1..10" q1 2.75;
  near "q2 of 1..10" q2 5.5;
  near "q3 of 1..10" q3 8.25;
  (* statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0] *)
  let q1, q2, q3 = Stats.quartiles [ 16.; 1.; 8.; 2.; 4. ] in
  near "q1 of 5" q1 1.5;
  near "q2 of 5" q2 4.;
  near "q3 of 5" q3 12.;
  (* statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the exclusive
     method extrapolates past the ends *)
  let q1, _, q3 = Stats.quartiles [ 1.; 3. ] in
  near "q1 of 2" q1 0.5;
  near "q3 of 2" q3 3.5;
  near "rel_iqr" (Stats.rel_iqr (List.init 10 (fun i -> float_of_int (i + 1)))) (5.5 /. 5.5);
  (* tail: at least ten samples strictly beyond the reported rank *)
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (match Stats.tail (xs 39) with
  | None -> ()
  | Some (p, _) -> incr failures; Printf.printf "FAIL tail 39: got p%g\n" p);
  (match Stats.tail (xs 40) with
  | Some (75., v) -> near "tail 40 value" v 30.
  | _ -> incr failures; print_endline "FAIL tail 40: want p75");
  (match Stats.tail (xs 1000) with
  | Some (99., v) -> near "tail 1000 value" v 990.
  | _ -> incr failures; print_endline "FAIL tail 1000: want p99");
  (match Stats.tail (xs 10_000) with
  | Some (99.9, v) -> near "tail 10000 value" v 9990.
  | _ -> incr failures; print_endline "FAIL tail 10000: want p99.9");
  (* fidelity: exp(mean |ln(sim/paper)|) - 1 *)
  near "fidelity exact" (Stats.fidelity_err [ (1.2, 1.2); (3., 3.) ]) 0.;
  near "fidelity symmetric"
    (Stats.fidelity_err [ (1.1, 1.); (1., 1.1) ])
    0.1;
  near "fidelity mean of logs"
    (Stats.fidelity_err [ (2., 1.); (1., 1.) ])
    (sqrt 2. -. 1.);
  if !failures > 0 then exit 1;
  print_endline "stats: all checks passed"
