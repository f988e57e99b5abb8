(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation, plus design-choice ablations and microbenchmarks.

     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig3          # one experiment
     dune exec bench/main.exe -- quick         # everything, smaller sweeps
     dune exec bench/main.exe -- --domains 4   # fan runs out over 4 domains
     dune exec bench/main.exe -- fig3 --trace DIR   # + dump per-run traces

   Experiments: table1 fig3 fig4 fig5 table2 dense ablations micro faults
   saturation chaos selfperf pdes pdes-scale

   Simulation runs are independent (own kernel, clock, seeded RNG), so the
   drivers fan them out across OCaml 5 domains via [Pool.map] and print the
   collected results in order: stdout is byte-identical for any --domains
   value. Wall-time reporting goes to stderr so stdout stays diffable. *)

let experiments =
  [
    ("table1", fun ~quick:_ ~domains () -> Table1.run ~domains ());
    ("fig3", fun ~quick:_ ~domains () -> Fig3.run ~domains ());
    ("fig4", fun ~quick:_ ~domains () -> Fig4.run ~domains ());
    ("fig5", fun ~quick ~domains () -> Fig5.run ~quick ~domains ());
    ("table2", fun ~quick:_ ~domains () -> Table2.run ~domains ());
    ("dense", fun ~quick:_ ~domains () -> Dense.run ~domains ());
    ("ablations", fun ~quick:_ ~domains () -> Ablations.run ~domains ());
    ("micro", fun ~quick:_ ~domains:_ () -> Micro.run ());
    ("faults", fun ~quick ~domains () -> Faults.run ~quick ~domains ());
    ("saturation", fun ~quick ~domains () -> Saturation.run ~quick ~domains ());
    ("chaos", fun ~quick ~domains () -> Chaos.run ~quick ~domains ());
    ("selfperf", fun ~quick ~domains () -> Selfperf.run ~quick ~domains ());
    ("pdes", fun ~quick ~domains () -> Pdes.run ~quick ~domains ());
    ("pdes-scale", fun ~quick ~domains () -> Pdes.run_scaling ~quick ~domains ());
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "quick" args in
  let rec parse_domains = function
    | "--domains" :: n :: _ -> (
      match int_of_string_opt n with
      | Some d when d >= 1 -> Some d
      | _ ->
        Printf.eprintf "--domains expects a positive integer, got %S\n" n;
        exit 2)
    | _ :: rest -> parse_domains rest
    | [] -> None
  in
  let domains =
    match parse_domains args with
    | Some d -> d
    | None -> Remon_util.Pool.default_domains ()
  in
  let rec parse_trace = function
    | "--trace" :: dir :: _ -> Some dir
    | _ :: rest -> parse_trace rest
    | [] -> None
  in
  let rec parse_connections = function
    | "--connections" :: n :: _ -> (
      match int_of_string_opt n with
      | Some c when c >= 1 -> Some c
      | _ ->
        Printf.eprintf "--connections expects a positive integer, got %S\n" n;
        exit 2)
    | _ :: rest -> parse_connections rest
    | [] -> None
  in
  (match parse_connections args with
  | Some c -> Pdes.connections_override := Some c
  | None -> ());
  (match parse_trace args with
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Remon_workloads.Runner.trace_dir := Some dir
  | None -> ());
  let rec strip = function
    | "--domains" :: _ :: rest -> strip rest
    | "--trace" :: _ :: rest -> strip rest
    | "--connections" :: _ :: rest -> strip rest
    | "quick" :: rest -> strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let selected = strip args in
  let to_run =
    if selected = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        selected
  in
  print_endline "ReMon reproduction benchmark harness";
  print_endline "paper: Secure and Efficient Application Monitoring and Replication";
  print_endline "       (Volckaert et al., USENIX ATC 2016)\n";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let te = Unix.gettimeofday () in
      f ~quick ~domains ();
      Printf.eprintf "[%s] wall time: %.2f s\n%!" name (Unix.gettimeofday () -. te))
    to_run;
  Printf.eprintf "total harness wall time: %.1f s (domains=%d)\n%!"
    (Unix.gettimeofday () -. t0)
    domains
