(* Fleet chaos sweep: availability and tail latency vs. injected fault
   rate, with the recovery ladder (intra-instance respawn + fleet respawn)
   on and off, plus a rolling-restart exercise under live traffic.

   Each cell is one self-contained simulation (fleet + LB + open-loop
   clients in a single kernel), fanned out via Pool.map and printed in
   order: stdout is byte-identical for any --domains value. *)

open Remon_sim
open Remon_util
open Remon_workloads
module Fchaos = Remon_fleet.Chaos
module Lb = Remon_fleet.Lb

let rates ~quick =
  if quick then [ 0.0; 0.004 ] else [ 0.0; 0.001; 0.002; 0.004; 0.008 ]

let ms v = Vtime.to_float_ns v /. 1e6

let availability_row cfg (r : Fchaos.report) =
  [
    Printf.sprintf "%.4f" cfg.Fchaos.fault_rate;
    (if cfg.Fchaos.recovery then "on" else "off");
    Printf.sprintf "%.3f" r.Fchaos.availability;
    Printf.sprintf "%d/%d" r.Fchaos.succeeded r.Fchaos.attempted;
    string_of_int r.Fchaos.connect_retries;
    string_of_int r.Fchaos.failovers;
    string_of_int r.Fchaos.ejections;
    string_of_int r.Fchaos.readmissions;
    string_of_int r.Fchaos.instance_failures;
    string_of_int r.Fchaos.fleet_respawns;
    string_of_int r.Fchaos.quarantines;
    string_of_int r.Fchaos.respawns;
    Printf.sprintf "%.3f" (ms r.Fchaos.client_latency.Latency.p50);
    Printf.sprintf "%.3f" (ms r.Fchaos.client_latency.Latency.p99);
  ]

let header =
  [
    "rate"; "rec"; "avail"; "ok"; "retry"; "fo"; "eject"; "readmit"; "down";
    "fresp"; "q"; "r"; "p50 ms"; "p99 ms";
  ]

let aligns = List.map (fun _ -> Table.Right) header

let run ?(quick = false) ?domains () =
  print_endline "=== Fleet chaos: availability vs. injected fault rate ===\n";
  (* REMON_RECORD_DIR: dump a replayable recording for every instance
     generation that ends with a divergence verdict (reproducer artifacts;
     feed them to `remon replay`) *)
  let d =
    {
      Fchaos.default_cfg with
      Fchaos.record_dir = Sys.getenv_opt "REMON_RECORD_DIR";
    }
  in
  Printf.printf
    "%d instances x %d replicas (%s), %d requests over %d open-loop workers,\n\
     LB %s probes every %s\n\n"
    d.Fchaos.instances d.Fchaos.nreplicas "remon" d.Fchaos.requests
    d.Fchaos.workers "round-robin" "2 ms";
  let cells =
    List.concat_map
      (fun rate ->
        List.map
          (fun recovery -> { d with Fchaos.fault_rate = rate; recovery })
          [ true; false ])
      (rates ~quick)
  in
  let reports = Pool.map ?domains Fchaos.run_scenario cells in
  let t =
    Table.create ~title:"availability vs. fault rate (recovery on/off)"
      ~header ~aligns ()
  in
  List.iter2 (fun cfg r -> Table.add_row t (availability_row cfg r)) cells
    reports;
  Table.print t;
  print_newline ();
  (match
     List.concat_map (fun (r : Fchaos.report) -> r.Fchaos.recordings) reports
   with
  | [] -> ()
  | paths ->
    (* names relative to REMON_RECORD_DIR, so stdout does not depend on
       where the directory lives *)
    Printf.printf
      "reproducer recordings in REMON_RECORD_DIR (replay with `remon replay \
       DIR/FILE`):\n";
    List.iter (fun p -> Printf.printf "  %s\n" (Filename.basename p)) paths;
    print_newline ());
  (* rolling restart under live traffic, no injected faults *)
  let rolling_cells =
    List.concat_map
      (fun policy ->
        List.map
          (fun mu ->
            { d with Fchaos.rolling = Some mu; policy; fault_rate = 0.0 })
          (if quick then [ 1 ] else [ 1; 2 ]))
      [ Lb.Round_robin; Lb.Least_conns ]
  in
  let rolling_reports = Pool.map ?domains Fchaos.run_scenario rolling_cells in
  let rt =
    Table.create ~title:"rolling restart under live traffic"
      ~header:
        [
          "policy"; "max-unavail"; "avail"; "ok"; "retry"; "fo"; "drops";
          "p50 ms"; "p99 ms";
        ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right;
        ]
      ()
  in
  List.iter2
    (fun cfg (r : Fchaos.report) ->
      Table.add_row rt
        [
          (match cfg.Fchaos.policy with
          | Lb.Round_robin -> "round-robin"
          | Lb.Least_conns -> "least-conns");
          (match cfg.Fchaos.rolling with Some n -> string_of_int n | None -> "-");
          Printf.sprintf "%.3f" r.Fchaos.availability;
          Printf.sprintf "%d/%d" r.Fchaos.succeeded r.Fchaos.attempted;
          string_of_int r.Fchaos.connect_retries;
          string_of_int r.Fchaos.failovers;
          string_of_int r.Fchaos.lb_errors;
          Printf.sprintf "%.3f" (ms r.Fchaos.client_latency.Latency.p50);
          Printf.sprintf "%.3f" (ms r.Fchaos.client_latency.Latency.p99);
        ])
    rolling_cells rolling_reports;
  Table.print rt;
  print_newline ();
  print_endline
    "With recovery on, ejected instances respawn behind the balancer and\n\
     availability stays near 1.0 as the fault rate rises; with recovery off\n\
     every master crash permanently removes an instance, so availability\n\
     falls with the fault rate. Rolling restarts drain connections first:\n\
     clients see backoff latency, not errors.\n"
