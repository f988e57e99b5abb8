(* Saturation sweep: latency-vs-load curves for the server benchmarks.

   Ramps the closed-loop client concurrency against one server config per
   backend and reports virtual-time throughput plus the per-request latency
   distribution at each step. Past the saturation point the throughput
   curve flattens (the server's request pipeline is the bottleneck) while
   queueing pushes p99 latency up monotonically — the shape the paper's
   Figure 5 saturated-server columns summarize in a single number.

   Jobs (backend x concurrency step) are independent simulations, fanned
   out via Pool.map and printed in order: stdout is byte-identical for any
   --domains value. Host time per request, a wall-clock measurement, goes
   to stderr. *)

open Remon_core
open Remon_sim
open Remon_util
open Remon_workloads

let server = Servers.redis
let net_latency = Vtime.us 100
let requests_per_conn = 30

let backends =
  [
    ("native", fun () -> Runner.cfg_native ());
    ("ghumvee", fun () -> Runner.cfg_ghumvee ());
    ("varan", fun () -> Runner.cfg_varan ());
    ("remon", fun () -> Runner.cfg_remon Classification.Socket_rw_level);
  ]

(* Wait queues keep the host cost of a blocked client O(1) per wake-up, so
   the full sweep reaches wrk-scale fleets. *)
let steps ~quick =
  if quick then [ 4; 16 ] else [ 2; 4; 8; 16; 24; 32; 48; 64; 256; 1024 ]

let ms v = Vtime.to_float_ns v /. 1e6

let run ?(quick = false) ?domains () =
  print_endline "=== Saturation sweep: latency vs. offered load ===\n";
  Printf.printf
    "server %s (%d B req / %d B resp, %.1f us work), link %s, keep-alive x%d\n\n"
    server.Servers.name server.Servers.request_bytes
    server.Servers.response_bytes
    (float_of_int server.Servers.work_ns /. 1e3)
    (Vtime.to_string net_latency) requests_per_conn;
  let steps = steps ~quick in
  let jobs =
    List.concat_map
      (fun (bname, cfg) -> List.map (fun conc -> (bname, cfg, conc)) steps)
      backends
  in
  let rows =
    Pool.map ?domains
      (fun (_bname, cfg, conc) ->
        let client =
          {
            (Clients.wrk ()) with
            Clients.concurrency = conc;
            total_requests = conc * requests_per_conn;
            requests_per_conn;
          }
        in
        let t0 = Unix.gettimeofday () in
        let r =
          Runner.run_server_bench ~latency:net_latency ~server ~client (cfg ())
        in
        let host_us =
          (Unix.gettimeofday () -. t0) *. 1e6
          /. float_of_int (max 1 r.Runner.responses)
        in
        let dur_s = Vtime.to_float_s r.Runner.client_duration in
        let throughput =
          if dur_s > 0. then float_of_int r.Runner.responses /. dur_s else 0.
        in
        let l = r.Runner.latency in
        ( host_us,
          [
            string_of_int conc;
            string_of_int r.Runner.responses;
            Printf.sprintf "%.0f" throughput;
            Printf.sprintf "%.3f" (ms l.Latency.p50);
            Printf.sprintf "%.3f" (ms l.Latency.p90);
            Printf.sprintf "%.3f" (ms l.Latency.p99);
            Printf.sprintf "%.3f" (ms l.Latency.max);
            string_of_int (r.Runner.transport_errors + r.Runner.truncated_requests);
          ] ))
      jobs
  in
  let nsteps = List.length steps in
  List.iteri
    (fun bi (bname, _) ->
      let t =
        Table.create
          ~title:(Printf.sprintf "%s: latency vs. concurrency" bname)
          ~header:
            [
              "conns"; "responses"; "req/s"; "p50 ms"; "p90 ms"; "p99 ms";
              "max ms"; "errs";
            ]
          ~aligns:
            [
              Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
              Table.Right; Table.Right; Table.Right;
            ]
          ()
      in
      List.iteri
        (fun i (_, row) -> if i / nsteps = bi then Table.add_row t row)
        rows;
      Table.print t;
      print_newline ())
    backends;
  print_endline
    "Throughput flattens once the server's request pipeline saturates; past\n\
     that point additional connections only deepen the queue, so p99 latency\n\
     rises monotonically with offered load. The MVEE backends saturate\n\
     earlier than native in proportion to their per-syscall overhead.\n";
  List.iteri
    (fun bi (bname, _) ->
      Printf.eprintf "host us/request, %s:" bname;
      List.iteri
        (fun i (host_us, _) ->
          if i / nsteps = bi then
            Printf.eprintf " %d:%.1f" (List.nth steps (i mod nsteps)) host_us)
        rows;
      prerr_newline ())
    backends
