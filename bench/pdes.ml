(* Sharded-simulation (PDES) scaling sweep (DESIGN.md section 15).

   A saturation-grade multi-host scenario — four MVEE server hosts plus a
   client host, cross-host traffic only — is run at increasing shard
   counts on OCaml 5 domains. Two things are reported:

   - the determinism contract, checked bit-for-bit: every shard count must
     reproduce the shards=1 outcome digest and RMRC recordings exactly
     (this is the hard invariant; a speedup that perturbs outcomes is a
     bug, not a feature);
   - the scaling curve: wall-clock per shard count and the conservative
     round count (the synchronization overhead the link-latency lookahead
     has to amortize). Wall times go to stderr so stdout stays diffable
     across machines and core counts. *)

open Remon_core
open Remon_sim
open Remon_util
open Remon_workloads

let scenario ~quick =
  {
    Topology.id = 0;
    seed = 0xBEEF;
    server_hosts = 4;
    nreplicas = 3;
    backend = Mvee.Remon;
    arch = Servers.Epoll_loop;
    requests_per_server = (if quick then 60 else 240);
    concurrency = 4;
    requests_per_conn = 4;
    link_latency = Vtime.us 200;
    faults = "";
    record = true;
  }

let run_matrix ?(quick = false) () =
  print_endline "=== Sharded simulation (conservative PDES) ===\n";
  let sc = scenario ~quick in
  print_endline (Topology.render sc);
  Printf.printf "host shards run on OCaml domains; lookahead = link latency\n\n";
  let shard_counts = [ 1; 2; 4; 5 ] in
  let t =
    Table.create ~title:"shard scaling (5 hosts: 4 server + 1 client)"
      ~header:
        [ "shards"; "digest"; "recordings"; "rounds"; "responses"; "errors" ]
      ()
  in
  let reference = ref None in
  List.iter
    (fun shards ->
      let w0 = Unix.gettimeofday () in
      let r = Topology.run ~shards sc in
      let wall = Unix.gettimeofday () -. w0 in
      let digest_ok, recordings_ok =
        match !reference with
        | None ->
          reference := Some (r, wall);
          (true, true)
        | Some (ref_r, ref_wall) ->
          Printf.eprintf "  shards=%d wall %.3f s (%.2fx vs shards=1)\n%!"
            shards wall
            (ref_wall /. wall);
          ( r.Topology.digest = ref_r.Topology.digest,
            List.for_all2
              (fun (h1, r1) (h2, r2) -> h1 = h2 && Recording.equal r1 r2)
              r.Topology.recordings ref_r.Topology.recordings )
      in
      if shards = 1 then
        Printf.eprintf "  shards=1 wall %.3f s (reference)\n%!"
          (match !reference with Some (_, w) -> w | None -> 0.);
      Table.add_row t
        [
          string_of_int shards;
          (if digest_ok then "identical" else "DIVERGED");
          (if recordings_ok then "identical" else "DIVERGED");
          string_of_int r.Topology.rounds;
          string_of_int r.Topology.responses;
          string_of_int r.Topology.transport_errors;
        ];
      if not (digest_ok && recordings_ok) then
        failwith
          (Printf.sprintf
             "PDES determinism violation at shards=%d: outcomes diverged \
              from the sequential reference"
             shards))
    shard_counts;
  Table.print t;
  print_newline ();
  (* chaos variant: fault injection on one host must not change the story *)
  let sc_chaos = { sc with Topology.faults = "delay@15:1=1500us"; id = 1 } in
  let r1 = Topology.run ~shards:1 sc_chaos in
  let r4 = Topology.run ~shards:4 sc_chaos in
  Printf.printf "chaos variant (%s): shards 1 vs 4 digests %s\n"
    sc_chaos.Topology.faults
    (if r1.Topology.digest = r4.Topology.digest then "identical" else "DIVERGED");
  if r1.Topology.digest <> r4.Topology.digest then
    failwith "PDES determinism violation under fault injection";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Connection-scaling sweep (DESIGN.md section 16): the herd tier at
   10^3..10^6 simulated connections.

   Stdout carries only deterministic quantities (digest identity, round
   and event counts) so it stays byte-identical for any --domains value;
   wall clocks, throughput and heap figures go to stderr and into the
   "pdes_scale" section of BENCH_pdes_scale.json, which
   scripts/check_selfperf.py gates against the committed baseline. *)

let connections_override : int option ref = ref None

type sweep_row = {
  sw_connections : int;
  sw_cells : int;
  sw_rounds_adaptive : int;
  sw_rounds_fixed : int;
  sw_events : int;
  sw_wall_seq : float;
  sw_wall_par : float;
  sw_wall_fixed : float;
  sw_peak_heap_words : int;
  sw_bytes_per_conn : int;
}

let time_run f =
  let w0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. w0)

let sweep_point ~domains connections =
  let herd = Topology.herd_of_connections ~seed:42 connections in
  (* Gc.top_heap_words is a process-global high-water mark, so the
     sharded adaptive run — the configuration whose memory we report —
     goes first, peak snapshotted before the 1-shard and fixed-mode
     digest cross-checks can push the mark higher (the 1-shard run
     holds every host's garbage in one domain heap; the fixed run burns
     orders of magnitude more rounds). compact first so an earlier
     point's garbage is not sitting under this one's live set. *)
  Gc.compact ();
  let par, wall_par =
    time_run (fun () -> Topology.run_herd ~shards:domains herd)
  in
  let peak = (Gc.quick_stat ()).Gc.top_heap_words in
  let seq, wall_seq = time_run (fun () -> Topology.run_herd ~shards:1 herd) in
  let fixed, wall_fixed =
    time_run (fun () ->
        Topology.run_herd ~shards:domains ~mode:World.Fixed herd)
  in
  if par.Topology.hr_digest <> seq.Topology.hr_digest then
    failwith
      (Printf.sprintf
         "PDES determinism violation: herd digest diverged at %d \
          connections, shards %d vs 1"
         connections domains);
  if fixed.Topology.hr_digest <> seq.Topology.hr_digest then
    failwith
      (Printf.sprintf
         "PDES determinism violation: herd digest diverged at %d \
          connections, fixed vs adaptive lookahead"
         connections);
  Printf.eprintf
    "  %8d conns: seq %.2f s, par %.2f s, fixed %.2f s, peak heap %d words\n%!"
    connections wall_seq wall_par wall_fixed peak;
  {
    sw_connections = connections;
    sw_cells = herd.Topology.cells;
    sw_rounds_adaptive = par.Topology.hr_rounds;
    sw_rounds_fixed = fixed.Topology.hr_rounds;
    sw_events = par.Topology.hr_events;
    sw_wall_seq = wall_seq;
    sw_wall_par = wall_par;
    sw_wall_fixed = wall_fixed;
    sw_peak_heap_words = peak;
    sw_bytes_per_conn = peak * (Sys.word_size / 8) / connections;
  }

(* The ablation point the adaptive lookahead exists for: few connections,
   long think times — virtual time is almost all idle, so the fixed
   synchronizer burns rounds stepping one link latency at a time while
   the adaptive one jumps straight to the next real work. *)
let idle_heavy_ablation ~domains =
  let herd =
    {
      Topology.h_seed = 43;
      cells = 200;
      conns_per_cell = 5;
      rounds_per_conn = 3;
      payload = 64;
      think_ns = 500_000_000;
      stagger_ns = 2_000_000;
      h_link_latency = Vtime.us 200;
    }
  in
  let ad, wall_ad =
    time_run (fun () -> Topology.run_herd ~shards:domains herd)
  in
  let fx, wall_fx =
    time_run (fun () ->
        Topology.run_herd ~shards:domains ~mode:World.Fixed herd)
  in
  if ad.Topology.hr_digest <> fx.Topology.hr_digest then
    failwith
      "PDES determinism violation: idle-heavy digest diverged, fixed vs \
       adaptive lookahead";
  let speedup = wall_fx /. wall_ad in
  Printf.eprintf
    "  idle-heavy: adaptive %.3f s (%d rounds) vs fixed %.3f s (%d rounds) \
     = %.2fx\n%!"
    wall_ad ad.Topology.hr_rounds wall_fx fx.Topology.hr_rounds speedup;
  (ad, fx, wall_ad, wall_fx, speedup)

let write_json ~quick ~domains rows pair_cost (ih_ad, ih_fx, ih_wall_ad, ih_wall_fx, ih_speedup) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"schema\": \"remon-selfperf/1\",\n  \"pdes_scale\": {\n";
  Buffer.add_string b (Printf.sprintf "    \"quick\": %b,\n" quick);
  Buffer.add_string b (Printf.sprintf "    \"domains\": %d,\n" domains);
  Buffer.add_string b "    \"sweep\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "      {\"connections\": %d, \"cells\": %d, \
            \"rounds_adaptive\": %d, \"rounds_fixed\": %d, \"events\": %d, \
            \"wall_s_seq\": %.4f, \"wall_s_par\": %.4f, \"wall_s_fixed\": \
            %.4f, \"events_per_sec\": %.0f, \"rounds_per_sec_fixed\": %.0f, \
            \"peak_heap_words\": %d, \"bytes_per_connection\": %d}%s\n"
           r.sw_connections r.sw_cells r.sw_rounds_adaptive r.sw_rounds_fixed
           r.sw_events r.sw_wall_seq r.sw_wall_par r.sw_wall_fixed
           (float_of_int r.sw_events /. r.sw_wall_par)
           (float_of_int r.sw_rounds_fixed /. r.sw_wall_fixed)
           r.sw_peak_heap_words r.sw_bytes_per_conn
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "    ],\n";
  Buffer.add_string b
    (Printf.sprintf "    \"stream_pair_cost_bytes\": %d,\n" pair_cost);
  Buffer.add_string b
    (Printf.sprintf
       "    \"idle_heavy\": {\"connections\": %d, \"rounds_adaptive\": %d, \
        \"rounds_fixed\": %d, \"wall_s_adaptive\": %.4f, \"wall_s_fixed\": \
        %.4f, \"speedup_vs_fixed\": %.2f}\n"
       ih_ad.Topology.hr_connections ih_ad.Topology.hr_rounds
       ih_fx.Topology.hr_rounds ih_wall_ad ih_wall_fx ih_speedup);
  Buffer.add_string b "  }\n}\n";
  let oc = open_out_bin "BENCH_pdes_scale.json" in
  Buffer.output_buffer oc b;
  close_out oc

let run_scaling ~quick ~domains () =
  print_endline "=== Connection scaling (herd tier) ===\n";
  let points =
    match !connections_override with
    | Some n -> [ n ]
    | None ->
      if quick then [ 1_000; 10_000; 100_000 ]
      else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let t =
    Table.create ~title:"herd sweep (2 hosts per cell)"
      ~header:
        [ "connections"; "cells"; "digest"; "rounds ad"; "rounds fx";
          "events" ]
      ()
  in
  let rows =
    List.map
      (fun n ->
        let r = sweep_point ~domains n in
        Table.add_row t
          [
            string_of_int r.sw_connections;
            string_of_int r.sw_cells;
            "identical";
            string_of_int r.sw_rounds_adaptive;
            string_of_int r.sw_rounds_fixed;
            string_of_int r.sw_events;
          ];
        r)
      points
  in
  Table.print t;
  print_newline ();
  (* a GC live-words probe: it moves with heap layout, so it stays off
     the deterministic stdout *)
  let pair_cost = Topology.stream_pair_cost_bytes () in
  Printf.eprintf "flat stream pair cost: %d bytes (packed fields)\n%!" pair_cost;
  let ih = idle_heavy_ablation ~domains in
  let ih_ad, ih_fx, _, _, speedup = ih in
  (* stdout stays deterministic: the round counts are exact, the wall-clock
     speedup goes to stderr and the gated JSON *)
  Printf.printf
    "idle-heavy ablation: adaptive %d rounds vs fixed %d rounds\n"
    ih_ad.Topology.hr_rounds ih_fx.Topology.hr_rounds;
  if ih_fx.Topology.hr_rounds <= ih_ad.Topology.hr_rounds then
    failwith
      "adaptive lookahead failed to reduce rounds on the idle-heavy corpus";
  Printf.eprintf "  idle-heavy wall-clock speedup vs fixed: %.2fx\n%!" speedup;
  write_json ~quick ~domains rows pair_cost ih;
  print_newline ()

let run ?(quick = false) ?domains:_ () = run_matrix ~quick ()
