(* Reproduction-shape regression tests: the qualitative claims of the
   paper's evaluation, locked in as assertions so a change that silently
   breaks the reproduction fails CI rather than just producing different
   bench output.

   Tolerances are generous — these guard the *shape* (orderings, drop
   points, crossovers), not exact values. *)

open Remon_core
open Remon_sim
open Remon_workloads

let norm profile config = Runner.normalized_time profile config

let find_parsec name =
  (List.find (fun (e : Parsec.entry) -> e.bench = name) Parsec.all).profile

let find_splash name =
  (List.find (fun (e : Splash.entry) -> e.bench = name) Splash.all).profile

let find_phoronix name =
  List.find (fun (e : Phoronix.entry) -> e.bench = name) Phoronix.all

(* Figure 3's headline: IP-MON at NONSOCKET_RW cuts dedup's and
   water_spatial's CP overhead by more than half. *)
let test_fig3_dense_anchor_shapes () =
  List.iter
    (fun (label, profile, paper_cp) ->
      let cp = norm profile (Runner.cfg_ghumvee ()) in
      let ip = norm profile (Runner.cfg_remon Classification.Nonsocket_rw_level) in
      Alcotest.(check bool)
        (Printf.sprintf "%s CP overhead in the paper's ballpark (%.2f vs %.2f)"
           label cp paper_cp)
        true
        (cp > 1. +. ((paper_cp -. 1.) /. 2.) && cp < 1. +. ((paper_cp -. 1.) *. 2.));
      Alcotest.(check bool)
        (Printf.sprintf "%s IP-MON cuts overhead by >2x (%.2f -> %.2f)" label cp ip)
        true
        (ip -. 1. < (cp -. 1.) /. 2.))
    [
      ("dedup", find_parsec "dedup", 3.53);
      ("water_spatial", find_splash "water_spatial", 4.20);
    ]

(* Figure 4: each benchmark's normalized time is monotonically
   non-increasing across the cumulative levels (within noise), and the
   drop points land where the paper's do. *)
let test_fig4_staircase_monotone () =
  List.iter
    (fun name ->
      let e = find_phoronix name in
      let series =
        List.map (fun lvl -> norm e.Phoronix.profile (Runner.cfg_remon lvl)) Phoronix.levels
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> b <= a +. 0.02 && monotone rest
        | _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s staircase non-increasing: %s" name
           (String.concat " " (List.map (Printf.sprintf "%.2f") series)))
        true (monotone series))
    [ "compress-gzip"; "phpbench"; "unpack-linux"; "network-loopback" ]

let test_fig4_drop_points () =
  (* phpbench drops hard at BASE (time queries); loopback only at the
     SOCKET levels *)
  let php = find_phoronix "phpbench" in
  let php_cp = norm php.Phoronix.profile (Runner.cfg_ghumvee ()) in
  let php_base = norm php.Phoronix.profile (Runner.cfg_remon Classification.Base_level) in
  Alcotest.(check bool) "phpbench: BASE already removes >30% of the overhead" true
    (php_base -. 1. < (php_cp -. 1.) *. 0.7);
  let lb = find_phoronix "network-loopback" in
  let lb_nsrw = norm lb.Phoronix.profile (Runner.cfg_remon Classification.Nonsocket_rw_level) in
  let lb_srw = norm lb.Phoronix.profile (Runner.cfg_remon Classification.Socket_rw_level) in
  Alcotest.(check bool) "loopback: NONSOCKET levels keep most of the overhead" true
    (lb_nsrw > 5.);
  Alcotest.(check bool) "loopback: SOCKET_RW removes it" true (lb_srw < 3.)

(* Figure 5's two headline shapes. *)
let test_fig5_latency_hiding () =
  let server = Servers.nginx_wrk in
  let client = Clients.wrk ~concurrency:16 ~total_requests:320 () in
  let config = Runner.cfg_remon Classification.Socket_rw_level in
  let fast = Runner.server_overhead ~latency:(Vtime.us 100) ~server ~client config in
  let slow = Runner.server_overhead ~latency:(Vtime.ms 2) ~server ~client config in
  Alcotest.(check bool)
    (Printf.sprintf "realistic-latency overhead under 3.5%% (%.3f)" slow)
    true (slow < 0.035);
  Alcotest.(check bool) "latency hides the overhead" true (slow < fast /. 3.)

let test_fig5_ipmon_beats_no_ipmon () =
  let server = Servers.redis in
  let client = Clients.wrk ~concurrency:16 ~total_requests:320 () in
  let latency = Vtime.us 100 in
  let no_ipmon = Runner.server_overhead ~latency ~server ~client (Runner.cfg_ghumvee ()) in
  let with_ipmon =
    Runner.server_overhead ~latency ~server ~client
      (Runner.cfg_remon Classification.Socket_rw_level)
  in
  Alcotest.(check bool)
    (Printf.sprintf "IP-MON cuts server overhead >3x (%.2f -> %.2f)" no_ipmon with_ipmon)
    true
    (with_ipmon < no_ipmon /. 3.)

(* Table 2 positioning: VARAN <= ReMon <= GHUMVEE on syscall-dense work. *)
let test_backend_total_order () =
  let profile =
    Profile.make ~name:"order-check" ~threads:4 ~density_hz:100_000. ~calls:2000
      ~mix:Profile.mix_file_rw ~description:"ordering" ()
  in
  let v = norm profile (Runner.cfg_varan ()) in
  let r = norm profile (Runner.cfg_remon Classification.Nonsocket_rw_level) in
  let g = norm profile (Runner.cfg_ghumvee ()) in
  Alcotest.(check bool)
    (Printf.sprintf "varan(%.2f) <= remon(%.2f) <= ghumvee(%.2f)" v r g)
    true
    (v <= r +. 0.02 && r < g)

(* The geomean headlines, within generous tolerance. *)
let test_geomean_headlines () =
  let parsec_cp =
    Remon_util.Stats.geomean
      (List.map (fun (e : Parsec.entry) -> norm e.profile (Runner.cfg_ghumvee ())) Parsec.all)
  in
  let parsec_ip =
    Remon_util.Stats.geomean
      (List.map
         (fun (e : Parsec.entry) ->
           norm e.profile (Runner.cfg_remon Classification.Nonsocket_rw_level))
         Parsec.all)
  in
  Alcotest.(check bool)
    (Printf.sprintf "PARSEC CP geomean near paper's 1.22 (%.3f)" parsec_cp)
    true
    (parsec_cp > 1.12 && parsec_cp < 1.35);
  Alcotest.(check bool)
    (Printf.sprintf "PARSEC IP-MON geomean near paper's 1.11 (%.3f)" parsec_ip)
    true
    (parsec_ip > 1.02 && parsec_ip < 1.18);
  Alcotest.(check bool) "IP-MON improves the geomean" true (parsec_ip < parsec_cp)

(* Table 1 structure counts, as printed by the paper. *)
let test_table1_counts () =
  let rows = Classification.table1 () in
  let count lvl =
    let _, u, c = List.find (fun (l, _, _) -> l = lvl) rows in
    (List.length u, List.length c)
  in
  (* the paper's own calls are all present; our kernel adds more at the
     same levels, so check lower bounds and conditional-set exactness *)
  let u, c = count Classification.Base_level in
  Alcotest.(check bool) "BASE unconditional >= 21" true (u >= 21);
  Alcotest.(check int) "BASE conditional = 3 (futex/ioctl/fcntl)" 3 c;
  let _, c = count Classification.Nonsocket_ro_level in
  Alcotest.(check bool) "read family conditional >= 6" true (c >= 6);
  let u, _ = count Classification.Socket_rw_level in
  Alcotest.(check int) "SOCKET_RW unconditional = 7" 7 u

let tc = Alcotest.test_case

(* Every scheduler of this executable runs the lost-wake-up oracle: each
   sweep is followed by a retry of every queued wait that was not woken. *)
let () = Remon_kernel.Sched.set_wakeup_check true

let () =
  Alcotest.run "shapes"
    [
      ( "fig3",
        [
          tc "dense anchors + >2x cut" `Quick test_fig3_dense_anchor_shapes;
          tc "geomean headlines" `Quick test_geomean_headlines;
        ] );
      ( "fig4",
        [
          tc "staircase monotone" `Quick test_fig4_staircase_monotone;
          tc "drop points" `Quick test_fig4_drop_points;
        ] );
      ( "fig5",
        [
          tc "latency hiding + <3.5% realistic" `Quick test_fig5_latency_hiding;
          tc "IP-MON beats no-IP-MON" `Quick test_fig5_ipmon_beats_no_ipmon;
        ] );
      ( "positioning",
        [
          tc "varan <= remon <= ghumvee" `Quick test_backend_total_order;
          tc "table 1 structure" `Quick test_table1_counts;
        ] );
    ]
