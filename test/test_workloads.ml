(* Workload library tests: profile determinism across replicas, server
   architectures under each backend, client measurement sanity, the
   registry, and the two-anchor calibration fit. *)

open Remon_core
open Remon_sim
open Remon_workloads

(* Every mix archetype must produce identical syscall sequences in every
   replica: run it under full monitoring, where any divergence is fatal. *)
let test_mix_deterministic mix_name mix () =
  let profile =
    Profile.make ~name:("det." ^ mix_name) ~threads:3 ~density_hz:40_000.
      ~calls:400 ~mix ~description:"determinism probe" ()
  in
  let config =
    {
      Mvee.default_config with
      Mvee.backend = Mvee.Ghumvee_only;
      policy = Policy.monitor_everything;
      nreplicas = 2;
    }
  in
  let r = Runner.run_profile profile config in
  Alcotest.(check bool) "completed without divergence" true
    (r.Runner.outcome.Mvee.verdict = None)

let test_profile_density_approx () =
  (* the native run's call rate should approximate the requested density *)
  let profile =
    Profile.make ~name:"density-probe" ~threads:2 ~density_hz:20_000. ~calls:2000
      ~jitter:0. ~mix:Profile.mix_compute ~description:"density probe" ()
  in
  let r = Runner.run_profile profile (Runner.cfg_native ()) in
  let calls = r.Runner.outcome.Mvee.syscalls in
  let secs = Vtime.to_float_s r.Runner.duration in
  let rate_per_thread = float_of_int calls /. secs /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f within 25%% of 20k" rate_per_thread)
    true
    (rate_per_thread > 15_000. && rate_per_thread < 25_000.)

let test_server_archs () =
  (* each server architecture serves a small load under ReMon *)
  List.iter
    (fun (server : Servers.spec) ->
      let client = Clients.ab ~concurrency:4 ~total_requests:24 () in
      let r =
        Runner.run_server_bench ~latency:(Vtime.us 200) ~server ~client
          (Runner.cfg_remon Classification.Socket_rw_level)
      in
      Alcotest.(check int)
        (server.Servers.name ^ " all responses")
        24 r.Runner.responses)
    [ Servers.nginx_wrk; Servers.thttpd_ab; Servers.apache_ab ]

let test_server_under_all_backends () =
  let server = Servers.redis in
  let client = Clients.wrk ~concurrency:4 ~total_requests:60 () in
  List.iter
    (fun config ->
      let r = Runner.run_server_bench ~latency:(Vtime.us 100) ~server ~client config in
      Alcotest.(check int) "responses" 60 r.Runner.responses)
    [
      Runner.cfg_native ();
      Runner.cfg_ghumvee ();
      Runner.cfg_varan ();
      Runner.cfg_remon Classification.Socket_rw_level;
      Runner.cfg_remon ~nreplicas:5 Classification.Socket_rw_level;
    ]

(* A server master never exits, so its duration is the instant of the
   run's last simulated event: it ends with the client load, not with a
   stall timer of some long-finished rendezvous. *)
let test_server_duration_ends_with_load () =
  let client = Clients.wrk ~concurrency:32 ~total_requests:640 () in
  let r =
    Runner.run_server_bench ~server:Servers.beanstalkd ~client
      (Runner.cfg_ghumvee ())
  in
  let duration = r.Runner.server_outcome.Mvee.duration in
  Alcotest.(check bool)
    (Printf.sprintf "duration %s within 10 ms of the client's %s"
       (Vtime.to_string duration)
       (Vtime.to_string r.Runner.client_duration))
    true
    Vtime.(duration - r.Runner.client_duration < ms 10)

let test_latency_hiding_shape () =
  (* the defining server result: overhead decreases as latency grows *)
  let server = Servers.memcached in
  let client = Clients.wrk ~concurrency:8 ~total_requests:160 () in
  let ov latency =
    Runner.server_overhead ~latency ~server ~client (Runner.cfg_ghumvee ())
  in
  let fast = ov (Vtime.us 100) in
  let slow = ov (Vtime.ms 2) in
  Alcotest.(check bool)
    (Printf.sprintf "overhead shrinks with latency (%.3f -> %.3f)" fast slow)
    true (slow < fast /. 4.)

let test_backend_ordering_dense () =
  (* remon sits strictly between native and ghumvee on dense workloads *)
  let profile =
    Profile.make ~name:"ordering" ~threads:4 ~density_hz:100_000. ~calls:1500
      ~mix:Profile.mix_file_rw ~description:"ordering probe" ()
  in
  let cp = Runner.normalized_time profile (Runner.cfg_ghumvee ()) in
  let hybrid =
    Runner.normalized_time profile (Runner.cfg_remon Classification.Nonsocket_rw_level)
  in
  let varan = Runner.normalized_time profile (Runner.cfg_varan ()) in
  Alcotest.(check bool) "hybrid beats CP" true (hybrid < cp);
  Alcotest.(check bool) "hybrid has overhead" true (hybrid > 1.001);
  Alcotest.(check bool) "varan <= hybrid (no lockstep at all)" true
    (varan <= hybrid +. 0.01)

let test_registry () =
  let names = Registry.names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "parsec.dedup registered" true
    (Registry.find "parsec.dedup" <> None);
  Alcotest.(check bool) "server workloads registered" true
    (Registry.find "server.nginx-wrk" <> None);
  Alcotest.(check bool) "unknown name" true (Registry.find "nope" = None);
  Alcotest.(check bool) "9 servers + 33 profiles + 19 spec" true
    (List.length names >= 60)

let test_fit_properties () =
  (* the two-anchor fit: density and memory pressure are non-negative, and
     higher no-IPMON anchors give higher densities *)
  let d1, m1 = Profile.fit ~paper_no:1.1 ~paper_ip:1.02 ~mix:Profile.mix_compute in
  let d2, m2 = Profile.fit ~paper_no:2.0 ~paper_ip:1.1 ~mix:Profile.mix_compute in
  Alcotest.(check bool) "densities positive" true (d1 >= 300. && d2 >= 300.);
  Alcotest.(check bool) "pressure non-negative" true (m1 >= 0. && m2 >= 0.);
  Alcotest.(check bool) "monotone in overhead" true (d2 > d1);
  (* when the IP-MON anchor exceeds the no-IPMON anchor, everything must be
     attributed to memory pressure *)
  let d3, m3 = Profile.fit ~paper_no:1.04 ~paper_ip:1.11 ~mix:Profile.mix_compute in
  Alcotest.(check bool) "inverted anchors: pressure-dominated" true
    (d3 = 300. && m3 > 0.05)

let test_monitored_fraction () =
  Alcotest.(check (float 1e-9)) "pure compute mix has no monitored calls" 0.
    (Profile.monitored_fraction Profile.mix_compute);
  Alcotest.(check bool) "unpack mix is monitored-heavy" true
    (Profile.monitored_fraction Profile.mix_unpack > 0.3)

let test_suite_sizes () =
  Alcotest.(check int) "12 PARSEC benchmarks (canneal excluded)" 12
    (List.length Parsec.all);
  Alcotest.(check int) "13 SPLASH benchmarks (cholesky excluded)" 13
    (List.length Splash.all);
  Alcotest.(check int) "8 Phoronix benchmarks" 8 (List.length Phoronix.all);
  Alcotest.(check int) "19 SPEC benchmarks" 19 (List.length Spec.all);
  List.iter
    (fun (e : Phoronix.entry) ->
      Alcotest.(check int)
        (e.Phoronix.bench ^ " has 6 paper bars")
        6
        (Array.length e.Phoronix.paper))
    Phoronix.all

let prop_profiles_run_natively =
  QCheck2.Test.make ~name:"every registered profile completes natively" ~count:15
    QCheck2.Gen.(int_range 0 200)
    (fun idx ->
      let profiles =
        List.filter_map
          (function _, Registry.Profile_workload p -> Some p | _ -> None)
          Registry.all
      in
      let p = List.nth profiles (idx mod List.length profiles) in
      (* shrink the run so the property stays fast *)
      let p = { p with Profile.total_calls_per_thread = 60 } in
      let r = Runner.run_profile p (Runner.cfg_native ()) in
      Vtime.compare r.Runner.duration Vtime.zero > 0)

let tc = Alcotest.test_case

(* Every scheduler of this executable runs the lost-wake-up oracle: each
   sweep is followed by a retry of every queued wait that was not woken. *)
let () = Remon_kernel.Sched.set_wakeup_check true

let () =
  Alcotest.run "workloads"
    [
      ( "determinism",
        [
          tc "mix_compute" `Quick (test_mix_deterministic "compute" Profile.mix_compute);
          tc "mix_file_ro" `Quick (test_mix_deterministic "file_ro" Profile.mix_file_ro);
          tc "mix_file_rw" `Quick (test_mix_deterministic "file_rw" Profile.mix_file_rw);
          tc "mix_pipe" `Quick (test_mix_deterministic "pipe" Profile.mix_pipe);
          tc "mix_sock" `Quick (test_mix_deterministic "sock" Profile.mix_sock);
          tc "mix_sync" `Quick (test_mix_deterministic "sync" Profile.mix_sync);
          tc "mix_unpack" `Quick (test_mix_deterministic "unpack" Profile.mix_unpack);
        ] );
      ( "profiles",
        [
          tc "density approximation" `Quick test_profile_density_approx;
          tc "fit properties" `Quick test_fit_properties;
          tc "monitored fraction" `Quick test_monitored_fraction;
          tc "suite sizes" `Quick test_suite_sizes;
          QCheck_alcotest.to_alcotest prop_profiles_run_natively;
        ] );
      ( "servers",
        [
          tc "architectures serve load" `Quick test_server_archs;
          tc "all backends serve load" `Quick test_server_under_all_backends;
          tc "latency hiding" `Quick test_latency_hiding_shape;
          tc "never-exiting master: duration ends with the load" `Quick
            test_server_duration_ends_with_load;
          tc "backend ordering" `Quick test_backend_ordering_dense;
        ] );
      ("registry", [ tc "lookup + uniqueness" `Quick test_registry ]);
    ]
