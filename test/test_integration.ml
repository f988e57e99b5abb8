(* Cross-cutting integration tests: temporal policy end-to-end, the VARAN
   fd-replication path, multi-threaded servers under many replicas,
   single-replica monitoring, determinism of whole runs, and memory
   pressure scaling. *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_workloads

let sys = Sched.syscall

(* Temporal exemption must never route replicas asymmetrically: a dense
   2-replica run with aggressive temporal policy completes cleanly and
   actually exempts calls. *)
let test_temporal_end_to_end () =
  let policy =
    Policy.with_temporal
      (Policy.spatial Classification.Base_level)
      { Policy.min_approvals = 8; exempt_probability = 0.7; window_ns = Vtime.s 1 }
  in
  let profile =
    Profile.make ~name:"temporal-e2e" ~threads:2 ~density_hz:50_000. ~calls:1500
      ~mix:Profile.mix_file_rw ~description:"temporal e2e" ()
  in
  let config = { (Runner.cfg_remon Classification.Base_level) with Mvee.policy } in
  let r = Runner.run_profile profile config in
  Alcotest.(check bool) "no divergence" true (r.Runner.outcome.Mvee.verdict = None);
  (* at BASE, file reads/writes are only exempt via the temporal policy;
     mix_file_rw has few BASE-eligible calls, so fast-path traffic beyond
     ~15% of calls must come from temporal exemptions *)
  let o = r.Runner.outcome in
  Alcotest.(check bool)
    (Printf.sprintf "temporal exemptions happened (fast=%d mon=%d)"
       o.Mvee.ipmon_fastpath o.Mvee.monitored)
    true
    (o.Mvee.ipmon_fastpath > o.Mvee.syscalls / 8)

(* VARAN replicates fd-lifecycle calls in-process: a slave's open must not
   touch the host filesystem twice, and its stub fds must work for
   subsequent replicated I/O. *)
let test_varan_fd_replication () =
  let kernel = Kernel.create () in
  let read_back = Array.make 2 "" in
  let body (env : Mvee.env) =
    let fd =
      match sys (Syscall.Open ("/tmp/varanfd.txt", { Syscall.o_rdwr with create = true })) with
      | Syscall.Ok_int fd -> fd
      | r -> Alcotest.failf "open: %s" (Format.asprintf "%a" Syscall.pp_result r)
    in
    ignore (sys (Syscall.Write (fd, "once-only ")));
    ignore (sys (Syscall.Pwrite64 (fd, "and-again", 10)));
    (match sys (Syscall.Pread64 (fd, 32, 0)) with
    | Syscall.Ok_data s -> read_back.(env.Mvee.variant) <- s
    | _ -> ());
    ignore (sys (Syscall.Close fd))
  in
  let h =
    Mvee.launch kernel
      { Mvee.default_config with Mvee.backend = Mvee.Varan }
      ~name:"varanfd" ~body
  in
  Kernel.run kernel;
  let o = Mvee.finish h in
  Alcotest.(check bool) "no divergence" true (o.Mvee.verdict = None);
  Alcotest.(check string) "replicas read identical data" read_back.(0) read_back.(1);
  match Vfs.resolve (Kernel.vfs kernel) "/tmp/varanfd.txt" with
  | Ok node ->
    Alcotest.(check int) "file written once" 19 (Vfs.file_size node)
  | Error _ -> Alcotest.fail "file missing"

(* Thread-per-connection server under 4 replicas at a restrictive policy:
   every conn-handler thread gets its own lockstep rendezvous stream. *)
let test_threaded_server_many_replicas () =
  let server = Servers.apache_ab in
  let client = Clients.ab ~concurrency:4 ~total_requests:16 () in
  let config =
    { (Runner.cfg_remon ~nreplicas:4 Classification.Nonsocket_rw_level) with
      Mvee.watchdog_ns = Vtime.s 60 }
  in
  let r = Runner.run_server_bench ~latency:(Vtime.us 200) ~server ~client config in
  Alcotest.(check int) "all requests served" 16 r.Runner.responses

(* GHUMVEE supervising a single replica is the degenerate but valid case
   (plain syscall sandboxing). *)
let test_single_replica_monitoring () =
  let kernel = Kernel.create () in
  let config =
    {
      Mvee.default_config with
      Mvee.backend = Mvee.Ghumvee_only;
      nreplicas = 1;
      policy = Policy.monitor_everything;
    }
  in
  let h =
    Mvee.launch kernel config ~name:"solo" ~body:(fun _ ->
        let fd =
          match sys (Syscall.Open ("/tmp/solo.txt", { Syscall.o_rdwr with create = true })) with
          | Syscall.Ok_int fd -> fd
          | _ -> Alcotest.fail "open"
        in
        ignore (sys (Syscall.Write (fd, "solo")));
        ignore (sys (Syscall.Close fd)))
  in
  Kernel.run kernel;
  let o = Mvee.finish h in
  Alcotest.(check bool) "clean" true (o.Mvee.verdict = None);
  Alcotest.(check bool) "calls were monitored" true (o.Mvee.monitored > 0)

(* Whole runs are deterministic: the same configuration and seed produce
   bit-identical durations and counters. *)
let test_run_determinism () =
  let profile =
    Profile.make ~name:"determinism" ~threads:4 ~density_hz:60_000. ~calls:800
      ~mix:Profile.mix_file_rw ~description:"determinism" ()
  in
  let run () =
    let r = Runner.run_profile profile (Runner.cfg_remon Classification.Nonsocket_rw_level) in
    ( r.Runner.duration,
      r.Runner.outcome.Mvee.syscalls,
      r.Runner.outcome.Mvee.ipmon_fastpath,
      r.Runner.outcome.Mvee.rb_records )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical durations and counters" true (a = b)

(* Different seeds change layouts (ASLR) but never behaviour. *)
let test_seed_invariance () =
  let profile =
    Profile.make ~name:"seeds" ~threads:2 ~density_hz:30_000. ~calls:400
      ~mix:Profile.mix_file_ro ~description:"seed invariance" ()
  in
  List.iter
    (fun seed ->
      let r =
        Runner.run_profile profile
          (Runner.cfg_remon ~seed Classification.Nonsocket_rw_level)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d clean" seed)
        true
        (r.Runner.outcome.Mvee.verdict = None))
    [ 1; 7; 99; 12345 ]

(* Memory pressure scales with the replica count. *)
let test_mem_pressure_scaling () =
  let profile =
    Profile.make ~name:"mem" ~threads:2 ~density_hz:1_000. ~calls:200
      ~mem_pressure:0.08 ~mix:Profile.mix_compute ~description:"mem pressure" ()
  in
  let dur n =
    let r =
      Runner.run_profile profile (Runner.cfg_remon ~nreplicas:n Classification.Socket_rw_level)
    in
    Vtime.to_float_ns r.Runner.duration
  in
  let native =
    Vtime.to_float_ns (Runner.run_profile profile (Runner.cfg_native ())).Runner.duration
  in
  let two = dur 2 and four = dur 4 in
  Alcotest.(check bool) "2 replicas slower than native" true (two > native *. 1.05);
  Alcotest.(check bool) "4 replicas slower than 2" true (four > two *. 1.05)

(* Seven replicas on a profile workload complete in lockstep. *)
let test_seven_replicas_profile () =
  let profile =
    Profile.make ~name:"seven" ~threads:2 ~density_hz:20_000. ~calls:300
      ~mix:Profile.mix_file_rw ~description:"7 replicas" ()
  in
  let r =
    Runner.run_profile profile
      (Runner.cfg_remon ~nreplicas:7 Classification.Nonsocket_rw_level)
  in
  Alcotest.(check bool) "clean" true (r.Runner.outcome.Mvee.verdict = None);
  Alcotest.(check int) "all seven exited" 7
    (List.length r.Runner.outcome.Mvee.exit_codes)

(* RB migration under live server load. *)
let test_migration_under_load () =
  let server = Servers.redis in
  let client = Clients.wrk ~concurrency:4 ~total_requests:80 () in
  let config =
    { (Runner.cfg_remon Classification.Socket_rw_level) with
      Mvee.rb_migration_interval = Some (Vtime.ms 1) }
  in
  let r = Runner.run_server_bench ~latency:(Vtime.us 100) ~server ~client config in
  Alcotest.(check int) "all served across migrations" 80 r.Runner.responses

(* The epoll server maps an event's pointer back to its fd in O(1), so a
   connection on fd 64 or above is served like any other. The lowered
   event budget turns a connection the server never serves (level-triggered
   epoll keeps reporting it) into a quick failure instead of a long spin. *)
let test_epoll_server_past_fd_64 () =
  let server = Servers.nginx_wrk in
  let client = Clients.wrk ~concurrency:64 ~total_requests:512 () in
  let kernel = Kernel.create ~net_latency:(Vtime.us 100) () in
  (Kernel.sched kernel).Sched.max_events <- 2_000_000;
  let h =
    Mvee.launch kernel (Runner.cfg_native ()) ~name:server.Servers.name
      ~body:(Servers.body server)
  in
  let meas = Clients.launch kernel server client in
  Kernel.run kernel;
  ignore (Mvee.finish h);
  Alcotest.(check int) "every request served" 512 meas.Clients.responses

(* A state change retries only the threads parked on the object that
   changed. The Figure 5 nginx server under wrk-like clients (8 requests
   per connection, 100 us link, native) fails fewer than one retry per
   request at 16 and at 256 connections, where retrying every parked
   thread on every kick failed 56.8 and 629.8. The retries that succeed
   are the ones that move the simulation, and their count is that of the
   retry-everything sweep. *)
let test_wakeup_scaling () =
  List.iter
    (fun (conns, succeeded) ->
      let server = Servers.nginx_wrk in
      let client =
        {
          (Clients.wrk ~concurrency:conns ~total_requests:(8 * conns) ()) with
          Clients.requests_per_conn = 8;
        }
      in
      let kernel = Kernel.create ~net_latency:(Vtime.us 100) () in
      let h =
        Mvee.launch kernel (Runner.cfg_native ()) ~name:server.Servers.name
          ~body:(Servers.body server)
      in
      let meas = Clients.launch kernel server client in
      Kernel.run kernel;
      ignore (Mvee.finish h);
      let s = Kernel.sched kernel in
      let requests = meas.Clients.responses in
      Alcotest.(check int) "every request served" (8 * conns) requests;
      Alcotest.(check int) "successful retries" succeeded s.Sched.retries_ok;
      let failed =
        float_of_int (s.Sched.retries - s.Sched.retries_ok)
        /. float_of_int requests
      in
      if failed >= 1. then
        Alcotest.failf "%d connections: %.2f failed retries per request" conns
          failed)
    [ (16, 133); (256, 2063) ]

(* The spin/futex and condvar ablation modes must not change behaviour,
   only timing. *)
let test_ablation_modes_behave () =
  let profile =
    Profile.make ~name:"modes" ~threads:2 ~density_hz:40_000. ~calls:500
      ~mix:Profile.mix_file_rw ~description:"ablation modes" ()
  in
  List.iter
    (fun mode ->
      let config =
        { (Runner.cfg_remon Classification.Nonsocket_rw_level) with
          Mvee.mode_override = Some mode }
      in
      let r = Runner.run_profile profile config in
      Alcotest.(check bool) "clean" true (r.Runner.outcome.Mvee.verdict = None))
    [
      { Context.default_mode with Context.per_call_condvar = false };
      { Context.default_mode with Context.slave_wait = Context.Wait_spin_only };
      { Context.default_mode with Context.slave_wait = Context.Wait_futex_only };
    ]

let tc = Alcotest.test_case

(* Every scheduler of this executable runs the lost-wake-up oracle: each
   sweep is followed by a retry of every queued wait that was not woken. *)
let () = Remon_kernel.Sched.set_wakeup_check true

let () =
  Alcotest.run "integration"
    [
      ( "policies",
        [
          tc "temporal end-to-end" `Quick test_temporal_end_to_end;
          tc "ablation modes behave" `Quick test_ablation_modes_behave;
        ] );
      ( "backends",
        [
          tc "varan fd replication" `Quick test_varan_fd_replication;
          tc "single-replica monitoring" `Quick test_single_replica_monitoring;
        ] );
      ( "scale",
        [
          tc "threaded server x4 replicas" `Quick test_threaded_server_many_replicas;
          tc "seven replicas" `Quick test_seven_replicas_profile;
          tc "memory pressure scaling" `Quick test_mem_pressure_scaling;
        ] );
      ( "determinism",
        [
          tc "bit-identical reruns" `Quick test_run_determinism;
          tc "seed invariance" `Quick test_seed_invariance;
        ] );
      ( "extensions",
        [ tc "rb migration under load" `Quick test_migration_under_load ] );
      ( "epoll-server",
        [
          tc "64 connections served" `Quick test_epoll_server_past_fd_64;
          tc "wake-ups scale with requests" `Quick test_wakeup_scaling;
        ] );
    ]
