(* Fleet-level orchestration: load balancer + health probes, fleet
   quarantine/respawn under chaos, rolling restarts, and the degraded-time
   accounting fix (the window closes at journal drain, not lockstep
   rejoin). *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_workloads
module Fchaos = Remon_fleet.Chaos
module Lb = Remon_fleet.Lb

let sys = Sched.syscall

(* ------------------------------------------------------------------ *)
(* degraded_ns regression: the drain instant closes the window *)

(* Dense monitored phase (the journal the respawn replays), then a stretch
   of master-only compute — a monitored silence during which the journal
   does not grow. The respawned replica drains the journal and parks at
   its head near the start of that silence, but can only rejoin lockstep
   at the master's *next* monitored call, [gap_ms] later. Before the fix
   the degraded window was held open until that rejoin; now it closes at
   the drain instant. *)
let gap_ms = 5

let gapped_body () (env : Mvee.env) =
  for _ = 1 to 30 do
    (match
       sys (Syscall.Open ("/tmp/fleet.txt", { Syscall.o_rdwr with create = true }))
     with
    | Syscall.Ok_int fd ->
      ignore (sys (Syscall.Write (fd, "x")));
      ignore (sys (Syscall.Close fd))
    | _ -> ());
    Sched.compute (Vtime.us 20)
  done;
  if env.Mvee.variant = 0 then Sched.compute (Vtime.ms gap_ms);
  (* monitored tail: the rendezvous the respawned replica rejoins at *)
  for _ = 1 to 3 do
    match
      sys (Syscall.Open ("/tmp/fleet.txt", { Syscall.o_rdwr with create = true }))
    with
    | Syscall.Ok_int fd -> ignore (sys (Syscall.Close fd))
    | _ -> ()
  done

let first_instant o name =
  let found = ref None in
  Remon_util.Vec.iter
    (fun (e : Remon_obs.Trace.event) ->
      if e.Remon_obs.Trace.name = name && !found = None then
        found := Some e.Remon_obs.Trace.ts)
    o.Remon_obs.Obs.trace.Remon_obs.Trace.events;
  match !found with
  | Some ts -> ts
  | None -> Alcotest.failf "no %S instant in the trace" name

let test_degraded_window_closes_at_drain () =
  let cfg =
    {
      Mvee.default_config with
      backend = Mvee.Remon;
      nreplicas = 2;
      policy = Policy.spatial Classification.Socket_rw_level;
      faults = [ Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:12 ];
      on_failure = Mvee.Respawn { max_respawns = 2; backoff_ns = Vtime.ms 1 };
    }
  in
  let kernel = Kernel.create ~seed:cfg.Mvee.seed () in
  let o = Remon_obs.Obs.create () in
  Kernel.set_obs kernel o;
  let h = Mvee.launch kernel cfg ~name:"degraded" ~body:(gapped_body ()) in
  Kernel.run kernel;
  let outcome = Mvee.finish h in
  (match outcome.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected verdict: %s" (Divergence.to_string v));
  Alcotest.(check int) "one respawn" 1 outcome.Mvee.respawns;
  (* exact window: the accounted time must equal the span between the
     quarantine instant and the (drain-stamped) rejoin instant *)
  let t_q = first_instant o "quarantine" in
  let t_r = first_instant o "rejoin" in
  Alcotest.(check int)
    "degraded_ns = rejoin(ts) - quarantine(ts)"
    (t_r - t_q) outcome.Mvee.degraded_ns;
  (* regression pin: the window must exclude the monitored-silence gap.
     With the drain accounted at lockstep rejoin, degraded_ns would be
     >= gap_ms here. *)
  Alcotest.(check bool)
    (Printf.sprintf "window excludes the %d ms rejoin gap" gap_ms)
    true
    (Vtime.compare outcome.Mvee.degraded_ns (Vtime.ms gap_ms) < 0)

(* ------------------------------------------------------------------ *)
(* connect_retry: deterministic parameterized backoff *)

let retry_run () =
  let retries = ref [] in
  let elapsed = ref Vtime.zero in
  let exhausted = ref false in
  let kernel = Kernel.create ~seed:7 ~net_latency:(Vtime.us 50) () in
  ignore
    (Kernel.spawn_process kernel ~name:"dialer" ~vm_seed:3 (fun () ->
         let fd = Api.socket () in
         let t0 = Sched.vnow () in
         (match
            Api.connect_retry ~attempts:4 ~base_backoff_ns:1_000_000
              ~cap_backoff_ns:8_000_000
              ~on_retry:(fun n -> retries := n :: !retries)
              fd 9999
          with
         | exception Api.Connect_retries_exhausted _ -> exhausted := true
         | () -> ());
         elapsed := Vtime.sub (Sched.vnow ()) t0));
  Kernel.run kernel;
  (List.rev !retries, !elapsed, !exhausted)

let test_connect_retry_backoff () =
  let retries, elapsed, exhausted = retry_run () in
  Alcotest.(check bool) "budget exhausted" true exhausted;
  Alcotest.(check (list int)) "one on_retry call per retry, 1-based"
    [ 1; 2; 3; 4 ] retries;
  (* backoff sleeps alone are 1+2+4+8 ms; refused connects add RTTs *)
  Alcotest.(check bool) "elapsed covers the backoff schedule" true
    (Vtime.compare elapsed (Vtime.ms 15) >= 0);
  let _, elapsed2, _ = retry_run () in
  Alcotest.(check int) "deterministic elapsed time" elapsed elapsed2

(* ------------------------------------------------------------------ *)
(* Chaos scenarios *)

let chaos_cfg = { Fchaos.default_cfg with Fchaos.fault_rate = 0.004 }

(* Masters die mid-burst; the LB fails affected requests over and the
   fleet respawns the downed instances. With the recovery ladder off,
   every master crash permanently removes an instance. *)
let test_chaos_failover_and_availability () =
  let on = Fchaos.run_scenario chaos_cfg in
  let off = Fchaos.run_scenario { chaos_cfg with Fchaos.recovery = false } in
  Alcotest.(check int) "all requests attempted (recovery on)"
    chaos_cfg.Fchaos.requests on.Fchaos.attempted;
  Alcotest.(check int) "all requests attempted (recovery off)"
    chaos_cfg.Fchaos.requests off.Fchaos.attempted;
  Alcotest.(check bool) "masters actually died" true
    (on.Fchaos.instance_failures >= 1);
  Alcotest.(check bool) "failover engaged" true (on.Fchaos.failovers > 0);
  Alcotest.(check bool) "fleet respawned" true (on.Fchaos.fleet_respawns >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "availability SLO met with recovery (%.3f)"
       on.Fchaos.availability)
    true
    (on.Fchaos.availability > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "strictly worse without recovery (%.3f < %.3f)"
       off.Fchaos.availability on.Fchaos.availability)
    true
    (off.Fchaos.availability < on.Fchaos.availability)

(* The same fault plan classifies identically on every replicated
   backend: chaos must not depend on which monitor caught the crash. *)
let test_verdict_classes_agree () =
  let classes b =
    (Fchaos.run_scenario { chaos_cfg with Fchaos.backend = b }).Fchaos
      .verdict_classes
  in
  let ghumvee = classes Mvee.Ghumvee_only in
  let varan = classes Mvee.Varan in
  let remon = classes Mvee.Remon in
  Alcotest.(check (list string)) "ghumvee vs varan" ghumvee varan;
  Alcotest.(check (list string)) "varan vs remon" varan remon

(* Rolling restart under live traffic: connection draining means clients
   see backoff latency, never errors. *)
let test_rolling_restart_clean () =
  List.iter
    (fun policy ->
      let r =
        Fchaos.run_scenario
          { chaos_cfg with Fchaos.fault_rate = 0.0; rolling = Some 1; policy }
      in
      Alcotest.(check int) "all requests attempted" chaos_cfg.Fchaos.requests
        r.Fchaos.attempted;
      Alcotest.(check int) "no dropped requests" 0 r.Fchaos.lb_errors;
      Alcotest.(check bool) "full availability" true
        (r.Fchaos.availability = 1.0))
    [ Lb.Round_robin; Lb.Least_conns ]

(* Stdout contract: the per-cell summary lines are byte-identical for any
   --domains fan-out. *)
let test_domains_identity () =
  let cells =
    [
      chaos_cfg;
      { chaos_cfg with Fchaos.recovery = false };
      { chaos_cfg with Fchaos.fault_rate = 0.0; rolling = Some 1 };
    ]
  in
  let lines domains =
    Remon_util.Pool.map ~domains
      (fun c -> Fchaos.summary_line c (Fchaos.run_scenario c))
      cells
  in
  Alcotest.(check (list string)) "domains 1 vs 4" (lines 1) (lines 4)

(* The recovery and fleet counters surface in the metrics summary. *)
let test_metrics_surface () =
  let r = Fchaos.run_scenario { chaos_cfg with Fchaos.trace = true } in
  let keys = List.map fst r.Fchaos.metrics in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "metric %S present" k) true
        (List.mem k keys))
    [
      "recovery.quarantines";
      "recovery.respawns";
      "recovery.watchdog_retries";
      "fleet.lb.proxied";
      "fleet.lb.probes";
      "fleet.instance_down";
      "fleet.instance_respawn";
    ]

(* ------------------------------------------------------------------ *)

(* Every scheduler of this executable runs the lost-wake-up oracle: each
   sweep is followed by a retry of every queued wait that was not woken. *)
let () = Remon_kernel.Sched.set_wakeup_check true

let () =
  Alcotest.run "fleet"
    [
      ( "degraded-window",
        [
          Alcotest.test_case "closes at journal drain" `Quick
            test_degraded_window_closes_at_drain;
        ] );
      ( "connect-retry",
        [
          Alcotest.test_case "parameterized deterministic backoff" `Quick
            test_connect_retry_backoff;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "failover + availability SLO" `Quick
            test_chaos_failover_and_availability;
          Alcotest.test_case "verdict classes agree across backends" `Quick
            test_verdict_classes_agree;
          Alcotest.test_case "rolling restart is invisible to clients" `Quick
            test_rolling_restart_clean;
          Alcotest.test_case "summary byte-identical domains 1 vs 4" `Quick
            test_domains_identity;
          Alcotest.test_case "fleet counters in metrics summary" `Quick
            test_metrics_surface;
        ] );
    ]
