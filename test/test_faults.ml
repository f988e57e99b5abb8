(* Fault injection and recovery: deterministic replay of fault plans,
   quarantine / kill-group / respawn policies, master-crash containment
   and the connect-retry budget. *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_workloads

let sys = Sched.syscall

let config ?(backend = Mvee.Remon) ?(nreplicas = 2) ?(faults = [])
    ?(on_failure = Mvee.Kill_group) () =
  {
    Mvee.default_config with
    backend;
    nreplicas;
    policy = Policy.spatial Classification.Socket_rw_level;
    faults;
    on_failure;
  }

let all_backends =
  [ Mvee.Native; Mvee.Ghumvee_only; Mvee.Varan; Mvee.Remon ]

(* A mixed workload: mostly exempt calls (gettimeofday) with a monitored
   open/close rendezvous every few iterations, so the master's syscall
   stream contains both fast-path records and lockstep entries. *)
let mixed_body ?(iters = 60) ?(compute_us = 40) () (_env : Mvee.env) =
  for i = 1 to iters do
    ignore (sys Syscall.Gettimeofday);
    Sched.compute (Vtime.us compute_us);
    if i mod 5 = 0 then begin
      match sys (Syscall.Open ("/tmp/faults.txt", { Syscall.o_rdwr with create = true })) with
      | Syscall.Ok_int fd ->
        ignore (sys (Syscall.Write (fd, "x")));
        ignore (sys (Syscall.Close fd))
      | _ -> ()
    end
  done

let run_once cfg body =
  let kernel = Kernel.create ~seed:cfg.Mvee.seed () in
  let h = Mvee.launch kernel cfg ~name:"faulted" ~body in
  Kernel.run kernel;
  Mvee.finish h

let crash_slave_plan =
  [ Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:12 ]

let noisy_plan =
  [
    Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:14;
    Fault.spec ~kind:(Fault.Delay (Vtime.us 300)) ~variant:1 ~at:7;
    Fault.spec ~kind:(Fault.Sock_err Errno.EAGAIN) ~variant:0 ~at:22;
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: identical seed + plan => structurally identical outcome,
   on every backend. *)

let test_determinism backend () =
  let run () =
    run_once
      (config ~backend ~faults:noisy_plan ~on_failure:Mvee.Quarantine ())
      (mixed_body ())
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check bool)
    (Printf.sprintf "%s: identical outcomes" (Mvee.backend_to_string backend))
    true (o1 = o2)

(* ------------------------------------------------------------------ *)
(* Quarantine: an injected slave crash detaches the replica; the group
   finishes degraded with no verdict and the master's exit preserved. *)

let test_quarantine_slave_crash () =
  let o =
    run_once
      (config ~faults:crash_slave_plan ~on_failure:Mvee.Quarantine ())
      (mixed_body ())
  in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected verdict: %s" (Divergence.to_string v));
  Alcotest.(check int) "fault fired" 1 o.Mvee.faults_injected;
  Alcotest.(check int) "one quarantine" 1 o.Mvee.quarantines;
  Alcotest.(check int) "no respawn" 0 o.Mvee.respawns;
  Alcotest.(check bool) "degraded time accrued" true
    (Vtime.compare o.Mvee.degraded_ns Vtime.zero > 0);
  Alcotest.(check (option int))
    "master exit preserved" (Some 0)
    (List.assoc_opt 0 o.Mvee.exit_codes)

(* A plan is a value: one parsed plan drives any number of runs, and each
   run fires it afresh. *)
let test_plan_shared_across_runs () =
  match Fault.of_string "crash@12:1" with
  | Error msg -> Alcotest.fail msg
  | Ok faults ->
    let run () =
      Mvee.run_program
        (config ~faults ~on_failure:Mvee.Quarantine ())
        ~name:"shared-plan" ~body:(mixed_body ())
    in
    let first = run () in
    let second = run () in
    Alcotest.(check int) "first run fired" 1 first.Mvee.faults_injected;
    Alcotest.(check int) "second run fired" 1 second.Mvee.faults_injected

(* Two replica groups in one kernel keep their own hooks: each replica
   carries its group's IK-B interceptor and fault hook, so only the group
   with the plan sees a fault, and the other still takes the IP-MON fast
   path through its own broker. B computes less between calls, so it
   reaches A's trigger index first: a plan that leaked into B would fire
   there, not in A. *)
let test_groups_keep_their_hooks () =
  match Fault.of_string "crash@20:1" with
  | Error msg -> Alcotest.fail msg
  | Ok faults ->
    let kernel = Kernel.create ~seed:Mvee.default_config.Mvee.seed () in
    let group ~key ~faults ~on_failure ~compute_us ~name =
      Mvee.launch kernel
        { (config ~faults ~on_failure ()) with Mvee.shm_key = Some key }
        ~name ~body:(mixed_body ~compute_us ())
    in
    let key n = Context.mvee_shm_key_base + (n * 0x40) in
    let a =
      group ~key:(key 1) ~faults ~on_failure:Mvee.Quarantine ~compute_us:40
        ~name:"group-a"
    in
    let b =
      group ~key:(key 2) ~faults:[] ~on_failure:Mvee.Kill_group ~compute_us:10
        ~name:"group-b"
    in
    Kernel.run kernel;
    let oa = Mvee.finish a and ob = Mvee.finish b in
    Alcotest.(check int) "A injected its fault" 1 oa.Mvee.faults_injected;
    Alcotest.(check int) "A quarantined one replica" 1 oa.Mvee.quarantines;
    Alcotest.(check bool) "A quarantined variant 1" true
      (Context.is_quarantined a.Mvee.group 1);
    Alcotest.(check int) "B injected nothing" 0 ob.Mvee.faults_injected;
    Alcotest.(check int) "B quarantined nothing" 0 ob.Mvee.quarantines;
    (match ob.Mvee.verdict with
    | None -> ()
    | Some v -> Alcotest.failf "B got a verdict: %s" (Divergence.to_string v));
    Alcotest.(check (list (pair int int)))
      "B exit codes" [ (0, 0); (1, 0) ]
      (List.sort compare ob.Mvee.exit_codes);
    Alcotest.(check bool) "B replicated through its RB" true
      (ob.Mvee.rb_records > 0)

(* Kill-group (the paper's policy): the same plan is a fatal verdict. *)
let test_kill_group_fatal () =
  let o =
    run_once
      (config ~faults:crash_slave_plan ~on_failure:Mvee.Kill_group ())
      (mixed_body ())
  in
  match o.Mvee.verdict with
  | Some (Divergence.Replica_crash { variant = 1; signal }) ->
    Alcotest.(check int) "SIGSEGV" Sigdefs.sigsegv signal
  | Some v -> Alcotest.failf "wrong verdict: %s" (Divergence.to_string v)
  | None -> Alcotest.fail "expected a fatal verdict under kill-group"

(* Respawn: the crashed slave is relaunched, replays the master journal
   and rejoins lockstep — so the degraded window closes before the run
   ends. *)
let test_respawn_rejoins () =
  let o =
    run_once
      (config ~faults:crash_slave_plan
         ~on_failure:
           (Mvee.Respawn { max_respawns = 2; backoff_ns = Vtime.us 200 })
         ())
      (mixed_body ~iters:200 ~compute_us:5 ())
  in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected verdict: %s" (Divergence.to_string v));
  Alcotest.(check int) "one quarantine" 1 o.Mvee.quarantines;
  Alcotest.(check int) "one respawn" 1 o.Mvee.respawns;
  Alcotest.(check bool) "was degraded for a while" true
    (Vtime.compare o.Mvee.degraded_ns Vtime.zero > 0);
  (* the window must really close mid-run: a follower that never caught up
     would stay degraded until master exit (almost the whole duration) *)
  Alcotest.(check bool) "rejoined well before the end" true
    (Vtime.compare
       (Vtime.add o.Mvee.degraded_ns o.Mvee.degraded_ns)
       o.Mvee.duration
    < 0)

(* ------------------------------------------------------------------ *)
(* Master crash containment: a crash of variant 0 mid-run must tear the
   group down with a [Replica_crash] verdict — pending I/O drained, no
   rendezvous-watchdog hang — on every backend. *)

let test_master_crash backend () =
  let o =
    run_once
      (config ~backend
         ~faults:
           [ Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:0 ~at:10 ]
         ())
      (mixed_body ())
  in
  match o.Mvee.verdict with
  | Some (Divergence.Replica_crash { variant = 0; signal }) ->
    Alcotest.(check int) "SIGSEGV" Sigdefs.sigsegv signal;
    Alcotest.(check bool) "finite duration" true
      (Vtime.compare o.Mvee.duration Vtime.zero > 0)
  | Some v -> Alcotest.failf "wrong verdict: %s" (Divergence.to_string v)
  | None -> Alcotest.fail "expected a master-crash verdict"

(* ------------------------------------------------------------------ *)
(* connect_retry: budget exhaustion raises the dedicated exception
   instead of looping forever or reporting a generic refusal. *)

let test_connect_retry_exhausted () =
  let outcome = ref `Nothing in
  let body (_env : Mvee.env) =
    let fd = Api.socket () in
    (try
       Api.connect_retry ~attempts:3 fd 9999;
       outcome := `Connected
     with
    | Api.Connect_retries_exhausted { port; attempts } ->
      outcome := `Exhausted (port, attempts)
    | Api.Sys_error (e, _) -> outcome := `Error e);
    Api.close fd
  in
  let o = run_once (config ~backend:Mvee.Native ~nreplicas:1 ()) body in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected verdict: %s" (Divergence.to_string v));
  match !outcome with
  | `Exhausted (9999, 3) -> ()
  | `Exhausted (p, a) -> Alcotest.failf "wrong payload: port %d attempts %d" p a
  | `Connected -> Alcotest.fail "connect unexpectedly succeeded"
  | `Error e -> Alcotest.failf "generic error instead: %s" (Errno.to_string e)
  | `Nothing -> Alcotest.fail "no outcome recorded"

(* And the success path still works after a listener shows up late. *)
let test_connect_retry_eventual_success () =
  let connected = ref false in
  let body (env : Mvee.env) =
    if env.Mvee.variant = 0 then begin
      let tid =
        env.Mvee.spawn_thread (fun () ->
            (* server comes up only after the client's first refusals *)
            Api.nanosleep 2_000_000;
            let s = Api.socket () in
            Api.bind s 7777;
            Api.listen s 8;
            let a = Api.accept s in
            Api.close a.Syscall.conn_fd;
            Api.close s)
      in
      ignore tid;
      let fd = Api.socket () in
      Api.connect_retry ~attempts:20 fd 7777;
      connected := true;
      Api.close fd
    end
  in
  let o = run_once (config ~backend:Mvee.Native ~nreplicas:1 ()) body in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected verdict: %s" (Divergence.to_string v));
  Alcotest.(check bool) "eventually connected" true !connected

(* ------------------------------------------------------------------ *)
(* --faults plan syntax: print/parse round-trip and error reporting *)

(* Only representable plans round-trip: the printer renders delays in
   whole microseconds and drops the variant of RB faults (the parser
   forces it to 0), so the generator stays inside that set. *)
let gen_plan =
  let open QCheck2.Gen in
  let gen_spec =
    let* at = int_range 1 500 in
    let* variant = int_range 0 4 in
    let* k = int_range 0 7 in
    return
      (match k with
      | 0 -> Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant ~at
      | 1 -> Fault.spec ~kind:(Fault.Crash Sigdefs.sigkill) ~variant ~at
      | 2 -> Fault.spec ~kind:Fault.Corrupt_args ~variant ~at
      | 3 -> Fault.spec ~kind:(Fault.Delay (Vtime.us (1 + (at * 37)))) ~variant ~at
      | 4 -> Fault.spec ~kind:(Fault.Sock_err Errno.ECONNRESET) ~variant ~at
      | 5 -> Fault.spec ~kind:(Fault.Sock_err Errno.EAGAIN) ~variant ~at
      | 6 -> Fault.spec ~kind:Fault.Drop_rb ~variant:0 ~at
      | _ -> Fault.spec ~kind:Fault.Corrupt_rb ~variant:0 ~at)
  in
  list_size (int_range 0 8) gen_spec

let prop_fault_plan_roundtrip =
  QCheck2.Test.make ~name:"fault plan print/parse round-trip" ~count:300
    gen_plan
    (fun plan ->
      match Fault.of_string (Fault.to_string plan) with
      | Ok plan' -> plan' = plan
      | Error _ -> false)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

let test_fault_parse_errors () =
  let expect_error input fragment =
    match Fault.of_string input with
    | Ok _ -> Alcotest.failf "%S parsed but should not" input
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S -> %S mentions %S" input msg fragment)
        true (contains msg fragment)
  in
  expect_error "crash@" "bad trigger index";
  expect_error "crash" "expected KIND@AT[:VARIANT][=PARAM]";
  expect_error "crash@5:x" "bad variant";
  expect_error "crash@5:-1" "bad variant";
  expect_error "delay@30:1" "delay needs =DURATION";
  expect_error "delay@30:1=" "bad delay duration";
  expect_error "delay@30:1=fast" "bad delay duration";
  expect_error "explode@3" "unknown fault kind \"explode\"";
  (* a bad spec anywhere in the list poisons the whole plan *)
  expect_error "crash@12:1,explode@3" "unknown fault kind";
  (* and the error names the offending spec, not the whole input *)
  (match Fault.of_string "crash@12:1,explode@3" with
  | Error msg ->
    Alcotest.(check bool) "error names the bad spec" true
      (String.length msg >= 10 && String.sub msg 0 10 = "fault spec")
  | Ok _ -> Alcotest.fail "parsed but should not")

let test_fault_parse_defaults () =
  (* no :VARIANT defaults to replica 1; RB faults always normalize to 0 *)
  (match Fault.of_string "crash@12" with
  | Ok [ s ] -> Alcotest.(check int) "default variant" 1 s.Fault.variant
  | _ -> Alcotest.fail "crash@12 should parse to one spec");
  (match Fault.of_string "droprb@5:3" with
  | Ok [ s ] -> Alcotest.(check int) "rb variant forced to 0" 0 s.Fault.variant
  | _ -> Alcotest.fail "droprb@5:3 should parse");
  (* the three duration unit suffixes *)
  match Fault.of_string "delay@1:1=2ms,delay@2:1=30us,delay@3:1=400" with
  | Ok [ a; b; c ] ->
    let d = function
      | { Fault.kind = Fault.Delay ns; _ } -> ns
      | _ -> Alcotest.fail "expected a delay spec"
    in
    Alcotest.(check int) "ms" (Vtime.ms 2) (d a);
    Alcotest.(check int) "us" (Vtime.us 30) (d b);
    Alcotest.(check int) "ns" (Vtime.ns 400) (d c)
  | _ -> Alcotest.fail "delay list should parse"

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        List.map
          (fun b ->
            Alcotest.test_case
              (Printf.sprintf "same seed+plan, %s" (Mvee.backend_to_string b))
              `Quick (test_determinism b))
          all_backends );
      ( "plan-syntax",
        [
          QCheck_alcotest.to_alcotest prop_fault_plan_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "defaults and units" `Quick
            test_fault_parse_defaults;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "quarantine detaches slave" `Quick
            test_quarantine_slave_crash;
          Alcotest.test_case "kill-group is fatal" `Quick test_kill_group_fatal;
          Alcotest.test_case "respawn replays and rejoins" `Quick
            test_respawn_rejoins;
          Alcotest.test_case "one plan drives two runs" `Quick
            test_plan_shared_across_runs;
          Alcotest.test_case "two groups in one kernel keep their hooks"
            `Quick test_groups_keep_their_hooks;
        ] );
      ( "master-crash",
        List.map
          (fun b ->
            Alcotest.test_case
              (Printf.sprintf "contained on %s" (Mvee.backend_to_string b))
              `Quick (test_master_crash b))
          all_backends );
      ( "connect-retry",
        [
          Alcotest.test_case "budget exhaustion" `Quick
            test_connect_retry_exhausted;
          Alcotest.test_case "eventual success" `Quick
            test_connect_retry_eventual_success;
        ] );
    ]
