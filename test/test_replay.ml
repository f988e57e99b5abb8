(* Deployable record/replay: record -> offline replay identity on every
   backend, replay-under-a-different-backend verdict agreement, divergence
   bisection (the first-difference scan must match a byte-level oracle
   exactly), and the double-respawn recovery regression. *)

open Remon_kernel
open Remon_core
open Remon_sim

let sys = Sched.syscall

let all_backends = [ Mvee.Native; Mvee.Ghumvee_only; Mvee.Varan; Mvee.Remon ]

let config ?(backend = Mvee.Remon) ?(faults = [])
    ?(on_failure = Mvee.Kill_group) () =
  {
    Mvee.default_config with
    backend;
    policy = Policy.spatial Classification.Socket_rw_level;
    faults;
    on_failure;
    record = true;
  }

(* Mixed stream: exempt fast-path calls plus a monitored open/write/close
   rendezvous every few iterations, so recordings carry both kinds. *)
let mixed_body ?(iters = 60) () (_env : Mvee.env) =
  for i = 1 to iters do
    ignore (sys Syscall.Gettimeofday);
    Sched.compute (Vtime.us 40);
    if i mod 5 = 0 then begin
      match
        sys
          (Syscall.Open
             ("/tmp/replay.txt", { Syscall.o_rdwr with create = true }))
      with
      | Syscall.Ok_int fd ->
        ignore (sys (Syscall.Write (fd, "x")));
        ignore (sys (Syscall.Close fd))
      | _ -> ()
    end
  done

let record cfg body =
  let o = Mvee.run_program cfg ~name:"rec" ~body in
  match o.Mvee.recording with
  | Some r -> r
  | None -> Alcotest.fail "run captured no recording"

let replay_exn ?backend recorded ~body =
  match Replayer.replay ?backend recorded ~body with
  | Ok rep -> rep
  | Error msg -> Alcotest.failf "replay failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Same-backend replay is byte-identical, on every backend. *)

let test_replay_identity backend () =
  let body = mixed_body () in
  let recorded = record (config ~backend ()) body in
  (* Native is the unmonitored baseline: no replicated stream exists, so
     its recording is the empty stream — identity must hold regardless. *)
  if backend <> Mvee.Native then
    Alcotest.(check bool)
      "recorded something" true
      (Array.length recorded.Recording.events > 0);
  let rep = replay_exn recorded ~body in
  Alcotest.(check bool) "byte-identical" true rep.Replayer.identical;
  Alcotest.(check bool) "serializations equal" true
    (String.equal
       (Recording.to_string recorded)
       (Recording.to_string rep.Replayer.replayed));
  Alcotest.(check string) "stream digest"
    (Recording.stream_digest recorded)
    (Recording.stream_digest rep.Replayer.replayed);
  Alcotest.(check bool) "verdict class agrees" true
    rep.Replayer.verdict_class_agrees;
  Alcotest.(check bool) "no divergence" true (rep.Replayer.divergence = None)

(* A violating run replays byte-identically too, verdict included: the
   recording is the reproducer for the very failure it captured. *)
let test_replay_violation_identity () =
  let body = mixed_body () in
  let faults = [ Fault.spec ~kind:Fault.Corrupt_args ~variant:1 ~at:25 ] in
  let recorded = record (config ~backend:Mvee.Ghumvee_only ~faults ()) body in
  Alcotest.(check bool)
    "run has a verdict" true
    (recorded.Recording.verdict <> None);
  let rep = replay_exn recorded ~body in
  Alcotest.(check bool) "byte-identical" true rep.Replayer.identical;
  Alcotest.(check bool) "verdict class agrees" true
    rep.Replayer.verdict_class_agrees

(* ------------------------------------------------------------------ *)
(* Replay under a different backend: verdict classes must agree even
   though the streams legitimately differ. *)

let test_cross_backend target () =
  let body = mixed_body () in
  let recorded = record (config ~backend:Mvee.Remon ()) body in
  let rep = replay_exn ~backend:target recorded ~body in
  Alcotest.(check string)
    "replayed under the requested backend"
    (Mvee.backend_to_string target)
    rep.Replayer.replayed.Recording.header.Recording.backend;
  Alcotest.(check bool) "verdict classes agree" true
    rep.Replayer.verdict_class_agrees;
  if target <> Mvee.Remon then
    Alcotest.(check bool)
      "cross-backend replay never claims byte identity" false
      rep.Replayer.identical

(* Identity covers the header and the verdict trailer as well as the
   events: a replay whose events all agree is still not identical when
   either differs, and reports no divergence. *)
let test_identity_beyond_events () =
  let body = mixed_body () in
  let recorded = record (config ~backend:Mvee.Remon ()) body in
  let no_fork (rep : Replayer.report) what =
    Alcotest.(check string)
      (what ^ ": events agree")
      (Recording.stream_digest rep.Replayer.recorded)
      (Recording.stream_digest rep.Replayer.replayed);
    Alcotest.(check bool) (what ^ ": not identical") false rep.Replayer.identical;
    Alcotest.(check bool) (what ^ ": no divergence") true
      (rep.Replayer.divergence = None)
  in
  no_fork
    (replay_exn
       { recorded with Recording.verdict = Some ("divergence", "forged") }
       ~body)
    "verdict trailer";
  (* a body that makes no call records the empty stream natively and
     under VARAN *)
  let idle (_ : Mvee.env) = () in
  let recorded = record (config ~backend:Mvee.Native ()) idle in
  no_fork (replay_exn ~backend:Mvee.Varan recorded ~body:idle) "header backend"

(* ------------------------------------------------------------------ *)
(* Bisection *)

let tamper recording k =
  let events = Array.copy recording.Recording.events in
  events.(k) <-
    (match events.(k) with
    | Recording.Call c -> Recording.Call { c with rank = c.rank + 1 }
    | Recording.Lock l -> Recording.Lock { l with lock_id = l.lock_id + 1 }
    | Recording.Signal s -> Recording.Signal { s with signo = s.signo + 1 });
  { recording with Recording.events }

(* Byte-level oracle, independent of [Recording.equal_event]: the fork is
   the longest common prefix length k whose serialized streams digest
   equal; there is no fork iff both streams are that prefix. *)
let digest_fork (a : Recording.t) (b : Recording.t) =
  let na = Array.length a.Recording.events in
  let nb = Array.length b.Recording.events in
  let prefix (r : Recording.t) k =
    Recording.stream_digest
      { r with Recording.events = Array.sub r.Recording.events 0 k }
  in
  let rec longest k =
    if k < min na nb && String.equal (prefix a (k + 1)) (prefix b (k + 1))
    then longest (k + 1)
    else k
  in
  let k = longest 0 in
  if k = na && k = nb then None else Some k

let test_bisect_pinpoints () =
  let recorded = record (config ()) (mixed_body ()) in
  let n = Array.length recorded.Recording.events in
  Alcotest.(check bool) "enough events to bisect" true (n > 20);
  List.iter
    (fun k ->
      let tampered = tamper recorded k in
      Alcotest.(check (option int))
        (Printf.sprintf "tamper@%d: oracle" k)
        (Some k)
        (digest_fork recorded tampered);
      match Replayer.bisect ~recorded ~replayed:tampered () with
      | None -> Alcotest.failf "tamper@%d: no divergence reported" k
      | Some d ->
        Alcotest.(check int)
          (Printf.sprintf "tamper@%d: exact rank" k)
          k d.Divergence.first_rank;
        Alcotest.(check bool) "recorded event rendered" true
          (d.Divergence.recorded_ev <> None);
        Alcotest.(check bool) "replayed event rendered" true
          (d.Divergence.replayed_ev <> None);
        Alcotest.(check bool) "context window non-empty" true
          (d.Divergence.context <> []))
    [ 0; 1; n / 2; n - 1 ];
  Alcotest.(check (option int)) "identical streams: oracle" None
    (digest_fork recorded recorded);
  Alcotest.(check bool)
    "identical streams: no divergence" true
    (Replayer.bisect ~recorded ~replayed:recorded () = None)

let test_bisect_truncation () =
  let recorded = record (config ()) (mixed_body ()) in
  let n = Array.length recorded.Recording.events in
  let m = n / 3 in
  let truncated =
    {
      recorded with
      Recording.events = Array.sub recorded.Recording.events 0 m;
    }
  in
  Alcotest.(check (option int)) "oracle" (Some m)
    (digest_fork recorded truncated);
  match Replayer.bisect ~recorded ~replayed:truncated () with
  | None -> Alcotest.fail "truncated stream: no divergence reported"
  | Some d ->
    Alcotest.(check int) "fork at the truncation point" m
      d.Divergence.first_rank;
    Alcotest.(check int) "totals" n d.Divergence.total_recorded;
    Alcotest.(check int) "totals" m d.Divergence.total_replayed

(* Clean vs fault-injected run of the same configuration: the scan must
   land exactly where the byte-level oracle does. *)
let test_bisect_matches_linear_scan () =
  let body = mixed_body () in
  let clean = record (config ~backend:Mvee.Ghumvee_only ()) body in
  let faults = [ Fault.spec ~kind:Fault.Corrupt_args ~variant:1 ~at:25 ] in
  let faulted = record (config ~backend:Mvee.Ghumvee_only ~faults ()) body in
  let expected = digest_fork clean faulted in
  Alcotest.(check bool) "the fault forked the stream" true (expected <> None);
  Alcotest.(check (option int)) "scan = byte-level oracle" expected
    (Option.map
       (fun d -> d.Divergence.first_rank)
       (Replayer.bisect ~recorded:clean ~replayed:faulted ()))

(* ------------------------------------------------------------------ *)
(* Double respawn: two injected slave crashes under a Respawn budget of 3
   must both recover (journal catch-up after reset_variant), leaving a
   clean verdict and the twice-respawned slave exiting 0. The respawn
   follower and the recording read the same stream store, and the
   recording still replays byte-identically. *)

let test_double_respawn () =
  let faults =
    [
      Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:12;
      Fault.spec ~kind:(Fault.Crash Sigdefs.sigsegv) ~variant:1 ~at:20;
    ]
  in
  let cfg =
    config
      ~on_failure:(Mvee.Respawn { max_respawns = 3; backoff_ns = Vtime.us 200 })
      ~faults ()
  in
  let body = mixed_body ~iters:200 () in
  let o = Mvee.run_program cfg ~name:"respawn2" ~body in
  Alcotest.(check int) "both crashes recovered" 2 o.Mvee.respawns;
  Alcotest.(check int) "both faults fired" 2 o.Mvee.faults_injected;
  Alcotest.(check bool) "clean verdict" true (o.Mvee.verdict = None);
  Alcotest.(check bool)
    "twice-respawned slave finished cleanly" true
    (List.mem (1, 0) o.Mvee.exit_codes);
  match o.Mvee.recording with
  | None -> Alcotest.fail "run captured no recording"
  | Some recorded ->
    let rep = replay_exn recorded ~body in
    Alcotest.(check bool) "recording replays byte-identically" true
      rep.Replayer.identical

(* ------------------------------------------------------------------ *)
(* Each config field a recording header stores has one string codec, and
   a header decodes back to the configuration it was made from. *)

let test_config_codecs_round_trip () =
  let policies =
    Policy.monitor_everything :: List.map Policy.spatial Classification.all_levels
  in
  let failure_policies =
    [
      Mvee.Kill_group;
      Mvee.Quarantine;
      Mvee.Respawn { max_respawns = 3; backoff_ns = Vtime.ms 1 };
      Mvee.Respawn { max_respawns = 5; backoff_ns = Vtime.us 250 };
    ]
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) "backend" true
        (Mvee.backend_of_string (Mvee.backend_to_string b) = Some b))
    all_backends;
  List.iter
    (fun p ->
      Alcotest.(check bool) (Policy.level_to_string p) true
        (Policy.level_of_string (Policy.level_to_string p) = Some p))
    policies;
  List.iter
    (fun f ->
      Alcotest.(check bool) (Mvee.on_failure_to_string f) true
        (Mvee.on_failure_of_string (Mvee.on_failure_to_string f) = Some f))
    failure_policies;
  List.iter
    (fun backend ->
      List.iter
        (fun policy ->
          List.iter
            (fun on_failure ->
              let cfg = { (config ~backend ~on_failure ()) with Mvee.policy } in
              match
                Replayer.config_of_header (Mvee.header_of_config cfg ~workload:"")
              with
              | Error msg -> Alcotest.fail msg
              | Ok back ->
                Alcotest.(check bool) "header round trip" true
                  (back.Mvee.backend = backend && back.Mvee.policy = policy
                 && back.Mvee.on_failure = on_failure))
            failure_policies)
        policies)
    all_backends

(* ------------------------------------------------------------------ *)
(* The RMRC bytes of one small run are pinned: the round-trip and replay
   tests above would pass under any self-consistent encoding, so only this
   test notices a codec change that moves the on-disk format. The SysV
   key is fixed so the run does not depend on how many groups ran before
   it in this process. *)

let test_pinned_bytes () =
  let cfg =
    { (config ()) with Mvee.shm_key = Some (Context.mvee_shm_key_base + 16) }
  in
  let recorded = record cfg (mixed_body ~iters:20 ()) in
  let bytes = Recording.to_string recorded in
  Alcotest.(check int) "encoded length" 627 (String.length bytes);
  Alcotest.(check string) "MD5 of the encoding"
    "36d0e56d15bc0a460df26db2725d74db"
    (Digest.to_hex (Digest.string bytes));
  Alcotest.(check string) "stream digest" "5e18a7027bb576010f9976ed75712a83"
    (Recording.stream_digest recorded);
  match Recording.of_string bytes with
  | Ok back ->
    Alcotest.(check bool) "decodes to the recording" true
      (Recording.equal back recorded)
  | Error e -> Alcotest.fail (Syswire.error_to_string e)

let () =
  Alcotest.run "replay"
    [
      ( "identity",
        List.map
          (fun b ->
            Alcotest.test_case
              (Printf.sprintf "record/replay identical (%s)"
                 (Mvee.backend_to_string b))
              `Quick (test_replay_identity b))
          all_backends
        @ [
            Alcotest.test_case "violating run replays identically" `Quick
              test_replay_violation_identity;
          ] );
      ( "cross-backend",
        List.map
          (fun b ->
            Alcotest.test_case
              (Printf.sprintf "verdict agreement under %s"
                 (Mvee.backend_to_string b))
              `Quick (test_cross_backend b))
          all_backends
        @ [
            Alcotest.test_case "events agree, header or verdict differs"
              `Quick test_identity_beyond_events;
          ] );
      ( "bisection",
        [
          Alcotest.test_case "pinpoints a tampered record" `Quick
            test_bisect_pinpoints;
          Alcotest.test_case "fork at truncation point" `Quick
            test_bisect_truncation;
          Alcotest.test_case "matches a linear scan on injected faults" `Quick
            test_bisect_matches_linear_scan;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "double respawn recovers twice" `Quick
            test_double_respawn;
        ] );
      ( "header",
        [
          Alcotest.test_case "config codecs round-trip" `Quick
            test_config_codecs_round_trip;
        ] );
      ( "format",
        [ Alcotest.test_case "pinned RMRC bytes" `Quick test_pinned_bytes ] );
    ]
