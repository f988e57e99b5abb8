(* Tests for lib/obs: exact Chrome trace-event bytes, metric aggregation,
   and the trace-as-oracle determinism contract — identical seeds must
   yield byte-identical exports across consecutive runs, across domain
   counts, and with or without faults. *)

open Remon_core
open Remon_obs
open Remon_util
open Remon_workloads

(* ------------------------------------------------------------------ *)
(* Trace: exact export bytes *)

let test_export_empty () =
  let t = Trace.create () in
  Alcotest.(check string) "empty trace"
    "{\"traceEvents\":[\n\n],\n\"displayTimeUnit\":\"ns\"}\n"
    (Trace.export_string t)

let test_export_single_instant () =
  let t = Trace.create () in
  Trace.instant t ~ts:1500 ~cat:"sys" ~name:"entry" ~pid:3 ~tid:7 [];
  Alcotest.(check string) "ns rendered as us.nnn, instant gets scope"
    "{\"traceEvents\":[\n\
     {\"name\":\"entry\",\"cat\":\"sys\",\"ph\":\"i\",\"ts\":1.500,\"pid\":3,\"tid\":7,\"s\":\"t\"}\n\
     ],\n\"displayTimeUnit\":\"ns\"}\n"
    (Trace.export_string t)

let test_export_span_pair_and_args () =
  let t = Trace.create () in
  Trace.span_begin t ~ts:0 ~cat:"c" ~name:"s" ~pid:1 ~tid:1
    [ ("n", Trace.Int 42); ("big", Trace.I64 5_000_000_000L); ("w", Trace.Str "x") ];
  Trace.span_end t ~ts:2_000 ~cat:"c" ~name:"s" ~pid:1 ~tid:1 [];
  Alcotest.(check string) "B/E phases, args object, comma-newline join"
    ("{\"traceEvents\":[\n"
   ^ "{\"name\":\"s\",\"cat\":\"c\",\"ph\":\"B\",\"ts\":0.000,\"pid\":1,\"tid\":1,"
   ^ "\"args\":{\"n\":42,\"big\":5000000000,\"w\":\"x\"}},\n"
   ^ "{\"name\":\"s\",\"cat\":\"c\",\"ph\":\"E\",\"ts\":2.000,\"pid\":1,\"tid\":1}\n"
   ^ "],\n\"displayTimeUnit\":\"ns\"}\n")
    (Trace.export_string t)

let test_export_escaping () =
  let t = Trace.create () in
  Trace.instant t ~ts:0 ~cat:"c" ~name:"q\"b\\s\nnl\tt\x01u" ~pid:0 ~tid:0 [];
  let s = Trace.export_string t in
  let expected = "\"name\":\"q\\\"b\\\\s\\nnl\\tt\\u0001u\"" in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "quotes, backslash, newline, tab, control escaped" true
    (contains s expected)

let test_export_metrics_block () =
  let t = Trace.create () in
  Alcotest.(check string) "metrics rendered as a string map"
    ("{\"traceEvents\":[\n\n],\n\"displayTimeUnit\":\"ns\",\n"
   ^ "\"metrics\":{\n  \"a\":\"1\",\n  \"b\":\"2\"\n}}\n")
    (Trace.export_string ~metrics:[ ("a", "1"); ("b", "2") ] t)

let test_export_is_json () =
  (* structural sanity independent of the byte-level assertions *)
  let t = Trace.create () in
  Trace.instant t ~ts:123_456 ~cat:"c" ~name:"n" ~pid:0 ~tid:0
    [ ("s", Trace.Str "v\"w") ];
  let s = Trace.export_string ~metrics:[ ("k", "v") ] t in
  (* count balanced braces as a cheap well-formedness proxy *)
  let depth = ref 0 and min_depth = ref 0 and in_str = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if c = '"' && s.[i - 1] <> '\\' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' -> incr depth
        | '}' ->
          decr depth;
          if !depth < !min_depth then min_depth := !depth
        | _ -> ())
    s;
  Alcotest.(check int) "braces balance" 0 !depth;
  Alcotest.(check int) "never negative" 0 !min_depth

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_buckets () =
  List.iter
    (fun (ns, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket(%dns)" ns) b
        (Metrics.bucket_of_ns ns))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1024, 10); (1025, 10); (max_int, 61) ]

let test_metrics_counters_and_hwm () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.add m "a" 4;
  Metrics.hwm m "q" 7;
  Metrics.hwm m "q" 3;
  (* lower value must not regress the mark *)
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter_value m "a");
  Alcotest.(check int) "missing counter is zero" 0 (Metrics.counter_value m "zz");
  Alcotest.(check (list (pair string string))) "summary sorted, hwm suffixed"
    [ ("a", "5"); ("q.hwm", "7") ]
    (Metrics.summary m)

let test_metrics_histogram_summary () =
  let m = Metrics.create () in
  Metrics.observe_ns m "lat" 5;
  (* bucket 2 *)
  Metrics.observe_ns m "lat" 11;
  (* bucket 3 *)
  Metrics.observe_ns m "lat" 11;
  Alcotest.(check int) "hist count" 3 (Metrics.hist_count m "lat");
  Alcotest.(check (list (pair string string))) "derived rows, key-sorted"
    [ ("lat.count", "3"); ("lat.max_ns", "11"); ("lat.mean_ns", "9");
      ("lat.p99_le_ns", "16") (* p99 lands in bucket 3 -> upper bound 2^4 *) ]
    (Metrics.summary m)

(* ------------------------------------------------------------------ *)
(* Determinism oracle: real runs *)

let tiny_profile =
  Profile.make ~name:"obs.tiny" ~threads:2 ~density_hz:20_000.0 ~calls:40
    ~mix:
      [ (0.3, Profile.Op_gettime); (0.25, Profile.Op_sock_rw 64);
        (0.25, Profile.Op_write_file 128); (0.1, Profile.Op_open_close);
        (0.1, Profile.Op_lock) ]
    ~description:"tiny mixed profile for trace-oracle tests" ()

let traced_profile_run cfg =
  let obs = Obs.create () in
  let r = Runner.run_profile ~obs tiny_profile cfg in
  (Obs.export_string obs, r)

(* fig3-style: spatially-exempted ReMon run, two consecutive in-process
   runs must export byte-identical traces *)
let test_trace_repeat_identical () =
  let cfg = Runner.cfg_remon ~nreplicas:3 ~seed:11 Classification.Socket_rw_level in
  let s1, r1 = traced_profile_run cfg in
  let s2, r2 = traced_profile_run cfg in
  Alcotest.(check bool) "some events recorded" true (String.length s1 > 200);
  Alcotest.(check string) "byte-identical across consecutive runs" s1 s2;
  Alcotest.(check (list (pair string string))) "metrics summaries agree"
    r1.Runner.outcome.Mvee.metrics r2.Runner.outcome.Mvee.metrics

let test_trace_backends_differ () =
  (* sanity: the oracle is not vacuous — different backends trace
     different event streams for the same seed *)
  let s_remon, _ =
    traced_profile_run (Runner.cfg_remon ~nreplicas:2 ~seed:11 Classification.Socket_rw_level)
  in
  let s_ghumvee, _ = traced_profile_run (Runner.cfg_ghumvee ~nreplicas:2 ~seed:11 ()) in
  Alcotest.(check bool) "backends yield distinct traces" false
    (String.equal s_remon s_ghumvee)

(* faults-style: a crash + delay plan; run twice (check_verdict off since
   the crash produces a verdict by design) *)
let test_trace_faulted_repeat_identical () =
  let run () =
    let faults =
      match Fault.of_string "delay@5:0=200us,crash@25:1" with
      | Ok p -> p
      | Error e -> Alcotest.fail e
    in
    let cfg =
      { (Runner.cfg_remon ~nreplicas:2 ~seed:77 Classification.Nonsocket_rw_level) with
        Mvee.faults }
    in
    let obs = Obs.create () in
    let r =
      Runner.run_body ~check_verdict:false ~obs cfg ~name:"obs.faulted"
        ~body:(fun _env ->
          for i = 0 to 59 do
            Api.compute_us 3;
            if i mod 2 = 0 then Api.gettimeofday () |> ignore
            else
              Api.pwrite
                (Api.open_file
                   ~flags:
                     { Remon_kernel.Syscall.o_rdwr with
                       Remon_kernel.Syscall.create = true }
                   "/t")
                "x" i
              |> ignore
          done)
    in
    (Obs.export_string obs, r.Runner.outcome)
  in
  let s1, o1 = run () in
  let s2, o2 = run () in
  Alcotest.(check bool) "fault actually fired" true (o1.Mvee.faults_injected > 0);
  Alcotest.(check bool) "crash detected" true (o1.Mvee.verdict <> None);
  Alcotest.(check bool) "verdicts agree" true (o1.Mvee.verdict = o2.Mvee.verdict);
  Alcotest.(check string) "faulted trace byte-identical" s1 s2

(* parallel fan-out: each job runs the same traced profile under its own
   kernel and obs; exports must not depend on the domain count *)
let test_trace_domains_identical () =
  let job seed =
    let cfg = Runner.cfg_remon ~nreplicas:2 ~seed Classification.Socket_rw_level in
    fst (traced_profile_run cfg)
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let sequential = Pool.map ~domains:1 job seeds in
  let parallel = Pool.map ~domains:4 job seeds in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d identical at domains 1 vs 4" (List.nth seeds i))
        a b)
    (List.combine sequential parallel)

(* enabling tracing must not perturb the simulation. The untraced run
   takes the dispatcher's route with the thread's preallocated finishers,
   the traced one with per-call closures; both must meet on every
   backend. *)
let check_tracing_does_not_perturb (backend, cfg) =
  let obs = Obs.create () in
  let traced = Runner.run_profile ~obs tiny_profile cfg in
  let plain = Runner.run_profile tiny_profile cfg in
  let label what = backend ^ ": " ^ what in
  Alcotest.(check (list (pair string string))) (label "no metrics when disabled") []
    plain.Runner.outcome.Mvee.metrics;
  Alcotest.(check bool) (label "identical outcome modulo metrics") true
    ({ traced.Runner.outcome with Mvee.metrics = [] } = plain.Runner.outcome);
  Alcotest.(check int) (label "identical virtual duration") traced.Runner.duration
    plain.Runner.duration;
  Alcotest.(check bool) (label "metrics populated when enabled") true
    (List.length traced.Runner.outcome.Mvee.metrics > 0)

let test_tracing_does_not_perturb () =
  List.iter check_tracing_does_not_perturb
    [
      ("native", Runner.cfg_native ~seed:42 ());
      ("ghumvee", Runner.cfg_ghumvee ~nreplicas:3 ~seed:42 ());
      ("varan", Runner.cfg_varan ~nreplicas:3 ~seed:42 ());
      ( "remon",
        Runner.cfg_remon ~nreplicas:3 ~seed:42 Classification.Socket_rw_level );
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "trace-format",
        [
          tc "empty export" test_export_empty;
          tc "single instant" test_export_single_instant;
          tc "span pair + args" test_export_span_pair_and_args;
          tc "escaping" test_export_escaping;
          tc "metrics block" test_export_metrics_block;
          tc "balanced json" test_export_is_json;
        ] );
      ( "metrics",
        [
          tc "log2 buckets" test_metrics_buckets;
          tc "counters + hwm" test_metrics_counters_and_hwm;
          tc "histogram summary" test_metrics_histogram_summary;
        ] );
      ( "determinism-oracle",
        [
          tc "repeat run byte-identical" test_trace_repeat_identical;
          tc "backends differ" test_trace_backends_differ;
          tc "faulted run byte-identical" test_trace_faulted_repeat_identical;
          tc "domains 1 vs 4 identical" test_trace_domains_identical;
          tc "tracing does not perturb" test_tracing_does_not_perturb;
        ] );
    ]
