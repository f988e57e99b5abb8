(* Host-time microbenchmarks of the MVEE's hot primitives, via bechamel. *)

open Bechamel
open Toolkit
open Remon_kernel
open Remon_core

let test_rb_roundtrip =
  let rb = Replication_buffer.create ~size_bytes:(1 lsl 24) ~nreplicas:2 in
  Test.make ~name:"rb append+publish+consume"
    (Staged.stage (fun () ->
         let e =
           Replication_buffer.master_append rb ~rank:0
             ~call:(Syscall.Read (4, 512))
             ~expect_block:false ~forwarded:false
         in
         ignore (Replication_buffer.master_publish rb e (Syscall.Ok_data "x"));
         ignore (Replication_buffer.slave_lookup rb ~rank:0 ~variant:1);
         Replication_buffer.slave_advance rb ~rank:0 ~variant:1;
         if rb.Replication_buffer.used_bytes > (1 lsl 23) then
           Replication_buffer.reset rb))

let test_classification =
  Test.make ~name:"policy lookup (required_level)"
    (Staged.stage (fun () ->
         ignore (Classification.required_level Sysno.Read ~on_socket:false);
         ignore (Classification.required_level Sysno.Sendto ~on_socket:true);
         ignore (Classification.required_level Sysno.Mmap ~on_socket:false)))

let test_deep_compare =
  let a = Syscall.Writev (7, [ String.make 256 'a'; String.make 256 'b' ]) in
  let b = Syscall.Writev (7, [ String.make 256 'a'; String.make 256 'b' ]) in
  Test.make ~name:"deep argument comparison"
    (Staged.stage (fun () -> ignore (Callinfo.equal_normalized a b)))

let test_token =
  let rng = Remon_util.Rng.make 99 in
  Test.make ~name:"token generate+compare"
    (Staged.stage (fun () ->
         let tok = Remon_util.Rng.int64 rng in
         ignore (Int64.equal tok 0L)))

let test_event_queue =
  let q = Remon_sim.Event_queue.create () in
  let i = ref 0 in
  Test.make ~name:"event queue add+pop"
    (Staged.stage (fun () ->
         incr i;
         ignore (Remon_sim.Event_queue.add q ~time:!i ());
         ignore (Remon_sim.Event_queue.pop q)))

(* Same add+pop cost, but against a heap holding a million live events —
   pins the hot path the million-connection herd leans on (flat heap
   arrays, no per-entry allocation once warm). A thunk, not a top-level
   binding: the million-event prefill must not sit live under every other
   experiment's heap measurements. *)
let test_event_queue_1m () =
  let q = Remon_sim.Event_queue.create () in
  let n = 1_000_000 in
  for j = 1 to n do
    Remon_sim.Event_queue.add_ q ~time:j ()
  done;
  let i = ref n in
  Test.make ~name:"event queue add+pop at 1M live"
    (Staged.stage (fun () ->
         incr i;
         Remon_sim.Event_queue.add_ q ~time:!i ();
         ignore (Remon_sim.Event_queue.pop q)))

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"remon" tests) in
  Analyze.all ols Instance.monotonic_clock raw

let run () =
  print_endline "=== Microbenchmarks (host time, via bechamel) ===\n";
  let results =
    benchmark
      [ test_rb_roundtrip; test_classification; test_deep_compare; test_token;
        test_event_queue; test_event_queue_1m () ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-40s %8.1f ns/iter\n" name ns)
    (List.sort compare !rows);
  print_newline ()
