(* Runs one workload for a fixed host-time budget and reports its metrics.

   One untimed warm-up iteration comes first; then whole iterations repeat
   until the budget is spent, each starting from a compacted heap.
   wall_s and cpu_s sum each timed piece's fastest time over the
   iterations; every other time is a median over iterations or calls.
   With [--trace 1] the
   iterations alternate between traced and untraced, so the per-layer
   numbers come from traced ones and the tracing overhead is the difference
   of the two medians.

   Output: a human-readable report, then one line
   [RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}] with
   every metric this run computed, each with its unit. *)

let usage =
  "main.exe --workload suite|servers|herd --seed N --seconds S --trace 0|1 \
   [--size full|tiny] [--trace-out FILE] [--rev REV]"

type sample = {
  it : Workloads.iteration;
  wall : float;  (** iteration host seconds minus its set-up calls *)
  traced : bool;
  t0 : int64;
  t1 : int64;
  promoted : float;
  minors : int;
  majors : int;
}

let run_iteration ~traced f =
  Gc.compact ();
  if traced then Probe.enable ();
  let q0 = Gc.quick_stat () in
  let t0 = Probe.now_ns () in
  let it = Probe.span "iteration" f in
  let t1 = Probe.now_ns () in
  let q1 = Gc.quick_stat () in
  Probe.disable ();
  {
    it;
    wall = Probe.seconds_between t0 t1 -. it.Workloads.setup_s;
    traced;
    t0;
    t1;
    promoted = q1.Gc.promoted_words -. q0.Gc.promoted_words;
    minors = q1.Gc.minor_collections - q0.Gc.minor_collections;
    majors = q1.Gc.major_collections - q0.Gc.major_collections;
  }

(* {1 Metrics} *)

let metrics : (string * float * string) list ref = ref []
let add name unit value = metrics := (name, value, unit) :: !metrics

(* A repeated-call timing: its median, the highest percentile with at
   least ten samples beyond it (the median when there is none), and n. *)
let tails : (string * string) list ref = ref []

let add_dist ~p50 ~tail ~n unit xs =
  let m = match xs with [] -> 0. | _ -> Stats.median xs in
  add p50 unit m;
  let level, v =
    match Stats.tail xs with
    | Some (p, v) -> (Printf.sprintf "p%g" p, v)
    | None -> ("p50, too few samples for a tail", m)
  in
  add tail unit v;
  tails := (tail, level) :: !tails;
  add n "count" (float_of_int (List.length xs))

let median_of f samples =
  match samples with [] -> 0. | _ -> Stats.median (List.map f samples)

let min_of f samples =
  match samples with
  | [] -> 0.
  | s :: rest -> List.fold_left (fun m s -> Float.min m (f s)) (f s) rest

(* Sum over the timed pieces of an iteration of each piece's fastest time
   across iterations. [pieces] names an operation group's pieces; the same
   piece has the same name in every iteration. *)
let sum_of_minima pieces samples =
  let best = Hashtbl.create 512 in
  List.iter
    (fun s ->
      List.iter
        (fun (what, t) ->
          List.iter
            (fun (key, v) ->
              match Hashtbl.find_opt best key with
              | Some b when b <= v -> ()
              | _ -> Hashtbl.replace best key v)
            (pieces what t))
        s.it.Workloads.op_times)
    samples;
  Hashtbl.fold (fun _ v acc -> acc +. v) best 0.

(* a group's timed calls and its rest, one piece each *)
let parts f what ps = List.mapi (fun i p -> (Printf.sprintf "%s#%d" what i, f p)) ps

let span_names =
  [
    "setup.kernel_create"; "setup.launch"; "kernel.run"; "mvee.finish";
    "record.encode"; "record.decode"; "replay.run"; "replay.bisect";
    "world.run";
  ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref 0 and size_arg = ref "full" and trace_out = ref ""
  and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "suite|servers|herd");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured host seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end, 1 = per-layer");
      ("--size", Arg.Set_string size_arg, "full|tiny (tiny: smoke tests)");
      ("--trace-out", Arg.Set_string trace_out, "Perfetto JSON path");
      ("--rev", Arg.Set_string rev, "source revision, for the record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let size =
    match !size_arg with
    | "full" -> Workloads.Full
    | "tiny" -> Workloads.Tiny
    | s -> raise (Arg.Bad ("bad --size " ^ s))
  in
  let traced_run =
    match !trace with 0 -> false | 1 -> true | _ -> raise (Arg.Bad "bad --trace")
  in
  let seed = !seed in
  let nproc = Domain.recommended_domain_count () in
  let iteration =
    match !workload with
    | "suite" -> Workloads.suite ~seed ~size
    | "servers" -> Workloads.servers ~seed ~size
    | "herd" -> Workloads.herd ~seed ~size
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%g trace=%d size=%s\n\
     env: nproc=%d ocaml=%s shards=1%s rev=%s\n%!"
    !workload seed !seconds !trace !size_arg nproc Sys.ocaml_version
    (if !workload = "herd" then Printf.sprintf " (check run: %d)" nproc else "")
    !rev;
  let warm_t0 = Probe.now_ns () in
  let warm = run_iteration ~traced:false iteration in
  let warmup_s = Probe.since warm_t0 in
  let min_iters =
    match (size, traced_run) with
    | Workloads.Tiny, false -> 1
    | Workloads.Tiny, true -> 2
    | Workloads.Full, false -> 3
    | Workloads.Full, true -> 4
  in
  let start = Probe.now_ns () in
  let samples = ref [] and k = ref 0 in
  while !k < min_iters || Probe.since start < !seconds do
    let traced = traced_run && !k mod 2 = 0 in
    samples := run_iteration ~traced iteration :: !samples;
    incr k
  done;
  let samples = List.rev !samples in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  (* Checks across iterations: every iteration must simulate exactly what
     the warm-up did, and a herd over all cores what the sequential one
     does. *)
  let all = warm :: samples in
  let sharded =
    if !workload = "herd" then begin
      (* traced, it gives the trace one GC track per domain *)
      if traced_run then Probe.enable ();
      let p =
        Probe.span "world.run_sharded" (fun () ->
            Workloads.herd_sharded ~seed ~size ~shards:nproc)
      in
      Probe.disable ();
      Some p
    end
    else None
  in
  let failures = ref [] in
  let failed =
    List.fold_left
      (fun acc s ->
        let bad_digest = s.it.Workloads.digest <> warm.it.Workloads.digest in
        let bad_ref =
          match sharded with
          | Some p -> s.it.Workloads.digest <> p.Workloads.s_digest
          | None -> false
        in
        if bad_digest then failures := "outcome differs from the warm-up" :: !failures;
        if bad_ref then
          failures := Printf.sprintf "herd digest at shards=%d differs from shards=1" nproc :: !failures;
        failures := List.rev_append s.it.Workloads.failures !failures;
        acc
        + (if bad_digest || bad_ref then s.it.Workloads.ops else s.it.Workloads.failed))
      0 all
  in
  let attempted = List.fold_left (fun acc s -> acc + s.it.Workloads.ops) 0 all in
  let outcome_digest = Digest.to_hex (Digest.string warm.it.Workloads.digest) in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  let w = !workload in
  (* End to end. wall_s and cpu_s sum, over the timed calls of every
     operation group (a run in suite and servers, the whole herd) and the
     rest of each group, that piece's fastest time across iterations.
     Contention from other tenants of the host only ever adds time. On a
     shared 2-vCPU host it slowed single iterations by up to 1.6x and
     whole runs by up to 1.9x, which moved a run's median iteration by
     10-37% between runs; the smaller the piece, the likelier one of its
     repetitions ran in a quiet moment. setup_s is the median over
     iterations of their set-up calls' total: most of those calls take
     0.02-0.2 ms, and minima that small spread 24-28% between runs. *)
  add "wall_s" "s" (sum_of_minima (parts fst) untraced);
  add "cpu_s" "s" (sum_of_minima (parts snd) untraced);
  add "setup_s" "s" (median_of (fun s -> s.it.Workloads.setup_s) samples);
  add "peak_heap_mb" "MB" peak_heap_mb;
  add "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
  (* The rest apply to some workloads only; elsewhere they read 0. *)
  add "sim_syscalls_per_s" "1/s"
    (if w = "herd" then 0.
     else
       median_of
         (fun s -> float_of_int s.it.Workloads.syscalls /. s.it.Workloads.sim_s)
         untraced);
  add "sim_requests_per_s" "1/s"
    (if w = "suite" then 0.
     else
       median_of (fun s -> float_of_int s.it.Workloads.requests /. s.wall) untraced);
  add "replay_s" "s" (median_of (fun s -> s.it.Workloads.replay_s) untraced);
  add "fidelity_err" "ratio" (Option.value ~default:0. warm.it.Workloads.fidelity);
  (* per layer: counts (identical in every iteration) *)
  List.iter
    (fun (n, unit) ->
      add n unit
        (float_of_int
           (Option.value ~default:0 (Hashtbl.find_opt warm.it.Workloads.counts n))))
    Workloads.count_names;
  List.iter
    (fun b ->
      let name = "host_ns_per_syscall." ^ b in
      add_dist ~p50:name ~tail:(name ^ ".tail") ~n:(name ^ ".n") "ns"
        (List.concat_map
           (fun s ->
             List.filter_map
               (fun (b', ns) -> if b = b' then Some ns else None)
               s.it.Workloads.per_syscall_ns)
           untraced))
    [ "native"; "ghumvee"; "remon" ];
  (* the sharded check run: CPU use per shard and speed-up over one shard *)
  (match sharded with
  | Some p ->
    add "world.cpu_util" "ratio" (p.Workloads.s_cpu /. (p.Workloads.s_wall *. float_of_int nproc));
    add "world.par_speedup" "ratio"
      (median_of (fun s -> s.it.Workloads.sim_s) untraced /. p.Workloads.s_wall)
  | None ->
    add "world.cpu_util" "ratio" 0.;
    add "world.par_speedup" "ratio" 0.);
  add "gc.minor_words_per_event" "words/event"
    (median_of
       (fun s ->
         s.it.Workloads.sim_minor_words
         /. float_of_int (max 1 s.it.Workloads.sim_events))
       untraced);
  add "gc.promoted_words" "words" (median_of (fun s -> s.promoted) untraced);
  add "gc.minor_collections" "count"
    (median_of (fun s -> float_of_int s.minors) untraced);
  add "gc.major_collections" "count"
    (median_of (fun s -> float_of_int s.majors) untraced);
  (* per layer: spans and GC phases, traced iterations only *)
  let self_rows = ref [] in
  if traced_run then begin
    let idx = Probe.index () in
    List.iter
      (fun name ->
        let per_iter =
          List.map
            (fun s ->
              List.fold_left ( +. ) 0.
                (Probe.self_samples idx ~within:(s.t0, s.t1) name))
            traced
        in
        add (name ^ "_s") "s" (median_of Fun.id per_iter);
        let calls =
          List.concat_map
            (fun s -> Probe.self_samples idx ~within:(s.t0, s.t1) name)
            traced
        in
        add_dist ~p50:(name ^ ".call_s") ~tail:(name ^ ".call_s.tail")
          ~n:(name ^ ".call_s.n") "s" calls)
      span_names;
    let gc f = median_of (fun s -> f (Probe.gc_in s.t0 s.t1)) traced in
    add "gc.minor_s" "s" (gc (fun g -> g.Probe.minor_s));
    add "gc.major_s" "s" (gc (fun g -> g.Probe.major_s));
    add "gc.stw_s" "s" (gc (fun g -> g.Probe.stw_s));
    add "gc.share" "ratio"
      (median_of
         (fun s ->
           (Probe.gc_in s.t0 s.t1).Probe.pause_s /. Probe.seconds_between s.t0 s.t1)
         traced);
    let pauses =
      List.concat_map (fun s -> (Probe.gc_in s.t0 s.t1).Probe.pauses_us) traced
    in
    add_dist ~p50:"gc.pause_p50_us" ~tail:"gc.pause_tail_us" ~n:"gc.pause_n"
      "us" pauses;
    add "trace.overhead_s" "s"
      (median_of (fun s -> s.wall) traced -. median_of (fun s -> s.wall) untraced);
    add "trace.lost_events" "count" (float_of_int !Probe.lost_events);
    self_rows := Probe.self_times idx;
    if !trace_out <> "" then Probe.write_perfetto !trace_out
  end;
  let metrics = List.rev !metrics in
  (* report *)
  Printf.printf "warm-up %.3f s; %d measured iterations (%d traced) in %.1f s\n"
    warmup_s (List.length samples) (List.length traced) (Probe.since start);
  let walls = List.map (fun s -> s.wall) untraced in
  Printf.printf
    "wall_s per iteration: min %.4f median %.4f, quartile spread %.1f%%, n=%d:\n  %s\n"
    (min_of Fun.id walls) (median_of Fun.id walls)
    (100. *. Stats.rel_iqr walls) (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  Printf.printf "operations: %d attempted, %d failed\n" attempted failed;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev !failures);
  Printf.printf "outcome_digest: %s\n" outcome_digest;
  if traced_run then begin
    Printf.printf "\nself time per layer (traced iterations, GC excluded):\n";
    Printf.printf "  %-22s %7s %10s %10s %10s\n" "layer" "calls" "total s" "self s"
      "gc s";
    List.iter
      (fun (r : Probe.self_row) ->
        Printf.printf "  %-22s %7d %10.4f %10.4f %10.4f\n" r.layer r.calls
          r.total_s r.self_s r.gc_s)
      !self_rows;
    Printf.printf "tracing overhead: traced wall_s - untraced wall_s = %+.4f s\n"
      (List.assoc "trace.overhead_s"
         (List.map (fun (n, v, _) -> (n, v)) metrics));
    if !trace_out <> "" then Printf.printf "trace written: %s\n" !trace_out
  end;
  Printf.printf "\n%-36s %16s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (n, v, u) -> Printf.printf "%-36s %16.6g  %s\n" n v u)
    metrics;
  List.iter
    (fun (n, level) -> Printf.printf "  %s is %s\n" n level)
    (List.rev !tails);
  let body =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           if not (Float.is_finite v) then
             failwith (Printf.sprintf "metric %s is not finite" n);
           Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string n) v
             (json_string u))
         metrics)
  in
  Printf.printf
    "RESULT {\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"outcome_digest\":%s,\"metrics\":{%s}}\n"
    (failed = 0) attempted failed (json_string outcome_digest) body
