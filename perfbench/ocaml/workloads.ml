(* The benchmark's three workloads. Each [iteration] runs one complete
   workload, checks every simulated output, and returns host timings, the
   per-layer counts, and a digest of everything simulated.

   - [suite]: Figure 3's PARSEC/SPLASH-2x profiles under native,
     GHUMVEE-only and ReMon (NONSOCKET_RW), one fresh kernel per run; the
     ReMon runs record, and every recording is encoded, decoded, replayed
     and bisected. Stresses the event queue, scheduler, dispatch, the
     monitors and the record/replay path, with no network.
   - [servers]: Figure 5's nine servers at 0.1 ms over the single-kernel
     socket/epoll stack, native, GHUMVEE-only and ReMon (SOCKET_RW), with
     closed-loop clients. The same monitors on socket calls; nothing
     records, so it is the control for record-path changes.
   - [herd]: [Topology.run_herd] at 10^5 connections. The world's round
     loop, host network, links and the GC on a large heap, with no monitor:
     the control for monitor changes. Timed on one shard; a run over all
     cores checks the digest and reports the parallel speed-up (timed
     2-shard runs on a 2-vCPU host spread by 10-13% between runs, too much
     for a regression bound).

   An operation is a run in [suite] and a simulated request elsewhere; a
   failed check fails every operation of its run, and an exception from a
   run is caught and counted the same way. *)

open Remon_sim
open Remon_kernel
open Remon_core
open Remon_workloads

type size = Full | Tiny

type iteration = {
  setup_s : float;  (** host seconds of the separable set-up calls *)
  sim_s : float;  (** host seconds simulating: run and finish (or run_herd) *)
  replay_s : float;  (** encode + decode + replay + bisect *)
  ops : int;
  failed : int;
  failures : string list;  (** one line per failed check *)
  syscalls : int;  (** simulated syscalls in the kernels the bench owns *)
  requests : int;  (** completed request/response pairs *)
  fidelity : float option;  (** Figure 3 fidelity, [suite] only *)
  counts : (string, int) Hashtbl.t;
  per_syscall_ns : (string * float) list;  (** (backend, host ns/syscall) per run *)
  op_times : (string * (float * float) list) list;
      (** per operation group, in run order: the (wall, cpu) host seconds
          of each of its timed calls, in call order, and of the rest of
          the group, set-up apart *)
  sim_minor_words : float;  (** minor words allocated while simulating *)
  sim_events : int;  (** scheduler events in the same calls *)
  digest : string;  (** text of every simulated output; hashed by the caller *)
}

(* Per-layer counts every workload reports; a layer a workload does not
   exercise reports 0. *)
let count_names =
  List.map
    (fun n -> (n, if Filename.extension n = ".bytes" then "B" else "count"))
    [
      "sched.events"; "event_queue.adds"; "event_queue.cancels";
      "event_queue.compactions"; "kernel.syscalls"; "kernel.context_switches";
      "ghumvee.ptrace_stops"; "ghumvee.rendezvous"; "ipmon.fastpath";
      "ipmon.fallbacks"; "rb.records"; "rb.resets"; "rb.bytes";
      "ikb.tokens_granted"; "record.events"; "record.bytes"; "world.rounds";
      "world.events"; "link.msgs"; "link.bytes"; "gw.opened";
    ]

(* Mutable state of one iteration while it runs. *)
type acc = {
  setup : float ref;
  setup_cpu : float ref;
  sim : float ref;
  replay : float ref;
  mutable a_ops : int;
  mutable a_failed : int;
  mutable a_failures : string list;
  mutable a_syscalls : int;
  mutable a_requests : int;
  a_counts : (string, int) Hashtbl.t;
  mutable a_per_syscall : (string * float) list;
  mutable a_op_times : (string * (float * float) list) list;
  mutable a_parts : (float * float) list;
      (** (wall, cpu) of the open group's timed calls, newest first *)
  mutable a_minor_words : float;
  mutable a_events : int;
  digest : Buffer.t;
}

let new_acc () =
  {
    setup = ref 0.;
    setup_cpu = ref 0.;
    sim = ref 0.;
    replay = ref 0.;
    a_ops = 0;
    a_failed = 0;
    a_failures = [];
    a_syscalls = 0;
    a_requests = 0;
    a_counts = Hashtbl.create 32;
    a_per_syscall = [];
    a_op_times = [];
    a_parts = [];
    a_minor_words = 0.;
    a_events = 0;
    digest = Buffer.create 4096;
  }

let finish_acc ?fidelity a =
  {
    setup_s = !(a.setup);
    sim_s = !(a.sim);
    replay_s = !(a.replay);
    ops = a.a_ops;
    failed = a.a_failed;
    failures = List.rev a.a_failures;
    syscalls = a.a_syscalls;
    requests = a.a_requests;
    fidelity;
    counts = a.a_counts;
    per_syscall_ns = List.rev a.a_per_syscall;
    op_times = List.rev a.a_op_times;
    sim_minor_words = a.a_minor_words;
    sim_events = a.a_events;
    digest = Buffer.contents a.digest;
  }

let bump a name v =
  Hashtbl.replace a.a_counts name
    (v + Option.value ~default:0 (Hashtbl.find_opt a.a_counts name))

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* Runs one operation group; any exception (a failed check, a monitor
   verdict surfacing as an exception, a [failwith] deep in the simulator)
   fails all [ops] of it without stopping the benchmark. *)
let guarded a ~ops ~what f =
  a.a_ops <- a.a_ops + ops;
  let t0 = Probe.now_ns () and c0 = Probe.cpu_s () in
  let s0 = !(a.setup) and sc0 = !(a.setup_cpu) in
  a.a_parts <- [];
  (try f ()
   with e ->
     let msg =
       match e with Check_failed m -> m | e -> Printexc.to_string e
     in
     a.a_failed <- a.a_failed + ops;
     a.a_failures <- (what ^ ": " ^ msg) :: a.a_failures;
     Printf.bprintf a.digest "%s FAILED\n" what);
  let setup = !(a.setup) -. s0 in
  let wall = Probe.since t0 -. setup in
  let cpu = Probe.cpu_s () -. c0 -. (!(a.setup_cpu) -. sc0) in
  let calls = List.rev a.a_parts in
  let rest =
    List.fold_left (fun (w, c) (w', c') -> (w -. w', c -. c')) (wall, cpu) calls
  in
  a.a_op_times <- (what, calls @ [ rest ]) :: a.a_op_times

(* A timed call of the simulation or replay inside a group: its host
   seconds go to [into] and become one part of the group's [op_times]. *)
let timed a into name f =
  let t0 = Probe.now_ns () and c0 = Probe.cpu_s () in
  Fun.protect
    (fun () -> Probe.measure into name f)
    ~finally:(fun () ->
      a.a_parts <- (Probe.since t0, Probe.cpu_s () -. c0) :: a.a_parts)

(* Set-up calls: their host and CPU seconds are kept out of [wall_s] and
   [cpu_s] and reported as [setup_s]. *)
let setup_call a name f =
  let c0 = Probe.cpu_s () in
  let r = Probe.measure a.setup name f in
  a.setup_cpu := !(a.setup_cpu) +. (Probe.cpu_s () -. c0);
  r

(* Kernel.run and Mvee.finish on a launched kernel, tallying the kernel's
   and the monitor's public counters. *)
let simulate a k h ~backend =
  let mw0 = Gc.minor_words () in
  let t0 = Probe.now_ns () in
  timed a a.sim "kernel.run" (fun () -> Kernel.run k);
  let run_s = Probe.since t0 in
  a.a_minor_words <- a.a_minor_words +. (Gc.minor_words () -. mw0);
  let o = timed a a.sim "mvee.finish" (fun () -> Mvee.finish h) in
  let kc = Kernel.stats k in
  let sched = Kernel.sched k in
  let q = Event_queue.stats sched.Sched.events in
  bump a "sched.events" sched.Sched.events_processed;
  a.a_events <- a.a_events + sched.Sched.events_processed;
  bump a "event_queue.adds" q.Event_queue.adds;
  bump a "event_queue.cancels" q.Event_queue.cancels;
  bump a "event_queue.compactions" q.Event_queue.compactions;
  bump a "kernel.syscalls" kc.Kstate.syscalls;
  bump a "kernel.context_switches" kc.Kstate.context_switches;
  bump a "rb.bytes" kc.Kstate.rb_bytes;
  bump a "ghumvee.ptrace_stops" o.Mvee.ptrace_stops;
  bump a "ghumvee.rendezvous" o.Mvee.rendezvous;
  bump a "ipmon.fastpath" o.Mvee.ipmon_fastpath;
  bump a "ipmon.fallbacks" o.Mvee.ipmon_fallbacks;
  bump a "rb.records" o.Mvee.rb_records;
  bump a "rb.resets" o.Mvee.rb_resets;
  bump a "ikb.tokens_granted" o.Mvee.tokens_granted;
  a.a_syscalls <- a.a_syscalls + kc.Kstate.syscalls;
  if kc.Kstate.syscalls > 0 then
    a.a_per_syscall <-
      (backend, run_s *. 1e9 /. float_of_int kc.Kstate.syscalls)
      :: a.a_per_syscall;
  o

let check_clean (o : Mvee.outcome) =
  match o.Mvee.verdict with
  | Some v -> check false "verdict %s" (Divergence.to_string v)
  | None -> ()

let outcome_line (o : Mvee.outcome) =
  Printf.sprintf
    "dur=%d sys=%d mon=%d fp=%d ps=%d rv=%d fb=%d rbr=%d rbx=%d tok=%d/%d \
     exits=%s"
    (Vtime.to_int_ns o.Mvee.duration)
    o.Mvee.syscalls o.Mvee.monitored o.Mvee.ipmon_fastpath o.Mvee.ptrace_stops
    o.Mvee.rendezvous o.Mvee.ipmon_fallbacks o.Mvee.rb_records
    o.Mvee.rb_resets o.Mvee.tokens_granted o.Mvee.tokens_rejected
    (String.concat ","
       (List.map (fun (v, c) -> Printf.sprintf "%d:%d" v c) o.Mvee.exit_codes))

(* {1 suite} *)

type entry = { bench : string; paper_no : float; paper_ip : float; profile : Profile.t }

let entries size =
  let all =
    List.map
      (fun (e : Parsec.entry) ->
        { bench = e.bench; paper_no = e.paper_no_ipmon; paper_ip = e.paper_ipmon;
          profile = e.profile })
      Parsec.all
    @ List.map
        (fun (e : Splash.entry) ->
          { bench = e.bench; paper_no = e.paper_no_ipmon; paper_ip = e.paper_ipmon;
            profile = e.profile })
        Splash.all
  in
  match size with Full -> all | Tiny -> List.filteri (fun i _ -> i < 2) all

let recording_equal (a : Recording.t) (b : Recording.t) =
  a.Recording.header = b.Recording.header
  && a.Recording.verdict = b.Recording.verdict
  && Array.length a.Recording.events = Array.length b.Recording.events
  && Array.for_all2 Recording.equal_event a.Recording.events b.Recording.events

(* One event replaced by a different one: bisection must name its index. *)
let mutate = function
  | Recording.Signal { rank; signo } -> Recording.Signal { rank; signo = signo + 1 }
  | _ -> Recording.Signal { rank = 0; signo = 31 }

let check_recording a ~rng ~what (profile : Profile.t) (r : Recording.t) =
  let n = Array.length r.Recording.events in
  check (n > 0) "empty recording";
  bump a "record.events" n;
  let bytes = timed a a.replay "record.encode" (fun () -> Recording.to_string r) in
  bump a "record.bytes" (String.length bytes);
  let decoded =
    match timed a a.replay "record.decode" (fun () -> Recording.of_string bytes) with
    | Ok d -> d
    | Error e -> raise (Check_failed ("decode: " ^ Syswire.error_to_string e))
  in
  check (recording_equal decoded r) "of_string (to_string r) <> r";
  let report =
    match
      timed a a.replay "replay.run" (fun () ->
          Replayer.replay decoded ~body:(Profile.body profile))
    with
    | Ok rep -> rep
    | Error e -> raise (Check_failed ("replay: " ^ e))
  in
  check report.Replayer.identical "replay not byte-identical";
  let pos = Random.State.int rng n in
  let changed =
    { r with Recording.events = Array.mapi (fun i e -> if i = pos then mutate e else e) r.Recording.events }
  in
  let fork =
    timed a a.replay "replay.bisect" (fun () ->
        Replayer.bisect ~recorded:r ~replayed:changed ())
  in
  (match fork with
  | Some d -> check (d.Divergence.first_rank = pos) "bisect found %d, changed %d" d.Divergence.first_rank pos
  | None -> check false "bisect missed the change at %d" pos);
  Printf.bprintf a.digest "%s stream=%s bisect=%d\n" what
    (Recording.stream_digest r) pos

let suite ~seed ~size () =
  let a = new_acc () in
  let rng = Random.State.make [| seed |] in
  let bars = ref [] in
  List.iter
    (fun e ->
      let run backend (cfg : Mvee.config) =
        let what = e.bench ^ "/" ^ backend in
        let result = ref None in
        guarded a ~ops:1 ~what (fun () ->
            let k =
              setup_call a "setup.kernel_create" (fun () ->
                  Kernel.create ~seed:cfg.Mvee.seed ~net_latency:(Vtime.us 50) ())
            in
            let h =
              setup_call a "setup.launch" (fun () ->
                  Mvee.launch k cfg ~name:e.profile.Profile.name
                    ~body:(Profile.body e.profile))
            in
            let o = simulate a k h ~backend in
            check_clean o;
            Printf.bprintf a.digest "%s %s\n" what (outcome_line o);
            (match o.Mvee.recording with
            | Some r -> check_recording a ~rng ~what e.profile r
            | None -> check (not cfg.Mvee.record) "no recording");
            result := Some (Vtime.to_float_ns o.Mvee.duration));
        !result
      in
      (* a pinned SysV key keeps recordings identical across iterations;
         by default it comes from a process-wide counter *)
      let pin (cfg : Mvee.config) =
        { cfg with Mvee.shm_key = Some (Context.mvee_shm_key_base + 16) }
      in
      let ghumvee = pin (Runner.cfg_ghumvee ~seed ()) in
      let native = run "native" { ghumvee with Mvee.backend = Mvee.Native } in
      let no = run "ghumvee" ghumvee in
      let ip =
        run "remon"
          { (pin (Runner.cfg_remon ~seed Classification.Nonsocket_rw_level)) with
            Mvee.record = true }
      in
      match (native, no, ip) with
      | Some n, Some g, Some r ->
        bars := (g /. n, e.paper_no) :: (r /. n, e.paper_ip) :: !bars
      | _ -> ())
    (entries size);
  let fidelity =
    if !bars = [] then None else Some (Stats.fidelity_err !bars)
  in
  (match fidelity with
  | Some f -> Printf.bprintf a.digest "fidelity_err=%.6f\n" f
  | None -> ());
  finish_acc ?fidelity a

(* {1 servers} *)

(* Figure 5's servers with the fixed concurrency of each client tool. *)
let server_benches size =
  let all =
    [
      (Servers.beanstalkd, Clients.wrk ~concurrency:32 ~total_requests:640 ());
      (Servers.lighttpd_wrk, Clients.wrk ~concurrency:32 ~total_requests:640 ());
      (Servers.memcached, Clients.wrk ~concurrency:32 ~total_requests:640 ());
      (Servers.nginx_wrk, Clients.wrk ~concurrency:32 ~total_requests:640 ());
      (Servers.redis, Clients.wrk ~concurrency:32 ~total_requests:640 ());
      (Servers.apache_ab, Clients.ab ~concurrency:8 ~total_requests:240 ());
      (Servers.thttpd_ab, Clients.ab ~concurrency:8 ~total_requests:240 ());
      (Servers.lighttpd_ab, Clients.ab ~concurrency:8 ~total_requests:240 ());
      ( Servers.lighttpd_http_load,
        Clients.http_load ~concurrency:16 ~total_requests:320 () );
    ]
  in
  match size with Full -> all | Tiny -> List.filteri (fun i _ -> i < 2) all

let servers ~seed ~size () =
  let a = new_acc () in
  List.iter
    (fun ((server : Servers.spec), (client : Clients.spec)) ->
      List.iter
        (fun (backend, (cfg : Mvee.config)) ->
          let what = server.Servers.name ^ "/" ^ backend in
          guarded a ~ops:client.Clients.total_requests ~what (fun () ->
              let k =
                setup_call a "setup.kernel_create" (fun () ->
                    Kernel.create ~seed:cfg.Mvee.seed ~net_latency:(Vtime.us 100) ())
              in
              let stats = Servers.make_stats () in
              let h, meas =
                setup_call a "setup.launch" (fun () ->
                    let h =
                      Mvee.launch k cfg ~name:server.Servers.name
                        ~body:(Servers.body ~stats server)
                    in
                    (h, Clients.launch k server client))
              in
              let o = simulate a k h ~backend in
              check_clean o;
              check
                (meas.Clients.responses = client.Clients.total_requests)
                "%d/%d responses" meas.Clients.responses
                client.Clients.total_requests;
              check (meas.Clients.transport_errors = 0) "%d transport errors"
                meas.Clients.transport_errors;
              check (stats.Servers.truncated = 0) "%d truncated requests"
                stats.Servers.truncated;
              a.a_requests <- a.a_requests + meas.Clients.responses;
              Printf.bprintf a.digest "%s client=%d %s %s\n" what
                (Vtime.to_int_ns (Clients.duration meas))
                (Latency.summary_to_string (Latency.summary meas.Clients.latency))
                (outcome_line o)))
        [
          ("native", Runner.cfg_native ~seed ());
          ("ghumvee", Runner.cfg_ghumvee ~seed ());
          ("remon", Runner.cfg_remon ~seed Classification.Socket_rw_level);
        ])
    (server_benches size);
  finish_acc a

(* {1 herd} *)

let herd_spec ~seed ~size =
  Topology.herd_of_connections ~seed
    (match size with Full -> 100_000 | Tiny -> 2_000)

(* "name k=v k=v" counter lines of the herd digest. *)
let digest_counter digest ~line ~key =
  String.split_on_char '\n' digest
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | hd :: kvs when hd = line ->
           List.find_map
             (fun kv ->
               match String.split_on_char '=' kv with
               | [ k; v ] when k = key -> int_of_string_opt v
               | _ -> None)
             kvs
         | _ -> None)
  |> Option.value ~default:0

let herd ~seed ~size () =
  let a = new_acc () in
  let h = herd_spec ~seed ~size in
  let hosts = 2 * h.Topology.cells in
  let ops = h.Topology.cells * h.Topology.conns_per_cell * h.Topology.rounds_per_conn in
  guarded a ~ops ~what:"herd" (fun () ->
      (* run_herd builds its kernels inside the timed call; the same
         Kernel.create calls are timed here on their own as set-up *)
      setup_call a "setup.kernel_create" (fun () ->
          for i = 0 to hosts - 1 do
            ignore
              (Sys.opaque_identity
                 (Kernel.create ~seed:(h.Topology.h_seed + (i * 101)) ()))
          done);
      let mw0 = Gc.minor_words () in
      let r =
        timed a a.sim "world.run" (fun () ->
            Topology.run_herd ~shards:1 h)
      in
      a.a_minor_words <- Gc.minor_words () -. mw0;
      a.a_events <- r.Topology.hr_events;
      let d = r.Topology.hr_digest in
      Buffer.add_string a.digest d;
      bump a "sched.events" r.Topology.hr_events;
      bump a "world.events" r.Topology.hr_events;
      bump a "world.rounds" r.Topology.hr_rounds;
      bump a "link.msgs" (digest_counter d ~line:"links" ~key:"msgs");
      bump a "link.bytes" (digest_counter d ~line:"links" ~key:"bytes");
      bump a "gw.opened" (digest_counter d ~line:"gw" ~key:"opened");
      check (r.Topology.hr_responses = ops) "%d/%d responses" r.Topology.hr_responses ops;
      check (r.Topology.hr_served = ops) "%d/%d served" r.Topology.hr_served ops;
      check (r.Topology.hr_errors = 0) "%d errors" r.Topology.hr_errors;
      a.a_requests <- r.Topology.hr_responses);
  finish_acc a

(* One untimed run over [shards] domains: its digest must equal the
   sequential one, and its host seconds show what sharding buys. *)
type sharded = { s_digest : string; s_wall : float; s_cpu : float }

let herd_sharded ~seed ~size ~shards =
  let c0 = Probe.cpu_s () and t0 = Probe.now_ns () in
  let r = Topology.run_herd ~shards (herd_spec ~seed ~size) in
  { s_digest = r.Topology.hr_digest; s_wall = Probe.since t0; s_cpu = Probe.cpu_s () -. c0 }
