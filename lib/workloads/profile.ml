(* Profile-driven synthetic workloads.

   Each benchmark from the paper's suites is modeled as a *syscall profile*:
   worker-thread count, per-thread syscall density, and a mix of operation
   kinds. The mix controls which spatial exemption level unlocks which
   fraction of the stream — e.g. socket traffic only becomes unmonitored at
   the SOCKET levels, mirroring Figure 4's staircase.

   Determinism across replicas is essential: every random choice (op
   selection, compute jitter) draws from a generator seeded by the profile
   name and thread rank — never by the replica index — so all replicas
   issue identical sequences, as diversified-but-equivalent binaries do. *)

open Remon_kernel
open Remon_core
open Remon_util

type op =
  | Op_gettime (* BASE unconditional *)
  | Op_getpid (* BASE unconditional *)
  | Op_yield (* BASE unconditional *)
  | Op_stat (* NONSOCKET_RO unconditional *)
  | Op_read_file of int (* NONSOCKET_RO conditional (pread) *)
  | Op_write_file of int (* NONSOCKET_RW conditional (pwrite) *)
  | Op_pipe_rw of int (* write+read on a pipe: NONSOCKET_RO/RW *)
  | Op_sock_rw of int (* send+recv on a socketpair: SOCKET_RO/RW *)
  | Op_poll_sock (* poll on a socket: SOCKET_RO *)
  | Op_lock (* user-space lock/unlock: no syscall, exercises the agent *)
  | Op_open_close (* always monitored: fd lifecycle *)

(* Number of syscalls one op issues (for density accounting). *)
let op_calls = function
  | Op_gettime | Op_getpid | Op_yield | Op_stat | Op_read_file _
  | Op_write_file _ | Op_poll_sock ->
    1
  | Op_pipe_rw _ | Op_sock_rw _ | Op_open_close -> 2
  | Op_lock -> 0

type t = {
  name : string;
  threads : int; (* worker threads (the paper ran 4) *)
  density_hz : float; (* syscalls per second per worker thread *)
  total_calls_per_thread : int;
  mix : (float * op) list; (* weight, op *)
  jitter : float; (* relative jitter on compute slices *)
  mem_pressure : float;
      (* relative compute slowdown per co-running replica, modeling the
         cache/memory-bandwidth pressure the paper identifies as the
         residual cost of replication ("only the additional pressure on
         the memory subsystem ... cause performance degradation") *)
  description : string;
}

let make ~name ?(threads = 4) ~density_hz ?(calls = 2000) ?(jitter = 0.2)
    ?(mem_pressure = 0.) ~mix ~description () =
  {
    name;
    threads;
    density_hz;
    total_calls_per_thread = calls;
    mix;
    jitter;
    mem_pressure;
    description;
  }

(* Native syscall service time is subtracted from the compute slice so the
   requested density is approximately the *native* call rate. *)
let native_service_ns = 400.

let compute_slice_ns t ncalls =
  let per_call = 1e9 /. t.density_hz in
  let slice = (per_call -. native_service_ns) *. float_of_int ncalls in
  int_of_float (max 100. slice)

(* ------------------------------------------------------------------ *)
(* Program body *)

type worker_ctx = {
  data_fd : int;
  pipe_r : int;
  pipe_w : int;
  sock_a : int;
  sock_b : int;
}

(* The bytes an op writes. A program writes from a buffer it keeps, so
   each replica builds an op's payload once and every call of the op
   passes the same string. *)
let payload = function
  | Op_write_file n -> String.make n 'w'
  | Op_pipe_rw n -> String.make n 'p'
  | Op_sock_rw n -> String.make n 's'
  | _ -> ""

let run_op (env : Mvee.env) ctx rng op data =
  match op with
  | Op_gettime -> ignore (Api.gettimeofday ())
  | Op_getpid -> ignore (Api.getpid ())
  | Op_yield -> Api.sched_yield ()
  | Op_stat -> ignore (Api.fstat ctx.data_fd)
  | Op_read_file n -> ignore (Api.pread ctx.data_fd n (Rng.int rng 4096))
  | Op_write_file _ -> ignore (Api.pwrite ctx.data_fd data (Rng.int rng 4096))
  | Op_pipe_rw n ->
    ignore (Api.write ctx.pipe_w data);
    ignore (Api.read ctx.pipe_r n)
  | Op_sock_rw n ->
    ignore (Api.send ctx.sock_a data);
    ignore (Api.recv ctx.sock_b n)
  | Op_poll_sock ->
    ignore
      (Sched.syscall
         (Syscall.Poll
            { fds = [ (ctx.sock_a, Syscall.ev_out) ]; timeout_ns = Some 0 }))
  | Op_lock ->
    env.Mvee.lock 7;
    env.Mvee.unlock 7
  | Op_open_close ->
    let fd = Api.open_file ~flags:{ Syscall.o_rdwr with create = true } "/tmp/scratch.bin" in
    Api.close fd

(* The body every replica runs. *)
let body t (env : Mvee.env) =
  (* per-replica setup: one shared data file plus per-worker pipes and
     socket pairs (fd numbering is identical across replicas) *)
  let data_fd =
    Api.open_file ~flags:{ Syscall.o_rdwr with create = true } ("/tmp/" ^ t.name ^ ".dat")
  in
  ignore (Api.pwrite data_fd (String.make 8192 'd') 0);
  let worker_ctxs =
    List.init t.threads (fun _ ->
        let pipe_r, pipe_w = Api.pipe () in
        let sock_a, sock_b = Api.socketpair () in
        { data_fd; pipe_r; pipe_w; sock_a; sock_b })
  in
  let weights = Array.of_list (List.map fst t.mix) in
  let ops = Array.of_list (List.map snd t.mix) in
  let payloads = Array.map payload ops in
  let done_count = ref 0 in
  let worker rank ctx () =
    (* identical RNG stream in every replica: keyed by profile + rank
       through the stable mixer ([Hashtbl.hash] varies across OCaml
       releases, which would break byte-identical replay of recordings
       made under a different compiler) *)
    let rng = Rng.make (Rng.stable_seed t.name rank) in
    let issued = ref 0 in
    while !issued < t.total_calls_per_thread do
      let i = Rng.weighted rng weights in
      let op = ops.(i) in
      let ncalls = max 1 (op_calls op) in
      let slice = compute_slice_ns t ncalls in
      let jittered =
        let f = 1. +. ((Rng.float rng -. 0.5) *. 2. *. t.jitter) in
        (* replicas contend for cache and memory bandwidth *)
        let pressure = 1. +. (t.mem_pressure *. float_of_int (env.Mvee.nreplicas - 1)) in
        int_of_float (float_of_int slice *. f *. pressure)
      in
      Api.compute jittered;
      run_op env ctx rng op payloads.(i);
      issued := !issued + op_calls op + (if op_calls op = 0 then 1 else 0)
    done;
    incr done_count
  in
  List.iteri
    (fun i ctx -> ignore (env.Mvee.spawn_thread (worker (i + 1) ctx)))
    worker_ctxs;
  (* join: user-space wait on the completion counter (pthread_join-like) *)
  Sched.wait_user (fun () -> !done_count = t.threads);
  Api.close data_fd

(* ------------------------------------------------------------------ *)
(* Mix archetypes *)

let mix_compute = [ (0.6, Op_gettime); (0.25, Op_getpid); (0.15, Op_stat) ]

let mix_file_ro =
  [ (0.65, Op_read_file 512); (0.15, Op_stat); (0.15, Op_gettime); (0.05, Op_write_file 256) ]

let mix_file_rw =
  [
    (0.4, Op_read_file 1024);
    (0.35, Op_write_file 1024);
    (0.1, Op_stat);
    (0.1, Op_gettime);
    (0.05, Op_open_close);
  ]

let mix_pipe =
  [ (0.55, Op_pipe_rw 256); (0.25, Op_read_file 256); (0.2, Op_gettime) ]

let mix_sock =
  [ (0.6, Op_sock_rw 512); (0.2, Op_poll_sock); (0.15, Op_gettime); (0.05, Op_write_file 128) ]

let mix_sync =
  [ (0.35, Op_lock); (0.4, Op_gettime); (0.15, Op_yield); (0.1, Op_read_file 128) ]

(* phpbench-like: dominated by time queries and small file writes *)
let mix_interp =
  [ (0.5, Op_gettime); (0.2, Op_getpid); (0.2, Op_write_file 128); (0.1, Op_read_file 128) ]

(* unpack-linux-like: heavy fd lifecycle (always monitored) + writes *)
let mix_unpack =
  [ (0.35, Op_open_close); (0.4, Op_write_file 2048); (0.2, Op_read_file 2048); (0.05, Op_stat) ]

(* ------------------------------------------------------------------ *)
(* Calibration *)

(* Effective per-call cost of CP monitoring in this simulator (measured by
   test/calibrate.ml at 4 worker threads: 16-18 us/call across densities).
   Suites derive per-benchmark densities from the paper's reported
   no-IP-MON overheads through this constant; the IP-MON columns are then
   *predictions* of the model, not fitted. *)
let c_cp_seconds = 16.5e-6

(* Expected fraction of a mix's syscalls that stay monitored at
   NONSOCKET_RW and above (the fd-lifecycle ops). *)
let monitored_fraction mix =
  let total, monitored =
    List.fold_left
      (fun (total, monitored) (w, op) ->
        let calls = float_of_int (op_calls op) in
        let m = match op with Op_open_close -> calls | _ -> 0. in
        (total +. (w *. calls), monitored +. (w *. m)))
      (0., 0.) mix
  in
  if total <= 0. then 0. else monitored /. total

(* Effective IP-MON-vs-CP residual ratio for a mix: monitored calls still
   pay full CP cost; exempt calls pay the ~12% IP-MON cost ratio. *)
let residual_ratio mix =
  let f = monitored_fraction mix in
  f +. ((1. -. f) *. 0.12)

(* Solves the two-parameter model (density, memory pressure) from the
   paper's two published bars for a benchmark. *)
let fit ~paper_no ~paper_ip ~mix =
  let m = Float.max 0. (paper_ip -. 1. -. (residual_ratio mix *. (paper_no -. 1.))) in
  let density = Float.max 300. ((paper_no -. 1. -. m) /. c_cp_seconds) in
  (density, m)
