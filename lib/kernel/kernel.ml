(* Kernel facade: construction, process management, tracing, and the run
   loop. This is the only module MVEE layers and workloads need besides the
   shared types in [Proc] and [Syscall]. *)

open Remon_sim
open Remon_util
module K = Kstate

type t = K.t

let create ?cost ?seed ?net_latency ?sock_buf () =
  let k = K.create ?cost ?seed ?net_latency ?sock_buf () in
  Dispatch.install k;
  (* standard filesystem fixture *)
  List.iter
    (fun d -> ignore (Vfs.mkdir_p k.K.vfs d))
    [ "/tmp"; "/etc"; "/dev"; "/proc"; "/var/www"; "/home/user" ];
  ignore (Vfs.create_file k.K.vfs "/etc/hostname");
  (match Vfs.resolve k.K.vfs "/etc/hostname" with
  | Ok node -> ignore (Vfs.write_at node ~offset:0 ~data:"remon-sim\n" ~now_ns:0)
  | Error _ -> ());
  k.K.sched.Sched.on_thread_exit <-
    (fun th ->
      let p = th.Proc.proc in
      (* the last thread out ends the process *)
      if p.alive && Vec.for_all (fun (t : Proc.thread) -> t.tstate = Proc.Dead) p.threads
      then Dispatch.kill_process k p ~code:p.exit_code;
      (* user-space joins poll thread liveness: wake parked waiters *)
      Sched.kick k.K.sched);
  k

let state (k : t) = k
let sched (k : t) = k.K.sched
let vfs (k : t) = k.K.vfs
let net (k : t) = k.K.net
let shm_registry (k : t) = k.K.shm
let cost (k : t) = k.K.cost
let stats (k : t) = k.K.stats
let now (k : t) = K.now k

(* ------------------------------------------------------------------ *)
(* Process management *)

let make_process (k : t) ?replica_info ?(parent = 1) ~name ~vm_seed () =
  let pid = K.fresh_pid k in
  let p =
    {
      Proc.pid;
      parent_pid = parent;
      name;
      fds = Fdtable.create ();
      vm = Vm.create ~rng:(Rng.make vm_seed);
      cwd = "/home/user";
      sig_actions = Hashtbl.create 8;
      sig_mask = Proc.IntSet.empty;
      pending_signals = Queue.create ();
      threads = Vec.create ();
      next_tid_rank = 0;
      alive = true;
      reaped = false;
      exit_code = 0;
      tracer = None;
      entry_table = [||];
      ipmon_registered = None;
      ipmon_staged = None;
      real_timer = { Proc.spec = None; armed_at = Vtime.zero; expirations = 0 };
      replica_info;
      exit_waiters = [];
    }
  in
  Hashtbl.replace k.K.procs pid p;
  p

let add_thread (k : t) p ~start_clock = K.add_thread k p ~start_clock

(* Spawns a process whose main thread runs [main]. [entries] become the
   Clone entry table (index 0 conventionally unused by main). *)
let spawn_process (k : t) ?replica_info ?(entries = [||]) ?(start_clock = Vtime.zero)
    ~name ~vm_seed (main : unit -> unit) =
  let p = make_process k ?replica_info ~name ~vm_seed () in
  p.Proc.entry_table <- entries;
  let th = add_thread k p ~start_clock in
  Sched.spawn k.K.sched th main;
  p

let on_process_exit (p : Proc.process) f =
  if p.Proc.alive then p.Proc.exit_waiters <- p.Proc.exit_waiters @ [ f ]
  else f p.Proc.exit_code

(* ------------------------------------------------------------------ *)
(* Tracing (ptrace) *)

let attach_tracer (p : Proc.process) tracer = p.Proc.tracer <- Some tracer

let resume (_k : t) th action = Sched.resume th action

let interrupt_blocked (k : t) th result = Dispatch.interrupt_blocked k th result
let inject_signal_now (k : t) th sg = Dispatch.inject_signal_now k th sg
let post_signal (k : t) p sg = Dispatch.post_signal k p sg
let kill_process (k : t) p ~code = Dispatch.kill_process k p ~code

(* ------------------------------------------------------------------ *)
(* IP-MON hookup *)

(* Raw execution used by IP-MON after token verification. *)
let execute_raw (k : t) th call = Dispatch.execute_raw k th call

(* Parks [th] until [poll] succeeds and answers its value; for
   monitor-internal waits (IP-MON slaves waiting on the replication
   buffer). A forced wake (GHUMVEE aborting blocked calls to deliver a
   signal) does not satisfy the wait: the thread parks again until [poll]
   does. *)
let rec wait_until (k : t) th ~what ~poll =
  match Dispatch.block k th ~on:Waitq.global ~what ~intr:false ~poll () with
  | Ok v -> v
  | Error _ -> wait_until k th ~what ~poll

let kick (k : t) = Sched.kick k.K.sched

let schedule (k : t) ~time f = Sched.schedule k.K.sched ~time f
let schedule_at (k : t) ~time f = Sched.schedule_at k.K.sched ~time f
let cancel (k : t) h = Sched.cancel k.K.sched h

(* ------------------------------------------------------------------ *)
(* Running *)

let run (k : t) = Sched.run k.K.sched

(* Re-enters the monitored (ptrace) path for a call IP-MON declined to
   handle (Figure 2's step 4': token destroyed, call forwarded to the CP
   monitor). *)
let monitor_path (k : t) th call = Dispatch.monitor_path k th call


(* ------------------------------------------------------------------ *)
(* Observability *)

let set_obs (k : t) o = k.K.obs <- Some o
let obs (k : t) = k.K.obs

(* The sink's routing instants, one line per routed syscall. A view of the
   structured trace, not a second channel. *)
let route_lines (o : Remon_obs.Obs.t) =
  let module Tr = Remon_obs.Trace in
  List.filter_map
    (fun (e : Tr.event) ->
      if e.Tr.cat <> "route" then None
      else
        let call =
          match List.assoc_opt "call" e.Tr.args with
          | Some (Tr.Str c) -> c
          | _ -> "?"
        in
        let index =
          match List.assoc_opt "index" e.Tr.args with
          | Some (Tr.Int i) -> i
          | _ -> 0
        in
        Some
          (Printf.sprintf "[%s] pid=%d tid=%d #%d %s -> %s"
             (Vtime.to_string e.Tr.ts) e.Tr.pid e.Tr.tid index call e.Tr.name))
    (Vec.to_list o.Remon_obs.Obs.trace.Tr.events)
