(* Kernel state: every subsystem instance plus the hook points the MVEE
   layers attach to (the IK-B broker and ptrace tracers). *)

open Remon_sim
open Remon_util

type counters = {
  mutable syscalls : int;
  mutable ptrace_stops : int;
  mutable ipmon_fastpath : int; (* calls completed through IP-MON *)
  mutable monitored : int; (* calls that took the ptrace path *)
  mutable context_switches : int;
  mutable rb_bytes : int;
  mutable tokens_granted : int;
  mutable tokens_rejected : int;
}

let make_counters () =
  {
    syscalls = 0;
    ptrace_stops = 0;
    ipmon_fastpath = 0;
    monitored = 0;
    context_switches = 0;
    rb_bytes = 0;
    tokens_granted = 0;
    tokens_rejected = 0;
  }

(* Routing decision taken by the IK-B broker at syscall entry (Figure 2). *)
type route =
  | Route_plain (* no broker/tracer interest: execute directly *)
  | Route_ipmon of int64 (* forward to IP-MON with this one-time token *)
  | Route_monitor (* report to the CP monitor via ptrace *)

type broker = {
  classify : Proc.thread -> Syscall.call -> route;
      (* IK-B interceptor: called once per syscall entry *)
}

(* Fault-injection decision, consulted once per syscall entry before broker
   routing. Installed by the MVEE's fault layer; the kernel stays agnostic
   of fault *plans* and only knows how to apply a decision, so the monitors
   observe injected failures through their normal detection paths. *)
type fault_decision =
  | Fault_none
  | Fault_crash of int (* kill the process as if a fatal signal hit mid-call *)
  | Fault_rewrite of Syscall.call (* corrupted argument capture *)
  | Fault_delay of Vtime.t (* stall this arrival before routing it *)
  | Fault_result of Syscall.result (* complete immediately (transient errors) *)

(* Futex wait queues, keyed by physical backing (shared segments give the
   same key in every attached process). *)
type futex_waiter = {
  ft : Proc.thread;
  mutable woken : bool;
  mutable cancelled : bool; (* timed out or killed; wake skips it *)
}

type t = {
  sched : Sched.t;
  cost : Cost_model.t;
  vfs : Vfs.t;
  net : Net.t;
  shm : Shm.t;
  rng : Rng.t;
  procs : (int, Proc.process) Hashtbl.t;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_share_group : int;
  futexes : (Vm.futex_key, futex_waiter Queue.t) Hashtbl.t;
  stats : counters;
  (* Hook registries, keyed by [Proc.replica_info.group_id]: one kernel can
     host several replica sets (a fleet), each with its own broker and
     fault plan. Threads outside any group have neither. *)
  brokers : (int, broker) Hashtbl.t;
  fault_hooks : (int, Proc.thread -> Syscall.call -> fault_decision) Hashtbl.t;
  flocks : (int, int) Hashtbl.t;
      (* advisory exclusive file locks: inode -> holder pid *)
  pending_ipmon : (int, Proc.ipmon_registration) Hashtbl.t;
      (* pid -> registration prepared by the MVEE before the replica issues
         ipmon_register (the closure cannot travel through the syscall) *)
  epoch_offset_ns : int64; (* "wall clock" base for gettimeofday *)
  mutable obs : Remon_obs.Obs.t option;
      (* structured trace/metrics sink; None = observability fully off *)
  mutable hostnet : Hostnet.t option;
      (* cross-host network gateway, installed by the shard runner; None in
         single-host runs, where unknown ports get ECONNREFUSED *)
}

let create ?(cost = Cost_model.default) ?(seed = 42)
    ?(net_latency = Vtime.us 50) ?(sock_buf = Net.default_bufcap) () =
  {
    sched = Sched.create ();
    cost;
    vfs = Vfs.create ();
    net = Net.create ~latency:net_latency ~bufcap:sock_buf ();
    shm = Shm.create ();
    rng = Rng.make seed;
    procs = Hashtbl.create 8;
    next_pid = 1000;
    next_tid = 5000;
    next_share_group = 1;
    futexes = Hashtbl.create 32;
    stats = make_counters ();
    brokers = Hashtbl.create 4;
    fault_hooks = Hashtbl.create 4;
    flocks = Hashtbl.create 8;
    pending_ipmon = Hashtbl.create 8;
    epoch_offset_ns = 1_600_000_000_000_000_000L;
    obs = None;
    hostnet = None;
  }

let now k = Sched.now k.sched

(* The broker / fault hook a thread is subject to: its replica group's,
   if it belongs to one. *)
let broker_for k (th : Proc.thread) =
  match th.proc.Proc.replica_info with
  | Some { Proc.group_id; _ } -> Hashtbl.find_opt k.brokers group_id
  | None -> None

let fault_hook_for k (th : Proc.thread) =
  match th.proc.Proc.replica_info with
  | Some { Proc.group_id; _ } -> Hashtbl.find_opt k.fault_hooks group_id
  | None -> None

let charge (th : Proc.thread) ns =
  th.clock <- Vtime.add th.clock (Vtime.ns (max 0 ns))

let fresh_pid k =
  let pid = k.next_pid in
  k.next_pid <- k.next_pid + 1;
  pid

let fresh_tid k =
  let tid = k.next_tid in
  k.next_tid <- k.next_tid + 1;
  tid

(* A new thread of [p] starting at virtual time [start_clock]: the next tid
   and the next rank within the process. Not yet scheduled. *)
let add_thread k (p : Proc.process) ~start_clock =
  let tid = fresh_tid k in
  let rank = p.Proc.next_tid_rank in
  p.Proc.next_tid_rank <- rank + 1;
  let th =
    {
      Proc.tid;
      proc = p;
      rank;
      clock = start_clock;
      tstate = Proc.Ready;
      syscall_index = 0;
      pending_delivery = Queue.create ();
      in_ipmon = false;
      resume_kind = 0;
      resume_k = Obj.repr 0;
      resume_r = Syscall.Ok_unit;
      resume_thunk = (fun () -> ());
      return_fn = (fun _ -> ());
      finish_fn = Proc.fn_unset;
      ipmon_finish_fn = Proc.fn_unset;
    }
  in
  Vec.push p.Proc.threads th;
  th

let fresh_share_group k =
  let g = k.next_share_group in
  k.next_share_group <- k.next_share_group + 1;
  g

let futex_queue k key =
  match Hashtbl.find_opt k.futexes key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace k.futexes key q;
    q

let find_proc k pid = Hashtbl.find_opt k.procs pid
