(* Kernel state: every subsystem instance of one simulated host. The MVEE
   layers' hooks (the IK-B broker, fault injection, ptrace tracers, IP-MON)
   ride on the processes they apply to, not on the kernel. *)

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

(* Futex wait queues, keyed by physical backing (shared segments give the
   same key in every attached process). *)
type futex_waiter = {
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
  flocks : (int, int) Hashtbl.t;
      (* advisory exclusive file locks: inode -> holder pid *)
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
    flocks = Hashtbl.create 8;
    epoch_offset_ns = 1_600_000_000_000_000_000L;
    obs = None;
    hostnet = None;
  }

let now k = Sched.now k.sched

let charge (th : Proc.thread) ns =
  th.clock <- Vtime.add th.clock (Vtime.ns (Int.max 0 ns))

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
      ikb_token = None;
      fiber = None;
      resume_thunk = ignore;
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
