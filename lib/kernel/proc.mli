(** Process and thread control blocks, file descriptors, and the
    ptrace-style tracer interface. These types are shared by the scheduler,
    the syscall dispatcher and the MVEE monitors, and are therefore fully
    transparent. *)

open Remon_sim
open Remon_util

module IntSet : Set.S with type elt = int

(* ------------------------------------------------------------------ *)
(* File descriptors *)

(* A process's real timer or a timerfd: armed at [armed_at] to expire
   [spec.value_ns] later, then every [spec.interval_ns]; [None] disarmed. *)
type timer = {
  mutable spec : Syscall.itimer_spec option;
  mutable armed_at : Vtime.t;
  mutable expirations : int; (* expirations a timerfd read consumed *)
}

type eventfd_state = { mutable count : int }

type desc_kind =
  | Regular of Vfs.node
  | Directory of Vfs.node
  | Pipe of Pipe.t (* either end: the access mode tells which *)
  | Listener of Net.listener
  | Stream of Net.stream
  | Epoll_fd of Epoll.t
  | Timer_fd of timer
  | Event_fd of eventfd_state
  | Dev_null
  | Proc_maps of { mutable content : string }
      (* snapshot of /proc/self/maps taken at open time *)
  | Replicated_handle of int
      (* slave-side stub installed by the MVEE: the fd number exists so
         that fd allocation stays in lockstep across replicas, but all I/O
         on it is satisfied by replicated master results. The int is the
         master's matching fd number. *)

type desc = {
  mutable kind : desc_kind;
  mutable offset : int;
  mutable nonblock : bool;
  mutable refs : int; (* fd-table entries sharing this description (dup) *)
  can_read : bool;
  can_write : bool;
  append : bool;
}

(* ------------------------------------------------------------------ *)
(* ptrace *)

(* A traced thread's stops. Only an entry stop reads the tracer's answer;
   a signal-delivery stop hands the asynchronous signal to the tracer,
   which keeps it: the kernel drops it from pending after the stop. *)
type stop_reason =
  | Syscall_entry_stop of Syscall.call
  | Syscall_exit_stop of Syscall.call * Syscall.result
  | Signal_delivery_stop of int
  | Exit_stop of int

type resume_action =
  | Resume_continue (* execute the call *)
  | Resume_skip of Syscall.result (* do not execute it; inject the result *)

(* ------------------------------------------------------------------ *)
(* Replica hooks *)

(* Routing decision taken by the IK-B broker at syscall entry (Figure 2). *)
type route =
  | Route_plain (* no broker/tracer interest: execute directly *)
  | Route_ipmon of int64 (* forward to IP-MON with this one-time token *)
  | Route_monitor (* report to the CP monitor via ptrace *)

(* Fault-injection decision, consulted once per syscall entry before broker
   routing. The MVEE's fault layer supplies it; the kernel stays agnostic
   of fault *plans* and only knows how to apply a decision, so the monitors
   observe injected failures through their normal detection paths. *)
type fault_decision =
  | Fault_none
  | Fault_crash of int (* kill the process as if a fatal signal hit mid-call *)
  | Fault_rewrite of Syscall.call (* corrupted argument capture *)
  | Fault_delay of Vtime.t (* stall this arrival before routing it *)
  | Fault_result of Syscall.result (* complete immediately (transient errors) *)

(* ------------------------------------------------------------------ *)
(* Threads and processes *)

type thread_state =
  | Ready (* a scheduled event will run or resume it *)
  | Blocked of Waitq.entry (* parked: on a wait queue, or on none *)
  | Trace_stopped of (resume_action, unit) Effect.Deep.continuation
      (* the stopped fiber, continued by [Kernel.resume] *)
  | Dead

type process = {
  pid : int;
  mutable parent_pid : int;
  mutable name : string;
  fds : desc Fdtable.t;
  vm : Vm.t;
  mutable cwd : string;
  sig_actions : (int, Syscall.sig_action) Hashtbl.t;
  mutable sig_mask : IntSet.t;
  pending_signals : int Queue.t;
  threads : thread Vec.t; (* in spawn order *)
  mutable next_tid_rank : int;
  mutable alive : bool;
  mutable reaped : bool; (* consumed by a wait4 *)
  mutable exit_code : int;
  mutable tracer : (thread -> stop_reason -> unit) option;
      (* invoked when a traced thread stops, once its fiber is suspended;
         the thread stays [Trace_stopped] until [Kernel.resume] *)
  mutable entry_table : (unit -> unit) array;
      (* thread entry points for Clone; index = logical function identity *)
  mutable ipmon_registered : ipmon_registration option;
  mutable ipmon_staged : ipmon_registration option;
      (* prepared by IP-MON before it issues ipmon_register (the invoke
         closure cannot travel through the syscall); consumed by that call *)
  real_timer : timer; (* ITIMER_REAL, which alarm arms too *)
  mutable replica_info : replica_info option;
      (* set by the MVEE when this process is a managed replica *)
  mutable exit_waiters : (int -> unit) list;
      (* parents blocked in wait4, monitors awaiting death *)
}

and thread = {
  tid : int;
  proc : process;
  rank : int; (* index within process, identical across replicas *)
  mutable clock : Vtime.t; (* local virtual time *)
  mutable tstate : thread_state;
  mutable syscall_index : int; (* entries so far: rendezvous identity *)
  pending_delivery : int Queue.t; (* signals to run handlers for, set at syscall return *)
  mutable in_ipmon : bool; (* executing inside IP-MON's entry point *)
  mutable ikb_token : ikb_token option;
      (* IK-B's latest grant to this thread, kept on the thread as the
         kernel keeps it per task: a respawned replica's threads start
         with none *)
  mutable fiber : (unit, unit) Effect.Deep.continuation option;
      (* the thread's suspended fiber while it waits or returns to user
         code; managed by [Sched] *)
  mutable resume_thunk : unit -> unit;
      (* the return to user code at [clock], allocated once at spawn *)
}

and ikb_token = {
  mutable value : int64; (* never zero *)
  mutable granted_for : Syscall.call;
  mutable live : bool;
  mutable temporal : bool; (* granted by temporal (not spatial) exemption *)
}

and ipmon_registration = {
  unmonitored : Sysno.mask; (* the set the registering call names *)
  rb_addr : int64; (* where the RB is mapped in this replica *)
  invoke : thread -> token:int64 -> call:Syscall.call -> Syscall.result;
      (* the IP-MON code itself, installed by the MVEE at registration *)
}

and replica_info = {
  variant_index : int; (* 0 = master *)
  classify : (thread -> Syscall.call -> route) option;
      (* the group's IK-B interceptor, called once per syscall entry; None
         when the group runs without a broker (native, GHUMVEE only) *)
  fault : (thread -> Syscall.call -> fault_decision) option;
      (* the group's fault-injection hook, consulted before routing *)
}

val thread_name : thread -> string

val desc_of_fd : process -> int -> desc option

val make_desc :
  ?nonblock:bool ->
  ?can_read:bool ->
  ?can_write:bool ->
  ?append:bool ->
  desc_kind ->
  desc

(** File-map classification byte (Section 3.6 of the paper). *)
type fd_class = Fd_regular | Fd_pipe | Fd_socket | Fd_pollfd | Fd_special

val classify_desc : desc -> fd_class
val fd_class_to_string : fd_class -> string
