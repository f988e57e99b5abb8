(** Kernel facade: construction, process management, ptrace attachment, the
    IP-MON hookup, and the run loop. This is the main entry point for MVEE
    layers and workloads; shared data types live in {!Proc} and
    {!Syscall}. A replica's IK-B interceptor and fault hook ride on its
    {!Proc.replica_info}, given at spawn, and IP-MON stages its
    registration in [Proc.process.ipmon_staged]; the kernel keeps no
    registry of either. *)

open Remon_sim

type t = Kstate.t

val create :
  ?cost:Cost_model.t ->
  ?seed:int ->
  ?net_latency:Vtime.t ->
  ?sock_buf:int ->
  unit ->
  t
(** A fresh simulated machine: empty process table, standard filesystem
    fixture (/tmp, /etc, /dev, /var/www, ...), one network with the given
    one-way link latency. [?sock_buf] sets the default per-stream
    send/receive buffer cap (see {!Net.default_bufcap}); individual
    sockets can override it via [SO_SNDBUF]/[SO_RCVBUF]. *)

(** {1 Introspection} *)

val state : t -> Kstate.t
val sched : t -> Sched.t
val vfs : t -> Vfs.t
val net : t -> Net.t
val shm_registry : t -> Shm.t
val cost : t -> Cost_model.t
val stats : t -> Kstate.counters
val now : t -> Vtime.t

(** {1 Processes} *)

val make_process :
  t ->
  ?replica_info:Proc.replica_info ->
  ?parent:int ->
  name:string ->
  vm_seed:int ->
  unit ->
  Proc.process
(** A process control block with its own (ASLR-seeded) address space; no
    threads yet. *)

val add_thread : t -> Proc.process -> start_clock:Vtime.t -> Proc.thread
(** A new, not yet scheduled thread of the process (next tid and rank). *)

val spawn_process :
  t ->
  ?replica_info:Proc.replica_info ->
  ?entries:(unit -> unit) array ->
  ?start_clock:Vtime.t ->
  name:string ->
  vm_seed:int ->
  (unit -> unit) ->
  Proc.process
(** Creates a process whose main thread runs the given body (an effect-
    performing coroutine); [entries] seeds the Clone entry table. *)

val on_process_exit : Proc.process -> (int -> unit) -> unit
(** Runs the callback with the exit code when the process dies (or
    immediately if it is already dead). *)

(** {1 Tracing (ptrace)} *)

val attach_tracer : Proc.process -> Proc.tracer -> unit

val resume : t -> Proc.thread -> Proc.resume_action -> unit
(** Resume a trace-stopped thread: its fiber continues at once, also from
    inside the tracer's own [on_stop]. Raises [Invalid_argument] if the
    thread is not stopped. *)

val interrupt_blocked : t -> Proc.thread -> Syscall.result -> bool
(** Force-complete a blocked syscall (GHUMVEE's Section 3.8 abort).
    Returns false if the thread was not interruptibly blocked. *)

val inject_signal_now : t -> Proc.thread -> int -> unit
(** Re-initiate a deferred signal at a rendezvous point, bypassing further
    delivery stops. *)

val post_signal : t -> Proc.process -> int -> unit
val kill_process : t -> Proc.process -> code:int -> unit

(** {1 IP-MON hookup} *)

val execute_raw : t -> Proc.thread -> Syscall.call -> Syscall.result
(** Stop-free execution used by IP-MON once the token verified, on the
    calling thread's fiber. *)

val monitor_path : t -> Proc.thread -> Syscall.call -> Syscall.result
(** Re-enter the monitored (ptrace) path for a call IP-MON declined
    (Figure 2, step 4'). *)

val wait_until : t -> Proc.thread -> what:string -> poll:(unit -> 'a option) -> 'a
(** Park a thread until [poll] succeeds, and answer its value; for
    monitor-internal waits (IP-MON slaves waiting on the replication
    buffer). These waits are retried by every {!kick}. A forced wake
    ({!interrupt_blocked}) re-parks the thread instead of completing the
    wait. *)

val kick : t -> unit
(** Schedules a retry sweep; call after mutating shared state that a
    {!wait_until} poll reads. *)

val schedule : t -> time:Vtime.t -> (unit -> unit) -> unit

val schedule_at : t -> time:Vtime.t -> (unit -> unit) -> Event_queue.handle
(** {!schedule}, returning a handle that {!cancel} takes. *)

val cancel : t -> Event_queue.handle -> unit

(** {1 Running} *)

val run : t -> unit
(** Drain the event queue. Returns when no events remain; threads still
    blocked at that point are either servers waiting for input or
    deadlocks. *)

(** {1 Observability} *)

val set_obs : t -> Remon_obs.Obs.t -> unit
(** Attach a structured trace/metrics sink. Emission points throughout
    the dispatcher and monitors stamp events with virtual time only, so a
    given seed yields a byte-identical exported trace. *)

val obs : t -> Remon_obs.Obs.t option
(** The attached sink, if any ([None] = observability off, the zero-cost
    path). *)

val route_lines : Remon_obs.Obs.t -> string list
(** The sink's routing instants in chronological order, one
    ["[t] pid=P tid=T #I call -> route"] line per routed syscall, where [t]
    is the thread's virtual clock after the trap. *)
