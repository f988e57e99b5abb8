(** Top-level multi-variant execution environment: wires the kernel hooks,
    monitors and replication machinery for one replica set. *)

open Remon_kernel
open Remon_sim

type backend =
  | Native (** one process, no monitoring (baseline) *)
  | Ghumvee_only (** cross-process lockstep for every call ("no IP-MON") *)
  | Varan (** in-process replication of everything, no lockstep *)
  | Remon (** the paper's hybrid *)

val backend_to_string : backend -> string

val backend_of_string : string -> backend option
(** Inverse of {!backend_to_string}; recordings store the backend by name. *)

(** What happens when a non-master replica diverges, crashes or stalls
    (re-export of {!Context.failure_policy}): [Kill_group] is the paper's
    treat-every-fault-as-an-attack behavior; [Quarantine] detaches the
    faulty replica and continues degraded; [Respawn] additionally replays
    the master syscall journal to bring a fresh replica back, with
    exponential backoff and a bounded respawn budget. *)
type failure_policy = Context.failure_policy =
  | Kill_group
  | Quarantine
  | Respawn of { max_respawns : int; backoff_ns : Vtime.t }

type config = {
  backend : backend;
  nreplicas : int;
  policy : Policy.t;
  diversity : Diversity.config;
  rb_size : int;
  seed : int;
  watchdog_ns : Vtime.t; (** rendezvous-stall detection *)
  watchdog_retries : int;
      (** stalled-rendezvous grace periods (each doubling the delay)
          before the watchdog escalates *)
  mode_override : Context.mode option;
      (** ablations; [None] = {!Context.default_mode} *)
  rb_migration_interval : Vtime.t option;
      (** Section 4 extension: periodically remap the RB to fresh
          randomized addresses *)
  on_failure : failure_policy;
  faults : Fault.plan; (** deterministic fault-injection plan; [[]] = none *)
  record : bool;
      (** capture the master's replicated stream into a {!Recording.t},
          surfaced as [outcome.recording] *)
  shm_key : int option;
      (** pin the group's SysV key instead of drawing from the
          process-global counter; replay sets this so shm traffic is
          byte-identical regardless of how many launches preceded the
          recording run. [None] (the default) allocates normally. *)
}

val on_failure_to_string : failure_policy -> string
(** ["kill-group"], ["quarantine"], or ["respawn:N:BACKOFF_NS"] — the
    fully-parameterized form recordings store. *)

val on_failure_of_string : string -> failure_policy option
(** Accepts the CLI's short forms too ([respawn], [respawn:N]). *)

val default_config : config
(** ReMon, 2 replicas, SOCKET_RW_LEVEL, ASLR + DCL, 16 MiB RB. *)

(** The replica's view of the MVEE runtime, handed to program bodies. *)
type env = {
  variant : int; (** 0 = master *)
  nreplicas : int;
  backend : backend;
  heap_base : int64; (** diversified heap placement *)
  lock : int -> unit; (** user-space mutex, record/replay ordered *)
  unlock : int -> unit;
  spawn_thread : (unit -> unit) -> int; (** clone; returns the tid *)
  diversified_ptr : int -> int64;
      (** a logical object id rendered as this replica's pointer value *)
}

val ptr_id : env -> int64 -> int option
(** The inverse of [env.diversified_ptr], in O(1): the id a pointer
    renders, or [None] for a value it never returns. *)

type handle = {
  kernel : Kernel.t;
  config : config;
  group : Context.group;
  ghumvee : Ghumvee.t option;
  agent : Record_replay.t;
  mutable fault : Fault.t option;
  mutable master_exit_ns : Vtime.t option;
  mutable exit_codes : (int * int) list;
  mutable heap_bases : int64 array;
}

type outcome = {
  duration : Vtime.t;
      (** master replica lifetime in virtual time; for a master that never
          exits (a server), the instant of the run's last simulated event *)
  verdict : Divergence.t option; (** [None] = clean run *)
  exit_codes : (int * int) list; (** (variant, code) *)
  syscalls : int;
  monitored : int;
  ipmon_fastpath : int;
  ptrace_stops : int;
  rendezvous : int;
  ipmon_fallbacks : int;
  rb_resets : int;
  rb_records : int;
  tokens_granted : int;
  tokens_rejected : int;
  faults_injected : int; (** fault-plan specs that actually fired *)
  quarantines : int; (** replicas detached by the recovery policy *)
  respawns : int; (** replicas relaunched under [Respawn] *)
  degraded_ns : Vtime.t; (** time with at least one replica detached *)
  watchdog_retries : int; (** rendezvous grace periods granted *)
  metrics : (string * string) list;
      (** observability summary (key-sorted name/value rows, see
          {!Remon_obs.Metrics.summary}); [[]] when tracing is off *)
  recording : Recording.t option;
      (** the captured stream, when [config.record] was set *)
}

val header_of_config : config -> workload:string -> Recording.header
(** The recording header describing this configuration. *)

val launch : Kernel.t -> config -> name:string -> body:(env -> unit) -> handle
(** Spawns the replica set; every replica runs [body]. Drive the simulation
    with [Kernel.run], then collect the [outcome] with [finish]. *)

val master_process : handle -> Proc.process
(** The current master process (variant 0). Fleet controllers watch it with
    {!Kernel.on_process_exit} to detect whole-instance failure. *)

val stop : handle -> unit
(** Graceful operator stop: kills every replica with exit code 0, records
    no verdict, and silences pending watchdogs. The instance's descriptors
    (listener port included) are released immediately, so a successor can
    rebind the same port. Used by fleet rolling restarts. *)

val recording : handle -> Recording.t option
(** A snapshot of the group's stream store as a recording, with the verdict
    so far; [None] unless [config.record] was set. {!finish} takes one for
    [outcome.recording]; fleet reproducer dumps take one from handles that
    are never finished. *)

val finish : handle -> outcome

val run_program :
  ?cost:Cost_model.t ->
  ?net_latency:Vtime.t ->
  config ->
  name:string ->
  body:(env -> unit) ->
  outcome
(** One-shot convenience: fresh kernel, launch, run to completion. *)
