(* Top-level multi-variant execution environment.

   Wires together the kernel hooks, monitors and replication machinery for
   one replica set, under one of four backends:

   - [Native]       : one process, no monitoring (the baseline).
   - [Ghumvee_only] : the cross-process monitor alone — every syscall is
                      monitored in lockstep (the paper's "no IP-MON" bars).
   - [Varan]        : in-process replication of *all* calls, no lockstep,
                      no kernel broker protection (the reliability-oriented
                      baseline of Hosek & Cadar).
   - [Remon]        : the paper's hybrid — GHUMVEE for sensitive calls,
                      IP-MON + IK-B for policy-exempt calls. *)

open Remon_kernel
open Remon_sim

type backend = Native | Ghumvee_only | Varan | Remon

let backend_to_string = function
  | Native -> "native"
  | Ghumvee_only -> "ghumvee"
  | Varan -> "varan"
  | Remon -> "remon"

let backend_of_string = function
  | "native" -> Some Native
  | "ghumvee" -> Some Ghumvee_only
  | "varan" -> Some Varan
  | "remon" -> Some Remon
  | _ -> None

(* Re-exported so callers can say [Mvee.Quarantine]. *)
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
  watchdog_ns : Vtime.t;
  mode_override : Context.mode option;
      (* ablations; None = Context.default_mode *)
  rb_migration_interval : Vtime.t option;
      (* Section 4 extension: IK-B periodically moves the RB to a fresh
         virtual address by remapping the replicas' page tables, further
         lowering the odds of a successful guessing attack *)
  on_failure : failure_policy;
  faults : Fault.plan; (* deterministic fault-injection plan; [] = none *)
  record : bool; (* capture the replicated stream into outcome.recording *)
  shm_key : int option;
      (* pin the group's SysV key instead of drawing from the process-global
         counter; replay sets this so shm traffic is byte-identical no
         matter how many launches preceded the recording run *)
}

let on_failure_to_string = function
  | Kill_group -> "kill-group"
  | Quarantine -> "quarantine"
  | Respawn { max_respawns; backoff_ns } ->
    Printf.sprintf "respawn:%d:%d" max_respawns
      (Vtime.to_int_ns backoff_ns)

let on_failure_of_string s =
  match String.split_on_char ':' s with
  | [ "kill-group" ] | [ "kill" ] -> Some Kill_group
  | [ "quarantine" ] -> Some Quarantine
  | [ "respawn" ] -> Some (Respawn { max_respawns = 3; backoff_ns = Vtime.ms 1 })
  | [ "respawn"; n ] -> (
    match int_of_string_opt n with
    | Some max_respawns -> Some (Respawn { max_respawns; backoff_ns = Vtime.ms 1 })
    | None -> None)
  | [ "respawn"; n; ns ] -> (
    match (int_of_string_opt n, int_of_string_opt ns) with
    | Some max_respawns, Some ns ->
      Some (Respawn { max_respawns; backoff_ns = Vtime.ns ns })
    | _ -> None)
  | _ -> None

let default_config =
  {
    backend = Remon;
    nreplicas = 2;
    policy = Policy.spatial Classification.Socket_rw_level;
    diversity = Diversity.default;
    rb_size = Replication_buffer.default_size;
    seed = 42;
    watchdog_ns = Vtime.s 30;
    mode_override = None;
    rb_migration_interval = None;
    on_failure = Kill_group;
    faults = [];
    record = false;
    shm_key = None;
  }

(* The recording header describing a configuration; [workload] is the
   registry name when the caller knows it (the CLI does), [""] otherwise. *)
let header_of_config (config : config) ~workload =
  {
    Recording.backend = backend_to_string config.backend;
    nreplicas = config.nreplicas;
    seed = config.seed;
    level = Policy.level_to_string config.policy;
    on_failure = on_failure_to_string config.on_failure;
    faults = Fault.to_string config.faults;
    workload;
    shm_key = Option.value config.shm_key ~default:0;
  }

(* The replica's view of the MVEE runtime, handed to program bodies. *)
type env = {
  variant : int;
  nreplicas : int;
  backend : backend;
  heap_base : int64; (* diversified heap placement: the program's "pointers" *)
  lock : int -> unit; (* user-space mutex, record/replay ordered *)
  unlock : int -> unit;
  spawn_thread : (unit -> unit) -> int;
  diversified_ptr : int -> int64;
      (* a logical object id rendered as this replica's pointer value *)
}

(* Object [id] of a replica lives at [heap_base + 65536 + 16 id], so the
   same object carries a different pointer in every replica, as under
   ASLR. [ptr_id] inverts the encoding in O(1). *)
let ptr_of_id ~heap_base id =
  Int64.add heap_base (Int64.of_int (65536 + (id * 16)))

let ptr_id env ptr =
  let off = Int64.to_int (Int64.sub ptr env.heap_base) - 65536 in
  if off >= 0 && off land 15 = 0 then Some (off / 16) else None

type handle = {
  kernel : Kernel.t;
  config : config;
  group : Context.group;
  ghumvee : Ghumvee.t option;
  agent : Record_replay.t;
  mutable fault : Fault.t option;
  mutable master_exit_ns : Vtime.t option;
  mutable exit_codes : (int * int) list; (* variant, code *)
  mutable heap_bases : int64 array;
}

type outcome = {
  duration : Vtime.t; (* master replica lifetime in virtual time *)
  verdict : Divergence.t option;
  exit_codes : (int * int) list;
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
  (* resilience telemetry *)
  faults_injected : int;
  quarantines : int;
  respawns : int;
  degraded_ns : Vtime.t; (* time spent with at least one replica detached *)
  watchdog_retries : int;
  metrics : (string * string) list;
      (* the observability summary (key-sorted); [] when tracing is off *)
  recording : Recording.t option; (* the captured stream, when config.record *)
}

(* Atomic: groups are created from concurrently running simulations when
   the experiment harness fans runs out across domains. The key only needs
   to stay above [Context.mvee_shm_key_base], so cross-run numbering does
   not affect simulated behaviour. *)
let shm_key_counter = Atomic.make 0

(* ------------------------------------------------------------------ *)

let make_group kernel (config : config) nreplicas =
  let shm_serial = Atomic.fetch_and_add shm_key_counter 1 + 1 in
  let mode = Option.value config.mode_override ~default:Context.default_mode in
  let ikb =
    Ikb.create ~kernel ~policy:config.policy ~seed:config.seed ~nreplicas
  in
  if config.backend = Varan then ikb.Ikb.route_all <- true;
  let rb = Replication_buffer.create ~size_bytes:config.rb_size ~nreplicas in
  {
    Context.kernel;
    nreplicas;
    policy = config.policy;
    mode;
    rb;
    file_map = File_map.create ();
    epoll_map = Epoll_map.create ~nreplicas;
    ikb;
    shm_key =
      (match config.shm_key with
      | Some key -> key
      | None -> Context.mvee_shm_key_base + (shm_serial * 16));
    replicas = [||];
    divergence = None;
    shutdown = false;
    ipmon_fallbacks = 0;
    quarantined = Array.make nreplicas false;
    replica_fault_handler = None;
    quarantines = 0;
    respawns = 0;
    watchdog_retries = 0;
    degraded_since = None;
    degraded_ns = Vtime.zero;
    caught_up_at = None;
  }

let make_env (h : handle) ~variant ~nreplicas : env =
  let agent = h.agent in
  (* lock words live past the heap base, at diversified addresses *)
  let word_addr id = Int64.add h.heap_bases.(variant) (Int64.of_int (4096 + (id * 64))) in
  let lock id =
    let th = Sched.self () in
    let proc = th.Proc.proc in
    let addr = word_addr id in
    if variant > 0 then
      Record_replay.slave_gate agent ~variant ~lock_id:id ~thread_rank:th.Proc.rank;
    (* user-space acquire: check-and-set inside the wait condition so at
       most one waiter wins per wakeup *)
    Sched.wait_user (fun () ->
        if Vm.read_word proc.Proc.vm addr = 0 then begin
          Vm.write_word proc.Proc.vm addr 1;
          true
        end
        else false);
    if variant = 0 then
      Record_replay.master_acquired agent ~lock_id:id ~thread_rank:th.Proc.rank;
    Kernel.kick h.kernel
  in
  let unlock id =
    let th = Sched.self () in
    let proc = th.Proc.proc in
    Vm.write_word proc.Proc.vm (word_addr id) 0;
    Kernel.kick h.kernel
  in
  let spawn_thread body =
    let th = Sched.self () in
    let proc = th.Proc.proc in
    let idx = Array.length proc.Proc.entry_table in
    proc.Proc.entry_table <- Array.append proc.Proc.entry_table [| body |];
    match Sched.syscall (Syscall.Clone idx) with
    | Syscall.Ok_int tid -> tid
    | r -> failwith (Format.asprintf "spawn_thread: clone failed: %a" Syscall.pp_result r)
  in
  {
    variant;
    nreplicas;
    backend = h.config.backend;
    heap_base = h.heap_bases.(variant);
    lock;
    unlock;
    spawn_thread;
    diversified_ptr = ptr_of_id ~heap_base:h.heap_bases.(variant);
  }

(* Launches the replica set. [body] is the program every replica runs. *)
let launch (kernel : Kernel.t) (config : config) ~name
    ~(body : env -> unit) : handle =
  let nreplicas = match config.backend with Native -> 1 | _ -> config.nreplicas in
  let group = make_group kernel config nreplicas in
  let ghumvee =
    match config.backend with
    | Ghumvee_only | Remon ->
      Some (Ghumvee.create group ~watchdog_ns:config.watchdog_ns)
    | Native | Varan -> None
  in
  let agent =
    Record_replay.create ~kernel ~log:group.Context.rb.Replication_buffer.sync_log
      ~enabled:(nreplicas > 1)
  in
  (* one store of the master's stream serves both consumers: a recording
     snapshots it, and the Respawn policy resynchronizes fresh replicas
     from it. Runs with neither skip its memory cost. *)
  let respawn =
    match config.on_failure with
    | Context.Respawn _ -> true
    | Context.Kill_group | Context.Quarantine -> false
  in
  if config.record || respawn then
    Record_log.enable_capture group.Context.rb.Replication_buffer.sync_log;
  let handle =
    {
      kernel;
      config;
      group;
      ghumvee;
      agent;
      fault = None;
      master_exit_ns = None;
      exit_codes = [];
      heap_bases = Array.make nreplicas 0L;
    }
  in
  (* when the kernel carries an observability sink, the RB reports into it
     too (it holds no kernel reference of its own) *)
  (match Kernel.obs kernel with
  | Some o ->
    group.Context.rb.Replication_buffer.obs <-
      Some (o, fun () -> Kernel.now kernel)
  | None -> ());
  (* wire the deterministic fault plan into the RB hook; the kernel-path
     hook rides on each replica's [replica_info] below *)
  if config.faults <> [] then begin
    let f = Fault.make ~seed:config.seed config.faults in
    Fault.install f ~kernel ~rb:group.Context.rb;
    handle.fault <- Some f
  end;
  (* what every replica of this group, respawns included, carries into the
     kernel's syscall path: IK-B's interceptor (VARAN and ReMon) and the
     fault hook. Several groups (a fleet) can share one kernel. *)
  let replica_info =
    let classify =
      match config.backend with
      | Varan | Remon ->
        let ikb = group.Context.ikb in
        Some (fun th call -> Ikb.classify ikb th call)
      | Native | Ghumvee_only -> None
    in
    let fault = Option.map Fault.decide handle.fault in
    fun variant -> { Proc.variant_index = variant; classify; fault }
  in
  (* spawn parameters are factored out so a Respawn can relaunch a variant
     bit-identically: same vm seed, same body *)
  let vm_seed_for variant =
    if config.diversity.Diversity.aslr then
      (config.seed * 7919) + (variant * 104729) + 13
    else config.seed
  in
  let replica_main variant () =
    let th = Sched.self () in
    let proc = th.Proc.proc in
    (match Diversity.apply config.diversity proc ~variant with
    | Ok (_code_base, heap_base) -> handle.heap_bases.(variant) <- heap_base
    | Error e -> failwith ("diversity layout failed: " ^ Errno.to_string e));
    (match config.backend with
    | Varan -> ignore (Ipmon.init ~calls:Sysno.all group ~variant)
    | Remon -> ignore (Ipmon.init group ~variant)
    | Native | Ghumvee_only -> ());
    let env = make_env handle ~variant ~nreplicas in
    body env;
    ignore (Sched.syscall (Syscall.Exit_group 0))
  in
  (* Master-crash containment (all backends, including Native and Varan):
     an abnormal master exit must surface as a [Replica_crash] verdict with
     the rest of the group torn down — not hang until the watchdog. Slave
     crashes are first offered to the recovery policy. *)
  let watch_exit variant (p : Proc.process) =
    Kernel.on_process_exit p (fun code ->
        handle.exit_codes <- (variant, code) :: handle.exit_codes;
        if variant = 0 then handle.master_exit_ns <- Some (Kernel.now kernel);
        if
          code >= 128
          && (not group.Context.shutdown)
          && not (Context.is_quarantined group variant)
        then begin
          let verdict = Divergence.Replica_crash { variant; signal = code - 128 } in
          if variant = 0 then begin
            (* dead master: tear the group down; pending I/O of the other
               replicas is drained by their kills *)
            group.Context.shutdown <- true;
            Context.set_divergence group verdict;
            Array.iter
              (fun (q : Proc.process) ->
                if q != p && q.Proc.alive then
                  Kernel.kill_process kernel q ~code:134)
              group.Context.replicas
          end
          else if not (Context.replica_fault group ~variant verdict) then
            (* slave crash, policy declined: record the fatal verdict.
               GHUMVEE backends additionally kill the group from their own
               exit waiter; lockstep-free backends (VARAN) keep the master
               running — detection without prevention, as the paper says *)
            Context.set_divergence group verdict
        end)
  in
  let replicas =
    Array.init nreplicas (fun variant ->
        Kernel.spawn_process kernel ~replica_info:(replica_info variant)
          ~name:(Printf.sprintf "%s-v%d" name variant)
          ~vm_seed:(vm_seed_for variant) (replica_main variant))
  in
  group.Context.replicas <- replicas;
  group.Context.ikb.Ikb.master_proc <- Some replicas.(0);
  (* the recovery policy: what [Context.replica_fault] dispatches to *)
  let respawn_attempts = Array.make nreplicas 0 in
  let rec do_respawn variant =
    match ghumvee with
    | None -> ()
    | Some g ->
      if (not group.Context.shutdown) && Context.is_quarantined group variant
      then begin
        group.Context.respawns <- group.Context.respawns + 1;
        (* the replica re-consumes the whole sync-event history *)
        Record_log.reset_variant group.Context.rb.Replication_buffer.sync_log
          ~variant;
        Ghumvee.begin_replay g ~variant;
        (* spawning and re-diversifying a fresh replica is monitor work *)
        ignore
          (Ghumvee.monitor_work g ~earliest:(Kernel.now kernel)
             ~work_ns:(Kernel.cost kernel).Cost_model.respawn_spawn_ns);
        let p =
          Kernel.spawn_process kernel ~replica_info:(replica_info variant)
            ~name:
              (Printf.sprintf "%s-v%d-r%d" name variant
                 respawn_attempts.(variant))
            ~vm_seed:(vm_seed_for variant)
            ~start_clock:(Kernel.now kernel) (replica_main variant)
        in
        group.Context.replicas.(variant) <- p;
        Ghumvee.attach g p;
        watch_exit variant p;
        (* A respawn that dies before rejoining lockstep — still replaying
           the journal, e.g. a second injected crash mid-replay — is a
           failed attempt, not a monitor-controlled death. Purge the stale
           replay state (parked [waiting_replay] arrivals of the dead
           incarnation would otherwise be fed into the next incarnation's
           journal positions) so the next attempt re-consumes the journal
           and lock-order log from position zero, then retry within budget.
           Replay-mismatch kills drop the variant from the replaying set
           before killing, so they stay permanently quarantined as designed. *)
        Kernel.on_process_exit p (fun code ->
            if
              code >= 128
              && (not group.Context.shutdown)
              && Ghumvee.is_replaying g ~variant
            then begin
              Ghumvee.purge_variant g ~variant;
              match config.on_failure with
              | Context.Respawn { max_respawns; backoff_ns } ->
                schedule_respawn variant ~max_respawns ~backoff_ns
              | _ -> ()
            end)
      end
  and schedule_respawn variant ~max_respawns ~backoff_ns =
    if respawn_attempts.(variant) < max_respawns then begin
      let attempt = respawn_attempts.(variant) in
      respawn_attempts.(variant) <- attempt + 1;
      (* exponential backoff: 1x, 2x, 4x, ... the configured interval *)
      let delay = Vtime.scale backoff_ns (2. ** float_of_int attempt) in
      Kernel.schedule kernel
        ~time:(Vtime.add (Kernel.now kernel) delay)
        (fun () -> do_respawn variant)
    end
  in
  (match config.on_failure with
  | Context.Kill_group -> () (* the paper's behavior: no handler installed *)
  | Context.Quarantine | Context.Respawn _ ->
    group.Context.replica_fault_handler <-
      Some
        (fun ~variant _verdict ->
          if variant = 0 || group.Context.shutdown then false
          else if Context.is_quarantined group variant then true
          else begin
            Context.quarantine group ~variant;
            Replication_buffer.deactivate group.Context.rb ~variant;
            let p = group.Context.replicas.(variant) in
            if p.Proc.alive then Kernel.kill_process kernel p ~code:134;
            (match ghumvee with
            | Some g -> Ghumvee.purge_variant g ~variant
            | None -> ());
            (match config.on_failure with
            | Context.Respawn { max_respawns; backoff_ns } when ghumvee <> None
              ->
              schedule_respawn variant ~max_respawns ~backoff_ns
            | _ -> ());
            true
          end));
  (* Section 4 extension: periodic RB migration. The broker remaps every
     replica's shared segments to fresh randomized addresses; IP-MON's
     register-held pointer is updated atomically (it never lived in
     user-accessible memory, so nothing else needs patching). *)
  (match config.rb_migration_interval with
  | None -> ()
  | Some interval ->
    let migrations = ref 0 in
    let ticks = ref 0 in
    let rec migrate () =
      incr ticks;
      let alive = Array.exists (fun (p : Proc.process) -> p.Proc.alive) replicas in
      (* the tick cap keeps the event queue finite for perpetual servers *)
      if alive && (not group.Context.shutdown) && !ticks <= 256 then begin
        Array.iter
          (fun (p : Proc.process) ->
            if p.Proc.alive then begin
              let shm_regions =
                List.filter
                  (fun (r : Vm.region) ->
                    match r.Vm.backing with Vm.Shm_seg _ -> true | _ -> false)
                  p.Proc.vm.Vm.regions
              in
              List.iter
                (fun (r : Vm.region) ->
                  let { Vm.len; prot; backing; tag; start } = r in
                  match Vm.unmap p.Proc.vm ~addr:start ~len with
                  | Error _ -> ()
                  | Ok () -> (
                    match Vm.map p.Proc.vm ~len ~prot ~backing ~tag with
                    | Ok r' -> (
                      incr migrations;
                      match p.Proc.ipmon_registered with
                      | Some reg when Int64.equal reg.Proc.rb_addr start ->
                        p.Proc.ipmon_registered <-
                          Some { reg with Proc.rb_addr = r'.Vm.start }
                      | _ -> ())
                    | Error _ -> ()))
                shm_regions
            end)
          replicas;
        Kernel.schedule kernel ~time:(Vtime.add (Kernel.now kernel) interval) migrate
      end
    in
    Kernel.schedule kernel ~time:(Vtime.add (Kernel.now kernel) interval) migrate);
  (match ghumvee with
  | Some g -> Array.iter (fun p -> Ghumvee.attach g p) replicas
  | None -> ());
  Array.iteri watch_exit replicas;
  handle

(* The current master process (variant 0), across respawn generations. *)
let master_process (h : handle) = h.group.Context.replicas.(0)

(* Graceful operator stop: no verdict, exit code 0, pending watchdogs go
   quiet. Used by fleet rolling restarts; the freed descriptors (listener
   port included) are released immediately, so a successor instance can
   rebind the same port. *)
let stop (h : handle) =
  h.group.Context.shutdown <- true;
  (match h.ghumvee with Some g -> Ghumvee.quiesce g | None -> ());
  Array.iter
    (fun (p : Proc.process) ->
      if p.Proc.alive then Kernel.kill_process h.kernel p ~code:0)
    h.group.Context.replicas

(* The recording so far: a snapshot of the group's stream store. The
   header pins the key the group actually drew, so a replay reproduces the
   exact same shm traffic. *)
let recording (h : handle) =
  if not h.config.record then None
  else
    Some
      {
        Recording.header =
          {
            (header_of_config h.config ~workload:"") with
            Recording.shm_key = h.group.Context.shm_key;
          };
        events = Record_log.events h.group.Context.rb.Replication_buffer.sync_log;
        verdict =
          Option.map
            (fun v -> (Divergence.class_of v, Divergence.to_string v))
            h.group.Context.divergence;
      }

(* Collects the outcome after [Kernel.run] has drained the simulation. *)
let finish (h : handle) : outcome =
  let st = Kernel.stats h.kernel in
  let metrics =
    match Kernel.obs h.kernel with
    | None -> []
    | Some o ->
      (* fold the scheduler's event-queue tallies into the summary *)
      let eq =
        Event_queue.stats (Kernel.sched h.kernel).Sched.events
      in
      let m = o.Remon_obs.Obs.metrics in
      Remon_obs.Metrics.add m "eq.adds" eq.Event_queue.adds;
      Remon_obs.Metrics.add m "eq.cancels" eq.Event_queue.cancels;
      Remon_obs.Metrics.add m "eq.pops" eq.Event_queue.pops;
      Remon_obs.Metrics.add m "eq.compactions" eq.Event_queue.compactions;
      Remon_obs.Metrics.add m "eq.lazy_drops" eq.Event_queue.lazy_drops;
      Remon_obs.Metrics.add m "epoll.untranslatable"
        (Epoll_map.untranslatable h.group.Context.epoll_map);
      Remon_obs.Metrics.add m "recovery.quarantines" h.group.Context.quarantines;
      Remon_obs.Metrics.add m "recovery.respawns" h.group.Context.respawns;
      Remon_obs.Metrics.add m "recovery.watchdog_retries"
        h.group.Context.watchdog_retries;
      Remon_obs.Metrics.summary m
  in
  {
    duration = (match h.master_exit_ns with Some t -> t | None -> Kernel.now h.kernel);
    verdict = h.group.Context.divergence;
    exit_codes = List.sort compare h.exit_codes;
    syscalls = st.Kstate.syscalls;
    monitored = st.Kstate.monitored;
    ipmon_fastpath = st.Kstate.ipmon_fastpath;
    ptrace_stops = st.Kstate.ptrace_stops;
    rendezvous = (match h.ghumvee with Some g -> Ghumvee.rendezvous_count g | None -> 0);
    ipmon_fallbacks = h.group.Context.ipmon_fallbacks;
    rb_resets = h.group.Context.rb.Replication_buffer.resets;
    rb_records = h.group.Context.rb.Replication_buffer.total_records;
    tokens_granted = st.Kstate.tokens_granted;
    tokens_rejected = st.Kstate.tokens_rejected;
    faults_injected = (match h.fault with Some f -> Fault.injected f | None -> 0);
    quarantines = h.group.Context.quarantines;
    respawns = h.group.Context.respawns;
    degraded_ns =
      Context.degraded_total h.group
        ~until:
          (match h.master_exit_ns with
          | Some t -> t
          | None -> Kernel.now h.kernel);
    watchdog_retries = h.group.Context.watchdog_retries;
    metrics;
    recording = recording h;
  }

(* One-shot convenience: fresh kernel, launch, run to completion. *)
let run_program ?cost ?(net_latency = Vtime.us 50) (config : config) ~name
    ~(body : env -> unit) : outcome =
  let kernel = Kernel.create ?cost ~seed:config.seed ~net_latency () in
  let h = launch kernel config ~name ~body in
  Kernel.run kernel;
  finish h
