(* Fleet controller: many MVEE instances behind one load balancer.

   Lifts the PR-1 recovery ladder (Kill_group / Quarantine / Respawn, which
   operate *inside* one replica set) to fleet scope: when a whole instance
   goes down — its master crashed, or the group was torn down on a
   divergence verdict — the controller quarantines the instance (the LB's
   probes route around its dead port) and relaunches a fresh generation on
   the same port after exponential backoff, up to a bounded budget. The
   per-instance Respawn policy still handles single-replica faults with the
   record-log journal replay; the two layers compose.

   Rolling restarts are operator processes inside the simulation: drain the
   backend at the LB, wait for its proxied connections to finish, stop the
   instance gracefully (exit 0, no verdict), relaunch the next generation,
   wait until its port answers, readmit. [max_unavailable] operators run
   concurrently, so at most that many instances are out at once. *)

open Remon_kernel
open Remon_sim
open Remon_core
open Remon_workloads

type recovery =
  | No_fleet_recovery
  | Fleet_respawn of { max_respawns : int; backoff_ns : Vtime.t }

type instance_state = Serving | Down | Restarting

type instance = {
  idx : int;
  port : int;
  mutable generation : int;
  mutable handle : Mvee.handle option; (* set by [launch_instance] *)
  mutable state : instance_state;
  mutable respawns_used : int;
}

type t = {
  kernel : Kernel.t;
  base_config : Mvee.config;
  server : Servers.spec; (* template; the port is overridden per instance *)
  stats : Servers.stats; (* shared: fleet-wide served/truncated totals *)
  recovery : recovery;
  faults_for : idx:int -> generation:int -> Fault.plan;
  instances : instance array;
  mutable handles : Mvee.handle list; (* every generation, for totals *)
  mutable instance_failures : int;
  mutable fleet_respawns : int;
  mutable closed : bool; (* scenario over: stop reacting to exits *)
}

(* Per-generation config: a distinct seed (diversity layouts, RNG streams)
   and a fresh fault plan, so a respawned generation is not fated to die at
   the same syscall index. *)
let instance_config t inst =
  let seed =
    t.base_config.Mvee.seed + (inst.idx * 7907) + (inst.generation * 104651)
  in
  {
    t.base_config with
    Mvee.seed;
    faults = t.faults_for ~idx:inst.idx ~generation:inst.generation;
    (* pin the group's SysV key to a function of (instance, generation)
       rather than the process-global counter: fleet cells fanned out over
       a domain pool would otherwise allocate keys in pool-schedule order,
       and the keys leak into recorded Shmget events — recordings must be
       byte-identical for any --domains value *)
    shm_key =
      Some
        (Context.mvee_shm_key_base
        + ((inst.idx + 1) * 0x10000)
        + (inst.generation * 16));
  }

let rec launch_instance t inst =
  let spec = { t.server with Servers.port = inst.port } in
  let cfg = instance_config t inst in
  let name =
    Printf.sprintf "%s-i%d-g%d" t.server.Servers.name inst.idx inst.generation
  in
  let handle =
    Mvee.launch t.kernel cfg ~name ~body:(Servers.body ~stats:t.stats spec)
  in
  inst.handle <- Some handle;
  inst.state <- Serving;
  t.handles <- handle :: t.handles;
  watch_instance t inst handle

(* React to the master dying abnormally (crash fault, or the group torn
   down on a verdict): the instance is down. The LB discovers the same
   fact independently through its probes — the freed port refuses. *)
and watch_instance t inst handle =
  let generation = inst.generation in
  Kernel.on_process_exit (Mvee.master_process handle) (fun code ->
      if
        (not t.closed)
        && inst.generation = generation
        && inst.state = Serving
        && code <> 0
      then begin
        inst.state <- Down;
        t.instance_failures <- t.instance_failures + 1;
        (match Kernel.obs t.kernel with
        | None -> ()
        | Some o ->
          Remon_obs.Obs.instant o ~ts:(Kernel.now t.kernel) ~cat:"fleet"
            ~name:"instance_down" ~pid:0 ~tid:0
            [
              ("instance", Remon_obs.Trace.Int inst.idx);
              ("generation", Remon_obs.Trace.Int generation);
            ]);
        match t.recovery with
        | No_fleet_recovery -> ()
        | Fleet_respawn { max_respawns; backoff_ns } ->
          if inst.respawns_used < max_respawns then begin
            let attempt = inst.respawns_used in
            inst.respawns_used <- attempt + 1;
            (* exponential backoff, like the intra-instance Respawn *)
            let delay = Vtime.scale backoff_ns (2. ** float_of_int attempt) in
            Kernel.schedule t.kernel
              ~time:(Vtime.add (Kernel.now t.kernel) delay)
              (fun () ->
                if (not t.closed) && inst.state = Down then begin
                  t.fleet_respawns <- t.fleet_respawns + 1;
                  inst.generation <- inst.generation + 1;
                  (match Kernel.obs t.kernel with
                  | None -> ()
                  | Some o ->
                    Remon_obs.Obs.instant o ~ts:(Kernel.now t.kernel)
                      ~cat:"fleet" ~name:"instance_respawn" ~pid:0 ~tid:0
                      [
                        ("instance", Remon_obs.Trace.Int inst.idx);
                        ("generation", Remon_obs.Trace.Int inst.generation);
                      ]);
                  launch_instance t inst
                end)
          end
      end)

let no_faults ~idx:_ ~generation:_ = []

let create kernel base_config ~server ~base_port ~instances:n ~recovery
    ?(faults_for = no_faults) () =
  let t =
    {
      kernel;
      base_config;
      server;
      stats = Servers.make_stats ();
      recovery;
      faults_for;
      instances =
        Array.init n (fun idx ->
            {
              idx;
              port = base_port + idx;
              generation = 0;
              handle = None;
              state = Serving;
              respawns_used = 0;
            });
      handles = [];
      instance_failures = 0;
      fleet_respawns = 0;
      closed = false;
    }
  in
  Array.iter (fun inst -> launch_instance t inst) t.instances;
  t

let ports t = Array.to_list (Array.map (fun i -> i.port) t.instances)

let close t = t.closed <- true

(* ------------------------------------------------------------------ *)
(* Rolling restart *)

(* Graceful single-instance restart: stop (exit 0, no verdict), bump the
   generation, relaunch on the same port. *)
let restart_instance t inst =
  (match inst.handle with
  | Some h when inst.state = Serving ->
    inst.state <- Restarting;
    Mvee.stop h
  | _ -> ());
  inst.generation <- inst.generation + 1;
  launch_instance t inst

(* The operators' poll interval for the drain / readiness waits. *)
let pause_ns = 200_000

(* Spawned by the operator processes. *)
let rolling_operator t ~(lb : Lb.t) ~next () =
  let n = Array.length t.instances in
  let rec step () =
    if (not t.closed) && !next < n then begin
      let inst = t.instances.(!next) in
      incr next;
      let b = Lb.backend_for lb ~port:inst.port in
      Lb.set_draining lb b;
      (* connection draining: no new picks land here; pinned conns finish.
         Both waits are bounded so a wedged instance cannot park the
         operator forever and keep the event queue alive. *)
      let budget = ref 10_000 in
      while b.Lb.active_conns > 0 && !budget > 0 do
        decr budget;
        Api.nanosleep pause_ns
      done;
      if inst.state = Serving then begin
        restart_instance t inst;
        (* wait until the fresh generation's listener answers *)
        let rec wait_ready tries =
          if tries > 0 then begin
            let fd = Api.socket () in
            let ok =
              match Sched.syscall (Syscall.Connect (fd, inst.port)) with
              | Syscall.Ok_int _ | Syscall.Ok_unit -> true
              | _ -> false
            in
            (try Api.close fd with Api.Sys_error _ -> ());
            if not ok then begin
              Api.nanosleep pause_ns;
              wait_ready (tries - 1)
            end
          end
        in
        wait_ready 10_000
      end;
      Lb.readmit lb b;
      (match Kernel.obs t.kernel with
      | None -> ()
      | Some o ->
        Remon_obs.Obs.instant o ~ts:(Kernel.now t.kernel) ~cat:"fleet"
          ~name:"rolling_step" ~pid:0 ~tid:0
          [ ("instance", Remon_obs.Trace.Int inst.idx) ]);
      step ()
    end
  in
  step ()

(* Restart the whole fleet, [max_unavailable] instances at a time. The
   operators are simulation processes, started 2 ms in; call before
   [Kernel.run]. *)
let rolling_restart t ~lb ?(max_unavailable = 1) () =
  let next = ref 0 in
  for w = 1 to max 1 max_unavailable do
    ignore
      (Kernel.spawn_process t.kernel
         ~name:(Printf.sprintf "operator-%d" w)
         ~vm_seed:(0x0b + w) ~start_clock:(Vtime.ms 2)
         (rolling_operator t ~lb ~next))
  done

(* ------------------------------------------------------------------ *)
(* Totals across every generation of every instance *)

type totals = {
  quarantines : int; (* intra-instance replica quarantines *)
  respawns : int; (* intra-instance journal-replay respawns *)
  watchdog_retries : int;
  faults_injected : int;
  verdicts : Divergence.t list; (* newest first *)
}

(* Fleet-scope recovery counters folded into the metrics summary at
   scenario end — [Mvee.finish] does the same for standalone instances,
   but fleet handles are never [finish]ed. *)
let flush_metrics t totals =
  match Kernel.obs t.kernel with
  | None -> ()
  | Some o ->
    let m = o.Remon_obs.Obs.metrics in
    Remon_obs.Metrics.add m "recovery.quarantines" totals.quarantines;
    Remon_obs.Metrics.add m "recovery.respawns" totals.respawns;
    Remon_obs.Metrics.add m "recovery.watchdog_retries" totals.watchdog_retries;
    (* the event-time instants already incremented these; adding 0 just
       materializes the keys for runs where nothing went down *)
    Remon_obs.Metrics.add m "fleet.instance_down" 0;
    Remon_obs.Metrics.add m "fleet.instance_respawn" 0

let totals t =
  List.fold_left
    (fun acc (h : Mvee.handle) ->
      let g = h.Mvee.group in
      {
        quarantines = acc.quarantines + g.Context.quarantines;
        respawns = acc.respawns + g.Context.respawns;
        watchdog_retries = acc.watchdog_retries + g.Context.watchdog_retries;
        faults_injected =
          (acc.faults_injected
          + match h.Mvee.fault with Some f -> Fault.injected f | None -> 0);
        verdicts =
          (match g.Context.divergence with
          | Some v -> v :: acc.verdicts
          | None -> acc.verdicts);
      })
    {
      quarantines = 0;
      respawns = 0;
      watchdog_retries = 0;
      faults_injected = 0;
      verdicts = [];
    }
    t.handles
