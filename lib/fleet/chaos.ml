(* Chaos driver: one kernel hosting an MVEE fleet, its load balancer, and
   an open-loop client swarm, with deterministic fault plans killing
   replicas (masters included) while the traffic runs.

   Open-loop means every request has a scheduled arrival instant (k times
   the interarrival gap); a worker that falls behind keeps issuing without
   waiting, and latency is measured from the *scheduled* arrival, so queue
   delay during an outage is part of the number — the availability and
   tail-latency figures an SLO would see.

   Everything lives in a single simulated kernel (one event queue), so a
   scenario is one deterministic simulation; sweeps fan independent
   scenarios across domains. *)

open Remon_kernel
open Remon_sim
open Remon_core
open Remon_workloads

type cfg = {
  backend : Mvee.backend;
  instances : int;
  nreplicas : int;
  recovery : bool;
      (* true: intra-instance Respawn + fleet respawn; false: Kill_group
         and no fleet recovery — the availability-floor baseline *)
  fault_rate : float; (* per-syscall-index probability in the chaos plan *)
  fault_horizon : int; (* syscall indices the plan covers *)
  requests : int;
  workers : int;
  interarrival_ns : int; (* open-loop gap between scheduled arrivals *)
  policy : Lb.policy;
  rolling : int option; (* [Some max_unavailable] runs a rolling restart *)
  seed : int;
  trace : bool; (* attach an observability sink *)
  record_dir : string option;
      (* dump a recording for every instance generation that ends with a
         divergence verdict: the chaos sweep's reproducer artifacts *)
}

let default_cfg =
  {
    backend = Mvee.Remon;
    instances = 3;
    nreplicas = 2;
    recovery = true;
    fault_rate = 0.0;
    fault_horizon = 400;
    requests = 150;
    workers = 6;
    interarrival_ns = 40_000;
    policy = Lb.Round_robin;
    rolling = None;
    seed = 42;
    trace = false;
    record_dir = None;
  }

type report = {
  attempted : int;
  succeeded : int;
  failed : int;
  availability : float; (* succeeded / attempted *)
  connect_retries : int;
  client_latency : Latency.summary; (* scheduled-arrival to response *)
  lb_proxied : int;
  failovers : int;
  lb_errors : int;
  ejections : int;
  readmissions : int;
  instance_failures : int;
  fleet_respawns : int;
  quarantines : int; (* intra-instance, summed over generations *)
  respawns : int;
  watchdog_retries : int;
  faults_injected : int;
  served : int; (* server-side successful requests (masters only) *)
  verdict_classes : string list; (* sorted, deduplicated *)
  recordings : string list; (* reproducer files written to [record_dir] *)
  metrics : (string * string) list; (* [] when [trace] is off *)
}

let verdict_class = function
  | Divergence.Args_mismatch _ -> "args_mismatch"
  | Divergence.Sequence_mismatch _ -> "sequence_mismatch"
  | Divergence.Rendezvous_timeout _ -> "rendezvous_timeout"
  | Divergence.Replica_crash _ -> "replica_crash"
  | Divergence.Exit_mismatch _ -> "exit_mismatch"
  | Divergence.Token_violation _ -> "token_violation"
  | Divergence.Shared_memory_rejected _ -> "shared_memory_rejected"

(* ------------------------------------------------------------------ *)

let base_port = 9100
let front_port = 7100
let traffic_epoch = Vtime.ms 1

let server_spec = Servers.kv "chaos-kv" 0 ~work_ns:2_000 ~msg:64

let mvee_config cfg =
  let base =
    match cfg.backend with
    | Mvee.Native -> Runner.cfg_native ~seed:cfg.seed ()
    | Mvee.Ghumvee_only ->
      Runner.cfg_ghumvee ~nreplicas:cfg.nreplicas ~seed:cfg.seed ()
    | Mvee.Varan -> Runner.cfg_varan ~nreplicas:cfg.nreplicas ~seed:cfg.seed ()
    | Mvee.Remon ->
      Runner.cfg_remon ~nreplicas:cfg.nreplicas ~seed:cfg.seed
        Classification.Socket_rw_level
  in
  {
    base with
    Mvee.on_failure =
      (if cfg.recovery then
         Mvee.Respawn { max_respawns = 2; backoff_ns = Vtime.ms 1 }
       else Mvee.Kill_group);
    record = cfg.record_dir <> None;
  }

let faults_for cfg ~nreplicas ~idx ~generation =
  if cfg.fault_rate <= 0. then []
  else
    Fault.chaos_plan
      ~seed:(cfg.seed + (idx * 613) + (generation * 7919))
      ~rate:cfg.fault_rate ~horizon:cfg.fault_horizon ~nreplicas

(* ------------------------------------------------------------------ *)
(* Open-loop traffic *)

type traffic = {
  mutable attempted : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable retries : int;
  latency : Latency.t;
}

(* Worker [w] owns requests w, w+W, w+2W, ... Each is issued at its
   scheduled arrival (or immediately when the worker is already late) on a
   fresh connection to the LB front port. *)
let traffic_worker cfg traffic w () =
  let k = ref w in
  while !k < cfg.requests do
    let at =
      Vtime.add traffic_epoch (Vtime.ns (!k * cfg.interarrival_ns))
    in
    let now = Sched.vnow () in
    if Vtime.(now < at) then Api.nanosleep (Vtime.sub at now);
    traffic.attempted <- traffic.attempted + 1;
    let fd = Api.socket () in
    (match
       Api.connect_retry ~attempts:8 ~base_backoff_ns:100_000
         ~on_retry:(fun _ -> traffic.retries <- traffic.retries + 1)
         fd front_port
     with
    | exception Api.Connect_retries_exhausted _ ->
      traffic.failed <- traffic.failed + 1;
      Latency.record traffic.latency (Vtime.sub (Sched.vnow ()) at)
    | exception Api.Sys_error _ ->
      traffic.failed <- traffic.failed + 1;
      Latency.record traffic.latency (Vtime.sub (Sched.vnow ()) at)
    | () ->
      let ok =
        match Api.send fd (String.make server_spec.Servers.request_bytes 'q')
        with
        | exception Api.Sys_error _ -> false
        | _ -> (
          (* client-side request timeout: an SLO clock keeps ticking while
             the fleet is wedged, and the worker must move on to its next
             scheduled arrival rather than block forever *)
          match
            Api.recv_within fd server_spec.Servers.response_bytes
              ~timeout_ns:10_000_000
          with
          | exception Api.Sys_error _ -> false
          | resp -> String.length resp = server_spec.Servers.response_bytes)
      in
      Latency.record traffic.latency (Vtime.sub (Sched.vnow ()) at);
      if ok then traffic.succeeded <- traffic.succeeded + 1
      else traffic.failed <- traffic.failed + 1);
    (try Api.close fd with Api.Sys_error _ -> ());
    k := !k + cfg.workers
  done

(* ------------------------------------------------------------------ *)

let run_scenario ?obs cfg : report =
  let kernel = Kernel.create ~seed:cfg.seed ~net_latency:(Vtime.us 50) () in
  let obs =
    match obs with
    | Some _ -> obs (* caller-owned sink (e.g. the CLI's trace dump) *)
    | None -> if cfg.trace then Some (Remon_obs.Obs.create ()) else None
  in
  (match obs with Some o -> Kernel.set_obs kernel o | None -> ());
  let mcfg = mvee_config cfg in
  let fleet =
    Fleet.create kernel mcfg ~server:server_spec ~base_port
      ~instances:cfg.instances
      ~recovery:
        (if cfg.recovery then
           Fleet.Fleet_respawn { max_respawns = 3; backoff_ns = Vtime.ms 2 }
         else Fleet.No_fleet_recovery)
      ~faults_for:(faults_for cfg ~nreplicas:mcfg.Mvee.nreplicas)
      ()
  in
  let traffic_end =
    Vtime.add traffic_epoch (Vtime.ns (cfg.requests * cfg.interarrival_ns))
  in
  let deadline = Vtime.add traffic_end (Vtime.ms 20) in
  let lb_cfg =
    {
      (Lb.default_config ~front_port
         ~request_bytes:server_spec.Servers.request_bytes
         ~response_bytes:server_spec.Servers.response_bytes)
      with
      Lb.policy = cfg.policy;
    }
  in
  let lb = Lb.launch kernel lb_cfg ~backend_ports:(Fleet.ports fleet) ~deadline in
  let traffic =
    {
      attempted = 0;
      succeeded = 0;
      failed = 0;
      retries = 0;
      latency = Latency.create ();
    }
  in
  for w = 0 to cfg.workers - 1 do
    ignore
      (Kernel.spawn_process kernel
         ~name:(Printf.sprintf "chaos-client-%d" w)
         ~vm_seed:(17_000 + w) ~start_clock:(Vtime.us 500)
         (traffic_worker cfg traffic w))
  done;
  (match cfg.rolling with
  | Some max_unavailable ->
    Fleet.rolling_restart fleet ~lb ~max_unavailable ()
  | None -> ());
  Kernel.run kernel;
  Fleet.close fleet;
  Lb.flush_metrics lb;
  let totals = Fleet.totals fleet in
  Fleet.flush_metrics fleet totals;
  let availability =
    if traffic.attempted = 0 then 1.0
    else float_of_int traffic.succeeded /. float_of_int traffic.attempted
  in
  (* reproducer dump: one recording per instance generation that ended
     with a verdict — replayable offline with `remon replay` *)
  let recordings =
    match cfg.record_dir with
    | None -> []
    | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      List.rev fleet.Fleet.handles
      |> List.mapi (fun i (h : Mvee.handle) -> (i, h))
      |> List.filter_map (fun (i, (h : Mvee.handle)) ->
             match (h.Mvee.group.Context.divergence, Mvee.recording h) with
             | Some _, Some r ->
               let r = Recording.with_workload r "chaos-kv" in
               let path =
                 Filename.concat dir
                   (Printf.sprintf "chaos-seed%d-rate%.4f-rec%s-gen%d.rmrc"
                      cfg.seed cfg.fault_rate
                      (if cfg.recovery then "on" else "off")
                      i)
               in
               Recording.to_file r path;
               Some path
             | _ -> None)
  in
  {
    attempted = traffic.attempted;
    succeeded = traffic.succeeded;
    failed = traffic.failed;
    availability;
    connect_retries = traffic.retries;
    client_latency = Latency.summary traffic.latency;
    lb_proxied = lb.Lb.proxied;
    failovers = lb.Lb.failovers;
    lb_errors = lb.Lb.lb_errors;
    ejections = lb.Lb.ejections;
    readmissions = lb.Lb.readmissions;
    instance_failures = fleet.Fleet.instance_failures;
    fleet_respawns = fleet.Fleet.fleet_respawns;
    quarantines = totals.Fleet.quarantines;
    respawns = totals.Fleet.respawns;
    watchdog_retries = totals.Fleet.watchdog_retries;
    faults_injected = totals.Fleet.faults_injected;
    served = fleet.Fleet.stats.Servers.served;
    verdict_classes =
      List.sort_uniq compare (List.map verdict_class totals.Fleet.verdicts);
    recordings;
    metrics = Remon_obs.Obs.summary obs;
  }

(* One deterministic line per sweep cell; bench tables and the domains
   identity test both consume it. *)
let summary_line cfg r =
  let ms v = Vtime.to_float_ns v /. 1e6 in
  Printf.sprintf
    "%s rate=%.4f rec=%s | avail=%.3f ok=%d/%d err=%d retry=%d | fo=%d \
     eject=%d readmit=%d down=%d fresp=%d q=%d r=%d | p50=%.3fms p99=%.3fms"
    (Mvee.backend_to_string cfg.backend)
    cfg.fault_rate
    (if cfg.recovery then "on" else "off")
    r.availability r.succeeded r.attempted r.failed r.connect_retries
    r.failovers r.ejections r.readmissions r.instance_failures
    r.fleet_respawns r.quarantines r.respawns
    (ms r.client_latency.Latency.p50)
    (ms r.client_latency.Latency.p99)
