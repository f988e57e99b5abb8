(* Orchestration: runs workloads under MVEE configurations in fresh kernels
   and reports virtual-time durations and overheads. *)

open Remon_kernel
open Remon_core
open Remon_sim

exception Mvee_terminated of Divergence.t * Mvee.outcome

type run_result = {
  duration : Vtime.t;
  outcome : Mvee.outcome;
}

(* When set (the bench harness's --trace DIR flag), every run dumps its
   structured trace into the directory, one file per run, named from the
   run's identity. Identical identities are identical runs, so concurrent
   sweep domains re-writing a name produce byte-identical content. *)
let trace_dir : string option ref = ref None

let dump_trace ~dir ~name (config : Mvee.config) o =
  let sanitized =
    String.map (fun c -> if c = '/' || c = ' ' then '_' else c) name
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s-n%d-seed%d.json" sanitized
         (Mvee.backend_to_string config.Mvee.backend)
         config.Mvee.nreplicas config.Mvee.seed)
  in
  Remon_util.Atomic_file.write path (Remon_obs.Obs.export_string o)

let run_body ?cost ?(net_latency = Vtime.us 50) ?(check_verdict = true) ?obs
    (config : Mvee.config) ~name ~(body : Mvee.env -> unit) : run_result =
  let obs =
    match (obs, !trace_dir) with
    | None, Some _ -> Some (Remon_obs.Obs.create ())
    | _ -> obs
  in
  let kernel = Kernel.create ?cost ~seed:config.Mvee.seed ~net_latency () in
  (match obs with Some o -> Kernel.set_obs kernel o | None -> ());
  let h = Mvee.launch kernel config ~name ~body in
  Kernel.run kernel;
  let outcome = Mvee.finish h in
  (match (obs, !trace_dir) with
  | Some o, Some dir -> dump_trace ~dir ~name config o
  | _ -> ());
  (match outcome.Mvee.verdict with
  | Some v when check_verdict -> raise (Mvee_terminated (v, outcome))
  | _ -> ());
  { duration = outcome.Mvee.duration; outcome }

let run_profile ?cost ?obs (profile : Profile.t) (config : Mvee.config) :
    run_result =
  run_body ?cost ?obs config ~name:profile.Profile.name
    ~body:(Profile.body profile)

(* Normalized execution time of [config] vs. a native run of the same
   profile — the y-axis of Figures 3 and 4. *)
let normalized_time ?cost (profile : Profile.t) (config : Mvee.config) : float =
  let native =
    run_profile ?cost profile
      { config with Mvee.backend = Mvee.Native; faults = [] }
  in
  let under = run_profile ?cost profile config in
  Vtime.to_float_ns under.duration /. Vtime.to_float_ns native.duration

(* Standard configurations used throughout the evaluation. *)
let cfg_ghumvee ?(nreplicas = 2) ?(seed = 42) () =
  {
    Mvee.default_config with
    Mvee.backend = Mvee.Ghumvee_only;
    nreplicas;
    seed;
    policy = Policy.monitor_everything;
  }

let cfg_remon ?(nreplicas = 2) ?(seed = 42) level =
  {
    Mvee.default_config with
    Mvee.backend = Mvee.Remon;
    nreplicas;
    seed;
    policy = Policy.spatial level;
  }

let cfg_varan ?(nreplicas = 2) ?(seed = 42) () =
  {
    Mvee.default_config with
    Mvee.backend = Mvee.Varan;
    nreplicas;
    seed;
    policy = Policy.spatial Classification.Socket_rw_level;
  }

let cfg_native ?(seed = 42) () =
  { Mvee.default_config with Mvee.backend = Mvee.Native; nreplicas = 1; seed }

(* ------------------------------------------------------------------ *)
(* Server benchmarks (Figure 5 / Table 2) *)

type server_run = {
  client_duration : Vtime.t;
  responses : int;
  latency : Latency.summary; (* per-request client-observed latency *)
  transport_errors : int; (* client-side short reads *)
  truncated_requests : int; (* server-side partial requests *)
  server_outcome : Mvee.outcome;
}

let run_server_bench ?(latency = Vtime.us 100) ?obs
    ~(server : Servers.spec) ~(client : Clients.spec) (config : Mvee.config) :
    server_run =
  let obs =
    match (obs, !trace_dir) with
    | None, Some _ -> Some (Remon_obs.Obs.create ())
    | _ -> obs
  in
  let kernel = Kernel.create ~seed:config.Mvee.seed ~net_latency:latency () in
  (match obs with Some o -> Kernel.set_obs kernel o | None -> ());
  let stats = Servers.make_stats () in
  let h =
    Mvee.launch kernel config ~name:server.Servers.name
      ~body:(Servers.body ~stats server)
  in
  let meas = Clients.launch kernel server client in
  Kernel.run kernel;
  let outcome = Mvee.finish h in
  (match (obs, !trace_dir) with
  | Some o, Some dir -> dump_trace ~dir ~name:server.Servers.name config o
  | _ -> ());
  (match outcome.Mvee.verdict with
  | Some v -> raise (Mvee_terminated (v, outcome))
  | None -> ());
  if meas.Clients.responses < client.Clients.total_requests then
    failwith
      (Printf.sprintf "server bench %s: only %d/%d responses" server.Servers.name
         meas.Clients.responses client.Clients.total_requests);
  {
    client_duration = Clients.duration meas;
    responses = meas.Clients.responses;
    latency = Latency.summary meas.Clients.latency;
    transport_errors = meas.Clients.transport_errors;
    truncated_requests = stats.Servers.truncated;
    server_outcome = outcome;
  }

(* Normalized runtime overhead of the client-observed duration, the y-axis
   of Figure 5. *)
let server_overhead ?latency ~server ~client (config : Mvee.config) : float =
  let native =
    run_server_bench ?latency ~server ~client
      { config with Mvee.backend = Mvee.Native; faults = [] }
  in
  let under = run_server_bench ?latency ~server ~client config in
  Vtime.to_float_ns under.client_duration
  /. Vtime.to_float_ns native.client_duration
  -. 1.0
