(* Simulated L4 load balancer over the socket stack.

   An ordinary unreplicated process in the same kernel as the MVEE fleet:
   it listens on a front port, proxies fixed-size request/response pairs to
   backend instances (round-robin or least-connections), and runs an active
   health prober against every backend port. A backend whose probes fail
   [unhealthy_threshold] times in a row is ejected — existing proxied
   connections drain naturally (they are never cut), new picks route around
   it — and readmitted after [healthy_threshold] consecutive successes.

   Dead instances signal through the socket layer itself: killing a process
   releases its descriptors, so its listener unbinds (probes and backend
   connects see ECONNREFUSED) and established streams EOF. Per-request
   failover rides on exactly those signals. *)

open Remon_kernel
open Remon_sim
open Remon_workloads

type policy = Round_robin | Least_conns

type state = Up | Draining | Ejected

type backend = {
  id : int;
  port : int;
  mutable state : state;
  mutable active_conns : int; (* proxied client conns pinned to it *)
  mutable consec_failures : int;
  mutable consec_successes : int;
  mutable probes : int;
  mutable probe_failures : int;
}

type config = {
  front_port : int;
  policy : policy;
  probe_interval : Vtime.t;
  probe_timeout : Vtime.t; (* a slower probe counts as a failure *)
  unhealthy_threshold : int; (* consecutive failures before eject *)
  healthy_threshold : int; (* consecutive successes before readmit *)
  failover_budget : int; (* distinct backends tried per request *)
  request_bytes : int;
  response_bytes : int;
}

let default_config ~front_port ~request_bytes ~response_bytes =
  {
    front_port;
    policy = Round_robin;
    probe_interval = Vtime.ms 2;
    probe_timeout = Vtime.ms 1;
    unhealthy_threshold = 2;
    healthy_threshold = 2;
    failover_budget = 3;
    request_bytes;
    response_bytes;
  }

type t = {
  kernel : Kernel.t;
  config : config;
  backends : backend array;
  deadline : Vtime.t; (* the prober stops here, so the run can drain *)
  mutable rr_cursor : int;
  mutable proxied : int; (* requests answered end to end *)
  mutable failovers : int; (* backend switches forced mid-request *)
  mutable lb_errors : int; (* requests dropped: no responsive backend *)
  mutable ejections : int;
  mutable readmissions : int;
}

let backend_for lb ~port =
  match Array.find_opt (fun b -> b.port = port) lb.backends with
  | Some b -> b
  | None -> invalid_arg "Lb.backend_for: unknown port"

(* ------------------------------------------------------------------ *)
(* Routing *)

(* Deterministic pick among Up backends, [excluding] ids already tried for
   this request. Round-robin advances a cursor; least-conns takes the
   emptiest (lowest id on ties). *)
let pick lb ~excluding =
  let eligible b = b.state = Up && not (List.mem b.id excluding) in
  let n = Array.length lb.backends in
  match lb.config.policy with
  | Round_robin ->
    let rec scan k =
      if k >= n then None
      else
        let b = lb.backends.((lb.rr_cursor + k) mod n) in
        if eligible b then begin
          lb.rr_cursor <- (lb.rr_cursor + k + 1) mod n;
          Some b
        end
        else scan (k + 1)
    in
    scan 0
  | Least_conns ->
    Array.fold_left
      (fun best b ->
        if not (eligible b) then best
        else
          match best with
          | Some c when c.active_conns <= b.active_conns -> best
          | _ -> Some b)
      None lb.backends

(* ------------------------------------------------------------------ *)
(* Health probes *)

let probe_failure lb b =
  b.probe_failures <- b.probe_failures + 1;
  b.consec_successes <- 0;
  b.consec_failures <- b.consec_failures + 1;
  if b.state = Up && b.consec_failures >= lb.config.unhealthy_threshold then begin
    b.state <- Ejected;
    lb.ejections <- lb.ejections + 1;
    match Kernel.obs lb.kernel with
    | None -> ()
    | Some o ->
      Remon_obs.Obs.instant o ~ts:(Kernel.now lb.kernel) ~cat:"fleet"
        ~name:"eject" ~pid:0 ~tid:0 [ ("backend", Remon_obs.Trace.Int b.id) ]
  end

let probe_success lb b =
  b.consec_failures <- 0;
  b.consec_successes <- b.consec_successes + 1;
  if b.state = Ejected && b.consec_successes >= lb.config.healthy_threshold
  then begin
    b.state <- Up;
    lb.readmissions <- lb.readmissions + 1;
    match Kernel.obs lb.kernel with
    | None -> ()
    | Some o ->
      Remon_obs.Obs.instant o ~ts:(Kernel.now lb.kernel) ~cat:"fleet"
        ~name:"readmit" ~pid:0 ~tid:0 [ ("backend", Remon_obs.Trace.Int b.id) ]
  end

(* One L4 probe: a bare TCP connect, closed immediately. ECONNREFUSED (the
   instance's listener is gone) and slow accepts (backlog pressure past
   [probe_timeout]) both count as failures. *)
let probe lb b =
  b.probes <- b.probes + 1;
  let t0 = Sched.vnow () in
  let fd = Api.socket () in
  (match Sched.syscall (Syscall.Connect (fd, b.port)) with
  | Syscall.Ok_int _ | Syscall.Ok_unit ->
    if Vtime.(sub (Sched.vnow ()) t0 > lb.config.probe_timeout) then
      probe_failure lb b
    else probe_success lb b
  | _ -> probe_failure lb b);
  try Api.close fd with Api.Sys_error _ -> ()

let prober lb () =
  while Vtime.(Sched.vnow () < lb.deadline) do
    Api.nanosleep lb.config.probe_interval;
    (* draining backends keep their health state frozen: the operator owns
       the transition back to Up *)
    Array.iter (fun b -> if b.state <> Draining then probe lb b) lb.backends
  done

(* ------------------------------------------------------------------ *)
(* Proxying *)

(* Threads in a plain (unreplicated) process: same Clone mechanism the MVEE
   env exposes to replicas. *)
let spawn_thread body =
  let th = Sched.self () in
  let proc = th.Proc.proc in
  let idx = Array.length proc.Proc.entry_table in
  proc.Proc.entry_table <- Array.append proc.Proc.entry_table [| body |];
  ignore (Sched.syscall (Syscall.Clone idx))

(* Forward one request on an established backend connection. [None] covers
   every way the backend can fail us: EPIPE on send, EOF/short response. *)
let try_forward lb bfd req =
  match Api.send bfd req with
  | exception Api.Sys_error _ -> None
  | _ -> (
    (* bounded wait: a backend that accepted the connection but wedged
       (e.g. stalled in a rendezvous) must trigger failover, not park the
       proxied connection forever *)
    match Api.recv_within bfd lb.config.response_bytes ~timeout_ns:5_000_000 with
    | exception Api.Sys_error _ -> None
    | resp ->
      if String.length resp = lb.config.response_bytes then Some resp
      else None)

(* One proxied client connection, pinned to a backend connection that is
   re-established on the next healthy backend when it dies (failover). *)
let serve_conn lb client_fd () =
  let backend = ref None in
  let disconnect () =
    match !backend with
    | Some (b, fd) ->
      (try Api.close fd with Api.Sys_error _ -> ());
      b.active_conns <- b.active_conns - 1;
      backend := None
    | None -> ()
  in
  let connect_to b =
    let fd = Api.socket () in
    match
      (* the port can refuse transiently while an instance restarts: a
         short, fast backoff — anything longer is the prober's job *)
      Api.connect_retry ~attempts:2 ~base_backoff_ns:100_000
        ~cap_backoff_ns:200_000 fd b.port
    with
    | exception Api.Connect_retries_exhausted _ ->
      (try Api.close fd with Api.Sys_error _ -> ());
      false
    | exception Api.Sys_error _ ->
      (try Api.close fd with Api.Sys_error _ -> ());
      false
    | () ->
      b.active_conns <- b.active_conns + 1;
      backend := Some (b, fd);
      true
  in
  (* Serve one request, switching backends up to [failover_budget] times.
     Each failed backend is excluded from re-picking for this request. *)
  let rec attempt req ~tried budget =
    if budget <= 0 then None
    else
      match !backend with
      | Some (b, fd) -> (
        match try_forward lb fd req with
        | Some resp -> Some resp
        | None ->
          lb.failovers <- lb.failovers + 1;
          disconnect ();
          attempt req ~tried:(b.id :: tried) (budget - 1))
      | None -> (
        match pick lb ~excluding:tried with
        | None -> None
        | Some b ->
          if connect_to b then attempt req ~tried budget
          else begin
            lb.failovers <- lb.failovers + 1;
            attempt req ~tried:(b.id :: tried) (budget - 1)
          end)
  in
  let rec request_loop () =
    match Api.recv_exactly client_fd lb.config.request_bytes with
    | exception Api.Sys_error _ -> ()
    | req when String.length req < lb.config.request_bytes ->
      () (* client closed (or died) between requests *)
    | req -> (
      match attempt req ~tried:[] lb.config.failover_budget with
      | Some resp -> (
        lb.proxied <- lb.proxied + 1;
        match Api.send client_fd resp with
        | exception Api.Sys_error _ -> ()
        | _ -> request_loop ())
      | None ->
        (* no responsive backend inside the budget: drop the connection so
           the client sees a short read *)
        lb.lb_errors <- lb.lb_errors + 1)
  in
  request_loop ();
  disconnect ();
  try Api.close client_fd with Api.Sys_error _ -> ()

let body lb () =
  (* proxies write into connections that die under them all the time: take
     EPIPE as an error return, not a process-fatal signal *)
  Api.sigaction Sigdefs.sigpipe Syscall.Sig_ignore;
  let listener = Api.socket () in
  Api.bind listener lb.config.front_port;
  Api.listen listener 256;
  spawn_thread (prober lb);
  let rec accept_loop () =
    match Sched.syscall (Syscall.Accept listener) with
    | Syscall.Ok_accept { Syscall.conn_fd; _ } ->
      spawn_thread (serve_conn lb conn_fd);
      accept_loop ()
    | _ -> () (* listener torn down: stop accepting *)
  in
  accept_loop ()

let launch kernel config ~backend_ports ~deadline =
  let backends =
    Array.of_list
      (List.mapi
         (fun id port ->
           {
             id;
             port;
             state = Up;
             active_conns = 0;
             consec_failures = 0;
             consec_successes = 0;
             probes = 0;
             probe_failures = 0;
           })
         backend_ports)
  in
  let lb =
    {
      kernel;
      config;
      backends;
      deadline;
      rr_cursor = 0;
      proxied = 0;
      failovers = 0;
      lb_errors = 0;
      ejections = 0;
      readmissions = 0;
    }
  in
  ignore (Kernel.spawn_process kernel ~name:"lb" ~vm_seed:0x1b (body lb));
  lb

(* Operator-driven state changes (rolling restarts). *)

let set_draining lb b =
  if b.state <> Draining then begin
    b.state <- Draining;
    match Kernel.obs lb.kernel with
    | None -> ()
    | Some o ->
      Remon_obs.Obs.instant o ~ts:(Kernel.now lb.kernel) ~cat:"fleet"
        ~name:"drain" ~pid:0 ~tid:0 [ ("backend", Remon_obs.Trace.Int b.id) ]
  end

let readmit lb b =
  b.consec_failures <- 0;
  b.consec_successes <- 0;
  if b.state <> Up then begin
    b.state <- Up;
    match Kernel.obs lb.kernel with
    | None -> ()
    | Some o ->
      Remon_obs.Obs.instant o ~ts:(Kernel.now lb.kernel) ~cat:"fleet"
        ~name:"readmit" ~pid:0 ~tid:0 [ ("backend", Remon_obs.Trace.Int b.id) ]
  end

(* Prober/LB counters folded into the metrics summary at scenario end. *)
let flush_metrics lb =
  match Kernel.obs lb.kernel with
  | None -> ()
  | Some o ->
    let m = o.Remon_obs.Obs.metrics in
    Remon_obs.Metrics.add m "fleet.lb.proxied" lb.proxied;
    Remon_obs.Metrics.add m "fleet.lb.failovers" lb.failovers;
    Remon_obs.Metrics.add m "fleet.lb.errors" lb.lb_errors;
    Array.iter
      (fun b ->
        Remon_obs.Metrics.add m "fleet.lb.probes" b.probes;
        Remon_obs.Metrics.add m "fleet.lb.probe_failures" b.probe_failures)
      lb.backends
