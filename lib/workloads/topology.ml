(* Multi-host topologies: the workload layer of sharded (PDES) runs.

   A scenario places one MVEE-monitored server group on each of
   [server_hosts] simulated hosts and a client fleet on one more host; the
   clients reach the servers only through the inter-host links behind the
   per-host gateways. The same scenario can be driven with any shard
   count, and everything the run reports — the outcome digest, the RMRC
   recordings, the trace exports — must be byte-identical across shard
   counts. That invariant is what the determinism corpus (test_pdes and
   the CI pdes-smoke job) checks.

   Determinism notes baked in here:
   - every MVEE group pins its SysV shm key ([config.shm_key]); the
     process-global key counter depends on how many launches preceded
     this one, which is exactly the kind of cross-run state a digest
     must not observe;
   - per-host kernel seeds are derived from the scenario seed and the
     host index, never from global state;
   - the digest contains only virtual-time quantities (no wall clock,
     no Hashtbl iteration order). *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_util

type scenario = {
  id : int;
  seed : int;
  server_hosts : int; (* one MVEE server group per host *)
  nreplicas : int;
  backend : Mvee.backend;
  arch : Servers.arch;
  requests_per_server : int;
  concurrency : int; (* client workers per server *)
  requests_per_conn : int; (* 1 = ab-like, >1 = keep-alive *)
  link_latency : Vtime.t;
  faults : string; (* --faults syntax, applied to the host-0 group *)
  record : bool;
}

type server_report = {
  host : int;
  port : int;
  outcome : Mvee.outcome;
  served : int;
  truncated : int;
}

type result = {
  digest : string;
      (* canonical text rendering of every shard-invariant observable *)
  recordings : (int * Recording.t) list; (* per recording server host *)
  traces : (int * string) list; (* per-host structured trace exports *)
  servers : server_report list;
  responses : int;
  transport_errors : int;
  connect_retries : int;
  client_latency : Latency.summary list; (* one per server fleet *)
  rounds : int;
}

let base_port = 7100

let spec_for sc i : Servers.spec =
  Servers.web ~arch:sc.arch ~work_ns:3_000 ~response_bytes:512
    (Printf.sprintf "pdes-srv%d" i)
    (base_port + i)

let render (sc : scenario) =
  Printf.sprintf
    "scenario %d: seed=%d hosts=%d+1 backend=%s nreplicas=%d arch=%s \
     req=%dx%d conn=%d lat=%s faults=%S"
    sc.id sc.seed sc.server_hosts
    (Mvee.backend_to_string sc.backend)
    sc.nreplicas
    (match sc.arch with
    | Servers.Epoll_loop -> "epoll"
    | Servers.Thread_per_conn -> "threads"
    | Servers.Iterative -> "iterative")
    sc.requests_per_server sc.server_hosts sc.concurrency
    (Vtime.to_string sc.link_latency)
    sc.faults

(* ------------------------------------------------------------------ *)
(* Running *)

let digest_outcome buf (r : server_report) =
  let o = r.outcome in
  Printf.bprintf buf
    "host%d port=%d dur=%s verdict=%s exits=%s syscalls=%d monitored=%d \
     fastpath=%d rendezvous=%d rb=%d tokens=%d/%d faults=%d quarantines=%d \
     respawns=%d served=%d truncated=%d rec=%s\n"
    r.host r.port
    (Vtime.to_string o.Mvee.duration)
    (match o.Mvee.verdict with
    | None -> "clean"
    | Some v -> Divergence.to_string v)
    (String.concat ","
       (List.map
          (fun (v, c) -> Printf.sprintf "%d:%d" v c)
          o.Mvee.exit_codes))
    o.Mvee.syscalls o.Mvee.monitored o.Mvee.ipmon_fastpath o.Mvee.rendezvous
    o.Mvee.rb_records o.Mvee.tokens_granted o.Mvee.tokens_rejected
    o.Mvee.faults_injected o.Mvee.quarantines o.Mvee.respawns r.served
    r.truncated
    (match o.Mvee.recording with
    | Some rec_ -> Recording.stream_digest rec_
    | None -> "-")

let run ?(shards = 1) ?(mode = World.Adaptive) ?(with_obs = false)
    (sc : scenario) : result =
  let n = sc.server_hosts + 1 in
  let client_host = sc.server_hosts in
  let world =
    World.create ~link_latency:sc.link_latency ~n
      ~mk:(fun i -> Kernel.create ~seed:(sc.seed + (i * 101)) ())
      ()
  in
  let obs =
    Array.init n (fun i ->
        if with_obs then begin
          let o = Remon_obs.Obs.create () in
          Kernel.set_obs (World.kernel world i) o;
          Some o
        end
        else None)
  in
  let specs = List.init sc.server_hosts (spec_for sc) in
  List.iteri
    (fun i (spec : Servers.spec) ->
      (* only the client host ever initiates connects; declaring that lets
         adaptive lookahead decouple server hosts from each other *)
      World.route world ~port:spec.Servers.port ~host:i
        ~initiators:[ client_host ])
    specs;
  let faults =
    match Fault.of_string sc.faults with
    | Ok p -> p
    | Error e -> invalid_arg ("Topology.run: bad fault plan: " ^ e)
  in
  let launches =
    List.mapi
      (fun i (spec : Servers.spec) ->
        let stats = Servers.make_stats () in
        let config =
          {
            Mvee.default_config with
            Mvee.backend = sc.backend;
            nreplicas = sc.nreplicas;
            seed = sc.seed + i;
            record = sc.record;
            faults = (if i = 0 then faults else Mvee.default_config.Mvee.faults);
            (* pinned: the process-global key counter must not leak into
               recordings (its value depends on prior launches) *)
            shm_key = Some (Context.mvee_shm_key_base + ((i + 1) * 0x40));
          }
        in
        let h =
          Mvee.launch (World.kernel world i) config ~name:spec.Servers.name
            ~body:(Servers.body ~stats spec)
        in
        (i, spec, stats, h))
      specs
  in
  let client_spec =
    {
      Clients.name = "pdes-client";
      concurrency = sc.concurrency;
      total_requests = sc.requests_per_server;
      requests_per_conn = sc.requests_per_conn;
    }
  in
  let measurements =
    List.map
      (fun (spec : Servers.spec) ->
        Clients.launch (World.kernel world client_host) spec client_spec)
      specs
  in
  World.run ~shards ~mode world;
  let reports =
    List.map
      (fun (i, (spec : Servers.spec), (stats : Servers.stats), h) ->
        {
          host = i;
          port = spec.Servers.port;
          outcome = Mvee.finish h;
          served = stats.Servers.served;
          truncated = stats.Servers.truncated;
        })
      launches
  in
  let responses =
    List.fold_left (fun a m -> a + m.Clients.responses) 0 measurements
  in
  let transport_errors =
    List.fold_left (fun a m -> a + m.Clients.transport_errors) 0 measurements
  in
  let connect_retries =
    List.fold_left (fun a m -> a + m.Clients.connect_retries) 0 measurements
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%s\n" (render sc);
  List.iter (digest_outcome buf) reports;
  List.iteri
    (fun i (m : Clients.measurement) ->
      Printf.bprintf buf
        "client%d responses=%d errors=%d retries=%d dur=%s latency=[%s]\n" i
        m.Clients.responses m.Clients.transport_errors
        m.Clients.connect_retries
        (Vtime.to_string (Clients.duration m))
        (Latency.summary_to_string (Latency.summary m.Clients.latency)))
    measurements;
  List.iter
    (fun (src, dst, msgs, bytes) ->
      Printf.bprintf buf "link %d->%d msgs=%d bytes=%d\n" src dst msgs bytes)
    (World.link_stats world);
  List.iteri
    (fun i _ ->
      let opened, refused, resets = Hostnet.stats (World.hostnet world i) in
      Printf.bprintf buf "gw%d opened=%d refused=%d resets=%d\n" i opened
        refused resets)
    (Array.to_list (Array.make n ()));
  (* the round count is a synchronizer diagnostic, not an observable: it
     depends on the lookahead mode, so it must stay out of the digest *)
  {
    digest = Buffer.contents buf;
    recordings =
      List.filter_map
        (fun r ->
          match r.outcome.Mvee.recording with
          | Some rec_ -> Some (r.host, rec_)
          | None -> None)
        reports;
    traces =
      List.filter_map
        (fun i ->
          match obs.(i) with
          | Some o -> Some (i, Remon_obs.Obs.export_string o)
          | None -> None)
        (List.init n Fun.id);
    servers = reports;
    responses;
    transport_errors;
    connect_retries;
    client_latency =
      List.map (fun m -> Latency.summary m.Clients.latency) measurements;
    rounds = World.rounds world;
  }

(* ------------------------------------------------------------------ *)
(* The determinism corpus: seeded scenarios spanning backends, server
   architectures, replica counts, link latencies, keep-alive vs one-shot
   clients, and fault chaos. *)

let corpus ~n =
  List.init n (fun id ->
      let rng = Rng.make (Rng.stable_seed "pdes-corpus" id) in
      let backend =
        match Rng.int_in_range rng ~lo:0 ~hi:2 with
        | 0 -> Mvee.Remon
        | 1 -> Mvee.Varan
        | _ -> Mvee.Ghumvee_only
      in
      let arch =
        match Rng.int_in_range rng ~lo:0 ~hi:2 with
        | 0 -> Servers.Epoll_loop
        | 1 -> Servers.Thread_per_conn
        | _ -> Servers.Iterative
      in
      let nreplicas = 2 + Rng.int_in_range rng ~lo:0 ~hi:1 in
      let faults =
        match Rng.int_in_range rng ~lo:0 ~hi:3 with
        | 0 ->
          Printf.sprintf "delay@%d:%d=%dus"
            (Rng.int_in_range rng ~lo:6 ~hi:30)
            (Rng.int_in_range rng ~lo:0 ~hi:(nreplicas - 1))
            (Rng.int_in_range rng ~lo:100 ~hi:2000)
        | 1 ->
          (* slave crash: the group dies under the default policy, the
             clients fail over / exhaust retries — chaos on purpose *)
          Printf.sprintf "crash@%d:%d"
            (Rng.int_in_range rng ~lo:12 ~hi:40)
            (max 1 (nreplicas - 1))
        | _ -> ""
      in
      {
        id;
        seed = 0x9DE5 + (id * 7919);
        server_hosts = 2 + Rng.int_in_range rng ~lo:0 ~hi:2;
        nreplicas;
        backend;
        arch;
        requests_per_server = 12 + (4 * Rng.int_in_range rng ~lo:0 ~hi:5);
        concurrency = 2 + Rng.int_in_range rng ~lo:0 ~hi:2;
        requests_per_conn =
          (if Rng.int_in_range rng ~lo:0 ~hi:1 = 0 then 1 else 4);
        link_latency = Vtime.us (150 + (50 * Rng.int_in_range rng ~lo:0 ~hi:5));
        faults;
        record = true;
      })

(* ------------------------------------------------------------------ *)
(* The herd tier: many tiny echo cells for memory/scaling runs.

   A herd is [cells] independent (server host, client host) pairs; the
   client opens [conns_per_cell] connections in one non-blocking burst,
   then drives [rounds_per_conn] closed-loop echo rounds over all of
   them. The bodies are deliberately epoll-free single fibers with
   blocking round-robin I/O: a parked thread's retry is O(1), so the
   whole herd costs O(events) regardless of connection count — the shape
   that lets the shard runner reach ~10^6 simulated connections.

   Cells never talk to each other, and [World.route ~initiators] tells
   the synchronizer so: under adaptive lookahead each cell advances at
   its own pace instead of lock-stepping the whole world one link
   latency at a time. The digest is a counter rendering plus a per-cell
   hash — O(1) size at any scale, and mode/shard invariant (no round
   counts, no wall clock, no iteration order). *)

type herd = {
  h_seed : int;
  cells : int;
  conns_per_cell : int;
  rounds_per_conn : int;
  payload : int;
  think_ns : int; (* whole-cell idle time between echo rounds *)
  stagger_ns : int; (* per-cell start offset: cells are phase-shifted *)
  h_link_latency : Vtime.t;
}

type cell_stats = {
  mutable accepted : int;
  mutable served : int;
  mutable closed : int;
  mutable responses : int;
  mutable connect_errors : int;
  mutable transport_errors : int;
}

type herd_result = {
  hr_digest : string;
  hr_connections : int;
  hr_responses : int;
  hr_served : int;
  hr_errors : int;
  hr_rounds : int;
  hr_events : int;
}

let herd_port cell = 10_000 + cell

let render_herd (h : herd) =
  Printf.sprintf
    "herd: seed=%d cells=%d conns/cell=%d rounds=%d payload=%d think=%s \
     stagger=%s lat=%s"
    h.h_seed h.cells h.conns_per_cell h.rounds_per_conn h.payload
    (Vtime.to_string (Vtime.ns h.think_ns))
    (Vtime.to_string (Vtime.ns h.stagger_ns))
    (Vtime.to_string h.h_link_latency)

let send_all fd data =
  let len = String.length data in
  let rec go off =
    if off < len then begin
      let rest = if off = 0 then data else String.sub data off (len - off) in
      let n = Api.send fd rest in
      if n <= 0 then raise (Api.Sys_error (Errno.EPIPE, "send"))
      else go (off + n)
    end
  in
  go 0

(* Single-fiber iterative echo server: accept everything, then serve the
   rounds in connection order. The blocking round-robin order is safe
   because the client is closed-loop in the same order, and it keeps every
   park O(1) to retry. *)
let herd_server ~(h : herd) ~port ~(st : cell_stats) () =
  let lfd = Api.socket () in
  Api.bind lfd port;
  Api.listen lfd h.conns_per_cell;
  let fds =
    Array.init h.conns_per_cell (fun _ ->
        let a = Api.accept lfd in
        st.accepted <- st.accepted + 1;
        a.Syscall.conn_fd)
  in
  for _round = 1 to h.rounds_per_conn do
    Array.iter
      (fun fd ->
        try
          let req = Api.recv_exactly fd h.payload in
          if String.length req = h.payload then begin
            send_all fd req;
            st.served <- st.served + 1
          end
        with Api.Sys_error _ ->
          st.transport_errors <- st.transport_errors + 1)
      fds
  done;
  Array.iter
    (fun fd ->
      (try if Api.recv fd 1 = "" then st.closed <- st.closed + 1
       with Api.Sys_error _ -> st.transport_errors <- st.transport_errors + 1);
      Api.close fd)
    fds;
  Api.close lfd;
  Api.exit_group 0

(* The client opens its whole burst with non-blocking connects; every SYN
   is answered (accepted into the backlog or refused) exactly two link
   latencies after it was sent, so one sleep resolves them all without a
   single poll — no O(interest-list) scans during the storm. *)
let herd_client ~(h : herd) ~cell ~port ~(st : cell_stats) () =
  Api.nanosleep ((cell + 1) * h.stagger_ns);
  let fds =
    Array.init h.conns_per_cell (fun _ ->
        let fd = Api.socket () in
        Api.set_nonblocking fd true;
        (match Api.retrying "connect" (Syscall.Connect (fd, port)) with
        | Syscall.Ok_int _ | Syscall.Ok_unit -> ()
        | Syscall.Error Errno.EINPROGRESS -> ()
        | _ -> st.connect_errors <- st.connect_errors + 1);
        fd)
  in
  Api.nanosleep (3 * Vtime.to_int_ns h.h_link_latency);
  Array.iter (fun fd -> Api.set_nonblocking fd false) fds;
  let req = String.make h.payload 'q' in
  for _round = 1 to h.rounds_per_conn do
    Array.iter
      (fun fd ->
        try send_all fd req
        with Api.Sys_error _ ->
          st.transport_errors <- st.transport_errors + 1)
      fds;
    Array.iter
      (fun fd ->
        try
          if String.length (Api.recv_exactly fd h.payload) = h.payload then
            st.responses <- st.responses + 1
          else st.transport_errors <- st.transport_errors + 1
        with Api.Sys_error _ ->
          st.transport_errors <- st.transport_errors + 1)
      fds;
    Api.nanosleep h.think_ns
  done;
  Array.iter (fun fd -> try Api.close fd with Api.Sys_error _ -> ()) fds;
  Api.exit_group 0

(* 63-bit FNV-style fold over the per-cell counters: catches any per-cell
   divergence while keeping the digest O(1) at a million connections. *)
let cell_hash stats =
  let mix h v = (h * 0x100000001B3) + v + 1 in
  Array.fold_left
    (fun h st ->
      let h = mix h st.accepted in
      let h = mix h st.served in
      let h = mix h st.closed in
      let h = mix h st.responses in
      let h = mix h st.connect_errors in
      mix h st.transport_errors)
    0x1099511628211 stats
  land max_int

let run_herd ?(shards = 1) ?(mode = World.Adaptive) (h : herd) : herd_result =
  if h.cells <= 0 then invalid_arg "Topology.run_herd: cells must be positive";
  let n = 2 * h.cells in
  let world =
    World.create ~link_latency:h.h_link_latency ~n
      ~mk:(fun i -> Kernel.create ~seed:(h.h_seed + (i * 101)) ())
      ()
  in
  let stats =
    Array.init h.cells (fun _ ->
        {
          accepted = 0;
          served = 0;
          closed = 0;
          responses = 0;
          connect_errors = 0;
          transport_errors = 0;
        })
  in
  for c = 0 to h.cells - 1 do
    let server_host = 2 * c and client_host = (2 * c) + 1 in
    let port = herd_port c in
    World.route world ~port ~host:server_host ~initiators:[ client_host ];
    let st = stats.(c) in
    ignore
      (Kernel.spawn_process
         (World.kernel world server_host)
         ~name:(Printf.sprintf "herd-srv%d" c)
         ~vm_seed:(h.h_seed + (c * 13))
         (herd_server ~h ~port ~st)
        : Proc.process);
    ignore
      (Kernel.spawn_process
         (World.kernel world client_host)
         ~name:(Printf.sprintf "herd-cli%d" c)
         ~vm_seed:(h.h_seed + (c * 13) + 7)
         (herd_client ~h ~cell:c ~port ~st)
        : Proc.process)
  done;
  World.run ~shards ~mode world;
  let total f = Array.fold_left (fun a st -> a + f st) 0 stats in
  let opened = ref 0 and refused = ref 0 and resets = ref 0 in
  for i = 0 to n - 1 do
    let o, rf, rs = Hostnet.stats (World.hostnet world i) in
    opened := !opened + o;
    refused := !refused + rf;
    resets := !resets + rs
  done;
  let link_msgs = ref 0 and link_bytes = ref 0 in
  List.iter
    (fun (_, _, msgs, bytes) ->
      link_msgs := !link_msgs + msgs;
      link_bytes := !link_bytes + bytes)
    (World.link_stats world);
  let events = ref 0 in
  for i = 0 to n - 1 do
    events :=
      !events + (Kernel.sched (World.kernel world i)).Sched.events_processed
  done;
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s\n" (render_herd h);
  Printf.bprintf buf
    "connections=%d accepted=%d served=%d responses=%d closed=%d \
     conn_errors=%d transport_errors=%d\n"
    (h.cells * h.conns_per_cell)
    (total (fun st -> st.accepted))
    (total (fun st -> st.served))
    (total (fun st -> st.responses))
    (total (fun st -> st.closed))
    (total (fun st -> st.connect_errors))
    (total (fun st -> st.transport_errors))
  ;
  Printf.bprintf buf "gw opened=%d refused=%d resets=%d\n" !opened !refused
    !resets;
  Printf.bprintf buf "links msgs=%d bytes=%d\n" !link_msgs !link_bytes;
  Printf.bprintf buf "cellhash=%016x\n" (cell_hash stats);
  {
    hr_digest = Buffer.contents buf;
    hr_connections = h.cells * h.conns_per_cell;
    hr_responses = total (fun st -> st.responses);
    hr_served = total (fun st -> st.served);
    hr_errors =
      total (fun st -> st.connect_errors + st.transport_errors);
    hr_rounds = World.rounds world;
    hr_events = !events;
  }

(* Shapes a total connection budget into (cells, conns_per_cell): cells
   grow first (more hosts exercises the synchronizer), then connections
   per cell grow once the host count would get silly. *)
let herd_of_connections ~seed connections =
  if connections <= 0 then
    invalid_arg "Topology.herd_of_connections: connections must be positive";
  let cells = max 1 (min 1000 (connections / 40)) in
  let conns_per_cell = max 1 ((connections + cells - 1) / cells) in
  {
    h_seed = seed;
    cells;
    conns_per_cell;
    rounds_per_conn = 1;
    payload = 64;
    think_ns = 5_000_000;
    stagger_ns = 500_000;
    h_link_latency = Vtime.us 200;
  }

(* Structural memory probe for the flat connection state: bytes of live
   heap per connected stream pair in a fresh kernel. Reported to stderr /
   bench JSON only — wall-clock and GC numbers must never reach a digest
   or stdout. *)
let stream_pair_cost_bytes ?(n = 10_000) () =
  let k = Kernel.create ~seed:1 () in
  let net = Kernel.net k in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let keep =
    Array.init n (fun i ->
        Net.make_pair net ~client_port:(40_000 + i) ~server_port:80)
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  (live1 - live0) * (Sys.word_size / 8) / n
