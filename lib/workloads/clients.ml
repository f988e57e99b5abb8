(* Client load generators for the server benchmarks: ab-like (one request
   per connection), wrk-like (keep-alive, many requests per connection),
   and http_load-like (non-keep-alive at higher concurrency).

   Clients are ordinary unreplicated processes on the "other machine": the
   link latency between them and the server is the kernel's network
   latency, set per scenario (0.1 ms / 2 ms / 5 ms as in the paper).

   Each request is timed in virtual time (send start to full response) and
   recorded into the measurement's latency reservoir; responses that come
   back short are transport errors, counted separately rather than
   silently dropped. *)

open Remon_kernel
open Remon_sim

type spec = {
  name : string;
  concurrency : int; (* parallel closed-loop connections *)
  total_requests : int;
  requests_per_conn : int; (* 1 = ab-like; >1 = keep-alive *)
}

let ab ?(concurrency = 8) ?(total_requests = 240) () =
  { name = "ab"; concurrency; total_requests; requests_per_conn = 1 }

let wrk ?(concurrency = 24) ?(total_requests = 720) () =
  { name = "wrk"; concurrency; total_requests; requests_per_conn = 30 }

let http_load ?(concurrency = 16) ?(total_requests = 320) () =
  { name = "http_load"; concurrency; total_requests; requests_per_conn = 1 }

type measurement = {
  mutable started_at : Vtime.t option;
  mutable finished : int; (* client workers done *)
  mutable finished_at : Vtime.t;
  mutable responses : int;
  mutable transport_errors : int; (* short reads / dead connections *)
  mutable connect_retries : int; (* backoff rounds inside connect_retry *)
  latency : Latency.t; (* per-request virtual-time latency *)
}

(* Workers start at the same nominal clock but may be scheduled in any
   order; the measurement start is explicitly the minimum across them. *)
let note_start meas now =
  match meas.started_at with
  | None -> meas.started_at <- Some now
  | Some t0 -> if Vtime.(now < t0) then meas.started_at <- Some now

(* One closed-loop worker: opens connections against [port] and issues its
   share of the requests. A connection dying mid-request (the server was
   killed) costs that request as a transport error; the rest of the share
   fails over to a fresh connection through [connect_retry]. Only when the
   retry schedule itself exhausts do the unserved requests of that
   connection count as failed — so a fleet respawn inside the backoff
   window is invisible except as latency. *)
let worker (server : Servers.spec) spec meas ~obs ~requests () =
  note_start meas (Sched.vnow ());
  let remaining = ref requests in
  while !remaining > 0 do
    let fd = Api.socket () in
    let conn_t0 = Sched.vnow () in
    let in_this_conn = min spec.requests_per_conn !remaining in
    (match
       Api.connect_retry
         ~on_retry:(fun _ -> meas.connect_retries <- meas.connect_retries + 1)
         fd server.Servers.port
     with
    | exception Api.Connect_retries_exhausted _ ->
      (* the port refused past the whole backoff schedule: this
         connection's share fails, and the client-observed cost of the
         schedule lands in the latency reservoir *)
      meas.transport_errors <- meas.transport_errors + in_this_conn;
      let dt = Vtime.sub (Sched.vnow ()) conn_t0 in
      Latency.record meas.latency dt;
      (match obs with
      | None -> ()
      | Some o -> Remon_obs.Obs.observe_ns o ~cat:"client" ~name:"request" dt);
      remaining := !remaining - in_this_conn
    | () ->
      let done_in_conn = ref 0 in
      (try
         for k = 1 to in_this_conn do
           (* the first request of a connection is timed from before the
              connect, so setup (and any failover backoff) is charged to
              the latency a client would actually observe *)
           let t0 = if k = 1 then conn_t0 else Sched.vnow () in
           ignore (Api.send fd (String.make server.Servers.request_bytes 'q'));
           let resp = Api.recv_exactly fd server.Servers.response_bytes in
           incr done_in_conn;
           let dt = Vtime.sub (Sched.vnow ()) t0 in
           if String.length resp = server.Servers.response_bytes then begin
             meas.responses <- meas.responses + 1;
             Latency.record meas.latency dt;
             match obs with
             | None -> ()
             | Some o ->
               Remon_obs.Obs.observe_ns o ~cat:"client" ~name:"request" dt
           end
           else meas.transport_errors <- meas.transport_errors + 1
         done
       with Api.Sys_error _ ->
         (* connection died under the in-flight request *)
         incr done_in_conn;
         meas.transport_errors <- meas.transport_errors + 1);
      remaining := !remaining - !done_in_conn);
    Api.close fd
  done;
  meas.finished <- meas.finished + 1;
  meas.finished_at <- Vtime.max meas.finished_at (Sched.vnow ())

(* Spawns the client fleet as separate processes. Returns the measurement
   record, filled in as the simulation runs. *)
let launch (kernel : Kernel.t) (server : Servers.spec) (spec : spec) : measurement =
  let meas =
    {
      started_at = None;
      finished = 0;
      finished_at = Vtime.zero;
      responses = 0;
      transport_errors = 0;
      connect_retries = 0;
      latency = Latency.create ();
    }
  in
  let obs = Kernel.obs kernel in
  let per_worker = spec.total_requests / spec.concurrency in
  for i = 1 to spec.concurrency do
    let requests =
      if i = spec.concurrency then
        spec.total_requests - (per_worker * (spec.concurrency - 1))
      else per_worker
    in
    ignore
      (Kernel.spawn_process kernel
         ~name:(Printf.sprintf "client-%s-%d" spec.name i)
         ~vm_seed:(9000 + i)
         ~start_clock:(Vtime.ms 1) (* give the server time to listen *)
         (worker server spec meas ~obs ~requests))
  done;
  meas

let duration meas =
  match meas.started_at with
  | Some t0 when meas.finished > 0 -> Vtime.sub meas.finished_at t0
  | _ -> Vtime.zero
