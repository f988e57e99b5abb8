(* Server applications for the Figure 5 / Table 2 experiments.

   One parameterized request/response server covers the architectural
   variants the paper benchmarks: epoll event loops (nginx, lighttpd,
   memcached, redis, beanstalkd), thread-per-connection (Apache 1.3), and
   iterative accept loops (thttpd). Requests and responses are fixed-size;
   the per-request [work_ns] models application processing. *)

open Remon_kernel
open Remon_core

type arch =
  | Epoll_loop
  | Thread_per_conn
  | Iterative

type spec = {
  name : string;
  arch : arch;
  port : int;
  request_bytes : int;
  response_bytes : int;
  work_ns : int; (* application processing per request *)
  touch_file : bool; (* static-content servers stat+read a file per request *)
}

let web ?(arch = Epoll_loop) ?(work_ns = 9_000) ?(response_bytes = 4096) name port =
  {
    name;
    arch;
    port;
    request_bytes = 160; (* a minimal HTTP GET *)
    response_bytes;
    work_ns;
    touch_file = true;
  }

let kv ?(work_ns = 2_500) ?(msg = 96) name port =
  {
    name;
    arch = Epoll_loop;
    port;
    request_bytes = msg;
    response_bytes = msg;
    work_ns;
    touch_file = false;
  }

(* The nine server configurations of Figure 5. *)
let beanstalkd = kv "beanstalkd" 11300 ~work_ns:4_000 ~msg:128
let lighttpd_wrk = web "lighttpd(wrk)" 8081 ~work_ns:8_000
let memcached = kv "memcached" 11211 ~work_ns:2_000 ~msg:100
let nginx_wrk = web "nginx(wrk)" 8082 ~work_ns:6_500
let redis = kv "redis" 6379 ~work_ns:1_800 ~msg:64
let apache_ab = web "apache(ab)" 8083 ~arch:Thread_per_conn ~work_ns:16_000 ~response_bytes:8192
let thttpd_ab = web "thttpd(ab)" 8084 ~arch:Iterative ~work_ns:11_000
let lighttpd_ab = web "lighttpd(ab)" 8085 ~work_ns:8_000
let lighttpd_http_load = web "lighttpd(http_load)" 8086 ~work_ns:8_000

(* ------------------------------------------------------------------ *)
(* Server program bodies *)

(* Per-run server statistics. Only the master replica (variant 0) counts,
   so replicated runs report each event once. *)
type stats = { mutable served : int; mutable truncated : int }

let make_stats () = { served = 0; truncated = 0 }

type serve_result =
  | Served
  | Closed (* clean close: 0 bytes before the next request *)
  | Truncated (* connection died mid-request: a partial read *)

let serve_request ?stats spec ~(env : Mvee.env) ~content_fd conn_fd =
  let note f =
    match stats with
    | Some s when env.Mvee.variant = 0 -> f s
    | _ -> ()
  in
  let request = Api.recv_exactly conn_fd spec.request_bytes in
  let got = String.length request in
  if got = 0 then Closed
  else if got < spec.request_bytes then begin
    note (fun s -> s.truncated <- s.truncated + 1);
    Truncated
  end
  else begin
    if spec.touch_file then begin
      ignore (Api.stat "/var/www/index.html");
      ignore (Api.pread content_fd spec.response_bytes 0)
    end;
    Api.compute spec.work_ns;
    match Api.send conn_fd (String.make spec.response_bytes 'r') with
    | exception Api.Sys_error _ ->
      (* client (or proxy) went away mid-response: drop the connection *)
      note (fun s -> s.truncated <- s.truncated + 1);
      Truncated
    | _ ->
      note (fun s -> s.served <- s.served + 1);
      Served
  end

(* Static content fixture: the site file, opened once at startup. *)
let setup_content () =
  let fd =
    Api.open_file ~flags:{ Syscall.o_rdwr with create = true } "/var/www/index.html"
  in
  ignore (Api.pwrite fd (String.make 4096 'c') 0);
  fd

let epoll_server ?stats spec (env : Mvee.env) =
  let content_fd = setup_content () in
  let listener = Api.socket () in
  Api.bind listener spec.port;
  Api.listen listener 128;
  Api.set_nonblocking listener true;
  let epfd = Api.epoll_create () in
  (* user data carries diversified pointers, as real applications do *)
  Api.epoll_add epfd listener ~events:Syscall.ev_in
    ~user_data:(env.Mvee.diversified_ptr 0);
  let rec loop () =
    let events = Api.epoll_wait epfd ~max_events:64 in
    List.iter
      (fun (user_data, _ev) ->
        if Int64.equal user_data (env.Mvee.diversified_ptr 0) then begin
          (* listener ready: accept and register the connection *)
          match Sched.syscall (Syscall.Accept listener) with
          | Syscall.Ok_accept { conn_fd; _ } ->
            Api.epoll_add epfd conn_fd ~events:Syscall.ev_in
              ~user_data:(env.Mvee.diversified_ptr conn_fd)
          | _ -> ()
        end
        else
          (* find the fd back from our diversified pointer *)
          match Mvee.ptr_id env user_data with
          | None -> ()
          | Some fd -> (
            match serve_request ?stats spec ~env ~content_fd fd with
            | Served -> ()
            | Closed | Truncated ->
              Api.epoll_del epfd fd;
              Api.close fd))
      events;
    loop ()
  in
  loop ()

let iterative_server ?stats spec (env : Mvee.env) =
  let content_fd = setup_content () in
  let listener = Api.socket () in
  Api.bind listener spec.port;
  Api.listen listener 128;
  let rec loop () =
    let { Syscall.conn_fd; _ } = Api.accept listener in
    let rec serve () =
      if serve_request ?stats spec ~env ~content_fd conn_fd = Served then
        serve ()
    in
    serve ();
    Api.close conn_fd;
    loop ()
  in
  loop ()

let threaded_server ?stats spec (env : Mvee.env) =
  let content_fd = setup_content () in
  let listener = Api.socket () in
  Api.bind listener spec.port;
  Api.listen listener 128;
  let rec loop () =
    let { Syscall.conn_fd; _ } = Api.accept listener in
    ignore
      (env.Mvee.spawn_thread (fun () ->
           let rec serve () =
             if serve_request ?stats spec ~env ~content_fd conn_fd = Served
             then serve ()
           in
           serve ();
           Api.close conn_fd));
    loop ()
  in
  loop ()

(* An error the server loop does not handle (e.g. an injected transient
   error on epoll_ctl or close) kills the process the way abort() would,
   instead of unwinding out of the simulation: the monitor sees an
   abnormal exit and the recovery ladder takes over. *)
let body ?stats spec (env : Mvee.env) =
  try
    (* network servers ignore SIGPIPE and deal with EPIPE per connection,
       as nginx and lighttpd do *)
    Api.sigaction Sigdefs.sigpipe Syscall.Sig_ignore;
    match spec.arch with
    | Epoll_loop -> epoll_server ?stats spec env
    | Iterative -> iterative_server ?stats spec env
    | Thread_per_conn -> threaded_server ?stats spec env
  with Api.Sys_error _ -> Api.exit_group 134
