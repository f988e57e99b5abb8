(* Socket backpressure tests: bounded send/receive buffers (partial writes,
   EAGAIN, blocking senders woken as the peer drains), listener backlog
   enforcement, epoll writability edges, the epoll shadow map's
   untranslatable-event handling, and latency-reservoir determinism. *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_workloads

let sys = Sched.syscall

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let expect_int label r =
  match (r : Syscall.result) with
  | Syscall.Ok_int n -> n
  | other ->
    Alcotest.failf "%s: expected Ok_int, got %s" label
      (Format.asprintf "%a" Syscall.pp_result other)

let expect_data label r =
  match (r : Syscall.result) with
  | Syscall.Ok_data s -> s
  | other ->
    Alcotest.failf "%s: expected Ok_data, got %s" label
      (Format.asprintf "%a" Syscall.pp_result other)

let expect_pair label r =
  match (r : Syscall.result) with
  | Syscall.Ok_pair (a, b) -> (a, b)
  | _ -> Alcotest.failf "%s: expected Ok_pair" label

let expect_err label e r =
  match (r : Syscall.result) with
  | Syscall.Error e' when e = e' -> ()
  | other ->
    Alcotest.failf "%s: expected error %s, got %s" label (Errno.to_string e)
      (Format.asprintf "%a" Syscall.pp_result other)

let run_in_kernel ?seed ?sock_buf body =
  let k = Kernel.create ?seed ?sock_buf () in
  let result = ref None in
  let _p =
    Kernel.spawn_process k ~name:"test" ~vm_seed:7 (fun () ->
        result := Some (body k))
  in
  Kernel.run k;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test body did not complete"

(* The stream behind an fd of the current process. *)
let stream_of_fd fd =
  let p = (Sched.self ()).Proc.proc in
  match Proc.desc_of_fd p fd with
  | Some { Proc.kind = Proc.Stream s; _ } -> s
  | _ -> Alcotest.fail "expected a stream fd"

let set_nonblock fd =
  ignore
    (expect_int "fcntl"
       (sys (Syscall.Fcntl (fd, Syscall.F_setfl { nonblock = true }))))

(* ------------------------------------------------------------------ *)
(* Backlog enforcement *)

let test_backlog_refusal () =
  run_in_kernel (fun _k ->
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            let sfd =
              expect_int "socket"
                (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))
            in
            ignore (expect_int "bind" (sys (Syscall.Bind (sfd, 7000))));
            ignore (expect_int "listen" (sys (Syscall.Listen (sfd, 1))));
            (* never accepts: the single backlog slot stays occupied *)
            Sched.compute (Vtime.ms 50));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      Sched.compute (Vtime.ms 1);
      let c1 =
        expect_int "socket"
          (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))
      in
      ignore (expect_int "first connect" (sys (Syscall.Connect (c1, 7000))));
      let c2 =
        expect_int "socket"
          (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))
      in
      expect_err "backlog full refuses" Errno.ECONNREFUSED
        (sys (Syscall.Connect (c2, 7000))))

let test_backlog_recovery_via_retry () =
  (* connect_retry rides out ECONNREFUSED: once the server drains the
     backlog with accept, a retried connect succeeds. *)
  run_in_kernel (fun _k ->
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            let sfd =
              expect_int "socket"
                (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))
            in
            ignore (expect_int "bind" (sys (Syscall.Bind (sfd, 7001))));
            ignore (expect_int "listen" (sys (Syscall.Listen (sfd, 1))));
            (* hold the backlog full for a while, then drain it *)
            Sched.compute (Vtime.ms 2);
            ignore (sys (Syscall.Accept sfd));
            ignore (sys (Syscall.Accept sfd)));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      Sched.compute (Vtime.ms 1);
      let c1 = Api.socket () in
      Api.connect_retry c1 7001;
      let c2 = Api.socket () in
      (* fills only after the first pending connection is accepted *)
      Api.connect_retry c2 7001;
      check_bool "both connected" true true)

(* ------------------------------------------------------------------ *)
(* Send-buffer caps: EAGAIN, partial writes, blocking, wakeups *)

let test_nonblock_partial_and_eagain () =
  run_in_kernel (fun _k ->
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      (* shrink b's receive buffer to the 256-byte floor *)
      ignore (expect_int "setsockopt" (sys (Syscall.Setsockopt (b, Net.so_rcvbuf, 1))));
      check_int "getsockopt reads floor" Net.min_bufcap
        (expect_int "getsockopt" (sys (Syscall.Getsockopt (b, Net.so_rcvbuf))));
      set_nonblock a;
      let n = expect_int "first write" (sys (Syscall.Write (a, String.make 300 'x'))) in
      check_int "partial write up to the cap" Net.min_bufcap n;
      expect_err "buffer full" Errno.EAGAIN (sys (Syscall.Write (a, "y")));
      (* cap invariant on the receiving stream *)
      let sb = stream_of_fd b in
      check_bool "buffered <= cap" true (Net.buffered sb <= Net.stream_cap sb);
      (* drain and the writer has space again *)
      let got = expect_data "drain" (sys (Syscall.Read (b, 4096))) in
      check_int "drained what was accepted" Net.min_bufcap (String.length got);
      let n2 = expect_int "write after drain" (sys (Syscall.Write (a, String.make 100 'z'))) in
      check_int "accepted after drain" 100 n2;
      check_bool "hwm never exceeded cap" true
        (Net.buffered_hwm sb <= Net.stream_cap sb))

let test_blocking_send_wakes_on_drain () =
  run_in_kernel (fun _k ->
      let self = Sched.self () in
      let total = 1000 in
      let received = ref 0 in
      self.Proc.proc.Proc.entry_table <- [||];
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      ignore (expect_int "setsockopt" (sys (Syscall.Setsockopt (b, Net.so_rcvbuf, 1))));
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            (* reader thread: drain slowly until everything arrived *)
            while !received < total do
              Sched.compute (Vtime.us 50);
              let d = expect_data "read" (sys (Syscall.Read (b, 128))) in
              received := !received + String.length d
            done);
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      (* blocking write of 4x the receive cap: must complete in full *)
      let n = expect_int "blocking write" (sys (Syscall.Write (a, String.make total 'w'))) in
      check_int "full count after blocking" total n;
      let sb = stream_of_fd b in
      check_bool "hwm stayed within cap" true
        (Net.buffered_hwm sb <= Net.stream_cap sb);
      (* let the reader finish *)
      while !received < total do
        Sched.compute (Vtime.us 200)
      done;
      check_int "reader got every byte" total !received)

(* Growing the receiver's buffer is room for a blocked writer: the
   setsockopt wakes it with no read in between. *)
let test_rcvbuf_growth_wakes_writer () =
  run_in_kernel (fun _k ->
      let self = Sched.self () in
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      ignore (expect_int "setsockopt" (sys (Syscall.Setsockopt (b, Net.so_rcvbuf, 1))));
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.us 100);
            ignore
              (expect_int "grow rcvbuf"
                 (sys (Syscall.Setsockopt (b, Net.so_rcvbuf, 4096)))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      let n = expect_int "blocking write" (sys (Syscall.Write (a, String.make 1000 'w'))) in
      check_int "written once the buffer grew" 1000 n)

let test_epoll_writability_edge () =
  run_in_kernel (fun _k ->
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      ignore (expect_int "setsockopt" (sys (Syscall.Setsockopt (b, Net.so_rcvbuf, 1))));
      set_nonblock a;
      let epfd = expect_int "epoll_create" (sys Syscall.Epoll_create) in
      ignore
        (expect_int "epoll_ctl"
           (sys
              (Syscall.Epoll_ctl
                 {
                   epfd;
                   op = Syscall.Epoll_add;
                   fd = a;
                   events = Syscall.ev_out;
                   user_data = 0xF00L;
                 })));
      (* writable while there is space *)
      (match sys (Syscall.Epoll_wait { epfd; max_events = 8; timeout_ns = Some 0 }) with
      | Syscall.Ok_epoll [ (ud, ev) ] ->
        check_bool "pollout before fill" true (Int64.equal ud 0xF00L && ev.Syscall.pollout)
      | _ -> Alcotest.fail "expected writable before fill");
      (* fill the peer's receive buffer: no longer writable *)
      ignore (expect_int "fill" (sys (Syscall.Write (a, String.make 256 'x'))));
      (match sys (Syscall.Epoll_wait { epfd; max_events = 8; timeout_ns = Some 0 }) with
      | Syscall.Ok_epoll [] -> ()
      | _ -> Alcotest.fail "expected not writable when full");
      (* drain in another thread; a blocking epoll_wait reports the edge *)
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.ms 1);
            ignore (expect_data "drain" (sys (Syscall.Read (b, 4096)))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      match sys (Syscall.Epoll_wait { epfd; max_events = 8; timeout_ns = None }) with
      | Syscall.Ok_epoll [ (ud, ev) ] ->
        check_bool "pollout after drain" true (Int64.equal ud 0xF00L && ev.Syscall.pollout)
      | _ -> Alcotest.fail "expected writable after drain")

(* ------------------------------------------------------------------ *)
(* Cap invariant under a replicated server workload *)

let test_cap_invariant_under_load () =
  (* run a real server bench with a tiny socket buffer and assert, while
     the simulation runs, that no live stream ever exceeds its cap *)
  let sock_buf = 1024 in
  let kernel = Kernel.create ~seed:42 ~net_latency:(Vtime.us 100) ~sock_buf () in
  let config =
    { Mvee.default_config with Mvee.backend = Mvee.Remon; nreplicas = 2;
      policy = Policy.spatial Classification.Socket_rw_level }
  in
  let server = Servers.redis in
  let client = Clients.wrk ~concurrency:8 ~total_requests:80 () in
  let h =
    Mvee.launch kernel config ~name:"capcheck" ~body:(Servers.body server)
  in
  let meas = Clients.launch kernel server client in
  let violations = ref 0 in
  let checks = ref 0 in
  let rec audit () =
    incr checks;
    Hashtbl.iter
      (fun _pid (p : Proc.process) ->
        Fdtable.iter
          (fun _fd (d : Proc.desc) ->
            match d.Proc.kind with
            | Proc.Stream s ->
              if Net.buffered s > Net.stream_cap s
                 || Net.buffered_hwm s > Net.stream_cap s
              then incr violations
            | _ -> ())
          p.Proc.fds)
      (Kernel.state kernel).Kstate.procs;
    if !checks < 2000 then
      Kernel.schedule kernel
        ~time:(Vtime.add (Kernel.now kernel) (Vtime.us 20))
        audit
  in
  Kernel.schedule kernel ~time:(Vtime.us 100) audit;
  Kernel.run kernel;
  ignore (Mvee.finish h);
  check_bool "many audits ran" true (!checks > 100);
  check_int "no stream ever exceeded its cap" 0 !violations;
  check_int "all responses still served under tiny buffers"
    client.Clients.total_requests meas.Clients.responses

(* ------------------------------------------------------------------ *)
(* Epoll shadow map: untranslatable events *)

let test_epoll_map_untranslatable () =
  let em = Epoll_map.create ~nreplicas:2 in
  Epoll_map.register em ~variant:0 ~fd:5 ~user_data:0xA5L;
  Epoll_map.register em ~variant:1 ~fd:5 ~user_data:0xB5L;
  (* one registered event, one the master never registered *)
  let events = [ (0xA5L, Syscall.ev_in); (0x5005L, Syscall.ev_in) ] in
  let logical = Epoll_map.to_logical em events in
  check_int "both survive to_logical" 2 (List.length logical);
  (match logical with
  | [ (Epoll_map.Lfd 5, _); (Epoll_map.Lopaque raw, _) ] ->
    check_bool "original cookie preserved" true (Int64.equal raw 0x5005L)
  | _ -> Alcotest.fail "unexpected logical shape");
  (* round-trip through the RB's int64 wire encoding *)
  List.iter
    (fun (l, _) ->
      check_bool "encode/decode round-trips" true (Epoll_map.decode (Epoll_map.encode l) = l))
    logical;
  (* slave view: translated fd becomes its own cookie, opaque passes through *)
  (match Epoll_map.to_variant em ~variant:1 logical with
  | [ (ud1, _); (ud2, _) ] ->
    check_bool "slave cookie" true (Int64.equal ud1 0xB5L);
    check_bool "opaque passed through verbatim" true (Int64.equal ud2 0x5005L)
  | _ -> Alcotest.fail "unexpected slave view");
  check_int "nothing dropped so far" 0 (Epoll_map.untranslatable em);
  (* an fd the slave never registered is dropped and counted, not invented *)
  let slave_view =
    Epoll_map.to_variant em ~variant:1 [ (Epoll_map.Lfd 9, Syscall.ev_in) ]
  in
  check_int "unregistered fd dropped" 0 (List.length slave_view);
  check_int "drop counted" 1 (Epoll_map.untranslatable em);
  (* negative unregistered cookies cannot travel the wire: dropped+counted *)
  let logical' = Epoll_map.to_logical em [ (-7L, Syscall.ev_in) ] in
  check_int "negative cookie dropped" 0 (List.length logical');
  check_int "negative drop counted" 2 (Epoll_map.untranslatable em)

(* ------------------------------------------------------------------ *)
(* Latency reservoir *)

let test_reservoir_exact_and_decimated () =
  let r = Latency.create ~cap:8 () in
  for i = 1 to 1000 do
    Latency.record r (Vtime.us i)
  done;
  check_int "exact count survives decimation" 1000 (Latency.count r);
  check_bool "exact max" true (Latency.max_sample r = Vtime.us 1000);
  let sm = Latency.summary r in
  check_bool "mean exact" true
    (abs_float (sm.Latency.mean_ns -. 500_500.0) < 1.0);
  check_bool "p50 in range" true
    (Vtime.compare sm.Latency.p50 (Vtime.us 1) >= 0
    && Vtime.compare sm.Latency.p50 (Vtime.us 1000) <= 0);
  check_bool "p99 >= p50" true (Vtime.compare sm.Latency.p99 sm.Latency.p50 >= 0)

let test_reservoir_percentiles () =
  let r = Latency.create () in
  for i = 1 to 100 do
    Latency.record r (Vtime.ms i)
  done;
  let sm = Latency.summary r in
  check_bool "p50" true (sm.Latency.p50 = Vtime.ms 50);
  check_bool "p90" true (sm.Latency.p90 = Vtime.ms 90);
  check_bool "p99" true (sm.Latency.p99 = Vtime.ms 99);
  check_bool "max" true (sm.Latency.max = Vtime.ms 100)

let bench_summary () =
  let config =
    { Mvee.default_config with Mvee.backend = Mvee.Remon; nreplicas = 2;
      policy = Policy.spatial Classification.Socket_rw_level }
  in
  let r =
    Runner.run_server_bench ~latency:(Vtime.us 100) ~server:Servers.redis
      ~client:(Clients.wrk ~concurrency:8 ~total_requests:80 ())
      config
  in
  Latency.summary_to_string r.Runner.latency

let test_reservoir_determinism_across_domains () =
  (* identical simulations fanned over 1 vs 4 domains must produce
     byte-identical latency summaries *)
  let jobs = [ (); (); (); () ] in
  let one = Remon_util.Pool.map ~domains:1 (fun () -> bench_summary ()) jobs in
  let four = Remon_util.Pool.map ~domains:4 (fun () -> bench_summary ()) jobs in
  List.iter2 (Alcotest.(check string) "domains 1 vs 4 summary") one four;
  match one with
  | first :: rest ->
    List.iter (Alcotest.(check string) "all jobs identical" first) rest
  | [] -> Alcotest.fail "no results"

(* ------------------------------------------------------------------ *)

(* Every scheduler of this executable runs the lost-wake-up oracle: each
   sweep is followed by a retry of every queued wait that was not woken. *)
let () = Remon_kernel.Sched.set_wakeup_check true

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "backpressure"
    [
      ( "backlog",
        [
          tc "refusal when full" `Quick test_backlog_refusal;
          tc "connect_retry recovers" `Quick test_backlog_recovery_via_retry;
        ] );
      ( "buffers",
        [
          tc "nonblock partial + EAGAIN" `Quick test_nonblock_partial_and_eagain;
          tc "blocking send wakes on drain" `Quick test_blocking_send_wakes_on_drain;
          tc "a larger receive buffer wakes a blocked sender" `Quick
            test_rcvbuf_growth_wakes_writer;
          tc "epoll writability edge" `Quick test_epoll_writability_edge;
          tc "cap invariant under load" `Quick test_cap_invariant_under_load;
        ] );
      ( "epoll-map",
        [ tc "untranslatable events" `Quick test_epoll_map_untranslatable ] );
      ( "latency",
        [
          tc "exact stats + decimation" `Quick test_reservoir_exact_and_decimated;
          tc "percentiles" `Quick test_reservoir_percentiles;
          tc "determinism domains 1 vs 4" `Quick test_reservoir_determinism_across_domains;
        ] );
    ]
