(* Kernel substrate tests: scheduler, VFS, pipes, sockets, futexes, epoll,
   signals, timers, shared memory, /proc/self/maps. *)

open Remon_kernel
open Remon_sim

let sys = Sched.syscall
let vnow = Sched.vnow

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
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

(* Runs [body] as the sole process of a fresh kernel and returns a value the
   body stored. *)
let run_in_kernel ?seed body =
  let k = Kernel.create ?seed () in
  let result = ref None in
  let _p =
    Kernel.spawn_process k ~name:"test" ~vm_seed:7 (fun () ->
        result := Some (body k))
  in
  Kernel.run k;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test body did not complete"

(* ------------------------------------------------------------------ *)

let test_getpid_and_time () =
  run_in_kernel (fun _k ->
      let pid = expect_int "getpid" (sys Syscall.Getpid) in
      check_bool "pid is assigned" true (pid >= 1000);
      (match sys (Syscall.Clock_gettime `Monotonic) with
      | Syscall.Ok_int64 t0 ->
        Sched.compute (Vtime.us 500);
        let t1 =
          match sys (Syscall.Clock_gettime `Monotonic) with
          | Syscall.Ok_int64 t -> t
          | _ -> Alcotest.fail "clock_gettime"
        in
        check_bool "time advances across compute" true
          (Int64.compare t1 (Int64.add t0 (Int64.of_int (Vtime.us 500))) >= 0)
      | _ -> Alcotest.fail "clock_gettime failed"))

let test_file_roundtrip () =
  run_in_kernel (fun _k ->
      let flags = { Syscall.o_rdwr with create = true } in
      let fd = expect_int "open" (sys (Syscall.Open ("/tmp/data.txt", flags))) in
      let n = expect_int "write" (sys (Syscall.Write (fd, "hello world"))) in
      check_int "write length" 11 n;
      ignore (expect_int "lseek" (sys (Syscall.Lseek (fd, 0, Syscall.Seek_set))));
      let data = expect_data "read" (sys (Syscall.Read (fd, 64))) in
      check_str "read back" "hello world" data;
      let stat =
        match sys (Syscall.Fstat fd) with
        | Syscall.Ok_stat s -> s
        | _ -> Alcotest.fail "fstat"
      in
      check_int "size" 11 stat.st_size;
      ignore (expect_int "close" (sys (Syscall.Close fd)));
      expect_err "read after close" Errno.EBADF (sys (Syscall.Read (fd, 1))))

let test_pread_pwrite () =
  run_in_kernel (fun _k ->
      let flags = { Syscall.o_rdwr with create = true } in
      let fd = expect_int "open" (sys (Syscall.Open ("/tmp/pp.bin", flags))) in
      ignore (expect_int "pwrite" (sys (Syscall.Pwrite64 (fd, "abcdef", 4))));
      let d = expect_data "pread" (sys (Syscall.Pread64 (fd, 3, 5))) in
      check_str "pread content" "bcd" d;
      (* offset must be untouched by positional I/O *)
      let whole = expect_data "read" (sys (Syscall.Read (fd, 64))) in
      check_int "file size" 10 (String.length whole))

let test_pipe_blocking () =
  (* Reader blocks until the writer thread produces data. *)
  run_in_kernel (fun _k ->
      let rfd, wfd = expect_pair "pipe" (sys Syscall.Pipe) in
      let self = Sched.self () in
      let p = self.Proc.proc in
      p.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.ms 2);
            ignore (sys (Syscall.Write (wfd, "ping"))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      let t0 = vnow () in
      let data = expect_data "read" (sys (Syscall.Read (rfd, 16))) in
      check_str "pipe data" "ping" data;
      check_bool "reader waited for writer" true Vtime.(vnow () - t0 >= Vtime.ms 2))

let test_pipe_eof_and_epipe () =
  run_in_kernel (fun k ->
      let rfd, wfd = expect_pair "pipe" (sys Syscall.Pipe) in
      ignore (sys (Syscall.Write (wfd, "x")));
      ignore (sys (Syscall.Close wfd));
      let d1 = expect_data "read data" (sys (Syscall.Read (rfd, 4))) in
      check_str "buffered data" "x" d1;
      let d2 = expect_data "read eof" (sys (Syscall.Read (rfd, 4))) in
      check_str "eof" "" d2;
      (* writing to a reader-less pipe: EPIPE + SIGPIPE (ignored here) *)
      let rfd2, wfd2 = expect_pair "pipe2" (sys Syscall.Pipe) in
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigpipe, Syscall.Sig_ignore)));
      ignore (sys (Syscall.Close rfd2));
      expect_err "epipe" Errno.EPIPE (sys (Syscall.Write (wfd2, "y")));
      ignore k)

let test_nonblock_read () =
  run_in_kernel (fun _k ->
      let rfd, wfd = expect_pair "pipe" (sys Syscall.Pipe) in
      ignore
        (expect_int "fcntl"
           (sys (Syscall.Fcntl (rfd, Syscall.F_setfl { nonblock = true }))));
      expect_err "eagain" Errno.EAGAIN (sys (Syscall.Read (rfd, 4)));
      ignore (sys (Syscall.Write (wfd, "data")));
      let d = expect_data "read" (sys (Syscall.Read (rfd, 4))) in
      check_str "nonblocking read succeeds when ready" "data" d)

let test_socket_roundtrip () =
  (* Server thread accepts one connection and echoes; main connects. *)
  run_in_kernel (fun k ->
      let self = Sched.self () in
      let p = self.Proc.proc in
      let port = 8080 in
      p.Proc.entry_table <-
        [|
          (fun () ->
            let sfd = expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream))) in
            ignore (expect_int "bind" (sys (Syscall.Bind (sfd, port))));
            ignore (expect_int "listen" (sys (Syscall.Listen (sfd, 16))));
            match sys (Syscall.Accept sfd) with
            | Syscall.Ok_accept { conn_fd; _ } ->
              let req = expect_data "server read" (sys (Syscall.Read (conn_fd, 64))) in
              ignore (sys (Syscall.Write (conn_fd, "echo:" ^ req)));
              ignore (sys (Syscall.Close conn_fd))
            | _ -> Alcotest.fail "accept");
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      Sched.compute (Vtime.ms 1) (* give the server time to listen *);
      let cfd = expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream))) in
      let t0 = vnow () in
      ignore (expect_int "connect" (sys (Syscall.Connect (cfd, port))));
      let handshake = Vtime.sub (vnow ()) t0 in
      check_bool "connect paid at least 2x one-way latency" true
        Vtime.(handshake >= Vtime.scale (Kernel.net k).Net.latency 2.);
      ignore (sys (Syscall.Write (cfd, "hi")));
      let resp = expect_data "client read" (sys (Syscall.Read (cfd, 64))) in
      check_str "echoed" "echo:hi" resp)

let test_connect_refused () =
  run_in_kernel (fun _k ->
      let cfd = expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream))) in
      expect_err "refused" Errno.ECONNREFUSED (sys (Syscall.Connect (cfd, 9999))))

let test_socketpair () =
  run_in_kernel (fun _k ->
      let a, b = expect_pair "socketpair" (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream))) in
      ignore (sys (Syscall.Write (a, "m1")));
      let d = expect_data "read" (sys (Syscall.Read (b, 8))) in
      check_str "socketpair data" "m1" d)

let test_futex_wait_wake () =
  run_in_kernel (fun _k ->
      let self = Sched.self () in
      let p = self.Proc.proc in
      let addr = 0x7000_0000_0000L in
      Vm.write_word p.Proc.vm addr 1;
      p.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.ms 1);
            Vm.write_word p.Proc.vm addr 0;
            ignore
              (sys (Syscall.Futex (Syscall.Futex_wake { addr; count = 1 }))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      let r =
        sys
          (Syscall.Futex
             (Syscall.Futex_wait { addr; expected = 1; timeout_ns = None }))
      in
      check_int "futex woke" 0 (expect_int "futex_wait" r);
      check_int "word updated" 0 (Vm.read_word p.Proc.vm addr))

let test_futex_wrong_value () =
  run_in_kernel (fun _k ->
      let addr = 0x7000_0000_1000L in
      expect_err "eagain" Errno.EAGAIN
        (sys
           (Syscall.Futex
              (Syscall.Futex_wait { addr; expected = 5; timeout_ns = None }))))

let test_futex_timeout () =
  run_in_kernel (fun _k ->
      let addr = 0x7000_0000_2000L in
      let t0 = vnow () in
      expect_err "timeout" Errno.ETIMEDOUT
        (sys
           (Syscall.Futex
              (Syscall.Futex_wait
                 { addr; expected = 0; timeout_ns = Some (Vtime.ms 3) })));
      check_bool "waited" true Vtime.(vnow () - t0 >= Vtime.ms 3))

let test_epoll () =
  run_in_kernel (fun _k ->
      let rfd, wfd = expect_pair "pipe" (sys Syscall.Pipe) in
      let epfd = expect_int "epoll_create" (sys Syscall.Epoll_create) in
      ignore
        (expect_int "epoll_ctl"
           (sys
              (Syscall.Epoll_ctl
                 {
                   epfd;
                   op = Syscall.Epoll_add;
                   fd = rfd;
                   events = Syscall.ev_in;
                   user_data = 0xDEADBEEFL;
                 })));
      (* not ready: zero timeout returns empty *)
      (match sys (Syscall.Epoll_wait { epfd; max_events = 8; timeout_ns = Some 0 }) with
      | Syscall.Ok_epoll [] -> ()
      | _ -> Alcotest.fail "expected no events");
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.ms 1);
            ignore (sys (Syscall.Write (wfd, "!"))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      match sys (Syscall.Epoll_wait { epfd; max_events = 8; timeout_ns = None }) with
      | Syscall.Ok_epoll [ (ud, ev) ] ->
        check_bool "user data preserved" true (Int64.equal ud 0xDEADBEEFL);
        check_bool "readable" true ev.Syscall.pollin
      | _ -> Alcotest.fail "expected one epoll event")

let test_epoll_timeout () =
  run_in_kernel (fun _k ->
      let epfd = expect_int "epoll_create" (sys Syscall.Epoll_create) in
      let t0 = vnow () in
      (match
         sys
           (Syscall.Epoll_wait
              { epfd; max_events = 4; timeout_ns = Some (Vtime.ms 2) })
       with
      | Syscall.Ok_epoll [] -> ()
      | _ -> Alcotest.fail "expected timeout with no events");
      check_bool "timeout elapsed" true Vtime.(vnow () - t0 >= Vtime.ms 2))

let test_signal_default_kill () =
  let k = Kernel.create () in
  let reached_end = ref false in
  let p =
    Kernel.spawn_process k ~name:"victim" ~vm_seed:3 (fun () ->
        (* SIGTERM arrives mid-nanosleep; default action terminates *)
        ignore (sys (Syscall.Nanosleep (Vtime.ms 10)));
        reached_end := true)
  in
  Kernel.schedule k ~time:(Vtime.ms 1) (fun () -> Kernel.post_signal k p Sigdefs.sigterm);
  Kernel.run k;
  Alcotest.(check bool) "process killed before completing" false !reached_end;
  Alcotest.(check bool) "process dead" false p.Proc.alive;
  Alcotest.(check int) "exit code 128+15" 143 p.Proc.exit_code

let test_signal_eintr_and_handler () =
  let k = Kernel.create () in
  let observed = ref [] in
  let p =
    Kernel.spawn_process k ~name:"handler" ~vm_seed:4 (fun () ->
        ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigusr1, Syscall.Sig_handler 7)));
        let r = sys (Syscall.Nanosleep (Vtime.ms 50)) in
        observed := [ r ];
        let self = Sched.self () in
        (* the kernel queued the handler id for the program runtime *)
        if List.of_seq (Queue.to_seq self.Proc.pending_delivery) <> [ Sigdefs.sigusr1 ]
        then
          observed := Syscall.Error Errno.EINVAL :: !observed)
  in
  Kernel.schedule k ~time:(Vtime.ms 2) (fun () -> Kernel.post_signal k p Sigdefs.sigusr1);
  Kernel.run k;
  match !observed with
  | [ Syscall.Error Errno.EINTR ] -> ()
  | _ -> Alcotest.fail "expected EINTR with queued handler"

let test_alarm () =
  let k = Kernel.create () in
  let fired = ref false in
  let _p =
    Kernel.spawn_process k ~name:"alarm" ~vm_seed:5 (fun () ->
        ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigalrm, Syscall.Sig_handler 1)));
        ignore (sys (Syscall.Alarm 1));
        let r = sys (Syscall.Nanosleep (Vtime.s 5)) in
        (match r with
        | Syscall.Error Errno.EINTR -> fired := true
        | _ -> ());
        ())
  in
  Kernel.run k;
  Alcotest.(check bool) "alarm interrupted the sleep" true !fired

let test_shm_share_words () =
  (* Two processes attach the same segment and see each other's writes. *)
  let k = Kernel.create () in
  let observed = ref (-1) in
  let _writer =
    Kernel.spawn_process k ~name:"writer" ~vm_seed:6 (fun () ->
        let shmid =
          expect_int "shmget"
            (sys (Syscall.Shmget { key = 77; size = 4096; create = true }))
        in
        match sys (Syscall.Shmat { shmid; readonly = false }) with
        | Syscall.Ok_int64 addr ->
          let self = Sched.self () in
          Vm.write_word self.Proc.proc.Proc.vm addr 4242
        | _ -> Alcotest.fail "shmat")
  in
  let _reader =
    Kernel.spawn_process k ~name:"reader" ~vm_seed:7 (fun () ->
        Sched.compute (Vtime.ms 1);
        let shmid =
          expect_int "shmget2"
            (sys (Syscall.Shmget { key = 77; size = 4096; create = true }))
        in
        match sys (Syscall.Shmat { shmid; readonly = false }) with
        | Syscall.Ok_int64 addr ->
          let self = Sched.self () in
          observed := Vm.read_word self.Proc.proc.Proc.vm addr
        | _ -> Alcotest.fail "shmat2")
  in
  Kernel.run k;
  Alcotest.(check int) "shared word visible across processes" 4242 !observed

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_proc_maps () =
  run_in_kernel (fun _k ->
      let self = Sched.self () in
      let p = self.Proc.proc in
      ignore
        (Vm.map p.Proc.vm ~len:8192
           ~prot:{ Syscall.pr = true; pw = true; px = false }
           ~backing:Vm.Anon ~tag:"test-region");
      let fd = expect_int "open maps" (sys (Syscall.Open ("/proc/self/maps", Syscall.o_rdonly))) in
      let content = expect_data "read maps" (sys (Syscall.Read (fd, 65536))) in
      check_bool "contains our region" true (contains content "test-region"))

let test_dents_and_dirs () =
  run_in_kernel (fun _k ->
      ignore (expect_int "mkdir" (sys (Syscall.Mkdir "/tmp/d1")));
      ignore
        (expect_int "creat" (sys (Syscall.Creat "/tmp/d1/f1")));
      ignore
        (expect_int "creat2" (sys (Syscall.Creat "/tmp/d1/f2")));
      let fd = expect_int "open dir" (sys (Syscall.Open ("/tmp/d1", Syscall.o_rdonly))) in
      match sys (Syscall.Getdents fd) with
      | Syscall.Ok_dents names ->
        Alcotest.(check (list string)) "entries" [ "f1"; "f2" ] names
      | _ -> Alcotest.fail "getdents")

let test_select () =
  run_in_kernel (fun _k ->
      let rfd, wfd = expect_pair "pipe" (sys Syscall.Pipe) in
      (match
         sys
           (Syscall.Select
              { readfds = [ rfd ]; writefds = [ wfd ]; timeout_ns = Some 0 })
       with
      | Syscall.Ok_poll ready ->
        check_int "only writer ready" 1 (List.length ready);
        check_int "writer fd" wfd (fst (List.hd ready))
      | _ -> Alcotest.fail "select");
      ignore (sys (Syscall.Write (wfd, "z")));
      match
        sys (Syscall.Select { readfds = [ rfd ]; writefds = []; timeout_ns = None })
      with
      | Syscall.Ok_poll [ (fd, ev) ] ->
        check_int "reader ready" rfd fd;
        check_bool "pollin" true ev.Syscall.pollin
      | _ -> Alcotest.fail "select 2")

let test_nanosleep_duration () =
  run_in_kernel (fun _k ->
      let t0 = vnow () in
      (match sys (Syscall.Nanosleep (Vtime.ms 7)) with
      | Syscall.Ok_unit -> ()
      | _ -> Alcotest.fail "nanosleep");
      check_bool "slept >= 7ms" true Vtime.(vnow () - t0 >= Vtime.ms 7))

let test_dup_shares_offset () =
  run_in_kernel (fun _k ->
      let flags = { Syscall.o_rdwr with create = true } in
      let fd = expect_int "open" (sys (Syscall.Open ("/tmp/dup.txt", flags))) in
      ignore (sys (Syscall.Write (fd, "abcdef")));
      let fd2 = expect_int "dup" (sys (Syscall.Dup fd)) in
      ignore (expect_int "lseek via dup" (sys (Syscall.Lseek (fd2, 1, Syscall.Seek_set))));
      let d = expect_data "read via original" (sys (Syscall.Read (fd, 2))) in
      check_str "offset shared" "bc" d)

let test_wait4 () =
  let k = Kernel.create () in
  let waited = ref (-1) in
  let parent = ref None in
  let child =
    Kernel.spawn_process k ~name:"child" ~vm_seed:8 (fun () ->
        Sched.compute (Vtime.ms 3);
        ignore (sys (Syscall.Exit_group 0)))
  in
  let p =
    Kernel.spawn_process k ~name:"parent" ~vm_seed:9 (fun () ->
        waited := expect_int "wait4" (sys (Syscall.Wait4 (-1))))
  in
  child.Proc.parent_pid <- p.Proc.pid;
  parent := Some p;
  Kernel.run k;
  Alcotest.(check int) "reaped child pid" child.Proc.pid !waited

(* exit_group from a thread whose sibling is parked in accept ends the
   process once, with the group's code, and releases its descriptors: the
   listener unbinds, so a later connect is refused. *)
let test_exit_group_one_death () =
  let k = Kernel.create () in
  let codes = ref [] in
  let listener = ref (-1) in
  let accept () = ignore (sys (Syscall.Accept !listener)) in
  let p =
    Kernel.spawn_process k ~name:"group" ~vm_seed:4 ~entries:[| accept |] (fun () ->
        listener :=
          expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)));
        ignore (expect_int "bind" (sys (Syscall.Bind (!listener, 7320))));
        ignore (expect_int "listen" (sys (Syscall.Listen (!listener, 4))));
        ignore (expect_int "clone" (sys (Syscall.Clone 0)));
        Sched.compute (Vtime.ms 1);
        ignore (sys (Syscall.Exit_group 7)))
  in
  Kernel.on_process_exit p (fun code -> codes := code :: !codes);
  let refused = ref Syscall.Ok_unit in
  ignore
    (Kernel.spawn_process k ~name:"client" ~vm_seed:5 ~start_clock:(Vtime.ms 5)
       (fun () ->
         let s =
           expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))
         in
         refused := sys (Syscall.Connect (s, 7320))));
  Kernel.run k;
  Alcotest.(check (list int)) "one death, with the group's code" [ 7 ] !codes;
  check_bool "listener unbound" true (!refused = Syscall.Error Errno.ECONNREFUSED)

(* ------------------------------------------------------------------ *)
(* Wait queues *)

(* Four threads of one process, parked directly on the scheduler: a, b and
   c on their own queues in that order, d parked later by b's retry. Only
   b's queue is woken before the sweep. b's retry wakes a (behind the
   cursor), c (ahead of it) and d (parked during the sweep). The sweep
   retries b then c; a and d wait for the next sweep. Each retry records
   the sweep it ran in (a sweep is one scheduler event). *)
let test_waitq_order_rule () =
  let k = Kernel.create () in
  let sched = Kernel.sched k in
  let p = Kernel.make_process k ~name:"waiters" ~vm_seed:1 () in
  let thread () = Kernel.add_thread k p ~start_clock:Vtime.zero in
  let log = ref [] in
  let note name () =
    log := (name, sched.Sched.events_processed) :: !log;
    true
  in
  let qa = Waitq.create () and qb = Waitq.create () in
  let qc = Waitq.create () and qd = Waitq.create () in
  ignore (Sched.park sched (thread ()) ~on:qa ~what:"a" ~retry:(note "a"));
  ignore
    (Sched.park sched (thread ()) ~on:qb ~what:"b" ~retry:(fun () ->
         ignore
           (Sched.park sched (thread ()) ~on:qd ~what:"d" ~retry:(note "d"));
         Waitq.wake qa;
         Waitq.wake qc;
         Waitq.wake qd;
         Sched.kick sched;
         note "b" ()));
  ignore (Sched.park sched (thread ()) ~on:qc ~what:"c" ~retry:(note "c"));
  Waitq.wake qb;
  Sched.kick sched;
  Kernel.run k;
  match List.rev !log with
  | [ ("b", s1); ("c", s1'); ("a", s2); ("d", s2') ] ->
    check_int "c runs in b's sweep" s1 s1';
    check_bool "a and d wait for the next sweep" true (s2 > s1 && s2' = s2)
  | l ->
    Alcotest.failf "retry order: %s"
      (String.concat " " (List.map (fun (n, e) -> Printf.sprintf "%s@%d" n e) l))

(* Catch-all entries ([Waitq.global]) are retried by every sweep, in park
   order among the woken queue entries. Parked in this order: a (queue),
   g1 (catch-all), b (queue, never woken), g2, g3, g4 (catch-all), c
   (queue). g4 is unparked before the sweep and g3 by a's retry: neither
   is ever retried. g1's retry parks g5 on the catch-all queue and kicks:
   g5 waits for the next sweep, which retries g2 again (it keeps failing)
   and then g5. *)
let test_waitq_global_order () =
  let k = Kernel.create () in
  let sched = Kernel.sched k in
  let p = Kernel.make_process k ~name:"waiters" ~vm_seed:1 () in
  let park on name retry =
    Sched.park sched
      (Kernel.add_thread k p ~start_clock:Vtime.zero)
      ~on ~what:name ~retry
  in
  let log = ref [] in
  let note name ok () =
    log := (name, sched.Sched.events_processed) :: !log;
    ok
  in
  let qa = Waitq.create () and qb = Waitq.create () and qc = Waitq.create () in
  let g3 = ref Waitq.nil in
  ignore
    (park qa "a" (fun () ->
         Sched.unpark !g3;
         note "a" true ()));
  ignore
    (park Waitq.global "g1" (fun () ->
         ignore (park Waitq.global "g5" (note "g5" true));
         Sched.kick sched;
         note "g1" true ()));
  ignore (park qb "b" (note "b" true));
  ignore (park Waitq.global "g2" (note "g2" false));
  g3 := park Waitq.global "g3" (note "g3" true);
  let g4 = park Waitq.global "g4" (note "g4" true) in
  ignore (park qc "c" (note "c" true));
  Sched.unpark g4;
  Waitq.wake qa;
  Waitq.wake qc;
  Sched.kick sched;
  Kernel.run k;
  match List.rev !log with
  | [ ("a", s1); ("g1", s1a); ("g2", s1b); ("c", s1c); ("g2", s2); ("g5", s2a) ]
    ->
    check_bool "a, g1, g2 and c in one sweep" true
      (s1a = s1 && s1b = s1 && s1c = s1);
    check_bool "g2 and g5 in the next" true (s2 > s1 && s2a = s2)
  | l ->
    Alcotest.failf "retry order: %s"
      (String.concat " " (List.map (fun (n, e) -> Printf.sprintf "%s@%d" n e) l))

(* Minor words a thousand sweeps allocate, after a first one, with 64
   threads parked on [on] whose retries keep failing; and the retries run. *)
let idle_sweeps ~on =
  let k = Kernel.create () in
  let sched = Kernel.sched k in
  let p = Kernel.make_process k ~name:"idle" ~vm_seed:1 () in
  for _ = 1 to 64 do
    ignore
      (Sched.park sched
         (Kernel.add_thread k p ~start_clock:Vtime.zero)
         ~on ~what:"idle" ~retry:(fun () -> false))
  done;
  Sched.kick sched;
  Kernel.run k;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Sched.kick sched;
    Kernel.run k
  done;
  (Gc.minor_words () -. before, sched.Sched.retries)

(* A sweep retries only what was woken: with 64 threads parked on a queue
   nobody wakes, a thousand sweeps allocate nothing (the retry-everything
   sweep rebuilt its 64-element park list on each). *)
let test_waitq_idle_sweeps_allocate_nothing () =
  let words, retries = idle_sweeps ~on:(Waitq.create ()) in
  check_int "retries" 0 retries;
  check_bool
    (Printf.sprintf "1000 sweeps allocated %.0f words" words)
    true (words < 100.)

(* The catch-all queue is woken by every sweep, and waking allocates
   nothing either. *)
let test_waitq_global_sweeps_allocate_nothing () =
  let words, retries = idle_sweeps ~on:Waitq.global in
  check_int "every sweep retries all 64" (64 * 1001) retries;
  check_bool
    (Printf.sprintf "1000 sweeps allocated %.0f words" words)
    true (words < 100.)

(* A state change that forgets to wake the queue its waiter sits on is a
   lost wake-up: the oracle names the wait. *)
let test_waitq_oracle () =
  Sched.set_wakeup_check true;
  let k = Kernel.create () in
  Sched.set_wakeup_check false;
  let sched = Kernel.sched k in
  let p = Kernel.make_process k ~name:"waiter" ~vm_seed:1 () in
  let th = Kernel.add_thread k p ~start_clock:Vtime.zero in
  let ready = ref false in
  ignore
    (Sched.park sched th ~on:(Waitq.create ()) ~what:"forgotten"
       ~retry:(fun () -> !ready));
  ready := true;
  Sched.kick sched;
  match Kernel.run k with
  | () -> Alcotest.fail "lost wake-up not reported"
  | exception Sched.Lost_wakeup msg ->
    check_bool "report names the wait" true
      (String.length msg >= 9 && String.sub msg 0 9 = "forgotten")

(* ------------------------------------------------------------------ *)
(* The stop protocol, driven by a tracer of its own *)

let stop_t =
  Alcotest.testable
    (fun fmt -> function
      | Proc.Syscall_entry_stop c -> Format.fprintf fmt "entry %a" Syscall.pp_call c
      | Proc.Syscall_exit_stop (c, r) ->
        Format.fprintf fmt "exit %a = %a" Syscall.pp_call c Syscall.pp_result r
      | Proc.Signal_delivery_stop sg -> Format.fprintf fmt "signal %d" sg
      | Proc.Exit_stop code -> Format.fprintf fmt "death %d" code)
    ( = )

(* Runs [body] as the only process of a fresh kernel under a tracer that
   records each stop and resumes it at once, from inside the tracer, with
   [answer]'s action. Answers the stops in order; the kernel counts each
   of them in [ptrace_stops]. *)
let traced ?(answer = fun _ -> Proc.Resume_continue) body =
  let k = Kernel.create () in
  let stops = ref [] in
  let p = Kernel.spawn_process k ~name:"traced" ~vm_seed:9 body in
  Kernel.attach_tracer p (fun th reason ->
      stops := reason :: !stops;
      Kernel.resume th (answer reason));
  Kernel.run k;
  let stops = List.rev !stops in
  check_int "ptrace_stops counts every stop" (List.length stops)
    (Kernel.stats k).Kstate.ptrace_stops;
  stops

let test_stop_entry_then_exit () =
  let pid = ref 0 in
  let stops =
    traced (fun () ->
        pid := expect_int "getpid" (sys Syscall.Getpid);
        expect_err "close" Errno.EBADF (sys (Syscall.Close 99)))
  in
  Alcotest.(check (list stop_t))
    "one entry and one exit stop per call, with the call and its result"
    [
      Proc.Syscall_entry_stop Syscall.Getpid;
      Proc.Syscall_exit_stop (Syscall.Getpid, Syscall.Ok_int !pid);
      Proc.Syscall_entry_stop (Syscall.Close 99);
      Proc.Syscall_exit_stop (Syscall.Close 99, Syscall.Error Errno.EBADF);
    ]
    stops

(* A skipped write answers the injected result and leaves the pipe empty. *)
let test_stop_skip () =
  let injected = Syscall.Ok_int 5 in
  let fds = ref (0, 0) and written = ref Syscall.Ok_unit and queued = ref (-1) in
  let stops =
    traced
      ~answer:(function
        | Proc.Syscall_entry_stop (Syscall.Write _) -> Proc.Resume_skip injected
        | _ -> Proc.Resume_continue)
      (fun () ->
        let r, w = expect_pair "pipe" (sys Syscall.Pipe) in
        fds := (r, w);
        written := sys (Syscall.Write (w, "x"));
        queued := expect_int "FIONREAD" (sys (Syscall.Ioctl (r, Syscall.Fionread))))
  in
  let r, w = !fds in
  check_bool "the write answers the injected result" true (!written = injected);
  check_int "the pipe stays empty" 0 !queued;
  Alcotest.(check (list stop_t))
    "the exit stop follows the skipped call"
    [
      Proc.Syscall_entry_stop Syscall.Pipe;
      Proc.Syscall_exit_stop (Syscall.Pipe, Syscall.Ok_pair (r, w));
      Proc.Syscall_entry_stop (Syscall.Write (w, "x"));
      Proc.Syscall_exit_stop (Syscall.Write (w, "x"), injected);
      Proc.Syscall_entry_stop (Syscall.Ioctl (r, Syscall.Fionread));
      Proc.Syscall_exit_stop (Syscall.Ioctl (r, Syscall.Fionread), Syscall.Ok_int 0);
    ]
    stops

(* Sends [sg] to the process itself with a handler installed; answers the
   signal stops and the signals left pending and queued for the handler. *)
let self_signal sg =
  let pending = ref [] and queued = ref [] in
  let stops =
    traced (fun () ->
        ignore (sys (Syscall.Rt_sigaction (sg, Syscall.Sig_handler 7)));
        let pid = expect_int "getpid" (sys Syscall.Getpid) in
        ignore (sys (Syscall.Kill (pid, sg)));
        let self = Sched.self () in
        pending := List.of_seq (Queue.to_seq self.Proc.proc.Proc.pending_signals);
        queued := List.of_seq (Queue.to_seq self.Proc.pending_delivery))
  in
  let signal_stops =
    List.filter (function Proc.Signal_delivery_stop _ -> true | _ -> false) stops
  in
  (signal_stops, !pending, !queued)

(* An asynchronous signal goes to the tracer, which keeps it. *)
let test_stop_async_signal () =
  let stops, pending, queued = self_signal Sigdefs.sigusr1 in
  Alcotest.(check (list stop_t))
    "one signal-delivery stop" [ Proc.Signal_delivery_stop Sigdefs.sigusr1 ] stops;
  Alcotest.(check (list int)) "not pending" [] pending;
  Alcotest.(check (list int)) "not queued for the handler" [] queued

let test_stop_sync_signal () =
  let stops, pending, queued = self_signal Sigdefs.sigsegv in
  Alcotest.(check (list stop_t)) "no stop" [] stops;
  Alcotest.(check (list int)) "not pending" [] pending;
  Alcotest.(check (list int)) "queued for the handler" [ Sigdefs.sigsegv ] queued

let test_stop_death () =
  let stops = traced (fun () -> ignore (sys (Syscall.Exit 3))) in
  Alcotest.(check (list stop_t))
    "the call's entry stop, then one death stop with its code"
    [ Proc.Syscall_entry_stop (Syscall.Exit 3); Proc.Exit_stop 3 ]
    stops

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "kernel"
    [
      ( "basics",
        [
          tc "getpid and virtual time" test_getpid_and_time;
          tc "file round trip" test_file_roundtrip;
          tc "pread/pwrite" test_pread_pwrite;
          tc "getdents" test_dents_and_dirs;
          tc "dup shares offset" test_dup_shares_offset;
          tc "nanosleep" test_nanosleep_duration;
        ] );
      ( "wait queues",
        [
          tc "woken ahead of the cursor: this sweep" test_waitq_order_rule;
          tc "lost wake-up oracle" test_waitq_oracle;
          tc "idle sweeps allocate nothing" test_waitq_idle_sweeps_allocate_nothing;
          tc "catch-all entries: park order, next sweep, unpark"
            test_waitq_global_order;
          tc "catch-all sweeps allocate nothing"
            test_waitq_global_sweeps_allocate_nothing;
        ] );
      ( "pipes",
        [
          tc "blocking read" test_pipe_blocking;
          tc "eof and epipe" test_pipe_eof_and_epipe;
          tc "nonblocking read" test_nonblock_read;
        ] );
      ( "sockets",
        [
          tc "connect/accept/echo" test_socket_roundtrip;
          tc "connection refused" test_connect_refused;
          tc "socketpair" test_socketpair;
        ] );
      ( "futex",
        [
          tc "wait/wake" test_futex_wait_wake;
          tc "wrong value" test_futex_wrong_value;
          tc "timeout" test_futex_timeout;
        ] );
      ( "epoll+select",
        [
          tc "epoll readiness" test_epoll;
          tc "epoll timeout" test_epoll_timeout;
          tc "select" test_select;
        ] );
      ( "signals",
        [
          tc "default kill" test_signal_default_kill;
          tc "eintr + handler queue" test_signal_eintr_and_handler;
          tc "alarm" test_alarm;
        ] );
      ( "memory",
        [ tc "shm words shared" test_shm_share_words; tc "/proc/self/maps" test_proc_maps ] );
      ( "processes",
        [ tc "wait4" test_wait4; tc "exit_group is one death" test_exit_group_one_death ] );
      ( "ptrace stops",
        [
          tc "entry then exit stop per call" test_stop_entry_then_exit;
          tc "skip injects the result" test_stop_skip;
          tc "an asynchronous signal goes to the tracer" test_stop_async_signal;
          tc "a synchronous signal does not stop" test_stop_sync_signal;
          tc "exit makes one death stop" test_stop_death;
        ] );
    ]
