(* Second kernel substrate suite: timers, vectored I/O, fd lifecycle
   corners, socket corners, VFS operations, VM/ASLR properties. *)

open Remon_kernel
open Remon_sim

let sys = Sched.syscall
let vnow = Sched.vnow

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

let expect_err label e r =
  match (r : Syscall.result) with
  | Syscall.Error e' when e = e' -> ()
  | other ->
    Alcotest.failf "%s: expected %s, got %s" label (Errno.to_string e)
      (Format.asprintf "%a" Syscall.pp_result other)

let run_in_kernel ?(seed = 11) body =
  let k = Kernel.create ~seed () in
  let result = ref None in
  ignore (Kernel.spawn_process k ~name:"t2" ~vm_seed:3 (fun () -> result := Some (body k)));
  Kernel.run k;
  match !result with Some v -> v | None -> Alcotest.fail "body did not complete"

(* ---- timers ---- *)

let test_timerfd () =
  run_in_kernel (fun _ ->
      let tfd = expect_int "timerfd_create" (sys Syscall.Timerfd_create) in
      let t0 = vnow () in
      ignore
        (expect_int "settime"
           (sys
              (Syscall.Timerfd_settime
                 (tfd, { Syscall.value_ns = Vtime.ms 2; interval_ns = Vtime.ms 1 }))));
      (match sys (Syscall.Read (tfd, 8)) with
      | Syscall.Ok_int64 n -> Alcotest.(check bool) "at least one expiration" true (Int64.compare n 1L >= 0)
      | r -> Alcotest.failf "timerfd read: %s" (Format.asprintf "%a" Syscall.pp_result r));
      Alcotest.(check bool) "blocked until first expiry" true
        Vtime.(vnow () - t0 >= Vtime.ms 2);
      (* interval keeps firing *)
      match sys (Syscall.Read (tfd, 8)) with
      | Syscall.Ok_int64 _ -> ()
      | r -> Alcotest.failf "second read: %s" (Format.asprintf "%a" Syscall.pp_result r))

let test_timerfd_gettime () =
  run_in_kernel (fun _ ->
      let tfd = expect_int "timerfd_create" (sys Syscall.Timerfd_create) in
      (match sys (Syscall.Timerfd_gettime tfd) with
      | Syscall.Ok_itimer s ->
        Alcotest.(check bool) "disarmed" true (s.Syscall.value_ns = 0)
      | _ -> Alcotest.fail "gettime");
      ignore
        (sys
           (Syscall.Timerfd_settime
              (tfd, { Syscall.value_ns = Vtime.s 5; interval_ns = 0 })));
      match sys (Syscall.Timerfd_gettime tfd) with
      | Syscall.Ok_itimer s ->
        Alcotest.(check bool) "armed" true (s.Syscall.value_ns > 0)
      | _ -> Alcotest.fail "gettime 2")

let test_setitimer_interval () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigalrm, Syscall.Sig_handler 3)));
      ignore
        (sys
           (Syscall.Setitimer { Syscall.value_ns = Vtime.ms 1; interval_ns = Vtime.ms 1 }));
      (* two ticks interrupt two sleeps *)
      let hits = ref 0 in
      for _ = 1 to 2 do
        (match sys (Syscall.Nanosleep (Vtime.ms 10)) with
        | Syscall.Error Errno.EINTR -> incr hits
        | _ -> ());
        Queue.clear (Sched.self ()).Proc.pending_delivery
      done;
      (* disarm *)
      ignore (sys (Syscall.Setitimer { Syscall.value_ns = 0; interval_ns = 0 }));
      Alcotest.(check int) "both sleeps interrupted" 2 !hits)

(* One real timer: alarm re-arms what setitimer armed, so the periodic
   timer stops and only the alarm's SIGALRM arrives. *)
let test_alarm_replaces_setitimer () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigalrm, Syscall.Sig_handler 3)));
      ignore
        (sys
           (Syscall.Setitimer
              { Syscall.value_ns = Vtime.ms 100; interval_ns = Vtime.ms 100 }));
      Alcotest.(check int) "alarm answers the 0.1 s left, rounded up" 1
        (expect_int "alarm" (sys (Syscall.Alarm 1)));
      let delivered = ref 0 in
      for _ = 1 to 6 do
        ignore (sys (Syscall.Nanosleep (Vtime.ms 500)));
        let pending = (Sched.self ()).Proc.pending_delivery in
        delivered := !delivered + Queue.length pending;
        Queue.clear pending
      done;
      Alcotest.(check int) "one SIGALRM in 3 s" 1 !delivered)

(* ---- vectored and positional I/O ---- *)

let test_writev_readv () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Open ("/tmp/v.bin", { Syscall.o_rdwr with create = true }))) in
      let n = expect_int "writev" (sys (Syscall.Writev (fd, [ "ab"; "cd"; "ef" ]))) in
      Alcotest.(check int) "writev total" 6 n;
      ignore (sys (Syscall.Lseek (fd, 0, Syscall.Seek_set)));
      let d = expect_data "readv" (sys (Syscall.Readv (fd, [ 2; 4 ]))) in
      Alcotest.(check string) "readv gathers" "abcdef" d)

let test_pwritev_preadv () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Open ("/tmp/pv.bin", { Syscall.o_rdwr with create = true }))) in
      ignore (expect_int "pwritev" (sys (Syscall.Pwritev (fd, [ "xx"; "yy" ], 3))));
      let d = expect_data "preadv" (sys (Syscall.Preadv (fd, [ 4 ], 3))) in
      Alcotest.(check string) "positional vectored" "xxyy" d;
      Alcotest.(check int) "offset untouched" 0
        (expect_int "lseek" (sys (Syscall.Lseek (fd, 0, Syscall.Seek_cur)))))

let test_sendfile () =
  run_in_kernel (fun _ ->
      let src = expect_int "open" (sys (Syscall.Open ("/tmp/sf.txt", { Syscall.o_rdwr with create = true }))) in
      ignore (sys (Syscall.Pwrite64 (src, "sendfile-payload", 0)));
      ignore (sys (Syscall.Lseek (src, 0, Syscall.Seek_set)));
      match sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)) with
      | Syscall.Ok_pair (a, b) ->
        let n = expect_int "sendfile" (sys (Syscall.Sendfile { out_fd = a; in_fd = src; count = 16 })) in
        Alcotest.(check int) "bytes moved" 16 n;
        let d = expect_data "recv" (sys (Syscall.Recvfrom (b, 32))) in
        Alcotest.(check string) "payload arrived" "sendfile-payload" d
      | _ -> Alcotest.fail "socketpair")

let test_recvmmsg_sendmmsg () =
  run_in_kernel (fun _ ->
      match sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)) with
      | Syscall.Ok_pair (a, b) ->
        ignore (expect_int "sendmmsg" (sys (Syscall.Sendmmsg (a, [ "111"; "222" ]))));
        let d = expect_data "recvmmsg" (sys (Syscall.Recvmmsg (b, 2, 3))) in
        Alcotest.(check string) "batched data" "111222" d
      | _ -> Alcotest.fail "socketpair")

(* ---- fd lifecycle corners ---- *)

let test_dup2_replaces () =
  run_in_kernel (fun _ ->
      let fd1 = expect_int "open1" (sys (Syscall.Creat "/tmp/a.txt")) in
      let fd2 = expect_int "open2" (sys (Syscall.Creat "/tmp/b.txt")) in
      ignore (expect_int "dup2" (sys (Syscall.Dup2 (fd1, fd2))));
      (* fd2 now refers to a.txt *)
      ignore (expect_int "write" (sys (Syscall.Write (fd2, "via-dup2"))));
      ignore (sys (Syscall.Close fd1));
      ignore (sys (Syscall.Close fd2));
      let fd = expect_int "reopen" (sys (Syscall.Open ("/tmp/a.txt", Syscall.o_rdonly))) in
      let d = expect_data "read" (sys (Syscall.Read (fd, 64))) in
      Alcotest.(check string) "write went to a.txt" "via-dup2" d)

let test_dup2_same_fd () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Creat "/tmp/same.txt")) in
      Alcotest.(check int) "dup2(fd,fd) is identity" fd
        (expect_int "dup2" (sys (Syscall.Dup2 (fd, fd))));
      ignore (expect_int "still usable" (sys (Syscall.Write (fd, "x")))))

let test_fcntl_dupfd () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Creat "/tmp/dupfd.txt")) in
      let fd2 = expect_int "f_dupfd" (sys (Syscall.Fcntl (fd, Syscall.F_dupfd 0))) in
      Alcotest.(check bool) "new fd" true (fd2 <> fd);
      ignore (expect_int "write via dup" (sys (Syscall.Write (fd2, "y")))))

let test_lowest_free_fd () =
  run_in_kernel (fun _ ->
      let a = expect_int "a" (sys (Syscall.Creat "/tmp/f1")) in
      let b = expect_int "b" (sys (Syscall.Creat "/tmp/f2")) in
      Alcotest.(check int) "sequential" (a + 1) b;
      ignore (sys (Syscall.Close a));
      let c = expect_int "c" (sys (Syscall.Creat "/tmp/f3")) in
      Alcotest.(check int) "lowest free fd reused" a c)

let test_fcntl_dupfd_minimum () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Creat "/tmp/dupfd-min.txt")) in
      Alcotest.(check int) "only fd open" 0 fd;
      let dupfd n = sys (Syscall.Fcntl (fd, Syscall.F_dupfd n)) in
      Alcotest.(check int) "lowest free >= 10" 10 (expect_int "F_DUPFD 10" (dupfd 10));
      Alcotest.(check int) "10 taken: next is 11" 11 (expect_int "F_DUPFD 10" (dupfd 10));
      Alcotest.(check int) "minimum 0: lowest free" 1 (expect_int "F_DUPFD 0" (dupfd 0));
      expect_err "negative minimum" Errno.EINVAL (dupfd (-5));
      expect_err "minimum at the limit" Errno.EINVAL (dupfd Fdtable.limit);
      ignore (expect_int "write via fd 10" (sys (Syscall.Write (10, "z"))));
      Alcotest.(check int) "dup shares the offset" 1
        (expect_int "lseek" (sys (Syscall.Lseek (fd, 0, Syscall.Seek_cur)))))

let test_dup2_dup3_target_range () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Creat "/tmp/dup-range.txt")) in
      List.iter
        (fun newfd ->
          let label = Printf.sprintf "target %d" newfd in
          expect_err ("dup2 " ^ label) Errno.EBADF (sys (Syscall.Dup2 (fd, newfd)));
          expect_err ("dup3 " ^ label) Errno.EBADF (sys (Syscall.Dup3 (fd, newfd))))
        [ -1; Fdtable.limit; 1 lsl 40 ];
      expect_err "nothing installed at -1" Errno.EBADF (sys (Syscall.Write (-1, "x")));
      let top = Fdtable.limit - 1 in
      Alcotest.(check int) "highest fd accepted" top
        (expect_int "dup2 top" (sys (Syscall.Dup2 (fd, top))));
      ignore (expect_int "write via top fd" (sys (Syscall.Write (top, "x")))))

let test_dup3_same_fd () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Creat "/tmp/dup3-same.txt")) in
      expect_err "dup3(fd, fd)" Errno.EINVAL (sys (Syscall.Dup3 (fd, fd)));
      (* Linux checks oldfd = newfd before it looks at oldfd *)
      expect_err "dup3 of a closed fd onto itself" Errno.EINVAL
        (sys (Syscall.Dup3 (42, 42)));
      ignore (expect_int "fd still usable" (sys (Syscall.Write (fd, "x")))))

(* The fd table against an IntMap model: random allocate-lowest,
   allocate->=n, install-at-k, remove and find steps, with k < 300 so the
   table grows past its 16 initial slots and holds sparse entries. Finds
   also probe negative fds and fds past the table's capacity. *)
module IntMap = Map.Make (Int)

type fd_op = Alloc of int | Set of int | Remove of int | Find of int

let gen_fd_op =
  QCheck2.Gen.(
    let k = int_range 0 299 in
    frequency
      [
        (3, return (Alloc 0));
        (2, map (fun n -> Alloc n) k);
        (2, map (fun n -> Set n) k);
        (3, map (fun n -> Remove n) k);
        (2, map (fun n -> Find n) (int_range (-5) 2000));
      ])

let print_fd_op = function
  | Alloc n -> Printf.sprintf "alloc>=%d" n
  | Set n -> Printf.sprintf "set %d" n
  | Remove n -> Printf.sprintf "remove %d" n
  | Find n -> Printf.sprintf "find %d" n

let prop_fdtable_model =
  QCheck2.Test.make ~name:"fd table matches an IntMap model" ~count:300
    ~print:QCheck2.Print.(list print_fd_op)
    QCheck2.Gen.(list_size (int_range 1 400) gen_fd_op)
    (fun ops ->
      let t = Fdtable.create () in
      let step (model, v) op =
        let model =
          match op with
          | Alloc n ->
            let rec least fd = if IntMap.mem fd model then least (fd + 1) else fd in
            let fd = Fdtable.alloc t ~from:n v in
            if fd <> least n then
              QCheck2.Test.fail_reportf "alloc>=%d gave %d, model says %d" n fd
                (least n);
            IntMap.add fd v model
          | Set k ->
            Fdtable.set t k v;
            IntMap.add k v model
          | Remove k ->
            Fdtable.remove t k;
            IntMap.remove k model
          | Find k ->
            if Fdtable.find t k <> IntMap.find_opt k model then
              QCheck2.Test.fail_reportf "find %d disagrees" k;
            model
        in
        for fd = -1 to 300 do
          if Fdtable.find t fd <> IntMap.find_opt fd model then
            QCheck2.Test.fail_reportf "after %s: find %d disagrees" (print_fd_op op) fd
        done;
        let walked = ref [] in
        Fdtable.iter (fun fd x -> walked := (fd, x) :: !walked) t;
        if List.rev !walked <> IntMap.bindings model
           || Fdtable.bindings t <> IntMap.bindings model
        then
          QCheck2.Test.fail_reportf "after %s: iteration differs from the model"
            (print_fd_op op);
        (model, v + 1)
      in
      ignore (List.fold_left step (IntMap.empty, 0) ops);
      true)

(* ---- VFS operations ---- *)

let test_rename_unlink () =
  run_in_kernel (fun k ->
      ignore (expect_int "creat" (sys (Syscall.Creat "/tmp/old.txt")));
      ignore (expect_int "rename" (sys (Syscall.Rename ("/tmp/old.txt", "/tmp/new.txt"))));
      expect_err "old gone" Errno.ENOENT (sys (Syscall.Stat "/tmp/old.txt"));
      ignore (expect_int "unlink" (sys (Syscall.Unlink "/tmp/new.txt")));
      expect_err "new gone" Errno.ENOENT (sys (Syscall.Stat "/tmp/new.txt"));
      ignore k)

let test_rmdir_nonempty () =
  run_in_kernel (fun _ ->
      ignore (expect_int "mkdir" (sys (Syscall.Mkdir "/tmp/dir")));
      ignore (expect_int "creat" (sys (Syscall.Creat "/tmp/dir/f")));
      expect_err "not empty" Errno.ENOTEMPTY (sys (Syscall.Rmdir "/tmp/dir"));
      ignore (sys (Syscall.Unlink "/tmp/dir/f"));
      ignore (expect_int "rmdir ok" (sys (Syscall.Rmdir "/tmp/dir"))))

let test_truncate () =
  run_in_kernel (fun _ ->
      let fd = expect_int "open" (sys (Syscall.Open ("/tmp/tr.bin", { Syscall.o_rdwr with create = true }))) in
      ignore (sys (Syscall.Write (fd, "0123456789")));
      ignore (expect_int "ftruncate shrink" (sys (Syscall.Ftruncate (fd, 4))));
      (match sys (Syscall.Fstat fd) with
      | Syscall.Ok_stat s -> Alcotest.(check int) "shrunk" 4 s.Syscall.st_size
      | _ -> Alcotest.fail "fstat");
      ignore (expect_int "truncate grow" (sys (Syscall.Truncate ("/tmp/tr.bin", 8))));
      match sys (Syscall.Stat "/tmp/tr.bin") with
      | Syscall.Ok_stat s -> Alcotest.(check int) "zero-extended" 8 s.Syscall.st_size
      | _ -> Alcotest.fail "stat")

let test_symlink_readlink () =
  let k = Kernel.create () in
  ignore (Vfs.create_file (Kernel.vfs k) "/tmp/target.txt" |> Result.get_ok);
  ignore (Vfs.symlink (Kernel.vfs k) ~target:"/tmp/target.txt" ~path:"/tmp/link" |> Result.get_ok);
  let got = ref "" in
  ignore
    (Kernel.spawn_process k ~name:"sym" ~vm_seed:4 (fun () ->
         (match sys (Syscall.Readlink "/tmp/link") with
         | Syscall.Ok_str s -> got := s
         | _ -> ());
         (* stat follows the link *)
         match sys (Syscall.Stat "/tmp/link") with
         | Syscall.Ok_stat _ -> ()
         | _ -> got := "stat-failed"));
  Kernel.run k;
  Alcotest.(check string) "readlink returns target" "/tmp/target.txt" !got

let test_xattr () =
  let k = Kernel.create () in
  let node = Vfs.create_file (Kernel.vfs k) "/tmp/x.txt" |> Result.get_ok in
  node.Vfs.xattrs <- [ ("user.tag", "blue") ];
  let got = ref "" in
  ignore
    (Kernel.spawn_process k ~name:"xattr" ~vm_seed:5 (fun () ->
         (match sys (Syscall.Getxattr ("/tmp/x.txt", "user.tag")) with
         | Syscall.Ok_str v -> got := v
         | _ -> ());
         match sys (Syscall.Getxattr ("/tmp/x.txt", "user.nope")) with
         | Syscall.Error Errno.ENOENT -> ()
         | _ -> got := "missing-should-fail"));
  Kernel.run k;
  Alcotest.(check string) "xattr value" "blue" !got

(* ---- socket corners ---- *)

let test_nonblock_accept () =
  run_in_kernel (fun _ ->
      let sfd = expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream))) in
      ignore (expect_int "bind" (sys (Syscall.Bind (sfd, 7100))));
      ignore (expect_int "listen" (sys (Syscall.Listen (sfd, 8))));
      ignore (expect_int "fcntl" (sys (Syscall.Fcntl (sfd, Syscall.F_setfl { nonblock = true }))));
      expect_err "empty queue" Errno.EAGAIN (sys (Syscall.Accept sfd)))

let test_getsockname_peername () =
  run_in_kernel (fun _ ->
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            let sfd = expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream))) in
            ignore (sys (Syscall.Bind (sfd, 7200)));
            ignore (sys (Syscall.Listen (sfd, 8)));
            match sys (Syscall.Accept sfd) with
            | Syscall.Ok_accept { conn_fd; _ } ->
              ignore (sys (Syscall.Read (conn_fd, 1)))
            | _ -> ());
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      Sched.compute (Vtime.ms 1);
      let cfd = expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream))) in
      ignore (expect_int "connect" (sys (Syscall.Connect (cfd, 7200))));
      Alcotest.(check int) "peer port" 7200
        (expect_int "getpeername" (sys (Syscall.Getpeername cfd)));
      Alcotest.(check bool) "local ephemeral port" true
        (expect_int "getsockname" (sys (Syscall.Getsockname cfd)) >= 32768);
      ignore (sys (Syscall.Sendto (cfd, "!"))))

let test_shutdown_wr_gives_peer_eof () =
  run_in_kernel (fun _ ->
      match sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)) with
      | Syscall.Ok_pair (a, b) ->
        ignore (sys (Syscall.Sendto (a, "last")));
        ignore (expect_int "shutdown" (sys (Syscall.Shutdown (a, Syscall.Shut_wr))));
        let d1 = expect_data "drain" (sys (Syscall.Recvfrom (b, 16))) in
        Alcotest.(check string) "buffered data first" "last" d1;
        let d2 = expect_data "eof" (sys (Syscall.Recvfrom (b, 16))) in
        Alcotest.(check string) "then EOF" "" d2
      | _ -> Alcotest.fail "socketpair")

let test_write_to_closed_socket () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigpipe, Syscall.Sig_ignore)));
      match sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)) with
      | Syscall.Ok_pair (a, b) ->
        ignore (sys (Syscall.Close b));
        expect_err "epipe" Errno.EPIPE (sys (Syscall.Sendto (a, "x")))
      | _ -> Alcotest.fail "socketpair")

(* ---- poll with timeout ---- *)

let test_poll_timeout () =
  run_in_kernel (fun _ ->
      match sys Syscall.Pipe with
      | Syscall.Ok_pair (rfd, _) -> (
        let t0 = vnow () in
        match
          sys
            (Syscall.Poll
               { fds = [ (rfd, Syscall.ev_in) ]; timeout_ns = Some (Vtime.ms 3) })
        with
        | Syscall.Ok_poll [] ->
          Alcotest.(check bool) "waited for the timeout" true
            Vtime.(vnow () - t0 >= Vtime.ms 3)
        | _ -> Alcotest.fail "expected empty poll")
      | _ -> Alcotest.fail "pipe")

(* ---- VM / ASLR properties ---- *)

let prop_aslr_layouts_distinct =
  QCheck2.Test.make ~name:"different seeds give different mmap placements" ~count:50
    QCheck2.Gen.(pair small_int small_int)
    (fun (s1, s2) ->
      QCheck2.assume (s1 <> s2);
      let place seed =
        let vm = Vm.create ~rng:(Remon_util.Rng.make seed) in
        match
          Vm.map vm ~len:4096
            ~prot:{ Syscall.pr = true; pw = true; px = false }
            ~backing:Vm.Anon ~tag:"probe"
        with
        | Ok r -> r.Vm.start
        | Error _ -> 0L
      in
      not (Int64.equal (place s1) (place s2)))

let prop_vm_no_overlap =
  QCheck2.Test.make ~name:"mapped regions never overlap" ~count:50
    QCheck2.Gen.(list_size (int_range 2 20) (int_range 1 64))
    (fun sizes ->
      let vm = Vm.create ~rng:(Remon_util.Rng.make 7) in
      List.iter
        (fun pages ->
          ignore
            (Vm.map vm ~len:(pages * 4096)
               ~prot:{ Syscall.pr = true; pw = true; px = false }
               ~backing:Vm.Anon ~tag:"r"))
        sizes;
      let rec check = function
        | [] | [ _ ] -> true
        | (a : Vm.region) :: (b :: _ as rest) ->
          Int64.compare (Int64.add a.Vm.start (Int64.of_int a.Vm.len)) b.Vm.start <= 0
          && check rest
      in
      check vm.Vm.regions)

let prop_futex_key_shared_segments =
  QCheck2.Test.make ~name:"futex keys: shm words shared, private words not"
    ~count:30 QCheck2.Gen.(int_range 0 1000)
    (fun offset_words ->
      let offset = offset_words * 8 in
      let seg =
        match
          Shm.get (Shm.create ()) ~key:9 ~size:65536 ~create:true
        with
        | Ok s -> s
        | Error _ -> assert false
      in
      let mk seed =
        let vm = Vm.create ~rng:(Remon_util.Rng.make seed) in
        match
          Vm.map vm ~len:65536
            ~prot:{ Syscall.pr = true; pw = true; px = false }
            ~backing:(Vm.Shm_seg seg) ~tag:"shm"
        with
        | Ok r -> (vm, r.Vm.start)
        | Error _ -> assert false
      in
      let vm1, base1 = mk 1 and vm2, base2 = mk 2 in
      if offset >= 65536 then true
      else begin
        let k1 =
          Vm.futex_key vm1 ~space_id:100 (Int64.add base1 (Int64.of_int offset))
        in
        let k2 =
          Vm.futex_key vm2 ~space_id:200 (Int64.add base2 (Int64.of_int offset))
        in
        (* same physical word in both spaces -> same key; private words in
           different spaces -> different keys *)
        k1 = k2
        && Vm.futex_key vm1 ~space_id:100 0x1234L
           <> Vm.futex_key vm2 ~space_id:200 0x1234L
      end)

(* ---- bad counts, offsets and sizes ----

   A compromised replica chooses its own arguments, so none of these may
   raise inside the kernel or corrupt its state. Each expectation is what
   Linux 6.18 answered to the same call from C: a negative int here is a
   size_t or loff_t with the top bit set there. *)

let open_file name =
  let fd =
    expect_int "open"
      (sys (Syscall.Open (name, { Syscall.o_rdwr with create = true })))
  in
  ignore (expect_int "write" (sys (Syscall.Write (fd, "hello"))));
  ignore (sys (Syscall.Lseek (fd, 0, Syscall.Seek_set)));
  fd

let fionread fd = expect_int "FIONREAD" (sys (Syscall.Ioctl (fd, Syscall.Fionread)))

(* socket writes land after the local hop's latency *)
let settle () = ignore (sys (Syscall.Nanosleep (Vtime.us 10)))

let expect_pair label r =
  match (r : Syscall.result) with
  | Syscall.Ok_pair (a, b) -> (a, b)
  | other ->
    Alcotest.failf "%s: expected Ok_pair, got %s" label
      (Format.asprintf "%a" Syscall.pp_result other)

let test_read_negative_count () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-read" in
      expect_err "read(file, -5)" Errno.EFAULT (sys (Syscall.Read (f, -5)));
      Alcotest.(check string) "file offset kept" "he"
        (expect_data "read" (sys (Syscall.Read (f, 2))));
      (* pipes and sockets must not count phantom bytes either *)
      let pr, pw = expect_pair "pipe" (sys Syscall.Pipe) in
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      ignore (expect_int "write pipe" (sys (Syscall.Write (pw, "abc"))));
      ignore (expect_int "write socket" (sys (Syscall.Write (a, "abc"))));
      settle ();
      List.iter
        (fun (what, fd) ->
          expect_err what Errno.EFAULT (sys (Syscall.Read (fd, -5)));
          Alcotest.(check int) (what ^ ": FIONREAD") 3 (fionread fd);
          Alcotest.(check string) (what ^ ": data intact") "abc"
            (expect_data what (sys (Syscall.Read (fd, 8))));
          Alcotest.(check int) (what ^ ": drained") 0 (fionread fd))
        [ ("read(pipe, -5)", pr); ("read(socketpair, -5)", b) ])

let test_readv_negative_len () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-readv" in
      expect_err "readv(file, [3; -1])" Errno.EINVAL
        (sys (Syscall.Readv (f, [ 3; -1 ])));
      Alcotest.(check string) "nothing consumed" "hello"
        (expect_data "read" (sys (Syscall.Read (f, 8)))))

let test_pread64_negative () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-pread" in
      expect_err "pread64(f, 3, -1)" Errno.EINVAL
        (sys (Syscall.Pread64 (f, 3, -1)));
      expect_err "pread64(badfd, 3, -1)" Errno.EINVAL
        (sys (Syscall.Pread64 (99, 3, -1)));
      expect_err "pread64(f, -5, 0)" Errno.EFAULT
        (sys (Syscall.Pread64 (f, -5, 0))))

let test_preadv_negative () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-preadv" in
      expect_err "preadv(f, [3], -2)" Errno.EINVAL
        (sys (Syscall.Preadv (f, [ 3 ], -2)));
      expect_err "preadv(f, [-1], 0)" Errno.EINVAL
        (sys (Syscall.Preadv (f, [ -1 ], 0))))

let test_pwrite64_negative_offset () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-pwrite" in
      expect_err "pwrite64(f, xy, -1)" Errno.EINVAL
        (sys (Syscall.Pwrite64 (f, "xy", -1)));
      Alcotest.(check string) "file untouched" "hello"
        (expect_data "read" (sys (Syscall.Read (f, 8)))))

let test_pwritev_negative_offset () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-pwritev" in
      expect_err "pwritev(f, [x], -1)" Errno.EINVAL
        (sys (Syscall.Pwritev (f, [ "x" ], -1)));
      Alcotest.(check string) "file untouched" "hello"
        (expect_data "read" (sys (Syscall.Read (f, 8)))))

let test_sendfile_negative_count () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-sendfile" in
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      expect_err "sendfile(a, f, -1)" Errno.EINVAL
        (sys (Syscall.Sendfile { out_fd = a; in_fd = f; count = -1 }));
      Alcotest.(check int) "nothing sent" 0 (fionread b))

let file_size fd =
  match sys (Syscall.Fstat fd) with
  | Syscall.Ok_stat s -> s.Syscall.st_size
  | _ -> Alcotest.fail "fstat"

let test_truncate_negative () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-truncate" in
      expect_err "truncate(path, -1)" Errno.EINVAL
        (sys (Syscall.Truncate ("/tmp/neg-truncate", -1)));
      Alcotest.(check int) "size kept" 5 (file_size f))

let test_ftruncate_negative () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/neg-ftruncate" in
      expect_err "ftruncate(f, -1)" Errno.EINVAL
        (sys (Syscall.Ftruncate (f, -1)));
      Alcotest.(check int) "size kept" 5 (file_size f))

let test_getrandom_negative () =
  run_in_kernel (fun _ ->
      (* a huge request is a short read, capped like any large one *)
      let d = expect_data "getrandom(-1)" (sys (Syscall.Getrandom (-1))) in
      Alcotest.(check int) "short read" 4096 (String.length d))

let test_recvfrom_negative_len () =
  run_in_kernel (fun _ ->
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      ignore (expect_int "write" (sys (Syscall.Write (a, "abc"))));
      Alcotest.(check string) "recvfrom(b, -1) reads the queue" "abc"
        (expect_data "recvfrom" (sys (Syscall.Recvfrom (b, -1))));
      Alcotest.(check int) "drained" 0 (fionread b))

let test_recvmsg_negative_len () =
  run_in_kernel (fun _ ->
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      ignore (expect_int "write" (sys (Syscall.Write (a, "abc"))));
      settle ();
      expect_err "recvmsg(b, -1)" Errno.EINVAL (sys (Syscall.Recvmsg (b, -1)));
      Alcotest.(check int) "queue kept" 3 (fionread b))

(* ---- access modes of positional I/O ----

   Linux checks a negative offset first (EINVAL), then whether the
   descriptor supports positional I/O (ESPIPE), then its access mode
   (EBADF), and the count last; the same calls from C on Linux 6.18 gave
   every answer below. *)

let open_mode name flags =
  expect_int "open" (sys (Syscall.Open (name, flags)))

let write_only = { Syscall.o_rdwr with read = false }

let test_pread_access_mode () =
  run_in_kernel (fun _ ->
      ignore (open_file "/tmp/mode-pread");
      let wo = open_mode "/tmp/mode-pread" write_only in
      let pr, pw = expect_pair "pipe" (sys Syscall.Pipe) in
      expect_err "pread64(wronly, 3, 0)" Errno.EBADF
        (sys (Syscall.Pread64 (wo, 3, 0)));
      expect_err "pread64(wronly, 3, -1)" Errno.EINVAL
        (sys (Syscall.Pread64 (wo, 3, -1)));
      expect_err "pread64(wronly, -5, 0)" Errno.EBADF
        (sys (Syscall.Pread64 (wo, -5, 0)));
      expect_err "pread64(pipe write end, 3, 0)" Errno.ESPIPE
        (sys (Syscall.Pread64 (pw, 3, 0)));
      expect_err "preadv(wronly, [3], 0)" Errno.EBADF
        (sys (Syscall.Preadv (wo, [ 3 ], 0)));
      expect_err "preadv(wronly, [-1], 0)" Errno.EBADF
        (sys (Syscall.Preadv (wo, [ -1 ], 0)));
      expect_err "preadv(pipe read end, [-1], 0)" Errno.ESPIPE
        (sys (Syscall.Preadv (pr, [ -1 ], 0))))

let test_pwrite_access_mode () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/mode-pwrite" in
      let ro = open_mode "/tmp/mode-pwrite" Syscall.o_rdonly in
      let pr, _ = expect_pair "pipe" (sys Syscall.Pipe) in
      expect_err "pwrite64(rdonly, xy, 0)" Errno.EBADF
        (sys (Syscall.Pwrite64 (ro, "xy", 0)));
      expect_err "pwrite64(rdonly, xy, -1)" Errno.EINVAL
        (sys (Syscall.Pwrite64 (ro, "xy", -1)));
      expect_err "pwrite64(pipe read end, xy, 0)" Errno.ESPIPE
        (sys (Syscall.Pwrite64 (pr, "xy", 0)));
      expect_err "pwritev(rdonly, [x], 0)" Errno.EBADF
        (sys (Syscall.Pwritev (ro, [ "x" ], 0)));
      Alcotest.(check string) "file untouched" "hello"
        (expect_data "read" (sys (Syscall.Read (f, 8)))))

let test_sendfile_access_mode () =
  run_in_kernel (fun _ ->
      ignore (open_file "/tmp/mode-sendfile");
      let wo = open_mode "/tmp/mode-sendfile" write_only in
      let a, b =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      expect_err "sendfile(a, wronly, 3)" Errno.EBADF
        (sys (Syscall.Sendfile { out_fd = a; in_fd = wo; count = 3 }));
      expect_err "sendfile(a, wronly, -1)" Errno.EBADF
        (sys (Syscall.Sendfile { out_fd = a; in_fd = wo; count = -1 }));
      settle ();
      Alcotest.(check int) "nothing sent" 0 (fionread b))

(* ---- sendfile moves in_fd's offset by what out_fd took ----

   Linux looks up [out_fd] before it moves a byte, and sets [in_fd]'s
   offset from the write's result. The same calls from C on Linux 6.18
   left the offset at 0 for a closed [out_fd] and for EAGAIN, and moved it
   by exactly the bytes a pipe had room for. *)

let offset_of fd =
  expect_int "lseek" (sys (Syscall.Lseek (fd, 0, Syscall.Seek_cur)))

let big_file name size =
  let fd =
    expect_int "open"
      (sys (Syscall.Open (name, { Syscall.o_rdwr with create = true })))
  in
  ignore
    (expect_int "pwrite64"
       (sys (Syscall.Pwrite64 (fd, String.make size 'f', 0))));
  fd

let nonblocking_pipe () =
  expect_pair "pipe2" (sys (Syscall.Pipe2 { nonblock = true }))

let test_sendfile_closed_out_fd () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/sf-closed" in
      expect_err "sendfile(99, f, 3)" Errno.EBADF
        (sys (Syscall.Sendfile { out_fd = 99; in_fd = f; count = 3 }));
      Alcotest.(check int) "offset kept" 0 (offset_of f))

let test_sendfile_full_pipe () =
  run_in_kernel (fun _ ->
      let f = big_file "/tmp/sf-full" 100_000 in
      let _, w = nonblocking_pipe () in
      ignore
        (expect_int "fill"
           (sys (Syscall.Write (w, String.make Pipe.default_capacity 'j'))));
      expect_err "sendfile(full pipe, f, 100000)" Errno.EAGAIN
        (sys (Syscall.Sendfile { out_fd = w; in_fd = f; count = 100_000 }));
      Alcotest.(check int) "offset kept" 0 (offset_of f))

let test_sendfile_short_pipe_write () =
  run_in_kernel (fun _ ->
      let f = big_file "/tmp/sf-short" 100_000 in
      let r, w = nonblocking_pipe () in
      ignore
        (expect_int "fill"
           (sys (Syscall.Write (w, String.make Pipe.default_capacity 'j'))));
      ignore (expect_data "drain" (sys (Syscall.Read (r, 1_000))));
      Alcotest.(check int) "sendfile into 1,000 bytes of room" 1_000
        (expect_int "sendfile"
           (sys (Syscall.Sendfile { out_fd = w; in_fd = f; count = 10_000 })));
      Alcotest.(check int) "offset moved by the bytes written" 1_000
        (offset_of f))

(* A blocking write parks; the offset moves when it completes, by what it
   wrote. *)
let test_sendfile_parked_write () =
  run_in_kernel (fun _ ->
      let f = big_file "/tmp/sf-parked" 10_000 in
      let r, w = expect_pair "pipe" (sys Syscall.Pipe) in
      ignore
        (expect_int "fill"
           (sys (Syscall.Write (w, String.make Pipe.default_capacity 'j'))));
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            ignore (sys (Syscall.Nanosleep (Vtime.ms 1)));
            ignore (expect_data "drain" (sys (Syscall.Read (r, 10_000)))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      Alcotest.(check int) "sendfile after the drain" 10_000
        (expect_int "sendfile"
           (sys (Syscall.Sendfile { out_fd = w; in_fd = f; count = 10_000 })));
      Alcotest.(check int) "offset moved on completion" 10_000 (offset_of f))

(* ---- null pipe writes ----

   Linux returns 0 for an empty write to a pipe before it looks for
   readers: no EAGAIN, no blocking, no EPIPE and no SIGPIPE (confirmed from
   C on Linux 6.18). *)

let test_null_write_nonblocking_pipe () =
  run_in_kernel (fun _ ->
      let _, w = nonblocking_pipe () in
      Alcotest.(check int) "write(w, \"\")" 0
        (expect_int "write" (sys (Syscall.Write (w, "")))))

let test_null_write_blocking_pipe () =
  run_in_kernel (fun _ ->
      let _, w = expect_pair "pipe" (sys Syscall.Pipe) in
      Alcotest.(check int) "write(w, \"\") returns" 0
        (expect_int "write" (sys (Syscall.Write (w, "")))))

let test_null_write_no_reader () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigpipe, Syscall.Sig_ignore)));
      let r, w = expect_pair "pipe" (sys Syscall.Pipe) in
      ignore (expect_int "close" (sys (Syscall.Close r)));
      Alcotest.(check int) "write(w, \"\")" 0
        (expect_int "write" (sys (Syscall.Write (w, ""))));
      expect_err "write(w, \"x\")" Errno.EPIPE (sys (Syscall.Write (w, "x"))))

(* ---- positional I/O per descriptor kind ----

   From C on Linux 6.18: pread64 on /dev/null returns 0 and pwrite64 the
   count; a directory answers EISDIR to pread64 and EBADF to pwrite64 (it
   is open read-only); /proc/self/maps reads the bytes at the offset
   without moving the file offset, and has no positional write (ESPIPE). *)

let test_pread_dev_null () =
  run_in_kernel (fun _ ->
      let fd = open_mode "/dev/null" Syscall.o_rdwr in
      Alcotest.(check string) "pread64(/dev/null, 8, 0)" ""
        (expect_data "pread64" (sys (Syscall.Pread64 (fd, 8, 0)))))

let test_pwrite_dev_null () =
  run_in_kernel (fun _ ->
      let fd = open_mode "/dev/null" Syscall.o_rdwr in
      Alcotest.(check int) "pwrite64(/dev/null, abc, 0)" 3
        (expect_int "pwrite64" (sys (Syscall.Pwrite64 (fd, "abc", 0)))))

let test_pread_directory () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Mkdir "/tmp/pread-dir"));
      let fd = open_mode "/tmp/pread-dir" Syscall.o_rdonly in
      expect_err "pread64(dir, 8, 0)" Errno.EISDIR
        (sys (Syscall.Pread64 (fd, 8, 0)));
      expect_err "pwrite64(dir, abc, 0)" Errno.EBADF
        (sys (Syscall.Pwrite64 (fd, "abc", 0))))

let test_pread_proc_maps () =
  run_in_kernel (fun _ ->
      ignore
        (sys
           (Syscall.Mmap
              {
                len = 4096;
                prot = { Syscall.pr = true; pw = true; px = false };
                kind = Syscall.Map_anon;
              }));
      let fd = open_mode "/proc/self/maps" Syscall.o_rdonly in
      let head = expect_data "read" (sys (Syscall.Read (fd, 12))) in
      Alcotest.(check int) "read 12" 12 (String.length head);
      Alcotest.(check string) "pread64(maps, 8, 4)" (String.sub head 4 8)
        (expect_data "pread64" (sys (Syscall.Pread64 (fd, 8, 4))));
      Alcotest.(check int) "offset untouched" 12 (offset_of fd);
      expect_err "pwrite64(maps, abc, 0)" Errno.ESPIPE
        (sys (Syscall.Pwrite64 (fd, "abc", 0))))

(* ---- file sizes past the filesystem's maximum ----

   Files are stored densely, so these used to ask the host for a
   terabyte-sized buffer. Linux answers EFBIG for a write that starts past
   the filesystem's maximum file size and for a truncate beyond it. *)

let huge = [ ("2^40", 1 lsl 40); ("max_int", max_int) ]

let test_pwrite64_huge_offset () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/huge-pwrite" in
      List.iter
        (fun (what, off) ->
          expect_err ("pwrite64(f, x, " ^ what ^ ")") Errno.EFBIG
            (sys (Syscall.Pwrite64 (f, "x", off)));
          expect_err ("pwritev(f, [x], " ^ what ^ ")") Errno.EFBIG
            (sys (Syscall.Pwritev (f, [ "x" ], off)));
          Alcotest.(check int)
            ("pwrite64(f, \"\", " ^ what ^ ") writes nothing")
            0
            (expect_int "pwrite64" (sys (Syscall.Pwrite64 (f, "", off)))))
        huge;
      Alcotest.(check int) "size kept" 5 (file_size f))

let test_write_after_huge_lseek () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/huge-lseek" in
      List.iter
        (fun (what, off) ->
          Alcotest.(check int) ("lseek " ^ what) off
            (expect_int "lseek" (sys (Syscall.Lseek (f, off, Syscall.Seek_set))));
          expect_err ("write after lseek " ^ what) Errno.EFBIG
            (sys (Syscall.Write (f, "x"))))
        huge;
      Alcotest.(check int) "size kept" 5 (file_size f))

let test_truncate_huge () =
  run_in_kernel (fun _ ->
      let f = open_file "/tmp/huge-truncate" in
      List.iter
        (fun (what, size) ->
          expect_err ("truncate(path, " ^ what ^ ")") Errno.EFBIG
            (sys (Syscall.Truncate ("/tmp/huge-truncate", size)));
          expect_err ("ftruncate(f, " ^ what ^ ")") Errno.EFBIG
            (sys (Syscall.Ftruncate (f, size))))
        huge;
      Alcotest.(check int) "size kept" 5 (file_size f))

(* ---- epoll, socket, pipe and anonymous-kind answers ----

   Each expectation below is what Linux 6.18 answered to the same calls
   from C. *)

let epoll () = expect_int "epoll_create" (sys Syscall.Epoll_create)

let epoll_add ep fd =
  sys
    (Syscall.Epoll_ctl
       { epfd = ep; op = Syscall.Epoll_add; fd; events = Syscall.ev_in; user_data = 7L })

let epoll_wait ep max_events =
  sys (Syscall.Epoll_wait { epfd = ep; max_events; timeout_ns = Some 0 })

let socket () =
  expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))

let test_epoll_add_self () =
  run_in_kernel (fun _ ->
      let ep = epoll () in
      expect_err "epoll_ctl(ep, ADD, ep)" Errno.EINVAL (epoll_add ep ep);
      let ep' = expect_int "dup" (sys (Syscall.Dup ep)) in
      expect_err "epoll_ctl(ep, ADD, dup of ep)" Errno.EINVAL (epoll_add ep ep'))

(* A file without ->poll: EPERM, so it never shows up ready. Another
   epoll instance can be watched. *)
let test_epoll_add_unpollable () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Mkdir "/tmp/epoll-dir"));
      let ep = epoll () in
      List.iter
        (fun (what, fd) -> expect_err what Errno.EPERM (epoll_add ep fd))
        [
          ("ADD regular file", open_file "/tmp/epoll-file");
          ("ADD directory", open_mode "/tmp/epoll-dir" Syscall.o_rdonly);
          ("ADD /dev/null", open_mode "/dev/null" Syscall.o_rdwr);
          ("ADD /proc/self/maps", open_mode "/proc/self/maps" Syscall.o_rdonly);
        ];
      (match epoll_wait ep 8 with
      | Syscall.Ok_epoll l -> Alcotest.(check int) "nothing ready" 0 (List.length l)
      | r -> Alcotest.failf "epoll_wait: %a" Syscall.pp_result r);
      Alcotest.(check int) "ADD another epoll fd" 0
        (expect_int "epoll_ctl" (epoll_add ep (epoll ()))))

let test_epoll_wait_max_events () =
  run_in_kernel (fun _ ->
      let ep = epoll () in
      let ev = expect_int "eventfd" (sys (Syscall.Eventfd 1)) in
      ignore (expect_int "epoll_ctl" (epoll_add ep ev));
      expect_err "epoll_wait(ep, 0)" Errno.EINVAL (epoll_wait ep 0);
      expect_err "epoll_wait(ep, -1)" Errno.EINVAL (epoll_wait ep (-1));
      (match epoll_wait ep 1 with
      | Syscall.Ok_epoll l -> Alcotest.(check int) "epoll_wait(ep, 1)" 1 (List.length l)
      | r -> Alcotest.failf "epoll_wait: %a" Syscall.pp_result r);
      ignore (expect_int "close" (sys (Syscall.Close ep)));
      expect_err "epoll_wait(closed, 0)" Errno.EBADF (epoll_wait ep 0))

let test_listener_bind_getpeername () =
  run_in_kernel (fun _ ->
      let l = socket () in
      ignore (expect_int "bind" (sys (Syscall.Bind (l, 7300))));
      ignore (expect_int "listen" (sys (Syscall.Listen (l, 8))));
      expect_err "bind(listener)" Errno.EINVAL (sys (Syscall.Bind (l, 7301)));
      expect_err "getpeername(listener)" Errno.ENOTCONN
        (sys (Syscall.Getpeername l)))

let test_second_bind () =
  run_in_kernel (fun _ ->
      let s = socket () in
      ignore (expect_int "bind" (sys (Syscall.Bind (s, 7310))));
      expect_err "second bind" Errno.EINVAL (sys (Syscall.Bind (s, 7311)));
      Alcotest.(check int) "port kept" 7310
        (expect_int "getsockname" (sys (Syscall.Getsockname s))))

let test_read_never_connected () =
  run_in_kernel (fun _ ->
      let s = socket () in
      List.iter
        (fun (what, call) -> expect_err what Errno.ENOTCONN (sys call))
        [
          ("read", Syscall.Read (s, 8));
          ("readv", Syscall.Readv (s, [ 8 ]));
          ("recvfrom", Syscall.Recvfrom (s, 8));
          ("recvfrom, negative length", Syscall.Recvfrom (s, -1));
          ("recvmsg", Syscall.Recvmsg (s, 8));
          ("recvmmsg", Syscall.Recvmmsg (s, 2, 4));
        ];
      Alcotest.(check string) "read of 0 bytes" ""
        (expect_data "read" (sys (Syscall.Read (s, 0))));
      ignore
        (expect_int "fcntl" (sys (Syscall.Fcntl (s, Syscall.F_setfl { nonblock = true }))));
      expect_err "nonblocking read" Errno.ENOTCONN (sys (Syscall.Read (s, 8))))

(* A write to a socket that is not connected, a listener included, answers
   EPIPE and raises SIGPIPE, also when it is empty (Linux's tcp_sendmsg). *)
let test_write_unconnected_sigpipe () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigpipe, Syscall.Sig_handler 4)));
      let l = socket () in
      ignore (expect_int "bind" (sys (Syscall.Bind (l, 7330))));
      ignore (expect_int "listen" (sys (Syscall.Listen (l, 4))));
      List.iter
        (fun (what, fd, data) ->
          expect_err what Errno.EPIPE (sys (Syscall.Write (fd, data)));
          let pending = (Sched.self ()).Proc.pending_delivery in
          Alcotest.(check (list int))
            (what ^ " raises SIGPIPE") [ Sigdefs.sigpipe ]
            (List.of_seq (Queue.to_seq pending));
          Queue.clear pending)
        [
          ("write to a listener", l, "x");
          ("empty write, never connected", socket (), "");
        ])

let test_shutdown_never_connected () =
  run_in_kernel (fun _ ->
      let s = socket () in
      expect_err "shutdown(RDWR)" Errno.ENOTCONN
        (sys (Syscall.Shutdown (s, Syscall.Shut_rdwr)));
      expect_err "shutdown(WR)" Errno.ENOTCONN
        (sys (Syscall.Shutdown (s, Syscall.Shut_wr))))

let test_fionread_pipe_write_end () =
  run_in_kernel (fun _ ->
      let r, w = expect_pair "pipe" (sys Syscall.Pipe) in
      ignore (expect_int "write" (sys (Syscall.Write (w, "abc"))));
      Alcotest.(check int) "FIONREAD(write end)" 3 (fionread w);
      Alcotest.(check int) "FIONREAD(read end)" 3 (fionread r))

(* The 8-byte counter does not fit: EINVAL, where a full-size read would
   block or fail with EAGAIN, and the counter is kept. *)
let test_short_counter_reads () =
  run_in_kernel (fun _ ->
      let blocking = expect_int "eventfd" (sys (Syscall.Eventfd 0)) in
      expect_err "read(eventfd, 4), counter 0" Errno.EINVAL
        (sys (Syscall.Read (blocking, 4)));
      let nonblock = expect_int "eventfd" (sys (Syscall.Eventfd 0)) in
      ignore
        (expect_int "fcntl"
           (sys (Syscall.Fcntl (nonblock, Syscall.F_setfl { nonblock = true }))));
      expect_err "read(eventfd, 7), nonblocking" Errno.EINVAL
        (sys (Syscall.Read (nonblock, 7)));
      let five = expect_int "eventfd" (sys (Syscall.Eventfd 5)) in
      expect_err "read(eventfd, 4), counter 5" Errno.EINVAL
        (sys (Syscall.Read (five, 4)));
      expect_err "read(eventfd, 0)" Errno.EINVAL (sys (Syscall.Read (five, 0)));
      (match sys (Syscall.Read (five, 8)) with
      | Syscall.Ok_int64 n -> Alcotest.(check int64) "counter kept" 5L n
      | r -> Alcotest.failf "read(eventfd, 8): %a" Syscall.pp_result r);
      let tfd = expect_int "timerfd_create" (sys Syscall.Timerfd_create) in
      expect_err "read(timerfd, 4), unarmed" Errno.EINVAL
        (sys (Syscall.Read (tfd, 4))))

let u64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 n;
  Bytes.to_string b

(* An eventfd write takes exactly the 8-byte counter: any other size, and
   ULLONG_MAX, is EINVAL; a full write adds the value it carries and
   returns 8. *)
let test_eventfd_write_sizes () =
  run_in_kernel (fun _ ->
      let ev = expect_int "eventfd" (sys (Syscall.Eventfd 0)) in
      ignore
        (expect_int "fcntl"
           (sys (Syscall.Fcntl (ev, Syscall.F_setfl { nonblock = true }))));
      List.iter
        (fun (what, data) ->
          expect_err what Errno.EINVAL (sys (Syscall.Write (ev, data))))
        [
          ("write 3 bytes", "abc");
          ("write 7 bytes", String.sub (u64 5L) 0 7);
          ("write 16 bytes", u64 5L ^ u64 0L);
          ("write ULLONG_MAX", u64 (-1L));
        ];
      expect_err "nothing was added" Errno.EAGAIN (sys (Syscall.Read (ev, 8)));
      Alcotest.(check int) "write u64 5" 8
        (expect_int "write" (sys (Syscall.Write (ev, u64 5L))));
      Alcotest.(check int) "write u64 0" 8
        (expect_int "write" (sys (Syscall.Write (ev, u64 0L))));
      match sys (Syscall.Read (ev, 8)) with
      | Syscall.Ok_int64 n -> Alcotest.(check int64) "counter" 5L n
      | r -> Alcotest.failf "read(eventfd, 8): %a" Syscall.pp_result r)

(* shutdown of a listener answers 0. SHUT_WR changes nothing; SHUT_RD
   stops it listening: a blocked accept wakes with EINVAL, later accepts
   answer EINVAL, connects are refused, a second shutdown is ENOTCONN, and
   listen starts over. *)
let test_shutdown_listener () =
  run_in_kernel (fun _ ->
      let connect port = sys (Syscall.Connect (socket (), port)) in
      let l = socket () in
      ignore (expect_int "bind" (sys (Syscall.Bind (l, 7310))));
      ignore (expect_int "listen" (sys (Syscall.Listen (l, 8))));
      Alcotest.(check int) "shutdown(WR)" 0
        (expect_int "shutdown(WR)" (sys (Syscall.Shutdown (l, Syscall.Shut_wr))));
      ignore (expect_int "connect after SHUT_WR" (connect 7310));
      (match sys (Syscall.Accept l) with
      | Syscall.Ok_accept _ -> ()
      | r -> Alcotest.failf "accept after SHUT_WR: %a" Syscall.pp_result r);
      let woken = ref None in
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [| (fun () -> woken := Some (sys (Syscall.Accept l))) |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      Sched.compute (Vtime.ms 1);
      Alcotest.(check int) "shutdown(RD)" 0
        (expect_int "shutdown(RD)" (sys (Syscall.Shutdown (l, Syscall.Shut_rd))));
      Sched.compute (Vtime.ms 1);
      (match !woken with
      | Some r -> expect_err "blocked accept" Errno.EINVAL r
      | None -> Alcotest.fail "the blocked accept was not woken");
      expect_err "accept after SHUT_RD" Errno.EINVAL (sys (Syscall.Accept l));
      expect_err "connect after SHUT_RD" Errno.ECONNREFUSED (connect 7310);
      expect_err "shutdown again" Errno.ENOTCONN
        (sys (Syscall.Shutdown (l, Syscall.Shut_wr)));
      ignore (expect_int "listen again" (sys (Syscall.Listen (l, 8))));
      ignore (expect_int "connect after listen" (connect 7310));
      let l2 = socket () in
      ignore (expect_int "bind" (sys (Syscall.Bind (l2, 7311))));
      ignore (expect_int "listen" (sys (Syscall.Listen (l2, 8))));
      Alcotest.(check int) "shutdown(RDWR)" 0
        (expect_int "shutdown(RDWR)"
           (sys (Syscall.Shutdown (l2, Syscall.Shut_rdwr))));
      expect_err "accept after SHUT_RDWR" Errno.EINVAL (sys (Syscall.Accept l2));
      expect_err "connect after SHUT_RDWR" Errno.ECONNREFUSED (connect 7311))

let lseek fd offset whence = sys (Syscall.Lseek (fd, offset, whence))

let test_lseek_dev_null () =
  run_in_kernel (fun _ ->
      let fd = open_mode "/dev/null" Syscall.o_rdwr in
      List.iter
        (fun (what, offset, whence) ->
          Alcotest.(check int) what 0 (expect_int what (lseek fd offset whence)))
        [
          ("SEEK_SET 100", 100, Syscall.Seek_set);
          ("SEEK_CUR 0", 0, Syscall.Seek_cur);
          ("SEEK_END 5", 5, Syscall.Seek_end);
          ("SEEK_SET -5", -5, Syscall.Seek_set);
        ])

let test_lseek_anonymous () =
  run_in_kernel (fun _ ->
      let ev = expect_int "eventfd" (sys (Syscall.Eventfd 0)) in
      let tfd = expect_int "timerfd_create" (sys Syscall.Timerfd_create) in
      let ep = epoll () in
      List.iter
        (fun (what, fd) ->
          Alcotest.(check int) (what ^ " SEEK_SET 100") 0
            (expect_int what (lseek fd 100 Syscall.Seek_set));
          Alcotest.(check int) (what ^ " SEEK_CUR -5") 0
            (expect_int what (lseek fd (-5) Syscall.Seek_cur)))
        [ ("eventfd", ev); ("timerfd", tfd); ("epoll", ep) ])

let test_lseek_proc_maps () =
  run_in_kernel (fun _ ->
      let fd = open_mode "/proc/self/maps" Syscall.o_rdonly in
      Alcotest.(check int) "SEEK_SET 10" 10
        (expect_int "lseek" (lseek fd 10 Syscall.Seek_set));
      expect_err "SEEK_SET -1" Errno.EINVAL (lseek fd (-1) Syscall.Seek_set);
      expect_err "SEEK_CUR -11" Errno.EINVAL (lseek fd (-11) Syscall.Seek_cur);
      expect_err "SEEK_END 0" Errno.EINVAL (lseek fd 0 Syscall.Seek_end);
      expect_err "SEEK_END -4" Errno.EINVAL (lseek fd (-4) Syscall.Seek_end);
      Alcotest.(check int) "offset kept" 10 (offset_of fd);
      Alcotest.(check int) "SEEK_CUR 5" 15
        (expect_int "lseek" (lseek fd 5 Syscall.Seek_cur)))

(* FIONREAD on a regular file answers its size less the offset, negative
   past the end, and /proc/self/maps, whose size is 0, minus the offset;
   kinds without the ioctl answer ENOTTY, and a listener or an epoll fd
   EINVAL (Linux's do_vfs_ioctl, tcp_ioctl and epoll's ioctl). *)
let test_fionread_kinds () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Mkdir "/tmp/fionread-dir"));
      let f = open_file "/tmp/fionread-file" in
      ignore (expect_int "lseek" (lseek f 2 Syscall.Seek_set));
      Alcotest.(check int) "FIONREAD(file) at 2 of 5" 3 (fionread f);
      ignore (expect_int "lseek" (lseek f 8 Syscall.Seek_set));
      Alcotest.(check int) "FIONREAD(file) at 8 of 5" (-3) (fionread f);
      (* a process maps something before it can read its maps *)
      ignore
        (sys
           (Syscall.Mmap
              { len = 4096; prot = { Syscall.pr = true; pw = true; px = false };
                kind = Syscall.Map_anon }));
      let maps = open_mode "/proc/self/maps" Syscall.o_rdonly in
      Alcotest.(check int) "FIONREAD(maps) at 0" 0 (fionread maps);
      Alcotest.(check int) "read(maps, 8)" 8
        (String.length (expect_data "read(maps)" (sys (Syscall.Read (maps, 8)))));
      Alcotest.(check int) "FIONREAD(maps) after 8 bytes" (-8) (fionread maps);
      let l = socket () in
      ignore (expect_int "bind" (sys (Syscall.Bind (l, 7340))));
      ignore (expect_int "listen" (sys (Syscall.Listen (l, 4))));
      List.iter
        (fun (what, e, fd) ->
          expect_err what e (sys (Syscall.Ioctl (fd, Syscall.Fionread))))
        [
          ("FIONREAD(dir)", Errno.ENOTTY, open_mode "/tmp/fionread-dir" Syscall.o_rdonly);
          ("FIONREAD(/dev/null)", Errno.ENOTTY, open_mode "/dev/null" Syscall.o_rdwr);
          ( "FIONREAD(timerfd)", Errno.ENOTTY,
            expect_int "timerfd_create" (sys Syscall.Timerfd_create) );
          ( "FIONREAD(eventfd)", Errno.ENOTTY,
            expect_int "eventfd" (sys (Syscall.Eventfd 0)) );
          ("FIONREAD(listener)", Errno.EINVAL, l);
          ("FIONREAD(epoll)", Errno.EINVAL, epoll ());
        ])

(* accept on a descriptor that is not a socket is ENOTSOCK; a socket that
   is not listening stays EINVAL. *)
let test_accept_not_socket () =
  run_in_kernel (fun _ ->
      let r, w = expect_pair "pipe" (sys Syscall.Pipe) in
      List.iter
        (fun (what, fd) -> expect_err what Errno.ENOTSOCK (sys (Syscall.Accept fd)))
        [
          ("accept(file)", open_file "/tmp/accept-file");
          ("accept(pipe read end)", r);
          ("accept(pipe write end)", w);
          ("accept(epoll)", epoll ());
          ("accept(eventfd)", expect_int "eventfd" (sys (Syscall.Eventfd 0)));
        ];
      let a, _ =
        expect_pair "socketpair"
          (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
      in
      expect_err "accept(socketpair)" Errno.EINVAL (sys (Syscall.Accept a));
      expect_err "accept(unconnected socket)" Errno.EINVAL
        (sys (Syscall.Accept (socket ()))))

(* An epoll fd and a timerfd have no write operation: EINVAL for every
   write, an empty one too. *)
let test_write_no_write_op () =
  run_in_kernel (fun _ ->
      let tfd = expect_int "timerfd_create" (sys Syscall.Timerfd_create) in
      List.iter
        (fun (what, fd) ->
          expect_err (what ^ ", 8 bytes") Errno.EINVAL (sys (Syscall.Write (fd, u64 1L)));
          expect_err (what ^ ", empty") Errno.EINVAL (sys (Syscall.Write (fd, "")));
          expect_err (what ^ ", writev") Errno.EINVAL
            (sys (Syscall.Writev (fd, [ "ab"; "c" ]))))
        [ ("write(epoll)", epoll ()); ("write(timerfd)", tfd) ])

(* readv and preadv of an empty vector answer 0 from every kind with a
   read, before the kind's own checks: a directory's EISDIR, a counter's
   8-byte minimum, an empty counter's wait. An epoll fd has no read. *)
let test_readv_empty () =
  run_in_kernel (fun _ ->
      ignore (sys (Syscall.Mkdir "/tmp/readv-dir"));
      let dir = open_mode "/tmp/readv-dir" Syscall.o_rdonly in
      List.iter
        (fun (what, fd) ->
          Alcotest.(check string) what ""
            (expect_data what (sys (Syscall.Readv (fd, [ 0; 0 ])))))
        [
          ("readv(dir)", dir);
          ("readv(timerfd)", expect_int "timerfd_create" (sys Syscall.Timerfd_create));
          ("readv(eventfd), counter 0", expect_int "eventfd" (sys (Syscall.Eventfd 0)));
        ];
      Alcotest.(check string) "preadv(dir)" ""
        (expect_data "preadv(dir)" (sys (Syscall.Preadv (dir, [ 0 ], 0))));
      expect_err "read(dir, 0)" Errno.EISDIR (sys (Syscall.Read (dir, 0)));
      expect_err "readv(epoll)" Errno.EINVAL (sys (Syscall.Readv (epoll (), [ 0 ]))))

(* /proc/self/maps is a regular file of size 0, as proc files are. *)
let test_fstat_proc_maps () =
  run_in_kernel (fun _ ->
      let fd = open_mode "/proc/self/maps" Syscall.o_rdonly in
      match sys (Syscall.Fstat fd) with
      | Syscall.Ok_stat s ->
        Alcotest.(check bool) "regular file" true (s.Syscall.st_kind = `Reg);
        Alcotest.(check int) "size" 0 s.Syscall.st_size
      | r -> Alcotest.failf "fstat(maps): %a" Syscall.pp_result r)

(* Linux's timespec64_valid makes a negative nanosleep time EINVAL, and a
   time past virtual time's range is a sleep that only a signal ends: here
   SIGUSR1 from another process 1 ms in. *)
let test_nanosleep_bad_times () =
  run_in_kernel (fun k ->
      expect_err "nanosleep -1" Errno.EINVAL (sys (Syscall.Nanosleep (-1)));
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigusr1, Syscall.Sig_handler 4)));
      let pid = (Sched.self ()).Proc.proc.Proc.pid in
      ignore
        (Kernel.spawn_process k ~name:"killer" ~vm_seed:4 ~start_clock:(vnow ())
           (fun () ->
             Sched.compute (Vtime.ms 1);
             ignore (sys (Syscall.Kill (pid, Sigdefs.sigusr1)))));
      let t0 = vnow () in
      expect_err "nanosleep max_int" Errno.EINTR (sys (Syscall.Nanosleep max_int));
      Alcotest.(check bool) "slept until the signal" true
        Vtime.(vnow () - t0 >= Vtime.ms 1))

(* A negative FUTEX_WAIT timeout is EINVAL before the word is compared; a
   timeout past virtual time's range waits for the wake 1 ms in. *)
let test_futex_wait_bad_timeouts () =
  run_in_kernel (fun _ ->
      let self = Sched.self () in
      let p = self.Proc.proc in
      let addr = 0x7000_0000_3000L in
      let wait ~expected timeout_ns =
        sys (Syscall.Futex (Syscall.Futex_wait { addr; expected; timeout_ns }))
      in
      expect_err "timeout -1, word differs" Errno.EINVAL (wait ~expected:5 (Some (-1)));
      expect_err "timeout -1" Errno.EINVAL (wait ~expected:0 (Some (-1)));
      p.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.ms 1);
            ignore (sys (Syscall.Futex (Syscall.Futex_wake { addr; count = 1 }))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      let t0 = vnow () in
      Alcotest.(check int) "timeout max_int: woken" 0
        (expect_int "futex_wait" (wait ~expected:0 (Some max_int)));
      Alcotest.(check bool) "waited for the wake" true
        Vtime.(vnow () - t0 >= Vtime.ms 1))

let tc = Alcotest.test_case

let () =
  Alcotest.run "kernel2"
    [
      ( "timers",
        [
          tc "timerfd blocking read + interval" `Quick test_timerfd;
          tc "timerfd_gettime" `Quick test_timerfd_gettime;
          tc "setitimer interval" `Quick test_setitimer_interval;
          tc "alarm replaces setitimer" `Quick test_alarm_replaces_setitimer;
        ] );
      ( "vectored-io",
        [
          tc "writev/readv" `Quick test_writev_readv;
          tc "pwritev/preadv" `Quick test_pwritev_preadv;
          tc "sendfile" `Quick test_sendfile;
          tc "sendmmsg/recvmmsg" `Quick test_recvmmsg_sendmmsg;
        ] );
      ( "fd-lifecycle",
        [
          tc "dup2 replaces target" `Quick test_dup2_replaces;
          tc "dup2 same fd" `Quick test_dup2_same_fd;
          tc "fcntl F_DUPFD" `Quick test_fcntl_dupfd;
          tc "lowest free fd" `Quick test_lowest_free_fd;
          tc "fcntl F_DUPFD honours its minimum" `Quick test_fcntl_dupfd_minimum;
          tc "dup2/dup3 reject out-of-range targets" `Quick
            test_dup2_dup3_target_range;
          tc "dup3(fd, fd) is EINVAL" `Quick test_dup3_same_fd;
          QCheck_alcotest.to_alcotest prop_fdtable_model;
        ] );
      ( "vfs",
        [
          tc "rename + unlink" `Quick test_rename_unlink;
          tc "rmdir nonempty" `Quick test_rmdir_nonempty;
          tc "truncate" `Quick test_truncate;
          tc "symlink/readlink" `Quick test_symlink_readlink;
          tc "xattr" `Quick test_xattr;
        ] );
      ( "sockets",
        [
          tc "nonblocking accept" `Quick test_nonblock_accept;
          tc "getsockname/getpeername" `Quick test_getsockname_peername;
          tc "shutdown(WR) -> peer EOF" `Quick test_shutdown_wr_gives_peer_eof;
          tc "EPIPE on closed peer" `Quick test_write_to_closed_socket;
          tc "poll timeout" `Quick test_poll_timeout;
        ] );
      ( "bad-args",
        [
          tc "read with a negative count" `Quick test_read_negative_count;
          tc "readv with a negative length" `Quick test_readv_negative_len;
          tc "pread64 with a negative offset or count" `Quick
            test_pread64_negative;
          tc "preadv with a negative offset or length" `Quick
            test_preadv_negative;
          tc "pwrite64 with a negative offset" `Quick
            test_pwrite64_negative_offset;
          tc "pwritev with a negative offset" `Quick
            test_pwritev_negative_offset;
          tc "sendfile with a negative count" `Quick
            test_sendfile_negative_count;
          tc "truncate to a negative size" `Quick test_truncate_negative;
          tc "ftruncate to a negative size" `Quick test_ftruncate_negative;
          tc "getrandom with a negative count" `Quick test_getrandom_negative;
          tc "recvfrom with a negative length" `Quick
            test_recvfrom_negative_len;
          tc "recvmsg with a negative length" `Quick test_recvmsg_negative_len;
          tc "pread64/preadv on a write-only descriptor" `Quick
            test_pread_access_mode;
          tc "pwrite64/pwritev on a read-only descriptor" `Quick
            test_pwrite_access_mode;
          tc "sendfile from a write-only descriptor" `Quick
            test_sendfile_access_mode;
          tc "pwrite64/pwritev past the maximum file size" `Quick
            test_pwrite64_huge_offset;
          tc "write after lseek past the maximum file size" `Quick
            test_write_after_huge_lseek;
          tc "truncate/ftruncate past the maximum file size" `Quick
            test_truncate_huge;
          tc "sendfile to a closed out_fd keeps the offset" `Quick
            test_sendfile_closed_out_fd;
          tc "sendfile EAGAIN into a full pipe keeps the offset" `Quick
            test_sendfile_full_pipe;
          tc "sendfile moves the offset by a short write" `Quick
            test_sendfile_short_pipe_write;
          tc "sendfile moves the offset when a parked write completes"
            `Quick test_sendfile_parked_write;
          tc "null write to a nonblocking pipe" `Quick
            test_null_write_nonblocking_pipe;
          tc "null write to a blocking pipe" `Quick
            test_null_write_blocking_pipe;
          tc "null write to a pipe without readers" `Quick
            test_null_write_no_reader;
          tc "pread64 on /dev/null" `Quick test_pread_dev_null;
          tc "pwrite64 on /dev/null" `Quick test_pwrite_dev_null;
          tc "pread64/pwrite64 on a directory" `Quick test_pread_directory;
          tc "pread64/pwrite64 on /proc/self/maps" `Quick
            test_pread_proc_maps;
          tc "epoll_ctl ADD of the epoll fd into itself" `Quick
            test_epoll_add_self;
          tc "epoll_ctl ADD of a file without poll" `Quick
            test_epoll_add_unpollable;
          tc "epoll_wait with max_events <= 0" `Quick
            test_epoll_wait_max_events;
          tc "bind and getpeername on a listener" `Quick
            test_listener_bind_getpeername;
          tc "a second bind" `Quick test_second_bind;
          tc "reads on a socket that never connected" `Quick
            test_read_never_connected;
          tc "shutdown of a socket that never connected" `Quick
            test_shutdown_never_connected;
          tc "FIONREAD on a pipe's write end" `Quick
            test_fionread_pipe_write_end;
          tc "eventfd and timerfd reads shorter than 8 bytes" `Quick
            test_short_counter_reads;
          tc "eventfd writes of other than 8 bytes" `Quick
            test_eventfd_write_sizes;
          tc "shutdown of a listener" `Quick test_shutdown_listener;
          tc "lseek on /dev/null" `Quick test_lseek_dev_null;
          tc "lseek on eventfd, timerfd and epoll" `Quick test_lseek_anonymous;
          tc "lseek on /proc/self/maps" `Quick test_lseek_proc_maps;
          tc "writes to a socket that is not connected" `Quick
            test_write_unconnected_sigpipe;
          tc "FIONREAD on files and kinds without it" `Quick
            test_fionread_kinds;
          tc "accept on a descriptor that is not a socket" `Quick
            test_accept_not_socket;
          tc "writes to an epoll fd or a timerfd" `Quick
            test_write_no_write_op;
          tc "readv of an empty vector" `Quick test_readv_empty;
          tc "fstat of /proc/self/maps" `Quick test_fstat_proc_maps;
          tc "nanosleep with a negative or unreachable time" `Quick
            test_nanosleep_bad_times;
          tc "futex_wait with a negative or unreachable timeout" `Quick
            test_futex_wait_bad_timeouts;
        ] );
      ( "vm",
        [
          QCheck_alcotest.to_alcotest prop_aslr_layouts_distinct;
          QCheck_alcotest.to_alcotest prop_vm_no_overlap;
          QCheck_alcotest.to_alcotest prop_futex_key_shared_segments;
        ] );
    ]
