(* Tests for the extended syscall surface: eventfd, flock, getrandom,
   hard/symbolic links, pipe2/dup3, pselect/ppoll, limits, statfs — plus
   the MVEE-level behaviours they enable (consistent entropy across
   replicas). *)

open Remon_kernel
open Remon_core
open Remon_sim

let sys = Sched.syscall

let expect_int label r =
  match (r : Syscall.result) with
  | Syscall.Ok_int n -> n
  | other ->
    Alcotest.failf "%s: expected Ok_int, got %s" label
      (Format.asprintf "%a" Syscall.pp_result other)

let expect_pair label r =
  match (r : Syscall.result) with
  | Syscall.Ok_pair (a, b) -> (a, b)
  | _ -> Alcotest.failf "%s: expected pair" label

let expect_data label r =
  match (r : Syscall.result) with
  | Syscall.Ok_data s -> s
  | other ->
    Alcotest.failf "%s: expected Ok_data, got %s" label
      (Format.asprintf "%a" Syscall.pp_result other)

let run_in_kernel body =
  let k = Kernel.create () in
  let done_ = ref false in
  ignore
    (Kernel.spawn_process k ~name:"t3" ~vm_seed:3 (fun () ->
         body k;
         done_ := true));
  Kernel.run k;
  if not !done_ then Alcotest.fail "body did not complete"

(* ---- eventfd ---- *)

let test_eventfd_basic () =
  run_in_kernel (fun _ ->
      let efd = expect_int "eventfd" (sys (Syscall.Eventfd 3)) in
      (match sys (Syscall.Read (efd, 8)) with
      | Syscall.Ok_int64 3L -> ()
      | r -> Alcotest.failf "read: %s" (Format.asprintf "%a" Syscall.pp_result r));
      (* counter reset: next read blocks; use nonblocking to observe *)
      ignore (sys (Syscall.Fcntl (efd, Syscall.F_setfl { nonblock = true })));
      match sys (Syscall.Read (efd, 8)) with
      | Syscall.Error Errno.EAGAIN -> ()
      | _ -> Alcotest.fail "expected EAGAIN after reset")

let test_eventfd_signal_wakeup () =
  run_in_kernel (fun _ ->
      let efd = expect_int "eventfd" (sys (Syscall.Eventfd 0)) in
      let self = Sched.self () in
      self.Proc.proc.Proc.entry_table <-
        [|
          (fun () ->
            Sched.compute (Vtime.ms 1);
            ignore (sys (Syscall.Write (efd, String.make 5 'e'))));
        |];
      ignore (expect_int "clone" (sys (Syscall.Clone 0)));
      let t0 = Sched.vnow () in
      (match sys (Syscall.Read (efd, 8)) with
      | Syscall.Ok_int64 5L -> ()
      | r -> Alcotest.failf "read: %s" (Format.asprintf "%a" Syscall.pp_result r));
      Alcotest.(check bool) "blocked until signalled" true
        Vtime.(Sched.vnow () - t0 >= Vtime.ms 1))

let test_eventfd_epoll () =
  run_in_kernel (fun _ ->
      let efd = expect_int "eventfd" (sys (Syscall.Eventfd 0)) in
      let epfd = expect_int "epoll_create" (sys Syscall.Epoll_create) in
      (match
         sys
           (Syscall.Epoll_ctl
              { epfd; op = Syscall.Epoll_add; fd = efd; events = Syscall.ev_in;
                user_data = 9L })
       with
      | Syscall.Ok_int 0 -> ()
      | _ -> Alcotest.fail "epoll_ctl");
      (match sys (Syscall.Epoll_wait { epfd; max_events = 4; timeout_ns = Some 0 }) with
      | Syscall.Ok_epoll [] -> ()
      | _ -> Alcotest.fail "not ready yet");
      ignore (sys (Syscall.Write (efd, "e")));
      match sys (Syscall.Epoll_wait { epfd; max_events = 4; timeout_ns = Some 0 }) with
      | Syscall.Ok_epoll [ (9L, _) ] -> ()
      | _ -> Alcotest.fail "eventfd should be epoll-readable")

(* ---- flock ---- *)

let test_flock_exclusion () =
  run_in_kernel (fun _ ->
      let fd = expect_int "creat" (sys (Syscall.Creat "/tmp/lk.txt")) in
      ignore (expect_int "lock" (sys (Syscall.Flock (fd, Syscall.Lock_ex))));
      (* re-acquiring our own lock succeeds *)
      ignore (expect_int "relock" (sys (Syscall.Flock (fd, Syscall.Lock_ex))));
      ignore (expect_int "unlock" (sys (Syscall.Flock (fd, Syscall.Lock_un)))))

let test_flock_blocks_other_process () =
  let k = Kernel.create () in
  let release_time = ref Vtime.zero in
  let acquire_time = ref Vtime.zero in
  let _p1 =
    Kernel.spawn_process k ~name:"holder" ~vm_seed:1 (fun () ->
        let fd = expect_int "creat" (sys (Syscall.Creat "/tmp/contended")) in
        ignore (sys (Syscall.Flock (fd, Syscall.Lock_ex)));
        Sched.compute (Vtime.ms 3);
        release_time := Sched.vnow ();
        ignore (sys (Syscall.Flock (fd, Syscall.Lock_un))))
  in
  let _p2 =
    Kernel.spawn_process k ~name:"waiter" ~vm_seed:2 (fun () ->
        Sched.compute (Vtime.ms 1);
        let fd = expect_int "open" (sys (Syscall.Open ("/tmp/contended", Syscall.o_rdwr))) in
        ignore (sys (Syscall.Flock (fd, Syscall.Lock_ex)));
        acquire_time := Sched.vnow ())
  in
  Kernel.run k;
  Alcotest.(check bool) "waiter blocked until the holder released" true
    Vtime.(!acquire_time >= !release_time && !release_time > Vtime.ms 2)

(* ---- getrandom ---- *)

let test_getrandom_length () =
  run_in_kernel (fun _ ->
      let d = expect_data "getrandom" (sys (Syscall.Getrandom 32)) in
      Alcotest.(check int) "requested bytes" 32 (String.length d);
      let d2 = expect_data "getrandom2" (sys (Syscall.Getrandom 32)) in
      Alcotest.(check bool) "successive draws differ" true (d <> d2))

(* The flagship consistency test: under an MVEE, every replica must receive
   the *same* random bytes, or diversified replicas would immediately
   diverge on anything keyed by entropy. *)
let test_getrandom_replicated backend () =
  let kernel = Kernel.create () in
  let drawn = Array.make 2 "" in
  let body (env : Mvee.env) =
    drawn.(env.Mvee.variant) <- expect_data "getrandom" (sys (Syscall.Getrandom 64))
  in
  let config = { Mvee.default_config with Mvee.backend } in
  let h = Mvee.launch kernel config ~name:"entropy" ~body in
  Kernel.run kernel;
  let o = Mvee.finish h in
  Alcotest.(check bool) "clean" true (o.Mvee.verdict = None);
  Alcotest.(check int) "64 bytes" 64 (String.length drawn.(0));
  Alcotest.(check string) "replicas share one entropy stream" drawn.(0) drawn.(1)

(* ---- links ---- *)

let test_hard_link () =
  run_in_kernel (fun _ ->
      let fd = expect_int "creat" (sys (Syscall.Creat "/tmp/orig.txt")) in
      ignore (sys (Syscall.Write (fd, "linked-content")));
      ignore (sys (Syscall.Close fd));
      ignore (expect_int "link" (sys (Syscall.Link ("/tmp/orig.txt", "/tmp/alias.txt"))));
      let fd2 = expect_int "open alias" (sys (Syscall.Open ("/tmp/alias.txt", Syscall.o_rdonly))) in
      Alcotest.(check string) "same inode content" "linked-content"
        (expect_data "read" (sys (Syscall.Read (fd2, 64))));
      (* writing through one name is visible through the other *)
      ignore (sys (Syscall.Close fd2));
      ignore (expect_int "unlink orig" (sys (Syscall.Unlink "/tmp/orig.txt")));
      (match sys (Syscall.Stat "/tmp/alias.txt") with
      | Syscall.Ok_stat s -> Alcotest.(check int) "alias survives" 14 s.Syscall.st_size
      | _ -> Alcotest.fail "alias should survive unlink of the original"))

let test_link_eexist () =
  run_in_kernel (fun _ ->
      ignore (expect_int "creat a" (sys (Syscall.Creat "/tmp/la")));
      ignore (expect_int "creat b" (sys (Syscall.Creat "/tmp/lb")));
      match sys (Syscall.Link ("/tmp/la", "/tmp/lb")) with
      | Syscall.Error Errno.EEXIST -> ()
      | _ -> Alcotest.fail "expected EEXIST")

let test_symlink_syscall () =
  run_in_kernel (fun _ ->
      ignore (expect_int "creat" (sys (Syscall.Creat "/tmp/tgt")));
      ignore (expect_int "symlink" (sys (Syscall.Symlink ("/tmp/tgt", "/tmp/sl"))));
      match sys (Syscall.Readlink "/tmp/sl") with
      | Syscall.Ok_str "/tmp/tgt" -> ()
      | _ -> Alcotest.fail "readlink")

(* ---- pipe2 / dup3 ---- *)

let test_pipe2_nonblock () =
  run_in_kernel (fun _ ->
      let rfd, _wfd = expect_pair "pipe2" (sys (Syscall.Pipe2 { nonblock = true })) in
      match sys (Syscall.Read (rfd, 4)) with
      | Syscall.Error Errno.EAGAIN -> ()
      | _ -> Alcotest.fail "pipe2 O_NONBLOCK should give EAGAIN")

let test_dup3 () =
  run_in_kernel (fun _ ->
      let fd = expect_int "creat" (sys (Syscall.Creat "/tmp/d3")) in
      let spare = expect_int "creat2" (sys (Syscall.Creat "/tmp/d3b")) in
      ignore (expect_int "dup3" (sys (Syscall.Dup3 (fd, spare))));
      ignore (expect_int "write" (sys (Syscall.Write (spare, "x")))))

(* ---- pselect6 / ppoll ---- *)

let test_pselect_ppoll () =
  run_in_kernel (fun _ ->
      let rfd, wfd = expect_pair "pipe" (sys Syscall.Pipe) in
      ignore (sys (Syscall.Write (wfd, "!")));
      (match
         sys (Syscall.Pselect6 { readfds = [ rfd ]; writefds = []; timeout_ns = Some 0 })
       with
      | Syscall.Ok_poll [ (fd, _) ] -> Alcotest.(check int) "pselect ready" rfd fd
      | _ -> Alcotest.fail "pselect6");
      match
        sys (Syscall.Ppoll { fds = [ (rfd, Syscall.ev_in) ]; timeout_ns = Some 0 })
      with
      | Syscall.Ok_poll [ (fd, _) ] -> Alcotest.(check int) "ppoll ready" rfd fd
      | _ -> Alcotest.fail "ppoll")

(* ---- misc ---- *)

let test_limits_affinity_ids () =
  run_in_kernel (fun _ ->
      (match sys (Syscall.Getrlimit 7) with
      | Syscall.Ok_int64 _ -> ()
      | _ -> Alcotest.fail "getrlimit");
      ignore (expect_int "setrlimit" (sys (Syscall.Setrlimit (7, 1024))));
      ignore (expect_int "prlimit" (sys (Syscall.Prlimit64 (7, 2048))));
      Alcotest.(check bool) "affinity mask" true
        (expect_int "sched_getaffinity" (sys Syscall.Sched_getaffinity) > 0);
      ignore (expect_int "sched_setaffinity" (sys (Syscall.Sched_setaffinity 0x3)));
      Alcotest.(check int) "umask returns previous" 0o022
        (expect_int "umask" (sys (Syscall.Umask 0o077)));
      let pid = expect_int "getpid" (sys Syscall.Getpid) in
      Alcotest.(check int) "getpgid" pid (expect_int "getpgid" (sys Syscall.Getpgid));
      Alcotest.(check int) "setsid" pid (expect_int "setsid" (sys Syscall.Setsid)))

let test_statfs_chmod () =
  run_in_kernel (fun _ ->
      ignore (expect_int "creat" (sys (Syscall.Creat "/tmp/meta")));
      (match sys (Syscall.Statfs "/tmp") with
      | Syscall.Ok_int64 free -> Alcotest.(check bool) "free space" true (Int64.compare free 0L > 0)
      | _ -> Alcotest.fail "statfs");
      ignore (expect_int "chmod" (sys (Syscall.Chmod ("/tmp/meta", 0o600))));
      ignore (expect_int "chown" (sys (Syscall.Chown ("/tmp/meta", 0, 0))));
      ignore (expect_int "utimensat" (sys (Syscall.Utimensat "/tmp/meta")));
      match sys (Syscall.Chmod ("/tmp/nope", 0o600)) with
      | Syscall.Error Errno.ENOENT -> ()
      | _ -> Alcotest.fail "chmod on missing file")

(* classification sanity for the additions *)
let test_new_classification () =
  Alcotest.(check bool) "getrandom exempt at BASE" true
    (Classification.classify Sysno.Getrandom
    = Classification.Unconditional Classification.Base_level);
  Alcotest.(check bool) "flock at NONSOCKET_RW" true
    (Classification.classify Sysno.Flock
    = Classification.Unconditional Classification.Nonsocket_rw_level);
  Alcotest.(check bool) "eventfd always monitored" true
    (Classification.classify Sysno.Eventfd = Classification.Always_monitored);
  Alcotest.(check bool) "link always monitored" true
    (Classification.classify Sysno.Link = Classification.Always_monitored);
  Alcotest.(check bool) "ppoll escalates on sockets" true
    (Classification.required_level Sysno.Ppoll ~on_socket:true
    = Some Classification.Socket_ro_level);
  Alcotest.(check bool) "syscall surface grew past 150" true
    (List.length Sysno.all >= 150)

(* The route trace renders one line per syscall with its route: checked
   on a fault-free multi-threaded profile under every backend, then for
   the routes themselves on a small ReMon program. *)
let test_trace_facility () =
  let dedup =
    match Remon_workloads.Registry.find "parsec.dedup" with
    | Some (Remon_workloads.Registry.Profile_workload p) -> p
    | _ -> Alcotest.fail "parsec.dedup is not a profile workload"
  in
  List.iter
    (fun (name, config) ->
      let obs = Remon_obs.Obs.create () in
      let r = Remon_workloads.Runner.run_profile ~obs dedup config in
      Alcotest.(check int)
        (name ^ ": one route line per syscall")
        r.Remon_workloads.Runner.outcome.Mvee.syscalls
        (List.length (Kernel.route_lines obs)))
    [
      ("native", Remon_workloads.Runner.cfg_native ());
      ("ghumvee", Remon_workloads.Runner.cfg_ghumvee ());
      ("varan", Remon_workloads.Runner.cfg_varan ());
      ("remon", Remon_workloads.Runner.cfg_remon Classification.Socket_rw_level);
    ];
  let kernel = Kernel.create () in
  let obs = Remon_obs.Obs.create () in
  Kernel.set_obs kernel obs;
  let body (_ : Mvee.env) =
    ignore (sys Syscall.Gettimeofday);
    ignore (sys Syscall.Getpid)
  in
  let h =
    Mvee.launch kernel
      { Mvee.default_config with Mvee.backend = Mvee.Remon }
      ~name:"traced" ~body
  in
  Kernel.run kernel;
  ignore (Mvee.finish h);
  let trace = Kernel.route_lines obs in
  let contains needle hay =
    let n = String.length needle and hl = String.length hay in
    let rec scan i = i + n <= hl && (String.sub hay i n = needle || scan (i + 1)) in
    n > 0 && scan 0
  in
  Alcotest.(check bool) "trace recorded" true (List.length trace > 4);
  Alcotest.(check bool) "ipmon route visible" true
    (List.exists (contains "gettimeofday -> ipmon") trace);
  Alcotest.(check bool) "monitored route visible" true
    (List.exists (contains "-> monitored") trace)

let tc = Alcotest.test_case

let () =
  Alcotest.run "kernel3"
    [
      ( "eventfd",
        [
          tc "counter semantics" `Quick test_eventfd_basic;
          tc "blocking wakeup" `Quick test_eventfd_signal_wakeup;
          tc "epoll integration" `Quick test_eventfd_epoll;
        ] );
      ( "flock",
        [
          tc "exclusion + reentrancy" `Quick test_flock_exclusion;
          tc "blocks across processes" `Quick test_flock_blocks_other_process;
        ] );
      ( "getrandom",
        [
          tc "lengths + freshness" `Quick test_getrandom_length;
          tc "replicated under remon" `Quick (test_getrandom_replicated Mvee.Remon);
          tc "replicated under ghumvee" `Quick
            (test_getrandom_replicated Mvee.Ghumvee_only);
          tc "replicated under varan" `Quick (test_getrandom_replicated Mvee.Varan);
        ] );
      ( "links",
        [
          tc "hard link shares inode" `Quick test_hard_link;
          tc "link EEXIST" `Quick test_link_eexist;
          tc "symlink syscall" `Quick test_symlink_syscall;
        ] );
      ( "fd-factories",
        [
          tc "pipe2 nonblock" `Quick test_pipe2_nonblock;
          tc "dup3" `Quick test_dup3;
        ] );
      ( "poll-variants",
        [ tc "pselect6 + ppoll" `Quick test_pselect_ppoll ] );
      ( "misc",
        [
          tc "limits/affinity/ids" `Quick test_limits_affinity_ids;
          tc "statfs/chmod/chown" `Quick test_statfs_chmod;
          tc "classification of additions" `Quick test_new_classification;
          tc "trace facility" `Quick test_trace_facility;
        ] );
    ]
