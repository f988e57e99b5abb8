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

(* An eventfd write carries the 8-byte counter increment. *)
let u64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

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
            ignore (sys (Syscall.Write (efd, u64 5))));
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
      ignore (sys (Syscall.Write (efd, u64 1)));
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

(* ---- payloads cross the kernel without host copies ----

   Strings are immutable, so a pipe or socket queues the writer's own
   string and a read that takes exactly one queued write returns it. *)

(* [Bytestream] against a model that keeps each pushed string with its
   consumed prefix. The model also says when a pull must return a pushed
   string itself: when it takes exactly an unsplit front chunk. *)
type bs_op = Push of string | Pull of int | Pull_front

let bs_op_to_string = function
  | Push s -> Printf.sprintf "push %S" s
  | Pull n -> Printf.sprintf "pull %d" n
  | Pull_front -> "pull-front"

let gen_bs_ops =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (frequency
         [
           (4, map (fun s -> Push s) (string_size ~gen:printable (0 -- 12)));
           (4, map (fun n -> Pull n) (int_range (-3) 40));
           (2, return Pull_front);
         ]))

let prop_bytestream_model =
  QCheck.Test.make ~name:"bytestream matches a string model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map bs_op_to_string ops))
       gen_bs_ops)
    (fun ops ->
      let b = Bytestream.create () in
      (* the model: pushed strings in order, each with its consumed prefix *)
      let model = ref [] in
      let model_len () =
        List.fold_left (fun acc (s, off) -> acc + String.length s - off) 0 !model
      in
      let model_pull n =
        let rec take acc left = function
          | (s, off) :: rest when left > 0 ->
            let k = min left (String.length s - off) in
            let acc = String.sub s off k :: acc in
            if off + k = String.length s then take acc (left - k) rest
            else (acc, (s, off + k) :: rest)
          | chunks -> (acc, chunks)
        in
        let whole =
          match !model with
          | (s, 0) :: _ when n = String.length s -> Some s
          | _ -> None
        in
        let parts, rest = take [] n !model in
        model := rest;
        (String.concat "" (List.rev parts), whole)
      in
      let check_pull n =
        let expected, whole = model_pull n in
        let got = Bytestream.pull b n in
        String.equal got expected
        && (match whole with Some s -> got == s | None -> true)
        && Bytestream.length b = model_len ()
      in
      List.for_all
        (function
          | Push s ->
            Bytestream.push b s;
            if s <> "" then model := !model @ [ (s, 0) ];
            Bytestream.length b = model_len ()
          | Pull n -> check_pull n
          | Pull_front ->
            let n =
              match !model with (s, off) :: _ -> String.length s - off | [] -> 0
            in
            check_pull n)
        ops
      && check_pull max_int
      && Bytestream.length b = 0)

(* socket writes land after the link latency (50 us on loopback TCP) *)
let settle () = ignore (sys (Syscall.Nanosleep (Vtime.ms 1)))

(* A connected pair of descriptors of each kind: (reader, writer). *)
let socketpair_ends () =
  let a, b =
    expect_pair "socketpair"
      (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)))
  in
  (b, a)

let tcp_socket () =
  expect_int "socket" (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))

let tcp_ends () =
  let port = 8090 in
  let sfd = tcp_socket () in
  ignore (expect_int "bind" (sys (Syscall.Bind (sfd, port))));
  ignore (expect_int "listen" (sys (Syscall.Listen (sfd, 4))));
  let cfd = tcp_socket () in
  ignore (expect_int "connect" (sys (Syscall.Connect (cfd, port))));
  match sys (Syscall.Accept sfd) with
  | Syscall.Ok_accept { conn_fd; _ } -> (conn_fd, cfd)
  | _ -> Alcotest.fail "accept"

let pipe_ends () = expect_pair "pipe" (sys Syscall.Pipe)

let test_shared_reads ends () =
  run_in_kernel (fun _ ->
      let r, w = ends () in
      let read n = expect_data "read" (sys (Syscall.Read (r, n))) in
      let msg = String.make 4096 'm' in
      ignore (expect_int "write" (sys (Syscall.Write (w, msg))));
      Alcotest.(check bool) "a read of one whole write shares its string" true
        (read 4096 == msg);
      ignore (expect_int "write" (sys (Syscall.Write (w, "hello world"))));
      Alcotest.(check string) "read inside a chunk" "hello" (read 5);
      Alcotest.(check string) "rest of the chunk" " world" (read 64);
      ignore (expect_int "write" (sys (Syscall.Write (w, "abc"))));
      ignore (expect_int "write" (sys (Syscall.Write (w, "def"))));
      ignore (expect_int "write" (sys (Syscall.Write (w, "gh"))));
      settle ();
      Alcotest.(check string) "read across chunks" "abcde" (read 5);
      Alcotest.(check string) "read joining the rest" "fgh" (read 64))

(* Host allocation guard. OCaml puts any block over 256 words straight
   into the major heap, and a 4 KB payload is 513 words, so every host
   copy of one costs a major-heap allocation that minor-word counts never
   show. 200 round trips of one 4 KB message over a socketpair must not
   allocate in the major heap beyond a small constant per message (copies
   cost about 2,000 words each), and every read must return the sender's
   string itself. *)
let test_no_major_copies () =
  let msg = String.make 4096 'm' in
  let k = Kernel.create () in
  let shared = ref 0 in
  let reads = ref 0 in
  ignore
    (Kernel.spawn_process k ~name:"pingpong" ~vm_seed:3 (fun () ->
         let a, b = socketpair_ends () in
         let read fd =
           let s = expect_data "read" (sys (Syscall.Read (fd, 4096))) in
           incr reads;
           if s == msg then incr shared
         in
         for _ = 1 to 200 do
           ignore (expect_int "write" (sys (Syscall.Write (b, msg))));
           read a;
           ignore (expect_int "write" (sys (Syscall.Write (a, msg))));
           read b
         done));
  let before = Gc.quick_stat () in
  Kernel.run k;
  let after = Gc.quick_stat () in
  let direct s = s.Gc.major_words -. s.Gc.promoted_words in
  let per_message = (direct after -. direct before) /. 400. in
  Alcotest.(check int) "reads" 400 !reads;
  if per_message > 64. || !shared <> 400 then
    Alcotest.failf
      "%.1f words per message went straight to the major heap (at most 64); \
       %d of 400 reads shared the sender's string"
      per_message !shared

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
      ( "shared strings",
        [
          QCheck_alcotest.to_alcotest prop_bytestream_model;
          tc "socketpair reads" `Quick (test_shared_reads socketpair_ends);
          tc "local TCP reads" `Quick (test_shared_reads tcp_ends);
          tc "pipe reads" `Quick (test_shared_reads pipe_ends);
          tc "no major-heap copies of 4 KB messages" `Quick
            test_no_major_copies;
        ] );
      ( "misc",
        [
          tc "limits/affinity/ids" `Quick test_limits_affinity_ids;
          tc "statfs/chmod/chown" `Quick test_statfs_chmod;
          tc "classification of additions" `Quick test_new_classification;
          tc "trace facility" `Quick test_trace_facility;
        ] );
    ]
