(* Totality of the simulated kernel: whatever its arguments, a call must not
   raise an OCaml exception out of [Kernel.run] or lose its continuation.

   [shapes] has call shapes for every syscall number; a shape fills its
   argument slots through [slots]. One slot at a time takes each
   adversarial value: an integer slot -1, 0, 2^40 and max_int; a
   descriptor slot -1, a closed fd, 70 and a fresh descriptor of every kind
   in [Kinds.kinds]. The other slots keep their usual values. Each such call
   is the last call of a fresh fixture process. Once [Kernel.run] returns,
   the call has answered or is still parked; exit, exit_group and a signal
   sent to the caller may end the process instead.

   The last cases pin what a call that completes at once allocates:
   [Dispatch.answer] returns its result, so such a call builds no
   continuation of its own. *)

open Remon_kernel
open Syscall
open Kinds

(* [int d] is an integer slot and [fd kind] a descriptor slot whose usual
   values are [d] and a fresh descriptor of [kind]; [self] is the caller's
   pid. *)
type slots = { int : int -> int; fd : string -> int; self : int }

let addr s d = Int64.of_int (s.int d)
let prot = { pr = true; pw = true; px = false }

let shapes : Sysno.t -> (slots -> call) list = function
  | Sysno.Gettimeofday -> [ (fun _ -> Gettimeofday) ]
  | Sysno.Clock_gettime ->
    [ (fun _ -> Clock_gettime `Realtime); (fun _ -> Clock_gettime `Monotonic) ]
  | Sysno.Time -> [ (fun _ -> Time) ]
  | Sysno.Getpid -> [ (fun _ -> Getpid) ]
  | Sysno.Gettid -> [ (fun _ -> Gettid) ]
  | Sysno.Getpgrp -> [ (fun _ -> Getpgrp) ]
  | Sysno.Getppid -> [ (fun _ -> Getppid) ]
  | Sysno.Getgid -> [ (fun _ -> Getgid) ]
  | Sysno.Getegid -> [ (fun _ -> Getegid) ]
  | Sysno.Getuid -> [ (fun _ -> Getuid) ]
  | Sysno.Geteuid -> [ (fun _ -> Geteuid) ]
  | Sysno.Getcwd -> [ (fun _ -> Getcwd) ]
  | Sysno.Getpriority -> [ (fun _ -> Getpriority) ]
  | Sysno.Getrusage -> [ (fun _ -> Getrusage) ]
  | Sysno.Times -> [ (fun _ -> Times) ]
  | Sysno.Capget -> [ (fun _ -> Capget) ]
  | Sysno.Getitimer -> [ (fun _ -> Getitimer) ]
  | Sysno.Sysinfo -> [ (fun _ -> Sysinfo) ]
  | Sysno.Uname -> [ (fun _ -> Uname) ]
  | Sysno.Sched_yield -> [ (fun _ -> Sched_yield) ]
  | Sysno.Nanosleep -> [ (fun s -> Nanosleep (s.int 1_000)) ]
  | Sysno.Getpgid -> [ (fun _ -> Getpgid) ]
  | Sysno.Getsid -> [ (fun _ -> Getsid) ]
  | Sysno.Getrlimit -> [ (fun s -> Getrlimit (s.int 7)) ]
  | Sysno.Sched_getaffinity -> [ (fun _ -> Sched_getaffinity) ]
  | Sysno.Clock_getres -> [ (fun _ -> Clock_getres) ]
  | Sysno.Getrandom -> [ (fun s -> Getrandom (s.int 16)) ]
  | Sysno.Futex ->
    [
      (fun s ->
        Futex
          (Futex_wait
             { addr = addr s 0x1000; expected = s.int 0; timeout_ns = Some (s.int 1_000) }));
      (fun s ->
        Futex (Futex_wait { addr = addr s 0x1000; expected = s.int 1; timeout_ns = None }));
      (fun s -> Futex (Futex_wake { addr = addr s 0x1000; count = s.int 1 }));
    ]
  | Sysno.Ioctl ->
    [
      (fun s -> Ioctl (s.fd "pipe-r", Fionread));
      (fun s -> Ioctl (s.fd "socketpair", Fionbio true));
      (fun s -> Ioctl (s.fd "file", Tiocgwinsz));
    ]
  | Sysno.Fcntl ->
    [
      (fun s -> Fcntl (s.fd "file", F_getfl));
      (fun s -> Fcntl (s.fd "pipe-r", F_setfl { nonblock = true }));
      (fun s -> Fcntl (s.fd "file", F_dupfd (s.int 9)));
    ]
  | Sysno.Access -> [ (fun _ -> Access "/tmp") ]
  | Sysno.Faccessat -> [ (fun _ -> Faccessat "/nonexistent") ]
  | Sysno.Lseek ->
    List.map
      (fun whence s -> Lseek (s.fd "file", s.int 4, whence))
      [ Seek_set; Seek_cur; Seek_end ]
  | Sysno.Stat -> [ (fun _ -> Stat "/etc/hostname") ]
  | Sysno.Lstat -> [ (fun _ -> Lstat "/etc/hostname") ]
  | Sysno.Fstat -> [ (fun s -> Fstat (s.fd "file")) ]
  | Sysno.Fstatat -> [ (fun _ -> Fstatat "/nonexistent") ]
  | Sysno.Getdents -> [ (fun s -> Getdents (s.fd "dir")) ]
  | Sysno.Readlink -> [ (fun _ -> Readlink "/etc/hostname") ]
  | Sysno.Readlinkat -> [ (fun _ -> Readlinkat "/nonexistent") ]
  | Sysno.Getxattr -> [ (fun _ -> Getxattr ("/etc/hostname", "user.a")) ]
  | Sysno.Lgetxattr -> [ (fun _ -> Lgetxattr ("/nonexistent", "user.a")) ]
  | Sysno.Fgetxattr -> [ (fun s -> Fgetxattr (s.fd "file", "user.a")) ]
  | Sysno.Alarm -> [ (fun s -> Alarm (s.int 2)) ]
  | Sysno.Setitimer ->
    [ (fun s -> Setitimer { interval_ns = s.int 0; value_ns = s.int 1_000 }) ]
  | Sysno.Timerfd_gettime -> [ (fun s -> Timerfd_gettime (s.fd "timerfd")) ]
  | Sysno.Madvise -> [ (fun s -> Madvise { addr = addr s 0x1000; len = s.int 4096 }) ]
  | Sysno.Fadvise64 -> [ (fun s -> Fadvise64 (s.fd "file")) ]
  | Sysno.Statfs -> [ (fun _ -> Statfs "/tmp") ]
  | Sysno.Fstatfs -> [ (fun s -> Fstatfs (s.fd "file")) ]
  | Sysno.Getdents64 -> [ (fun s -> Getdents64 (s.fd "dir")) ]
  | Sysno.Readahead -> [ (fun s -> Readahead (s.fd "file")) ]
  | Sysno.Mincore -> [ (fun s -> Mincore { addr = addr s 0x1000; len = s.int 4096 }) ]
  | Sysno.Read -> [ (fun s -> Read (s.fd "file", s.int 8)) ]
  | Sysno.Readv -> [ (fun s -> Readv (s.fd "file", [ s.int 4; s.int 4 ])) ]
  | Sysno.Pread64 -> [ (fun s -> Pread64 (s.fd "file", s.int 8, s.int 0)) ]
  | Sysno.Preadv -> [ (fun s -> Preadv (s.fd "file", [ s.int 4; s.int 4 ], s.int 0)) ]
  | Sysno.Select ->
    [
      (fun s ->
        Select
          {
            readfds = [ s.fd "pipe-r" ];
            writefds = [ s.fd "pipe-w" ];
            timeout_ns = Some (s.int 1_000);
          });
    ]
  | Sysno.Poll ->
    [ (fun s -> Poll { fds = [ (s.fd "socketpair", ev_in) ]; timeout_ns = Some (s.int 1_000) }) ]
  | Sysno.Pselect6 ->
    [ (fun s -> Pselect6 { readfds = [ s.fd "eventfd" ]; writefds = []; timeout_ns = None }) ]
  | Sysno.Ppoll ->
    [ (fun s -> Ppoll { fds = [ (s.fd "timerfd", ev_in) ]; timeout_ns = Some (s.int 0) }) ]
  | Sysno.Sync -> [ (fun _ -> Sync) ]
  | Sysno.Syncfs -> [ (fun s -> Syncfs (s.fd "file")) ]
  | Sysno.Fsync -> [ (fun s -> Fsync (s.fd "file")) ]
  | Sysno.Fdatasync -> [ (fun s -> Fdatasync (s.fd "file")) ]
  | Sysno.Timerfd_settime ->
    [
      (fun s ->
        Timerfd_settime (s.fd "timerfd", { interval_ns = s.int 0; value_ns = s.int 1_000 }));
    ]
  | Sysno.Msync -> [ (fun s -> Msync { addr = addr s 0x1000; len = s.int 4096 }) ]
  | Sysno.Flock ->
    List.map (fun op s -> Flock (s.fd "file", op)) [ Lock_sh; Lock_ex; Lock_un ]
  | Sysno.Chmod -> [ (fun s -> Chmod ("/etc/hostname", s.int 0o644)) ]
  | Sysno.Fchmod -> [ (fun s -> Fchmod (s.fd "file", s.int 0o600)) ]
  | Sysno.Chown -> [ (fun s -> Chown ("/etc/hostname", s.int 5, s.int 7)) ]
  | Sysno.Utimensat -> [ (fun _ -> Utimensat "/etc/hostname") ]
  | Sysno.Write -> [ (fun s -> Write (s.fd "file", "hi")) ]
  | Sysno.Writev -> [ (fun s -> Writev (s.fd "pipe-w", [ "a"; "bc" ])) ]
  | Sysno.Pwrite64 -> [ (fun s -> Pwrite64 (s.fd "file", "hi", s.int 0)) ]
  | Sysno.Pwritev -> [ (fun s -> Pwritev (s.fd "file", [ "a"; "bc" ], s.int 0)) ]
  | Sysno.Epoll_wait ->
    [
      (fun s ->
        Epoll_wait
          { epfd = s.fd "epoll"; max_events = s.int 8; timeout_ns = Some (s.int 1_000) });
    ]
  | Sysno.Recvfrom -> [ (fun s -> Recvfrom (s.fd "socketpair", s.int 8)) ]
  | Sysno.Recvmsg -> [ (fun s -> Recvmsg (s.fd "socketpair", s.int 8)) ]
  | Sysno.Recvmmsg -> [ (fun s -> Recvmmsg (s.fd "socketpair", s.int 2, s.int 4)) ]
  | Sysno.Getsockname -> [ (fun s -> Getsockname (s.fd "socket")) ]
  | Sysno.Getpeername -> [ (fun s -> Getpeername (s.fd "socketpair")) ]
  | Sysno.Getsockopt -> [ (fun s -> Getsockopt (s.fd "socket", s.int Net.so_rcvbuf)) ]
  | Sysno.Sendto -> [ (fun s -> Sendto (s.fd "socketpair", "hi")) ]
  | Sysno.Sendmsg -> [ (fun s -> Sendmsg (s.fd "socket", "hi")) ]
  | Sysno.Sendmmsg -> [ (fun s -> Sendmmsg (s.fd "socketpair", [ "a"; "bc" ])) ]
  | Sysno.Sendfile ->
    [
      (fun s ->
        Sendfile { out_fd = s.fd "socketpair"; in_fd = s.fd "file"; count = s.int 8 });
    ]
  | Sysno.Epoll_ctl ->
    List.map
      (fun op s ->
        Epoll_ctl
          {
            epfd = s.fd "epoll";
            op;
            fd = s.fd "pipe-r";
            events = ev_in;
            user_data = addr s 7;
          })
      [ Epoll_add; Epoll_mod; Epoll_del ]
  | Sysno.Setsockopt ->
    [
      (fun s -> Setsockopt (s.fd "socket", s.int Net.so_sndbuf, s.int 4096));
      (fun s -> Setsockopt (s.fd "socketpair", Net.so_rcvbuf, s.int 4096));
    ]
  | Sysno.Shutdown ->
    List.map (fun how s -> Shutdown (s.fd "socketpair", how)) [ Shut_rd; Shut_wr; Shut_rdwr ]
  | Sysno.Open ->
    [
      (fun _ -> Open ("/etc/hostname", o_rdonly));
      (fun _ -> Open ("/tmp/new", { o_rdwr with create = true; trunc = true }));
    ]
  | Sysno.Openat -> [ (fun _ -> Openat ("/tmp", o_rdwr)) ]
  | Sysno.Creat -> [ (fun _ -> Creat "/tmp/creat") ]
  | Sysno.Close -> [ (fun s -> Close (s.fd "file")) ]
  | Sysno.Dup -> [ (fun s -> Dup (s.fd "file")) ]
  | Sysno.Dup2 -> [ (fun s -> Dup2 (s.fd "file", s.fd "pipe-r")) ]
  | Sysno.Dup3 -> [ (fun s -> Dup3 (s.fd "file", s.int 9)) ]
  | Sysno.Pipe2 -> [ (fun _ -> Pipe2 { nonblock = true }) ]
  | Sysno.Eventfd -> [ (fun s -> Eventfd (s.int 0)) ]
  | Sysno.Pipe -> [ (fun _ -> Pipe) ]
  | Sysno.Socket -> [ (fun _ -> Socket (Af_inet, Sock_stream)) ]
  | Sysno.Socketpair -> [ (fun _ -> Socketpair (Af_unix, Sock_stream)) ]
  | Sysno.Bind -> [ (fun s -> Bind (s.fd "socket", s.int 8080)) ]
  | Sysno.Listen -> [ (fun s -> Listen (s.fd "socket", s.int 8)) ]
  | Sysno.Accept -> [ (fun s -> Accept (s.fd "listener")) ]
  | Sysno.Accept4 -> [ (fun s -> Accept4 { fd = s.fd "listener"; nonblock = true }) ]
  | Sysno.Connect -> [ (fun s -> Connect (s.fd "socket", s.int listen_port)) ]
  | Sysno.Epoll_create -> [ (fun _ -> Epoll_create) ]
  | Sysno.Timerfd_create -> [ (fun _ -> Timerfd_create) ]
  | Sysno.Unlink -> [ (fun _ -> Unlink "/etc/hostname") ]
  | Sysno.Rename -> [ (fun _ -> Rename ("/etc/hostname", "/tmp/h")) ]
  | Sysno.Mkdir -> [ (fun _ -> Mkdir "/tmp/m") ]
  | Sysno.Rmdir -> [ (fun _ -> Rmdir "/tmp") ]
  | Sysno.Truncate -> [ (fun s -> Truncate ("/etc/hostname", s.int 4)) ]
  | Sysno.Ftruncate -> [ (fun s -> Ftruncate (s.fd "file", s.int 4)) ]
  | Sysno.Mkdirat -> [ (fun _ -> Mkdirat "/nonexistent/m") ]
  | Sysno.Unlinkat -> [ (fun _ -> Unlinkat "/nonexistent") ]
  | Sysno.Renameat -> [ (fun _ -> Renameat ("/nonexistent", "/tmp/r")) ]
  | Sysno.Link -> [ (fun _ -> Link ("/etc/hostname", "/tmp/l")) ]
  | Sysno.Linkat -> [ (fun _ -> Linkat ("/etc/hostname", "/etc/hostname")) ]
  | Sysno.Symlink -> [ (fun _ -> Symlink ("/etc/hostname", "/tmp/s")) ]
  | Sysno.Symlinkat -> [ (fun _ -> Symlinkat ("/etc/hostname", "/nonexistent/s")) ]
  | Sysno.Umask -> [ (fun s -> Umask (s.int 0o22)) ]
  | Sysno.Mmap ->
    [
      (fun s -> Mmap { len = s.int 4096; prot; kind = Map_anon });
      (fun s -> Mmap { len = s.int 4096; prot; kind = Map_shared_anon });
      (fun s -> Mmap { len = s.int 4096; prot; kind = Map_file (s.fd "file") });
    ]
  | Sysno.Munmap -> [ (fun s -> Munmap { addr = addr s 0x1000; len = s.int 4096 }) ]
  | Sysno.Mprotect ->
    [ (fun s -> Mprotect { addr = addr s 0x1000; len = s.int 4096; prot }) ]
  | Sysno.Mremap ->
    [
      (fun s ->
        Mremap { addr = addr s 0x1000; old_len = s.int 4096; new_len = s.int 8192 });
    ]
  | Sysno.Brk -> [ (fun s -> Brk (s.int 4096)) ]
  | Sysno.Mlock -> [ (fun s -> Mlock { addr = addr s 0x1000; len = s.int 4096 }) ]
  | Sysno.Munlock -> [ (fun s -> Munlock { addr = addr s 0x1000; len = s.int 4096 }) ]
  | Sysno.Clone -> [ (fun s -> Clone (s.int 0)) ]
  | Sysno.Fork -> [ (fun _ -> Fork) ]
  | Sysno.Execve -> [ (fun _ -> Execve "/bin/true") ]
  | Sysno.Exit -> [ (fun s -> Exit (s.int 3)) ]
  | Sysno.Exit_group -> [ (fun s -> Exit_group (s.int 4)) ]
  | Sysno.Wait4 -> [ (fun s -> Wait4 (s.int (-1))) ]
  | Sysno.Kill -> [ (fun s -> Kill (s.int s.self, s.int 0)) ]
  | Sysno.Tgkill -> [ (fun s -> Tgkill (s.int s.self, s.int 1, s.int 0)) ]
  | Sysno.Setrlimit -> [ (fun s -> Setrlimit (s.int 7, s.int 1024)) ]
  | Sysno.Prlimit64 -> [ (fun s -> Prlimit64 (s.int 7, s.int 1024)) ]
  | Sysno.Sched_setaffinity -> [ (fun s -> Sched_setaffinity (s.int 3)) ]
  | Sysno.Setsid -> [ (fun _ -> Setsid) ]
  | Sysno.Rt_sigaction ->
    [
      (fun s -> Rt_sigaction (s.int Sigdefs.sigusr1, Sig_ignore));
      (fun s -> Rt_sigaction (s.int Sigdefs.sigusr1, Sig_handler (s.int 7)));
    ]
  | Sysno.Rt_sigprocmask ->
    List.map
      (fun how s -> Rt_sigprocmask (how, [ s.int Sigdefs.sigusr1 ]))
      [ Sig_block; Sig_unblock; Sig_setmask ]
  | Sysno.Rt_sigreturn -> [ (fun _ -> Rt_sigreturn) ]
  | Sysno.Sigaltstack -> [ (fun _ -> Sigaltstack) ]
  | Sysno.Pause -> [ (fun _ -> Pause) ]
  | Sysno.Shmget -> [ (fun s -> Shmget { key = s.int 5; size = s.int 4096; create = true }) ]
  | Sysno.Shmat -> [ (fun s -> Shmat { shmid = s.int 1; readonly = true }) ]
  | Sysno.Shmdt -> [ (fun s -> Shmdt { addr = addr s 0x1000 }) ]
  | Sysno.Shmctl -> [ (fun s -> Shmctl { shmid = s.int 1; rmid = true }) ]
  | Sysno.Ipmon_register ->
    [
      (fun s ->
        Ipmon_register
          { calls = [ Sysno.Read ]; rb_addr = addr s 0x1000; entry_addr = addr s 0x2000 });
    ]

(* What the slot being varied takes. *)
type value = Num of int | Closed | Kind of string

let int_values = List.map (fun n -> Num n) [ -1; 0; 1 lsl 40; max_int ]
let fd_values = [ Num (-1); Closed; Num 70 ] @ List.map (fun (name, _) -> Kind name) kinds

let value_to_string = function
  | Num n -> string_of_int n
  | Closed -> "a closed fd"
  | Kind name -> name

let open_kind name = (List.assoc name kinds) ()

(* 69, dup2'd from a file and closed, so that no later open takes it. *)
let closed_fd () =
  ignore (sys (Dup2 (open_kind "file", 69)));
  ignore (sys (Close 69));
  69

(* Each slot of [shape], in the order it fills them: its usual value and
   the values it takes. *)
let slots_of shape =
  let slots = ref [] in
  let add usual values = slots := (usual, values) :: !slots in
  ignore
    (shape
       {
         int = (fun d -> add (string_of_int d) int_values; d);
         fd = (fun kind -> add (kind ^ " fd") fd_values; 0);
         self = 0;
       });
  List.rev !slots

(* The calls that may end the caller's process instead of answering. *)
let may_end = function Exit _ | Exit_group _ | Kill _ | Tgkill _ -> true | _ -> false

(* Runs [shape] with slot [slot] set to [value] as the last call of a fresh
   fixture process: what went wrong, if anything. *)
let run_case shape ~slot ~value =
  let k = Kernel.create () in
  let call = ref None and answered = ref false in
  let p =
    spawn k (fun () ->
        let next = ref (-1) in
        let varied () =
          incr next;
          !next = slot
        in
        let int d = match (varied (), value) with true, Num n -> n | _ -> d in
        let fd kind =
          match (varied (), value) with
          | false, _ -> open_kind kind
          | true, Num n -> n
          | true, Closed -> closed_fd ()
          | true, Kind k -> open_kind k
        in
        let c = shape { int; fd; self = fd_of (sys Getpid) } in
        call := Some c;
        ignore (sys c);
        answered := true)
  in
  match Kernel.run k with
  | exception e -> Some ("raised " ^ Printexc.to_string e)
  | () -> (
    match (!answered, (Remon_util.Vec.get p.Proc.threads 0).Proc.tstate, !call) with
    | true, _, _ | false, Proc.Blocked _, _ -> None
    | false, Proc.Dead, Some c when may_end c && not p.Proc.alive -> None
    | false, _, _ -> Some "neither answered nor parked")

let test_totality () =
  let runs = ref 0 and faults = ref [] in
  List.iter
    (fun no ->
      List.iteri
        (fun i shape ->
          let cases =
            match slots_of shape with
            | [] -> [ (-1, "", Num 0) ]
            | slots ->
              List.concat
                (List.mapi
                   (fun slot (usual, vs) -> List.map (fun v -> (slot, usual, v)) vs)
                   slots)
          in
          List.iter
            (fun (slot, usual, value) ->
              incr runs;
              match run_case shape ~slot ~value with
              | None -> ()
              | Some fault ->
                faults :=
                  Printf.sprintf "%s shape %d, %s -> %s: %s" (Sysno.to_string no) i usual
                    (value_to_string value) fault
                  :: !faults)
            cases)
        (shapes no))
    (List.sort Sysno.compare Sysno.all);
  if !faults <> [] then
    Alcotest.failf "%d of %d calls:\n%s" (List.length !faults) !runs
      (String.concat "\n" (List.rev !faults))

(* Minor words per call over 10,000 calls after one warm-up call, in a
   fixture process. *)
let words_per_call make_call =
  let n = 10_000 in
  match
    run (fun () ->
        let call = make_call () in
        ignore (sys call);
        let before = Gc.minor_words () in
        for _ = 1 to n do
          ignore (sys call)
        done;
        (Gc.minor_words () -. before) /. float n)
  with
  | Some w -> w
  | None -> Alcotest.fail "the calls parked"

let test_words name make_call () =
  let w = words_per_call make_call in
  if w > 20. then Alcotest.failf "%s: %.1f minor words per call, over 20" name w

let () =
  Alcotest.run "totality"
    [
      ( "calls",
        [ Alcotest.test_case "every call answers or parks" `Quick test_totality ] );
      ( "allocation",
        [
          Alcotest.test_case "getpid" `Quick (test_words "getpid" (fun () -> Getpid));
          Alcotest.test_case "close of a closed fd" `Quick
            (test_words "close" (fun () -> Close (closed_fd ())));
        ] );
    ]
