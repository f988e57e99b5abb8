(* The RMRC wire encoding of every syscall value, pinned byte for byte.

   One value of every call constructor, every result constructor and every
   errno; where a field picks between sub-encodings (ioctl and fcntl ops,
   whence, socket kinds, signal actions, ...), one value of each. Fields
   hold distinct values, so a swapped or dropped field moves the bytes.
   Each row is checked to decode back to an equal value, then printed as
   its name and the hex of its encoding; dune compares stdout with
   test_encodings.expected, so any change to the format recordings are
   written in shows there. The tags one past each table must be rejected.

   [calls_of] matches on [Sysno.t] and [result_name] on [Syscall.result],
   so a new call or result does not compile here until it has a row. *)

open Remon_kernel
open Syscall

let calls_of : Sysno.t -> call list = function
  | Sysno.Gettimeofday -> [ Gettimeofday ]
  | Sysno.Clock_gettime -> [ Clock_gettime `Realtime; Clock_gettime `Monotonic ]
  | Sysno.Time -> [ Time ]
  | Sysno.Getpid -> [ Getpid ]
  | Sysno.Gettid -> [ Gettid ]
  | Sysno.Getpgrp -> [ Getpgrp ]
  | Sysno.Getppid -> [ Getppid ]
  | Sysno.Getgid -> [ Getgid ]
  | Sysno.Getegid -> [ Getegid ]
  | Sysno.Getuid -> [ Getuid ]
  | Sysno.Geteuid -> [ Geteuid ]
  | Sysno.Getcwd -> [ Getcwd ]
  | Sysno.Getpriority -> [ Getpriority ]
  | Sysno.Getrusage -> [ Getrusage ]
  | Sysno.Times -> [ Times ]
  | Sysno.Capget -> [ Capget ]
  | Sysno.Getitimer -> [ Getitimer ]
  | Sysno.Sysinfo -> [ Sysinfo ]
  | Sysno.Uname -> [ Uname ]
  | Sysno.Sched_yield -> [ Sched_yield ]
  | Sysno.Nanosleep -> [ Nanosleep 1_000_000 ]
  | Sysno.Getpgid -> [ Getpgid ]
  | Sysno.Getsid -> [ Getsid ]
  | Sysno.Getrlimit -> [ Getrlimit 7 ]
  | Sysno.Sched_getaffinity -> [ Sched_getaffinity ]
  | Sysno.Clock_getres -> [ Clock_getres ]
  | Sysno.Getrandom -> [ Getrandom 16 ]
  | Sysno.Futex ->
    [
      Futex (Futex_wait { addr = 0x1000L; expected = 3; timeout_ns = None });
      Futex (Futex_wait { addr = 0x1000L; expected = 3; timeout_ns = Some 5 });
      Futex (Futex_wake { addr = 0x2000L; count = 4 });
    ]
  | Sysno.Ioctl ->
    [
      Ioctl (3, Fionread);
      Ioctl (3, Fionbio true);
      Ioctl (3, Fionbio false);
      Ioctl (3, Tiocgwinsz);
    ]
  | Sysno.Fcntl ->
    [
      Fcntl (3, F_getfl);
      Fcntl (3, F_setfl { nonblock = true });
      Fcntl (3, F_dupfd 9);
    ]
  | Sysno.Access -> [ Access "/a" ]
  | Sysno.Faccessat -> [ Faccessat "/a" ]
  | Sysno.Lseek ->
    [ Lseek (3, -9, Seek_set); Lseek (3, 9, Seek_cur); Lseek (3, 0, Seek_end) ]
  | Sysno.Stat -> [ Stat "/a" ]
  | Sysno.Lstat -> [ Lstat "/a" ]
  | Sysno.Fstat -> [ Fstat 3 ]
  | Sysno.Fstatat -> [ Fstatat "/a" ]
  | Sysno.Getdents -> [ Getdents 3 ]
  | Sysno.Readlink -> [ Readlink "/a" ]
  | Sysno.Readlinkat -> [ Readlinkat "/a" ]
  | Sysno.Getxattr -> [ Getxattr ("/a", "b") ]
  | Sysno.Lgetxattr -> [ Lgetxattr ("/a", "b") ]
  | Sysno.Fgetxattr -> [ Fgetxattr (3, "b") ]
  | Sysno.Alarm -> [ Alarm 2 ]
  | Sysno.Setitimer -> [ Setitimer { interval_ns = 5; value_ns = 7 } ]
  | Sysno.Timerfd_gettime -> [ Timerfd_gettime 3 ]
  | Sysno.Madvise -> [ Madvise { addr = 0x1000L; len = 7 } ]
  | Sysno.Fadvise64 -> [ Fadvise64 3 ]
  | Sysno.Statfs -> [ Statfs "/a" ]
  | Sysno.Fstatfs -> [ Fstatfs 3 ]
  | Sysno.Getdents64 -> [ Getdents64 3 ]
  | Sysno.Readahead -> [ Readahead 3 ]
  | Sysno.Mincore -> [ Mincore { addr = 0x1000L; len = 7 } ]
  | Sysno.Read -> [ Read (3, 7) ]
  | Sysno.Readv -> [ Readv (3, [ 5; 7 ]) ]
  | Sysno.Pread64 -> [ Pread64 (3, 7, 11) ]
  | Sysno.Preadv -> [ Preadv (3, [ 5; 7 ], 11) ]
  | Sysno.Select ->
    [ Select { readfds = [ 3 ]; writefds = [ 4; 5 ]; timeout_ns = Some 7 } ]
  | Sysno.Poll ->
    [
      Poll
        {
          fds =
            [
              (3, { ev_in with pollhup = true });
              (4, { ev_out with pollerr = true });
            ];
          timeout_ns = None;
        };
    ]
  | Sysno.Pselect6 ->
    [ Pselect6 { readfds = [ 3; 4 ]; writefds = []; timeout_ns = None } ]
  | Sysno.Ppoll -> [ Ppoll { fds = [ (3, ev_in) ]; timeout_ns = Some 7 } ]
  | Sysno.Sync -> [ Sync ]
  | Sysno.Syncfs -> [ Syncfs 3 ]
  | Sysno.Fsync -> [ Fsync 3 ]
  | Sysno.Fdatasync -> [ Fdatasync 3 ]
  | Sysno.Timerfd_settime ->
    [ Timerfd_settime (3, { interval_ns = 5; value_ns = 7 }) ]
  | Sysno.Msync -> [ Msync { addr = 0x1000L; len = 7 } ]
  | Sysno.Flock ->
    [ Flock (3, Lock_sh); Flock (3, Lock_ex); Flock (3, Lock_un) ]
  | Sysno.Chmod -> [ Chmod ("/a", 0o644) ]
  | Sysno.Fchmod -> [ Fchmod (3, 0o600) ]
  | Sysno.Chown -> [ Chown ("/a", 5, 7) ]
  | Sysno.Utimensat -> [ Utimensat "/a" ]
  | Sysno.Write -> [ Write (3, "hi") ]
  | Sysno.Writev -> [ Writev (3, [ "a"; "bc" ]) ]
  | Sysno.Pwrite64 -> [ Pwrite64 (3, "hi", 11) ]
  | Sysno.Pwritev -> [ Pwritev (3, [ "a"; "bc" ], 11) ]
  | Sysno.Epoll_wait ->
    [ Epoll_wait { epfd = 3; max_events = 7; timeout_ns = Some 11 } ]
  | Sysno.Recvfrom -> [ Recvfrom (3, 7) ]
  | Sysno.Recvmsg -> [ Recvmsg (3, 7) ]
  | Sysno.Recvmmsg -> [ Recvmmsg (3, 5, 7) ]
  | Sysno.Getsockname -> [ Getsockname 3 ]
  | Sysno.Getpeername -> [ Getpeername 3 ]
  | Sysno.Getsockopt -> [ Getsockopt (3, 7) ]
  | Sysno.Sendto -> [ Sendto (3, "hi") ]
  | Sysno.Sendmsg -> [ Sendmsg (3, "hi") ]
  | Sysno.Sendmmsg -> [ Sendmmsg (3, [ "a"; "bc" ]) ]
  | Sysno.Sendfile -> [ Sendfile { out_fd = 3; in_fd = 4; count = 7 } ]
  | Sysno.Epoll_ctl ->
    List.map
      (fun op ->
        Epoll_ctl
          {
            epfd = 3;
            op;
            fd = 4;
            events = { ev_out with pollhup = true };
            user_data = 0x2000L;
          })
      [ Epoll_add; Epoll_mod; Epoll_del ]
  | Sysno.Setsockopt -> [ Setsockopt (3, 5, 7) ]
  | Sysno.Shutdown ->
    [ Shutdown (3, Shut_rd); Shutdown (3, Shut_wr); Shutdown (3, Shut_rdwr) ]
  | Sysno.Open ->
    [
      Open ("/a", o_rdonly);
      Open
        ( "/a",
          {
            read = false;
            write = true;
            create = true;
            trunc = false;
            append = true;
            nonblock = true;
          } );
    ]
  | Sysno.Openat -> [ Openat ("/a", o_rdwr) ]
  | Sysno.Creat -> [ Creat "/a" ]
  | Sysno.Close -> [ Close 3 ]
  | Sysno.Dup -> [ Dup 3 ]
  | Sysno.Dup2 -> [ Dup2 (3, 4) ]
  | Sysno.Dup3 -> [ Dup3 (3, 4) ]
  | Sysno.Pipe2 -> [ Pipe2 { nonblock = true } ]
  | Sysno.Eventfd -> [ Eventfd 7 ]
  | Sysno.Pipe -> [ Pipe ]
  | Sysno.Socket ->
    [ Socket (Af_inet, Sock_stream); Socket (Af_unix, Sock_dgram) ]
  | Sysno.Socketpair -> [ Socketpair (Af_unix, Sock_stream) ]
  | Sysno.Bind -> [ Bind (3, 8080) ]
  | Sysno.Listen -> [ Listen (3, 7) ]
  | Sysno.Accept -> [ Accept 3 ]
  | Sysno.Accept4 -> [ Accept4 { fd = 3; nonblock = true } ]
  | Sysno.Connect -> [ Connect (3, 8080) ]
  | Sysno.Epoll_create -> [ Epoll_create ]
  | Sysno.Timerfd_create -> [ Timerfd_create ]
  | Sysno.Unlink -> [ Unlink "/a" ]
  | Sysno.Rename -> [ Rename ("/a", "/b") ]
  | Sysno.Mkdir -> [ Mkdir "/a" ]
  | Sysno.Rmdir -> [ Rmdir "/a" ]
  | Sysno.Truncate -> [ Truncate ("/a", 7) ]
  | Sysno.Ftruncate -> [ Ftruncate (3, 7) ]
  | Sysno.Mkdirat -> [ Mkdirat "/a" ]
  | Sysno.Unlinkat -> [ Unlinkat "/a" ]
  | Sysno.Renameat -> [ Renameat ("/a", "/b") ]
  | Sysno.Link -> [ Link ("/a", "/b") ]
  | Sysno.Linkat -> [ Linkat ("/a", "/b") ]
  | Sysno.Symlink -> [ Symlink ("/a", "/b") ]
  | Sysno.Symlinkat -> [ Symlinkat ("/a", "/b") ]
  | Sysno.Umask -> [ Umask 0o22 ]
  | Sysno.Mmap ->
    List.map
      (fun (prot, kind) -> Mmap { len = 4096; prot; kind })
      [
        ({ pr = true; pw = false; px = true }, Map_anon);
        ({ pr = false; pw = true; px = false }, Map_shared_anon);
        ({ pr = true; pw = true; px = false }, Map_file 3);
      ]
  | Sysno.Munmap -> [ Munmap { addr = 0x1000L; len = 7 } ]
  | Sysno.Mprotect ->
    [
      Mprotect
        {
          addr = 0x1000L;
          len = 7;
          prot = { pr = true; pw = false; px = true };
        };
    ]
  | Sysno.Mremap -> [ Mremap { addr = 0x1000L; old_len = 5; new_len = 7 } ]
  | Sysno.Brk -> [ Brk 4096 ]
  | Sysno.Mlock -> [ Mlock { addr = 0x1000L; len = 7 } ]
  | Sysno.Munlock -> [ Munlock { addr = 0x1000L; len = 7 } ]
  | Sysno.Clone -> [ Clone 2 ]
  | Sysno.Fork -> [ Fork ]
  | Sysno.Execve -> [ Execve "/a" ]
  | Sysno.Exit -> [ Exit 3 ]
  | Sysno.Exit_group -> [ Exit_group 4 ]
  | Sysno.Wait4 -> [ Wait4 (-1) ]
  | Sysno.Kill -> [ Kill (5, 9) ]
  | Sysno.Tgkill -> [ Tgkill (5, 6, 9) ]
  | Sysno.Setrlimit -> [ Setrlimit (5, 7) ]
  | Sysno.Prlimit64 -> [ Prlimit64 (5, 7) ]
  | Sysno.Sched_setaffinity -> [ Sched_setaffinity 3 ]
  | Sysno.Setsid -> [ Setsid ]
  | Sysno.Rt_sigaction ->
    [
      Rt_sigaction (13, Sig_default);
      Rt_sigaction (13, Sig_ignore);
      Rt_sigaction (13, Sig_handler 7);
    ]
  | Sysno.Rt_sigprocmask ->
    [
      Rt_sigprocmask (Sig_block, [ 13; 14 ]);
      Rt_sigprocmask (Sig_unblock, [ 13 ]);
      Rt_sigprocmask (Sig_setmask, []);
    ]
  | Sysno.Rt_sigreturn -> [ Rt_sigreturn ]
  | Sysno.Sigaltstack -> [ Sigaltstack ]
  | Sysno.Pause -> [ Pause ]
  | Sysno.Shmget -> [ Shmget { key = 5; size = 4096; create = true } ]
  | Sysno.Shmat -> [ Shmat { shmid = 5; readonly = true } ]
  | Sysno.Shmdt -> [ Shmdt { addr = 0x1000L } ]
  | Sysno.Shmctl -> [ Shmctl { shmid = 5; rmid = true } ]
  | Sysno.Ipmon_register ->
    [
      Ipmon_register
        {
          calls = [ Sysno.Read; Sysno.Write ];
          rb_addr = 0x1000L;
          entry_addr = 0x2000L;
        };
    ]

let result_name = function
  | Ok_unit -> "ok_unit"
  | Ok_int _ -> "ok_int"
  | Ok_int64 _ -> "ok_int64"
  | Ok_data _ -> "ok_data"
  | Ok_str _ -> "ok_str"
  | Ok_stat _ -> "ok_stat"
  | Ok_pair _ -> "ok_pair"
  | Ok_poll _ -> "ok_poll"
  | Ok_epoll _ -> "ok_epoll"
  | Ok_accept _ -> "ok_accept"
  | Ok_dents _ -> "ok_dents"
  | Ok_itimer _ -> "ok_itimer"
  | Error e -> "error " ^ Errno.to_string e

let stat st_kind =
  Ok_stat { st_ino = 5; st_size = 7; st_kind; st_mtime_ns = 11 }

let errnos =
  Errno.
    [
      EPERM; ENOENT; ESRCH; EINTR; EIO; EBADF; EAGAIN; ENOMEM; EACCES; EFAULT;
      EBUSY; EEXIST; ENOTDIR; EISDIR; EINVAL; ENFILE; EMFILE; ENOSPC; ESPIPE;
      EPIPE; ERANGE; ENOSYS; ENOTEMPTY; ELOOP; ENOTSOCK; EDESTADDRREQ;
      EMSGSIZE; EPROTONOSUPPORT; EOPNOTSUPP; EADDRINUSE; EADDRNOTAVAIL;
      ENETUNREACH; ECONNABORTED; ECONNRESET; ENOBUFS; EISCONN; ENOTCONN;
      ETIMEDOUT; ECONNREFUSED; EALREADY; EINPROGRESS; ECHILD; EDEADLK;
      ENAMETOOLONG; EIDRM; ETIME; EREMOTEIO; EKEYREJECTED; EFBIG; ENOTTY;
    ]

let results =
  [
    Ok_unit;
    Ok_int (-7);
    Ok_int64 0x1_0000_0000L;
    Ok_data "data";
    Ok_str "str";
    stat `Reg;
    stat `Dir;
    stat `Fifo;
    stat `Sock;
    stat `Special;
    Ok_pair (3, 4);
    Ok_poll [ (3, ev_in); (4, { ev_out with pollerr = true }) ];
    Ok_epoll [ (0x1000L, ev_in); (0x2000L, { ev_none with pollhup = true }) ];
    Ok_accept { conn_fd = 5; peer_port = 8080 };
    Ok_dents [ "a"; "bc" ];
    Ok_itimer { interval_ns = 5; value_ns = 7 };
  ]
  @ List.map (fun e -> Error e) errnos

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let encode write v =
  let w = Syswire.W.create () in
  write w v;
  Syswire.W.contents w

let failures = ref 0

(* Encodes [v], checks that the bytes decode back to [v] with nothing
   left over, and prints the row. *)
let row ~name ~write ~read v =
  let bytes = encode write v in
  let r = Syswire.R.of_string bytes in
  let back =
    match read r with
    | v' when v' = v && Syswire.R.remaining r = 0 -> ""
    | _ -> "  MISMATCH"
    | exception Syswire.Fail e ->
      "  DECODE FAILED: " ^ Syswire.error_to_string e
  in
  if back <> "" then incr failures;
  Printf.printf "%-30s %s%s\n" name (hex bytes) back

(* A tag past the end of its table must be refused as corrupt. *)
let rejected ~name ~read bytes =
  match read (Syswire.R.of_string bytes) with
  | _ ->
    incr failures;
    Printf.printf "%-30s %s  ACCEPTED\n" name (hex bytes)
  | exception Syswire.Fail (Syswire.Corrupt msg) ->
    Printf.printf "%-30s %s  rejected: %s\n" name (hex bytes) msg
  | exception Syswire.Fail Syswire.Truncated ->
    incr failures;
    Printf.printf "%-30s %s  TRUNCATED\n" name (hex bytes)

let () =
  List.iter
    (fun no ->
      let calls = calls_of no in
      List.iteri
        (fun i c ->
          if Syscall.number c <> no then begin
            incr failures;
            Printf.printf "%s: sample is a %s\n" (Sysno.to_string no)
              (Syscall.to_string c)
          end;
          let name =
            if i = 0 then Sysno.to_string no
            else Printf.sprintf "%s/%d" (Sysno.to_string no) i
          in
          row ~name:("call " ^ name) ~write:Syswire.write_call
            ~read:Syswire.read_call c)
        calls)
    (List.sort Sysno.compare Sysno.all);
  List.iter
    (fun r ->
      row ~name:("result " ^ result_name r) ~write:Syswire.write_result
        ~read:Syswire.read_result r)
    results;
  let ncalls = List.length Sysno.all in
  rejected ~name:(Printf.sprintf "call tag %d" ncalls) ~read:Syswire.read_call
    (encode Syswire.W.uint ncalls);
  (* a result's tag is its first byte, an errno's the byte after [Error]'s *)
  let tags =
    List.sort_uniq compare
      (List.map (fun r -> (encode Syswire.write_result r).[0]) results)
  in
  let nresults = List.length tags in
  rejected ~name:(Printf.sprintf "result tag %d" nresults)
    ~read:Syswire.read_result
    (String.make 1 (Char.chr nresults));
  let error_tag = (encode Syswire.write_result (Error Errno.EPERM)).[0] in
  let nerrnos = List.length errnos in
  rejected ~name:(Printf.sprintf "errno tag %d" nerrnos)
    ~read:Syswire.read_result
    (String.make 1 error_tag ^ encode Syswire.W.uint nerrnos);
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
