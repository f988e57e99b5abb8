(* The kernel's answer matrix: every descriptor kind against the calls that
   read, write, seek, stat, lock, poll or treat it as a socket, then a
   sequence over the process's real-time timer and a timerfd.

   Each row opens a fresh descriptor of its kind in a fresh kernel, makes
   one call and prints [kind call -> answer]; a call still parked when the
   run ends prints [parked]. dune compares stdout with
   test_answers.expected, so a change of any answer shows as a diff there.
   scripts/linux_answers.sh prints the same rows from the host kernel. *)

open Remon_kernel
open Remon_sim
open Kinds

let stat_kind = function
  | `Reg -> "reg"
  | `Dir -> "dir"
  | `Fifo -> "fifo"
  | `Sock -> "sock"
  | `Special -> "special"

(* Counts for data, the number for an int, the errno's name for an error. *)
let answer = function
  | Syscall.Ok_unit -> "0"
  | Syscall.Ok_int n -> string_of_int n
  | Syscall.Ok_int64 n -> Int64.to_string n
  | Syscall.Ok_data s -> string_of_int (String.length s)
  | Syscall.Ok_stat s -> stat_kind s.Syscall.st_kind
  | Syscall.Ok_dents _ -> "ok"
  | Syscall.Ok_accept _ -> "accepted"
  | Syscall.Error e -> Errno.to_string e
  | r -> Format.asprintf "%a" Syscall.pp_result r

(* Eight bytes that an eventfd takes as the u64 1. *)
let eight = "\001\000\000\000\000\000\000\000"

let calls =
  let epoll_add fd =
    let ep = fd_of (sys Syscall.Epoll_create) in
    Syscall.Epoll_ctl
      { epfd = ep; op = Syscall.Epoll_add; fd; events = Syscall.ev_in; user_data = 0L }
  in
  [
    ("read 0", fun fd -> Syscall.Read (fd, 0));
    ("read 8", fun fd -> Syscall.Read (fd, 8));
    ("readv 0", fun fd -> Syscall.Readv (fd, [ 0 ]));
    ("readv 8", fun fd -> Syscall.Readv (fd, [ 8 ]));
    ("pread64 0", fun fd -> Syscall.Pread64 (fd, 0, 0));
    ("pread64 8", fun fd -> Syscall.Pread64 (fd, 8, 0));
    ("recvfrom 0", fun fd -> Syscall.Recvfrom (fd, 0));
    ("recvfrom 8", fun fd -> Syscall.Recvfrom (fd, 8));
    ("write 0", fun fd -> Syscall.Write (fd, ""));
    ("write 8", fun fd -> Syscall.Write (fd, eight));
    ("pwrite64 0", fun fd -> Syscall.Pwrite64 (fd, "", 0));
    ("pwrite64 8", fun fd -> Syscall.Pwrite64 (fd, eight, 0));
    ("sendto 0", fun fd -> Syscall.Sendto (fd, ""));
    ("sendto 8", fun fd -> Syscall.Sendto (fd, eight));
    ("lseek", fun fd -> Syscall.Lseek (fd, 0, Syscall.Seek_cur));
    ("fstat", fun fd -> Syscall.Fstat fd);
    ("fionread", fun fd -> Syscall.Ioctl (fd, Syscall.Fionread));
    ("flock", fun fd -> Syscall.Flock (fd, Syscall.Lock_ex));
    ("epoll_ctl", epoll_add);
    ("getdents64", fun fd -> Syscall.Getdents64 fd);
    ("ftruncate", fun fd -> Syscall.Ftruncate (fd, 0));
    ("shutdown", fun fd -> Syscall.Shutdown (fd, Syscall.Shut_rdwr));
    ("getsockname", fun fd -> Syscall.Getsockname fd);
    ("getpeername", fun fd -> Syscall.Getpeername fd);
    ("accept", fun fd -> Syscall.Accept fd);
  ]

(* Seconds with millisecond precision, as [value/interval]. *)
let secs ns = Printf.sprintf "%d.%03d" (ns / 1_000_000_000) (ns / 1_000_000 mod 1000)

let itimer = function
  | Syscall.Ok_itimer { value_ns; interval_ns } ->
    let ms ns = (ns + 500_000) / 1_000_000 * 1_000_000 in
    secs (ms value_ns) ^ "/" ^ secs (ms interval_ns)
  | r -> answer r

(* The timer rows run in one process, in this order: each arming replaces
   the one before, as on Linux. No timer signals: SIGALRM is ignored. *)
let timer_rows () =
  let print label r = Printf.printf "timer %s -> %s\n" label r in
  let spec value_ns interval_ns = { Syscall.value_ns; interval_ns } in
  let sleep ns = ignore (sys (Syscall.Nanosleep ns)) in
  let s = Vtime.s and ms = Vtime.ms in
  ignore (sys (Syscall.Setitimer (spec (s 5) 0)));
  print "alarm(10) after setitimer(5s)" (answer (sys (Syscall.Alarm 10)));
  print "getitimer" (itimer (sys Syscall.Getitimer));
  ignore (sys (Syscall.Setitimer (spec (s 5) (s 1))));
  sleep (s 2);
  print "getitimer 2s after setitimer(5s,1s)" (itimer (sys Syscall.Getitimer));
  print "alarm(0)" (answer (sys (Syscall.Alarm 0)));
  print "getitimer" (itimer (sys Syscall.Getitimer));
  ignore (sys (Syscall.Setitimer (spec 0 0)));
  let tfd = fd_of (sys Syscall.Timerfd_create) in
  ignore (sys (Syscall.Timerfd_settime (tfd, spec (s 5) (s 1))));
  sleep (s 2);
  print "timerfd_gettime 2s after settime(5s,1s)"
    (itimer (sys (Syscall.Timerfd_gettime tfd)));
  ignore (sys (Syscall.Timerfd_settime (tfd, spec (s 1) 0)));
  sleep (ms 1500);
  print "timerfd_gettime after a one-shot fired"
    (itimer (sys (Syscall.Timerfd_gettime tfd)));
  print "timerfd read after a one-shot fired" (answer (sys (Syscall.Read (tfd, 8))));
  ignore (sys (Syscall.Alarm 1));
  sleep (ms 800);
  print "alarm(0) with 0.2s left" (answer (sys (Syscall.Alarm 0)));
  ignore (sys (Syscall.Alarm 3));
  sleep (ms 600);
  print "alarm(0) with 2.4s left" (answer (sys (Syscall.Alarm 0)))

let () =
  List.iter
    (fun (kind, open_kind) ->
      List.iter
        (fun (name, call) ->
          let r = run (fun () -> answer (sys (call (open_kind ())))) in
          Printf.printf "%s %s -> %s\n" kind name
            (match r with Some a -> a | None -> "parked"))
        calls)
    kinds;
  match run timer_rows with Some () -> () | None -> print_endline "timer parked"
