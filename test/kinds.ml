(* The fixture of the kernel-answer tests (test_answers, test_totality): a
   fresh process in a fresh kernel, and one fresh descriptor of every
   kind, made by the calls a program would use. *)

open Remon_kernel

let sys = Sched.syscall

(* Spawns [body] as a process of [k] that ignores SIGPIPE and SIGALRM, so
   a write to a closed pipe or socket, and a timer, answer, not kill. *)
let spawn k body =
  Kernel.spawn_process k ~name:"answers" ~vm_seed:1 (fun () ->
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigpipe, Syscall.Sig_ignore)));
      ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigalrm, Syscall.Sig_ignore)));
      body ())

(* Runs [body] as the only process of a fresh kernel; [None] when it was
   still parked once nothing else could run. *)
let run body =
  let k = Kernel.create () in
  let out = ref None in
  ignore (spawn k (fun () -> out := Some (body ())));
  Kernel.run k;
  !out

let fd_of = function
  | Syscall.Ok_int fd -> fd
  | r -> failwith (Format.asprintf "setup: %a" Syscall.pp_result r)

let pair_of = function
  | Syscall.Ok_pair (a, b) -> (a, b)
  | r -> failwith (Format.asprintf "setup: %a" Syscall.pp_result r)

let listen_port = 7400

let tcp_socket () = fd_of (sys (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))

(* Each kind's fresh descriptor. *)
let kinds =
  [
    ( "file",
      fun () ->
        let fd =
          fd_of
            (sys (Syscall.Open ("/tmp/answers", { Syscall.o_rdwr with create = true })))
        in
        ignore (sys (Syscall.Write (fd, "hello, world\n")));
        ignore (sys (Syscall.Lseek (fd, 0, Syscall.Seek_set)));
        fd );
    ( "dir",
      fun () ->
        ignore (sys (Syscall.Mkdir "/tmp/answers.d"));
        fd_of (sys (Syscall.Open ("/tmp/answers.d", Syscall.o_rdonly))) );
    ("null", fun () -> fd_of (sys (Syscall.Open ("/dev/null", Syscall.o_rdwr))));
    ( "maps",
      fun () ->
        (* a process maps something before it can read its maps *)
        ignore
          (sys
             (Syscall.Mmap
                { len = 4096; prot = { Syscall.pr = true; pw = true; px = false };
                  kind = Syscall.Map_anon }));
        fd_of (sys (Syscall.Open ("/proc/self/maps", Syscall.o_rdonly))) );
    ("pipe-r", fun () -> fst (pair_of (sys Syscall.Pipe)));
    ("pipe-w", fun () -> snd (pair_of (sys Syscall.Pipe)));
    ( "socketpair",
      fun () ->
        fst (pair_of (sys (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream))))
    );
    ("socket", tcp_socket);
    ( "listener",
      fun () ->
        let fd = tcp_socket () in
        ignore (sys (Syscall.Bind (fd, listen_port)));
        ignore (sys (Syscall.Listen (fd, 8)));
        fd );
    ("epoll", fun () -> fd_of (sys Syscall.Epoll_create));
    ("timerfd", fun () -> fd_of (sys Syscall.Timerfd_create));
    ("eventfd", fun () -> fd_of (sys (Syscall.Eventfd 0)));
  ]
