(** Typed system-call requests and results.

    The simulator dispatches on these values, the MVEE monitors compare
    them for divergence (structural equality plays the role of GHUMVEE's
    deep argument comparison), and the replication buffer serializes them.
    Raw userspace pointers never appear except as opaque [int64] cookies
    (epoll user data, futex words) — exactly the fields the paper calls out
    as needing special treatment under diversification. *)

type fd = int

type open_flags = {
  read : bool;
  write : bool;
  create : bool;
  trunc : bool;
  append : bool;
  nonblock : bool;
}

val o_rdonly : open_flags
val o_rdwr : open_flags

type whence = Seek_set | Seek_cur | Seek_end

type prot = { pr : bool; pw : bool; px : bool }

type map_kind = Map_anon | Map_shared_anon | Map_file of fd

type futex_op =
  | Futex_wait of { addr : int64; expected : int; timeout_ns : int option }
  | Futex_wake of { addr : int64; count : int }

type fcntl_op = F_getfl | F_setfl of { nonblock : bool } | F_dupfd of int

type ioctl_op = Fionread | Fionbio of bool | Tiocgwinsz

type poll_events = { pollin : bool; pollout : bool; pollhup : bool; pollerr : bool }

val ev_none : poll_events
val ev_in : poll_events
val ev_out : poll_events

type epoll_op = Epoll_add | Epoll_mod | Epoll_del

type flock_op = Lock_sh | Lock_ex | Lock_un

type sock_domain = Af_inet | Af_unix

type sock_type = Sock_stream | Sock_dgram

type shutdown_how = Shut_rd | Shut_wr | Shut_rdwr

type sig_action = Sig_default | Sig_ignore | Sig_handler of int
(* [Sig_handler id]: logical handler identity; the actual closure lives in
   the program's handler table. Diversified replicas would have different
   handler addresses but the same logical id. *)

type sigmask_how = Sig_block | Sig_unblock | Sig_setmask

type stat_info = {
  st_ino : int;
  st_size : int;
  st_kind : [ `Reg | `Dir | `Fifo | `Sock | `Special ];
  st_mtime_ns : int;
}

type itimer_spec = { interval_ns : int; value_ns : int }

type call =
  (* identity / time queries *)
  | Gettimeofday
  | Clock_gettime of [ `Realtime | `Monotonic ]
  | Time
  | Getpid
  | Gettid
  | Getpgrp
  | Getppid
  | Getgid
  | Getegid
  | Getuid
  | Geteuid
  | Getcwd
  | Getpriority
  | Getrusage
  | Times
  | Capget
  | Getitimer
  | Sysinfo
  | Uname
  | Sched_yield
  | Nanosleep of int
  | Getpgid
  | Getsid
  | Getrlimit of int (* resource id *)
  | Sched_getaffinity
  | Clock_getres
  | Getrandom of int (* byte count; results must be replicated verbatim *)
  (* synchronization / fd control *)
  | Futex of futex_op
  | Ioctl of fd * ioctl_op
  | Fcntl of fd * fcntl_op
  (* filesystem queries *)
  | Access of string
  | Faccessat of string
  | Lseek of fd * int * whence
  | Stat of string
  | Lstat of string
  | Fstat of fd
  | Fstatat of string
  | Getdents of fd
  | Readlink of string
  | Readlinkat of string
  | Getxattr of string * string
  | Lgetxattr of string * string
  | Fgetxattr of fd * string
  | Alarm of int (* seconds; 0 cancels *)
  | Setitimer of itimer_spec
  | Timerfd_gettime of fd
  | Madvise of { addr : int64; len : int }
  | Fadvise64 of fd
  | Statfs of string
  | Fstatfs of fd
  | Getdents64 of fd
  | Readahead of fd
  | Mincore of { addr : int64; len : int }
  (* read family *)
  | Read of fd * int
  | Readv of fd * int list (* iovec lengths *)
  | Pread64 of fd * int * int (* fd, count, offset *)
  | Preadv of fd * int list * int
  | Select of { readfds : fd list; writefds : fd list; timeout_ns : int option }
  | Poll of { fds : (fd * poll_events) list; timeout_ns : int option }
  | Pselect6 of { readfds : fd list; writefds : fd list; timeout_ns : int option }
  | Ppoll of { fds : (fd * poll_events) list; timeout_ns : int option }
  (* sync family *)
  | Sync
  | Syncfs of fd
  | Fsync of fd
  | Fdatasync of fd
  | Timerfd_settime of fd * itimer_spec
  | Msync of { addr : int64; len : int }
  | Flock of fd * flock_op
  | Chmod of string * int
  | Fchmod of fd * int
  | Chown of string * int * int
  | Utimensat of string
  (* write family *)
  | Write of fd * string
  | Writev of fd * string list
  | Pwrite64 of fd * string * int
  | Pwritev of fd * string list * int
  (* socket read family *)
  | Epoll_wait of { epfd : fd; max_events : int; timeout_ns : int option }
  | Recvfrom of fd * int
  | Recvmsg of fd * int
  | Recvmmsg of fd * int * int (* fd, msgs, bytes each *)
  | Getsockname of fd
  | Getpeername of fd
  | Getsockopt of fd * int
  (* socket write family *)
  | Sendto of fd * string
  | Sendmsg of fd * string
  | Sendmmsg of fd * string list
  | Sendfile of { out_fd : fd; in_fd : fd; count : int }
  | Epoll_ctl of { epfd : fd; op : epoll_op; fd : fd; events : poll_events; user_data : int64 }
  | Setsockopt of fd * int * int
  | Shutdown of fd * shutdown_how
  (* fd lifecycle *)
  | Open of string * open_flags
  | Openat of string * open_flags
  | Creat of string
  | Close of fd
  | Dup of fd
  | Dup2 of fd * fd
  | Dup3 of fd * fd
  | Pipe
  | Pipe2 of { nonblock : bool }
  | Eventfd of int (* initial counter *)
  | Socket of sock_domain * sock_type
  | Socketpair of sock_domain * sock_type
  | Bind of fd * int (* port *)
  | Listen of fd * int (* backlog *)
  | Accept of fd
  | Accept4 of { fd : fd; nonblock : bool }
  | Connect of fd * int (* port on the simulated network *)
  | Epoll_create
  | Timerfd_create
  | Unlink of string
  | Rename of string * string
  | Mkdir of string
  | Rmdir of string
  | Truncate of string * int
  | Ftruncate of fd * int
  | Mkdirat of string
  | Unlinkat of string
  | Renameat of string * string
  | Link of string * string
  | Linkat of string * string
  | Symlink of string * string
  | Symlinkat of string * string
  | Umask of int
  (* memory management *)
  | Mmap of { len : int; prot : prot; kind : map_kind }
  | Munmap of { addr : int64; len : int }
  | Mprotect of { addr : int64; len : int; prot : prot }
  | Mremap of { addr : int64; old_len : int; new_len : int }
  | Brk of int
  | Mlock of { addr : int64; len : int }
  | Munlock of { addr : int64; len : int }
  (* process / thread lifecycle *)
  | Clone of int (* entry index into the program's thread table *)
  | Fork
  | Execve of string
  | Exit of int
  | Exit_group of int
  | Wait4 of int (* pid, -1 for any *)
  | Kill of int * int (* pid, signal *)
  | Tgkill of int * int * int (* pid, tid, signal *)
  | Setrlimit of int * int
  | Prlimit64 of int * int
  | Sched_setaffinity of int (* cpu mask *)
  | Setsid
  (* signal handling *)
  | Rt_sigaction of int * sig_action
  | Rt_sigprocmask of sigmask_how * int list
  | Rt_sigreturn
  | Sigaltstack
  | Pause
  (* System V shared memory *)
  | Shmget of { key : int; size : int; create : bool }
  | Shmat of { shmid : int; readonly : bool }
  | Shmdt of { addr : int64 }
  | Shmctl of { shmid : int; rmid : bool }
  (* ReMon registration (Section 3.5) *)
  | Ipmon_register of { calls : Sysno.t list; rb_addr : int64; entry_addr : int64 }

type accept_info = { conn_fd : fd; peer_port : int }

type result =
  | Ok_unit
  | Ok_int of int
  | Ok_int64 of int64
  | Ok_data of string (* read-like results carry the bytes *)
  | Ok_str of string (* getcwd, readlink, uname ... *)
  | Ok_stat of stat_info
  | Ok_pair of fd * fd (* pipe, socketpair *)
  | Ok_poll of (fd * poll_events) list
  | Ok_epoll of (int64 * poll_events) list (* (user_data, events) *)
  | Ok_accept of accept_info
  | Ok_dents of string list
  | Ok_itimer of itimer_spec
  | Error of Errno.t

val number : call -> Sysno.t
(** The symbolic syscall number of a request. *)

val arg_bytes : call -> int
(** Maximum bytes the call's arguments (and reserved result buffers) occupy
    in the replication buffer — IP-MON's CALCSIZE step. *)

val result_bytes : result -> int
(** Bytes a result occupies in the replication buffer (REPLICATEBUFFER). *)

val equal_call : call -> call -> bool
(** Structural deep equality: the simulated analogue of GHUMVEE's
    CHECKREG/CHECKPOINTER/CHECKBUFFER comparison. *)

val equal_result : result -> result -> bool
val pp_call : Format.formatter -> call -> unit
val pp_result : Format.formatter -> result -> unit
val to_string : call -> string
