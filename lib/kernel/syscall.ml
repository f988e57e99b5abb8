(* Typed system-call requests and results.

   The simulator dispatches on these values, the MVEE monitors compare them
   for divergence (structural equality plays the role of GHUMVEE's deep
   argument comparison), and the replication buffer serializes them. Raw
   userspace pointers never appear here except as opaque [int64] cookies
   (epoll user data, futex words), matching the cases the paper calls out as
   needing special treatment under diversification. *)

type fd = int

type open_flags = {
  read : bool;
  write : bool;
  create : bool;
  trunc : bool;
  append : bool;
  nonblock : bool;
}

let o_rdonly = { read = true; write = false; create = false; trunc = false; append = false; nonblock = false }
let o_rdwr = { read = true; write = true; create = false; trunc = false; append = false; nonblock = false }

type whence = Seek_set | Seek_cur | Seek_end

type prot = { pr : bool; pw : bool; px : bool }

type map_kind = Map_anon | Map_shared_anon | Map_file of fd

type futex_op =
  | Futex_wait of { addr : int64; expected : int; timeout_ns : int option }
  | Futex_wake of { addr : int64; count : int }

type fcntl_op = F_getfl | F_setfl of { nonblock : bool } | F_dupfd of int

type ioctl_op = Fionread | Fionbio of bool | Tiocgwinsz

type poll_events = { pollin : bool; pollout : bool; pollhup : bool; pollerr : bool }

let ev_none = { pollin = false; pollout = false; pollhup = false; pollerr = false }
let ev_in = { ev_none with pollin = true }
let ev_out = { ev_none with pollout = true }

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

(* ------------------------------------------------------------------ *)

let number : call -> Sysno.t = function
  | Gettimeofday -> Sysno.Gettimeofday
  | Clock_gettime _ -> Sysno.Clock_gettime
  | Time -> Sysno.Time
  | Getpid -> Sysno.Getpid
  | Gettid -> Sysno.Gettid
  | Getpgrp -> Sysno.Getpgrp
  | Getppid -> Sysno.Getppid
  | Getgid -> Sysno.Getgid
  | Getegid -> Sysno.Getegid
  | Getuid -> Sysno.Getuid
  | Geteuid -> Sysno.Geteuid
  | Getcwd -> Sysno.Getcwd
  | Getpriority -> Sysno.Getpriority
  | Getrusage -> Sysno.Getrusage
  | Times -> Sysno.Times
  | Capget -> Sysno.Capget
  | Getitimer -> Sysno.Getitimer
  | Sysinfo -> Sysno.Sysinfo
  | Uname -> Sysno.Uname
  | Sched_yield -> Sysno.Sched_yield
  | Nanosleep _ -> Sysno.Nanosleep
  | Getpgid -> Sysno.Getpgid
  | Getsid -> Sysno.Getsid
  | Getrlimit _ -> Sysno.Getrlimit
  | Sched_getaffinity -> Sysno.Sched_getaffinity
  | Clock_getres -> Sysno.Clock_getres
  | Getrandom _ -> Sysno.Getrandom
  | Futex _ -> Sysno.Futex
  | Ioctl _ -> Sysno.Ioctl
  | Fcntl _ -> Sysno.Fcntl
  | Access _ -> Sysno.Access
  | Faccessat _ -> Sysno.Faccessat
  | Lseek _ -> Sysno.Lseek
  | Stat _ -> Sysno.Stat
  | Lstat _ -> Sysno.Lstat
  | Fstat _ -> Sysno.Fstat
  | Fstatat _ -> Sysno.Fstatat
  | Getdents _ -> Sysno.Getdents
  | Readlink _ -> Sysno.Readlink
  | Readlinkat _ -> Sysno.Readlinkat
  | Getxattr _ -> Sysno.Getxattr
  | Lgetxattr _ -> Sysno.Lgetxattr
  | Fgetxattr _ -> Sysno.Fgetxattr
  | Alarm _ -> Sysno.Alarm
  | Setitimer _ -> Sysno.Setitimer
  | Timerfd_gettime _ -> Sysno.Timerfd_gettime
  | Madvise _ -> Sysno.Madvise
  | Fadvise64 _ -> Sysno.Fadvise64
  | Statfs _ -> Sysno.Statfs
  | Fstatfs _ -> Sysno.Fstatfs
  | Getdents64 _ -> Sysno.Getdents64
  | Readahead _ -> Sysno.Readahead
  | Mincore _ -> Sysno.Mincore
  | Read _ -> Sysno.Read
  | Readv _ -> Sysno.Readv
  | Pread64 _ -> Sysno.Pread64
  | Preadv _ -> Sysno.Preadv
  | Select _ -> Sysno.Select
  | Poll _ -> Sysno.Poll
  | Pselect6 _ -> Sysno.Pselect6
  | Ppoll _ -> Sysno.Ppoll
  | Sync -> Sysno.Sync
  | Syncfs _ -> Sysno.Syncfs
  | Fsync _ -> Sysno.Fsync
  | Fdatasync _ -> Sysno.Fdatasync
  | Timerfd_settime _ -> Sysno.Timerfd_settime
  | Msync _ -> Sysno.Msync
  | Flock _ -> Sysno.Flock
  | Chmod _ -> Sysno.Chmod
  | Fchmod _ -> Sysno.Fchmod
  | Chown _ -> Sysno.Chown
  | Utimensat _ -> Sysno.Utimensat
  | Write _ -> Sysno.Write
  | Writev _ -> Sysno.Writev
  | Pwrite64 _ -> Sysno.Pwrite64
  | Pwritev _ -> Sysno.Pwritev
  | Epoll_wait _ -> Sysno.Epoll_wait
  | Recvfrom _ -> Sysno.Recvfrom
  | Recvmsg _ -> Sysno.Recvmsg
  | Recvmmsg _ -> Sysno.Recvmmsg
  | Getsockname _ -> Sysno.Getsockname
  | Getpeername _ -> Sysno.Getpeername
  | Getsockopt _ -> Sysno.Getsockopt
  | Sendto _ -> Sysno.Sendto
  | Sendmsg _ -> Sysno.Sendmsg
  | Sendmmsg _ -> Sysno.Sendmmsg
  | Sendfile _ -> Sysno.Sendfile
  | Epoll_ctl _ -> Sysno.Epoll_ctl
  | Setsockopt _ -> Sysno.Setsockopt
  | Shutdown _ -> Sysno.Shutdown
  | Open _ -> Sysno.Open
  | Openat _ -> Sysno.Openat
  | Creat _ -> Sysno.Creat
  | Close _ -> Sysno.Close
  | Dup _ -> Sysno.Dup
  | Dup2 _ -> Sysno.Dup2
  | Dup3 _ -> Sysno.Dup3
  | Pipe2 _ -> Sysno.Pipe2
  | Eventfd _ -> Sysno.Eventfd
  | Pipe -> Sysno.Pipe
  | Socket _ -> Sysno.Socket
  | Socketpair _ -> Sysno.Socketpair
  | Bind _ -> Sysno.Bind
  | Listen _ -> Sysno.Listen
  | Accept _ -> Sysno.Accept
  | Accept4 _ -> Sysno.Accept4
  | Connect _ -> Sysno.Connect
  | Epoll_create -> Sysno.Epoll_create
  | Timerfd_create -> Sysno.Timerfd_create
  | Unlink _ -> Sysno.Unlink
  | Rename _ -> Sysno.Rename
  | Mkdir _ -> Sysno.Mkdir
  | Rmdir _ -> Sysno.Rmdir
  | Truncate _ -> Sysno.Truncate
  | Ftruncate _ -> Sysno.Ftruncate
  | Mkdirat _ -> Sysno.Mkdirat
  | Unlinkat _ -> Sysno.Unlinkat
  | Renameat _ -> Sysno.Renameat
  | Link _ -> Sysno.Link
  | Linkat _ -> Sysno.Linkat
  | Symlink _ -> Sysno.Symlink
  | Symlinkat _ -> Sysno.Symlinkat
  | Umask _ -> Sysno.Umask
  | Mmap _ -> Sysno.Mmap
  | Munmap _ -> Sysno.Munmap
  | Mprotect _ -> Sysno.Mprotect
  | Mremap _ -> Sysno.Mremap
  | Brk _ -> Sysno.Brk
  | Mlock _ -> Sysno.Mlock
  | Munlock _ -> Sysno.Munlock
  | Clone _ -> Sysno.Clone
  | Fork -> Sysno.Fork
  | Execve _ -> Sysno.Execve
  | Exit _ -> Sysno.Exit
  | Exit_group _ -> Sysno.Exit_group
  | Wait4 _ -> Sysno.Wait4
  | Kill _ -> Sysno.Kill
  | Tgkill _ -> Sysno.Tgkill
  | Setrlimit _ -> Sysno.Setrlimit
  | Prlimit64 _ -> Sysno.Prlimit64
  | Sched_setaffinity _ -> Sysno.Sched_setaffinity
  | Setsid -> Sysno.Setsid
  | Rt_sigaction _ -> Sysno.Rt_sigaction
  | Rt_sigprocmask _ -> Sysno.Rt_sigprocmask
  | Rt_sigreturn -> Sysno.Rt_sigreturn
  | Sigaltstack -> Sysno.Sigaltstack
  | Pause -> Sysno.Pause
  | Shmget _ -> Sysno.Shmget
  | Shmat _ -> Sysno.Shmat
  | Shmdt _ -> Sysno.Shmdt
  | Shmctl _ -> Sysno.Shmctl
  | Ipmon_register _ -> Sysno.Ipmon_register

(* Maximum number of bytes this call's arguments occupy in the replication
   buffer (IP-MON's CALCSIZE step): register arguments count 8 bytes each;
   in-memory buffers count their (maximum) length. *)
let arg_bytes call =
  let regs n = 8 * n in
  let strs ss = List.fold_left (fun acc s -> acc + String.length s) 0 ss in
  match call with
  | Gettimeofday | Time | Getpid | Gettid | Getpgrp | Getppid | Getgid
  | Getegid | Getuid | Geteuid | Getcwd | Getpriority | Getrusage | Times
  | Capget | Getitimer | Sysinfo | Uname | Sched_yield | Sync | Pipe
  | Epoll_create | Timerfd_create | Fork | Rt_sigreturn | Sigaltstack | Pause
  | Getpgid | Getsid | Sched_getaffinity | Clock_getres | Setsid | Pipe2 _ ->
    regs 1
  | Clock_gettime _
  | Nanosleep _ | Alarm _ | Brk _ | Close _ | Dup _ | Fstat _ | Getdents _
  | Syncfs _ | Fsync _ | Fdatasync _ | Fadvise64 _ | Timerfd_gettime _
  | Exit _ | Exit_group _ | Wait4 _ | Execve _ | Clone _ | Getrlimit _
  | Fstatfs _ | Getdents64 _ | Readahead _ | Umask _ | Eventfd _
  | Sched_setaffinity _ ->
    regs 2
  | Futex _ | Madvise _ | Lseek _ | Ioctl _ | Fcntl _ | Dup2 _ | Dup3 _
  | Kill _ | Mincore _ | Msync _ | Flock _ | Fchmod _ | Mlock _ | Munlock _
  | Setrlimit _ | Prlimit64 _
  | Setitimer _ | Timerfd_settime _ | Bind _ | Listen _ | Accept _
  | Accept4 _ | Connect _ | Shutdown _ | Socket _ | Socketpair _
  | Getsockname _ | Getpeername _ | Ftruncate _ | Munmap _ | Mremap _
  | Shmget _ | Shmat _ | Shmdt _ | Shmctl _ ->
    regs 3
  | Tgkill _ | Getsockopt _ | Setsockopt _ | Mmap _ | Mprotect _
  | Sendfile _ | Rt_sigaction _ ->
    regs 4
  | Rt_sigprocmask ((_ : sigmask_how), sigs) -> regs 2 + (8 * List.length sigs)
  | Access p | Faccessat p | Stat p | Lstat p | Fstatat p | Readlink p
  | Readlinkat p | Unlink p | Mkdir p | Rmdir p | Creat p | Statfs p
  | Utimensat p | Mkdirat p | Unlinkat p ->
    regs 2 + String.length p
  | Open (p, _) | Openat (p, _) -> regs 3 + String.length p
  | Truncate (p, _) -> regs 3 + String.length p
  | Rename (a, b) | Renameat (a, b) | Link (a, b) | Linkat (a, b)
  | Symlink (a, b) | Symlinkat (a, b) ->
    regs 2 + String.length a + String.length b
  | Chmod (p, _) -> regs 3 + String.length p
  | Chown (p, _, _) -> regs 4 + String.length p
  | Getrandom n -> regs 2 + n
  | Getxattr (p, a) | Lgetxattr (p, a) -> regs 2 + String.length p + String.length a
  | Fgetxattr (_, a) -> regs 2 + String.length a
  (* Read-like calls reserve space for the result buffer (CALCSIZE's
     COUNTBUFFER(RET, ...) in Listing 1). *)
  | Read (_, n) | Recvfrom (_, n) | Recvmsg (_, n) | Pread64 (_, n, _) ->
    regs 3 + n
  | Readv (_, lens) | Preadv (_, lens, _) ->
    regs 3 + List.fold_left ( + ) 0 lens
  | Recvmmsg (_, msgs, each) -> regs 3 + (msgs * each)
  | Select { readfds; writefds; _ } | Pselect6 { readfds; writefds; _ } ->
    regs 3 + (8 * (List.length readfds + List.length writefds))
  | Poll { fds; _ } | Ppoll { fds; _ } -> regs 2 + (16 * List.length fds)
  | Epoll_wait { max_events; _ } -> regs 3 + (16 * max_events)
  | Epoll_ctl _ -> regs 5
  | Write (_, s) | Sendto (_, s) | Sendmsg (_, s) -> regs 3 + String.length s
  | Pwrite64 (_, s, _) -> regs 4 + String.length s
  | Writev (_, ss) | Sendmmsg (_, ss) -> regs 3 + strs ss
  | Pwritev (_, ss, _) -> regs 4 + strs ss
  | Ipmon_register { calls; _ } -> regs 3 + List.length calls

(* Bytes a result occupies in the replication buffer (POSTCALL's
   REPLICATEBUFFER step). *)
let result_bytes = function
  | Ok_unit | Ok_int _ | Ok_int64 _ | Error _ -> 8
  | Ok_data s | Ok_str s -> 8 + String.length s
  | Ok_stat _ -> 8 + 32
  | Ok_pair _ -> 16
  | Ok_poll l -> 8 + (16 * List.length l)
  | Ok_epoll l -> 8 + (16 * List.length l)
  | Ok_accept _ -> 16
  | Ok_dents l -> List.fold_left (fun acc s -> acc + 8 + String.length s) 8 l
  | Ok_itimer _ -> 24

(* Structural deep equality: the simulated analogue of GHUMVEE's
   CHECKREG/CHECKPOINTER/CHECKBUFFER argument comparison. *)
let equal_call (a : call) (b : call) = a = b
let equal_result (a : result) (b : result) = a = b

let pp_call fmt c = Format.fprintf fmt "%s" (Sysno.to_string (number c))

let pp_result fmt = function
  | Ok_unit -> Format.fprintf fmt "ok"
  | Ok_int n -> Format.fprintf fmt "%d" n
  | Ok_int64 n -> Format.fprintf fmt "%Ld" n
  | Ok_data s -> Format.fprintf fmt "<%d bytes>" (String.length s)
  | Ok_str s -> Format.fprintf fmt "%S" s
  | Ok_stat st -> Format.fprintf fmt "stat(size=%d)" st.st_size
  | Ok_pair (a, b) -> Format.fprintf fmt "(%d, %d)" a b
  | Ok_poll l -> Format.fprintf fmt "poll(%d ready)" (List.length l)
  | Ok_epoll l -> Format.fprintf fmt "epoll(%d events)" (List.length l)
  | Ok_accept { conn_fd; peer_port } -> Format.fprintf fmt "accept(fd=%d, peer=%d)" conn_fd peer_port
  | Ok_dents l -> Format.fprintf fmt "dents(%d)" (List.length l)
  | Ok_itimer _ -> Format.fprintf fmt "itimer"
  | Error e -> Format.fprintf fmt "-%s" (Errno.to_string e)

let to_string c = Sysno.to_string (number c)
