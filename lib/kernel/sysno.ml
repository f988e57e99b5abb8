(* Symbolic system-call numbers.

   One constructor per supported call; the monitoring policy (Table 1 of the
   paper) and all per-call statistics key off this type rather than raw
   integers so the compiler checks exhaustiveness of the classification. *)

type t =
  (* -- process / identity / time queries: BASE_LEVEL unconditional -- *)
  | Gettimeofday
  | Clock_gettime
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
  | Nanosleep
  | Getpgid
  | Getsid
  | Getrlimit
  | Sched_getaffinity
  | Clock_getres
  | Getrandom
  (* -- BASE_LEVEL conditional -- *)
  | Futex
  | Ioctl
  | Fcntl
  (* -- NONSOCKET_RO_LEVEL unconditional -- *)
  | Access
  | Faccessat
  | Lseek
  | Stat
  | Lstat
  | Fstat
  | Fstatat
  | Getdents
  | Readlink
  | Readlinkat
  | Getxattr
  | Lgetxattr
  | Fgetxattr
  | Alarm
  | Setitimer
  | Timerfd_gettime
  | Madvise
  | Fadvise64
  | Statfs
  | Fstatfs
  | Getdents64
  | Readahead
  | Mincore
  (* -- read family: NONSOCKET_RO (non-socket fds) / SOCKET_RO (sockets) -- *)
  | Read
  | Readv
  | Pread64
  | Preadv
  | Select
  | Poll
  | Pselect6
  | Ppoll
  (* -- NONSOCKET_RW_LEVEL unconditional -- *)
  | Sync
  | Syncfs
  | Fsync
  | Fdatasync
  | Timerfd_settime
  | Msync
  | Flock
  | Chmod
  | Fchmod
  | Chown
  | Utimensat
  (* -- write family: NONSOCKET_RW (non-socket fds) / SOCKET_RW (sockets) -- *)
  | Write
  | Writev
  | Pwrite64
  | Pwritev
  (* -- SOCKET_RO_LEVEL -- *)
  | Epoll_wait
  | Recvfrom
  | Recvmsg
  | Recvmmsg
  | Getsockname
  | Getpeername
  | Getsockopt
  (* -- SOCKET_RW_LEVEL -- *)
  | Sendto
  | Sendmsg
  | Sendmmsg
  | Sendfile
  | Epoll_ctl
  | Setsockopt
  | Shutdown
  (* -- always monitored: file-descriptor lifecycle -- *)
  | Open
  | Openat
  | Creat
  | Close
  | Dup
  | Dup2
  | Dup3
  | Pipe2
  | Eventfd
  | Pipe
  | Socket
  | Socketpair
  | Bind
  | Listen
  | Accept
  | Accept4
  | Connect
  | Epoll_create
  | Timerfd_create
  | Unlink
  | Rename
  | Mkdir
  | Rmdir
  | Truncate
  | Ftruncate
  | Mkdirat
  | Unlinkat
  | Renameat
  | Link
  | Linkat
  | Symlink
  | Symlinkat
  | Umask
  (* -- always monitored: memory management -- *)
  | Mmap
  | Munmap
  | Mprotect
  | Mremap
  | Brk
  | Mlock
  | Munlock
  (* -- always monitored: process / thread lifecycle -- *)
  | Clone
  | Fork
  | Execve
  | Exit
  | Exit_group
  | Wait4
  | Kill
  | Tgkill
  | Setrlimit
  | Prlimit64
  | Sched_setaffinity
  | Setsid
  (* -- always monitored: signal handling -- *)
  | Rt_sigaction
  | Rt_sigprocmask
  | Rt_sigreturn
  | Sigaltstack
  | Pause
  (* -- always monitored: System V shared memory -- *)
  | Shmget
  | Shmat
  | Shmdt
  | Shmctl
  (* -- ReMon's added registration call (Section 3.5) -- *)
  | Ipmon_register

let to_string = function
  | Gettimeofday -> "gettimeofday"
  | Clock_gettime -> "clock_gettime"
  | Time -> "time"
  | Getpid -> "getpid"
  | Gettid -> "gettid"
  | Getpgrp -> "getpgrp"
  | Getppid -> "getppid"
  | Getgid -> "getgid"
  | Getegid -> "getegid"
  | Getuid -> "getuid"
  | Geteuid -> "geteuid"
  | Getcwd -> "getcwd"
  | Getpriority -> "getpriority"
  | Getrusage -> "getrusage"
  | Times -> "times"
  | Capget -> "capget"
  | Getitimer -> "getitimer"
  | Sysinfo -> "sysinfo"
  | Uname -> "uname"
  | Sched_yield -> "sched_yield"
  | Nanosleep -> "nanosleep"
  | Futex -> "futex"
  | Ioctl -> "ioctl"
  | Fcntl -> "fcntl"
  | Access -> "access"
  | Faccessat -> "faccessat"
  | Lseek -> "lseek"
  | Stat -> "stat"
  | Lstat -> "lstat"
  | Fstat -> "fstat"
  | Fstatat -> "fstatat"
  | Getdents -> "getdents"
  | Readlink -> "readlink"
  | Readlinkat -> "readlinkat"
  | Getxattr -> "getxattr"
  | Lgetxattr -> "lgetxattr"
  | Fgetxattr -> "fgetxattr"
  | Alarm -> "alarm"
  | Setitimer -> "setitimer"
  | Timerfd_gettime -> "timerfd_gettime"
  | Madvise -> "madvise"
  | Fadvise64 -> "fadvise64"
  | Read -> "read"
  | Readv -> "readv"
  | Pread64 -> "pread64"
  | Preadv -> "preadv"
  | Select -> "select"
  | Poll -> "poll"
  | Sync -> "sync"
  | Syncfs -> "syncfs"
  | Fsync -> "fsync"
  | Fdatasync -> "fdatasync"
  | Timerfd_settime -> "timerfd_settime"
  | Write -> "write"
  | Writev -> "writev"
  | Pwrite64 -> "pwrite64"
  | Pwritev -> "pwritev"
  | Epoll_wait -> "epoll_wait"
  | Recvfrom -> "recvfrom"
  | Recvmsg -> "recvmsg"
  | Recvmmsg -> "recvmmsg"
  | Getsockname -> "getsockname"
  | Getpeername -> "getpeername"
  | Getsockopt -> "getsockopt"
  | Sendto -> "sendto"
  | Sendmsg -> "sendmsg"
  | Sendmmsg -> "sendmmsg"
  | Sendfile -> "sendfile"
  | Epoll_ctl -> "epoll_ctl"
  | Setsockopt -> "setsockopt"
  | Shutdown -> "shutdown"
  | Open -> "open"
  | Openat -> "openat"
  | Creat -> "creat"
  | Close -> "close"
  | Dup -> "dup"
  | Dup2 -> "dup2"
  | Pipe -> "pipe"
  | Socket -> "socket"
  | Socketpair -> "socketpair"
  | Bind -> "bind"
  | Listen -> "listen"
  | Accept -> "accept"
  | Accept4 -> "accept4"
  | Connect -> "connect"
  | Epoll_create -> "epoll_create"
  | Timerfd_create -> "timerfd_create"
  | Unlink -> "unlink"
  | Rename -> "rename"
  | Mkdir -> "mkdir"
  | Rmdir -> "rmdir"
  | Truncate -> "truncate"
  | Ftruncate -> "ftruncate"
  | Mmap -> "mmap"
  | Munmap -> "munmap"
  | Mprotect -> "mprotect"
  | Mremap -> "mremap"
  | Brk -> "brk"
  | Clone -> "clone"
  | Fork -> "fork"
  | Execve -> "execve"
  | Exit -> "exit"
  | Exit_group -> "exit_group"
  | Wait4 -> "wait4"
  | Kill -> "kill"
  | Tgkill -> "tgkill"
  | Rt_sigaction -> "rt_sigaction"
  | Rt_sigprocmask -> "rt_sigprocmask"
  | Rt_sigreturn -> "rt_sigreturn"
  | Sigaltstack -> "sigaltstack"
  | Pause -> "pause"
  | Shmget -> "shmget"
  | Shmat -> "shmat"
  | Shmdt -> "shmdt"
  | Shmctl -> "shmctl"
  | Ipmon_register -> "ipmon_register"
  | Getpgid -> "getpgid"
  | Getsid -> "getsid"
  | Getrlimit -> "getrlimit"
  | Sched_getaffinity -> "sched_getaffinity"
  | Clock_getres -> "clock_getres"
  | Getrandom -> "getrandom"
  | Statfs -> "statfs"
  | Fstatfs -> "fstatfs"
  | Getdents64 -> "getdents64"
  | Readahead -> "readahead"
  | Mincore -> "mincore"
  | Pselect6 -> "pselect6"
  | Ppoll -> "ppoll"
  | Msync -> "msync"
  | Flock -> "flock"
  | Chmod -> "chmod"
  | Fchmod -> "fchmod"
  | Chown -> "chown"
  | Utimensat -> "utimensat"
  | Dup3 -> "dup3"
  | Pipe2 -> "pipe2"
  | Eventfd -> "eventfd"
  | Mkdirat -> "mkdirat"
  | Unlinkat -> "unlinkat"
  | Renameat -> "renameat"
  | Link -> "link"
  | Linkat -> "linkat"
  | Symlink -> "symlink"
  | Symlinkat -> "symlinkat"
  | Umask -> "umask"
  | Mlock -> "mlock"
  | Munlock -> "munlock"
  | Setrlimit -> "setrlimit"
  | Prlimit64 -> "prlimit64"
  | Sched_setaffinity -> "sched_setaffinity"
  | Setsid -> "setsid"

let all =
  [
    Gettimeofday; Clock_gettime; Time; Getpid; Gettid; Getpgrp; Getppid;
    Getgid; Getegid; Getuid; Geteuid; Getcwd; Getpriority; Getrusage; Times;
    Capget; Getitimer; Sysinfo; Uname; Sched_yield; Nanosleep; Futex; Ioctl;
    Fcntl; Access; Faccessat; Lseek; Stat; Lstat; Fstat; Fstatat; Getdents;
    Readlink; Readlinkat; Getxattr; Lgetxattr; Fgetxattr; Alarm; Setitimer;
    Timerfd_gettime; Madvise; Fadvise64; Read; Readv; Pread64; Preadv; Select;
    Poll; Sync; Syncfs; Fsync; Fdatasync; Timerfd_settime; Write; Writev;
    Pwrite64; Pwritev; Epoll_wait; Recvfrom; Recvmsg; Recvmmsg; Getsockname;
    Getpeername; Getsockopt; Sendto; Sendmsg; Sendmmsg; Sendfile; Epoll_ctl;
    Setsockopt; Shutdown; Open; Openat; Creat; Close; Dup; Dup2; Pipe; Socket;
    Socketpair; Bind; Listen; Accept; Accept4; Connect; Epoll_create;
    Timerfd_create; Unlink; Rename; Mkdir; Rmdir; Truncate; Ftruncate; Mmap;
    Munmap; Mprotect; Mremap; Brk; Clone; Fork; Execve; Exit; Exit_group;
    Wait4; Kill; Tgkill; Rt_sigaction; Rt_sigprocmask; Rt_sigreturn;
    Sigaltstack; Pause; Shmget; Shmat; Shmdt; Shmctl; Ipmon_register;
    Getpgid; Getsid; Getrlimit; Sched_getaffinity; Clock_getres; Getrandom;
    Statfs; Fstatfs; Getdents64; Readahead; Mincore; Pselect6; Ppoll; Msync;
    Flock; Chmod; Fchmod; Chown; Utimensat; Dup3; Pipe2; Eventfd; Mkdirat;
    Unlinkat; Renameat; Link; Linkat; Symlink; Symlinkat; Umask; Mlock;
    Munlock; Setrlimit; Prlimit64; Sched_setaffinity; Setsid;
  ]

(* All constructors are constant, so values are small consecutive integers;
   [index] exposes that for dense per-syscall counter arrays. *)
external index : t -> int = "%identity"

(* The order of the constructors, as [Stdlib.compare] gives it, compared
   as ints rather than through the polymorphic C primitive. *)
let compare a b = Int.compare (index a) (index b)

let slots = 256 (* > number of constructors; sizes index-keyed arrays *)

(* One byte per [index]: membership is a load, with no tree walk and no
   polymorphic compare, for tests made on every syscall entry. *)
type mask = Bytes.t

let mask_of_list calls =
  let m = Bytes.make slots '\000' in
  List.iter (fun no -> Bytes.set m (index no) '\001') calls;
  m

let mask_mem m no = Bytes.unsafe_get m (index no) <> '\000'
