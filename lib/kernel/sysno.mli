(** Symbolic system-call numbers: one constructor per supported call.

    The monitoring policy (Table 1) and all per-call statistics key off this
    type, so the compiler checks that every classification and handler
    table is exhaustive. The groupings in the definition mirror the policy
    levels they end up in. *)

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

val to_string : t -> string

val all : t list
(** Every supported call, in declaration order. *)

val compare : t -> t -> int

val index : t -> int
(** Dense 0-based constructor index (constant-constructor representation);
    keys per-syscall counter arrays. *)

val slots : int
(** Strict upper bound on {!index}; sizes index-keyed arrays. *)

type mask
(** A set of calls as one flag per {!index}: constant-time membership. *)

val mask_of_list : t list -> mask
val mask_mem : mask -> t -> bool
