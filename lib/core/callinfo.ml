(* Per-call metadata shared by IK-B, IP-MON and GHUMVEE: which fd a call
   operates on, whether both monitors must treat it as potentially blocking,
   and how the MVEE should execute it. *)

open Remon_kernel

(* The primary file descriptor a call operates on, if any. *)
let fd_of (call : Syscall.call) : int option =
  match call with
  | Syscall.Read (fd, _)
  | Syscall.Readv (fd, _)
  | Syscall.Pread64 (fd, _, _)
  | Syscall.Preadv (fd, _, _)
  | Syscall.Write (fd, _)
  | Syscall.Writev (fd, _)
  | Syscall.Pwrite64 (fd, _, _)
  | Syscall.Pwritev (fd, _, _)
  | Syscall.Recvfrom (fd, _)
  | Syscall.Recvmsg (fd, _)
  | Syscall.Recvmmsg (fd, _, _)
  | Syscall.Sendto (fd, _)
  | Syscall.Sendmsg (fd, _)
  | Syscall.Sendmmsg (fd, _)
  | Syscall.Getsockname fd
  | Syscall.Getpeername fd
  | Syscall.Getsockopt (fd, _)
  | Syscall.Setsockopt (fd, _, _)
  | Syscall.Shutdown (fd, _)
  | Syscall.Fstat fd
  | Syscall.Getdents fd
  | Syscall.Fgetxattr (fd, _)
  | Syscall.Lseek (fd, _, _)
  | Syscall.Ioctl (fd, _)
  | Syscall.Fcntl (fd, _)
  | Syscall.Syncfs fd
  | Syscall.Fsync fd
  | Syscall.Fdatasync fd
  | Syscall.Fadvise64 fd
  | Syscall.Timerfd_gettime fd
  | Syscall.Timerfd_settime (fd, _)
  | Syscall.Close fd
  | Syscall.Dup fd
  | Syscall.Accept fd
  | Syscall.Accept4 { fd; _ }
  | Syscall.Connect (fd, _)
  | Syscall.Bind (fd, _)
  | Syscall.Listen (fd, _)
  | Syscall.Ftruncate (fd, _) ->
    Some fd
  | Syscall.Fstatfs fd
  | Syscall.Getdents64 fd
  | Syscall.Readahead fd
  | Syscall.Fchmod (fd, _)
  | Syscall.Flock (fd, _) ->
    Some fd
  | Syscall.Dup3 (fd, _) -> Some fd
  | Syscall.Epoll_wait { epfd; _ } -> Some epfd
  | Syscall.Epoll_ctl { epfd; _ } -> Some epfd
  | Syscall.Sendfile { out_fd; _ } -> Some out_fd
  | Syscall.Dup2 (fd, _) -> Some fd
  | _ -> None

(* Blocking prediction from the file map (Listing 1's MAYBE_BLOCKING):
   read-family calls on blocking descriptors, waits, and sleeps. *)
let may_block (fm : File_map.t) (call : Syscall.call) =
  match call with
  | Syscall.Read (fd, _) | Syscall.Readv (fd, _) | Syscall.Recvfrom (fd, _)
  | Syscall.Recvmsg (fd, _) | Syscall.Recvmmsg (fd, _, _) ->
    File_map.may_block fm ~fd
  | Syscall.Write (fd, _) | Syscall.Writev (fd, _) ->
    File_map.may_block fm ~fd
  | Syscall.Select { timeout_ns; _ } | Syscall.Poll { timeout_ns; _ }
  | Syscall.Pselect6 { timeout_ns; _ } | Syscall.Ppoll { timeout_ns; _ } ->
    timeout_ns <> Some 0
  | Syscall.Epoll_wait { timeout_ns; _ } -> timeout_ns <> Some 0
  | Syscall.Nanosleep _ | Syscall.Pause -> true
  | Syscall.Futex (Syscall.Futex_wait _) -> true
  | _ -> false

(* How the monitors execute a call across replicas. *)
type disposition =
  | Master_call (* master executes; slaves get replicated results *)
  | All_call (* every replica executes its own instance (local state) *)

let disposition (call : Syscall.call) =
  match call with
  (* process-local state every replica must maintain itself *)
  | Syscall.Futex _ | Syscall.Mmap _ | Syscall.Munmap _ | Syscall.Mprotect _
  | Syscall.Mremap _ | Syscall.Brk _ | Syscall.Clone _ | Syscall.Exit _
  | Syscall.Exit_group _ | Syscall.Rt_sigaction _ | Syscall.Rt_sigprocmask _
  | Syscall.Rt_sigreturn | Syscall.Sigaltstack | Syscall.Madvise _
  | Syscall.Shmat _ | Syscall.Shmdt _ | Syscall.Ipmon_register _
  | Syscall.Fcntl (_, Syscall.F_setfl _)
  | Syscall.Ioctl (_, Syscall.Fionbio _)
  | Syscall.Msync _ | Syscall.Mincore _ | Syscall.Mlock _ | Syscall.Munlock _
  | Syscall.Setrlimit _ | Syscall.Prlimit64 _ | Syscall.Sched_setaffinity _
  | Syscall.Umask _ ->
    All_call
  | _ -> Master_call

(* Replica-visible fd results that require installing a stub descriptor in
   slave fd tables so numbering stays aligned. Returns the new fds. *)
let fds_created (call : Syscall.call) (result : Syscall.result) : int list =
  match (call, result) with
  | (Syscall.Open _ | Syscall.Openat _ | Syscall.Creat _ | Syscall.Dup _
    | Syscall.Socket _ | Syscall.Epoll_create | Syscall.Timerfd_create
    | Syscall.Eventfd _
    | Syscall.Fcntl (_, Syscall.F_dupfd _)),
      Syscall.Ok_int fd
    when fd >= 0 ->
    [ fd ]
  | (Syscall.Dup2 (_, newfd) | Syscall.Dup3 (_, newfd)), Syscall.Ok_int fd
    when fd >= 0 ->
    [ newfd ]
  | (Syscall.Pipe | Syscall.Pipe2 _ | Syscall.Socketpair _), Syscall.Ok_pair (a, b)
    ->
    [ a; b ]
  | (Syscall.Accept _ | Syscall.Accept4 _), Syscall.Ok_accept { conn_fd; _ } ->
    [ conn_fd ]
  | _ -> []

(* Keeps a slave's fd numbering aligned with the master's: a stub
   descriptor at each fd the master's [call] created, none at one it
   closed. *)
let mirror_fds (slave : Proc.process) call result =
  List.iter
    (fun fd -> Fdtable.set slave.fds fd (Proc.make_desc (Proc.Replicated_handle fd)))
    (fds_created call result);
  match (call, result) with
  | Syscall.Close fd, Syscall.Ok_int _ -> Fdtable.remove slave.fds fd
  | _ -> ()

(* Calls that may create, close or retype a descriptor, or change its
   blocking mode: every call [mirror_fds] can act on, plus
   connect/listen and the fcntl/ioctl mode switches. *)
let changes_fds (call : Syscall.call) =
  match call with
  | Syscall.Open _ | Syscall.Openat _ | Syscall.Creat _ | Syscall.Close _
  | Syscall.Dup _ | Syscall.Dup2 _ | Syscall.Dup3 _ | Syscall.Pipe
  | Syscall.Pipe2 _ | Syscall.Eventfd _ | Syscall.Socket _
  | Syscall.Socketpair _ | Syscall.Accept _ | Syscall.Accept4 _
  | Syscall.Connect _ | Syscall.Listen _ | Syscall.Epoll_create
  | Syscall.Timerfd_create | Syscall.Fcntl _ | Syscall.Ioctl _ ->
    true
  | _ -> false

(* Normalizes a call for cross-replica comparison: fields that legitimately
   differ between diversified replicas (pointer-valued epoll user data) are
   blanked; everything else must match bit for bit. *)
let normalize (call : Syscall.call) : Syscall.call =
  match call with
  | Syscall.Epoll_ctl e -> Syscall.Epoll_ctl { e with user_data = 0L }
  | Syscall.Futex (Syscall.Futex_wait f) ->
    (* futex words live at diversified addresses *)
    Syscall.Futex (Syscall.Futex_wait { f with addr = 0L })
  | Syscall.Futex (Syscall.Futex_wake f) ->
    Syscall.Futex (Syscall.Futex_wake { f with addr = 0L })
  (* mapping addresses are replica-relative under ASLR: compare lengths and
     protections, not placements *)
  | Syscall.Mmap _ -> call
  | Syscall.Munmap m -> Syscall.Munmap { m with addr = 0L }
  | Syscall.Mprotect m -> Syscall.Mprotect { m with addr = 0L }
  | Syscall.Mremap m -> Syscall.Mremap { m with addr = 0L }
  | Syscall.Madvise m -> Syscall.Madvise { m with addr = 0L }
  | Syscall.Msync m -> Syscall.Msync { m with addr = 0L }
  | Syscall.Mincore m -> Syscall.Mincore { m with addr = 0L }
  | Syscall.Mlock m -> Syscall.Mlock { m with addr = 0L }
  | Syscall.Munlock m -> Syscall.Munlock { m with addr = 0L }
  | Syscall.Shmdt _ -> Syscall.Shmdt { addr = 0L }
  | Syscall.Ipmon_register r ->
    Syscall.Ipmon_register { r with rb_addr = 0L; entry_addr = 0L }
  | _ -> call

let equal_normalized a b =
  Syscall.equal_call (normalize a) (normalize b)
