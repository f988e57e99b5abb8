(* Binary wire codec for syscall values (recordings, reproducer files).

   Varint-based (LEB128, zigzag for signed fields). Each [Syscall.call]
   constructor is tagged with its dense [Sysno.index], so the tag space is
   stable as long as the syscall table is append-only; results and errnos
   carry their own small tag spaces. Decoding is fully bounds-checked and
   total: malformed input raises [Fail] with a typed [error] — never an
   out-of-bounds read, an unbounded allocation, or an escaping generic
   exception. That is the deliberate contrast with [Marshal], which is
   none of those things on corrupted bytes. *)

type error = Truncated | Corrupt of string

let error_to_string = function
  | Truncated -> "truncated input"
  | Corrupt msg -> "corrupt input: " ^ msg

exception Fail of error

let fail e = raise (Fail e)
let corrupt msg = fail (Corrupt msg)

(* ------------------------------------------------------------------ *)
(* Writer *)

module W = struct
  (* A growable byte buffer of our own rather than a [Buffer.t], so the
     bytes written so far can be hashed in place ([digest]) and a full
     buffer handed over without a copy ([contents]). A writer made by
     [measure] stores nothing: it runs the same writers only to count the
     bytes, so the real pass can write into a buffer of exactly that size. *)
  type t = { mutable buf : Bytes.t; mutable len : int; store : bool }

  let create ?(initial = 256) () =
    { buf = Bytes.create (max 1 initial); len = 0; store = true }

  let measure write =
    let t = { buf = Bytes.empty; len = 0; store = false } in
    write t;
    t.len

  (* Makes room for [n] more bytes, doubling the buffer as [Buffer] does. *)
  let reserve t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let size = ref (2 * Bytes.length t.buf) in
      while !size < need do
        size := 2 * !size
      done;
      let grown = Bytes.create !size in
      Bytes.blit t.buf 0 grown 0 t.len;
      t.buf <- grown
    end

  let add_char t c =
    if t.store then begin
      if t.len = Bytes.length t.buf then reserve t 1;
      Bytes.unsafe_set t.buf t.len c
    end;
    t.len <- t.len + 1

  let u8 t n = add_char t (Char.chr (n land 0xff))

  (* LEB128 on a non-negative native int. *)
  let uint t n =
    if n < 0 then invalid_arg "Syswire.W.uint: negative";
    let n = ref n in
    while !n >= 0x80 do
      add_char t (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
      n := !n lsr 7
    done;
    add_char t (Char.unsafe_chr !n)

  (* Zigzag + LEB128 over the full 64-bit range. *)
  let i64 t v =
    let zz = ref (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)) in
    while Int64.logand !zz (Int64.lognot 0x7fL) <> 0L do
      add_char t (Char.unsafe_chr (0x80 lor (Int64.to_int !zz land 0x7f)));
      zz := Int64.shift_right_logical !zz 7
    done;
    add_char t (Char.unsafe_chr (Int64.to_int !zz))

  (* Below 2^61 in magnitude an int's zigzag is a non-negative int, so
     [uint] writes [i64]'s bytes without boxing an int64 per byte. *)
  let int t n =
    if n >= -0x2000_0000_0000_0000 && n < 0x2000_0000_0000_0000 then
      uint t ((n lsl 1) lxor (n asr 62))
    else i64 t (Int64.of_int n)

  let bool t b = u8 t (if b then 1 else 0)

  let str t s =
    let n = String.length s in
    uint t n;
    if t.store then begin
      reserve t n;
      Bytes.blit_string s 0 t.buf t.len n
    end;
    t.len <- t.len + n

  let length t = t.len

  (* Every write appends at least one byte, and a full buffer can only
     take it by growing into a fresh one, so a full buffer is handed over
     as it is: its bytes never change afterwards. *)
  let contents t =
    if t.len = Bytes.length t.buf then Bytes.unsafe_to_string t.buf
    else Bytes.sub_string t.buf 0 t.len

  let digest t = Digest.subbytes t.buf 0 t.len
end

(* ------------------------------------------------------------------ *)
(* Reader *)

module R = struct
  type t = { data : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) ?len s =
    let limit = match len with Some l -> pos + l | None -> String.length s in
    if pos < 0 || limit > String.length s || pos > limit then
      invalid_arg "Syswire.R.of_string: bad slice";
    { data = s; pos; limit }

  let pos t = t.pos
  let remaining t = t.limit - t.pos

  let u8 t =
    if t.pos >= t.limit then fail Truncated;
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    b

  let uint t =
    let rec go shift acc =
      if shift > 62 then corrupt "overlong varint"
      else begin
        let b = u8 t in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then acc else go (shift + 7) acc
      end
    in
    let n = go 0 0 in
    if n < 0 then corrupt "varint out of range";
    n

  let i64 t =
    let rec go shift acc =
      if shift > 63 then corrupt "overlong varint"
      else begin
        let b = u8 t in
        let acc =
          Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
        in
        if b < 0x80 then acc else go (shift + 7) acc
      end
    in
    let zz = go 0 0L in
    Int64.logxor
      (Int64.shift_right_logical zz 1)
      (Int64.neg (Int64.logand zz 1L))

  let int t =
    let v = i64 t in
    let n = Int64.to_int v in
    if not (Int64.equal (Int64.of_int n) v) then corrupt "int out of range";
    n

  let bool t =
    match u8 t with 0 -> false | 1 -> true | _ -> corrupt "bad bool"

  let str t =
    let n = uint t in
    if n > remaining t then fail Truncated;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s
end

(* ------------------------------------------------------------------ *)
(* Small-field helpers *)

let w_opt_int w = function
  | None -> W.bool w false
  | Some n ->
    W.bool w true;
    W.int w n

let r_opt_int r = if R.bool r then Some (R.int r) else None

let w_list w f l =
  W.uint w (List.length l);
  List.iter (fun x -> f w x) l

(* Each element costs at least one byte, so a length exceeding the bytes
   left is provably truncated — checked before any allocation. *)
let r_list r f =
  let n = R.uint r in
  if n > R.remaining r then fail Truncated;
  let rec go acc i = if i = 0 then List.rev acc else go (f r :: acc) (i - 1) in
  go [] n

let w_events w (e : Syscall.poll_events) =
  W.u8 w
    ((if e.Syscall.pollin then 1 else 0)
    lor (if e.Syscall.pollout then 2 else 0)
    lor (if e.Syscall.pollhup then 4 else 0)
    lor if e.Syscall.pollerr then 8 else 0)

let r_events r =
  let b = R.u8 r in
  if b > 15 then corrupt "bad poll events";
  {
    Syscall.pollin = b land 1 <> 0;
    pollout = b land 2 <> 0;
    pollhup = b land 4 <> 0;
    pollerr = b land 8 <> 0;
  }

let w_open_flags w (f : Syscall.open_flags) =
  W.u8 w
    ((if f.Syscall.read then 1 else 0)
    lor (if f.Syscall.write then 2 else 0)
    lor (if f.Syscall.create then 4 else 0)
    lor (if f.Syscall.trunc then 8 else 0)
    lor (if f.Syscall.append then 16 else 0)
    lor if f.Syscall.nonblock then 32 else 0)

let r_open_flags r =
  let b = R.u8 r in
  if b > 63 then corrupt "bad open flags";
  {
    Syscall.read = b land 1 <> 0;
    write = b land 2 <> 0;
    create = b land 4 <> 0;
    trunc = b land 8 <> 0;
    append = b land 16 <> 0;
    nonblock = b land 32 <> 0;
  }

let w_prot w (p : Syscall.prot) =
  W.u8 w
    ((if p.Syscall.pr then 1 else 0)
    lor (if p.Syscall.pw then 2 else 0)
    lor if p.Syscall.px then 4 else 0)

let r_prot r =
  let b = R.u8 r in
  if b > 7 then corrupt "bad prot";
  { Syscall.pr = b land 1 <> 0; pw = b land 2 <> 0; px = b land 4 <> 0 }

let w_whence w = function
  | Syscall.Seek_set -> W.u8 w 0
  | Syscall.Seek_cur -> W.u8 w 1
  | Syscall.Seek_end -> W.u8 w 2

let r_whence r =
  match R.u8 r with
  | 0 -> Syscall.Seek_set
  | 1 -> Syscall.Seek_cur
  | 2 -> Syscall.Seek_end
  | _ -> corrupt "bad whence"

let w_itimer w (s : Syscall.itimer_spec) =
  W.int w s.Syscall.interval_ns;
  W.int w s.Syscall.value_ns

let r_itimer r =
  let interval_ns = R.int r in
  let value_ns = R.int r in
  { Syscall.interval_ns; value_ns }

let w_domain w = function Syscall.Af_inet -> W.u8 w 0 | Syscall.Af_unix -> W.u8 w 1

let r_domain r =
  match R.u8 r with
  | 0 -> Syscall.Af_inet
  | 1 -> Syscall.Af_unix
  | _ -> corrupt "bad socket domain"

let w_socktype w = function
  | Syscall.Sock_stream -> W.u8 w 0
  | Syscall.Sock_dgram -> W.u8 w 1

let r_socktype r =
  match R.u8 r with
  | 0 -> Syscall.Sock_stream
  | 1 -> Syscall.Sock_dgram
  | _ -> corrupt "bad socket type"

let w_pollfd w (fd, e) =
  W.int w fd;
  w_events w e

let r_pollfd r =
  let fd = R.int r in
  let e = r_events r in
  (fd, e)

(* Sysno.index is the declaration-order position, so [Sysno.all] inverts it. *)
(* Keyed by [Sysno.index] — the dense constructor index the writer emits —
   NOT by position in [Sysno.all], whose order groups calls by category. *)
let sysno_of_index =
  let a = Array.make Sysno.slots None in
  List.iter (fun s -> a.(Sysno.index s) <- Some s) Sysno.all;
  a

let r_sysno r =
  let i = R.uint r in
  if i >= Array.length sysno_of_index then corrupt "bad sysno index";
  match sysno_of_index.(i) with
  | Some s -> s
  | None -> corrupt "bad sysno index"

(* ------------------------------------------------------------------ *)
(* Errno *)

let errno_table : Errno.t array =
  [|
    Errno.EPERM; ENOENT; ESRCH; EINTR; EIO; EBADF; EAGAIN; ENOMEM; EACCES;
    EFAULT; EBUSY; EEXIST; ENOTDIR; EISDIR; EINVAL; ENFILE; EMFILE; ENOSPC;
    ESPIPE; EPIPE; ERANGE; ENOSYS; ENOTEMPTY; ELOOP; ENOTSOCK; EDESTADDRREQ;
    EMSGSIZE; EPROTONOSUPPORT; EOPNOTSUPP; EADDRINUSE; EADDRNOTAVAIL;
    ENETUNREACH; ECONNABORTED; ECONNRESET; ENOBUFS; EISCONN; ENOTCONN;
    ETIMEDOUT; ECONNREFUSED; EALREADY; EINPROGRESS; ECHILD; EDEADLK;
    ENAMETOOLONG; EIDRM; ETIME; EREMOTEIO; EKEYREJECTED; EFBIG;
    ENOTTY;
  |]

let errno_index : (Errno.t, int) Hashtbl.t =
  let h = Hashtbl.create 64 in
  Array.iteri (fun i e -> Hashtbl.replace h e i) errno_table;
  h

let write_errno w e =
  match Hashtbl.find_opt errno_index e with
  | Some i -> W.uint w i
  | None -> invalid_arg "Syswire.write_errno: unknown errno"

let read_errno r =
  let i = R.uint r in
  if i >= Array.length errno_table then corrupt "bad errno tag";
  errno_table.(i)

(* ------------------------------------------------------------------ *)
(* Calls *)

let write_call w (c : Syscall.call) =
  W.uint w (Sysno.index (Syscall.number c));
  match c with
  (* payload-free *)
  | Syscall.Gettimeofday | Time | Getpid | Gettid | Getpgrp | Getppid | Getgid
  | Getegid | Getuid | Geteuid | Getcwd | Getpriority | Getrusage | Times
  | Capget | Getitimer | Sysinfo | Uname | Sched_yield | Getpgid | Getsid
  | Sched_getaffinity | Clock_getres | Sync | Pipe | Epoll_create
  | Timerfd_create | Fork | Setsid | Rt_sigreturn | Sigaltstack | Pause ->
    ()
  | Clock_gettime `Realtime -> W.u8 w 0
  | Clock_gettime `Monotonic -> W.u8 w 1
  | Nanosleep n | Getrlimit n | Getrandom n | Alarm n | Brk n | Clone n
  | Exit n | Exit_group n | Wait4 n | Umask n | Eventfd n
  | Sched_setaffinity n ->
    W.int w n
  | Futex (Syscall.Futex_wait { addr; expected; timeout_ns }) ->
    W.u8 w 0;
    W.i64 w addr;
    W.int w expected;
    w_opt_int w timeout_ns
  | Futex (Syscall.Futex_wake { addr; count }) ->
    W.u8 w 1;
    W.i64 w addr;
    W.int w count
  | Ioctl (fd, op) -> (
    W.int w fd;
    match op with
    | Syscall.Fionread -> W.u8 w 0
    | Syscall.Fionbio b ->
      W.u8 w 1;
      W.bool w b
    | Syscall.Tiocgwinsz -> W.u8 w 2)
  | Fcntl (fd, op) -> (
    W.int w fd;
    match op with
    | Syscall.F_getfl -> W.u8 w 0
    | Syscall.F_setfl { nonblock } ->
      W.u8 w 1;
      W.bool w nonblock
    | Syscall.F_dupfd n ->
      W.u8 w 2;
      W.int w n)
  | Access s | Faccessat s | Stat s | Lstat s | Fstatat s | Readlink s
  | Readlinkat s | Statfs s | Utimensat s | Creat s | Unlink s | Mkdir s
  | Rmdir s | Mkdirat s | Unlinkat s | Execve s ->
    W.str w s
  | Lseek (fd, off, whence) ->
    W.int w fd;
    W.int w off;
    w_whence w whence
  | Fstat fd | Getdents fd | Syncfs fd | Fsync fd | Fdatasync fd
  | Fadvise64 fd | Timerfd_gettime fd | Fstatfs fd | Getdents64 fd
  | Readahead fd | Close fd | Dup fd | Accept fd | Getsockname fd
  | Getpeername fd ->
    W.int w fd
  | Getxattr (p, a) | Lgetxattr (p, a) ->
    W.str w p;
    W.str w a
  | Fgetxattr (fd, a) ->
    W.int w fd;
    W.str w a
  | Setitimer s -> w_itimer w s
  | Madvise { addr; len }
  | Mincore { addr; len }
  | Msync { addr; len }
  | Munmap { addr; len }
  | Mlock { addr; len }
  | Munlock { addr; len } ->
    W.i64 w addr;
    W.int w len
  | Read (fd, n) | Recvfrom (fd, n) | Recvmsg (fd, n) | Getsockopt (fd, n)
  | Bind (fd, n) | Listen (fd, n) | Connect (fd, n) | Ftruncate (fd, n)
  | Fchmod (fd, n) | Dup2 (fd, n) | Dup3 (fd, n) ->
    W.int w fd;
    W.int w n
  | Readv (fd, lens) ->
    W.int w fd;
    w_list w W.int lens
  | Pread64 (fd, n, off) ->
    W.int w fd;
    W.int w n;
    W.int w off
  | Preadv (fd, lens, off) ->
    W.int w fd;
    w_list w W.int lens;
    W.int w off
  | Select { readfds; writefds; timeout_ns }
  | Pselect6 { readfds; writefds; timeout_ns } ->
    w_list w W.int readfds;
    w_list w W.int writefds;
    w_opt_int w timeout_ns
  | Poll { fds; timeout_ns } | Ppoll { fds; timeout_ns } ->
    w_list w w_pollfd fds;
    w_opt_int w timeout_ns
  | Timerfd_settime (fd, s) ->
    W.int w fd;
    w_itimer w s
  | Flock (fd, op) ->
    W.int w fd;
    W.u8 w
      (match op with
      | Syscall.Lock_sh -> 0
      | Syscall.Lock_ex -> 1
      | Syscall.Lock_un -> 2)
  | Chmod (p, m) ->
    W.str w p;
    W.int w m
  | Chown (p, u, g) ->
    W.str w p;
    W.int w u;
    W.int w g
  | Write (fd, s) | Sendto (fd, s) | Sendmsg (fd, s) ->
    W.int w fd;
    W.str w s
  | Writev (fd, ss) | Sendmmsg (fd, ss) ->
    W.int w fd;
    w_list w W.str ss
  | Pwrite64 (fd, s, off) ->
    W.int w fd;
    W.str w s;
    W.int w off
  | Pwritev (fd, ss, off) ->
    W.int w fd;
    w_list w W.str ss;
    W.int w off
  | Epoll_wait { epfd; max_events; timeout_ns } ->
    W.int w epfd;
    W.int w max_events;
    w_opt_int w timeout_ns
  | Recvmmsg (fd, msgs, each) ->
    W.int w fd;
    W.int w msgs;
    W.int w each
  | Sendfile { out_fd; in_fd; count } ->
    W.int w out_fd;
    W.int w in_fd;
    W.int w count
  | Epoll_ctl { epfd; op; fd; events; user_data } ->
    W.int w epfd;
    W.u8 w
      (match op with
      | Syscall.Epoll_add -> 0
      | Syscall.Epoll_mod -> 1
      | Syscall.Epoll_del -> 2);
    W.int w fd;
    w_events w events;
    W.i64 w user_data
  | Setsockopt (fd, o, v) ->
    W.int w fd;
    W.int w o;
    W.int w v
  | Shutdown (fd, how) ->
    W.int w fd;
    W.u8 w
      (match how with
      | Syscall.Shut_rd -> 0
      | Syscall.Shut_wr -> 1
      | Syscall.Shut_rdwr -> 2)
  | Open (p, f) | Openat (p, f) ->
    W.str w p;
    w_open_flags w f
  | Pipe2 { nonblock } -> W.bool w nonblock
  | Socket (d, t) | Socketpair (d, t) ->
    w_domain w d;
    w_socktype w t
  | Accept4 { fd; nonblock } ->
    W.int w fd;
    W.bool w nonblock
  | Rename (a, b) | Renameat (a, b) | Link (a, b) | Linkat (a, b)
  | Symlink (a, b) | Symlinkat (a, b) ->
    W.str w a;
    W.str w b
  | Truncate (p, n) ->
    W.str w p;
    W.int w n
  | Mmap { len; prot; kind } -> (
    W.int w len;
    w_prot w prot;
    match kind with
    | Syscall.Map_anon -> W.u8 w 0
    | Syscall.Map_shared_anon -> W.u8 w 1
    | Syscall.Map_file fd ->
      W.u8 w 2;
      W.int w fd)
  | Mprotect { addr; len; prot } ->
    W.i64 w addr;
    W.int w len;
    w_prot w prot
  | Mremap { addr; old_len; new_len } ->
    W.i64 w addr;
    W.int w old_len;
    W.int w new_len
  | Kill (pid, sg) ->
    W.int w pid;
    W.int w sg
  | Tgkill (pid, tid, sg) ->
    W.int w pid;
    W.int w tid;
    W.int w sg
  | Setrlimit (a, b) | Prlimit64 (a, b) ->
    W.int w a;
    W.int w b
  | Rt_sigaction (sg, action) -> (
    W.int w sg;
    match action with
    | Syscall.Sig_default -> W.u8 w 0
    | Syscall.Sig_ignore -> W.u8 w 1
    | Syscall.Sig_handler id ->
      W.u8 w 2;
      W.int w id)
  | Rt_sigprocmask (how, sigs) ->
    W.u8 w
      (match how with
      | Syscall.Sig_block -> 0
      | Syscall.Sig_unblock -> 1
      | Syscall.Sig_setmask -> 2);
    w_list w W.int sigs
  | Shmget { key; size; create } ->
    W.int w key;
    W.int w size;
    W.bool w create
  | Shmat { shmid; readonly } ->
    W.int w shmid;
    W.bool w readonly
  | Shmdt { addr } -> W.i64 w addr
  | Shmctl { shmid; rmid } ->
    W.int w shmid;
    W.bool w rmid
  | Ipmon_register { calls; rb_addr; entry_addr } ->
    w_list w (fun w s -> W.uint w (Sysno.index s)) calls;
    W.i64 w rb_addr;
    W.i64 w entry_addr

let read_call r : Syscall.call =
  let tag = R.uint r in
  if tag >= Array.length sysno_of_index then corrupt "bad call tag";
  let sysno =
    match sysno_of_index.(tag) with
    | Some s -> s
    | None -> corrupt "bad call tag"
  in
  match sysno with
  | Sysno.Gettimeofday -> Syscall.Gettimeofday
  | Sysno.Clock_gettime -> (
    match R.u8 r with
    | 0 -> Syscall.Clock_gettime `Realtime
    | 1 -> Syscall.Clock_gettime `Monotonic
    | _ -> corrupt "bad clock id")
  | Sysno.Time -> Syscall.Time
  | Sysno.Getpid -> Syscall.Getpid
  | Sysno.Gettid -> Syscall.Gettid
  | Sysno.Getpgrp -> Syscall.Getpgrp
  | Sysno.Getppid -> Syscall.Getppid
  | Sysno.Getgid -> Syscall.Getgid
  | Sysno.Getegid -> Syscall.Getegid
  | Sysno.Getuid -> Syscall.Getuid
  | Sysno.Geteuid -> Syscall.Geteuid
  | Sysno.Getcwd -> Syscall.Getcwd
  | Sysno.Getpriority -> Syscall.Getpriority
  | Sysno.Getrusage -> Syscall.Getrusage
  | Sysno.Times -> Syscall.Times
  | Sysno.Capget -> Syscall.Capget
  | Sysno.Getitimer -> Syscall.Getitimer
  | Sysno.Sysinfo -> Syscall.Sysinfo
  | Sysno.Uname -> Syscall.Uname
  | Sysno.Sched_yield -> Syscall.Sched_yield
  | Sysno.Nanosleep -> Syscall.Nanosleep (R.int r)
  | Sysno.Getpgid -> Syscall.Getpgid
  | Sysno.Getsid -> Syscall.Getsid
  | Sysno.Getrlimit -> Syscall.Getrlimit (R.int r)
  | Sysno.Sched_getaffinity -> Syscall.Sched_getaffinity
  | Sysno.Clock_getres -> Syscall.Clock_getres
  | Sysno.Getrandom -> Syscall.Getrandom (R.int r)
  | Sysno.Futex -> (
    match R.u8 r with
    | 0 ->
      let addr = R.i64 r in
      let expected = R.int r in
      let timeout_ns = r_opt_int r in
      Syscall.Futex (Syscall.Futex_wait { addr; expected; timeout_ns })
    | 1 ->
      let addr = R.i64 r in
      let count = R.int r in
      Syscall.Futex (Syscall.Futex_wake { addr; count })
    | _ -> corrupt "bad futex op")
  | Sysno.Ioctl ->
    let fd = R.int r in
    Syscall.Ioctl
      ( fd,
        match R.u8 r with
        | 0 -> Syscall.Fionread
        | 1 -> Syscall.Fionbio (R.bool r)
        | 2 -> Syscall.Tiocgwinsz
        | _ -> corrupt "bad ioctl op" )
  | Sysno.Fcntl ->
    let fd = R.int r in
    Syscall.Fcntl
      ( fd,
        match R.u8 r with
        | 0 -> Syscall.F_getfl
        | 1 -> Syscall.F_setfl { nonblock = R.bool r }
        | 2 -> Syscall.F_dupfd (R.int r)
        | _ -> corrupt "bad fcntl op" )
  | Sysno.Access -> Syscall.Access (R.str r)
  | Sysno.Faccessat -> Syscall.Faccessat (R.str r)
  | Sysno.Lseek ->
    let fd = R.int r in
    let off = R.int r in
    Syscall.Lseek (fd, off, r_whence r)
  | Sysno.Stat -> Syscall.Stat (R.str r)
  | Sysno.Lstat -> Syscall.Lstat (R.str r)
  | Sysno.Fstat -> Syscall.Fstat (R.int r)
  | Sysno.Fstatat -> Syscall.Fstatat (R.str r)
  | Sysno.Getdents -> Syscall.Getdents (R.int r)
  | Sysno.Readlink -> Syscall.Readlink (R.str r)
  | Sysno.Readlinkat -> Syscall.Readlinkat (R.str r)
  | Sysno.Getxattr ->
    let p = R.str r in
    Syscall.Getxattr (p, R.str r)
  | Sysno.Lgetxattr ->
    let p = R.str r in
    Syscall.Lgetxattr (p, R.str r)
  | Sysno.Fgetxattr ->
    let fd = R.int r in
    Syscall.Fgetxattr (fd, R.str r)
  | Sysno.Alarm -> Syscall.Alarm (R.int r)
  | Sysno.Setitimer -> Syscall.Setitimer (r_itimer r)
  | Sysno.Timerfd_gettime -> Syscall.Timerfd_gettime (R.int r)
  | Sysno.Madvise ->
    let addr = R.i64 r in
    Syscall.Madvise { addr; len = R.int r }
  | Sysno.Fadvise64 -> Syscall.Fadvise64 (R.int r)
  | Sysno.Statfs -> Syscall.Statfs (R.str r)
  | Sysno.Fstatfs -> Syscall.Fstatfs (R.int r)
  | Sysno.Getdents64 -> Syscall.Getdents64 (R.int r)
  | Sysno.Readahead -> Syscall.Readahead (R.int r)
  | Sysno.Mincore ->
    let addr = R.i64 r in
    Syscall.Mincore { addr; len = R.int r }
  | Sysno.Read ->
    let fd = R.int r in
    Syscall.Read (fd, R.int r)
  | Sysno.Readv ->
    let fd = R.int r in
    Syscall.Readv (fd, r_list r R.int)
  | Sysno.Pread64 ->
    let fd = R.int r in
    let n = R.int r in
    Syscall.Pread64 (fd, n, R.int r)
  | Sysno.Preadv ->
    let fd = R.int r in
    let lens = r_list r R.int in
    Syscall.Preadv (fd, lens, R.int r)
  | Sysno.Select ->
    let readfds = r_list r R.int in
    let writefds = r_list r R.int in
    Syscall.Select { readfds; writefds; timeout_ns = r_opt_int r }
  | Sysno.Poll ->
    let fds = r_list r r_pollfd in
    Syscall.Poll { fds; timeout_ns = r_opt_int r }
  | Sysno.Pselect6 ->
    let readfds = r_list r R.int in
    let writefds = r_list r R.int in
    Syscall.Pselect6 { readfds; writefds; timeout_ns = r_opt_int r }
  | Sysno.Ppoll ->
    let fds = r_list r r_pollfd in
    Syscall.Ppoll { fds; timeout_ns = r_opt_int r }
  | Sysno.Sync -> Syscall.Sync
  | Sysno.Syncfs -> Syscall.Syncfs (R.int r)
  | Sysno.Fsync -> Syscall.Fsync (R.int r)
  | Sysno.Fdatasync -> Syscall.Fdatasync (R.int r)
  | Sysno.Timerfd_settime ->
    let fd = R.int r in
    Syscall.Timerfd_settime (fd, r_itimer r)
  | Sysno.Msync ->
    let addr = R.i64 r in
    Syscall.Msync { addr; len = R.int r }
  | Sysno.Flock ->
    let fd = R.int r in
    Syscall.Flock
      ( fd,
        match R.u8 r with
        | 0 -> Syscall.Lock_sh
        | 1 -> Syscall.Lock_ex
        | 2 -> Syscall.Lock_un
        | _ -> corrupt "bad flock op" )
  | Sysno.Chmod ->
    let p = R.str r in
    Syscall.Chmod (p, R.int r)
  | Sysno.Fchmod ->
    let fd = R.int r in
    Syscall.Fchmod (fd, R.int r)
  | Sysno.Chown ->
    let p = R.str r in
    let u = R.int r in
    Syscall.Chown (p, u, R.int r)
  | Sysno.Utimensat -> Syscall.Utimensat (R.str r)
  | Sysno.Write ->
    let fd = R.int r in
    Syscall.Write (fd, R.str r)
  | Sysno.Writev ->
    let fd = R.int r in
    Syscall.Writev (fd, r_list r R.str)
  | Sysno.Pwrite64 ->
    let fd = R.int r in
    let s = R.str r in
    Syscall.Pwrite64 (fd, s, R.int r)
  | Sysno.Pwritev ->
    let fd = R.int r in
    let ss = r_list r R.str in
    Syscall.Pwritev (fd, ss, R.int r)
  | Sysno.Epoll_wait ->
    let epfd = R.int r in
    let max_events = R.int r in
    Syscall.Epoll_wait { epfd; max_events; timeout_ns = r_opt_int r }
  | Sysno.Recvfrom ->
    let fd = R.int r in
    Syscall.Recvfrom (fd, R.int r)
  | Sysno.Recvmsg ->
    let fd = R.int r in
    Syscall.Recvmsg (fd, R.int r)
  | Sysno.Recvmmsg ->
    let fd = R.int r in
    let msgs = R.int r in
    Syscall.Recvmmsg (fd, msgs, R.int r)
  | Sysno.Getsockname -> Syscall.Getsockname (R.int r)
  | Sysno.Getpeername -> Syscall.Getpeername (R.int r)
  | Sysno.Getsockopt ->
    let fd = R.int r in
    Syscall.Getsockopt (fd, R.int r)
  | Sysno.Sendto ->
    let fd = R.int r in
    Syscall.Sendto (fd, R.str r)
  | Sysno.Sendmsg ->
    let fd = R.int r in
    Syscall.Sendmsg (fd, R.str r)
  | Sysno.Sendmmsg ->
    let fd = R.int r in
    Syscall.Sendmmsg (fd, r_list r R.str)
  | Sysno.Sendfile ->
    let out_fd = R.int r in
    let in_fd = R.int r in
    Syscall.Sendfile { out_fd; in_fd; count = R.int r }
  | Sysno.Epoll_ctl ->
    let epfd = R.int r in
    let op =
      match R.u8 r with
      | 0 -> Syscall.Epoll_add
      | 1 -> Syscall.Epoll_mod
      | 2 -> Syscall.Epoll_del
      | _ -> corrupt "bad epoll op"
    in
    let fd = R.int r in
    let events = r_events r in
    Syscall.Epoll_ctl { epfd; op; fd; events; user_data = R.i64 r }
  | Sysno.Setsockopt ->
    let fd = R.int r in
    let o = R.int r in
    Syscall.Setsockopt (fd, o, R.int r)
  | Sysno.Shutdown ->
    let fd = R.int r in
    Syscall.Shutdown
      ( fd,
        match R.u8 r with
        | 0 -> Syscall.Shut_rd
        | 1 -> Syscall.Shut_wr
        | 2 -> Syscall.Shut_rdwr
        | _ -> corrupt "bad shutdown how" )
  | Sysno.Open ->
    let p = R.str r in
    Syscall.Open (p, r_open_flags r)
  | Sysno.Openat ->
    let p = R.str r in
    Syscall.Openat (p, r_open_flags r)
  | Sysno.Creat -> Syscall.Creat (R.str r)
  | Sysno.Close -> Syscall.Close (R.int r)
  | Sysno.Dup -> Syscall.Dup (R.int r)
  | Sysno.Dup2 ->
    let a = R.int r in
    Syscall.Dup2 (a, R.int r)
  | Sysno.Dup3 ->
    let a = R.int r in
    Syscall.Dup3 (a, R.int r)
  | Sysno.Pipe2 -> Syscall.Pipe2 { nonblock = R.bool r }
  | Sysno.Eventfd -> Syscall.Eventfd (R.int r)
  | Sysno.Pipe -> Syscall.Pipe
  | Sysno.Socket ->
    let d = r_domain r in
    Syscall.Socket (d, r_socktype r)
  | Sysno.Socketpair ->
    let d = r_domain r in
    Syscall.Socketpair (d, r_socktype r)
  | Sysno.Bind ->
    let fd = R.int r in
    Syscall.Bind (fd, R.int r)
  | Sysno.Listen ->
    let fd = R.int r in
    Syscall.Listen (fd, R.int r)
  | Sysno.Accept -> Syscall.Accept (R.int r)
  | Sysno.Accept4 ->
    let fd = R.int r in
    Syscall.Accept4 { fd; nonblock = R.bool r }
  | Sysno.Connect ->
    let fd = R.int r in
    Syscall.Connect (fd, R.int r)
  | Sysno.Epoll_create -> Syscall.Epoll_create
  | Sysno.Timerfd_create -> Syscall.Timerfd_create
  | Sysno.Unlink -> Syscall.Unlink (R.str r)
  | Sysno.Rename ->
    let a = R.str r in
    Syscall.Rename (a, R.str r)
  | Sysno.Mkdir -> Syscall.Mkdir (R.str r)
  | Sysno.Rmdir -> Syscall.Rmdir (R.str r)
  | Sysno.Truncate ->
    let p = R.str r in
    Syscall.Truncate (p, R.int r)
  | Sysno.Ftruncate ->
    let fd = R.int r in
    Syscall.Ftruncate (fd, R.int r)
  | Sysno.Mkdirat -> Syscall.Mkdirat (R.str r)
  | Sysno.Unlinkat -> Syscall.Unlinkat (R.str r)
  | Sysno.Renameat ->
    let a = R.str r in
    Syscall.Renameat (a, R.str r)
  | Sysno.Link ->
    let a = R.str r in
    Syscall.Link (a, R.str r)
  | Sysno.Linkat ->
    let a = R.str r in
    Syscall.Linkat (a, R.str r)
  | Sysno.Symlink ->
    let a = R.str r in
    Syscall.Symlink (a, R.str r)
  | Sysno.Symlinkat ->
    let a = R.str r in
    Syscall.Symlinkat (a, R.str r)
  | Sysno.Umask -> Syscall.Umask (R.int r)
  | Sysno.Mmap ->
    let len = R.int r in
    let prot = r_prot r in
    let kind =
      match R.u8 r with
      | 0 -> Syscall.Map_anon
      | 1 -> Syscall.Map_shared_anon
      | 2 -> Syscall.Map_file (R.int r)
      | _ -> corrupt "bad map kind"
    in
    Syscall.Mmap { len; prot; kind }
  | Sysno.Munmap ->
    let addr = R.i64 r in
    Syscall.Munmap { addr; len = R.int r }
  | Sysno.Mprotect ->
    let addr = R.i64 r in
    let len = R.int r in
    Syscall.Mprotect { addr; len; prot = r_prot r }
  | Sysno.Mremap ->
    let addr = R.i64 r in
    let old_len = R.int r in
    Syscall.Mremap { addr; old_len; new_len = R.int r }
  | Sysno.Brk -> Syscall.Brk (R.int r)
  | Sysno.Mlock ->
    let addr = R.i64 r in
    Syscall.Mlock { addr; len = R.int r }
  | Sysno.Munlock ->
    let addr = R.i64 r in
    Syscall.Munlock { addr; len = R.int r }
  | Sysno.Clone -> Syscall.Clone (R.int r)
  | Sysno.Fork -> Syscall.Fork
  | Sysno.Execve -> Syscall.Execve (R.str r)
  | Sysno.Exit -> Syscall.Exit (R.int r)
  | Sysno.Exit_group -> Syscall.Exit_group (R.int r)
  | Sysno.Wait4 -> Syscall.Wait4 (R.int r)
  | Sysno.Kill ->
    let pid = R.int r in
    Syscall.Kill (pid, R.int r)
  | Sysno.Tgkill ->
    let pid = R.int r in
    let tid = R.int r in
    Syscall.Tgkill (pid, tid, R.int r)
  | Sysno.Setrlimit ->
    let a = R.int r in
    Syscall.Setrlimit (a, R.int r)
  | Sysno.Prlimit64 ->
    let a = R.int r in
    Syscall.Prlimit64 (a, R.int r)
  | Sysno.Sched_setaffinity -> Syscall.Sched_setaffinity (R.int r)
  | Sysno.Setsid -> Syscall.Setsid
  | Sysno.Rt_sigaction ->
    let sg = R.int r in
    Syscall.Rt_sigaction
      ( sg,
        match R.u8 r with
        | 0 -> Syscall.Sig_default
        | 1 -> Syscall.Sig_ignore
        | 2 -> Syscall.Sig_handler (R.int r)
        | _ -> corrupt "bad sigaction" )
  | Sysno.Rt_sigprocmask ->
    let how =
      match R.u8 r with
      | 0 -> Syscall.Sig_block
      | 1 -> Syscall.Sig_unblock
      | 2 -> Syscall.Sig_setmask
      | _ -> corrupt "bad sigmask how"
    in
    Syscall.Rt_sigprocmask (how, r_list r R.int)
  | Sysno.Rt_sigreturn -> Syscall.Rt_sigreturn
  | Sysno.Sigaltstack -> Syscall.Sigaltstack
  | Sysno.Pause -> Syscall.Pause
  | Sysno.Shmget ->
    let key = R.int r in
    let size = R.int r in
    Syscall.Shmget { key; size; create = R.bool r }
  | Sysno.Shmat ->
    let shmid = R.int r in
    Syscall.Shmat { shmid; readonly = R.bool r }
  | Sysno.Shmdt -> Syscall.Shmdt { addr = R.i64 r }
  | Sysno.Shmctl ->
    let shmid = R.int r in
    Syscall.Shmctl { shmid; rmid = R.bool r }
  | Sysno.Ipmon_register ->
    let calls = r_list r r_sysno in
    let rb_addr = R.i64 r in
    Syscall.Ipmon_register { calls; rb_addr; entry_addr = R.i64 r }

(* ------------------------------------------------------------------ *)
(* Results *)

let write_result w (res : Syscall.result) =
  match res with
  | Syscall.Ok_unit -> W.u8 w 0
  | Syscall.Ok_int n ->
    W.u8 w 1;
    W.int w n
  | Syscall.Ok_int64 v ->
    W.u8 w 2;
    W.i64 w v
  | Syscall.Ok_data s ->
    W.u8 w 3;
    W.str w s
  | Syscall.Ok_str s ->
    W.u8 w 4;
    W.str w s
  | Syscall.Ok_stat st ->
    W.u8 w 5;
    W.int w st.Syscall.st_ino;
    W.int w st.Syscall.st_size;
    W.u8 w
      (match st.Syscall.st_kind with
      | `Reg -> 0
      | `Dir -> 1
      | `Fifo -> 2
      | `Sock -> 3
      | `Special -> 4);
    W.int w st.Syscall.st_mtime_ns
  | Syscall.Ok_pair (a, b) ->
    W.u8 w 6;
    W.int w a;
    W.int w b
  | Syscall.Ok_poll l ->
    W.u8 w 7;
    w_list w w_pollfd l
  | Syscall.Ok_epoll l ->
    W.u8 w 8;
    w_list w
      (fun w (ud, e) ->
        W.i64 w ud;
        w_events w e)
      l
  | Syscall.Ok_accept { conn_fd; peer_port } ->
    W.u8 w 9;
    W.int w conn_fd;
    W.int w peer_port
  | Syscall.Ok_dents l ->
    W.u8 w 10;
    w_list w W.str l
  | Syscall.Ok_itimer s ->
    W.u8 w 11;
    w_itimer w s
  | Syscall.Error e ->
    W.u8 w 12;
    write_errno w e

let read_result r : Syscall.result =
  match R.u8 r with
  | 0 -> Syscall.Ok_unit
  | 1 -> Syscall.Ok_int (R.int r)
  | 2 -> Syscall.Ok_int64 (R.i64 r)
  | 3 -> Syscall.Ok_data (R.str r)
  | 4 -> Syscall.Ok_str (R.str r)
  | 5 ->
    let st_ino = R.int r in
    let st_size = R.int r in
    let st_kind =
      match R.u8 r with
      | 0 -> `Reg
      | 1 -> `Dir
      | 2 -> `Fifo
      | 3 -> `Sock
      | 4 -> `Special
      | _ -> corrupt "bad stat kind"
    in
    Syscall.Ok_stat { st_ino; st_size; st_kind; st_mtime_ns = R.int r }
  | 6 ->
    let a = R.int r in
    Syscall.Ok_pair (a, R.int r)
  | 7 -> Syscall.Ok_poll (r_list r r_pollfd)
  | 8 ->
    Syscall.Ok_epoll
      (r_list r (fun r ->
           let ud = R.i64 r in
           (ud, r_events r)))
  | 9 ->
    let conn_fd = R.int r in
    Syscall.Ok_accept { conn_fd; peer_port = R.int r }
  | 10 -> Syscall.Ok_dents (r_list r R.str)
  | 11 -> Syscall.Ok_itimer (r_itimer r)
  | 12 -> Syscall.Error (read_errno r)
  | _ -> corrupt "bad result tag"
