(* Convenience layer for writing simulated programs: thin typed wrappers
   around the syscall effect, with EINTR retry and result unwrapping.

   Programs written against this API look like ordinary POSIX code; the
   MVEE underneath is invisible to them, which is the transparency property
   the monitors must preserve. *)

open Remon_kernel
open Remon_sim

exception Sys_error of Errno.t * string

let fail name e = raise (Sys_error (e, name))

let rec retrying name call =
  match Sched.syscall call with
  | Syscall.Error Errno.EINTR -> retrying name call
  | r -> r

let int_of name r =
  match (r : Syscall.result) with
  | Syscall.Ok_int n -> n
  | Syscall.Error e -> fail name e
  | _ -> fail name Errno.EINVAL

let unit_of name r =
  match (r : Syscall.result) with
  | Syscall.Ok_unit | Syscall.Ok_int _ -> ()
  | Syscall.Error e -> fail name e
  | _ -> fail name Errno.EINVAL

let data_of name r =
  match (r : Syscall.result) with
  | Syscall.Ok_data s -> s
  | Syscall.Error e -> fail name e
  | _ -> fail name Errno.EINVAL

(* ---- compute ---- *)

let compute ns = Sched.compute (Vtime.ns ns)
let compute_us us = Sched.compute (Vtime.us us)
let now () = Sched.vnow ()

(* ---- files ---- *)

let open_file ?(flags = Syscall.o_rdonly) path =
  int_of "open" (retrying "open" (Syscall.Open (path, flags)))

let create_file path =
  open_file ~flags:{ Syscall.o_rdwr with create = true; trunc = true } path

let close fd = unit_of "close" (retrying "close" (Syscall.Close fd))

let read fd count = data_of "read" (retrying "read" (Syscall.Read (fd, count)))

let write fd data = int_of "write" (retrying "write" (Syscall.Write (fd, data)))

let pread fd count offset =
  data_of "pread" (retrying "pread" (Syscall.Pread64 (fd, count, offset)))

let pwrite fd data offset =
  int_of "pwrite" (retrying "pwrite" (Syscall.Pwrite64 (fd, data, offset)))

let lseek fd pos = int_of "lseek" (retrying "lseek" (Syscall.Lseek (fd, pos, Syscall.Seek_set)))

let stat path =
  match retrying "stat" (Syscall.Stat path) with
  | Syscall.Ok_stat s -> s
  | Syscall.Error e -> fail "stat" e
  | _ -> fail "stat" Errno.EINVAL

let fstat fd =
  match retrying "fstat" (Syscall.Fstat fd) with
  | Syscall.Ok_stat s -> s
  | Syscall.Error e -> fail "fstat" e
  | _ -> fail "fstat" Errno.EINVAL

(* ---- time / identity ---- *)

let gettimeofday () =
  match retrying "gettimeofday" Syscall.Gettimeofday with
  | Syscall.Ok_int64 t -> t
  | _ -> fail "gettimeofday" Errno.EINVAL

let getpid () = int_of "getpid" (retrying "getpid" Syscall.Getpid)
let sched_yield () = unit_of "sched_yield" (retrying "sched_yield" Syscall.Sched_yield)

let nanosleep ns =
  unit_of "nanosleep" (retrying "nanosleep" (Syscall.Nanosleep (Vtime.ns ns)))

(* ---- pipes ---- *)

let pipe () =
  match retrying "pipe" Syscall.Pipe with
  | Syscall.Ok_pair (r, w) -> (r, w)
  | Syscall.Error e -> fail "pipe" e
  | _ -> fail "pipe" Errno.EINVAL

(* ---- sockets ---- *)

let socket () =
  int_of "socket" (retrying "socket" (Syscall.Socket (Syscall.Af_inet, Syscall.Sock_stream)))

let socketpair () =
  match retrying "socketpair" (Syscall.Socketpair (Syscall.Af_unix, Syscall.Sock_stream)) with
  | Syscall.Ok_pair (a, b) -> (a, b)
  | Syscall.Error e -> fail "socketpair" e
  | _ -> fail "socketpair" Errno.EINVAL

let bind fd port = unit_of "bind" (retrying "bind" (Syscall.Bind (fd, port)))
let listen fd backlog = unit_of "listen" (retrying "listen" (Syscall.Listen (fd, backlog)))

let accept fd =
  match retrying "accept" (Syscall.Accept fd) with
  | Syscall.Ok_accept a -> a
  | Syscall.Error e -> fail "accept" e
  | _ -> fail "accept" Errno.EINVAL

exception Connect_retries_exhausted of { port : int; attempts : int }

(* Blocking connect with retry while the server is not yet listening:
   exponential backoff from [base_backoff_ns], doubling up to the
   [cap_backoff_ns] cap. Exhausting the budget raises
   [Connect_retries_exhausted] — distinguishable from an outright refusal
   ([Sys_error ECONNREFUSED] on a non-transient error). The schedule is
   fully deterministic (no jitter): simulated virtual time already decouples
   concurrent retriers, and determinism is the repo-wide contract. *)
let connect_retry ?(attempts = 50) ?(base_backoff_ns = 200_000)
    ?(cap_backoff_ns = 50_000_000) ?(on_retry = fun (_ : int) -> ()) fd port =
  let rec go ~left ~delay_ns =
    match Sched.syscall (Syscall.Connect (fd, port)) with
    | Syscall.Ok_int _ | Syscall.Ok_unit -> ()
    | Syscall.Error (Errno.ECONNREFUSED | Errno.EINTR) ->
      if left <= 0 then raise (Connect_retries_exhausted { port; attempts })
      else begin
        on_retry (attempts - left + 1);
        nanosleep delay_ns;
        go ~left:(left - 1) ~delay_ns:(min cap_backoff_ns (2 * delay_ns))
      end
    | Syscall.Error e -> fail "connect" e
    | _ -> fail "connect" Errno.EINVAL
  in
  go ~left:attempts ~delay_ns:base_backoff_ns

let send fd data = int_of "send" (retrying "send" (Syscall.Sendto (fd, data)))
let recv fd count = data_of "recv" (retrying "recv" (Syscall.Recvfrom (fd, count)))

(* [acc ^ s] without copying [s] when nothing came before it: a message
   that arrives in one read is the kernel's string, shared, not a copy. *)
let append acc s = if String.length acc = 0 then s else acc ^ s

(* Reads exactly [n] bytes (or until EOF). *)
let rec read_exactly fd n acc =
  if n <= 0 then acc
  else
    let chunk = read fd n in
    if chunk = "" then acc
    else read_exactly fd (n - String.length chunk) (append acc chunk)

let recv_exactly fd n = read_exactly fd n ""

(* Receives up to [n] bytes with a deadline [timeout_ns] from now: polls for
   readability before each read and gives up when the deadline passes.
   Returns what arrived — short on timeout or EOF — so callers treat a short
   string exactly like a truncated connection. *)
let recv_within fd n ~timeout_ns =
  let deadline = Vtime.add (Sched.vnow ()) (Vtime.ns timeout_ns) in
  let rec go acc need =
    if need <= 0 then acc
    else
      let remaining = Vtime.sub deadline (Sched.vnow ()) in
      if Vtime.(remaining <= Vtime.zero) then acc
      else
        match
          retrying "poll"
            (Syscall.Poll
               { fds = [ (fd, Syscall.ev_in) ]; timeout_ns = Some remaining })
        with
        | Syscall.Ok_poll [] -> acc (* deadline passed with nothing readable *)
        | Syscall.Ok_poll _ -> (
          match retrying "recv" (Syscall.Recvfrom (fd, need)) with
          | Syscall.Ok_data "" -> acc
          | Syscall.Ok_data s -> go (append acc s) (need - String.length s)
          | Syscall.Error e -> fail "recv" e
          | _ -> fail "recv" Errno.EINVAL)
        | Syscall.Error e -> fail "poll" e
        | _ -> fail "poll" Errno.EINVAL
  in
  go "" n

(* ---- epoll ---- *)

let epoll_create () = int_of "epoll_create" (retrying "epoll_create" Syscall.Epoll_create)

let epoll_add epfd fd ~events ~user_data =
  unit_of "epoll_ctl"
    (retrying "epoll_ctl"
       (Syscall.Epoll_ctl { epfd; op = Syscall.Epoll_add; fd; events; user_data }))

let epoll_del epfd fd =
  unit_of "epoll_ctl(del)"
    (retrying "epoll_ctl"
       (Syscall.Epoll_ctl
          { epfd; op = Syscall.Epoll_del; fd; events = Syscall.ev_none; user_data = 0L }))

let epoll_wait ?timeout_ns epfd ~max_events =
  match retrying "epoll_wait" (Syscall.Epoll_wait { epfd; max_events; timeout_ns }) with
  | Syscall.Ok_epoll evs -> evs
  | Syscall.Error e -> fail "epoll_wait" e
  | _ -> fail "epoll_wait" Errno.EINVAL

let set_nonblocking fd v =
  unit_of "fcntl" (retrying "fcntl" (Syscall.Fcntl (fd, Syscall.F_setfl { nonblock = v })))

(* ---- signals ---- *)

let sigaction sg action =
  unit_of "rt_sigaction" (retrying "rt_sigaction" (Syscall.Rt_sigaction (sg, action)))

let exit_group code = ignore (Sched.syscall (Syscall.Exit_group code))
