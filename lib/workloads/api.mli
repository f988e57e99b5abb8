(** Convenience layer for writing simulated programs: typed wrappers around
    the syscall effect with EINTR retry and result unwrapping. Programs
    written against it look like ordinary POSIX code; the MVEE underneath
    is invisible — which is the transparency property the monitors must
    preserve. *)

open Remon_kernel

exception Sys_error of Errno.t * string

val retrying : string -> Syscall.call -> Syscall.result
(** Issue a call, transparently retrying on EINTR. *)

(** {1 Compute} *)

val compute : int -> unit (** burn [ns] of virtual CPU time *)

val compute_us : int -> unit
val now : unit -> Remon_sim.Vtime.t

(** {1 Files} *)

val open_file : ?flags:Syscall.open_flags -> string -> int
val create_file : string -> int (** O_RDWR | O_CREAT | O_TRUNC *)

val close : int -> unit
val read : int -> int -> string
val write : int -> string -> int
val pread : int -> int -> int -> string
val pwrite : int -> string -> int -> int
val lseek : int -> int -> int
val stat : string -> Syscall.stat_info
val fstat : int -> Syscall.stat_info

(** {1 Time / identity} *)

val gettimeofday : unit -> int64
val getpid : unit -> int
val sched_yield : unit -> unit
val nanosleep : int -> unit

(** {1 Pipes and sockets} *)

val pipe : unit -> int * int
val socket : unit -> int
val socketpair : unit -> int * int
val bind : int -> int -> unit
val listen : int -> int -> unit
val accept : int -> Syscall.accept_info

exception Connect_retries_exhausted of { port : int; attempts : int }
(** [connect_retry] ran out of attempts while the port still refused. *)

val connect_retry :
  ?attempts:int ->
  ?base_backoff_ns:int ->
  ?cap_backoff_ns:int ->
  ?on_retry:(int -> unit) ->
  int ->
  int ->
  unit
(** Blocking connect, retrying while the port refuses, with deterministic
    exponential backoff: [base_backoff_ns] (default 200us) doubling up to
    [cap_backoff_ns] (default 50ms), [attempts] tries (default 50).
    [on_retry] fires before each backoff sleep with the 1-based retry
    number, so callers can count retries into their metrics. Raises
    {!Connect_retries_exhausted} when the budget runs out. *)

val send : int -> string -> int
val recv : int -> int -> string

val read_exactly : int -> int -> string -> string
val recv_exactly : int -> int -> string
(** Reads exactly [n] bytes or until EOF. *)

val recv_within : int -> int -> timeout_ns:int -> string
(** Like {!recv_exactly} with a deadline [timeout_ns] from now: polls for
    readability before each read and returns what arrived so far (short on
    timeout or EOF) instead of blocking indefinitely on a wedged peer. *)

(** {1 epoll} *)

val epoll_create : unit -> int
val epoll_add : int -> int -> events:Syscall.poll_events -> user_data:int64 -> unit
val epoll_del : int -> int -> unit

val epoll_wait :
  ?timeout_ns:int -> int -> max_events:int -> (int64 * Syscall.poll_events) list

val set_nonblocking : int -> bool -> unit

(** {1 Signals} *)

val sigaction : int -> Syscall.sig_action -> unit
val exit_group : int -> unit
