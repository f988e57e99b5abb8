(** epoll instance state (Section 3.9): the interest list mapping watched
    fds to the application's [user_data] cookies. Readiness is evaluated by
    the dispatcher, which can see the fd table. *)

type entry = { mutable events : Syscall.poll_events; mutable user_data : int64 }

type t

val create : unit -> t

val ctl :
  t ->
  op:Syscall.epoll_op ->
  fd:int ->
  events:Syscall.poll_events ->
  user_data:int64 ->
  (unit, Errno.t) result

val interest_list : t -> (int * entry) list
(** Sorted by fd, for deterministic iteration. *)
