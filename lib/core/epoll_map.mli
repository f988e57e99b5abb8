(** Shadow mapping between fds and epoll user data (Section 3.9).
    Diversified replicas register different pointer cookies for the same
    logical descriptor; results are replicated in terms of fds and mapped
    back to each variant's own pointers. Events without a registration are
    carried opaquely (the master's original cookie) or dropped with a
    divergence counter — never fabricated. *)

type t

(** Replicated form of one epoll event's identity. *)
type logical =
  | Lfd of int  (** translated via the master's registrations *)
  | Lopaque of int64  (** master's raw user data, passed through *)

val create : nreplicas:int -> t
val register : t -> variant:int -> fd:int -> user_data:int64 -> unit
val unregister : t -> variant:int -> fd:int -> unit

val note_call : t -> variant:int -> Remon_kernel.Syscall.call -> unit
(** Mirrors one variant's [epoll_ctl] into its registrations (an add or
    mod registers, a del unregisters); other calls change nothing. Both
    monitors call it for every replica's call. *)

val user_data_of : t -> variant:int -> fd:int -> int64 option
val fd_of : t -> variant:int -> user_data:int64 -> int option

val untranslatable : t -> int
(** Events dropped because no mapping existed (master-side negative
    unregistered cookies, or slave-side fds with no registration). *)

val to_logical :
  t ->
  (int64 * Remon_kernel.Syscall.poll_events) list ->
  (logical * Remon_kernel.Syscall.poll_events) list
(** Master's (user_data, events) results -> logical events, using variant
    0's registrations. Unregistered cookies pass through as [Lopaque];
    negative unregistered cookies are dropped and counted. *)

val to_variant :
  t ->
  variant:int ->
  (logical * Remon_kernel.Syscall.poll_events) list ->
  (int64 * Remon_kernel.Syscall.poll_events) list
(** Logical events -> the given variant's (user_data, events). An [Lfd]
    the variant never registered is dropped and counted. *)

val encode : logical -> int64
(** Pack for the replication buffer's int64 slots: [Lfd] as the
    non-negative fd, [Lopaque] complemented into the negative range. *)

val decode : int64 -> logical
