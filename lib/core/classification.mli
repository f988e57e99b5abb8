(** System-call classification: Table 1 of the paper.

    Five cumulative spatial-exemption levels; calls that allocate or manage
    process resources (fds, memory mappings, threads/processes, signals,
    System V IPC) are always monitored by GHUMVEE regardless of level. *)

open Remon_kernel

type level =
  | Base_level
  | Nonsocket_ro_level
  | Nonsocket_rw_level
  | Socket_ro_level
  | Socket_rw_level

val all_levels : level list
(** In ascending permissiveness order. *)

val level_rank : level -> int
(** [0] for BASE through [4] for SOCKET_RW. *)

val level_geq : level -> level -> bool
(** [level_geq a b]: does selecting level [a] also grant level [b]? *)

val level_to_string : level -> string
val level_of_string : string -> level option

type entry =
  | Always_monitored
  | Unconditional of level
      (** exempt whenever the selected level is at least this one *)
  | Conditional of level
      (** exempt at this level subject to a runtime argument check; the
          read/write families escalate to the SOCKET levels on sockets *)

val classify : Sysno.t -> entry

val required_level : Sysno.t -> on_socket:bool -> level option
(** Minimum level at which the call may run unmonitored, given whether the
    descriptor it touches is a socket. [None]: always monitored. *)

val ipmon_supported : Sysno.t list
(** The calls IP-MON's fast path can replicate (everything that is not
    [Always_monitored]); the set passed to [ipmon_register]. *)

val table1 : unit -> (level * Sysno.t list * Sysno.t list) list
(** Rows of Table 1, regenerated from [classify]: per level, the
    unconditional and conditional calls introduced there. *)
