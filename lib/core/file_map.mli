(** The IP-MON file map (Section 3.6): one byte of GHUMVEE-maintained
    metadata per file descriptor (type + blocking mode), mapped read-only
    into every replica. IP-MON consults it for conditional policies and
    blocking prediction. *)

open Remon_kernel

type t

type Shm.payload += File_map_payload of t

val create : unit -> t
val set : t -> fd:int -> cls:Proc.fd_class -> nonblocking:bool -> unit
val clear : t -> fd:int -> unit
val set_nonblocking : t -> fd:int -> bool -> unit
val class_of : t -> fd:int -> Proc.fd_class option
val is_socket : t -> fd:int -> bool

val may_block : t -> fd:int -> bool
(** Listing 1's MAYBE_BLOCKING: non-blocking descriptors always return
    immediately; blocking ones may suspend the call. *)

val sync_from_process : t -> Proc.process -> unit
(** Refresh from the master replica's fd table; GHUMVEE calls this after
    arbitrating fd-lifecycle calls. *)
