(** Per-call metadata shared by IK-B, IP-MON and GHUMVEE. *)

open Remon_kernel

val fd_of : Syscall.call -> int option
(** The primary descriptor a call operates on, if any. *)

val may_block : File_map.t -> Syscall.call -> bool
(** Blocking prediction from the file map (Listing 1's MAYBE_BLOCKING). *)

(** How the monitors execute a call across replicas. *)
type disposition =
  | Master_call (** master executes; slaves receive replicated results *)
  | All_call (** every replica executes its own instance (local state) *)

val disposition : Syscall.call -> disposition

val mirror_fds : Proc.process -> Syscall.call -> Syscall.result -> unit
(** Keeps a slave's descriptor numbering aligned with the master's after
    the master's call returned the result: installs a stub descriptor at
    each number the call created and frees each number it closed. Both
    monitors apply it to every slave that does not run the call itself. *)

val changes_fds : Syscall.call -> bool
(** May the call create, close or retype a descriptor, or change its
    blocking mode? GHUMVEE refreshes IP-MON's file map after each such
    call. *)

val normalize : Syscall.call -> Syscall.call
(** Blanks fields that legitimately differ between diversified replicas
    (pointer-valued epoll user data, futex/mapping addresses) before
    cross-replica comparison. *)

val equal_normalized : Syscall.call -> Syscall.call -> bool
(** GHUMVEE's deep argument comparison. *)
