(** Automated software diversity for the replicas: ASLR plus Disjoint Code
    Layouts (Section 4). Under DCL no code address is valid in more than
    one replica, so address-dependent payloads cause divergence. *)

open Remon_kernel

type config = {
  aslr : bool; (** randomize placements per replica *)
  dcl : bool; (** disjoint code windows across replicas *)
  code_bytes : int;
  stack_bytes : int;
  heap_bytes : int;
}

val default : config

val apply : config -> Proc.process -> variant:int -> (int64 * int64, Errno.t) result
(** Lays out code, heap and stack; returns (code base, heap base). *)

val code_base : Proc.process -> int64 option
val heap_base : Proc.process -> int64 option

val addr_in_code : Proc.process -> int64 -> bool
(** Does a payload's hard-coded address land in this replica's code? *)

val code_ranges_disjoint : Proc.process list -> bool
(** The DCL guarantee, checked by tests. *)
