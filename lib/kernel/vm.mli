(** Per-process virtual memory: mapped regions with ASLR placement plus the
    sparse word store futexes operate on. Region placement is what the
    diversity transforms act on. *)

open Remon_util

type backing =
  | Anon
  | Shared_anon of int
  | File_backed of Vfs.node
  | Shm_seg of Shm.segment
  | Code
  | Stack
  | Heap
  | Ipmon_code (** IP-MON's executable region; recognized by IK-B *)

type region = {
  start : int64;
  len : int;
  mutable prot : Syscall.prot;
  backing : backing;
  tag : string; (** shown in /proc/self/maps *)
}

type t = {
  mutable regions : region list; (** sorted by start *)
  rng : Rng.t;
  words : (int64, int) Hashtbl.t;
  mutable brk_base : int64;
  mutable brk : int64;
  page_size : int;
}

val create : rng:Rng.t -> t

val map :
  t -> len:int -> prot:Syscall.prot -> backing:backing -> tag:string ->
  (region, Errno.t) result
(** Randomized (ASLR) placement: 28 bits of page entropy. *)

val map_fixed :
  t -> start:int64 -> len:int -> prot:Syscall.prot -> backing:backing ->
  tag:string -> (region, Errno.t) result
(** Exact placement; used by DCL's disjoint code windows. *)

val find_region : t -> int64 -> region option
val unmap : t -> addr:int64 -> len:int -> (unit, Errno.t) result
val protect : t -> addr:int64 -> len:int -> prot:Syscall.prot -> (unit, Errno.t) result
val set_brk : t -> int -> int

val read_word : t -> int64 -> int
(** Words in shm-backed regions resolve to the shared segment store (so
    futexes in the RB work across replicas); others are process-private. *)

val write_word : t -> int64 -> int -> unit

type futex_key = Private of int * int64 | Shared of int * int

val futex_key : t -> space_id:int -> int64 -> futex_key
(** Identifies the physical backing of a futex word. *)

val maps_text : ?hide:(region -> bool) -> t -> string
(** /proc/self/maps content; [hide] lets GHUMVEE filter IP-MON's and the
    RB's regions (Section 3.6). *)
