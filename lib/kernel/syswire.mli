(** Binary wire codec for syscall values (recordings, reproducer files).

    Varint-based (LEB128, zigzag for signed fields) with one stable tag per
    constructor. Decoding is fully bounds-checked and total: malformed
    input raises {!Fail} with a typed {!error} — never an out-of-bounds
    read, an unbounded allocation, or an escaping generic exception. The
    deliberate non-goal is OCaml's [Marshal], which is none of those
    things on corrupted bytes. *)

type error =
  | Truncated  (** input ended mid-value *)
  | Corrupt of string  (** structurally invalid (bad tag, overlong varint) *)

val error_to_string : error -> string

exception Fail of error
(** Raised by the reading functions below; [Recording.of_bytes] and other
    top-level decoders catch it and return a [result]. *)

(** Append-only byte sink. *)
module W : sig
  type t

  val create : ?initial:int -> unit -> t

  val measure : (t -> unit) -> int
  (** [measure write] is the number of bytes [write] appends, counted by
      running it on a writer that stores none, so that
      [create ~initial:(measure write) ()] fits [write]'s output exactly. *)

  val u8 : t -> int -> unit
  val uint : t -> int -> unit  (** LEB128; the value must be [>= 0] *)

  val int : t -> int -> unit  (** zigzag + LEB128 *)

  val i64 : t -> int64 -> unit  (** zigzag + LEB128, full 64-bit range *)

  val bool : t -> bool -> unit
  val str : t -> string -> unit  (** length-prefixed bytes *)

  val length : t -> int

  val contents : t -> string
  (** The bytes written so far: the buffer itself when they fill it (a
      later write grows into a fresh buffer, so the string never
      changes), a copy otherwise. *)

  val digest : t -> Digest.t
  (** MD5 of the bytes written so far, hashed in place: equal to
      [Digest.string (contents t)] without the copy. *)
end

(** Bounds-checked cursor over immutable bytes. *)
module R : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> int
  val uint : t -> int
  val int : t -> int
  val i64 : t -> int64
  val bool : t -> bool
  val str : t -> string
end

val write_call : W.t -> Syscall.call -> unit
val read_call : R.t -> Syscall.call

val write_result : W.t -> Syscall.result -> unit
val read_result : R.t -> Syscall.result
