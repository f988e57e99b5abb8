(** In-memory filesystem: a tree of inodes with regular files, directories,
    symlinks and special (generated-content) nodes. Shared by every process
    of a kernel instance — MVEE transparency means only the master replica
    may mutate it. *)

type filebuf = { mutable bytes : Bytes.t; mutable size : int }
(** Regular-file backing store: growable byte array with explicit size;
    appends are amortized O(1). *)

type node = {
  ino : int;
  mutable kind : kind;
  mutable mtime_ns : int;
  mutable xattrs : (string * string) list;
}

and kind =
  | Reg of filebuf
  | Dir of (string, node) Hashtbl.t
  | Symlink of string

type t

val create : unit -> t

val resolve : t -> string -> (node, Errno.t) result
(** Follows symlinks (bounded depth; ELOOP beyond 16). *)

val resolve_nofollow : t -> string -> (node, Errno.t) result
(** Does not follow a symlink in the final component. *)

val exists : t -> string -> bool
val mkdir : t -> string -> (node, Errno.t) result
val mkdir_p : t -> string -> (node, Errno.t) result
val create_file : t -> string -> (node, Errno.t) result
val symlink : t -> target:string -> path:string -> (node, Errno.t) result
val unlink : t -> string -> (unit, Errno.t) result
val rmdir : t -> string -> (unit, Errno.t) result
val rename : t -> src:string -> dst:string -> (unit, Errno.t) result
val list_dir : node -> (string list, Errno.t) result
val file_size : node -> int
val stat_kind : node -> [ `Reg | `Dir | `Fifo | `Sock | `Special ]
val max_file_size : int
(** The largest regular file, in the role of a Linux filesystem's
    [s_maxbytes] (2^28 bytes): far above any workload's files, and a bound
    on the host memory one file can claim. *)

val read_at : node -> offset:int -> count:int -> (string, Errno.t) result

val write_at : node -> offset:int -> data:string -> now_ns:int -> (int, Errno.t) result
(** Writes at a non-negative [offset], extending the file as needed. An
    empty write changes nothing; a write starting at or past
    {!max_file_size} fails with EFBIG, and one crossing it is cut short. *)

val truncate : node -> size:int -> now_ns:int -> (unit, Errno.t) result
(** EFBIG past {!max_file_size}. *)

val parent_and_name : t -> string -> (node * string, Errno.t) result
(** The directory containing [path]'s final component, plus that name. *)
