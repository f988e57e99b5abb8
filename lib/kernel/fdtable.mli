(** A process's descriptor table, laid out like Linux's [struct fdtable]: a
    slot array indexed by fd plus a [next_fd] lowest-free hint. Lookups are
    array reads, lowest-free allocation is amortized O(1) for open-all /
    close-all patterns, and iteration runs in ascending fd order. *)

type 'a t

val limit : int
(** One past the highest fd the table holds: 2^20, Linux's default
    [fs.nr_open]. *)

val in_range : int -> bool
(** [0 <= fd < limit]: whether an explicit fd number (a dup2/dup3 target,
    an F_DUPFD minimum) is acceptable. *)

val create : unit -> 'a t
(** An empty table with 16 slots. *)

val find : 'a t -> int -> 'a option
(** The entry at [fd]; [None] when it is closed or out of range. Does not
    allocate. *)

val mem : 'a t -> int -> bool

val alloc : 'a t -> from:int -> 'a -> int
(** Installs the entry at the lowest free fd [>= from] and returns that fd.
    Raises [Invalid_argument] unless [in_range from]. *)

val set : 'a t -> int -> 'a -> unit
(** Installs the entry at [fd], replacing any entry there. Raises
    [Invalid_argument] unless [in_range fd]. *)

val remove : 'a t -> int -> unit
(** Frees [fd]; a no-op when it is already free. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending fd order. The function must not modify the table. *)

val bindings : 'a t -> (int * 'a) list
(** Every open fd with its entry, in ascending fd order. *)

val reset : 'a t -> unit
(** Frees every fd and shrinks the table back to its initial size. *)
