(** Versioned binary recordings of a replicated run (deployable
    record/replay, after rr): the master's full replicated stream —
    syscalls with normalized args and results, lock-order events and
    signal deliveries — as a snapshot of the {!Record_log} stream store,
    serialized with the {!Remon_kernel.Syswire} codec.

    File layout (format version 1):
    {v
    magic   "RMRC"                          4 bytes
    version u8 = 1
    header  backend / nreplicas / seed / level / on_failure / faults /
            workload (strings via the CLI's converters)
    events  uint count, then per event: u8 tag + payload
            (0 = call, 1 = lock, 2 = signal; tag 3, a batching-ring flush
            boundary, is retired and rejected as corrupt)
    trailer verdict (class + rendered, optional) then the MD5 of every
            preceding byte; no trailing bytes allowed
    v}

    Versioning policy: the magic never changes; a reader rejects any
    version it does not know with a typed error. Within version 1 the
    syscall tag space is [Sysno.index], which is append-only. *)

open Remon_kernel

val version : int

type header = {
  backend : string;  (** {!Mvee.backend_to_string} *)
  nreplicas : int;
  seed : int;
  level : string;  (** classification level, or ["monitor-all"] *)
  on_failure : string;  (** {!Mvee.on_failure_to_string} *)
  faults : string;  (** fault plan, {!Fault.to_string} *)
  workload : string;  (** registry name; [""] for ad-hoc bodies *)
  shm_key : int;
      (** the group's SysV key — allocated from a process-global counter,
          so it must be pinned for shm traffic to replay byte-identically;
          [0] = unknown *)
}

(** Re-export of {!Record_log.event}. *)
type event = Record_log.event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
      (** one replicated master call on thread [rank] *)
  | Lock of { lock_id : int; thread_rank : int }
      (** user-space lock acquisition order (Section 2.3 agent) *)
  | Signal of { rank : int; signo : int }  (** delivered/injected signal *)

type t = { header : header; events : event array; verdict : (string * string) option }
(** [verdict = Some (class, rendered)]; [None] = clean run. *)

val equal_event : event -> event -> bool
val event_to_string : event -> string

(* {1 Serialization} *)

val to_string : t -> string
val of_string : string -> (t, Syswire.error) result
(** Total: malformed input — truncation, bit flips, bad tags, trailing
    bytes, checksum mismatch — yields [Error], never an exception. *)

val to_file : t -> string -> unit
(** Atomic (tmp + rename) write. *)

val of_file : string -> (t, Syswire.error) result

val with_workload : t -> string -> t

(* {1 Digests} *)

val stream_digest : t -> string
(** MD5 (hex) over the serialized event stream alone — header-independent,
    so the same execution recorded under different labels compares equal. *)

val prefix_digests : t -> string array
(** [n+1] chained digests; element [i] covers events [0..i-1]. Element [n]
    distinguishes any two streams that differ anywhere before [n], which
    makes prefix agreement monotone — the property bisection searches. *)
