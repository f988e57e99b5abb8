(** Divergence verdicts: why an MVEE run was terminated, and which
    component detected it. *)

open Remon_kernel

type detector = By_ghumvee | By_ipmon | By_ikb

type t =
  | Args_mismatch of {
      rank : int;
      index : int;
      expected : string;
      got : string;
      variant : int;
      detector : detector;
    }
  | Sequence_mismatch of { rank : int; index : int; calls : string list }
  | Rendezvous_timeout of { rank : int; index : int; missing : int list }
  | Replica_crash of { variant : int; signal : int }
  | Exit_mismatch of { codes : (int * int) list }
  | Token_violation of { variant : int; call : string }
  | Shared_memory_rejected of { variant : int }

val to_string : t -> string

val class_of : t -> string
(** The constructor alone, without its payload — what replay-under-a-
    different-backend compares, since payloads legitimately differ across
    detectors. *)

val render_call : Syscall.call -> string
(** Rendering used inside verdicts. *)

(** {1 Replay divergence (time-travel bisection report)} *)

(** Where a replayed stream first forks from a recording, with a ±K-record
    context window. Produced by {!Replayer.bisect}. *)
type replay_divergence = {
  first_rank : int;  (** first stream index where the digests fork *)
  total_recorded : int;
  total_replayed : int;
  thread_rank : int option;  (** thread rank of the divergent record *)
  syscall : string option;  (** rendered divergent call, when it is one *)
  recorded_ev : string option;  (** rendered events at [first_rank] *)
  replayed_ev : string option;
  context : (int * string option * string option) list;
      (** ±K window around the fork: index, recorded, replayed *)
}

val replay_divergence_to_string : replay_divergence -> string
