(** The record/replay agent embedded in each replica (Section 2.3): forces
    every replica to acquire user-space locks in the master's order, so
    multi-threaded replicas issue equivalent syscall sequences. The gating
    is a user-space wait on shared memory — invisible to the monitors. *)

open Remon_kernel

type t = {
  kernel : Kernel.t;
  log : Record_log.t;
  enabled : bool;
}

val create : kernel:Kernel.t -> log:Record_log.t -> enabled:bool -> t

val master_acquired : t -> lock_id:int -> thread_rank:int -> unit
(** Master side, right after a successful acquisition. *)

val slave_gate : t -> variant:int -> lock_id:int -> thread_rank:int -> unit
(** Slave side, before attempting an acquisition; returns when the log
    says it is this (lock, rank)'s turn. *)
