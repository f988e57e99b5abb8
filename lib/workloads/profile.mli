(** Profile-driven synthetic workloads: each benchmark from the paper's
    suites is a syscall profile (threads, per-thread call density, op mix).
    All randomness is keyed by profile name and thread rank — never by the
    replica index — so replicas issue identical sequences. *)

open Remon_core

type op =
  | Op_gettime (** BASE unconditional *)
  | Op_getpid (** BASE unconditional *)
  | Op_yield (** BASE unconditional *)
  | Op_stat (** NONSOCKET_RO unconditional *)
  | Op_read_file of int (** NONSOCKET_RO conditional (pread of n bytes) *)
  | Op_write_file of int (** NONSOCKET_RW conditional (pwrite) *)
  | Op_pipe_rw of int (** write+read on a pipe *)
  | Op_sock_rw of int (** send+recv on a socketpair: SOCKET levels *)
  | Op_poll_sock (** poll on a socket: SOCKET_RO *)
  | Op_lock (** user-space lock/unlock: exercises the rr agent, no syscall *)
  | Op_open_close (** always monitored: fd lifecycle *)

type t = {
  name : string;
  threads : int;
  density_hz : float; (** syscalls per second per worker thread *)
  total_calls_per_thread : int;
  mix : (float * op) list;
  jitter : float;
  mem_pressure : float;
      (** relative compute slowdown per co-running replica (cache and
          memory-bandwidth pressure, the paper's residual cost) *)
  description : string;
}

val make :
  name:string ->
  ?threads:int ->
  density_hz:float ->
  ?calls:int ->
  ?jitter:float ->
  ?mem_pressure:float ->
  mix:(float * op) list ->
  description:string ->
  unit ->
  t

val body : t -> Mvee.env -> unit
(** The program every replica runs: sets up fixtures, spawns workers, joins. *)

(** {1 Mix archetypes} *)

val mix_compute : (float * op) list
val mix_file_ro : (float * op) list
val mix_file_rw : (float * op) list
val mix_pipe : (float * op) list
val mix_sock : (float * op) list
val mix_sync : (float * op) list
val mix_interp : (float * op) list
val mix_unpack : (float * op) list

(** {1 Calibration} *)

val monitored_fraction : (float * op) list -> float

val fit : paper_no:float -> paper_ip:float -> mix:(float * op) list -> float * float
(** Solves (density, memory pressure) from a benchmark's two published
    bars; the suites' only fitted parameters. *)
