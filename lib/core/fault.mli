(** Deterministic fault injection.

    A fault plan names what goes wrong, where and when: replica crash
    signals, corrupted syscall-argument captures, stalled rendezvous
    arrivals, dropped or tampered replication-buffer records, and
    transient socket errors. Each replica carries {!decide} as its
    syscall-entry fault hook and {!install} sets the RB's tamper hook; the
    monitors detect the injected failures through their normal code
    paths, so the recovery layer ([Mvee.config.on_failure]) is exercised
    end to end.

    All injection is deterministic: identical seeds and plans reproduce
    identical outcomes. A plan is an immutable value; which specs have
    fired is per-run state, so runs may share a plan freely. *)

open Remon_kernel
open Remon_sim

type kind =
  | Crash of int  (** the replica dies as if killed by this signal *)
  | Corrupt_args  (** the kernel captures perturbed syscall arguments *)
  | Delay of Vtime.t  (** the arrival stalls before routing *)
  | Drop_rb  (** the master's RB record loses its payload *)
  | Corrupt_rb  (** the master's RB record is tampered with *)
  | Sock_err of Errno.t  (** transient socket error (ECONNRESET/EAGAIN) *)

type spec = {
  kind : kind;
  variant : int;  (** target replica; ignored for RB faults *)
  at : int;  (** syscall index (kernel faults) / n-th RB record (RB faults) *)
}

type plan = spec list

type t
(** One run's injector: the plan plus which of its specs have fired. *)

val spec : kind:kind -> variant:int -> at:int -> spec

val make : seed:int -> plan -> t
(** A fresh injector for one run; no spec has fired yet. *)

val injected : t -> int
(** Faults actually fired so far. *)

val decide : t -> Proc.thread -> Syscall.call -> Proc.fault_decision
(** The syscall-entry fault hook: fires the kernel-path spec matching the
    thread's variant at its current syscall index, if any. The MVEE puts it
    in each replica's [Proc.replica_info.fault], so fleet instances in one
    kernel carry independent plans. *)

val install : t -> kernel:Kernel.t -> rb:Replication_buffer.t -> unit
(** Wire the plan into the RB tamper hook; RB-path injections trace
    through [kernel]'s sink. *)

val random_plan :
  seed:int -> rate:float -> horizon:int -> nreplicas:int -> plan
(** Scatter faults over the first [horizon] syscall indices with
    probability [rate] per index; deterministic in [seed]. Used by the
    resilience bench. Never targets the master when slaves exist. *)

val chaos_plan :
  seed:int -> rate:float -> horizon:int -> nreplicas:int -> plan
(** Fleet chaos variant of {!random_plan}: every variant — the master
    included — is a legitimate target, and the kind mix is biased towards
    crashes, so whole instances go down and the fleet controller's
    eject/respawn path is exercised. Deterministic in [seed]. *)

val to_string : plan -> string

val of_string : string -> (plan, string) result
(** Parse the [--faults] syntax: comma-separated [KIND@AT[:VARIANT][=PARAM]]
    specs, e.g. ["crash@12:1,delay@30:1=5ms,droprb@5"]. Kinds: [crash]
    (SIGSEGV), [kill] (SIGKILL), [args], [delay] (needs [=DURATION] such as
    [5ms]/[200us]), [sockerr] (ECONNRESET), [again] (EAGAIN), [droprb],
    [corruptrb]. *)
