(* The record/replay agent embedded in each replica (Section 2.3).

   Multi-threaded replicas are non-deterministic: without intervention they
   may acquire user-space locks in different orders and then issue different
   syscall sequences, which a lockstep monitor would (wrongly) treat as an
   attack. The agent forces every replica to acquire user-space
   synchronization objects in the order the master acquired them.

   The master appends (lock, thread-rank) events to a log in the shared
   segment; slaves gate each acquisition until the log says it is their
   turn. The gating is a user-space wait on shared memory — no syscalls, so
   it is invisible to the monitors, exactly like the real agent. *)

open Remon_kernel

type t = {
  kernel : Kernel.t;
  log : Record_log.t;
  enabled : bool;
}

let create ~kernel ~log ~enabled = { kernel; log; enabled }

(* Master side: runs right after a successful acquisition. *)
let master_acquired t ~lock_id ~thread_rank =
  if t.enabled then begin
    Record_log.append t.log ~lock_id ~thread_rank;
    Kernel.kick t.kernel
  end

(* Slave side: runs before attempting an acquisition; returns once the
   master's log shows this (lock, rank) as the next event for us. *)
let slave_gate t ~variant ~lock_id ~thread_rank =
  if t.enabled then begin
    let ready () =
      match Record_log.peek t.log ~variant with
      | Some ev -> ev.Record_log.lock_id = lock_id && ev.thread_rank = thread_rank
      | None -> false
    in
    if not (ready ()) then Sched.wait_user ready;
    Record_log.advance t.log ~variant;
    Kernel.kick t.kernel
  end
