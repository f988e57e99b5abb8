(** IP-MON: the in-process monitor (Sections 3.2-3.9, Listing 1). One
    instance per replica; IK-B forwards policy-exempt calls here with a
    one-time token, and the instance runs the MAYBE_CHECKED / CALCSIZE /
    PRECALL / POSTCALL phases. The master runs ahead of the slaves except
    when the linear buffer is full. *)

open Remon_kernel

type instance = {
  group : Context.group;
  variant : int;
  proc : Proc.process;
  mutable entry_addr : int64; (** IP-MON's executable region here *)
  mutable rb_addr : int64; (** where the RB is mapped in this replica *)
}

val invoke :
  instance -> Proc.thread -> token:int64 -> call:Syscall.call -> Syscall.result
(** The syscall entry point IK-B forwards to (Figure 2, steps 2-4), run on
    the calling thread's fiber. Installed into the kernel by {!init}. *)

val init : ?calls:Sysno.t list -> Context.group -> variant:int -> instance
(** Runs inside the replica (program context) before the application's
    main: maps IP-MON's code region, creates/attaches the RB and file-map
    System V segments (arbitrated by GHUMVEE), and performs the
    [ipmon_register] syscall (Section 3.5). [calls] defaults to
    {!Classification.ipmon_supported}; the VARAN baseline registers every
    call. *)
