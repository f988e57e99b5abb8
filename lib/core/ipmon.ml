(* IP-MON: the in-process monitor (Sections 3.2-3.9, Listing 1).

   One instance is loaded into each replica. IK-B forwards policy-exempt
   syscalls here with a one-time token; the instance runs the four handler
   phases of Listing 1:

     MAYBE_CHECKED  - conditional-policy re-check; bounce to GHUMVEE if the
                      call should have been monitored (step 4')
     CALCSIZE       - replication-buffer space accounting; overflow triggers
                      the GHUMVEE-arbitrated buffer reset
     PRECALL        - master logs deep-copied arguments; slaves cross-check
                      their own arguments and crash intentionally on mismatch
     POSTCALL       - master publishes results (waking waiters only when
                      needed); slaves copy them (spin or condvar wait,
                      depending on the file map's blocking prediction)

   The master replica runs ahead of the slaves: it never waits for them
   except when the linear buffer is full. *)

open Remon_kernel
open Remon_sim
module Rb = Replication_buffer

type instance = {
  group : Context.group;
  variant : int;
  proc : Proc.process;
  mutable entry_addr : int64; (* IP-MON's executable region in this replica *)
  mutable rb_addr : int64; (* where the RB is mapped in this replica *)
}

let err e = Syscall.Error e

let charge = Kstate.charge

(* ------------------------------------------------------------------ *)
(* Phase 1: MAYBE_CHECKED *)

(* Re-checks the conditional policy against the (read-only) file map. For
   temporally-exempted calls the spatial check is skipped: the broker's
   stochastic decision is authoritative. *)
let maybe_checked inst (th : Proc.thread) ~token (call : Syscall.call) =
  let g = inst.group in
  if g.Context.ikb.Ikb.route_all then false (* VARAN: no policy filtering *)
  else if Ikb.was_temporal_grant th ~token then false
  else begin
    match Callinfo.fd_of call with
    | Some fd
      when File_map.class_of g.Context.file_map ~fd = Some Proc.Fd_special ->
      (* special files (e.g. the maps file) are always monitored *)
      true
    | fd_opt ->
      let on_socket =
        match fd_opt with
        | None -> false
        | Some fd -> File_map.is_socket g.Context.file_map ~fd
      in
      not (Policy.spatial_allows g.Context.policy call ~on_socket)
  end

(* ------------------------------------------------------------------ *)
(* epoll shadow map translation (Section 3.9) *)

(* Master's raw result -> logical form stored in the RB (encoded into the
   RB's int64 slots; see Epoll_map.encode). *)
let to_logical inst (result : Syscall.result) =
  match result with
  | Syscall.Ok_epoll events ->
    let logical = Epoll_map.to_logical inst.group.Context.epoll_map events in
    Syscall.Ok_epoll
      (List.map (fun (l, ev) -> (Epoll_map.encode l, ev)) logical)
  | r -> r

(* Logical form -> this variant's view. *)
let from_logical inst (result : Syscall.result) =
  match result with
  | Syscall.Ok_epoll encoded ->
    let logical = List.map (fun (v, ev) -> (Epoll_map.decode v, ev)) encoded in
    Syscall.Ok_epoll
      (Epoll_map.to_variant inst.group.Context.epoll_map ~variant:inst.variant
         logical)
  | r -> r

(* ------------------------------------------------------------------ *)
(* The entry point IK-B forwards to (Figure 2, steps 2-4) *)

(* Runs on the calling thread's fiber and answers the call's result; the
   waits on the replication buffer suspend the fiber. *)
let rec invoke inst (th : Proc.thread) ~token ~(call : Syscall.call) =
  let g = inst.group in
  if g.Context.shutdown then do_fallback inst th ~call
  else if maybe_checked inst th ~token call then do_fallback inst th ~call
  else begin
    (* CALCSIZE *)
    let bytes = Rb.record_bytes call in
    if not (Rb.fits_at_all g.Context.rb ~bytes) then do_fallback inst th ~call
    else if inst.variant = 0 then master_path inst th ~token ~call ~bytes
    else slave_path inst th ~token ~call
  end

(* Step 4': destroy the token, restart the call as a monitored call. *)
and do_fallback inst th ~call =
  let g = inst.group in
  let k = g.Context.kernel in
  g.Context.ipmon_fallbacks <- g.Context.ipmon_fallbacks + 1;
  (match Kernel.obs k with
  | None -> ()
  | Some o ->
    Remon_obs.Obs.instant o ~ts:th.Proc.clock ~cat:"ipmon" ~name:"fallback"
      ~pid:th.Proc.proc.Proc.pid ~tid:th.Proc.tid
      [ ("call", Remon_obs.Trace.Str (Syscall.to_string call)) ]);
  Ikb.destroy_token g.Context.ikb th;
  charge th (Kernel.cost k).Cost_model.ipmon_restart_ns;
  Kernel.monitor_path k th call

and master_window_ok g (th : Proc.thread) =
  match g.Context.mode.Context.runahead_window with
  | None -> true
  | Some w -> Rb.lag g.Context.rb ~rank:th.Proc.rank < w

(* Master path, one publish per record (Section 3.7). It stalls only on a
   full linear buffer, until the slaves drain it, and on a full run-ahead
   window. *)
and master_path inst th ~token ~call ~bytes =
  let g = inst.group in
  let k = g.Context.kernel in
  if Rb.would_overflow g.Context.rb ~bytes then begin
    (* Linear-buffer overflow: signal GHUMVEE, wait for the slaves to
       drain, reset (Section 3.2). The signalling syscall costs the master
       a ptrace round trip. *)
    (match Kernel.obs k with
    | None -> ()
    | Some o ->
      Remon_obs.Obs.instant o ~ts:th.Proc.clock ~cat:"ipmon"
        ~name:"overflow_wait" ~pid:th.Proc.proc.Proc.pid ~tid:th.Proc.tid
        [ ("used_bytes", Remon_obs.Trace.Int g.Context.rb.Rb.used_bytes) ]);
    charge th (Cost_model.ptrace_stop_ns (Kernel.cost k));
    Kernel.wait_until k th ~what:"rb overflow: waiting for slaves to drain"
      ~poll:(fun () -> if Rb.fully_drained g.Context.rb then Some () else None);
    Rb.reset g.Context.rb;
    Kernel.kick k
  end;
  if not (master_window_ok g th) then
    (* bounded run-ahead: the master stalls until the slowest slave
       catches up to within the window *)
    Kernel.wait_until k th ~what:"ipmon master: run-ahead window full"
      ~poll:(fun () -> if master_window_ok g th then Some () else None);
  master_proceed inst th ~token ~call ~bytes

and master_proceed inst th ~token ~call ~bytes =
  let g = inst.group in
  let k = g.Context.kernel in
  let cost = Kernel.cost k in
  (* PRECALL: deep-copy arguments + metadata into the RB *)
  let expect_block = Callinfo.may_block g.Context.file_map call in
  charge th
    (cost.Cost_model.rb_write_fixed_ns
    + Cost_model.local_copy_ns cost ~bytes:(Syscall.arg_bytes call));
  (Kernel.stats k).Kstate.rb_bytes <- (Kernel.stats k).Kstate.rb_bytes + bytes;
  Epoll_map.note_call g.Context.epoll_map ~variant:inst.variant call;
  let entry =
    Rb.master_append g.Context.rb ~rank:th.Proc.rank
      ~call:(Callinfo.normalize call) ~expect_block ~forwarded:false
  in
  Kernel.kick k (* slaves may be waiting for this record *);
  (* inlined [Ikb.execute]: verify the one-time token, then run stop-free *)
  charge th cost.Cost_model.token_check_ns;
  if Ikb.verify g.Context.ikb th ~token ~call then begin
    let r = Kernel.execute_raw k th call in
    (* POSTCALL: replicate results *)
    let logical = to_logical inst r in
    charge th
      (cost.Cost_model.rb_write_fixed_ns
      + Cost_model.local_copy_ns cost ~bytes:(Syscall.result_bytes r));
    let need_wake = Rb.master_publish g.Context.rb entry logical in
    (* fast-path calls land in the master-stream store too (no-op unless
       capture is on) *)
    Record_log.note_call g.Context.rb.Rb.sync_log ~rank:th.Proc.rank
      ~call:(Callinfo.normalize call) ~result:r;
    (* slaves pulling the record bounce its cache lines back and forth *)
    charge th ((g.Context.nreplicas - 1) * cost.Cost_model.cacheline_bounce_ns);
    (* per-record condvars (Section 3.7): skip the wake when nobody waits;
       the ablation mode wakes unconditionally *)
    if need_wake || not g.Context.mode.Context.per_call_condvar then
      charge th cost.Cost_model.futex_wake_ns;
    Kernel.kick k;
    r
  end
  else begin
    (Kernel.stats k).Kstate.tokens_rejected <-
      (Kernel.stats k).Kstate.tokens_rejected + 1;
    do_fallback inst th ~call
  end

and slave_path inst th ~token ~call =
  let g = inst.group in
  let k = g.Context.kernel in
  let cost = Kernel.cost k in
  let rank = th.Proc.rank in
  let variant = inst.variant in
  (* wait for the master's record for this call *)
  let entry =
    Kernel.wait_until k th ~what:"ipmon slave: waiting for master record"
      ~poll:(fun () -> Rb.slave_lookup g.Context.rb ~rank ~variant)
  in
  charge th
    (cost.Cost_model.rb_read_fixed_ns
    + Cost_model.compare_ns cost ~bytes:(Syscall.arg_bytes call));
  match entry.Rb.call with
  | None ->
    (* the record carries no payload (lost/dropped): nothing to verify
       against — consume the slot and bounce to the monitored path, where
       GHUMVEE's watchdog catches a master that never shows up *)
    Rb.slave_advance g.Context.rb ~rank ~variant;
    do_fallback inst th ~call
  | Some _ when entry.Rb.flags.Rb.forwarded_to_monitor ->
    (* master bounced this call to GHUMVEE; follow it *)
    Rb.slave_advance g.Context.rb ~rank ~variant;
    do_fallback inst th ~call
  | Some recorded ->
    if not (Syscall.equal_call (Callinfo.normalize call) recorded) then begin
      (* PRECALL sanity check failed: argument divergence. *)
      let verdict =
        Divergence.Args_mismatch
          {
            rank;
            index = th.Proc.syscall_index;
            expected = Divergence.render_call recorded;
            got = Divergence.render_call call;
            variant;
            detector = Divergence.By_ipmon;
          }
      in
      (* Unless the recovery policy quarantines (and kills) this replica,
         whose call then dies with it, crash intentionally so GHUMVEE
         observes it via ptrace and shuts the MVEE down (Section 3.3). *)
      if not (Context.replica_fault g ~variant verdict) then begin
        Context.set_divergence g verdict;
        Kernel.post_signal k inst.proc Sigdefs.sigsegv
      end;
      err Errno.EINTR
    end
    else begin
      Epoll_map.note_call g.Context.epoll_map ~variant call;
      match Callinfo.disposition call with
      | Callinfo.All_call ->
        (* process-local call: consume the record, execute locally
           (inlined [Ikb.execute]) *)
        Rb.slave_advance g.Context.rb ~rank ~variant;
        Kernel.kick k;
        charge th cost.Cost_model.token_check_ns;
        if Ikb.verify g.Context.ikb th ~token ~call then Kernel.execute_raw k th call
        else begin
          (Kernel.stats k).Kstate.tokens_rejected <-
            (Kernel.stats k).Kstate.tokens_rejected + 1;
          do_fallback inst th ~call
        end
      | Callinfo.Master_call ->
        (* abort the original call; the one-time token goes unused *)
        Ikb.consume_token th;
        let use_futex =
          match g.Context.mode.Context.slave_wait with
          | Context.Wait_auto -> entry.Rb.flags.Rb.expect_block
          | Context.Wait_spin_only -> false
          | Context.Wait_futex_only -> true
        in
        let wait_cost =
          if use_futex then
            (* optimized per-record condition variable (Section 3.7) *)
            cost.Cost_model.futex_wait_ns
          else (* spin-read loop *) 2 * cost.Cost_model.spin_poll_ns
        in
        entry.Rb.waiters <- entry.Rb.waiters + 1;
        let logical =
          Kernel.wait_until k th ~what:"ipmon slave: waiting for results"
            ~poll:(fun () -> entry.Rb.result)
        in
        entry.Rb.waiters <- entry.Rb.waiters - 1;
        charge th
          (wait_cost + Cost_model.local_copy_ns cost ~bytes:(Syscall.result_bytes logical));
        let r = from_logical inst logical in
        (* fd-allocating calls (VARAN handles these in-process) *)
        Callinfo.mirror_fds inst.proc call r;
        Rb.slave_advance g.Context.rb ~rank ~variant;
        Kernel.kick k (* unblock a master waiting on drain *);
        r
    end

(* ------------------------------------------------------------------ *)
(* Initialization (Section 3.5): runs inside the replica, in program
   context, before the application's main. *)

let rx = { Syscall.pr = true; pw = false; px = true }

let init ?(calls = Classification.ipmon_supported) (g : Context.group) ~variant
    : instance =
  let th = Sched.self () in
  let proc = th.Proc.proc in
  let inst = { group = g; variant; proc; entry_addr = 0L; rb_addr = 0L } in
  (* map IP-MON's executable region (its entry point lives here) *)
  (match
     Vm.map proc.Proc.vm ~len:65536 ~prot:rx ~backing:Vm.Ipmon_code ~tag:"ipmon"
   with
  | Ok r -> inst.entry_addr <- r.Vm.start
  | Error _ -> failwith "ipmon: cannot map code region");
  (* create/attach the replication buffer segment (SysV IPC, arbitrated by
     GHUMVEE: the key marks it as MVEE-internal) *)
  let rb_size = g.Context.rb.Rb.size_bytes in
  let shmid =
    match
      Sched.syscall (Syscall.Shmget { key = g.Context.shm_key; size = rb_size; create = true })
    with
    | Syscall.Ok_int id -> id
    | r -> failwith (Format.asprintf "ipmon: shmget failed: %a" Syscall.pp_result r)
  in
  (match Sched.syscall (Syscall.Shmat { shmid; readonly = false }) with
  | Syscall.Ok_int64 addr ->
    inst.rb_addr <- addr;
    (* attach the RB structure to the segment payload (master only) *)
    (match Shm.find (Kernel.shm_registry g.Context.kernel) shmid with
    | Ok seg ->
      if seg.Shm.payload = None then
        seg.Shm.payload <- Some (Rb.Rb_payload g.Context.rb)
    | Error _ -> ())
  | r -> failwith (Format.asprintf "ipmon: shmat failed: %a" Syscall.pp_result r));
  (* attach the read-only file map (Section 3.6) *)
  let fm_shmid =
    match
      Sched.syscall
        (Syscall.Shmget { key = g.Context.shm_key + 1; size = 4096; create = true })
    with
    | Syscall.Ok_int id -> id
    | _ -> failwith "ipmon: file-map shmget failed"
  in
  (match Sched.syscall (Syscall.Shmat { shmid = fm_shmid; readonly = true }) with
  | Syscall.Ok_int64 _ -> ()
  | _ -> failwith "ipmon: file-map shmat failed");
  (* register with IK-B through the new kernel syscall; the invoke closure
     is staged on the process because closures cannot travel through the
     syscall interface *)
  proc.Proc.ipmon_staged <-
    Some
      {
        Proc.unmonitored = Sysno.mask_of_list calls;
        rb_addr = inst.rb_addr;
        entry_addr = inst.entry_addr;
        invoke = (fun th ~token ~call -> invoke inst th ~token ~call);
      };
  (match
     Sched.syscall
       (Syscall.Ipmon_register
          { calls; rb_addr = inst.rb_addr; entry_addr = inst.entry_addr })
   with
  | Syscall.Ok_int 0 -> ()
  | Syscall.Error e ->
    failwith ("ipmon: registration rejected: " ^ Errno.to_string e)
  | _ -> failwith "ipmon: registration failed");
  Ikb.(g.Context.ikb.rb <- Some g.Context.rb);
  inst
