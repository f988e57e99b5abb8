(* GHUMVEE: the security-oriented cross-process monitor.

   Attached to every replica through the (simulated) ptrace API. All
   monitored calls execute in lockstep:

     1. every replica's matching thread (same rank) must arrive at the
        syscall-entry stop — the rendezvous;
     2. the deep-compared arguments must be equivalent (divergence kills
        the MVEE, unless the recovery policy absorbs it);
     3. for I/O calls only the master executes; results are copied into the
        slaves (transparent I/O replication, Section 2.1);
     4. deferred asynchronous signals are injected while all replicas sit
        at the equivalent rendezvous point (Sections 2.2 and 3.8).

   The monitor is a separate "process": its per-stop work is serialized
   through [busy_until], so heavy multi-threaded syscall traffic queues up
   behind the monitor exactly as it does behind a real ptrace-based MVEE.

   Recovery support. Divergences, crashes and rendezvous stalls of
   non-master replicas are first offered to the group's recovery policy via
   [Context.replica_fault]; only when the policy declines (the default
   [Kill_group]) does the monitor shut the whole set down. A quarantined
   variant's rendezvous state is purged so the remaining replicas keep
   running degraded. Under [Respawn], a fresh replica re-executes from the
   start with every call forced onto the monitored path; GHUMVEE satisfies
   each from the master's captured stream in [Record_log] (skip-with-result
   for I/O calls, pass-through for replicated calls) and splices the replica
   back into the group when it catches up with the stream at a live
   rendezvous point. *)

open Remon_kernel
open Remon_sim

type arrival = { variant : int; th : Proc.thread; call : Syscall.call }

type rstate =
  | Idle
  | Collecting of {
      arrivals : arrival list;
      count : int;
      mutable watchdog : Event_queue.handle;
    }
      (* [count = List.length arrivals], maintained so the per-arrival
         completeness check is O(1) instead of a list walk per syscall;
         [watchdog] is the armed stall timer, cancelled when the
         rendezvous completes or a purge empties it *)
  | Master_running of { slaves : arrival list; nslaves : int }
      (* the master is executing; only the waiting slaves matter at its
         exit stop, so they are pre-split (and pre-counted) here *)
  | Await_slave_exits of { mutable remaining : int }
  | All_running of { mutable remaining : int }

type t = {
  g : Context.group;
  kernel : Kernel.t;
  mutable rendezvous : rstate array; (* per thread rank, grown on first use *)
  mutable busy_until : Vtime.t;
  deferred_signals : int Queue.t;
  watchdog_ns : Vtime.t;
  replaying : (int, Record_log.cursor) Hashtbl.t option array;
      (* per variant: while respawned, its per-rank replay cursors into the
         stream store *)
  waiting_replay : (int * int, arrival) Hashtbl.t;
      (* (rank, variant) -> replaying arrival parked at the journal head *)
  mutable exits_seen : (int * int) list; (* variant, exit code *)
  mutable shutting_down : bool;
  mutable rendezvous_count : int;
}

(* Stalled-rendezvous grace periods, each doubling the delay, before the
   watchdog escalates. *)
let watchdog_retries = 2

let create (g : Context.group) ~watchdog_ns =
  {
    g;
    kernel = g.Context.kernel;
    rendezvous = Array.make 8 Idle;
    busy_until = Vtime.zero;
    deferred_signals = Queue.create ();
    watchdog_ns;
    replaying = Array.make g.Context.nreplicas None;
    waiting_replay = Hashtbl.create 4;
    exits_seen = [];
    shutting_down = false;
    rendezvous_count = 0;
  }

let rank_state t rank =
  if rank < Array.length t.rendezvous then t.rendezvous.(rank) else Idle

let set_state t rank st =
  let n = Array.length t.rendezvous in
  if rank >= n then
    t.rendezvous <-
      Array.init (max (rank + 1) (2 * n)) (fun r ->
          if r < n then t.rendezvous.(r) else Idle);
  t.rendezvous.(rank) <- st

(* The collecting rendezvous on [rank] is over (complete or emptied by a
   purge): disarm its watchdog. *)
let end_collecting t rank watchdog =
  Kernel.cancel t.kernel watchdog;
  set_state t rank Idle

let variant_of (p : Proc.process) =
  match p.Proc.replica_info with
  | Some { Proc.variant_index; _ } -> variant_index
  | None -> -1

(* The replay cursors of [variant] while it is respawned and replaying. *)
let replay_cursors t variant =
  if variant >= 0 then t.replaying.(variant) else None

let is_replaying t ~variant = replay_cursors t variant <> None

let store t = t.g.Context.rb.Replication_buffer.sync_log

(* Charges the monitor's serialized processing time starting no earlier
   than [earliest], and returns the completion instant. *)
let monitor_work t ~earliest ~work_ns =
  let t0 = Vtime.max earliest (Vtime.max t.busy_until (Kernel.now t.kernel)) in
  let done_at = Vtime.add t0 (Vtime.ns work_ns) in
  t.busy_until <- done_at;
  done_at

(* ------------------------------------------------------------------ *)
(* Shutdown *)

let shutdown t verdict =
  if not t.shutting_down then begin
    t.shutting_down <- true;
    t.g.Context.shutdown <- true;
    Context.set_divergence t.g verdict;
    Array.iter
      (fun p -> Kernel.kill_process t.kernel p ~code:134)
      t.g.Context.replicas
  end

(* Operator-initiated teardown (fleet rolling restarts): stop monitoring
   without recording a divergence verdict — pending watchdogs go quiet. *)
let quiesce t =
  t.shutting_down <- true;
  t.g.Context.shutdown <- true

(* Offer a non-master replica fault to the recovery policy; escalate to the
   group-killing verdict when the policy declines. *)
let recover_or_shutdown t ~variant verdict =
  if variant = 0 || not (Context.replica_fault t.g ~variant verdict) then
    shutdown t verdict

(* Called via process-exit waiters when a replica dies abnormally (e.g. the
   intentional crash IP-MON uses to signal divergence, or an injected crash
   fault). Quarantined and replaying replicas die under monitor control;
   their exits are not faults. *)
let replica_died t ~variant ~code =
  if
    (not t.shutting_down) && code >= 128
    && not (Context.is_quarantined t.g variant)
  then
    recover_or_shutdown t ~variant
      (Divergence.Replica_crash { variant; signal = code - 128 })

(* ------------------------------------------------------------------ *)
(* Monitored-call handling *)

(* Shared-memory policy (Section 2.1): reject writable segments that could
   form unmonitored bi-directional channels between replicas, except the
   MVEE's own RB / file-map segments. *)
let shm_verdict (call : Syscall.call) =
  match call with
  | Syscall.Shmget { key; _ } when key < Context.mvee_shm_key_base ->
    Some (Syscall.Error Errno.EACCES)
  | Syscall.Shmat _ -> None (* shmat of an approved segment is fine *)
  | _ -> None

(* Translates the master's result for one slave variant and installs any
   descriptor stubs so fd numbering stays aligned. *)
let translate_for_slave t ~(arrival : arrival) ~(call : Syscall.call)
    (result : Syscall.result) =
  Callinfo.mirror_fds arrival.th.Proc.proc call result;
  match result with
  | Syscall.Ok_epoll events ->
    let logical = Epoll_map.to_logical t.g.Context.epoll_map events in
    Syscall.Ok_epoll
      (Epoll_map.to_variant t.g.Context.epoll_map ~variant:arrival.variant logical)
  | r -> r

(* Post-execution bookkeeping on the master's side. *)
let master_side_effects t ~(call : Syscall.call) (result : Syscall.result) =
  let master = t.g.Context.replicas.(0) in
  (* keep the IP-MON file map in sync with fd lifecycle changes *)
  if Callinfo.changes_fds call then
    File_map.sync_from_process t.g.Context.file_map master;
  (* filter the maps file: hide IP-MON and RB regions (Section 3.6) *)
  match (call, result) with
  | (Syscall.Open ("/proc/self/maps", _) | Syscall.Openat ("/proc/self/maps", _)),
    Syscall.Ok_int fd -> (
    match Proc.desc_of_fd master fd with
    | Some { kind = Proc.Proc_maps pm; _ } ->
      let hide (r : Vm.region) =
        match r.Vm.backing with
        | Vm.Ipmon_code | Vm.Shm_seg _ -> true
        | _ -> false
      in
      pm.content <- Vm.maps_text ~hide master.Proc.vm
    | _ -> ())
  | _ -> ()

(* Injects deferred asynchronous signals now that every replica sits at an
   equivalent rendezvous point. *)
let inject_deferred t (arrivals : arrival list) =
  while not (Queue.is_empty t.deferred_signals) do
    let sg = Queue.pop t.deferred_signals in
    (* every replica receives the injection at the same logical point, so
       the recording carries one event, stamped with the rendezvous rank *)
    (match arrivals with
    | a :: _ -> Record_log.note_signal (store t) ~rank:a.th.Proc.rank ~signo:sg
    | [] -> ());
    List.iter (fun a -> Kernel.inject_signal_now t.kernel a.th sg) arrivals
  done;
  t.g.Context.rb.Replication_buffer.signals_pending <- false

(* The rendezvous is complete: compare, decide, resume. When a slave's
   arguments diverge, the recovery policy may quarantine it, in which case
   the rendezvous is re-run with the survivors. *)
let rec process_rendezvous t rank (arrivals : arrival list) =
  t.rendezvous_count <- t.rendezvous_count + 1;
  let arrivals =
    List.sort (fun a b -> compare a.variant b.variant) arrivals
  in
  let master_arrival = List.hd arrivals in
  let narrivals = List.length arrivals in
  let call = master_arrival.call in
  let cost = Kernel.cost t.kernel in
  (* serialize through the monitor and charge comparison work *)
  let latest_arrival =
    List.fold_left (fun acc a -> Vtime.max acc a.th.Proc.clock) Vtime.zero arrivals
  in
  let work =
    cost.Cost_model.monitor_work_ns
    + Cost_model.compare_ns cost ~bytes:(Syscall.arg_bytes call * narrivals)
  in
  let done_at = monitor_work t ~earliest:latest_arrival ~work_ns:work in
  List.iter
    (fun a -> a.th.Proc.clock <- Vtime.max a.th.Proc.clock done_at)
    arrivals;
  (match Kernel.obs t.kernel with
  | None -> ()
  | Some o ->
    Remon_obs.Obs.instant o ~ts:done_at ~cat:"rendezvous"
      ~name:"release" ~pid:0 ~tid:0
      [
        ("rank", Remon_obs.Trace.Int rank);
        ("arrivals", Remon_obs.Trace.Int narrivals);
        ("call", Remon_obs.Trace.Str (Syscall.to_string call));
      ]);
  (* deep argument comparison *)
  let mismatch =
    List.find_opt
      (fun a -> not (Callinfo.equal_normalized a.call call))
      (List.tl arrivals)
  in
  match mismatch with
  | Some bad ->
    let verdict =
      Divergence.Args_mismatch
        {
          rank;
          index = bad.th.Proc.syscall_index;
          expected = Divergence.render_call call;
          got = Divergence.render_call bad.call;
          variant = bad.variant;
          detector = Divergence.By_ghumvee;
        }
    in
    (match Kernel.obs t.kernel with
    | None -> ()
    | Some o ->
      Remon_obs.Obs.instant o ~ts:done_at ~cat:"rendezvous"
        ~name:"args_mismatch" ~pid:0 ~tid:0
        [
          ("rank", Remon_obs.Trace.Int rank);
          ("variant", Remon_obs.Trace.Int bad.variant);
        ]);
    if Context.replica_fault t.g ~variant:bad.variant verdict then
      (* the bad replica was quarantined (and killed); the survivors still
         sit at their entry stops — re-run the rendezvous without it *)
      process_rendezvous t rank
        (List.filter (fun a -> a.variant <> bad.variant) arrivals)
    else shutdown t verdict
  | None -> (
    (* equivalent states: temporal-policy feedback + deferred signals *)
    Ikb.note_approval t.g.Context.ikb (Syscall.number call);
    if not (Queue.is_empty t.deferred_signals) then inject_deferred t arrivals;
    (* epoll registrations carry per-variant pointers: record them *)
    List.iter
      (fun a -> Epoll_map.note_call t.g.Context.epoll_map ~variant:a.variant a.call)
      arrivals;
    (* shared-memory policy *)
    match shm_verdict call with
    | Some denial ->
      (* rejection is a policy action, not a divergence: deny in all *)
      Record_log.note_call (store t) ~rank
        ~call:(Callinfo.normalize call) ~result:denial;
      set_state t rank Idle;
      List.iter
        (fun a -> Kernel.resume t.kernel a.th (Proc.Resume_skip denial))
        arrivals
    | None -> (
      match Callinfo.disposition call with
      | Callinfo.All_call ->
        set_state t rank (All_running { remaining = narrivals });
        List.iter
          (fun a -> Kernel.resume t.kernel a.th Proc.Resume_continue)
          arrivals
      | Callinfo.Master_call ->
        (* arrivals are sorted by variant, master first *)
        set_state t rank
          (Master_running { slaves = List.tl arrivals; nslaves = narrivals - 1 });
        Kernel.resume t.kernel master_arrival.th Proc.Resume_continue))

(* ------------------------------------------------------------------ *)
(* Quarantine support *)

(* Remove a quarantined variant from all in-flight rendezvous state so the
   surviving replicas are not stranded waiting for it. Called by the
   recovery handler right after the variant's process is killed. *)
let purge_variant t ~variant =
  t.replaying.(variant) <- None;
  let stale =
    Hashtbl.fold
      (fun ((_, v) as key) _ acc -> if v = variant then key :: acc else acc)
      t.waiting_replay []
  in
  List.iter (Hashtbl.remove t.waiting_replay) stale;
  (* ranks in ascending order; a rank that a re-run rendezvous below
     brings into use is not visited *)
  for rank = 0 to Array.length t.rendezvous - 1 do
    match rank_state t rank with
    | Idle -> ()
    | Collecting { arrivals; watchdog; _ } -> (
      let arrivals = List.filter (fun a -> a.variant <> variant) arrivals in
      match arrivals with
      | [] -> end_collecting t rank watchdog
      | _ ->
        let count = List.length arrivals in
        if count >= Context.active_count t.g then begin
          end_collecting t rank watchdog;
          process_rendezvous t rank arrivals
        end
        else set_state t rank (Collecting { arrivals; count; watchdog }))
    | Master_running { slaves; _ } ->
      let slaves = List.filter (fun a -> a.variant <> variant) slaves in
      set_state t rank
        (Master_running { slaves; nslaves = List.length slaves })
    | Await_slave_exits st ->
      st.remaining <- st.remaining - 1;
      if st.remaining <= 0 then set_state t rank Idle
    | All_running st ->
      st.remaining <- st.remaining - 1;
      if st.remaining <= 0 then set_state t rank Idle
  done

(* ------------------------------------------------------------------ *)
(* Stop-event handlers *)

(* Armed when a rendezvous starts collecting and kept with it until it
   completes or a purge empties it, whatever the replica count. Bounded
   retry with doubled delay: a stalled arrival (e.g. an injected
   rendezvous delay) gets [watchdog_retries] grace periods before the
   monitor escalates. Escalation quarantines the missing slaves when the
   policy allows; a missing master (or a declined policy) kills the group.
   Once every replica has exited there is nothing left to stall: a
   half-collected rendezvous (an [exit_group] killed the thread the others
   were waiting for) is not a timeout. *)
let rec arm_watchdog t rank ~attempt =
  let delay = Vtime.scale t.watchdog_ns (2. ** float_of_int attempt) in
  Kernel.schedule_at t.kernel
    ~time:(Vtime.add (Kernel.now t.kernel) delay)
    (fun () ->
      if
        (not t.shutting_down)
        && Array.exists (fun (p : Proc.process) -> p.Proc.alive)
             t.g.Context.replicas
      then begin
        match rank_state t rank with
        | Collecting c ->
          if attempt < watchdog_retries then begin
            t.g.Context.watchdog_retries <- t.g.Context.watchdog_retries + 1;
            (match Kernel.obs t.kernel with
            | None -> ()
            | Some o ->
              Remon_obs.Obs.instant o ~ts:(Kernel.now t.kernel)
                ~cat:"rendezvous" ~name:"watchdog_retry" ~pid:0 ~tid:0
                [
                  ("rank", Remon_obs.Trace.Int rank);
                  ("attempt", Remon_obs.Trace.Int attempt);
                ]);
            c.watchdog <- arm_watchdog t rank ~attempt:(attempt + 1)
          end
          else begin
            (match Kernel.obs t.kernel with
            | None -> ()
            | Some o ->
              Remon_obs.Obs.instant o ~ts:(Kernel.now t.kernel)
                ~cat:"rendezvous" ~name:"watchdog_timeout" ~pid:0 ~tid:0
                [ ("rank", Remon_obs.Trace.Int rank) ]);
            let present = List.map (fun a -> a.variant) c.arrivals in
            let missing =
              List.filter
                (fun v -> not (List.mem v present))
                (Context.active_variants t.g)
            in
            let a = List.hd c.arrivals in
            let index = a.th.Proc.syscall_index in
            let verdict =
              Divergence.Rendezvous_timeout { rank; index; missing }
            in
            if List.mem 0 missing then shutdown t verdict
            else if
              not
                (List.for_all
                   (fun v ->
                     Context.replica_fault t.g ~variant:v
                       (Divergence.Rendezvous_timeout
                          { rank; index; missing = [ v ] }))
                   missing)
            then shutdown t verdict
          end
        | _ -> ()
      end)

(* A respawned variant finished its journal replay: splice it back in. *)
let rejoin_variant t ~variant =
  t.replaying.(variant) <- None;
  Ikb.set_replaying t.g.Context.ikb ~variant false;
  Replication_buffer.reactivate t.g.Context.rb ~variant;
  Context.rejoin t.g ~variant

let rec handle_entry t (th : Proc.thread) (call : Syscall.call) =
  if t.shutting_down then () (* replicas are being killed; leave it stopped *)
  else begin
    let rank = th.Proc.rank in
    let variant = variant_of th.Proc.proc in
    match replay_cursors t variant with
    | Some cursors -> replay_entry t th call ~variant ~cursors
    | None ->
      (* replaying variants parked at the journal head rejoin at the
         master's next monitored entry: their parked call is this very
         rendezvous *)
      if variant = 0 then flush_waiting_rejoin t ~rank;
      (match Kernel.obs t.kernel with
      | None -> ()
      | Some o ->
        Remon_obs.Obs.instant o ~ts:th.Proc.clock ~cat:"rendezvous"
          ~name:"collect" ~pid:0 ~tid:0
          [
            ("rank", Remon_obs.Trace.Int rank);
            ("variant", Remon_obs.Trace.Int variant);
            ("index", Remon_obs.Trace.Int th.Proc.syscall_index);
          ]);
      let arrival = { variant; th; call } in
      (match rank_state t rank with
      | Idle ->
        if Context.active_count t.g = 1 then process_rendezvous t rank [ arrival ]
        else
          set_state t rank
            (Collecting
               {
                 arrivals = [ arrival ];
                 count = 1;
                 watchdog = arm_watchdog t rank ~attempt:0;
               })
      | Collecting { arrivals; count; watchdog } ->
        let arrivals = arrival :: arrivals in
        let count = count + 1 in
        if count >= Context.active_count t.g then begin
          end_collecting t rank watchdog;
          process_rendezvous t rank arrivals
        end
        else set_state t rank (Collecting { arrivals; count; watchdog })
      | Master_running _ | Await_slave_exits _ | All_running _ ->
        (* a thread re-entered the kernel while its rank's previous call is
           still being processed: possible under attack; treat as sequence
           divergence *)
        shutdown t
          (Divergence.Sequence_mismatch
             {
               rank;
               index = th.Proc.syscall_index;
               calls = [ Divergence.render_call call ];
             }))
  end

(* One replayed call of a respawned replica: verify it against the master's
   stream and satisfy it the way the original execution went. *)
and replay_entry t (th : Proc.thread) (call : Syscall.call) ~variant ~cursors
    =
  let rank = th.Proc.rank in
  let cursor =
    match Hashtbl.find_opt cursors rank with
    | Some c -> c
    | None ->
      let c = Record_log.cursor ~rank in
      Hashtbl.replace cursors rank c;
      c
  in
  match Record_log.next_call (store t) cursor with
  | Some (jcall, jresult) ->
    if not (Callinfo.equal_normalized call jcall) then begin
      (* the replay diverged from the journal: the respawn failed; the
         replica dies and stays quarantined *)
      t.replaying.(variant) <- None;
      Ikb.set_replaying t.g.Context.ikb ~variant false;
      Kernel.kill_process t.kernel th.Proc.proc ~code:134
    end
    else begin
      let cost = Kernel.cost t.kernel in
      (* the follower replays in-process from the shared stream — it pays
         no ptrace round trip and does not serialize through the monitor;
         refund the entry-stop charge and bill the cheap replay step, or
         the follower could never outpace the master and catch up *)
      th.Proc.clock <-
        Vtime.add
          (Vtime.sub th.Proc.clock (Vtime.ns (Cost_model.ptrace_stop_ns cost)))
          (Vtime.ns cost.Cost_model.replay_record_ns);
      match Callinfo.disposition jcall with
      | Callinfo.Master_call ->
        let r =
          translate_for_slave t ~arrival:{ variant; th; call } ~call jresult
        in
        Kernel.resume t.kernel th (Proc.Resume_skip r)
      | Callinfo.All_call -> Kernel.resume t.kernel th Proc.Resume_continue
    end
  | None -> (
    (* caught up with everything the master has done; degraded time stops
       accruing here, not at the (possibly much later) lockstep rejoin *)
    Context.note_caught_up t.g ~at:th.Proc.clock;
    match rank_state t rank with
    | Collecting _ ->
      (* a live rendezvous is pending on this rank: this very call is the
         one being collected — rejoin and take part *)
      rejoin_variant t ~variant;
      handle_entry t th call
    | _ ->
      (* park until the journal grows or the master reaches a rendezvous *)
      Hashtbl.replace t.waiting_replay (rank, variant) { variant; th; call })

(* The store gained a call on [rank]: parked replaying arrivals can
   consume it. Wired to [Record_log.set_on_call]. *)
and feed_waiting t ~rank =
  let parked =
    Hashtbl.fold
      (fun (r, _) a acc -> if r = rank then a :: acc else acc)
      t.waiting_replay []
  in
  List.iter
    (fun (a : arrival) ->
      if is_replaying t ~variant:a.variant then begin
        Hashtbl.remove t.waiting_replay (rank, a.variant);
        handle_entry t a.th a.call
      end)
    parked

(* The master reached a monitored entry on [rank]: parked arrivals that
   drained the journal are synchronized with it — rejoin them first so the
   rendezvous counts them. *)
and flush_waiting_rejoin t ~rank =
  if Hashtbl.length t.waiting_replay > 0 then
    let parked =
      Hashtbl.fold
        (fun (r, _) a acc -> if r = rank then a :: acc else acc)
        t.waiting_replay []
    in
    List.iter
      (fun (a : arrival) ->
        if is_replaying t ~variant:a.variant then begin
          Hashtbl.remove t.waiting_replay (rank, a.variant);
          rejoin_variant t ~variant:a.variant;
          handle_entry t a.th a.call
        end)
      parked

(* Install the journal feed; idempotent, called when Respawn is armed. *)
let enable_replay_feed t =
  Record_log.set_on_call (store t) (fun ~rank -> feed_waiting t ~rank)

(* A respawned variant starts replaying the journal from the beginning. *)
let begin_replay t ~variant =
  enable_replay_feed t;
  (match Kernel.obs t.kernel with
  | None -> ()
  | Some o ->
    Remon_obs.Obs.instant o ~ts:(Kernel.now t.kernel) ~cat:"rendezvous"
      ~name:"respawn_replay" ~pid:0 ~tid:0
      [ ("variant", Remon_obs.Trace.Int variant) ]);
  t.replaying.(variant) <- Some (Hashtbl.create 4);
  Ikb.set_replaying t.g.Context.ikb ~variant true

let handle_exit t (th : Proc.thread) (call : Syscall.call)
    (result : Syscall.result) =
  if t.shutting_down then ()
  else begin
    let rank = th.Proc.rank in
    let variant = variant_of th.Proc.proc in
    let replaying = is_replaying t ~variant in
    if replaying || Context.is_quarantined t.g variant then begin
      (* replayed All_calls run to completion outside any rendezvous; the
         exit stop is ptrace-free for the in-process follower too *)
      if replaying then
        th.Proc.clock <-
          Vtime.sub th.Proc.clock
            (Vtime.ns (Cost_model.ptrace_stop_ns (Kernel.cost t.kernel)));
      Kernel.resume t.kernel th Proc.Resume_continue
    end
    else begin
      let cost = Kernel.cost t.kernel in
      match rank_state t rank with
      | Master_running { slaves; nslaves } when variant = 0 ->
        (* master finished: replicate results to the waiting slaves *)
        master_side_effects t ~call result;
        Record_log.note_call (store t) ~rank
          ~call:(Callinfo.normalize call) ~result;
        let bytes = Syscall.result_bytes result in
        let done_at =
          monitor_work t ~earliest:th.Proc.clock
            ~work_ns:(cost.Cost_model.monitor_work_ns + Cost_model.copy_ns cost ~bytes)
        in
        th.Proc.clock <- Vtime.max th.Proc.clock done_at;
        (* transition the rank state *before* resuming anyone: the slaves'
           skip-exit stops arrive synchronously and must find it *)
        (match slaves with
        | [] -> set_state t rank Idle
        | _ -> set_state t rank (Await_slave_exits { remaining = nslaves }));
        List.iter
          (fun a ->
            let r = translate_for_slave t ~arrival:a ~call:a.call result in
            a.th.Proc.clock <-
              Vtime.add
                (Vtime.max a.th.Proc.clock done_at)
                (Vtime.ns (Cost_model.copy_ns cost ~bytes));
            Kernel.resume t.kernel a.th (Proc.Resume_skip r))
          slaves;
        Kernel.resume t.kernel th Proc.Resume_continue
      | Await_slave_exits st ->
        st.remaining <- st.remaining - 1;
        if st.remaining = 0 then set_state t rank Idle;
        Kernel.resume t.kernel th Proc.Resume_continue
      | All_running st ->
        if variant = 0 then
          Record_log.note_call (store t) ~rank
            ~call:(Callinfo.normalize call) ~result;
        st.remaining <- st.remaining - 1;
        if st.remaining = 0 then set_state t rank Idle;
        Kernel.resume t.kernel th Proc.Resume_continue
      | Idle | Collecting _ | Master_running _ ->
        (* exit stop with no rendezvous in flight (e.g. after a skip/fallback
           path): just let it through *)
        Kernel.resume t.kernel th Proc.Resume_continue
    end
  end

let handle_signal t (th : Proc.thread) sg =
  if t.shutting_down then ()
  else if Sigdefs.synchronous sg then begin
    Record_log.note_signal (store t) ~rank:th.Proc.rank ~signo:sg;
    Kernel.resume t.kernel th Proc.Resume_deliver
  end
  else begin
    (* defer: take ownership and set the RB flag so replicas restart calls
       as monitored calls until the injection happens (Section 3.8) *)
    Queue.push sg t.deferred_signals;
    t.g.Context.rb.Replication_buffer.signals_pending <- true;
    (* abort the master's blocked unmonitored calls so it reaches a
       rendezvous quickly *)
    Array.iter
      (fun (p : Proc.process) ->
        Remon_util.Vec.iter
          (fun (other : Proc.thread) ->
            if other != th then
              ignore
                (Kernel.interrupt_blocked t.kernel other
                   (Syscall.Error Errno.EINTR)))
          p.Proc.threads)
      t.g.Context.replicas;
    Kernel.resume t.kernel th Proc.Resume_suppress
  end

let handle_death t (th : Proc.thread) code =
  let variant = variant_of th.Proc.proc in
  (* quarantined / replaying replicas die under monitor control: their
     exits don't take part in the exit-code agreement check *)
  if
    not
      (Context.is_quarantined t.g variant || is_replaying t ~variant)
  then begin
    t.exits_seen <- (variant, code) :: t.exits_seen;
    if not t.shutting_down then begin
      (* when all active replicas have exited, verify the exit codes agree *)
      let active = Context.active_variants t.g in
      let seen_active =
        List.filter (fun (v, _) -> List.mem v active) t.exits_seen
      in
      let exited = List.sort_uniq compare (List.map fst seen_active) in
      if List.length exited = Context.active_count t.g then begin
        let codes = List.sort_uniq compare (List.map snd seen_active) in
        if List.length codes > 1 then
          Context.set_divergence t.g
            (Divergence.Exit_mismatch { codes = List.rev seen_active })
      end
    end
  end;
  Kernel.resume t.kernel th Proc.Resume_continue

(* ------------------------------------------------------------------ *)
(* Attachment *)

let tracer t =
  {
    Proc.tracer_name = "ghumvee";
    on_stop =
      (fun th reason ->
        match reason with
        | Proc.Syscall_entry_stop call -> handle_entry t th call
        | Proc.Syscall_exit_stop (call, result) -> handle_exit t th call result
        | Proc.Signal_delivery_stop sg -> handle_signal t th sg
        | Proc.Exit_stop code -> handle_death t th code);
  }

let attach t (p : Proc.process) =
  Kernel.attach_tracer p (tracer t);
  let variant = variant_of p in
  Kernel.on_process_exit p (fun code -> replica_died t ~variant ~code)
