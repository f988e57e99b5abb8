(* IK-B: the in-kernel broker (Sections 3 and 3.1).

   The broker sits on the kernel's syscall path. For every syscall issued by
   a replica it decides whether the call may be completed by IP-MON without
   cross-process monitoring (granting a one-time 64-bit authorization
   token), or must be reported to GHUMVEE over ptrace.

   Security invariants enforced here (Section 3.1):
   - only the interceptor generates tokens, and each is single-use;
   - a forwarded call may only be completed with its token intact, by the
     same thread, for the same call, from within IP-MON's entry point;
   - if the first syscall after a grant does not originate from IP-MON, the
     token is revoked and the call is forcibly monitored;
   - calls that could tamper with IP-MON itself (mprotect/mremap/...) and
     reads of /proc/self/maps are always forwarded to GHUMVEE. *)

open Remon_kernel
open Remon_util
module K = Kstate

type t = {
  kernel : Kernel.t;
  mutable policy : Policy.t;
  rng : Rng.t; (* token generator; each thread's token is [Proc.ikb_token] *)
  temporal_state : Policy.temporal_state;
  temporal_decisions : (int * int, bool) Hashtbl.t;
      (* (thread rank, syscall index) -> exemption decision. The stochastic
         draw is made once per *logical* call and reused by every replica,
         otherwise replicas would be routed asymmetrically. *)
  mutable rb : Replication_buffer.t option;
      (* set once IP-MON registers; consulted for the signals_pending flag
         (Section 3.8: calls restart as monitored while a signal is pending) *)
  mutable route_all : bool;
      (* VARAN baseline: forward every supported call to the in-process
         agents, with no policy filtering and no lockstep *)
  mutable master_proc : Proc.process option;
      (* the broker lives in the kernel: descriptor classification uses the
         authoritative (master) fd table, since slave tables hold stubs *)
  replaying : bool array;
      (* per variant: resynchronizing from the journal, so every call it
         makes is forced onto the monitored path for GHUMVEE to
         replay-verify *)
}

let create ~kernel ~policy ~seed ~nreplicas =
  {
    kernel;
    policy;
    rng = Rng.make seed;
    temporal_state = Policy.make_temporal_state ~seed:(seed lxor 0x5bd1e995);
    temporal_decisions = Hashtbl.create 64;
    rb = None;
    route_all = false;
    master_proc = None;
    replaying = Array.make nreplicas false;
  }

let fresh_token t =
  (* 64 random bits; zero is reserved as "no token" *)
  let rec draw () =
    let v = Rng.int64 t.rng in
    if Int64.equal v 0L then draw () else v
  in
  draw ()

(* Token-lifecycle observability: grants and revocations are counts only
   (one per fast-path call — instants would dwarf the trace); rejections
   are rare and security-relevant, so they also get an instant event. *)
let revoke t (th : Proc.thread) =
  match th.Proc.ikb_token with
  | Some tr when tr.Proc.live -> (
    tr.live <- false;
    match Kernel.obs t.kernel with
    | None -> ()
    | Some o -> Remon_obs.Obs.count o ~cat:"ikb" ~name:"revocations")
  | _ -> ()

(* A single-use token for [call], which routes it to IP-MON. *)
let grant t (th : Proc.thread) call ~temporal =
  let value = fresh_token t in
  (match th.Proc.ikb_token with
  | Some tr ->
    tr.Proc.value <- value;
    tr.granted_for <- call;
    tr.live <- true;
    tr.temporal <- temporal
  | None ->
    th.Proc.ikb_token <-
      Some { Proc.value; granted_for = call; live = true; temporal });
  (match Kernel.obs t.kernel with
  | None -> ()
  | Some o -> Remon_obs.Obs.count o ~cat:"ikb" ~name:"tokens_granted");
  Proc.Route_ipmon value

(* Authoritative descriptor lookup: the broker runs in the kernel and uses
   the master replica's table (slave tables hold replicated stubs). *)
let lookup_desc t (th : Proc.thread) fd =
  match t.master_proc with
  | Some master -> Proc.desc_of_fd master fd
  | None -> Proc.desc_of_fd th.proc fd

(* Calls that could adversely affect IP-MON are forcibly forwarded to
   GHUMVEE even if the spatial level would otherwise allow them. *)
let forced_monitored t (th : Proc.thread) (call : Syscall.call) =
  match call with
  | Syscall.Mprotect _ | Syscall.Mremap _ | Syscall.Munmap _ -> true
  | Syscall.Read (fd, _) | Syscall.Pread64 (fd, _, _) -> (
    (* reads of the maps file are filtered by GHUMVEE (Section 3.6) *)
    match lookup_desc t th fd with
    | Some { kind = Proc.Proc_maps _; _ } -> true
    | _ -> false)
  | _ -> false

(* Is the fd this call touches a socket? *)
let on_socket t (th : Proc.thread) call =
  match Callinfo.fd_of call with
  | None -> false
  | Some fd -> (
    match lookup_desc t th fd with
    | Some d -> Proc.classify_desc d = Proc.Fd_socket
    | None -> false)

(* The interceptor: one decision per syscall entry (Figure 2, step 2). *)
let classify t (th : Proc.thread) (call : Syscall.call) : Proc.route =
  let p = th.proc in
  let default () =
    if Option.is_some p.Proc.tracer then Proc.Route_monitor else Proc.Route_plain
  in
  (* a live token means the previous forwarded call never came back through
     IP-MON: revoke it and force this call onto the monitored path *)
  let had_live_token =
    match th.Proc.ikb_token with
    | Some tr when tr.Proc.live ->
      revoke t th;
      true
    | _ -> false
  in
  if had_live_token then default ()
  else
    match p.Proc.replica_info with
    | None -> default () (* not a managed replica: IK-B stays out of the way *)
    | Some { Proc.variant_index = v; _ } when t.replaying.(v) ->
      default () (* resynchronizing: force the monitored (replay) path *)
    | Some _ -> (
      match p.Proc.ipmon_registered with
      | None -> default ()
      | Some reg ->
        let no = Syscall.number call in
        let signal_pending =
          (* Section 3.8: while GHUMVEE holds a deferred signal, replicas
             restart their calls as monitored calls *)
          match t.rb with
          | Some rb -> rb.Replication_buffer.signals_pending
          | None -> false
        in
        if t.route_all then
          (* VARAN: everything goes to the in-process agents *)
          grant t th call ~temporal:false
        else if signal_pending then default ()
        else if not (Sysno.mask_mem reg.Proc.unmonitored no) then default ()
        else if forced_monitored t th call then default ()
        else begin
          let spatially_ok =
            Policy.spatial_allows t.policy call ~on_socket:(on_socket t th call)
          in
          let temporally_ok =
            (not spatially_ok)
            &&
            match t.policy.Policy.temporal with
            | None -> false
            | Some cfg -> (
              (* one stochastic draw per logical call, shared by replicas *)
              let key = (th.Proc.rank, th.Proc.syscall_index) in
              match Hashtbl.find_opt t.temporal_decisions key with
              | Some d -> d
              | None ->
                let d =
                  Policy.temporal_exempts t.temporal_state
                    ~now:(Kernel.now t.kernel) no ~cfg
                in
                Hashtbl.replace t.temporal_decisions key d;
                d)
          in
          if spatially_ok || temporally_ok then
            grant t th call ~temporal:temporally_ok
          else default ()
        end)

(* The verifier: may this (token, call) complete unmonitored? Single shot. *)
let verify t (th : Proc.thread) ~token ~(call : Syscall.call) =
  match th.Proc.ikb_token with
  | Some tr
    when tr.Proc.live
         && Int64.equal tr.value token
         && Syscall.equal_call tr.granted_for call
         && th.Proc.in_ipmon ->
    tr.live <- false;
    true
  | _ ->
    revoke t th;
    (match Kernel.obs t.kernel with
    | None -> ()
    | Some o ->
      Remon_obs.Trace.instant o.Remon_obs.Obs.trace ~ts:th.Proc.clock
        ~cat:"ikb" ~name:"token_rejected" ~pid:th.Proc.proc.Proc.pid
        ~tid:th.Proc.tid [];
      Remon_obs.Obs.count o ~cat:"ikb" ~name:"tokens_rejected");
    false

(* Outstanding-token check used by IP-MON's fallback: destroying the token
   before restarting the call as a monitored call (step 4'). *)
let destroy_token t th = revoke t th

(* Silent invalidation for calls IP-MON aborts without restarting (slave
   replicas of a master-executed call): the token was legitimately unused. *)
let consume_token (th : Proc.thread) =
  match th.Proc.ikb_token with
  | Some tr -> tr.Proc.live <- false
  | None -> ()

(* Respawn support: while a variant replays the journal, the broker routes
   all of its calls monitored (see [classify]). *)
let set_replaying t ~variant flag = t.replaying.(variant) <- flag

let was_temporal_grant (th : Proc.thread) ~token =
  match th.Proc.ikb_token with
  | Some tr when Int64.equal tr.Proc.value token -> tr.temporal
  | _ -> false

(* GHUMVEE feedback for the temporal policy: a monitored call was approved. *)
let note_approval t (no : Sysno.t) =
  match t.policy.Policy.temporal with
  | None -> ()
  | Some cfg ->
    Policy.record_approval t.temporal_state ~now:(Kernel.now t.kernel) no ~cfg

(* Executes [call] through the verifier: its result, or [None] when the
   token is rejected (a violation, counted), after which the caller takes
   the fallback. IP-MON's master and slave paths and the forged-token
   attack call it. *)
let execute t (th : Proc.thread) ~token call =
  Kstate.charge th (Kernel.cost t.kernel).Remon_sim.Cost_model.token_check_ns;
  if verify t th ~token ~call then Some (Kernel.execute_raw t.kernel th call)
  else begin
    (Kernel.stats t.kernel).K.tokens_rejected <-
      (Kernel.stats t.kernel).K.tokens_rejected + 1;
    None
  end
