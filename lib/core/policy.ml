(* Monitoring relaxation policies (Section 3.4).

   Spatial exemption selects one of Table 1's cumulative levels; temporal
   exemption stochastically exempts calls that the CP monitor has recently
   approved repeatedly. The temporal policy is deliberately randomized — the
   paper notes that deterministic temporal policies ("exempt after N
   approvals in M ms") are insecure because an attacker can steer the MVEE
   into an unmonitored state. *)

open Remon_kernel
open Remon_util

type temporal = {
  min_approvals : int; (* identical approvals needed before exemption kicks in *)
  exempt_probability : float; (* chance an eligible call is exempted *)
  window_ns : Remon_sim.Vtime.t; (* approvals older than this are forgotten *)
}

type t = {
  spatial : Classification.level option;
      (* [None]: monitor everything (GHUMVEE standalone behaviour) *)
  temporal : temporal option;
}

let monitor_everything = { spatial = None; temporal = None }

let spatial level = { spatial = Some level; temporal = None }

let with_temporal t temporal = { t with temporal = Some temporal }

let default_temporal =
  { min_approvals = 32; exempt_probability = 0.5; window_ns = Remon_sim.Vtime.ms 100 }

(* The spatial level alone, as recordings and the CLI spell it. *)
let level_to_string t =
  match t.spatial with
  | Some l -> Classification.level_to_string l
  | None -> "monitor-all"

let level_of_string = function
  | "monitor-all" | "all" -> Some monitor_everything
  | s -> Option.map spatial (Classification.level_of_string s)

let to_string t =
  level_to_string t ^ (if t.temporal = None then "" else "+temporal")

(* ------------------------------------------------------------------ *)
(* Spatial decision *)

(* Conditional-call argument checks beyond the socket distinction: fd
   control ops are exempt only for the benign op subtypes ("depending on op
   type" in Table 1). *)
let op_type_allowed (call : Syscall.call) =
  match call with
  | Syscall.Fcntl (_, Syscall.F_dupfd _) -> false (* allocates an fd *)
  | Syscall.Fcntl (_, (Syscall.F_getfl | Syscall.F_setfl _)) -> true
  | Syscall.Ioctl (_, (Syscall.Fionread | Syscall.Fionbio _ | Syscall.Tiocgwinsz))
    -> true
  | Syscall.Futex _ -> true
  | _ -> true

(* Spatial verdict for [call] given the fd classification byte from the
   IP-MON file map ([on_socket]). *)
let spatial_allows t (call : Syscall.call) ~on_socket =
  match t.spatial with
  | None -> false
  | Some level -> (
    if not (op_type_allowed call) then false
    else
      match Classification.required_level (Syscall.number call) ~on_socket with
      | None -> false
      | Some needed -> Classification.level_geq level needed)

(* ------------------------------------------------------------------ *)
(* Temporal decision state *)

(* Per-replica-group record of recent monitor approvals, keyed by syscall
   number. The state lives in the broker (kernel side), out of reach of the
   replicas. *)
type temporal_state = {
  rng : Rng.t;
  approvals : (Sysno.t, (Remon_sim.Vtime.t * int) ref) Hashtbl.t;
      (* sysno -> (window start, count within window) *)
}

let make_temporal_state ~seed =
  { rng = Rng.make seed; approvals = Hashtbl.create 32 }

(* Called by the broker each time GHUMVEE approves a monitored call. *)
let record_approval st ~now (no : Sysno.t) ~(cfg : temporal) =
  let cell =
    match Hashtbl.find_opt st.approvals no with
    | Some c -> c
    | None ->
      let c = ref (now, 0) in
      Hashtbl.replace st.approvals no c;
      c
  in
  let start, count = !cell in
  if now - start > cfg.window_ns then cell := (now, 1)
  else cell := (start, count + 1)

(* May [no] be stochastically exempted right now? *)
let temporal_exempts st ~now (no : Sysno.t) ~(cfg : temporal) =
  match Hashtbl.find_opt st.approvals no with
  | None -> false
  | Some cell ->
    let start, count = !cell in
    if now - start > cfg.window_ns then false
    else if count < cfg.min_approvals then false
    else Rng.float st.rng < cfg.exempt_probability
