(* Deterministic fault injection.

   A fault plan is a list of specs: each names a fault kind, a target
   variant and a trigger point — a per-thread syscall index for kernel-path
   faults, or the n-th appended replication-buffer record for RB faults.
   Each replica of the group carries [decide] as its syscall-entry fault
   hook, and [install] sets the RB's tamper hook; the monitors (GHUMVEE /
   IP-MON / IK-B) then detect the injected failures through their normal
   code paths, which is the point: the recovery layer is exercised end to
   end, not short-circuited.

   Everything is deterministic. Explicit plans fire at fixed points; the
   only randomness (argument perturbation, generated plans) flows from a
   seeded SplitMix64 stream, so identical seeds reproduce identical
   outcomes — this is what the determinism tests pin down. A plan is an
   immutable value: which of its specs have fired is per-run state in [t],
   so any number of runs, on any number of domains, may share one plan. *)

open Remon_kernel
open Remon_sim
open Remon_util

type kind =
  | Crash of int (* the replica dies as if killed by this signal *)
  | Corrupt_args (* the kernel captures perturbed syscall arguments *)
  | Delay of Vtime.t (* the arrival stalls before routing (rendezvous stall) *)
  | Drop_rb (* the master's RB record loses its payload *)
  | Corrupt_rb (* the master's RB record is tampered with *)
  | Sock_err of Errno.t (* transient socket error (ECONNRESET/EAGAIN) *)

type spec = {
  kind : kind;
  variant : int; (* target replica; ignored for RB faults (they hit a record) *)
  at : int; (* syscall index (kernel faults) / n-th RB record (RB faults) *)
}

type plan = spec list

type t = {
  plan : spec array;
  fired : bool array; (* per spec: already injected in this run *)
  rng : Rng.t;
  mutable injected : int;
  mutable rb_records_seen : int;
  mutable kernel : Kernel.t option;
      (* set by [install]; RB-path injections trace through its obs sink
         (kernel-path injections are traced by the dispatcher itself) *)
}

let spec ~kind ~variant ~at = { kind; variant; at }

let make ~seed plan =
  let plan = Array.of_list plan in
  (* split off a private stream so fault perturbations cannot shift any
     other seeded decision in the run *)
  {
    plan;
    fired = Array.make (Array.length plan) false;
    rng = Rng.make (seed lxor 0x0FA017);
    injected = 0;
    rb_records_seen = 0;
    kernel = None;
  }

let injected t = t.injected

(* ------------------------------------------------------------------ *)
(* Argument corruption *)

(* A deterministic perturbation that survives [Callinfo.normalize]: the
   monitors must see it as a genuine argument divergence. *)
let corrupt_call rng (call : Syscall.call) =
  let tag = Printf.sprintf "\xde\xad%02x" (Rng.int_in_range rng ~lo:0 ~hi:255) in
  match call with
  | Syscall.Write (fd, data) -> Syscall.Write (fd, data ^ tag)
  | Syscall.Writev (fd, chunks) -> Syscall.Writev (fd, chunks @ [ tag ])
  | Syscall.Sendto (fd, data) -> Syscall.Sendto (fd, data ^ tag)
  | Syscall.Read (fd, len) -> Syscall.Read (fd, len + 1 + Rng.int_in_range rng ~lo:0 ~hi:7)
  | _ -> Syscall.Write (1, tag) (* unrecognized shape: swap the call outright *)

(* ------------------------------------------------------------------ *)
(* Hooks *)

(* Kernel syscall-entry hook: fires kernel-path specs matching this
   thread's variant at its current syscall index. *)
let decide t (th : Proc.thread) (call : Syscall.call) =
  match th.Proc.proc.Proc.replica_info with
  | None -> Proc.Fault_none
  | Some { Proc.variant_index = v; _ } ->
    let rec find i =
      if i >= Array.length t.plan then Proc.Fault_none
      else
        let s = t.plan.(i) in
        let kernel_kind =
          match s.kind with Drop_rb | Corrupt_rb -> false | _ -> true
        in
        if t.fired.(i) || (not kernel_kind) || s.variant <> v
           || s.at <> th.Proc.syscall_index
        then find (i + 1)
        else begin
          t.fired.(i) <- true;
          t.injected <- t.injected + 1;
          match s.kind with
          | Crash sg -> Proc.Fault_crash sg
          | Corrupt_args -> Proc.Fault_rewrite (corrupt_call t.rng call)
          | Delay ns -> Proc.Fault_delay ns
          | Sock_err e -> Proc.Fault_result (Syscall.Error e)
          | Drop_rb | Corrupt_rb -> Proc.Fault_none (* unreachable *)
        end
    in
    find 0

(* RB tamper hook: fires RB specs on the n-th appended record, each traced
   as a [fault] instant that counts [fault.<kind>]. *)
let rb_tamper t (e : Replication_buffer.entry) =
  t.rb_records_seen <- t.rb_records_seen + 1;
  Array.iteri
    (fun i s ->
      if (not t.fired.(i)) && s.at = t.rb_records_seen then
        match s.kind with
        | Drop_rb | Corrupt_rb -> (
          t.fired.(i) <- true;
          t.injected <- t.injected + 1;
          let name =
            match s.kind with
            | Drop_rb ->
              e.Replication_buffer.call <- None;
              "droprb"
            | _ ->
              e.Replication_buffer.call <-
                Option.map (corrupt_call t.rng) e.Replication_buffer.call;
              "corruptrb"
          in
          match t.kernel with
          | None -> ()
          | Some kernel -> (
            match Kernel.obs kernel with
            | None -> ()
            | Some o ->
              Remon_obs.Obs.instant o ~ts:(Kernel.now kernel) ~cat:"fault"
                ~name ~pid:0 ~tid:0
                [ ("seq", Remon_obs.Trace.Int e.Replication_buffer.seq) ]))
        | Crash _ | Corrupt_args | Delay _ | Sock_err _ -> ())
    t.plan

let install t ~kernel ~rb =
  t.kernel <- Some kernel;
  rb.Replication_buffer.tamper <- Some (fun e -> rb_tamper t e)

(* ------------------------------------------------------------------ *)
(* Generated plans (the resilience bench) *)

(* Scatter faults over the first [horizon] syscalls of the non-master
   variants with probability [rate] per index. Deterministic in [seed]. *)
let random_plan ~seed ~rate ~horizon ~nreplicas =
  let rng = Rng.make (seed * 0x9E3779B1) in
  let specs = ref [] in
  for at = 1 to horizon do
    if Rng.float rng < rate then begin
      (* with no slaves to pick on, the fault lands on the one process
         there is — the no-redundancy baseline *)
      let variant =
        if nreplicas > 1 then Rng.int_in_range rng ~lo:1 ~hi:(nreplicas - 1)
        else 0
      in
      let kind =
        match Rng.int_in_range rng ~lo:0 ~hi:4 with
        | 0 -> Crash Sigdefs.sigsegv
        | 1 -> Corrupt_args
        | 2 -> Delay (Vtime.ms (Rng.int_in_range rng ~lo:1 ~hi:40))
        | 3 -> Sock_err (if Rng.bool rng then Errno.ECONNRESET else Errno.EAGAIN)
        | _ -> Corrupt_rb
      in
      let s =
        match kind with
        | Corrupt_rb | Drop_rb -> spec ~kind ~variant:0 ~at
        | _ -> spec ~kind ~variant ~at
      in
      specs := s :: !specs
    end
  done;
  List.rev !specs

(* Fleet chaos plans differ from [random_plan] in one crucial way: the
   master is a legitimate target. A master crash takes the whole instance
   down — exactly the event the fleet controller must route around and
   respawn from — so the kind mix is biased towards crashes and every
   variant (0 included) can be hit. Deterministic in [seed]. *)
let chaos_plan ~seed ~rate ~horizon ~nreplicas =
  let rng = Rng.make ((seed * 0x9E3779B1) lxor 0xC0A5) in
  let specs = ref [] in
  for at = 1 to horizon do
    if Rng.float rng < rate then begin
      let variant = Rng.int_in_range rng ~lo:0 ~hi:(max 0 (nreplicas - 1)) in
      let kind =
        match Rng.int_in_range rng ~lo:0 ~hi:3 with
        | 0 | 1 -> Crash Sigdefs.sigsegv
        | 2 -> Delay (Vtime.ms (Rng.int_in_range rng ~lo:1 ~hi:10))
        | _ -> Sock_err Errno.ECONNRESET
      in
      specs := spec ~kind ~variant ~at :: !specs
    end
  done;
  List.rev !specs

(* ------------------------------------------------------------------ *)
(* Plan syntax (the --faults CLI flag)

   Comma-separated specs:  KIND@AT[:VARIANT][=PARAM]

     crash@12:1        replica 1 segfaults at its 12th syscall
     kill@12:1         SIGKILL instead of SIGSEGV
     args@25:1         replica 1's 25th call is captured corrupted
     delay@30:1=5ms    replica 1 stalls 5 ms before its 30th call
     sockerr@40:1      replica 1's 40th call fails with ECONNRESET
     again@40:1        ... with EAGAIN
     droprb@5          the 5th RB record loses its payload
     corruptrb@9       the 9th RB record is tampered with *)

let kind_to_string = function
  | Crash sg when sg = Sigdefs.sigkill -> "kill"
  | Crash _ -> "crash"
  | Corrupt_args -> "args"
  | Delay _ -> "delay"
  | Drop_rb -> "droprb"
  | Corrupt_rb -> "corruptrb"
  | Sock_err Errno.EAGAIN -> "again"
  | Sock_err _ -> "sockerr"

let spec_to_string s =
  let base = Printf.sprintf "%s@%d" (kind_to_string s.kind) s.at in
  let with_variant =
    match s.kind with
    | Drop_rb | Corrupt_rb -> base
    | _ -> Printf.sprintf "%s:%d" base s.variant
  in
  match s.kind with
  | Delay ns ->
    Printf.sprintf "%s=%dus" with_variant (ns / 1_000)
  | _ -> with_variant

let to_string plan = String.concat "," (List.map spec_to_string plan)

let parse_spec str =
  let str = String.trim str in
  let fail msg = Error (Printf.sprintf "fault spec %S: %s" str msg) in
  match String.index_opt str '@' with
  | None -> fail "expected KIND@AT[:VARIANT][=PARAM]"
  | Some i -> (
    let kind_s = String.sub str 0 i in
    let rest = String.sub str (i + 1) (String.length str - i - 1) in
    let rest, param =
      match String.index_opt rest '=' with
      | None -> (rest, None)
      | Some j ->
        ( String.sub rest 0 j,
          Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
    in
    let at_s, variant_s =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some j ->
        ( String.sub rest 0 j,
          Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
    in
    match int_of_string_opt at_s with
    | None -> fail "bad trigger index"
    | Some at -> (
      let variant =
        match variant_s with
        | None -> Ok 1
        | Some v -> (
          match int_of_string_opt v with
          | Some v when v >= 0 -> Ok v
          | _ -> Error "bad variant")
      in
      match variant with
      | Error msg -> fail msg
      | Ok variant -> (
        let delay_of p =
          (* "5ms" / "200us" / plain nanoseconds *)
          let num suffix =
            let n = String.length p and m = String.length suffix in
            if n > m && String.sub p (n - m) m = suffix then
              int_of_string_opt (String.sub p 0 (n - m))
            else None
          in
          match (num "ms", num "us", int_of_string_opt p) with
          | Some v, _, _ -> Some (Vtime.ms v)
          | None, Some v, _ -> Some (Vtime.us v)
          | None, None, Some v -> Some (Vtime.ns v)
          | None, None, None -> None
        in
        match kind_s with
        | "crash" -> Ok (spec ~kind:(Crash Sigdefs.sigsegv) ~variant ~at)
        | "kill" -> Ok (spec ~kind:(Crash Sigdefs.sigkill) ~variant ~at)
        | "args" -> Ok (spec ~kind:Corrupt_args ~variant ~at)
        | "sockerr" -> Ok (spec ~kind:(Sock_err Errno.ECONNRESET) ~variant ~at)
        | "again" -> Ok (spec ~kind:(Sock_err Errno.EAGAIN) ~variant ~at)
        | "droprb" -> Ok (spec ~kind:Drop_rb ~variant:0 ~at)
        | "corruptrb" -> Ok (spec ~kind:Corrupt_rb ~variant:0 ~at)
        | "delay" -> (
          match param with
          | None -> fail "delay needs =DURATION (e.g. delay@30:1=5ms)"
          | Some p -> (
            match delay_of p with
            | Some ns -> Ok (spec ~kind:(Delay ns) ~variant ~at)
            | None -> fail "bad delay duration"))
        | k -> fail (Printf.sprintf "unknown fault kind %S" k))))

let of_string str =
  let parts =
    String.split_on_char ',' str
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match parse_spec p with
      | Ok s -> go (s :: acc) rest
      | Error _ as e -> e)
  in
  go [] parts
