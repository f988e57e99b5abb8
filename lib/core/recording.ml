(* Versioned binary recordings of a replicated run. See the interface for
   the layout; the encoding discipline lives in [Syswire]. *)

open Remon_kernel

let version = 1
let magic = "RMRC"

type header = {
  backend : string;
  nreplicas : int;
  seed : int;
  level : string;
  on_failure : string;
  faults : string;
  workload : string;
  shm_key : int; (* the group's SysV key; 0 = unknown (allocate fresh) *)
}

type event = Record_log.event =
  | Call of { rank : int; call : Syscall.call; result : Syscall.result }
  | Lock of { lock_id : int; thread_rank : int }
  | Signal of { rank : int; signo : int }

type t = {
  header : header;
  events : event array;
  verdict : (string * string) option;
}

let equal_event a b =
  match (a, b) with
  | Call a, Call b ->
    a.rank = b.rank
    && Syscall.equal_call a.call b.call
    && Syscall.equal_result a.result b.result
  | Lock a, Lock b -> a.lock_id = b.lock_id && a.thread_rank = b.thread_rank
  | Signal a, Signal b -> a.rank = b.rank && a.signo = b.signo
  | _ -> false

let same_header_and_verdict a b = a.header = b.header && a.verdict = b.verdict

let equal a b =
  same_header_and_verdict a b
  && Array.length a.events = Array.length b.events
  && Array.for_all2 equal_event a.events b.events

let event_to_string = function
  | Call { rank; call; result } ->
    Printf.sprintf "call  rank=%d %s -> %s" rank (Syscall.to_string call)
      (Format.asprintf "%a" Syscall.pp_result result)
  | Lock { lock_id; thread_rank } ->
    Printf.sprintf "lock  id=%d rank=%d" lock_id thread_rank
  | Signal { rank; signo } -> Printf.sprintf "signal rank=%d signo=%d" rank signo

(* ------------------------------------------------------------------ *)
(* Serialization *)

let write_event w = function
  | Call { rank; call; result } ->
    Syswire.W.u8 w 0;
    Syswire.W.uint w rank;
    Syswire.write_call w call;
    Syswire.write_result w result
  | Lock { lock_id; thread_rank } ->
    Syswire.W.u8 w 1;
    Syswire.W.int w lock_id;
    Syswire.W.uint w thread_rank
  | Signal { rank; signo } ->
    Syswire.W.u8 w 2;
    Syswire.W.uint w rank;
    Syswire.W.uint w signo

let read_event r =
  match Syswire.R.u8 r with
  | 0 ->
    let rank = Syswire.R.uint r in
    let call = Syswire.read_call r in
    let result = Syswire.read_result r in
    Call { rank; call; result }
  | 1 ->
    let lock_id = Syswire.R.int r in
    Lock { lock_id; thread_rank = Syswire.R.uint r }
  | 2 ->
    let rank = Syswire.R.uint r in
    Signal { rank; signo = Syswire.R.uint r }
  | _ -> raise (Syswire.Fail (Syswire.Corrupt "bad event tag"))

let write_header w h =
  Syswire.W.str w h.backend;
  Syswire.W.uint w h.nreplicas;
  Syswire.W.int w h.seed;
  Syswire.W.str w h.level;
  Syswire.W.str w h.on_failure;
  Syswire.W.str w h.faults;
  Syswire.W.str w h.workload;
  Syswire.W.uint w h.shm_key

let read_header r =
  let backend = Syswire.R.str r in
  let nreplicas = Syswire.R.uint r in
  let seed = Syswire.R.int r in
  let level = Syswire.R.str r in
  let on_failure = Syswire.R.str r in
  let faults = Syswire.R.str r in
  let workload = Syswire.R.str r in
  let shm_key = Syswire.R.uint r in
  { backend; nreplicas; seed; level; on_failure; faults; workload; shm_key }

(* Every byte the trailing checksum covers. *)
let write_body t w =
  String.iter (fun c -> Syswire.W.u8 w (Char.code c)) magic;
  Syswire.W.u8 w version;
  write_header w t.header;
  Syswire.W.uint w (Array.length t.events);
  Array.iter (write_event w) t.events;
  match t.verdict with
  | None -> Syswire.W.bool w false
  | Some (cls, rendered) ->
    Syswire.W.bool w true;
    Syswire.W.str w cls;
    Syswire.W.str w rendered

(* The checksum field: a 16-byte MD5 behind its one-byte length. *)
let checksum_len = 17

(* Counted first, so the bytes are written once, into a buffer of exactly
   their size, which [contents] hands over without a copy. *)
let to_string t =
  let size = Syswire.W.measure (write_body t) + checksum_len in
  let w = Syswire.W.create ~initial:size () in
  write_body t w;
  (* checksum over every byte written so far: any bit flip that still
     decodes structurally is caught here *)
  Syswire.W.str w (Syswire.W.digest w);
  Syswire.W.contents w

let of_string s =
  try
    let r = Syswire.R.of_string s in
    for i = 0 to String.length magic - 1 do
      if Syswire.R.u8 r <> Char.code magic.[i] then
        raise (Syswire.Fail (Syswire.Corrupt "bad magic"))
    done;
    let v = Syswire.R.u8 r in
    if v <> version then
      raise
        (Syswire.Fail (Syswire.Corrupt (Printf.sprintf "unsupported version %d" v)));
    let header = read_header r in
    let n = Syswire.R.uint r in
    if n > Syswire.R.remaining r then raise (Syswire.Fail Syswire.Truncated);
    (* [Array.init] applies its function to 0, 1, ... in order *)
    let events = Array.init n (fun _ -> read_event r) in
    let verdict =
      if Syswire.R.bool r then begin
        let cls = Syswire.R.str r in
        Some (cls, Syswire.R.str r)
      end
      else None
    in
    let body_len = Syswire.R.pos r in
    let sum = Syswire.R.str r in
    if Syswire.R.remaining r <> 0 then
      raise (Syswire.Fail (Syswire.Corrupt "trailing bytes"));
    if not (String.equal sum (Digest.substring s 0 body_len)) then
      raise (Syswire.Fail (Syswire.Corrupt "checksum mismatch"));
    Ok { header; events; verdict }
  with Syswire.Fail e -> Error e

let to_file t path = Remon_util.Atomic_file.write path (to_string t)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error (Syswire.Corrupt msg)
  | exception End_of_file -> Error Syswire.Truncated

let with_workload t workload = { t with header = { t.header with workload } }

(* ------------------------------------------------------------------ *)
(* Digests *)

let stream_digest t =
  let write_events w = Array.iter (write_event w) t.events in
  let w = Syswire.W.create ~initial:(Syswire.W.measure write_events) () in
  write_events w;
  Digest.to_hex (Syswire.W.digest w)
