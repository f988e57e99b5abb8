(* The IP-MON file map (Section 3.6).

   GHUMVEE arbitrates every fd-lifecycle call, so it maintains one byte of
   metadata per file descriptor: the descriptor's type and whether it is in
   non-blocking mode. Replicas map a read-only copy; IP-MON consults it to
   apply conditional policies (socket vs non-socket) and to predict whether
   an unmonitored call can block (spin-wait vs condition variable). *)

open Remon_kernel

type t = {
  bytes : Bytes.t;
      (* one byte per fd: 0 when closed, else 1 + the index of its class
         in [classes], plus [nonblocking] when the fd is non-blocking *)
  mutable high_water : int;
      (* highest fd ever populated; bounds the clear in [sync_from_process]
         so a full-table refresh costs O(live fds), not O(max_fds) *)
}

type Shm.payload += File_map_payload of t

let max_fds = 4096 (* one page of one-byte records *)
let classes = Proc.[| Fd_regular; Fd_pipe; Fd_socket; Fd_pollfd; Fd_special |]
let nonblocking = 0x80
let create () = { bytes = Bytes.make max_fds '\000'; high_water = -1 }
let in_range fd = fd >= 0 && fd < max_fds
let byte t fd = if in_range fd then Char.code (Bytes.get t.bytes fd) else 0

let set t ~fd ~cls ~nonblocking:nb =
  if in_range fd then begin
    if fd > t.high_water then t.high_water <- fd;
    let code =
      match cls with
      | Proc.Fd_regular -> 1
      | Proc.Fd_pipe -> 2
      | Proc.Fd_socket -> 3
      | Proc.Fd_pollfd -> 4
      | Proc.Fd_special -> 5
    in
    Bytes.set t.bytes fd (Char.chr (if nb then code lor nonblocking else code))
  end

let clear t ~fd = if in_range fd then Bytes.set t.bytes fd '\000'

(* A closed fd keeps no mode: [set] gives it one when it opens. *)
let set_nonblocking t ~fd v =
  let b = byte t fd land lnot nonblocking in
  if b <> 0 then Bytes.set t.bytes fd (Char.chr (if v then b lor nonblocking else b))

let class_of t ~fd =
  match byte t fd land lnot nonblocking with 0 -> None | code -> Some classes.(code - 1)

let is_socket t ~fd =
  match class_of t ~fd with Some Proc.Fd_socket -> true | _ -> false

(* Non-blocking descriptors always return immediately; blocking ones may
   block the call (MAYBE_BLOCKING in Listing 1). *)
let may_block t ~fd =
  let b = byte t fd in
  b <> 0 && b land nonblocking = 0

(* Refreshes the map from the master replica's actual fd table; called by
   GHUMVEE after it arbitrates fd-lifecycle calls. *)
let sync_from_process t (p : Proc.process) =
  Bytes.fill t.bytes 0 (t.high_water + 1) '\000';
  t.high_water <- -1;
  Fdtable.iter
    (fun fd (d : Proc.desc) ->
      set t ~fd ~cls:(Proc.classify_desc d) ~nonblocking:d.nonblock)
    p.fds
