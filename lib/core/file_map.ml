(* The IP-MON file map (Section 3.6).

   GHUMVEE arbitrates every fd-lifecycle call, so it maintains one byte of
   metadata per file descriptor: the descriptor's type and whether it is in
   non-blocking mode. Replicas map a read-only copy; IP-MON consults it to
   apply conditional policies (socket vs non-socket) and to predict whether
   an unmonitored call can block (spin-wait vs condition variable). *)

open Remon_kernel

type t = {
  classes : Proc.fd_class option array; (* indexed by fd; None = closed *)
  nonblocking : bool array;
  mutable high_water : int;
      (* highest fd ever populated; bounds the clear in [sync_from_process]
         so a full-table refresh costs O(live fds), not O(max_fds) *)
}

type Shm.payload += File_map_payload of t

let max_fds = 4096 (* one page of one-byte records *)

let create () =
  {
    classes = Array.make max_fds None;
    nonblocking = Array.make max_fds false;
    high_water = -1;
  }

let in_range fd = fd >= 0 && fd < max_fds

let set t ~fd ~cls ~nonblocking =
  if in_range fd then begin
    if fd > t.high_water then t.high_water <- fd;
    t.classes.(fd) <- Some cls;
    t.nonblocking.(fd) <- nonblocking
  end

let clear t ~fd =
  if in_range fd then begin
    t.classes.(fd) <- None;
    t.nonblocking.(fd) <- false
  end

let set_nonblocking t ~fd v =
  if in_range fd then t.nonblocking.(fd) <- v

let class_of t ~fd = if in_range fd then t.classes.(fd) else None

let is_socket t ~fd =
  match class_of t ~fd with Some Proc.Fd_socket -> true | _ -> false

(* Non-blocking descriptors always return immediately; blocking ones may
   block the call (MAYBE_BLOCKING in Listing 1). *)
let may_block t ~fd =
  if in_range fd then
    match t.classes.(fd) with
    | None -> false
    | Some _ -> not t.nonblocking.(fd)
  else false

(* Refreshes the map from the master replica's actual fd table; called by
   GHUMVEE after it arbitrates fd-lifecycle calls. *)
let sync_from_process t (p : Proc.process) =
  if t.high_water >= 0 then begin
    Array.fill t.classes 0 (t.high_water + 1) None;
    Array.fill t.nonblocking 0 (t.high_water + 1) false
  end;
  t.high_water <- -1;
  Fdtable.iter
    (fun fd (d : Proc.desc) ->
      if in_range fd then begin
        if fd > t.high_water then t.high_water <- fd;
        t.classes.(fd) <- Some (Proc.classify_desc d);
        t.nonblocking.(fd) <- d.nonblock
      end)
    p.fds
