(* Shadow mapping between fds and epoll user data (Section 3.9).

   Diversified replicas register different pointer values for the same
   logical descriptor. The monitors therefore replicate epoll results in
   terms of fds: the master's (user_data, events) pairs are mapped back to
   fds using the master's registrations, and each slave maps those fds
   forward to its own user data.

   Events whose user data the master never registered cannot be expressed
   as an fd. They travel in logical form as the master's original cookie
   ([Lopaque]) — replicas registered such data identically or not at all —
   instead of a fabricated registration. An event that still cannot be
   translated for a slave (no registration for the fd) is dropped and
   counted in [untranslatable] rather than invented. *)

type logical =
  | Lfd of int (* translated via the master's registrations *)
  | Lopaque of int64 (* master's raw user data, passed through *)

type t = {
  fwd : (int, int64) Hashtbl.t array; (* variant -> (fd -> user_data) *)
  rev : (int64, int) Hashtbl.t array; (* variant -> (user_data -> fd) *)
  mutable untranslatable : int; (* events dropped for lack of a mapping *)
}

let create ~nreplicas =
  {
    fwd = Array.init nreplicas (fun _ -> Hashtbl.create 32);
    rev = Array.init nreplicas (fun _ -> Hashtbl.create 32);
    untranslatable = 0;
  }

let untranslatable t = t.untranslatable

let register t ~variant ~fd ~user_data =
  (* drop any stale reverse binding for this fd *)
  (match Hashtbl.find_opt t.fwd.(variant) fd with
  | Some old -> Hashtbl.remove t.rev.(variant) old
  | None -> ());
  Hashtbl.replace t.fwd.(variant) fd user_data;
  Hashtbl.replace t.rev.(variant) user_data fd

let unregister t ~variant ~fd =
  match Hashtbl.find_opt t.fwd.(variant) fd with
  | Some ud ->
    Hashtbl.remove t.fwd.(variant) fd;
    Hashtbl.remove t.rev.(variant) ud
  | None -> ()

(* One variant's epoll_ctl, mirrored into its registrations. *)
let note_call t ~variant (call : Remon_kernel.Syscall.call) =
  match call with
  | Epoll_ctl { op = Epoll_add | Epoll_mod; fd; user_data; _ } ->
    register t ~variant ~fd ~user_data
  | Epoll_ctl { op = Epoll_del; fd; _ } -> unregister t ~variant ~fd
  | _ -> ()

let user_data_of t ~variant ~fd = Hashtbl.find_opt t.fwd.(variant) fd
let fd_of t ~variant ~user_data = Hashtbl.find_opt t.rev.(variant) user_data

(* Master's epoll_wait result -> logical events. Unregistered cookies pass
   through opaquely; a negative cookie (which the int64 wire encoding below
   cannot carry opaquely) is dropped and counted. *)
let to_logical t events =
  List.filter_map
    (fun (user_data, ev) ->
      match fd_of t ~variant:0 ~user_data with
      | Some fd -> Some (Lfd fd, ev)
      | None ->
        if Int64.compare user_data 0L >= 0 then Some (Lopaque user_data, ev)
        else begin
          t.untranslatable <- t.untranslatable + 1;
          None
        end)
    events

(* Logical events -> [variant]'s (user_data, events) list. An [Lfd] the
   variant never registered is dropped (and counted), never fabricated. *)
let to_variant t ~variant logical =
  List.filter_map
    (fun (l, ev) ->
      match l with
      | Lfd fd -> (
        match user_data_of t ~variant ~fd with
        | Some ud -> Some (ud, ev)
        | None ->
          t.untranslatable <- t.untranslatable + 1;
          None)
      | Lopaque raw -> Some (raw, ev))
    logical

(* Wire form for the replication buffer's int64 slots: fds are small
   non-negative ints, so non-negative values carry [Lfd] directly and
   opaque cookies (always >= 0, see [to_logical]) are complemented into
   the negative range. *)
let encode = function
  | Lfd fd -> Int64.of_int fd
  | Lopaque raw -> Int64.lognot raw

let decode v =
  if Int64.compare v 0L >= 0 then Lfd (Int64.to_int v)
  else Lopaque (Int64.lognot v)
