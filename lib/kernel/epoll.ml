(* epoll instance state (Section 3.9 of the paper).

   The interest list associates watched fds with the [user_data] cookie the
   application registered. Readiness is evaluated by the dispatcher, which
   can see the fd table; this module only stores interest. *)

type entry = { mutable events : Syscall.poll_events; mutable user_data : int64 }

type t = { interest : (int, entry) Hashtbl.t }

let create () = { interest = Hashtbl.create 16 }

let ctl t ~(op : Syscall.epoll_op) ~fd ~events ~user_data =
  match op with
  | Epoll_add ->
    if Hashtbl.mem t.interest fd then Error Errno.EEXIST
    else begin
      Hashtbl.replace t.interest fd { events; user_data };
      Ok ()
    end
  | Epoll_mod -> (
    match Hashtbl.find_opt t.interest fd with
    | None -> Error Errno.ENOENT
    | Some e ->
      e.events <- events;
      e.user_data <- user_data;
      Ok ())
  | Epoll_del ->
    if Hashtbl.mem t.interest fd then begin
      Hashtbl.remove t.interest fd;
      Ok ()
    end
    else Error Errno.ENOENT

let interest_list t =
  Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t.interest []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
