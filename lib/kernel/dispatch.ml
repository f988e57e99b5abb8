(* System-call dispatcher: semantics of every supported call, the ptrace
   stop machinery, IK-B broker routing, blocking, and signal delivery.

   Control flow for one syscall (mirrors Figure 2 of the paper):

     handle -> route -+-(ipmon)-----> IP-MON invoke -> execute_raw ..... finish
                      +-(monitored)-> entry stop -> exec -> exit stop -> finish
                      +-(plain)-----> exec ----------------------------> finish

   The tracer answers an entry stop with [Resume_continue] (run [exec]) or
   [Resume_skip r] (answer [r] without running it). The exit stop, the
   death stop and the signal-delivery stop, which hands an asynchronous
   signal to the tracer for good, only stop the thread.

   All of it is ordinary code on the calling thread's fiber, and each
   stage returns its result. Where a call waits ([block]) or stops for
   its tracer ([ptrace_stop]), the fiber suspends, and whatever ends the
   wait or the stop continues it there. [exec] answers every call through
   one match; an error leaves any helper by raising [Fail], which only
   [exec] catches. A thread that dies mid-call is never continued: the
   stage that finds it dead ends its fiber ([Sched.drop]). *)

open Remon_sim
open Remon_util
module K = Kstate

let src = Logs.Src.create "remon.kernel" ~doc:"simulated kernel"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let err e = Syscall.Error e

let charge = K.charge

let proc_of (th : Proc.thread) = th.proc

(* First pending signal not blocked by the process mask. *)
let next_deliverable (p : Proc.process) =
  if Queue.is_empty p.pending_signals then None
  else begin
    let found = ref None in
    Queue.iter
      (fun sg ->
        if !found = None && not (Proc.IntSet.mem sg p.sig_mask) then
          found := Some sg)
      p.pending_signals;
    !found
  end

let remove_pending (p : Proc.process) sg =
  let keep = Queue.create () in
  let removed = ref false in
  Queue.iter
    (fun s ->
      if s = sg && not !removed then removed := true else Queue.push s keep)
    p.pending_signals;
  Queue.clear p.pending_signals;
  Queue.transfer keep p.pending_signals

let signal_action (p : Proc.process) sg =
  match Hashtbl.find_opt p.sig_actions sg with
  | Some a -> a
  | None -> Syscall.Sig_default

(* ------------------------------------------------------------------ *)
(* Readiness polling *)

(* Expirations of [t] up to [now]. *)
let timer_fires (t : Proc.timer) now =
  match t.spec with
  | None -> 0
  | Some { value_ns; interval_ns } ->
    let since = Vtime.sub now t.armed_at - value_ns in
    if since < 0 then 0 else if interval_ns <= 0 then 1 else 1 + (since / interval_ns)

let timer_available tf now = max 0 (timer_fires tf now - tf.Proc.expirations)

(* getitimer's and timerfd_gettime's answer: the time to the next expiry
   and the period; zeros once disarmed or a one-shot fired. *)
let timer_left (t : Proc.timer) now : Syscall.itimer_spec =
  match t.spec with
  | Some { value_ns; interval_ns } ->
    let since = Vtime.sub now t.armed_at - value_ns in
    if since < 0 then { value_ns = -since; interval_ns }
    else if interval_ns > 0 then
      { value_ns = interval_ns - (since mod interval_ns); interval_ns }
    else { value_ns = 0; interval_ns = 0 }
  | None -> { value_ns = 0; interval_ns = 0 }

let stream_eof (s : Net.stream) =
  Net.incoming_length s = 0
  && Net.in_flight s = 0
  && (Net.peer_gone s || Net.rd_shut s
     || match Net.peer s with Some p -> Net.wr_shut p | None -> true)

let poll_desc k (d : Proc.desc) : Syscall.poll_events =
  let now = K.now k in
  match d.kind with
  | Proc.Regular _ | Proc.Directory _ | Proc.Dev_null ->
    { Syscall.ev_none with pollin = true; pollout = true }
  | Proc.Proc_maps _ -> { Syscall.ev_none with pollin = true }
  | Proc.Pipe p when d.can_read ->
    {
      Syscall.ev_none with
      pollin = Pipe.bytes_available p > 0 || Pipe.write_closed p;
      pollhup = Pipe.write_closed p && Pipe.bytes_available p = 0;
    }
  | Proc.Pipe p ->
    {
      Syscall.ev_none with
      pollout = Pipe.space_available p > 0 && not (Pipe.read_closed p);
      pollerr = Pipe.read_closed p;
    }
  | Proc.Listener l -> { Syscall.ev_none with pollin = not (Queue.is_empty l.pending) }
  | Proc.Stream s ->
    {
      Syscall.ev_none with
      pollin = Net.incoming_length s > 0 || stream_eof s;
      pollout =
        Net.connected s
        && (not (Net.peer_gone s))
        && (not (Net.wr_shut s))
        && Net.send_space s > 0;
      pollhup = Net.peer_gone s;
    }
  | Proc.Epoll_fd _ -> Syscall.ev_none
  | Proc.Timer_fd tf -> { Syscall.ev_none with pollin = timer_available tf now > 0 }
  | Proc.Event_fd e ->
    (* writable while a write of 1 would not overflow (see [do_write]) *)
    {
      Syscall.ev_none with
      pollin = e.Proc.count > 0;
      pollout = e.Proc.count < max_int - 1;
    }
  | Proc.Replicated_handle _ -> Syscall.ev_none

let events_intersect (want : Syscall.poll_events) (have : Syscall.poll_events) =
  (want.pollin && have.pollin)
  || (want.pollout && have.pollout)
  || have.pollhup || have.pollerr

(* ------------------------------------------------------------------ *)
(* Blocking *)

(* Parks [th] on the wait queue [on] (see [Sched.park]) and suspends its
   fiber until [poll] yields a value ([Ok]), or the wait ends otherwise
   ([Error]): ETIMEDOUT when the timeout fires, EINTR when a signal
   arrives (if [intr]), or the result of a forced completion. Whatever
   ends the wait continues the fiber at once. A [poll] that yields [None]
   must have no effect, and whatever can make it yield must wake [on]. A
   deadline past [Vtime]'s range arms no timer. *)
let block k (th : Proc.thread) ~on ~what ?timeout_ns ?(intr = true)
    ~(poll : unit -> 'a option) () : ('a, Syscall.result) result =
  match poll () with
  | Some v -> Ok v
  | None ->
    let b = Sched.park k.K.sched th ~on ~what ~retry:(fun () -> false) in
    let outcome = ref (Error (err Errno.EINTR)) in
    (* Ends the wait, exactly once: the entry is [Done] from here on. *)
    let settle r =
      Sched.unpark b;
      (match b.Waitq.timeout with Some h -> Sched.cancel k.K.sched h | None -> ());
      th.Proc.clock <- Vtime.max th.Proc.clock (K.now k);
      outcome := r;
      Sched.wake th
    in
    b.Waitq.interrupt <-
      (fun result -> if b.Waitq.state <> Waitq.Done then settle (Error result));
    b.Waitq.retry <-
      (fun () ->
        match th.Proc.tstate with
        | Proc.Dead -> true
        | _ ->
          if intr && next_deliverable (proc_of th) <> None then begin
            settle (Error (err Errno.EINTR));
            true
          end
          else begin
            match poll () with
            | Some v ->
              settle (Ok v);
              true
            | None -> false
          end);
    (match timeout_ns with
    | Some ns when ns < Vtime.infinity - K.now k ->
      let handle =
        Sched.schedule_at k.K.sched
          ~time:(Vtime.add (K.now k) ns)
          (fun () ->
            if b.Waitq.state <> Waitq.Done then begin
              match th.Proc.tstate with
              | Proc.Blocked b' when b' == b -> settle (Error (err Errno.ETIMEDOUT))
              | _ -> ()
            end)
      in
      b.Waitq.timeout <- Some handle
    | _ -> ());
    Sched.suspend ();
    !outcome

(* The result of a wait whose [poll] yields the call's result. *)
let answer_of = function Ok r | Error r -> r

(* A wait that only its timeout (ETIMEDOUT), a signal (EINTR, when [intr])
   or a forced completion ends: whichever comes first. *)
let sleep k th ~what ?timeout_ns ?intr () =
  answer_of
    (block k th ~on:Waitq.none ~what ?timeout_ns ?intr
       ~poll:(fun () -> (None : Syscall.result option))
       ())

(* The blocking idiom of calls on a descriptor: where a blocking one parks
   on [on] until [poll] yields, a nonblocking one fails with EAGAIN. *)
let park_or_eagain k th (d : Proc.desc) ~on ~what ~poll =
  if d.nonblock then
    match poll () with Some v -> Ok v | None -> Error (err Errno.EAGAIN)
  else block k th ~on ~what ~poll ()

(* Readiness waits (select, poll, epoll_wait): [poll] yields [None] while
   nothing is ready. A zero timeout polls once; an expired one reports an
   empty ready set. *)
let wait_ready k th ~what ~timeout_ns ~poll ~(ready : 'a list -> Syscall.result) =
  if timeout_ns = Some 0 then ready (match poll () with Some l -> l | None -> [])
  else
    match block k th ~on:Waitq.global ~what ?timeout_ns ~poll () with
    | Ok l -> ready l
    | Error r -> if r = err Errno.ETIMEDOUT then ready [] else r

(* select/poll over [fds]: (fd, wanted events) pairs. A closed fd reports
   POLLERR. *)
let poll_fds k (th : Proc.thread) ~what fds ~timeout_ns =
  let p = proc_of th in
  let poll () =
    let ready =
      List.filter_map
        (fun (fd, want) ->
          match Proc.desc_of_fd p fd with
          | None -> Some (fd, { Syscall.ev_none with pollerr = true })
          | Some d ->
            let have = poll_desc k d in
            if events_intersect want have then Some (fd, have) else None)
        fds
    in
    match ready with [] -> None | ready -> Some ready
  in
  wait_ready k th ~what ~timeout_ns ~poll ~ready:(fun l -> Syscall.Ok_poll l)

(* ------------------------------------------------------------------ *)
(* Descriptor release *)

let close_stream k s =
  Net.close_stream s;
  (* a cross-host endpoint: let the gateway flush and send FIN *)
  match k.K.hostnet with
  | Some h when Net.is_remote s -> Hostnet.poke h s
  | _ -> ()

(* Drops one reference. Epoll interest is keyed by fd number, so nothing
   here touches epoll instances: stale entries are skipped at wait time. *)
let release_desc k (d : Proc.desc) =
  d.refs <- d.refs - 1;
  if d.refs <= 0 then begin
    match d.kind with
    | Proc.Pipe pi when d.can_read -> pi.readers <- pi.readers - 1
    | Proc.Pipe pi -> pi.writers <- pi.writers - 1
    | Proc.Stream s -> close_stream k s
    | Proc.Listener l -> Net.close_listener k.K.net l
    | Proc.Epoll_fd _ | Proc.Timer_fd _ | Proc.Event_fd _ | Proc.Regular _
    | Proc.Directory _ | Proc.Dev_null | Proc.Proc_maps _
    | Proc.Replicated_handle _ -> ()
  end;
  Sched.kick k.K.sched

(* Process death closes every descriptor the way a real kernel does:
   listeners unbind (the port becomes reusable, connects start getting
   ECONNREFUSED) and stream peers observe EOF/EPIPE. The table is emptied
   first, then descriptors are released in ascending fd order so release
   side effects are deterministic. *)
let release_all_fds k (p : Proc.process) =
  let descs = Fdtable.bindings p.fds in
  Fdtable.reset p.fds;
  List.iter (fun (_, d) -> release_desc k d) descs

(* ------------------------------------------------------------------ *)
(* Signals *)

let rec post_signal k (p : Proc.process) sg =
  if p.alive && sg > 0 then begin
    (match signal_action p sg with
    | Syscall.Sig_ignore when Sigdefs.catchable sg -> ()
    | _ -> Queue.push sg p.pending_signals);
    Sched.wake_process k.K.sched p;
    if sg = Sigdefs.sigkill then kill_process k p ~code:(128 + sg);
    Sched.kick k.K.sched
  end

(* The one process death: a fatal signal, exit_group or the last thread's
   exit. Parked and trace-stopped threads never resume. The descriptors go
   before the exit waiters run: listeners unbind, peers observe EOF. *)
and kill_process k (p : Proc.process) ~code =
  if p.alive then begin
    p.alive <- false;
    p.exit_code <- code;
    Vec.iter
      (fun (t : Proc.thread) ->
        (match t.tstate with
        | Proc.Blocked b ->
          (match b.timeout with Some h -> Sched.cancel k.K.sched h | None -> ());
          Sched.unpark b
        | _ -> ());
        t.tstate <- Proc.Dead)
      p.threads;
    release_all_fds k p;
    let waiters = p.exit_waiters in
    p.exit_waiters <- [];
    List.iter (fun f -> f code) waiters;
    Sched.kick k.K.sched
  end

(* Applies the disposition of [sg] to [p], in the context of thread [th]
   which is crossing a syscall boundary. Returns [false] when the signal
   killed the process (the caller must not resume the thread). *)
let deliver_signal k (th : Proc.thread) sg =
  let p = proc_of th in
  remove_pending p sg;
  charge th k.K.cost.signal_delivery_ns;
  match signal_action p sg with
  | Syscall.Sig_handler _ ->
    Queue.push sg th.pending_delivery;
    true
  | Syscall.Sig_ignore -> true
  | Syscall.Sig_default -> (
    match Sigdefs.default_of sg with
    | Sigdefs.Ignore_sig -> true
    | Sigdefs.Terminate | Sigdefs.Core_dump ->
      kill_process k p ~code:(128 + sg);
      false)

(* ------------------------------------------------------------------ *)
(* Timers *)

(* Arms [t], or disarms it for a zero value. A new arming retires the
   expiry events of the one before. Each expiry raises SIGALRM for the
   process's real timer and wakes poll and epoll waiters for a timerfd. *)
let arm_timer k (p : Proc.process) (t : Proc.timer) (spec : Syscall.itimer_spec) =
  let armed = if spec.value_ns > 0 then Some spec else None in
  t.spec <- armed;
  t.armed_at <- K.now k;
  t.expirations <- 0;
  let rec expire at =
    Sched.schedule k.K.sched ~time:at (fun () ->
        if t.spec == armed && p.alive then begin
          if t == p.real_timer then post_signal k p Sigdefs.sigalrm
          else Sched.kick k.K.sched;
          if spec.interval_ns > 0 then expire (Vtime.add at spec.interval_ns)
        end)
  in
  if spec.value_ns > 0 then expire (Vtime.add t.armed_at spec.value_ns)

(* ------------------------------------------------------------------ *)
(* Call execution *)

let encode_flags (d : Proc.desc) = if d.nonblock then 0x800 else 0

(* An iovec's total length, or -1 when one length is negative as an int:
   a size_t past SSIZE_MAX, which readv and preadv answer EINVAL. *)
let iov_count lens =
  if List.exists (fun l -> l < 0) lens then -1 else List.fold_left ( + ) 0 lens

let wall_ns k = Int64.add k.K.epoch_offset_ns (Int64.of_int (K.now k))

(* Up to [count] bytes of a [/proc/self/maps] snapshot from [offset] on. *)
let maps_at content ~offset ~count =
  let size = String.length content in
  if offset >= size then ""
  else String.sub content offset (min count (size - offset))

(* Whether positional I/O reaches the kind. Linux's stream_open clears it
   for pipes and sockets and anonymous files never have it, so they answer
   ESPIPE; a seq_file such as /proc/self/maps reads at an offset but has
   no positional write. *)
let positional ~write (d : Proc.desc) =
  match d.kind with
  | Proc.Regular _ | Proc.Directory _ | Proc.Dev_null -> true
  | Proc.Proc_maps _ -> not write
  | _ -> false

(* Positional I/O reads and writes a file at [pos] and moves no offset;
   the other calls use and move the descriptor's offset. *)
let at_offset pos (d : Proc.desc) = Option.value pos ~default:d.offset
let advance pos (d : Proc.desc) s =
  if Option.is_none pos then d.offset <- d.offset + String.length s

let is_socket (d : Proc.desc) =
  match d.kind with Proc.Stream _ | Proc.Listener _ -> true | _ -> false

(* Hands read bytes back, charged as the copy to user space. *)
let copy_out k (th : Proc.thread) s =
  charge th (Cost_model.local_copy_ns k.K.cost ~bytes:(String.length s));
  Syscall.Ok_data s

(* A read's bytes: copied out, except for a positional read (DESIGN §7). *)
let read_done k th pos s =
  if Option.is_none pos then copy_out k th s else Syscall.Ok_data s

(* The socket receive, which the recv calls and a socket's read share.
   The recv calls take sockets only (ENOTSOCK). A listener, and a socket
   that never connected, answer ENOTCONN, also to an empty receive. *)
let recv k (th : Proc.thread) (d : Proc.desc) ~count ~bad_count =
  if not (is_socket d) then err Errno.ENOTSOCK
  else if count < 0 then err bad_count
  else
    match d.kind with
    | Proc.Stream s when not (Net.never_connected s) -> (
      let attempt () =
        if Net.incoming_length s > 0 then begin
          let data = Net.recv s count in
          (* cross-host streams return the freed space as link credit *)
          (match k.K.hostnet with
          | Some h when Net.is_remote s ->
            Hostnet.drained h s (String.length data)
          | _ -> ());
          (* draining frees receive-buffer space: wake blocked senders *)
          Sched.kick k.K.sched;
          Some data
        end
        else if stream_eof s then Some ""
        else None
      in
      match
        park_or_eagain k th d ~on:(Net.waitq s) ~what:"read(socket)" ~poll:attempt
      with
      | Ok data -> copy_out k th data
      | Error r -> r)
    | _ -> err Errno.ENOTCONN

(* The one read of every descriptor kind, at [pos] for pread64 and preadv;
   [vectored] for readv and preadv. Linux's order: ESPIPE for a kind
   without positional I/O, the access mode (EBADF), a negative count
   (EINVAL for an iovec length, EFAULT for a size_t past the address
   space), then the kind, where vfs_readv answers an empty vector with 0
   from every kind that has a read at all. Positional reads are charged no
   copy (DESIGN §7). Blocks according to [d.nonblock]. *)
let do_read k (th : Proc.thread) ?pos (d : Proc.desc) ~count ~vectored =
  let bad_count = if vectored then Errno.EINVAL else Errno.EFAULT in
  if Option.is_some pos && not (positional ~write:false d) then err Errno.ESPIPE
  else if not d.can_read then err Errno.EBADF
  else if count < 0 then err bad_count
  else
    match d.kind with
    | Proc.Epoll_fd _ -> err Errno.EINVAL
    | Proc.Replicated_handle _ ->
      (* A slave replica's stub descriptor reached the kernel: under a
         correctly-functioning MVEE this never happens, because slave I/O
         is aborted and satisfied from replicated results. *)
      err Errno.EREMOTEIO
    | _ when vectored && count = 0 -> read_done k th pos ""
    | Proc.Regular node -> (
      match Vfs.read_at node ~offset:(at_offset pos d) ~count with
      | Ok s ->
        advance pos d s;
        read_done k th pos s
      | Error e -> err e)
    | Proc.Directory _ -> err Errno.EISDIR
    | Proc.Dev_null -> read_done k th pos ""
    | Proc.Proc_maps pm ->
      let s = maps_at pm.content ~offset:(at_offset pos d) ~count in
      advance pos d s;
      read_done k th pos s
    (* pipe_read and sock_read_iter return 0 for an empty read at once *)
    | Proc.Pipe _ | Proc.Stream _ | Proc.Listener _ when count = 0 ->
      read_done k th pos ""
    | Proc.Pipe pi ->
      let attempt () =
        if Pipe.bytes_available pi > 0 then begin
          Sched.kick k.K.sched;
          Some (Pipe.read pi count)
        end
        else if Pipe.write_closed pi then Some ""
        else None
      in
      (match park_or_eagain k th d ~on:Waitq.global ~what:"read(pipe)" ~poll:attempt with
      | Ok s -> read_done k th pos s
      | Error r -> r)
    (* a socket has no positional read, so its bytes are copied out *)
    | Proc.Stream _ | Proc.Listener _ -> recv k th d ~count ~bad_count
    | Proc.Timer_fd _ | Proc.Event_fd _ when count < 8 ->
      (* the 8-byte counter does not fit: EINVAL, even before blocking *)
      err Errno.EINVAL
    | Proc.Timer_fd tf ->
      let attempt () =
        let avail = timer_available tf (K.now k) in
        if avail > 0 then begin
          tf.expirations <- tf.expirations + avail;
          Some (Syscall.Ok_int64 (Int64.of_int avail))
        end
        else None
      in
      answer_of
        (park_or_eagain k th d ~on:Waitq.global ~what:"read(timerfd)" ~poll:attempt)
    | Proc.Event_fd e ->
      (* eventfd semantics: read returns the counter and resets it,
         blocking while it is zero *)
      let attempt () =
        if e.Proc.count > 0 then begin
          let v = e.Proc.count in
          e.Proc.count <- 0;
          Sched.kick k.K.sched;
          Some (Syscall.Ok_int64 (Int64.of_int v))
        end
        else None
      in
      answer_of
        (park_or_eagain k th d ~on:Waitq.global ~what:"read(eventfd)" ~poll:attempt)

(* The one write of every descriptor kind, at [pos] for pwrite64 and
   pwritev, with [do_read]'s order and charges. *)
let do_write k (th : Proc.thread) ?pos (d : Proc.desc) ~data =
  let p = proc_of th in
  let len = String.length data in
  if Option.is_none pos then charge th (Cost_model.local_copy_ns k.K.cost ~bytes:len);
  if Option.is_some pos && not (positional ~write:true d) then err Errno.ESPIPE
  else if not d.can_write then err Errno.EBADF
  else
    match d.kind with
    | Proc.Regular node ->
      let offset =
        match pos with
        | Some o -> o
        | None -> if d.append then Vfs.file_size node else d.offset
      in
      (match Vfs.write_at node ~offset ~data ~now_ns:(K.now k) with
      | Ok n ->
        if Option.is_none pos then begin
          d.offset <- offset + n;
          Sched.kick k.K.sched
        end;
        Syscall.Ok_int n
      | Error e -> err e)
    | Proc.Dev_null -> Syscall.Ok_int len
    | Proc.Pipe _ when len = 0 ->
      (* a null write succeeds before Linux looks for readers: no EPIPE,
         no SIGPIPE, and it never blocks *)
      Syscall.Ok_int 0
    | Proc.Pipe pi ->
      if Pipe.read_closed pi then begin
        post_signal k p Sigdefs.sigpipe;
        err Errno.EPIPE
      end
      else begin
        let attempt () =
          if Pipe.read_closed pi then Some (err Errno.EPIPE)
          else
            let n = Pipe.write pi data in
            if n > 0 then begin
              Sched.kick k.K.sched;
              Some (Syscall.Ok_int n)
            end
            else None
        in
        answer_of
          (park_or_eagain k th d ~on:Waitq.global ~what:"write(pipe)" ~poll:attempt)
      end
    | Proc.Stream s when not (Net.never_connected s) ->
      (* Bounded socket buffers: each send accepts at most the peer's free
         receive space. A blocking sender parks until the peer drains; a
         nonblocking one sees a partial write or EAGAIN. *)
      let deliver chunk peer =
        let bytes = String.length chunk in
        (* local pairs (socketpair/loopback) skip the NIC: memcpy only.
           Cross-host endpoints pay the NIC/wire cost here, but the hop to
           the local gateway is near-free: the propagation delay lives on
           the inter-host link behind it. *)
        if Net.is_remote s || not (Net.is_local s) then
          charge th (Cost_model.wire_ns k.K.cost ~bytes)
        else charge th (Cost_model.local_copy_ns k.K.cost ~bytes);
        let latency =
          if Net.is_local s then Vtime.us 2 else k.K.net.Net.latency
        in
        let arrival = Vtime.add (Vtime.max th.clock (K.now k)) latency in
        Sched.schedule k.K.sched ~time:arrival (fun () ->
            Net.commit peer chunk;
            (* the peer of a cross-host app endpoint is gateway-held *)
            (match k.K.hostnet with
            | Some h when Net.is_remote peer -> Hostnet.poke h peer
            | _ -> ());
            Sched.kick k.K.sched)
      in
      (* Everything before [offset] has been accepted already, so an error
         or full buffer past that point reports a partial write. A write
         the peer accepts whole commits [data] itself: no host copy. *)
      let rec push offset =
        if offset >= len then Syscall.Ok_int len
        else
          match Net.send_start s (len - offset) with
          | Error e ->
            if offset > 0 then Syscall.Ok_int offset
            else begin
              if e = Errno.EPIPE then post_signal k p Sigdefs.sigpipe;
              err e
            end
          | Ok (0, _) ->
            if d.nonblock then
              if offset > 0 then Syscall.Ok_int offset else err Errno.EAGAIN
            else begin
              match
                block k th ~on:(Net.send_waitq s) ~what:"write(socket)"
                  ~poll:(fun () ->
                    if Net.peer_gone s || Net.wr_shut s then Some ()
                    else if Net.send_space s > 0 then Some ()
                    else None)
                  ()
              with
              | Ok () -> push offset
              | Error r -> r
            end
          | Ok (n, peer) ->
            deliver (if n = len then data else String.sub data offset n) peer;
            push (offset + n)
      in
      push 0
    | Proc.Stream _ | Proc.Listener _ ->
      (* not connected: tcp_sendmsg answers EPIPE and raises SIGPIPE, also
         for an empty write *)
      post_signal k p Sigdefs.sigpipe;
      err Errno.EPIPE
    | Proc.Event_fd _ when len <> 8 ->
      (* Linux takes exactly the 8-byte counter; any other size is EINVAL *)
      err Errno.EINVAL
    | Proc.Event_fd e ->
      (* adds the u64 the buffer carries; ULLONG_MAX is EINVAL, and an add
         that would overflow the counter waits for a read. The counter is
         an OCaml int here, so max_int stands in for ULLONG_MAX, and a
         value that does not fit below it never goes through. *)
      let raw = String.get_int64_le data 0 in
      if raw = -1L then err Errno.EINVAL
      else begin
        let v = Int64.to_int raw in
        let attempt () =
          if v >= 0 && v < max_int - e.Proc.count then begin
            e.Proc.count <- e.Proc.count + v;
            Sched.kick k.K.sched;
            Some (Syscall.Ok_int 8)
          end
          else None
        in
        answer_of
          (park_or_eagain k th d ~on:Waitq.global ~what:"write(eventfd)" ~poll:attempt)
      end
    (* no write operation: EINVAL, as vfs_write answers a file without one *)
    | Proc.Epoll_fd _ | Proc.Timer_fd _ -> err Errno.EINVAL
    | Proc.Directory _ | Proc.Proc_maps _ -> err Errno.EBADF
    | Proc.Replicated_handle _ -> err Errno.EREMOTEIO

(* The send calls, on sockets only. *)
let send k th d ~data =
  if is_socket d then do_write k th d ~data else err Errno.ENOTSOCK

(* Builds the stat result for a node-backed or anonymous descriptor. *)
let stat_of_node (node : Vfs.node) =
  Syscall.Ok_stat
    {
      Syscall.st_ino = node.ino;
      st_size = Vfs.file_size node;
      st_kind = Vfs.stat_kind node;
      st_mtime_ns = node.mtime_ns;
    }

let stat_of_desc (d : Proc.desc) =
  match d.kind with
  | Proc.Regular node | Proc.Directory node -> stat_of_node node
  | Proc.Pipe _ ->
    Syscall.Ok_stat { st_ino = 0; st_size = 0; st_kind = `Fifo; st_mtime_ns = 0 }
  | Proc.Listener _ | Proc.Stream _ ->
    Syscall.Ok_stat { st_ino = 0; st_size = 0; st_kind = `Sock; st_mtime_ns = 0 }
  | Proc.Proc_maps _ ->
    (* a proc file is a regular file of size 0 *)
    Syscall.Ok_stat { st_ino = 0; st_size = 0; st_kind = `Reg; st_mtime_ns = 0 }
  | Proc.Epoll_fd _ | Proc.Timer_fd _ | Proc.Event_fd _ | Proc.Dev_null
  | Proc.Replicated_handle _ ->
    Syscall.Ok_stat
      { st_ino = 0; st_size = 0; st_kind = `Special; st_mtime_ns = 0 }

(* ------------------------------------------------------------------ *)
(* Thread termination *)

(* Ends the calling thread, after its exit stop when traced: its fiber is
   never continued. *)
let exit_current k (th : Proc.thread) ~code ~group =
  let p = proc_of th in
  if Option.is_some p.tracer then begin
    k.K.stats.ptrace_stops <- k.K.stats.ptrace_stops + 1;
    ignore (Sched.stop (Proc.Exit_stop code))
  end;
  if group then kill_process k p ~code
  else begin
    (* the last thread's code is the process's *)
    if Vec.for_all (fun (t : Proc.thread) -> t == th || t.tstate = Proc.Dead) p.threads
    then p.exit_code <- code;
    th.tstate <- Proc.Dead;
    k.K.sched.Sched.on_thread_exit th
  end;
  Sched.drop ()

(* ------------------------------------------------------------------ *)
(* Executing a call *)

(* How a call fails from anywhere inside [exec]: a helper raises [Fail],
   and [exec] alone catches it and answers [Error]. *)
exception Fail of Errno.t

let fail e = raise_notrace (Fail e)

(* The value of a kernel object's [result]; [zero] answers 0 for it. *)
let ok = function Ok v -> v | Error e -> fail e
let zero = function Ok _ -> Syscall.Ok_int 0 | Error e -> fail e

(* The descriptor at [fd]: EBADF when it is closed. *)
let desc (p : Proc.process) fd =
  match Proc.desc_of_fd p fd with Some d -> d | None -> fail Errno.EBADF

let install_fd (p : Proc.process) d = Fdtable.alloc p.fds ~from:0 d

let xattr (node : Vfs.node) name =
  match List.assoc_opt name node.xattrs with
  | Some v -> Syscall.Ok_str v
  | None -> err Errno.ENOENT

(* A socket's port: the bound one, or a fresh ephemeral one. *)
let client_port k s =
  if Net.local_port s <> 0 then Net.local_port s else Net.ephemeral_port k.K.net

(* Runs [call] on the calling thread's fiber and answers its result; a
   call that waits suspends the fiber until the wait ends. *)
let rec exec k (th : Proc.thread) (call : Syscall.call) : Syscall.result =
  let p = proc_of th in
  try
    match call with
    (* ---- identity / time ---- *)
    | Syscall.Gettimeofday | Syscall.Time -> Syscall.Ok_int64 (wall_ns k)
    | Syscall.Clock_gettime `Realtime -> Syscall.Ok_int64 (wall_ns k)
    | Syscall.Clock_gettime `Monotonic -> Syscall.Ok_int64 (Int64.of_int (K.now k))
    | Syscall.Getpid -> Syscall.Ok_int p.pid
    | Syscall.Gettid -> Syscall.Ok_int th.tid
    | Syscall.Getpgrp -> Syscall.Ok_int p.pid
    | Syscall.Getppid -> Syscall.Ok_int p.parent_pid
    | Syscall.Getgid | Syscall.Getegid -> Syscall.Ok_int 1000
    | Syscall.Getuid | Syscall.Geteuid -> Syscall.Ok_int 1000
    | Syscall.Getcwd -> Syscall.Ok_str p.cwd
    | Syscall.Getpriority -> Syscall.Ok_int 20
    | Syscall.Getrusage -> Syscall.Ok_int64 (Int64.of_int th.clock)
    | Syscall.Times -> Syscall.Ok_int64 (Int64.of_int (K.now k))
    | Syscall.Capget -> Syscall.Ok_int 0
    | Syscall.Getitimer -> Syscall.Ok_itimer (timer_left p.real_timer (K.now k))
    | Syscall.Sysinfo -> Syscall.Ok_int64 (Int64.of_int (K.now k))
    | Syscall.Uname -> Syscall.Ok_str "Linux remon-sim 3.13.11 x86_64"
    | Syscall.Sched_yield -> Syscall.Ok_int 0
    (* ---- futex ---- *)
    | Syscall.Futex (Syscall.Futex_wake { addr; count }) ->
      charge th k.K.cost.futex_wake_ns;
      let key = Vm.futex_key p.vm ~space_id:p.pid addr in
      let q = K.futex_queue k key in
      let n = ref 0 in
      while !n < count && not (Queue.is_empty q) do
        let w = Queue.pop q in
        if (not w.K.cancelled) && not w.K.woken then begin
          w.K.woken <- true;
          incr n
        end
      done;
      Sched.kick k.K.sched;
      Syscall.Ok_int !n
    (* ---- fd control ---- *)
    | Syscall.Ioctl (fd, op) -> (
      let d = desc p fd in
      match op with
      | Syscall.Fionread -> (
        match d.kind with
        | Proc.Pipe pi -> Syscall.Ok_int (Pipe.bytes_available pi)
        | Proc.Stream s -> Syscall.Ok_int (Net.incoming_length s)
        (* do_vfs_ioctl answers a regular file's size less the offset,
           negative past the end; a proc file's size is 0 *)
        | Proc.Regular node -> Syscall.Ok_int (Vfs.file_size node - d.offset)
        | Proc.Proc_maps _ -> Syscall.Ok_int (-d.offset)
        (* tcp_ioctl refuses a listener; epoll's ioctl knows only its
           busy-poll commands *)
        | Proc.Listener _ | Proc.Epoll_fd _ -> err Errno.EINVAL
        | Proc.Directory _ | Proc.Dev_null | Proc.Timer_fd _ | Proc.Event_fd _ ->
          err Errno.ENOTTY
        | Proc.Replicated_handle _ -> Syscall.Ok_int 0)
      | Syscall.Fionbio v ->
        d.nonblock <- v;
        Syscall.Ok_int 0
      | Syscall.Tiocgwinsz -> Syscall.Ok_int ((24 lsl 16) lor 80))
    | Syscall.Fcntl (fd, op) -> (
      let d = desc p fd in
      match op with
      | Syscall.F_getfl -> Syscall.Ok_int (encode_flags d)
      | Syscall.F_setfl { nonblock } ->
        d.nonblock <- nonblock;
        Syscall.Ok_int 0
      | Syscall.F_dupfd from ->
        if not (Fdtable.in_range from) then err Errno.EINVAL
        else begin
          d.refs <- d.refs + 1;
          Syscall.Ok_int (Fdtable.alloc p.fds ~from d)
        end)
    (* ---- filesystem queries ---- *)
    | Syscall.Access path | Syscall.Faccessat path ->
      if Vfs.exists k.K.vfs path then Syscall.Ok_int 0 else err Errno.ENOENT
    | Syscall.Lseek (fd, offset, whence) -> (
      let d = desc p fd in
      match d.kind with
      | Proc.Regular _ | Proc.Proc_maps _ -> (
        let base =
          match (whence, d.kind) with
          | Syscall.Seek_set, _ -> Some 0
          | Syscall.Seek_cur, _ -> Some d.offset
          | Syscall.Seek_end, Proc.Regular node -> Some (Vfs.file_size node)
          | Syscall.Seek_end, _ -> None (* seq_lseek has no SEEK_END *)
        in
        match base with
        | Some base when base + offset >= 0 ->
          d.offset <- base + offset;
          Syscall.Ok_int d.offset
        | _ -> err Errno.EINVAL)
      (* null_lseek and noop_llseek: 0, and the position never moves *)
      | Proc.Dev_null | Proc.Event_fd _ | Proc.Timer_fd _ | Proc.Epoll_fd _ ->
        Syscall.Ok_int 0
      | Proc.Pipe _ | Proc.Stream _ | Proc.Listener _ -> err Errno.ESPIPE
      | Proc.Directory _ | Proc.Replicated_handle _ -> err Errno.EINVAL)
    | Syscall.Stat path | Syscall.Fstatat path ->
      stat_of_node (ok (Vfs.resolve k.K.vfs path))
    | Syscall.Lstat path -> stat_of_node (ok (Vfs.resolve_nofollow k.K.vfs path))
    | Syscall.Fstat fd -> stat_of_desc (desc p fd)
    | Syscall.Getdents fd | Syscall.Getdents64 fd -> (
      let d = desc p fd in
      match d.kind with
      | Proc.Directory node ->
        let names = ok (Vfs.list_dir node) in
        if d.offset > 0 then Syscall.Ok_dents []
        else begin
          d.offset <- 1;
          Syscall.Ok_dents names
        end
      | _ -> err Errno.ENOTDIR)
    | Syscall.Readlink path | Syscall.Readlinkat path -> (
      match ok (Vfs.resolve_nofollow k.K.vfs path) with
      | { kind = Vfs.Symlink target; _ } -> Syscall.Ok_str target
      | _ -> err Errno.EINVAL)
    | Syscall.Getxattr (path, name) | Syscall.Lgetxattr (path, name) ->
      xattr (ok (Vfs.resolve k.K.vfs path)) name
    | Syscall.Fgetxattr (fd, name) -> (
      match (desc p fd).kind with
      | Proc.Regular node | Proc.Directory node -> xattr node name
      | _ -> err Errno.EBADF)
    (* ---- timers ---- *)
    | Syscall.Alarm seconds ->
      (* setitimer(ITIMER_REAL) in whole seconds. It answers the time that
         was left as alarm_setitimer rounds it: to the nearest second, and
         up to 1 below a second. *)
      let left = (timer_left p.real_timer (K.now k)).value_ns in
      arm_timer k p p.real_timer { value_ns = Vtime.s seconds; interval_ns = 0 };
      Syscall.Ok_int (max (min left 1) ((left + 500_000_000) / 1_000_000_000))
    | Syscall.Setitimer spec ->
      arm_timer k p p.real_timer spec;
      Syscall.Ok_int 0
    | Syscall.Timerfd_create ->
      let t = { Proc.spec = None; armed_at = Vtime.zero; expirations = 0 } in
      Syscall.Ok_int (install_fd p (Proc.make_desc (Proc.Timer_fd t)))
    | Syscall.Timerfd_gettime fd | Syscall.Timerfd_settime (fd, _) -> (
      match ((desc p fd).kind, call) with
      | Proc.Timer_fd t, Syscall.Timerfd_settime (_, spec) ->
        arm_timer k p t spec;
        Syscall.Ok_int 0
      | Proc.Timer_fd t, _ -> Syscall.Ok_itimer (timer_left t (K.now k))
      | _ -> err Errno.EINVAL)
    | Syscall.Madvise _ | Syscall.Fadvise64 _ -> Syscall.Ok_int 0
    (* ---- sync family ---- *)
    | Syscall.Sync | Syscall.Syncfs _ | Syscall.Fsync _ | Syscall.Fdatasync _ ->
      Syscall.Ok_int 0
    (* ---- epoll ---- *)
    | Syscall.Epoll_create ->
      Syscall.Ok_int (install_fd p (Proc.make_desc (Proc.Epoll_fd (Epoll.create ()))))
    | Syscall.Epoll_ctl { epfd; op; fd; events; user_data } -> (
      (* Linux's order: both descriptors exist, the target can be polled
         (files, directories, /dev/null and /proc/self/maps have no ->poll:
         EPERM), and only then must [epfd] be an epoll other than the
         target *)
      let d = desc p epfd in
      let target = desc p fd in
      match (d.kind, target.kind) with
      | _, (Proc.Regular _ | Proc.Directory _ | Proc.Dev_null | Proc.Proc_maps _) ->
        err Errno.EPERM
      | Proc.Epoll_fd ep, _ when d != target ->
        zero (Epoll.ctl ep ~op ~fd ~events ~user_data)
      | _ -> err Errno.EINVAL)
    (* ---- sockets ---- *)
    | Syscall.Socket (_, _) ->
      let s = Net.fresh_stream k.K.net in
      Syscall.Ok_int (install_fd p (Proc.make_desc (Proc.Stream s)))
    | Syscall.Socketpair (_, _) ->
      let a, b = Net.make_pair k.K.net ~client_port:0 ~server_port:0 in
      Net.set_connected a;
      Net.set_connected b;
      Net.mark_local a;
      Net.mark_local b;
      let fd1 = install_fd p (Proc.make_desc (Proc.Stream a)) in
      let fd2 = install_fd p (Proc.make_desc (Proc.Stream b)) in
      Syscall.Ok_pair (fd1, fd2)
    | Syscall.Bind (fd, port) -> (
      match (desc p fd).kind with
      | Proc.Stream s when Net.local_port s = 0 ->
        Net.set_local_port s port;
        Syscall.Ok_int 0
      (* bound already: a second bind, a connected socket or a listener *)
      | Proc.Stream _ | Proc.Listener _ -> err Errno.EINVAL
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Listen (fd, backlog) -> (
      let d = desc p fd in
      match d.kind with
      | Proc.Stream s ->
        d.kind <- Proc.Listener (ok (Net.listen k.K.net ~port:(Net.local_port s) ~backlog));
        Syscall.Ok_int 0
      | Proc.Listener _ -> Syscall.Ok_int 0
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Getsockname fd -> (
      match (desc p fd).kind with
      | Proc.Stream s -> Syscall.Ok_int (Net.local_port s)
      | Proc.Listener l -> Syscall.Ok_int l.port
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Getpeername fd -> (
      match (desc p fd).kind with
      | Proc.Stream s when Net.connected s -> Syscall.Ok_int (Net.peer_port s)
      | Proc.Stream _ | Proc.Listener _ -> err Errno.ENOTCONN
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Getsockopt (fd, opt) -> (
      match (desc p fd).kind with
      | Proc.Stream s ->
        if opt = Net.so_sndbuf then Syscall.Ok_int (Net.sndbuf s)
        else if opt = Net.so_rcvbuf then Syscall.Ok_int (Net.rcvbuf s)
        else Syscall.Ok_int 0
      | Proc.Listener _ -> Syscall.Ok_int 0
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Setsockopt (fd, opt, value) -> (
      match (desc p fd).kind with
      | Proc.Stream s ->
        if opt = Net.so_sndbuf then Net.set_sndbuf s value
        else if opt = Net.so_rcvbuf then begin
          Net.set_rcvbuf s value;
          (* a larger buffer may unblock a parked sender *)
          Sched.kick k.K.sched
        end;
        Syscall.Ok_int 0
      | Proc.Listener _ -> Syscall.Ok_int 0
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Shutdown (fd, how) -> (
      let d = desc p fd in
      match d.kind with
      | Proc.Listener _ when how = Syscall.Shut_wr -> Syscall.Ok_int 0
      | Proc.Listener l ->
        (* Linux disconnects a listener shut for reading: it stops
           listening, resets its backlog, and is left an unconnected socket
           bound to its port. So accept answers EINVAL, woken accepters
           too; connects are refused; a second shutdown is ENOTCONN; listen
           starts over. The reset backlog's clients see their peer gone
           (EOF, EPIPE), not ECONNRESET. *)
        Net.close_listener k.K.net l;
        Queue.iter (close_stream k) l.Net.pending;
        Queue.clear l.Net.pending;
        let s = Net.fresh_stream k.K.net in
        Net.set_local_port s l.Net.port;
        d.kind <- Proc.Stream s;
        Waitq.wake l.Net.wq;
        Sched.kick k.K.sched;
        Syscall.Ok_int 0
      | Proc.Stream s when Net.never_connected s -> err Errno.ENOTCONN
      | Proc.Stream s ->
        (match how with
        | Syscall.Shut_rd -> Net.shutdown_rd s
        | Syscall.Shut_wr -> Net.shutdown_wr s
        | Syscall.Shut_rdwr ->
          Net.shutdown_rd s;
          Net.shutdown_wr s);
        (match k.K.hostnet with
        | Some h when Net.is_remote s -> Hostnet.poke h s
        | _ -> ());
        Sched.kick k.K.sched;
        Syscall.Ok_int 0
      | _ -> err Errno.ENOTSOCK)
    (* ---- fd lifecycle ---- *)
    | Syscall.Open (path, flags) | Syscall.Openat (path, flags) ->
      if path = "/dev/null" then
        Syscall.Ok_int
          (install_fd p
             (Proc.make_desc ~nonblock:flags.nonblock ~can_read:flags.read
                ~can_write:flags.write Proc.Dev_null))
      else if path = "/proc/self/maps" then
        Syscall.Ok_int
          (install_fd p
             (Proc.make_desc ~can_read:true ~can_write:false
                (Proc.Proc_maps { content = Vm.maps_text p.vm })))
      else begin
        let node =
          ok
            (if flags.create then Vfs.create_file k.K.vfs path
             else Vfs.resolve k.K.vfs path)
        in
        match node.kind with
        | Vfs.Dir _ ->
          if flags.write then err Errno.EISDIR
          else
            Syscall.Ok_int
              (install_fd p
                 (Proc.make_desc ~can_read:true ~can_write:false
                    (Proc.Directory node)))
        | Vfs.Reg _ ->
          if flags.trunc && flags.write then
            ignore (Vfs.truncate node ~size:0 ~now_ns:(K.now k));
          Syscall.Ok_int
            (install_fd p
               (Proc.make_desc ~nonblock:flags.nonblock ~can_read:flags.read
                  ~can_write:flags.write ~append:flags.append (Proc.Regular node)))
        | Vfs.Symlink _ -> err Errno.ELOOP
      end
    | Syscall.Creat path ->
      exec k th
        (Syscall.Open
           (path, { Syscall.o_rdwr with read = false; create = true; trunc = true }))
    | Syscall.Close fd ->
      let d = desc p fd in
      Fdtable.remove p.fds fd;
      release_desc k d;
      Syscall.Ok_int 0
    | Syscall.Dup fd -> exec k th (Syscall.Fcntl (fd, Syscall.F_dupfd 0))
    (* Linux rejects dup3(fd, fd) before it looks at fd *)
    | Syscall.Dup3 (fd, newfd) when fd = newfd -> err Errno.EINVAL
    | Syscall.Dup2 (fd, newfd) | Syscall.Dup3 (fd, newfd) ->
      if not (Fdtable.in_range newfd) then err Errno.EBADF
      else begin
        let d = desc p fd in
        if fd <> newfd then begin
          (match Proc.desc_of_fd p newfd with
          | Some old ->
            Fdtable.remove p.fds newfd;
            release_desc k old
          | None -> ());
          d.refs <- d.refs + 1;
          Fdtable.set p.fds newfd d
        end;
        Syscall.Ok_int newfd
      end
    | Syscall.Pipe | Syscall.Pipe2 _ ->
      let nonblock =
        match call with Syscall.Pipe2 { nonblock } -> nonblock | _ -> false
      in
      let pi = Pipe.create () in
      let rfd = install_fd p (Proc.make_desc ~nonblock ~can_write:false (Proc.Pipe pi)) in
      let wfd = install_fd p (Proc.make_desc ~nonblock ~can_read:false (Proc.Pipe pi)) in
      Syscall.Ok_pair (rfd, wfd)
    | Syscall.Unlink path | Syscall.Unlinkat path -> zero (Vfs.unlink k.K.vfs path)
    | Syscall.Rename (src, dst) | Syscall.Renameat (src, dst) ->
      zero (Vfs.rename k.K.vfs ~src ~dst)
    | Syscall.Mkdir path | Syscall.Mkdirat path -> zero (Vfs.mkdir k.K.vfs path)
    | Syscall.Rmdir path -> zero (Vfs.rmdir k.K.vfs path)
    | Syscall.Truncate (_, size) | Syscall.Ftruncate (_, size) when size < 0 ->
      err Errno.EINVAL
    | Syscall.Truncate (path, size) ->
      zero (Vfs.truncate (ok (Vfs.resolve k.K.vfs path)) ~size ~now_ns:(K.now k))
    | Syscall.Ftruncate (fd, size) -> (
      match (desc p fd).kind with
      | Proc.Regular node -> zero (Vfs.truncate node ~size ~now_ns:(K.now k))
      | _ -> err Errno.EINVAL)
    (* ---- memory ---- *)
    | Syscall.Mmap { len; prot; kind } ->
      let backing =
        match kind with
        | Syscall.Map_anon -> Vm.Anon
        | Syscall.Map_shared_anon -> Vm.Shared_anon (K.fresh_share_group k)
        | Syscall.Map_file fd -> (
          match (desc p fd).kind with
          | Proc.Regular node -> Vm.File_backed node
          | _ -> fail Errno.EINVAL)
      in
      Syscall.Ok_int64 (ok (Vm.map p.vm ~len ~prot ~backing ~tag:"anon")).Vm.start
    | Syscall.Munmap { addr; len } -> zero (Vm.unmap p.vm ~addr ~len)
    | Syscall.Mprotect { addr; len; prot } -> zero (Vm.protect p.vm ~addr ~len ~prot)
    | Syscall.Mremap { addr; old_len; new_len } -> (
      match Vm.find_region p.vm addr with
      | Some r when Int64.equal r.Vm.start addr && r.Vm.len = old_len ->
        let prot = r.Vm.prot and backing = r.Vm.backing and tag = r.Vm.tag in
        ok (Vm.unmap p.vm ~addr ~len:old_len);
        Syscall.Ok_int64 (ok (Vm.map p.vm ~len:new_len ~prot ~backing ~tag)).Vm.start
      | _ -> err Errno.EINVAL)
    | Syscall.Brk n -> Syscall.Ok_int (Vm.set_brk p.vm n)
    (* ---- shared memory ---- *)
    | Syscall.Shmget { key; size; create } ->
      Syscall.Ok_int (ok (Shm.get k.K.shm ~key ~size ~create)).Shm.shmid
    | Syscall.Shmat { shmid; readonly } ->
      let seg = ok (Shm.find k.K.shm shmid) in
      let prot = { Syscall.pr = true; pw = not readonly; px = false } in
      let r =
        ok
          (Vm.map p.vm ~len:seg.Shm.size ~prot ~backing:(Vm.Shm_seg seg)
             ~tag:"sysv-shm")
      in
      Shm.attach seg;
      Syscall.Ok_int64 r.Vm.start
    | Syscall.Shmdt { addr } -> (
      match Vm.find_region p.vm addr with
      | Some { Vm.backing = Vm.Shm_seg seg; start; _ } when Int64.equal start addr ->
        ok (Vm.unmap p.vm ~addr ~len:0);
        Shm.detach k.K.shm seg;
        Syscall.Ok_int 0
      | _ -> err Errno.EINVAL)
    | Syscall.Shmctl { shmid; rmid } ->
      let seg = ok (Shm.find k.K.shm shmid) in
      if rmid then Shm.remove k.K.shm seg;
      Syscall.Ok_int 0
    (* ---- process / thread lifecycle ---- *)
    | Syscall.Clone entry_idx ->
      if entry_idx < 0 || entry_idx >= Array.length p.entry_table then
        err Errno.EINVAL
      else begin
        let nt = K.add_thread k p ~start_clock:th.clock in
        Sched.spawn k.K.sched nt p.entry_table.(entry_idx);
        Syscall.Ok_int nt.tid
      end
    | Syscall.Fork | Syscall.Execve _ ->
      (* Documented limitation: one-shot continuations cannot be duplicated,
         so multi-process programs model workers as threads or pre-spawned
         processes instead. *)
      err Errno.ENOSYS
    | Syscall.Kill (pid, sg) | Syscall.Tgkill (pid, _, sg) -> (
      match K.find_proc k pid with
      | Some target ->
        post_signal k target sg;
        Syscall.Ok_int 0
      | None -> err Errno.ESRCH)
    (* ---- signals ---- *)
    | Syscall.Rt_sigaction (sg, action) ->
      if not (Sigdefs.catchable sg) then err Errno.EINVAL
      else begin
        Hashtbl.replace p.sig_actions sg action;
        Syscall.Ok_int 0
      end
    | Syscall.Rt_sigprocmask (how, sigs) ->
      let set = Proc.IntSet.of_list sigs in
      (match how with
      | Syscall.Sig_block -> p.sig_mask <- Proc.IntSet.union p.sig_mask set
      | Syscall.Sig_unblock -> p.sig_mask <- Proc.IntSet.diff p.sig_mask set
      | Syscall.Sig_setmask -> p.sig_mask <- set);
      Sched.wake_process k.K.sched p;
      Sched.kick k.K.sched;
      Syscall.Ok_int 0
    | Syscall.Rt_sigreturn -> Syscall.Ok_unit
    | Syscall.Sigaltstack -> Syscall.Ok_int 0
    (* ---- identity / limits / misc (extended surface) ---- *)
    | Syscall.Getpgid | Syscall.Getsid -> Syscall.Ok_int p.pid
    | Syscall.Setsid -> Syscall.Ok_int p.pid
    | Syscall.Getrlimit _ -> Syscall.Ok_int64 Int64.max_int
    | Syscall.Setrlimit _ | Syscall.Prlimit64 _ -> Syscall.Ok_int 0
    | Syscall.Sched_getaffinity -> Syscall.Ok_int 0xFFFF
    | Syscall.Sched_setaffinity _ -> Syscall.Ok_int 0
    | Syscall.Clock_getres -> Syscall.Ok_int64 1L
    | Syscall.Getrandom n ->
      (* kernel entropy: replicas must receive identical bytes, which is
         why the MVEE replicates this call's results verbatim *)
      let buf = Bytes.create (if n < 0 then 4096 else min n 4096) in
      for i = 0 to Bytes.length buf - 1 do
        Bytes.set buf i (Char.chr (Remon_util.Rng.int k.K.rng 256))
      done;
      Syscall.Ok_data (Bytes.to_string buf)
    | Syscall.Statfs _ | Syscall.Fstatfs _ ->
      Syscall.Ok_int64 (Int64.of_int (64 * 1024 * 1024 * 1024))
    | Syscall.Readahead _ | Syscall.Mincore _ | Syscall.Msync _ | Syscall.Mlock _
    | Syscall.Munlock _ ->
      Syscall.Ok_int 0
    | Syscall.Umask _ -> Syscall.Ok_int 0o022
    (* ---- file metadata writes ---- *)
    | Syscall.Chmod (path, _) | Syscall.Chown (path, _, _) | Syscall.Utimensat path ->
      let node = ok (Vfs.resolve k.K.vfs path) in
      node.Vfs.mtime_ns <- K.now k;
      Syscall.Ok_int 0
    | Syscall.Fchmod (fd, _) -> (
      match (desc p fd).kind with
      | Proc.Regular node | Proc.Directory node ->
        node.Vfs.mtime_ns <- K.now k;
        Syscall.Ok_int 0
      | _ -> err Errno.EBADF)
    (* ---- hard and symbolic links ---- *)
    | Syscall.Link (target, path) | Syscall.Linkat (target, path) -> (
      let node = ok (Vfs.resolve k.K.vfs target) in
      let parent, name = ok (Vfs.parent_and_name k.K.vfs path) in
      match parent.Vfs.kind with
      | Vfs.Dir entries ->
        if Hashtbl.mem entries name then err Errno.EEXIST
        else begin
          Hashtbl.replace entries name node;
          Syscall.Ok_int 0
        end
      | _ -> err Errno.ENOTDIR)
    | Syscall.Symlink (target, path) | Syscall.Symlinkat (target, path) ->
      zero (Vfs.symlink k.K.vfs ~target ~path)
    (* ---- new fd factories ---- *)
    | Syscall.Eventfd initial ->
      let e = { Proc.count = max 0 initial } in
      Syscall.Ok_int (install_fd p (Proc.make_desc (Proc.Event_fd e)))
    (* ---- ReMon registration ---- *)
    | Syscall.Ipmon_register { calls; rb_addr; entry_addr = _ } -> (
      match p.ipmon_staged with
      | None -> err Errno.EINVAL
      | Some reg ->
        (* the call's own argument list is authoritative over the staged
           one; IK-B's verifier checks [in_ipmon], not the entry point *)
        p.ipmon_registered <-
          Some { reg with Proc.unmonitored = Sysno.mask_of_list calls; rb_addr };
        p.ipmon_staged <- None;
        Syscall.Ok_int 0)
    (* ---- sleeps and futex waits ---- *)
    | Syscall.Nanosleep ns ->
      (* Linux's timespec64_valid: a negative time is EINVAL *)
      if ns < 0 then fail Errno.EINVAL;
      (match sleep k th ~what:"nanosleep" ~timeout_ns:ns () with
      | Syscall.Error Errno.ETIMEDOUT -> Syscall.Ok_unit
      | r -> r)
    | Syscall.Pause -> sleep k th ~what:"pause" ()
    | Syscall.Futex (Syscall.Futex_wait { addr; expected; timeout_ns }) -> (
      (match timeout_ns with Some ns when ns < 0 -> fail Errno.EINVAL | _ -> ());
      charge th k.K.cost.futex_wait_ns;
      if Vm.read_word p.vm addr <> expected then fail Errno.EAGAIN;
      let key = Vm.futex_key p.vm ~space_id:p.pid addr in
      let w = { K.woken = false; cancelled = false } in
      Queue.push w (K.futex_queue k key);
      match
        block k th ~on:Waitq.global ~what:"futex_wait" ?timeout_ns
          ~poll:(fun () -> if w.K.woken then Some () else None)
          ()
      with
      | Ok () -> Syscall.Ok_int 0
      | Error r ->
        w.K.cancelled <- true;
        r)
    (* ---- read family ---- *)
    (* Linux rejects a negative file offset before it looks at the fd *)
    | Syscall.Pread64 (_, _, offset) | Syscall.Preadv (_, _, offset)
    | Syscall.Pwrite64 (_, _, offset) | Syscall.Pwritev (_, _, offset)
      when offset < 0 ->
      err Errno.EINVAL
    | Syscall.Read (fd, count) -> do_read k th (desc p fd) ~count ~vectored:false
    | Syscall.Readv (fd, lens) ->
      do_read k th (desc p fd) ~count:(iov_count lens) ~vectored:true
    | Syscall.Pread64 (fd, count, pos) ->
      do_read k th ~pos (desc p fd) ~count ~vectored:false
    | Syscall.Preadv (fd, lens, pos) ->
      do_read k th ~pos (desc p fd) ~count:(iov_count lens) ~vectored:true
    | Syscall.Recvfrom (fd, count) ->
      (* Linux clamps recvfrom's length to MAX_RW_COUNT before checking the
         buffer, so a negative one reads what is queued *)
      let count = if count < 0 then max_int else count in
      recv k th (desc p fd) ~count ~bad_count:Errno.EFAULT
    | Syscall.Recvmsg (fd, count) -> recv k th (desc p fd) ~count ~bad_count:Errno.EINVAL
    | Syscall.Recvmmsg (fd, msgs, each) ->
      recv k th (desc p fd) ~count:(msgs * each) ~bad_count:Errno.EFAULT
    | Syscall.Select { readfds; writefds; timeout_ns }
    | Syscall.Pselect6 { readfds; writefds; timeout_ns } ->
      let fds =
        List.map (fun fd -> (fd, Syscall.ev_in)) readfds
        @ List.map (fun fd -> (fd, Syscall.ev_out)) writefds
      in
      poll_fds k th ~what:"select" fds ~timeout_ns
    | Syscall.Poll { fds; timeout_ns } | Syscall.Ppoll { fds; timeout_ns } ->
      poll_fds k th ~what:"poll" fds ~timeout_ns
    (* ---- write family ---- *)
    | Syscall.Write (fd, data) -> do_write k th (desc p fd) ~data
    | Syscall.Writev (fd, chunks) -> do_write k th (desc p fd) ~data:(String.concat "" chunks)
    | Syscall.Pwrite64 (fd, data, pos) -> do_write k th ~pos (desc p fd) ~data
    | Syscall.Pwritev (fd, chunks, pos) ->
      do_write k th ~pos (desc p fd) ~data:(String.concat "" chunks)
    | Syscall.Sendto (fd, data) | Syscall.Sendmsg (fd, data) -> send k th (desc p fd) ~data
    | Syscall.Sendmmsg (fd, chunks) -> send k th (desc p fd) ~data:(String.concat "" chunks)
    | Syscall.Sendfile { out_fd; in_fd; count } -> (
      (* Linux checks [in_fd], the count and [out_fd] before it moves a byte,
         then moves [in_fd]'s offset by what [out_fd] took: nothing on an
         error, the accepted prefix on a short write, and only once a write
         that parks completes. *)
      let din = desc p in_fd in
      if not din.can_read then fail Errno.EBADF;
      if count < 0 then fail Errno.EINVAL;
      let dout = desc p out_fd in
      match din.kind with
      | Proc.Regular node ->
        let start = din.offset in
        let r = do_write k th dout ~data:(ok (Vfs.read_at node ~offset:start ~count)) in
        (match r with Syscall.Ok_int n -> din.offset <- start + n | _ -> ());
        r
      | _ -> err Errno.EINVAL)
    | Syscall.Epoll_wait { epfd; max_events; timeout_ns } -> (
      match (desc p epfd).kind with
      | Proc.Epoll_fd _ when max_events <= 0 -> err Errno.EINVAL
      | Proc.Epoll_fd ep ->
        let attempt () =
          let ready =
            List.filter_map
              (fun (fd, (entry : Epoll.entry)) ->
                match Proc.desc_of_fd p fd with
                | None -> None (* stale interest entry: fd closed *)
                | Some watched ->
                  let have = poll_desc k watched in
                  if events_intersect entry.events have then
                    Some (entry.user_data, have)
                  else None)
              (Epoll.interest_list ep)
          in
          match ready with
          | [] -> None
          | _ ->
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | x :: tl -> x :: take (n - 1) tl
            in
            Some (take max_events ready)
        in
        wait_ready k th ~what:"epoll_wait" ~timeout_ns ~poll:attempt
          ~ready:(fun l -> Syscall.Ok_epoll l)
      | _ -> err Errno.EINVAL)
    | Syscall.Accept fd | Syscall.Accept4 { fd; _ } -> (
      let nonblock =
        match call with Syscall.Accept4 { nonblock; _ } -> nonblock | _ -> false
      in
      let d = desc p fd in
      match d.kind with
      | Proc.Listener l -> (
        (* [Some None]: a shutdown took the descriptor out of listening *)
        let attempt () =
          match d.kind with
          | Proc.Listener l' when l' == l ->
            if Queue.is_empty l.pending then None
            else Some (Some (Queue.pop l.pending))
          | _ -> Some None
        in
        match park_or_eagain k th d ~on:l.Net.wq ~what:"accept" ~poll:attempt with
        | Ok None -> err Errno.EINVAL
        | Ok (Some s) ->
          Net.set_connected s;
          let conn_fd = install_fd p (Proc.make_desc ~nonblock (Proc.Stream s)) in
          Sched.kick k.K.sched;
          Syscall.Ok_accept { conn_fd; peer_port = Net.peer_port s }
        | Error r -> r)
      | Proc.Stream _ -> err Errno.EINVAL
      | _ -> err Errno.ENOTSOCK)
    | Syscall.Connect (fd, port) -> (
      let d = desc p fd in
      match d.kind with
      | Proc.Stream placeholder -> (
        match Net.find_listener k.K.net ~port with
        | None -> (
          match k.K.hostnet with
          | Some h when Hostnet.has_port h port -> (
            (* port statically routed to another host: the gateway runs
               the SYN handshake over the inter-host link, and whether a
               listener exists there is resolved at SYN-arrival virtual
               time (deterministically, like the local backlog check) *)
            let local_port = client_port k placeholder in
            let client, progress = Hostnet.connect h ~local_port ~port in
            d.kind <- Proc.Stream client;
            if d.nonblock then err Errno.EINPROGRESS
            else
              match
                block k th ~on:Waitq.global ~what:"connect(remote)"
                  ~poll:(fun () ->
                    match !progress with
                    | Hostnet.Connecting -> None
                    | (Hostnet.Connected | Hostnet.Refused) as st -> Some st)
                  ()
              with
              | Ok Hostnet.Connected -> Syscall.Ok_int 0
              | Ok _ -> err Errno.ECONNREFUSED
              | Error r -> r)
          | _ -> (
            (* RST arrives one round trip later *)
            match
              sleep k th ~what:"connect(refused)"
                ~timeout_ns:(Vtime.scale k.K.net.Net.latency 2.) ()
            with
            | Syscall.Error Errno.ETIMEDOUT -> err Errno.ECONNREFUSED
            | r -> r))
        | Some l -> (
          let client, server =
            Net.make_pair k.K.net ~client_port:(client_port k placeholder)
              ~server_port:port
          in
          Net.set_connected client;
          d.kind <- Proc.Stream client;
          let latency = k.K.net.Net.latency in
          (* Backlog enforcement happens at SYN arrival: a full pending
             queue refuses the connection, which the client observes one
             round trip after connect (ECONNREFUSED when blocking,
             POLLHUP on the in-progress socket when nonblocking). *)
          let refused = ref false in
          Sched.schedule k.K.sched
            ~time:(Vtime.add (K.now k) latency)
            (fun () ->
              if not (Net.try_enqueue l server) then begin
                refused := true;
                Net.close_stream server;
                Net.close_stream client
              end;
              Sched.kick k.K.sched);
          if d.nonblock then err Errno.EINPROGRESS
          else
            match sleep k th ~what:"connect" ~timeout_ns:(Vtime.scale latency 2.) () with
            | Syscall.Error Errno.ETIMEDOUT ->
              if !refused then err Errno.ECONNREFUSED else Syscall.Ok_int 0
            | r -> r))
      | _ -> err Errno.ENOTSOCK)
    (* ---- process / thread lifecycle ---- *)
    | Syscall.Exit code -> exit_current k th ~code ~group:false
    | Syscall.Exit_group code -> exit_current k th ~code ~group:true
    | Syscall.Wait4 pid -> (
      let find_dead () =
        Hashtbl.fold
          (fun _ (child : Proc.process) acc ->
            if
              acc = None && child.parent_pid = p.pid && (not child.alive)
              && (not child.reaped)
              && (pid = -1 || pid = child.pid)
            then Some child
            else acc)
          k.K.procs None
      in
      let has_children () =
        Hashtbl.fold
          (fun _ (child : Proc.process) acc ->
            acc || (child.parent_pid = p.pid && not child.reaped))
          k.K.procs false
      in
      if not (has_children ()) then fail Errno.ECHILD;
      match block k th ~on:Waitq.global ~what:"wait4" ~poll:find_dead () with
      | Ok child ->
        child.Proc.reaped <- true;
        Syscall.Ok_int child.Proc.pid
      | Error r -> r)
    (* ---- advisory file locks ---- *)
    | Syscall.Flock (fd, op) -> (
      let d = desc p fd in
      match d.kind with
      | Proc.Regular node | Proc.Directory node -> (
        let ino = node.Vfs.ino in
        match op with
        | Syscall.Lock_un ->
          (match Hashtbl.find_opt k.K.flocks ino with
          | Some holder when holder = p.pid -> Hashtbl.remove k.K.flocks ino
          | _ -> ());
          Sched.kick k.K.sched;
          Syscall.Ok_int 0
        | Syscall.Lock_sh | Syscall.Lock_ex ->
          let attempt () =
            match Hashtbl.find_opt k.K.flocks ino with
            | None ->
              Hashtbl.replace k.K.flocks ino p.pid;
              Some (Syscall.Ok_int 0)
            | Some holder when holder = p.pid -> Some (Syscall.Ok_int 0)
            | Some _ -> None
          in
          answer_of (park_or_eagain k th d ~on:Waitq.global ~what:"flock" ~poll:attempt))
      (* Linux locks any file. The other kinds cannot be shared between
         processes here (no fork, no descriptor passing), so no lock on
         them can conflict. *)
      | _ -> Syscall.Ok_int 0)
  with Fail e -> err e

(* ------------------------------------------------------------------ *)
(* Structured observability emission (lib/obs).

   Every site pays exactly one match on [k.K.obs] when the sink is absent.
   Events are stamped with the thread's virtual clock and identify
   replicas by variant index — never by group id or shm key, which come
   from process-global counters and would break the byte-identical-trace
   guarantee across runs in the same process. *)

module Tr = Remon_obs.Trace
module Ob = Remon_obs.Obs

let variant_of (th : Proc.thread) =
  match th.Proc.proc.Proc.replica_info with
  | Some ri -> ri.Proc.variant_index
  | None -> -1

(* ------------------------------------------------------------------ *)
(* Routing pipeline *)

(* A ptrace stop is one monitor round trip: two context switches and the
   stop's cost. It is traced as a [ptrace] instant [name], and every stop
   kind counts the one [ptrace.round_trips] tally. The thread's fiber then
   waits for its tracer's [resume], whose action this answers. *)
let ptrace_stop k (th : Proc.thread) ~name reason =
  k.K.stats.ptrace_stops <- k.K.stats.ptrace_stops + 1;
  k.K.stats.context_switches <- k.K.stats.context_switches + 2;
  charge th (Cost_model.ptrace_stop_ns k.K.cost);
  (match k.K.obs with
  | None -> ()
  | Some o ->
    Tr.instant o.Ob.trace ~ts:th.Proc.clock ~cat:"ptrace" ~name
      ~pid:th.Proc.proc.Proc.pid ~tid:th.Proc.tid
      [
        ("variant", Tr.Int (variant_of th));
        ("index", Tr.Int th.Proc.syscall_index);
      ];
    Ob.count o ~cat:"ptrace" ~name:"round_trips");
  Sched.stop reason

(* Delivers pending signals at the syscall boundary, as the kernel's
   return-to-user path does. A traced process's asynchronous signal goes
   to its tracer at a signal-delivery stop instead, and leaves pending
   once the thread is resumed. A thread that dies here is never
   continued. *)
let rec deliver_pending k (th : Proc.thread) result =
  let p = proc_of th in
  if th.tstate = Proc.Dead then Sched.drop ()
  else
    match next_deliverable p with
    | None -> result
    | Some sg -> (
      match p.tracer with
      | Some _ when not (Sigdefs.synchronous sg) ->
        ignore
          (ptrace_stop k th ~name:"signal_delivery_stop" (Proc.Signal_delivery_stop sg));
        remove_pending p sg;
        deliver_pending k th result
      | _ -> if deliver_signal k th sg then deliver_pending k th result else Sched.drop ())

(* Syscall-entry ptrace stop: report to the CP monitor, run the call or
   take the result it injects, then stop again at the exit. This is the
   path every monitored call takes. *)
let monitor_path k (th : Proc.thread) call =
  match (proc_of th).tracer with
  | None -> exec k th call (* no monitor attached: execute directly *)
  | Some _ ->
    k.K.stats.monitored <- k.K.stats.monitored + 1;
    let result =
      match ptrace_stop k th ~name:"syscall_entry_stop" (Proc.Syscall_entry_stop call) with
      | Proc.Resume_continue -> exec k th call
      | Proc.Resume_skip r -> r
    in
    ignore
      (ptrace_stop k th ~name:"syscall_exit_stop" (Proc.Syscall_exit_stop (call, result)));
    result

(* Raw, stop-free execution used by IP-MON once IK-B's verifier has
   accepted the authorization token (steps 3-4 of Figure 2). *)
let execute_raw k th call =
  charge th k.K.cost.ipmon_restart_ns;
  exec k th call

(* IK-B's routing decision for one call (Figure 2, step 2), then the
   route it picks. A replica asks its group's interceptor, which rides on
   its [replica_info]; any other process runs plain, or monitored while
   traced. A grant to a replica without an IP-MON registration (a broker
   misconfiguration) falls back to the monitored path. The route taken is
   traced as a [route] instant, which counts [route.<name>]. *)
let route k (th : Proc.thread) call =
  let p = proc_of th in
  let decision =
    match p.replica_info with
    | Some { Proc.classify = Some classify; _ } -> classify th call
    | Some { Proc.classify = None; _ } | None -> (
      match p.tracer with
      | None -> Proc.Route_plain
      | Some _ -> Proc.Route_monitor)
  in
  (match k.K.obs with
  | None -> ()
  | Some o ->
    let name =
      match (decision, p.ipmon_registered) with
      | Proc.Route_plain, _ -> "plain"
      | Proc.Route_ipmon _, Some _ -> "ipmon"
      | (Proc.Route_monitor | Proc.Route_ipmon _), _ -> "monitored"
    in
    Ob.instant o ~ts:th.Proc.clock ~cat:"route" ~name ~pid:p.Proc.pid
      ~tid:th.Proc.tid
      [
        ("call", Tr.Str (Syscall.to_string call));
        ("variant", Tr.Int (variant_of th));
        ("index", Tr.Int th.Proc.syscall_index);
      ]);
  match (decision, p.ipmon_registered) with
  | Proc.Route_plain, _ -> exec k th call
  | Proc.Route_ipmon token, Some reg ->
    k.K.stats.ipmon_fastpath <- k.K.stats.ipmon_fastpath + 1;
    k.K.stats.tokens_granted <- k.K.stats.tokens_granted + 1;
    charge th k.K.cost.ipmon_forward_ns;
    th.in_ipmon <- true;
    reg.Proc.invoke th ~token ~call
  | (Proc.Route_monitor | Proc.Route_ipmon _), _ -> monitor_path k th call

(* The return to user code: leaves IP-MON, delivers pending signals and
   ends the syscall's span (named [name], begun at [entry_clock]). *)
let finish k (th : Proc.thread) result ~name ~entry_clock =
  th.in_ipmon <- false;
  let result = deliver_pending k th result in
  (match k.K.obs with
  | None -> ()
  | Some o ->
    Tr.span_end o.Ob.trace ~ts:th.Proc.clock ~cat:"syscall" ~name
      ~pid:th.Proc.proc.Proc.pid ~tid:th.Proc.tid [];
    Ob.observe_ns o ~cat:"syscall" ~name (Vtime.sub th.Proc.clock entry_clock));
  result

(* Top-level syscall entry: Figure 2's step 1, on the calling thread's
   fiber. With a sink attached the whole call becomes one B/E span (even
   across blocking and monitor stops) and feeds the per-syscall latency
   histogram; a replica killed mid-call leaves its span unclosed, which
   trace viewers render as running to the end of the trace. *)
let handle k (th : Proc.thread) call =
  let p = proc_of th in
  if not p.alive || th.tstate = Proc.Dead then Sched.drop ()
  else begin
    th.syscall_index <- th.syscall_index + 1;
    k.K.stats.syscalls <- k.K.stats.syscalls + 1;
    charge th k.K.cost.syscall_trap_ns;
    let entry_clock = th.Proc.clock in
    let name =
      match k.K.obs with
      | None -> ""
      | Some o ->
        let name = Syscall.to_string call in
        Tr.span_begin o.Ob.trace ~ts:entry_clock ~cat:"syscall" ~name ~pid:p.Proc.pid
          ~tid:th.Proc.tid
          [
            ("variant", Tr.Int (variant_of th));
            ("rank", Tr.Int th.Proc.rank);
            ("index", Tr.Int th.Proc.syscall_index);
          ];
        name
    in
    let fault =
      match p.replica_info with
      | Some { Proc.fault = Some f; _ } -> f th call
      | Some { Proc.fault = None; _ } | None -> Proc.Fault_none
    in
    (* An injected fault is traced as its route, "fault:<kind>" (which
       counts), then as an uncounted [fault] instant with what it
       injected. *)
    (match k.K.obs with
    | None -> ()
    | Some o -> (
      let traced =
        match fault with
        | Proc.Fault_none -> None
        | Proc.Fault_rewrite c ->
          Some ("rewrite", c, ("call", Tr.Str (Syscall.to_string c)))
        | Proc.Fault_result _ ->
          Some ("result", call, ("call", Tr.Str (Syscall.to_string call)))
        | Proc.Fault_crash sg -> Some ("crash", call, ("signal", Tr.Int sg))
        | Proc.Fault_delay ns -> Some ("delay", call, ("ns", Tr.Int ns))
      in
      match traced with
      | None -> ()
      | Some (kind, c, arg) ->
        let ts = th.Proc.clock and pid = p.Proc.pid and tid = th.Proc.tid in
        let variant = ("variant", Tr.Int (variant_of th))
        and index = ("index", Tr.Int th.Proc.syscall_index) in
        Ob.instant o ~ts ~cat:"route" ~name:("fault:" ^ kind) ~pid ~tid
          [ ("call", Tr.Str (Syscall.to_string c)); variant; index ];
        Tr.instant o.Ob.trace ~ts ~cat:"fault" ~name:kind ~pid ~tid
          [ variant; index; arg ]));
    let result =
      match fault with
      | Proc.Fault_none -> route k th call
      | Proc.Fault_rewrite call' ->
        (* the corrupted capture flows through the normal routing/detection
           paths; the monitors see it as an argument divergence *)
        route k th call'
      | Proc.Fault_result r ->
        (* transient kernel-level failure (e.g. ECONNRESET): complete now *)
        r
      | Proc.Fault_crash sg ->
        kill_process k p ~code:(128 + sg);
        Sched.drop ()
      | Proc.Fault_delay ns ->
        (* stall the arrival: the rendezvous watchdog can observe it *)
        ignore (sleep k th ~what:"fault: injected stall" ~timeout_ns:ns ~intr:false ());
        route k th call
    in
    finish k th result ~name ~entry_clock
  end

(* ------------------------------------------------------------------ *)
(* Kernel services for monitors *)

(* Force-completes a blocked call (GHUMVEE's blocked-call abort, §3.8). *)
let interrupt_blocked k (th : Proc.thread) result =
  ignore k;
  match th.tstate with
  | Proc.Blocked b when b.Waitq.interrupt != Waitq.no_interrupt ->
    b.Waitq.interrupt result;
    true
  | _ -> false

(* Re-initiates a deferred signal at a rendezvous point: runs the handler
   registration machinery directly, without further stops. *)
let inject_signal_now k (th : Proc.thread) sg =
  ignore (deliver_signal k th sg)

let install k = k.K.sched.Sched.syscall_handler <- (fun th call -> handle k th call)
