(* Simulated stream-socket network.

   Connections are pairs of unidirectional channels. Data "in flight" is
   committed to the peer's receive queue by a kernel event scheduled
   [latency + wire time] after the send — this is how the netem-style link
   latency of the paper's three server scenarios is modeled.

   Each direction is bounded: a stream's receive buffer (committed bytes
   plus bytes still in flight towards it) never exceeds its [rcvbuf] cap.
   [send_start] accepts at most the remaining space, so senders experience
   real backpressure (partial writes, EAGAIN, blocking) exactly where a
   Linux socket would.

   Memory layout: million-connection worlds mean millions of stream
   endpoints, most of them idle at any instant, so the stream record is
   kept flat — seven fields (an 8-word block, 64 bytes on 64-bit) with the
   boolean flags and both ports packed into one int, the buffer caps into a
   second, and the in-flight/high-water counters into a third. The receive
   queue is allocated lazily on the first byte committed: an endpoint that
   never receives (or has not received yet) carries no [Bytestream.t].
   Likewise the wait queue is allocated on the first call that could block
   on the endpoint.

   Wake-ups: a thread blocked reading an endpoint waits on that endpoint's
   queue, and one blocked writing waits on the queue of the endpoint it
   writes into (the peer), as AF_UNIX writers wait on their peer's
   [peer_wait]. Each queue therefore collects the threads that wait for
   something to happen to one receive buffer, and every function here that
   changes a buffer or tears a connection down wakes that buffer's
   endpoint. A request/response exchange wakes nobody but the reader the
   response is for. *)

(* Default per-direction buffer capacity; mirrors Linux's default
   net.core.{r,w}mem_default of 212992 bytes. *)
let default_bufcap = 212_992

(* SOL_SOCKET option names understood by setsockopt/getsockopt. *)
let so_sndbuf = 7
let so_rcvbuf = 8

(* Floor for configured caps: a cap below one page would deadlock workloads
   whose smallest message cannot fit the buffer. *)
let min_bufcap = 256

(* Field packing.

   flags: bit 0 rd_shut | bit 1 wr_shut | bit 2 connected | bit 3 local
          | bit 4 remote | bits 5-30 local_port | bits 31-56 peer_port
   bufs:  bits 0-30 sndbuf | bits 31-61 rcvbuf
   counts: bits 0-30 in_flight | bits 31-61 buffered high-water mark

   Ports get 26 bits (67M — the ephemeral counter of a single host never
   approaches this), byte counts 31 bits each; everything fits a 63-bit
   OCaml int. *)

let f_rd_shut = 1
let f_wr_shut = 2
let f_connected = 4
let f_local = 8
let f_remote = 16
let port_mask = 0x3FF_FFFF (* 26 bits *)
let lport_shift = 5
let pport_shift = 31
let mask31 = 0x7FFF_FFFF

type stream = {
  mutable flags : int;
  mutable bufs : int;
  mutable counts : int;
  mutable incoming : Bytestream.t option; (* committed, readable data; lazy *)
  mutable peer : stream option; (* None once the peer endpoint is closed *)
  mutable tag : int; (* gateway connection id, -1 when unset *)
  mutable wq : Waitq.t; (* threads blocked on this endpoint; lazy *)
}

type listener = {
  port : int;
  backlog : int;
  pending : stream Queue.t; (* server-side endpoints awaiting accept *)
  mutable closed : bool;
  wq : Waitq.t; (* threads blocked in accept *)
}

type t = {
  latency : Remon_sim.Vtime.t; (* one-way propagation delay *)
  bufcap : int; (* default snd/rcv cap for fresh streams *)
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
}

let create ?(latency = Remon_sim.Vtime.us 50) ?(bufcap = default_bufcap) () =
  {
    latency;
    bufcap = min mask31 (max min_bufcap bufcap);
    listeners = Hashtbl.create 8;
    next_ephemeral = 32_768;
  }

(* ------------------------------------------------------------------ *)
(* Packed-field accessors *)

let rd_shut s = s.flags land f_rd_shut <> 0
let wr_shut s = s.flags land f_wr_shut <> 0
let connected s = s.flags land f_connected <> 0
let set_connected s = s.flags <- s.flags lor f_connected
let is_local s = s.flags land f_local <> 0
let is_remote s = s.flags land f_remote <> 0
let mark_local s = s.flags <- s.flags lor f_local
let mark_remote s = s.flags <- s.flags lor f_remote
let local_port s = (s.flags lsr lport_shift) land port_mask
let peer_port s = (s.flags lsr pport_shift) land port_mask

let set_local_port s p =
  s.flags <-
    s.flags land lnot (port_mask lsl lport_shift)
    lor ((p land port_mask) lsl lport_shift)

let set_peer_port s p =
  s.flags <-
    s.flags land lnot (port_mask lsl pport_shift)
    lor ((p land port_mask) lsl pport_shift)

let sndbuf s = s.bufs land mask31
let rcvbuf s = s.bufs lsr pport_shift land mask31
let pack_bufs ~sndbuf ~rcvbuf = (sndbuf land mask31) lor (rcvbuf lsl 31)
let in_flight s = s.counts land mask31
let buffered_hwm s = s.counts lsr 31

let set_in_flight s v =
  s.counts <- s.counts land lnot mask31 lor (v land mask31)

let set_hwm s v = s.counts <- s.counts land mask31 lor (v lsl 31)
let tag s = s.tag
let set_tag s v = s.tag <- v

let waitq (s : stream) =
  if s.wq == Waitq.none then s.wq <- Waitq.create ();
  s.wq

let send_waitq (s : stream) =
  match s.peer with Some p -> waitq p | None -> Waitq.none

let shutdown_rd (s : stream) =
  s.flags <- s.flags lor f_rd_shut;
  Waitq.wake s.wq

(* Our writers fail with EPIPE from now on and the peer's readers reach
   EOF: both wait on the peer's queue. *)
let shutdown_wr (s : stream) =
  s.flags <- s.flags lor f_wr_shut;
  match s.peer with Some p -> Waitq.wake p.wq | None -> ()

let incoming_length s =
  match s.incoming with None -> 0 | Some b -> Bytestream.length b

(* The receive queue is materialized on first use; idle endpoints carry
   [None]. *)
let get_incoming s =
  match s.incoming with
  | Some b -> b
  | None ->
    let b = Bytestream.create () in
    s.incoming <- Some b;
    b

(* ------------------------------------------------------------------ *)
(* Stream lifecycle *)

let fresh_stream t =
  {
    flags = 0;
    bufs = pack_bufs ~sndbuf:t.bufcap ~rcvbuf:t.bufcap;
    counts = 0;
    incoming = None;
    peer = None;
    tag = -1;
    wq = Waitq.none;
  }

let listen t ~port ~backlog =
  if Hashtbl.mem t.listeners port then Error Errno.EADDRINUSE
  else begin
    let l =
      {
        port;
        backlog;
        pending = Queue.create ();
        closed = false;
        wq = Waitq.create ();
      }
    in
    Hashtbl.replace t.listeners port l;
    Ok l
  end

let find_listener t ~port =
  match Hashtbl.find_opt t.listeners port with
  | Some l when not l.closed -> Some l
  | _ -> None

let close_listener t l =
  l.closed <- true;
  Hashtbl.remove t.listeners l.port

(* Backlog enforcement: the dispatcher consults this at SYN-arrival time
   (one link latency after the client's connect). *)
let backlog_full l = Queue.length l.pending >= max 1 l.backlog

(* Enqueue a server-side endpoint for accept, refusing when the listener is
   gone or its backlog is full. Returns false on refusal. *)
let try_enqueue l stream =
  if l.closed || backlog_full l then false
  else begin
    Queue.push stream l.pending;
    Waitq.wake l.wq;
    true
  end

(* Builds the two endpoints of a connection; the caller (dispatcher) is
   responsible for delaying [commit_pending] and the listener enqueue by the
   link latency. *)
let make_pair t ~client_port ~server_port =
  let client = fresh_stream t in
  let server = fresh_stream t in
  client.peer <- Some server;
  server.peer <- Some client;
  set_local_port client client_port;
  set_peer_port client server_port;
  set_local_port server server_port;
  set_peer_port server client_port;
  (client, server)

let ephemeral_port t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- t.next_ephemeral + 1;
  p

(* Bytes a stream is holding: committed plus still-in-flight. This is the
   quantity capped by [rcvbuf]. *)
let buffered stream = incoming_length stream + in_flight stream

let stream_cap stream = rcvbuf stream

let set_sndbuf stream v =
  stream.bufs <-
    pack_bufs ~sndbuf:(min mask31 (max min_bufcap v)) ~rcvbuf:(rcvbuf stream)

(* Shrinking below what is already buffered only takes effect as the peer
   drains; already-accepted bytes are never dropped. *)
let set_rcvbuf stream v =
  stream.bufs <-
    pack_bufs ~sndbuf:(sndbuf stream) ~rcvbuf:(min mask31 (max min_bufcap v));
  Waitq.wake stream.wq

(* Room the sender may still fill towards [stream]'s peer. *)
let send_space stream =
  match stream.peer with
  | None -> 0
  | Some peer -> Int.max 0 (rcvbuf peer - buffered peer)

(* Sender side: reserve space in the peer's receive buffer for up to [len]
   bytes and account the in-flight bytes; the kernel commits them later.
   Returns how many bytes were accepted (0 = buffer full, the caller must
   block or report EAGAIN) and the peer whose queue the data must be
   committed to. A single call accepts at most [sndbuf] bytes, modeling the
   sender-side buffer. Only the count crosses here, so the caller decides
   whether the committed chunk needs a copy. *)
let send_start stream len =
  match stream.peer with
  | None -> Error Errno.EPIPE
  | Some _ when wr_shut stream -> Error Errno.EPIPE
  | Some peer ->
    let space = Int.max 0 (rcvbuf peer - buffered peer) in
    let accepted = Int.min len (Int.min space (sndbuf stream)) in
    set_in_flight peer (in_flight peer + accepted);
    let b = buffered peer in
    if b > buffered_hwm peer then set_hwm peer b;
    Ok (accepted, peer)

(* Receiver side: invoked by the scheduled delivery event. The space was
   reserved at [send_start], so this only moves in-flight bytes into the
   committed queue — the cap cannot be exceeded here. *)
let commit stream data =
  set_in_flight stream (in_flight stream - String.length data);
  Bytestream.push (get_incoming stream) data;
  Waitq.wake stream.wq

let peer_gone stream = stream.peer = None

(* Every stream that ever had a peer was connected, or shut both ways when
   it was closed; only [fresh_stream]'s placeholder was neither. *)
let never_connected stream =
  stream.peer = None && stream.flags land (f_connected lor f_rd_shut) = 0

(* Draining the committed queue frees receive-buffer space: blocked
   senders into [stream] may resume. *)
let recv stream count =
  match stream.incoming with
  | None -> ""
  | Some b ->
    let data = Bytestream.pull b count in
    Waitq.wake stream.wq;
    data

(* Receiver side of a cross-host link: the per-connection credit window
   reserved the space end-to-end, so arriving bytes go straight into the
   committed queue (there is no local in-flight phase). *)
let commit_inbound stream data =
  Bytestream.push (get_incoming stream) data;
  let b = buffered stream in
  if b > buffered_hwm stream then set_hwm stream b;
  Waitq.wake stream.wq

let peer stream = stream.peer

(* Endpoint close: detach from peer so the peer observes EOF / EPIPE. *)
let close_stream stream =
  (match stream.peer with
  | Some p ->
    p.peer <- None;
    Waitq.wake p.wq
  | None -> ());
  stream.peer <- None;
  stream.flags <- stream.flags lor f_rd_shut lor f_wr_shut;
  Waitq.wake stream.wq
