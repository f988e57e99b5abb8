(** Simulated stream-socket network. Connections are pairs of
    unidirectional channels; data in flight is committed to the peer's
    receive queue by a kernel event scheduled one link latency after the
    send (the netem-style latency of the server scenarios).

    Both directions are bounded: a stream never holds more than its
    [rcvbuf] cap (committed plus in-flight bytes), so senders experience
    backpressure — partial writes, EAGAIN, or blocking — at the same
    boundary a Linux socket would.

    The stream type is abstract and memory-flat: seven fields (one 8-word
    block, 64 bytes) with flags and ports packed into ints and the receive
    queue and wait queue allocated lazily, so a million idle connections
    cost tens of bytes each rather than a pointer-rich record apiece.
    Streams are never recycled: a closed endpoint is left to the GC.

    Every mutator below that can unblock a [read], [write] or [accept]
    wakes the wait queue of the endpoint or listener concerned. *)

val default_bufcap : int
(** Default per-direction buffer cap (Linux's 212992-byte default). *)

val so_sndbuf : int
(** SOL_SOCKET option name for the send-buffer cap (Linux SO_SNDBUF = 7). *)

val so_rcvbuf : int
(** SOL_SOCKET option name for the receive-buffer cap (SO_RCVBUF = 8). *)

val min_bufcap : int
(** Floor applied to configured caps so tiny values cannot deadlock. *)

type stream
(** One endpoint of a connection. Packed representation; use the accessors
    below. *)

type listener = {
  port : int;
  backlog : int;
  pending : stream Queue.t;
  mutable closed : bool;
  wq : Waitq.t;  (** threads blocked in accept; woken by {!try_enqueue} *)
}

type t = {
  latency : Remon_sim.Vtime.t;  (** one-way propagation delay *)
  bufcap : int;  (** default snd/rcv cap for fresh streams *)
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
}

val create : ?latency:Remon_sim.Vtime.t -> ?bufcap:int -> unit -> t
val fresh_stream : t -> stream

val waitq : stream -> Waitq.t
(** The endpoint's wait queue, allocated on first use: its readers park
    here, and so do the peer's writers, who wait for room in this
    endpoint's receive buffer. *)

val send_waitq : stream -> Waitq.t
(** Where a writer on this endpoint parks: the peer's queue, or
    {!Waitq.none} once the peer is gone (a write then never blocks). *)

(** {1 Stream accessors} *)

val local_port : stream -> int
val set_local_port : stream -> int -> unit
val peer_port : stream -> int

val peer : stream -> stream option
(** [None] once the peer endpoint closed. *)

val rd_shut : stream -> bool
val wr_shut : stream -> bool
val shutdown_rd : stream -> unit
val shutdown_wr : stream -> unit
val connected : stream -> bool
val set_connected : stream -> unit

val is_local : stream -> bool
(** Same-host pair (socketpair / loopback): memcpy cost, ~no latency. *)

val is_remote : stream -> bool
(** Endpoint of a cross-host connection: the local pair only models the
    host's socket buffer; the real latency lives on the inter-host link
    behind the gateway. *)

val mark_local : stream -> unit
val mark_remote : stream -> unit

val in_flight : stream -> int
(** Bytes sent towards this stream but not yet committed. *)

val incoming_length : stream -> int
(** Committed, readable bytes. O(1); does not materialize the lazy queue. *)

val sndbuf : stream -> int
val rcvbuf : stream -> int

val tag : stream -> int
(** Scratch int for the owning subsystem — the cross-host gateway stores
    its connection id here ([-1] when unset), replacing a side table. *)

val set_tag : stream -> int -> unit
val listen : t -> port:int -> backlog:int -> (listener, Errno.t) result
val find_listener : t -> port:int -> listener option
val close_listener : t -> listener -> unit

val try_enqueue : listener -> stream -> bool
(** Enqueue a server endpoint for accept; false when the listener is
    closed or its backlog is full. *)

val make_pair : t -> client_port:int -> server_port:int -> stream * stream
val ephemeral_port : t -> int

val buffered : stream -> int
(** Bytes the stream currently holds: committed plus in-flight. *)

val buffered_hwm : stream -> int
(** Highest value [buffered] ever reached — the cap invariant is
    [buffered_hwm s <= stream_cap s] at all times. *)

val stream_cap : stream -> int
val set_sndbuf : stream -> int -> unit
val set_rcvbuf : stream -> int -> unit

val send_space : stream -> int
(** Receive-buffer space left on the peer; 0 when full or peer gone. *)

val send_start : stream -> int -> (int * stream, Errno.t) result
(** [send_start s len] accepts at most [min len (min (send_space s) sndbuf)]
    bytes, accounting them as in-flight on the peer; returns
    [(accepted, peer)] — the dispatcher must {!commit} exactly the accepted
    prefix after the propagation delay. It takes the length, not the bytes,
    so a write the peer accepts whole commits the writer's string itself
    and only a partial accept needs a [String.sub]. [accepted = 0] means
    the buffer is full: block or return EAGAIN. *)

val commit : stream -> string -> unit

val commit_inbound : stream -> string -> unit
(** Push bytes straight into the committed queue with no in-flight
    accounting — the cross-host gateway's entry point, where flow control
    is the link-level credit window rather than in-flight bytes. Maintains
    [buffered_hwm]. *)

val peer_gone : stream -> bool

val never_connected : stream -> bool
(** The placeholder {!fresh_stream} made for [socket], which no connect
    has replaced: it never had a peer. *)

val recv : stream -> int -> string
val close_stream : stream -> unit
