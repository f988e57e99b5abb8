(** Cross-host network gateway: one per simulated host in a sharded (PDES)
    run. Models a cross-host TCP connection as two local stream pairs — an
    application endpoint and a gateway endpoint on each host — stitched
    together by a credit-windowed SYN/DATA/WINDOW/FIN/RST protocol over
    typed inter-host {!Link}s, so every dispatcher read/write/poll/
    backpressure path works unchanged. The dispatcher calls it directly
    through [Kstate.hostnet]; single-host kernels have none. *)

type t

(** Where an initiating connect stands. *)
type progress =
  | Connecting
  | Connected
  | Refused  (** no remote listener, or its backlog was full *)

val create : host:int -> Sched.t -> Net.t -> t
(** The gateway of host [host], over that host's scheduler and network.
    Routes and links are added afterwards. *)

val add_route : t -> port:int -> host:int -> unit
(** Declare statically that [port] is served from [host]. Connects to a
    port routed to another host go through the gateway; whether a listener
    actually exists there is resolved at SYN-arrival virtual time. *)

val add_link : t -> Link.t -> unit
(** Hand the gateway its outbound link towards [Link.dst]. The shard
    runner creates links only for host pairs that may ever talk, both
    directions at once, so every connect and every SYN reply finds its
    link here. *)

val sends_to : t -> int -> bool
(** [sends_to t d] — may this host ever send a link message to host [d]
    before it next reacts to an inbound message? True iff a remote route
    points at [d] or a live connection's outbound link targets [d]. The
    adaptive-lookahead synchronizer uses the negation as a proof of
    idleness. *)

(** {1 Dispatcher entry points}

    Each runs inside a scheduled event of this host. Call sites guard on
    [Net.is_remote], so single-host streams never reach them. *)

val has_port : t -> int -> bool
(** Is this port statically routed to another host? *)

val connect : t -> local_port:int -> port:int -> Net.stream * progress ref
(** Build the local endpoint pair and send the SYN. Returns the
    application endpoint and a progress cell that a blocking connect polls;
    a nonblocking one relies on [Net.connected]/[Net.peer_gone] instead. *)

val poke : t -> Net.stream -> unit
(** The stream's state changed (data committed, write side shut, endpoint
    closed): pump buffered bytes onto the link, and send FIN once the
    stream is flushed. *)

val drained : t -> Net.stream -> int -> unit
(** The application consumed [n] bytes from a remote stream: return the
    credit with a WINDOW update. *)

val apply : t -> src:int -> Link.payload -> unit
(** Apply one drained inbound message from host [src]. The shard runner
    must invoke this from a scheduled event of this host at the message's
    delivery time, in the canonical (at, src, seq) order. *)

val stats : t -> int * int * int
(** [(opened, refused, resets)] lifetime tallies. *)
