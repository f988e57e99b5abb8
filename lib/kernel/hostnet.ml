(* Cross-host network gateway: one per simulated host in a sharded (PDES)
   run. The dispatcher calls it for ports routed to another host and for
   every state change of a cross-host stream; it speaks a credit-windowed
   SYN/DATA/WINDOW/FIN/RST protocol over typed inter-host links.

   A cross-host TCP connection is modeled as two *local* stream pairs, one
   per host, stitched together by the gateway:

     client app <-> client gw   ~~~ link (latency) ~~~   server gw <-> server app

   The application endpoints are ordinary [Net.stream]s, so every read,
   write, poll, epoll and backpressure path in the dispatcher works
   unchanged; only the gateway endpoints and the link protocol are new.
   The local pairs carry the intra-host hop (memcpy cost, ~2us); the wire
   propagation delay lives on the link and doubles as the conservative
   synchronizer's lookahead.

   Flow control is credit-based: the SYN/SYN_OK handshake advertises each
   application endpoint's receive buffer, DATA consumes credit, and WINDOW
   returns it as the application drains. A sender therefore never puts
   more in flight than the remote buffer can absorb — the same invariant
   [Net.send_start] enforces locally — and backpressure propagates
   end-to-end: remote buffer full -> no credit -> gateway buffer fills ->
   local writer blocks.

   Determinism: every entry point runs inside a scheduled event of the owning
   host (a commit event, a syscall retry, or a link-message application
   event), so send timestamps and per-link sequence numbers are pure
   functions of virtual time. Connection ids are globally unique without
   coordination: initiator host index * 2^24 + a per-host counter.

   Scale: the shard runner creates links only for host pairs that may
   ever talk ([World.route]) and hands each gateway its outbound ends, so
   a connect or a SYN reply finds its link in its own gateway's table.
   Connection lookup by stream rides the stream's [tag] field instead of a
   side table. The per-destination [targets] counts feed the
   adaptive-lookahead synchronizer: a host that neither routes to nor
   holds a connection towards host [d] provably cannot send to it. *)

(* Where an initiating connect stands; a blocking connect polls it. *)
type progress =
  | Connecting
  | Connected
  | Refused (* no remote listener / backlog full *)

(* fin_sent / fin_rcvd / rst_sent, packed so an idle connection record is
   8 words; a million-connection herd holds one live conn per endpoint
   host. *)
let c_fin_sent = 1
let c_fin_rcvd = 2
let c_rst_sent = 4

type conn = {
  cid : int;
  app : Net.stream; (* the endpoint owned by an application fd *)
  gw : Net.stream; (* our end of the local pair; buffers outbound data *)
  link : Link.t; (* outbound link towards the remote end *)
  mutable credits : int; (* bytes the remote app buffer can still absorb *)
  mutable progress : progress ref option;
      (* Some on the initiating side until SYN_OK/SYN_REFUSED resolves *)
  mutable cflags : int;
}

(* Int-keyed tables: a monomorphic hash and equality in place of the
   polymorphic [caml_hash] and [compare_val] on every lookup. The hash
   folds the high bits down because the bucket index takes the low ones,
   and a connection id keeps its initiator host in the high bits. None of
   these tables is ever iterated, so no bucket order can reach an
   outcome. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)
end)

type t = {
  host : int;
  sched : Sched.t;
  net : Net.t;
  routes : int Itbl.t; (* port -> owning host index *)
  links : Link.t Itbl.t;
      (* destination host -> outbound link, handed over by the shard runner *)
  conns : conn Itbl.t; (* conn id -> connection *)
  targets : int Itbl.t;
      (* destination host -> count of reasons we may send there
         (remote routes + live connections); see [sends_to] *)
  mutable next_conn : int;
  (* lifetime tallies *)
  mutable opened : int;
  mutable refused : int;
  mutable resets : int;
}

let conn_id_stride = 0x1_000_000

let create ~host sched net =
  {
    host;
    sched;
    net;
    routes = Itbl.create 16;
    links = Itbl.create 4;
    conns = Itbl.create 32;
    targets = Itbl.create 8;
    next_conn = 0;
    opened = 0;
    refused = 0;
    resets = 0;
  }

let incr_target t dst =
  Itbl.replace t.targets dst
    (match Itbl.find_opt t.targets dst with Some n -> n + 1 | None -> 1)

let decr_target t dst =
  match Itbl.find_opt t.targets dst with
  | Some n when n > 1 -> Itbl.replace t.targets dst (n - 1)
  | Some _ -> Itbl.remove t.targets dst
  | None -> ()

let add_route t ~port ~host =
  (match Itbl.find_opt t.routes port with
  | Some h when h = host -> ()
  | Some h ->
    if h <> t.host then decr_target t h;
    if host <> t.host then incr_target t host
  | None -> if host <> t.host then incr_target t host);
  Itbl.replace t.routes port host

let add_link t link = Itbl.replace t.links (Link.dst link) link

let link_to t dst =
  match Itbl.find_opt t.links dst with
  | Some l -> l
  | None -> invalid_arg "Hostnet: no link to that host"

let sends_to t dst = Itbl.mem t.targets dst

let stats t = (t.opened, t.refused, t.resets)

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping *)

let mark_remote (a : Net.stream) (b : Net.stream) =
  (* local: the pair is an intra-host hop (cheap, ~2us); remote: the
     dispatcher charges wire cost and calls the gateway *)
  Net.mark_local a;
  Net.mark_local b;
  Net.mark_remote a;
  Net.mark_remote b

let register t c =
  Itbl.replace t.conns c.cid c;
  Net.set_tag c.app c.cid;
  Net.set_tag c.gw c.cid;
  incr_target t (Link.dst c.link)

let unregister t c =
  Itbl.remove t.conns c.cid;
  Net.set_tag c.app (-1);
  Net.set_tag c.gw (-1);
  decr_target t (Link.dst c.link)

let conn_of_stream t s =
  let tag = Net.tag s in
  if tag < 0 then None else Itbl.find_opt t.conns tag

let established c =
  match c.progress with None -> true | Some p -> !p = Connected

(* Both directions torn down: release everything. Closing is idempotent
   and never drops committed-but-unread data (EOF is after-drain). *)
let maybe_gc t c =
  if c.cflags land (c_fin_sent lor c_fin_rcvd) = c_fin_sent lor c_fin_rcvd
  then begin
    Net.close_stream c.gw;
    Net.close_stream c.app;
    unregister t c
  end

(* Pump buffered outbound bytes onto the link, within credit; emit FIN
   once the application's write side is done and everything is flushed.
   Safe to call from any entry point: it does nothing when there is
   nothing to do. *)
let pump t c =
  if established c && c.cflags land c_fin_sent = 0 then begin
    let now = Sched.now t.sched in
    let avail = Net.incoming_length c.gw in
    let n = min avail c.credits in
    if n > 0 then begin
      let data = Net.recv c.gw n in
      c.credits <- c.credits - n;
      Link.send c.link ~now (Link.Data { conn = c.cid; data });
      (* freed gateway buffer space: a blocked local writer may resume *)
      Sched.kick t.sched
    end;
    let flushed = Net.incoming_length c.gw = 0 && Net.in_flight c.gw = 0 in
    let write_done = Net.peer_gone c.gw || Net.wr_shut c.app in
    (* FIN only once flushed: the peer's own FIN says it stopped writing,
       not reading — a half-closed peer still wants our residue. Unflushable
       residue (receiver application gone, credit exhausted) is torn down by
       the RST path instead. *)
    if write_done && flushed then begin
      c.cflags <- c.cflags lor c_fin_sent;
      Link.send c.link ~now (Link.Fin { conn = c.cid });
      maybe_gc t c
    end
  end

(* ------------------------------------------------------------------ *)
(* Dispatcher entry points (outbound side) *)

let has_port t port =
  match Itbl.find_opt t.routes port with
  | Some h -> h <> t.host
  | None -> false

let connect t ~local_port ~port =
  let dst =
    match Itbl.find_opt t.routes port with
    | Some h when h <> t.host -> h
    | _ -> invalid_arg "Hostnet.connect: port is not remotely routed"
  in
  let link = link_to t dst in
  let app, gw =
    Net.make_pair t.net ~client_port:local_port ~server_port:port
  in
  mark_remote app gw;
  let cid = (t.host * conn_id_stride) + t.next_conn in
  t.next_conn <- t.next_conn + 1;
  t.opened <- t.opened + 1;
  let progress = ref Connecting in
  let c =
    { cid; app; gw; link; credits = 0; progress = Some progress; cflags = 0 }
  in
  register t c;
  Link.send link
    ~now:(Sched.now t.sched)
    (Link.Syn
       {
         conn = cid;
         src_port = local_port;
         dst_port = port;
         window = Net.rcvbuf app;
       });
  (app, progress)

let poke t s =
  match conn_of_stream t s with Some c -> pump t c | None -> ()

let drained t s n =
  if n > 0 then
    match conn_of_stream t s with
    | Some c when c.cflags land c_fin_sent = 0 ->
      Link.send c.link
        ~now:(Sched.now t.sched)
        (Link.Window { conn = c.cid; bytes = n })
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Inbound message application *)

(* Applies one drained link message. Must run as a scheduled event of this
   host at the message's delivery time (the shard runner arranges that),
   so everything it does is ordinary in-timestamp-order simulation work.
   [src] is the sending host (for SYN replies; established connections
   carry their own outbound link). *)
let apply t ~src (payload : Link.payload) =
  let now = Sched.now t.sched in
  match payload with
  | Link.Syn { conn; src_port; dst_port; window } -> (
    let reply payload = Link.send (link_to t src) ~now payload in
    match Net.find_listener t.net ~port:dst_port with
    | None ->
      t.refused <- t.refused + 1;
      reply (Link.Syn_refused { conn })
    | Some l ->
      let gw, app =
        Net.make_pair t.net ~client_port:src_port ~server_port:dst_port
      in
      mark_remote app gw;
      if Net.try_enqueue l app then begin
        let c =
          {
            cid = conn;
            app;
            gw;
            link = link_to t src;
            credits = window;
            progress = None;
            cflags = 0;
          }
        in
        register t c;
        t.opened <- t.opened + 1;
        reply (Link.Syn_ok { conn; window = Net.rcvbuf app });
        Sched.kick t.sched
      end
      else begin
        (* backlog full at SYN arrival, like the local enqueue check *)
        t.refused <- t.refused + 1;
        Net.close_stream gw;
        Net.close_stream app;
        reply (Link.Syn_refused { conn })
      end)
  | Link.Syn_ok { conn; window } -> (
    match Itbl.find_opt t.conns conn with
    | None -> ()
    | Some c ->
      c.credits <- window;
      Net.set_connected c.app;
      (match c.progress with Some p -> p := Connected | None -> ());
      pump t c;
      Sched.kick t.sched)
  | Link.Syn_refused { conn } -> (
    match Itbl.find_opt t.conns conn with
    | None -> ()
    | Some c ->
      (match c.progress with Some p -> p := Refused | None -> ());
      Net.close_stream c.gw;
      Net.close_stream c.app;
      unregister t c;
      Sched.kick t.sched)
  | Link.Data { conn; data } -> (
    match Itbl.find_opt t.conns conn with
    | None -> () (* both sides torn down already: late data is dropped *)
    | Some c ->
      if Net.peer_gone c.gw then begin
        (* the receiving application closed: a real stack answers
           data-after-close with RST *)
        if c.cflags land c_rst_sent = 0 then begin
          c.cflags <- c.cflags lor c_rst_sent;
          t.resets <- t.resets + 1;
          Link.send c.link ~now (Link.Rst { conn = c.cid })
        end
      end
      else begin
        Net.commit_inbound c.app data;
        Sched.kick t.sched
      end)
  | Link.Window { conn; bytes } -> (
    match Itbl.find_opt t.conns conn with
    | None -> ()
    | Some c ->
      c.credits <- c.credits + bytes;
      pump t c)
  | Link.Fin { conn } -> (
    match Itbl.find_opt t.conns conn with
    | None -> ()
    | Some c ->
      c.cflags <- c.cflags lor c_fin_rcvd;
      (* half-close: the application observes EOF once it has drained,
         but may keep writing (its own close/SHUT_WR sends our FIN) *)
      Net.shutdown_wr c.gw;
      pump t c;
      maybe_gc t c;
      Sched.kick t.sched)
  | Link.Rst { conn } -> (
    match Itbl.find_opt t.conns conn with
    | None -> ()
    | Some c ->
      t.resets <- t.resets + 1;
      Net.close_stream c.gw;
      Net.close_stream c.app;
      unregister t c;
      Sched.kick t.sched)
