(* Multi-host world: conservative-parallel (PDES) shard runner.

   Each simulated host is a shard that owns a whole kernel — processes,
   scheduler, event queue, VFS, network — outright. The only cross-host
   state is the set of typed [Link]s between the per-host [Hostnet]
   gateways, and every link carries a fixed positive latency that doubles
   as the conservative synchronizer's lookahead.

   The runner is barrier-synchronous (CMB-style null messages collapsed
   into a coordinator round):

     1. E_i  = min(next local event time, earliest queued inbound message)
     2. compute per-host frontiers F_i ("host i cannot act, and hence
        cannot send, before F_i") and execution bounds bound_i ("no
        message host i has not yet seen can arrive before bound_i") —
        see the two modes below
     3. drain every inbound message with at < bound_i, merging the
        host's inbound links in canonical (at, src host, link seq) order
        into its delivery inbox, and schedule the host's deliver event
        through the pre-lane at each message's delivery time
     4. the coordinator and the worker domains pull hosts from the
        round's shared cursor and run each host's events strictly below
        bound_i ([Sched.run_before]); barrier; repeat until every E_i is
        infinite.

   [Fixed] mode is the single-latency bound: F_i = min(E_i, min_j E_j + L)
   and bound_i = min over j <> i of F_j + L, over all host pairs (the
   closed form of the full-mesh fixed point — with one uniform latency the
   relaxation converges in one pass, so it reduces to the global minimum
   and second minimum of F). It is retained as the reference algorithm and
   as the conservative-safety oracle for the property tests.

   [Adaptive] mode (the default) extends the fixed point with per-pair
   earliest-output guarantees so a bound can advance past a single link
   latency when inbound links are provably idle. For each *active* ordered
   host pair (j, i) — active pairs are tracked lazily, a superset of pairs
   that may ever exchange a message — S_ji is a sound lower bound on the
   next instant j may send a message towards i:

     S_ji = F_j                      if j holds the capability to send to
                                     i spontaneously (a remote route or a
                                     live connection towards i —
                                     [Hostnet.sends_to])
     S_ji = min(peek(link i->j),     otherwise: j can only send to i as a
                S_ij + L)            *reaction* to a message from i, and
                                     the earliest such message arrives at
                                     the earliest queued one or one
                                     latency after i's own next send

     F_i     = min(E_i, min over inbound pairs (S_ji + L))
     bound_i = min over inbound pairs (S_ji + L)   (infinity if no pairs)

   Initialized at infinity and relaxed monotonically downward to the
   greatest fixed point (Bellman-Ford style; every pass only lowers
   values, floored by the E's and queued-message peeks, so it
   terminates).

   Soundness sketch (the full argument is DESIGN.md §16): suppose for
   contradiction some host j sends a message towards i at a virtual time
   tau < S_ji, and take the earliest such violation in the round. Either
   j held the send capability at round start — then S_ji = F_j, and F_j
   <= tau because j cannot execute an event before its frontier — or j
   acquired the capability during the round, which in this kernel happens
   only by *reacting* to an inbound message from i (connection creation
   via SYN arrival; routes are static and pre-run). That message arrived
   at some sigma <= tau, and it was either already queued on link i->j at
   bound time (sigma >= peek(i->j) >= S_ji) or sent by i during the round
   (sigma >= S_ij + L >= S_ji, no earlier violation). Both contradict
   tau < S_ji. The invariant making peek sufficient is that every message
   drained in an earlier round has also been *executed* in that round
   (drained messages satisfy at < bound, and shards run strictly to their
   bound), so un-executed cross-host work lives only on links whenever
   bounds are computed.

   Every drained message is additionally checked against the destination
   kernel's clock — a conservative violation raises
   [Conservative_violation] immediately instead of silently reordering,
   so the property tests (and every production run) have teeth.

   Message path: a message costs no allocation beyond its payload. A link
   is a ring of (delivery time, payload) and a host's inbox a ring of
   (source host, payload); every delivery event is the host's one
   preallocated [deliver] thunk, which applies the inbox's oldest entry.
   That is sound because the pre-lane pops a round's deliveries in
   insertion order, which the merge makes canonical, and every delivery
   drained in a round also runs in that round (the invariant above), so
   the inbox is empty whenever a drain starts.

   Determinism across shard counts: rounds are identical whether shards
   run sequentially or on domains — bounds depend only on post-barrier
   state, draining is done by the coordinator in canonical order, link
   sequence numbers are assigned by the (single-threaded) sending host in
   its own deterministic event order, and hosts share no other state, so
   which domain runs a host in a round is invisible. [shards = 1] is the
   very same round loop with nobody else pulling from the cursor, so
   outcome digests, recordings and traces are byte-identical at any shard
   count. Adaptive and fixed mode partition the same event
   executions into different rounds; because drained messages are
   delivered through the scheduler's pre-lane (ahead of any same-instant
   local event, regardless of insertion round), the per-host event order —
   and hence every observable outcome — is also identical across modes.

   Scale: [route] creates links and pair records only for the host pairs
   that may ever talk, and hands each pair's two links to the two
   gateways — a million-connection world touches a few thousand host
   pairs, not an eager n^2 mesh. *)

open Remon_kernel
open Remon_sim

type mode = Fixed | Adaptive

type host = {
  kernel : Kernel.t;
  hostnet : Hostnet.t;
  inbox : Link.Ring.t;
      (* drained messages keyed by source host, in canonical order, each
         waiting for its delivery event *)
  deliver : unit -> unit; (* the delivery event: applies the inbox's head *)
}

(* One direction of an active host pair. [p_rev] is the opposite
   direction; both are created together with their links. *)
type pair = {
  p_src : int;
  p_dst : int;
  p_link : Link.t; (* carries p_src -> p_dst *)
  mutable p_s : Vtime.t; (* S_{src,dst} relaxation scratch *)
  p_rev : pair;
}

type t = {
  hosts : host array;
  link_latency : Vtime.t;
  mu : Mutex.t; (* guards pairs/in_pairs mutation *)
  pairs : (int, pair) Hashtbl.t; (* src * n + dst -> pair *)
  in_pairs : pair list array; (* inbound pairs per destination host *)
  frontier : Vtime.t array; (* F_i scratch *)
  bound : Vtime.t array; (* per-round execution bounds *)
  mutable merging : pair array;
      (* the drain's merge set: one host's inbound pairs with a message due *)
  mutable rounds : int;
}

exception
  Conservative_violation of {
    round : int;
    src : int;
    dst : int;
    at : Vtime.t;
    clock : Vtime.t;
    bound : Vtime.t;
  }

let () =
  let ns t = if Vtime.is_finite t then Printf.sprintf "%dns" t else "infinity" in
  Printexc.register_printer (function
    | Conservative_violation { round; src; dst; at; clock; bound } ->
      Some
        (Printf.sprintf
           "World.Conservative_violation: round %d: message from host %d at \
            %s is behind host %d's clock %s (its bound %s)"
           round src (ns at) dst (ns clock) (ns bound))
    | _ -> None)

(* Saturating add: [Vtime.infinity] is [max_int], so a plain add would
   wrap around. *)
let ( +! ) a b = if Vtime.is_finite a then Vtime.add a b else Vtime.infinity

(* Creates the active pair (src, dst) and its two links, once, and hands
   each link to the gateway that sends on it. *)
let add_pair t ~src ~dst =
  let n = Array.length t.hosts in
  let key = (src * n) + dst in
  Mutex.lock t.mu;
  if not (Hashtbl.mem t.pairs key) then begin
    let fwd = Link.create ~dst ~latency:t.link_latency in
    let bwd = Link.create ~dst:src ~latency:t.link_latency in
    let rec pa =
      { p_src = src; p_dst = dst; p_link = fwd; p_s = Vtime.infinity; p_rev = pb }
    and pb =
      { p_src = dst; p_dst = src; p_link = bwd; p_s = Vtime.infinity; p_rev = pa }
    in
    Hashtbl.replace t.pairs key pa;
    Hashtbl.replace t.pairs ((dst * n) + src) pb;
    t.in_pairs.(dst) <- pa :: t.in_pairs.(dst);
    t.in_pairs.(src) <- pb :: t.in_pairs.(src);
    Hostnet.add_link t.hosts.(src).hostnet fwd;
    Hostnet.add_link t.hosts.(dst).hostnet bwd
  end;
  Mutex.unlock t.mu

let create ?(link_latency = Vtime.ns (Cost_model.link_latency Cost_model.default))
    ~n ~(mk : int -> Kernel.t) () =
  if n < 1 then invalid_arg "World.create: need at least one host";
  let hosts =
    Array.init n (fun i ->
        let kernel = mk i in
        let hostnet =
          Hostnet.create ~host:i (Kernel.sched kernel) (Kernel.net kernel)
        in
        kernel.Kstate.hostnet <- Some hostnet;
        let inbox = Link.Ring.create () in
        let deliver () =
          let src = Link.Ring.peek_key inbox in
          Hostnet.apply hostnet ~src (Link.Ring.take inbox)
        in
        { kernel; hostnet; inbox; deliver })
  in
  {
    hosts;
    link_latency;
    mu = Mutex.create ();
    pairs = Hashtbl.create 64;
    in_pairs = Array.make n [];
    frontier = Array.make n Vtime.infinity;
    bound = Array.make n Vtime.infinity;
    merging = [||];
    rounds = 0;
  }

let kernel t i = t.hosts.(i).kernel
let hostnet t i = t.hosts.(i).hostnet
let rounds t = t.rounds

(* Declare that [port] is served from [host]. [initiators] is the set of
   hosts that may ever *connect* to it (defaults to every host); only
   those get the route entry — the owning host falls through to its local
   listener table either way — and only those become active pairs with the
   owner, whose two links go to the two gateways. Narrowing the initiator
   set is what lets adaptive lookahead decouple unrelated host groups. *)
let route ?initiators t ~port ~host =
  let inits =
    match initiators with
    | Some l -> l
    | None -> List.init (Array.length t.hosts) Fun.id
  in
  List.iter
    (fun i ->
      Hostnet.add_route t.hosts.(i).hostnet ~port ~host;
      if i <> host then add_pair t ~src:i ~dst:host)
    inits

let link_stats t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pairs []
  |> List.map (fun p ->
         let sent, bytes = Link.stats p.p_link in
         (p.p_src, p.p_dst, sent, bytes))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The synchronizer *)

(* E_i: the earliest instant host i could possibly act — its next local
   event or the earliest queued inbound message. *)
let compute_horizons t =
  let n = Array.length t.hosts in
  let live = ref false in
  for i = 0 to n - 1 do
    let h = t.hosts.(i) in
    let local = Sched.next_event_time (Kernel.sched h.kernel) in
    let e =
      List.fold_left
        (fun acc p -> Vtime.min acc (Link.peek_at p.p_link))
        local t.in_pairs.(i)
    in
    t.frontier.(i) <- e;
    if Vtime.is_finite e then live := true
  done;
  !live

(* Fixed (single-latency) bounds over all host pairs: the closed form of
   the uniform-latency full-mesh fixed point. O(n). *)
let fixed_bounds t =
  let n = Array.length t.hosts in
  let l = t.link_latency in
  let gm = ref Vtime.infinity in
  for i = 0 to n - 1 do
    gm := Vtime.min !gm t.frontier.(i)
  done;
  (* F_i = min(E_i, gm + L); then bound_i needs min over j <> i of F_j,
     i.e. the global minimum — or the second minimum at its unique
     argmin. *)
  let m1 = ref Vtime.infinity and m2 = ref Vtime.infinity and arg = ref (-1) in
  for i = 0 to n - 1 do
    let f = Vtime.min t.frontier.(i) (!gm +! l) in
    t.frontier.(i) <- f;
    if Vtime.(f < !m1) then begin
      m2 := !m1;
      m1 := f;
      arg := i
    end
    else if Vtime.(f < !m2) then m2 := f
  done;
  if n = 1 then t.bound.(0) <- Vtime.infinity
  else
    for i = 0 to n - 1 do
      t.bound.(i) <- (if i = !arg then !m2 else !m1) +! l
    done

(* Adaptive bounds: relax per-pair earliest-output guarantees S and the
   frontiers F downward to their (greatest) fixed point. Touches only
   active pairs, so the cost is O(pairs * passes), and hosts with no
   active pairs get an infinite bound — they are provably isolated and
   run to completion in one round. *)
let adaptive_bounds t =
  let n = Array.length t.hosts in
  let l = t.link_latency in
  Hashtbl.iter (fun _ p -> p.p_s <- Vtime.infinity) t.pairs;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      (* S for each inbound pair (j -> i), then F_i from them *)
      let f = ref t.frontier.(i) in
      List.iter
        (fun p ->
          let j = p.p_src in
          let sv =
            if Hostnet.sends_to t.hosts.(j).hostnet i then t.frontier.(j)
            else
              Vtime.min (Link.peek_at p.p_rev.p_link) (p.p_rev.p_s +! l)
          in
          if Vtime.compare sv p.p_s < 0 then begin
            p.p_s <- sv;
            changed := true
          end;
          f := Vtime.min !f (p.p_s +! l))
        t.in_pairs.(i);
      if Vtime.(!f < t.frontier.(i)) then begin
        t.frontier.(i) <- !f;
        changed := true
      end
    done
  done;
  for i = 0 to n - 1 do
    t.bound.(i) <-
      List.fold_left
        (fun acc p -> Vtime.min acc (p.p_s +! l))
        Vtime.infinity t.in_pairs.(i)
  done

(* Computes E, F and the per-host bounds under [mode]; returns [true]
   while there is work left anywhere. *)
let compute_bounds t mode =
  let live = compute_horizons t in
  (if live then
     match mode with
     | Fixed -> fixed_bounds t
     | Adaptive -> adaptive_bounds t);
  live

(* Collects host [i]'s inbound pairs with a message below [bound] into
   [t.merging] from index [k] on; returns how many there are in all. *)
let rec gather t ~bound k = function
  | [] -> k
  | p :: rest ->
    if Vtime.(Link.peek_at p.p_link < bound) then begin
      if k = Array.length t.merging then begin
        let wider = Array.make (max 8 (2 * k)) p in
        Array.blit t.merging 0 wider 0 k;
        t.merging <- wider
      end;
      t.merging.(k) <- p;
      gather t ~bound (k + 1) rest
    end
    else gather t ~bound k rest

(* Drain every inbound message below the host's bound into its inbox and
   schedule one pre-lane delivery per message at its delivery time. The
   merge takes the earliest head, ties to the lower source host; each
   link is FIFO in its own seq order, so the inbox is in canonical (at,
   src, seq) order, and with the pre-lane that makes delivery order a pure
   function of the message timestamps — independent of which link
   delivered first and of which round performed the drain. *)
let drain_host t i h =
  let bound = t.bound.(i) in
  let k = ref (gather t ~bound 0 t.in_pairs.(i)) in
  let m = t.merging in
  let sched = Kernel.sched h.kernel in
  let clock = Sched.now sched in
  while !k > 0 do
    let best = ref 0 in
    for j = 1 to !k - 1 do
      let a = Link.peek_at m.(j).p_link and b = Link.peek_at m.(!best).p_link in
      if Vtime.(a < b) || (a = b && m.(j).p_src < m.(!best).p_src) then best := j
    done;
    let p = m.(!best) in
    let at = Link.peek_at p.p_link in
    (* the conservative contract, checked on every delivery: a message
       must never arrive behind the destination's clock *)
    if Vtime.(at < clock) then
      raise
        (Conservative_violation
           { round = t.rounds; src = p.p_src; dst = i; at; clock; bound });
    Link.Ring.push h.inbox p.p_src (Link.take p.p_link);
    Sched.schedule_pre sched ~time:at h.deliver;
    if Vtime.(Link.peek_at p.p_link >= bound) then begin
      decr k;
      m.(!best) <- m.(!k)
    end
  done

let drain_round t = Array.iteri (drain_host t) t.hosts

(* ------------------------------------------------------------------ *)
(* Execution *)

(* One round loop at every shard count. The coordinator alone computes
   bounds and drains links; then it and [shards - 1] worker domains pull
   host indices from the round's shared cursor until it runs past the
   last host, so a round's hosts spread over whoever is free, whatever
   their index. With [shards = 1] nobody else pulls: no domain is spawned
   and the coordinator runs the hosts in index order.

   The barrier is a mutex/condvar phase counter rather than a spin loop:
   shards may outnumber cores (the determinism contract must hold on a
   1-CPU box too), and a spinning coordinator would stall the very
   workers it waits for. The monitor gives the happens-before edges both
   ways — the coordinator's cursor reset and drain writes are visible to
   workers, and worker event processing is visible to the next bound
   computation. *)
let run ?(shards = 1) ?(mode = Adaptive) t =
  if shards < 1 then invalid_arg "World.run: shards must be >= 1";
  let n = Array.length t.hosts in
  let workers = min shards n - 1 in
  let cursor = Atomic.make 0 in
  let rec run_hosts () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then begin
      Sched.run_before (Kernel.sched t.hosts.(i).kernel) ~bound:t.bound.(i);
      run_hosts ()
    end
  in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let phase = ref 0 in
  let done_count = ref 0 in
  let stop = ref false in
  let failure = ref None in
  let worker () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock m;
      while !phase = !seen && not !stop do
        Condition.wait cv m
      done;
      seen := !phase;
      let stopping = !stop in
      Mutex.unlock m;
      if stopping then running := false
      else begin
        let err = (try run_hosts (); None with e -> Some e) in
        Mutex.lock m;
        (match (err, !failure) with
        | Some e, None -> failure := Some e
        | _ -> ());
        incr done_count;
        Condition.broadcast cv;
        Mutex.unlock m
      end
    done
  in
  let domains = List.init workers (fun _ -> Domain.spawn worker) in
  let release_and_join () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    List.iter Domain.join domains
  in
  Fun.protect ~finally:release_and_join (fun () ->
      while compute_bounds t mode do
        t.rounds <- t.rounds + 1;
        drain_round t;
        Atomic.set cursor 0;
        Mutex.lock m;
        done_count := 0;
        incr phase;
        Condition.broadcast cv;
        Mutex.unlock m;
        run_hosts ();
        Mutex.lock m;
        while !done_count < workers do
          Condition.wait cv m
        done;
        let err = !failure in
        Mutex.unlock m;
        Option.iter raise err
      done)
