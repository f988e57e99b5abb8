(* Tests for the simulation core: virtual time, event queue, cost model. *)

open Remon_sim

let test_vtime_units () =
  Alcotest.(check int) "us" 1_000 (Vtime.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Vtime.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Vtime.s 1);
  Alcotest.(check int) "add" 3 Vtime.(ns 1 + ns 2);
  Alcotest.(check bool) "ordering" true Vtime.(ms 1 < s 1)

let test_vtime_scale () =
  Alcotest.(check int) "scale" 1_500 (Vtime.scale (Vtime.us 1) 1.5)

let test_event_queue_order () =
  let q = Event_queue.create () in
  let order = ref [] in
  let add time tag = ignore (Event_queue.add q ~time (fun () -> order := tag :: !order)) in
  add (Vtime.ms 3) "c";
  add (Vtime.ms 1) "a";
  add (Vtime.ms 2) "b";
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, f) ->
      f ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Event_queue.add q ~time:(Vtime.ms 1) (fun () -> order := i :: !order))
  done;
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, f) ->
      f ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_event_queue_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = Event_queue.add q ~time:(Vtime.ms 1) (fun () -> fired := true) in
  Event_queue.cancel q h;
  Alcotest.(check int) "no live events" 0 (Event_queue.length q);
  (match Event_queue.pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "cancelled event popped");
  Alcotest.(check bool) "never fired" false !fired

let test_event_queue_peek () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(Vtime.ms 9) ());
  let h = Event_queue.add q ~time:(Vtime.ms 2) () in
  Alcotest.(check int) "peek earliest" (Vtime.ms 2) (Event_queue.min_time q);
  Event_queue.cancel q h;
  Alcotest.(check int) "peek skips cancelled" (Vtime.ms 9)
    (Event_queue.min_time q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "empty reads infinity" Vtime.infinity
    (Event_queue.min_time q)

(* length/is_empty are backed by a live counter, so they must stay exact
   through any interleaving of add, cancel (including double-cancel and
   cancel-after-pop) and pop. *)
let test_event_queue_live_counter () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "fresh queue empty" true (Event_queue.is_empty q);
  let handles =
    List.init 100 (fun i -> Event_queue.add q ~time:(Vtime.us i) i)
  in
  Alcotest.(check int) "after adds" 100 (Event_queue.length q);
  List.iteri (fun i h -> if i mod 2 = 0 then Event_queue.cancel q h) handles;
  Alcotest.(check int) "after cancelling half" 50 (Event_queue.length q);
  (* cancelling again must not decrement twice *)
  List.iteri (fun i h -> if i mod 2 = 0 then Event_queue.cancel q h) handles;
  Alcotest.(check int) "double cancel is a no-op" 50 (Event_queue.length q);
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check int) "first live payload" 1 v
  | None -> Alcotest.fail "expected a live event");
  Alcotest.(check int) "after pop" 49 (Event_queue.length q);
  (* cancelling a handle whose event already fired must also be a no-op *)
  Event_queue.cancel q (List.nth handles 1);
  Alcotest.(check int) "cancel after pop is a no-op" 49 (Event_queue.length q);
  let rec drain n =
    match Event_queue.pop q with None -> n | Some _ -> drain (n + 1)
  in
  Alcotest.(check int) "remaining live events pop" 49 (drain 0);
  Alcotest.(check bool) "empty again" true (Event_queue.is_empty q);
  Alcotest.(check int) "length zero" 0 (Event_queue.length q)

(* Mass cancellation must not leave the heap full of dead entries: once
   dead outnumber live, the queue compacts in place. *)
let test_event_queue_compaction () =
  let q = Event_queue.create () in
  let handles =
    List.init 1024 (fun i -> Event_queue.add q ~time:(Vtime.us i) i)
  in
  Alcotest.(check int) "physical matches logical" 1024
    (Event_queue.physical_size q);
  List.iteri (fun i h -> if i mod 8 <> 0 then Event_queue.cancel q h) handles;
  Alcotest.(check int) "live survivors" 128 (Event_queue.length q);
  Alcotest.(check bool)
    (Printf.sprintf "dead entries reclaimed (physical %d)"
       (Event_queue.physical_size q))
    true
    (Event_queue.physical_size q <= 2 * Event_queue.length q);
  (* compaction must preserve order of the survivors *)
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "survivors in time order"
    (List.init 128 (fun i -> i * 8))
    (drain [])

(* Regression: cancelling a handle whose entry was already popped must stay
   a no-op even when the cancel lands at the compaction threshold — the
   dead entry was physically removed by the pop, so a naive implementation
   that re-counted it would drive the live counter negative or compact away
   live entries. *)
let test_event_queue_cancel_after_pop_compaction () =
  let q = Event_queue.create () in
  let handles =
    Array.init 64 (fun i -> Event_queue.add q ~time:(Vtime.us i) i)
  in
  (* pop the first 16 entries, keeping their handles *)
  for i = 0 to 15 do
    match Event_queue.pop q with
    | Some (_, v) -> Alcotest.(check int) "pop order" i v
    | None -> Alcotest.fail "expected a live event"
  done;
  Alcotest.(check int) "48 live after pops" 48 (Event_queue.length q);
  (* cancel every popped handle: all no-ops *)
  for i = 0 to 15 do
    Event_queue.cancel q handles.(i)
  done;
  Alcotest.(check int) "cancel-after-pop never decrements" 48
    (Event_queue.length q);
  (* now cancel live entries until dead outnumber live: compaction fires
     while the popped handles are still reachable *)
  for i = 16 to 48 do
    Event_queue.cancel q handles.(i)
  done;
  let len = Event_queue.length q in
  Alcotest.(check int) "live count exact" 15 len;
  Alcotest.(check bool) "live counter non-negative" true (len >= 0);
  Alcotest.(check bool) "physical >= logical" true
    (Event_queue.physical_size q >= len);
  (* cancel the popped handles again, post-compaction: still no-ops *)
  Array.iter (Event_queue.cancel q) handles;
  Alcotest.(check int) "all cancels idempotent" 0 (Event_queue.length q);
  Alcotest.(check (option int)) "nothing left to pop" None
    (match Event_queue.pop q with Some (t, _) -> Some t | None -> None);
  let st = Event_queue.stats q in
  Alcotest.(check int) "adds tallied" 64 st.Event_queue.adds;
  Alcotest.(check int) "pops tallied" 16 st.Event_queue.pops;
  Alcotest.(check int) "cancels count only live kills" 48 st.Event_queue.cancels;
  Alcotest.(check bool) "compaction actually ran" true
    (st.Event_queue.compactions > 0)

(* Model-based property: random add/add_pre_/cancel/pop/min_time
   interleavings (cancels of arbitrary handles, popped and
   already-cancelled ones included, and cancels aimed at live events)
   keep the live counter exact, pop exactly the surviving events
   in (time, lane, insertion) order (at a time tie every pre-lane event
   pops first, and each lane keeps its own insertion order), and
   [min_time] always names the earliest survivor ([Vtime.infinity] when
   there is none). Right after a cancel that kills a live event,
   compaction keeps the dead entries no more numerous than the live
   ones. *)
let prop_event_queue_model =
  QCheck2.Test.make ~name:"add/cancel/pop interleavings match a model"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 300) (pair (int_range 0 5) (int_range 0 5_000)))
    (fun ops ->
      let q = Event_queue.create () in
      (* model: (id, (time, lane)) per live event, lane 0 = pre-lane; ids
         count insertions across both lanes *)
      let handles = ref [||] in
      let alive = ref [] in
      let ok = ref true in
      let nadds = ref 0 in
      let fresh_id () =
        let id = !nadds in
        incr nadds;
        id
      in
      let by_key (i1, (t1, l1)) (i2, (t2, l2)) = compare (t1, l1, i1) (t2, l2, i2) in
      let earliest () =
        match List.sort by_key !alive with e :: _ -> Some e | [] -> None
      in
      List.iter
        (fun (op, x) ->
          (match op with
          | 0 ->
            let id = fresh_id () in
            let h = Event_queue.add q ~time:(Vtime.ns x) id in
            handles := Array.append !handles [| (id, h) |];
            alive := (id, (x, 1)) :: !alive
          | 1 | 5 ->
            let pool =
              if op = 1 then !handles
              else
                Array.of_list
                  (List.filter
                     (fun (id, _) -> List.mem_assoc id !alive)
                     (Array.to_list !handles))
            in
            if Array.length pool > 0 then begin
              let id, h = pool.(x mod Array.length pool) in
              let kills = List.mem_assoc id !alive in
              Event_queue.cancel q h;
              alive := List.remove_assoc id !alive;
              let phys = Event_queue.physical_size q in
              if kills && not (phys < 32 || phys <= 2 * Event_queue.length q)
              then ok := false
            end
          | 2 -> (
            match (Event_queue.pop q, earliest ()) with
            | None, None -> ()
            | Some (time, id), Some (id', (x', _))
              when id = id' && time = Vtime.ns x' ->
              alive := List.remove_assoc id !alive
            | _ -> ok := false)
          | 3 ->
            let id = fresh_id () in
            Event_queue.add_pre_ q ~time:(Vtime.ns x) id;
            alive := (id, (x, 0)) :: !alive
          | _ ->
            let expected =
              match earliest () with
              | Some (_, (x', _)) -> Vtime.ns x'
              | None -> Vtime.infinity
            in
            if Event_queue.min_time q <> expected then ok := false);
          if Event_queue.length q <> List.length !alive then ok := false;
          if Event_queue.physical_size q < Event_queue.length q then ok := false)
        ops;
      (* drain: the survivors must come out in (time, lane, id) order *)
      let expected = List.map fst (List.sort by_key !alive) in
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, id) -> drain (id :: acc)
      in
      !ok && drain [] = expected && Event_queue.is_empty q)

(* The recycled-entry pool and the allocation-free pop path together: a
   handle taken before its entry is popped and recycled into a *new*
   event must stay inert — cancelling it afterwards must not kill the
   recycled occupant — and a single [pop_into] slot reused for every pop
   must always carry the latest (time, payload), including across failed
   pops on an empty queue (which must leave the slot untouched). *)
let prop_event_queue_recycling =
  QCheck2.Test.make
    ~name:"handle safety across entry recycling + pop_into slot aliasing"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 300) (pair (int_range 0 3) (int_range 0 5_000)))
    (fun ops ->
      let q = Event_queue.create () in
      let slot = Event_queue.make_slot (-1) in
      let handles = ref [||] in
      let alive = ref [] in
      let ok = ref true in
      let nadds = ref 0 in
      let fresh_id () =
        let id = !nadds in
        incr nadds;
        id
      in
      List.iter
        (fun (op, x) ->
          (match op with
          | 0 ->
            (* handled add: cancellable later, even after recycling *)
            let id = fresh_id () in
            let h = Event_queue.add q ~time:(Vtime.ns x) id in
            handles := Array.append !handles [| (id, h) |];
            alive := (id, x) :: !alive
          | 1 ->
            (* handle-free add: comes straight from the recycle pool *)
            let id = fresh_id () in
            Event_queue.add_ q ~time:(Vtime.ns x) id;
            alive := (id, x) :: !alive
          | 2 ->
            (* cancel an arbitrary earlier handle: must only kill its own
               event, never a recycled successor in the same entry *)
            if Array.length !handles > 0 then begin
              let victim, h = !handles.(x mod Array.length !handles) in
              Event_queue.cancel q h;
              alive := List.filter (fun (id, _) -> id <> victim) !alive
            end
          | _ ->
            let before = Event_queue.slot_payload slot in
            (* ids are assigned in insertion order, so (time, id) is the
               queue's (time, insertion) tie-break *)
            let expected_id =
              match
                List.sort
                  (fun (i1, t1) (i2, t2) -> compare (t1, i1) (t2, i2))
                  !alive
              with
              | (i, _) :: _ -> Some i
              | [] -> None
            in
            if Event_queue.pop_into q slot then begin
              let id = Event_queue.slot_payload slot in
              (match expected_id with
              | Some e -> if id <> e then ok := false
              | None -> ok := false);
              alive := List.filter (fun (i, _) -> i <> id) !alive
            end
            else begin
              if !alive <> [] then ok := false;
              (* failed pop must not scribble on the caller's slot *)
              if Event_queue.slot_payload slot <> before then ok := false
            end);
          if Event_queue.length q <> List.length !alive then ok := false)
        ops;
      (* drain through the same aliased slot; (time, id) order must hold *)
      let expected =
        List.sort
          (fun (i1, t1) (i2, t2) -> compare (t1, i1) (t2, i2))
          (List.rev !alive)
        |> List.map fst
      in
      let rec drain acc =
        if Event_queue.pop_into q slot then
          drain (Event_queue.slot_payload slot :: acc)
        else List.rev acc
      in
      !ok && drain [] = expected && Event_queue.is_empty q)

(* Cancelling via a stale handle after its event was popped and its entry
   recycled by a fresh [add_] must be a no-op for the new occupant. *)
let test_event_queue_stale_handle_after_recycle () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:(Vtime.ns 1) 1 in
  (match Event_queue.pop q with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected the first event");
  (* the popped entry returns to the pool; this add_ recycles it *)
  Event_queue.add_ q ~time:(Vtime.ns 2) 2;
  Event_queue.cancel q h;
  Alcotest.(check int) "recycled occupant survives stale cancel" 1
    (Event_queue.length q);
  match Event_queue.pop q with
  | Some (_, 2) -> ()
  | _ -> Alcotest.fail "recycled event must still pop"

let test_cost_model_orderings () =
  let c = Cost_model.default in
  Alcotest.(check bool) "ptrace stop is microseconds" true
    (Cost_model.ptrace_stop_ns c > 1_000);
  Alcotest.(check bool) "RB ops are far cheaper than ptrace" true
    (c.rb_write_fixed_ns * 10 < Cost_model.ptrace_stop_ns c);
  Alcotest.(check bool) "token check is nanoseconds" true (c.token_check_ns < 100);
  Alcotest.(check bool) "copy grows with size" true
    (Cost_model.copy_ns c ~bytes:65536 > Cost_model.copy_ns c ~bytes:64)

let test_cost_model_ablation_preset () =
  Alcotest.(check bool) "cheap switches narrow the gap" true
    (Cost_model.ptrace_stop_ns Cost_model.cheap_switches
    < Cost_model.ptrace_stop_ns Cost_model.default)

let prop_event_queue_sorted =
  QCheck2.Test.make ~name:"pop yields nondecreasing times" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:(Vtime.ns t) ())) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> Vtime.(t >= last) && drain t
      in
      drain Vtime.zero)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sim"
    [
      ("vtime", [ tc "units" test_vtime_units; tc "scale" test_vtime_scale ]);
      ( "event-queue",
        [
          tc "order" test_event_queue_order;
          tc "fifo ties" test_event_queue_fifo_ties;
          tc "cancel" test_event_queue_cancel;
          tc "peek" test_event_queue_peek;
          tc "live counter" test_event_queue_live_counter;
          tc "compaction" test_event_queue_compaction;
          tc "cancel-after-pop vs compaction"
            test_event_queue_cancel_after_pop_compaction;
          tc "stale handle after recycle"
            test_event_queue_stale_handle_after_recycle;
          QCheck_alcotest.to_alcotest prop_event_queue_sorted;
          QCheck_alcotest.to_alcotest prop_event_queue_model;
          QCheck_alcotest.to_alcotest prop_event_queue_recycling;
        ] );
      ( "cost-model",
        [
          tc "structural orderings" test_cost_model_orderings;
          tc "ablation preset" test_cost_model_ablation_preset;
        ] );
    ]
