(* Host-side measurement: bench spans around the calls into each layer and
   the runtime's own GC phases, read from OCaml's [Runtime_events] ring.

   Spans are opened and closed by the benchmark, never by the program under
   test, so a traced run adds a clock read and a ring poll at each layer
   boundary and nothing inside a layer. Everything is kept in memory and
   written once, after the measured loop. When tracing is off, [span] is a
   plain call and the runtime ring is never started. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let since t0 = seconds_between t0 (now_ns ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  t0 : int64;
  mutable t1 : int64;
}

type phase = {
  dom : int;
  kind : Runtime_events.runtime_phase;
  p0 : int64;
  p1 : int64;
  outer : bool;  (** no other GC phase was open around it on [dom] *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let phases : phase list ref = ref []
let lost_events = ref 0

(* Runtime phases that are garbage collection; waits on a domain's own
   condition variables and remote interrupts are not. *)
let is_gc = function
  | Runtime_events.EV_DOMAIN_CONDITION_WAIT | EV_INTERRUPT_REMOTE
  | EV_DOMAIN_RESIZE_HEAP_RESERVATION | EV_EXPLICIT_GC_SET | EV_EXPLICIT_GC_STAT ->
    false
  | _ -> true

let is_stw = function
  | Runtime_events.EV_STW_LEADER | EV_STW_HANDLER -> true
  | _ -> false

(* Kept beyond the outermost GC intervals: the phases the GC metrics sum. *)
let is_kept = function
  | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
  | k -> is_stw k

(* Per-domain stacks of runtime phases that have begun but not ended. *)
let open_phases : (int, (Runtime_events.runtime_phase * int64) list) Hashtbl.t =
  Hashtbl.create 4

let callbacks =
  let ts = Runtime_events.Timestamp.to_int64 in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun dom t kind ->
      let st = Option.value ~default:[] (Hashtbl.find_opt open_phases dom) in
      Hashtbl.replace open_phases dom ((kind, ts t) :: st))
    ~runtime_end:(fun dom t kind ->
      match Hashtbl.find_opt open_phases dom with
      | Some ((k, p0) :: rest) when k = kind ->
        Hashtbl.replace open_phases dom rest;
        let outer = not (List.exists (fun (k, _) -> is_gc k) rest) in
        if is_gc kind && (outer || is_kept kind) then
          phases := { dom; kind; p0; p1 = ts t; outer } :: !phases
      | _ -> ())
    ~lost_events:(fun _ n -> lost_events := !lost_events + n)
    ()

let cursor = ref None

let poll () =
  match !cursor with
  | Some c when !tracing -> ignore (Runtime_events.read_poll c callbacks None)
  | _ -> ()

let enable () =
  (match !cursor with
  | None ->
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  | Some _ -> Runtime_events.resume ());
  Hashtbl.reset open_phases;
  tracing := true

let disable () =
  if !tracing then begin
    poll ();
    Runtime_events.pause ();
    tracing := false
  end

let span name f =
  if not !tracing then f ()
  else begin
    poll ();
    let parent = match !open_spans with [] -> -1 | p :: _ -> p.id in
    let s = { id = !next_id; name; parent; t0 = now_ns (); t1 = 0L } in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now_ns ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans;
        poll ())
  end

(* [span], also adding the call's host seconds to [into]. *)
let measure into name f =
  let t0 = now_ns () in
  Fun.protect
    (fun () -> span name f)
    ~finally:(fun () -> into := !into +. since t0)

(* {1 Reading the trace} *)

type gc_totals = {
  minor_s : float;
  major_s : float;  (** major slices *)
  stw_s : float;  (** outermost stop-the-world sections, all domains *)
  pause_s : float;  (** outermost GC intervals, all domains *)
  pauses_us : float list;
}

type index = {
  closed : span list;
  child_s : (int, float) Hashtbl.t;  (** span id -> its children's seconds *)
  child_gc : (int, float) Hashtbl.t;  (** span id -> main-domain GC in children *)
  starts : int64 array;  (** main-domain pauses, ordered and disjoint *)
  ends : int64 array;
}

let duration_s p = seconds_between p.p0 p.p1

(* Host seconds of main-domain GC pauses that fall inside [t0, t1]. *)
let gc_overlap idx t0 t1 =
  let n = Array.length idx.starts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare idx.ends.(mid) t0 <= 0 then lo := mid + 1 else hi := mid
  done;
  let total = ref 0L and i = ref !lo in
  while !i < n && Int64.compare idx.starts.(!i) t1 < 0 do
    let a = if Int64.compare idx.starts.(!i) t0 > 0 then idx.starts.(!i) else t0 in
    let b = if Int64.compare idx.ends.(!i) t1 < 0 then idx.ends.(!i) else t1 in
    if Int64.compare b a > 0 then total := Int64.add !total (Int64.sub b a);
    incr i
  done;
  Int64.to_float !total /. 1e9

let span_s s = seconds_between s.t0 s.t1

(* Built once, after the measured loop. Bench spans all run on the main
   domain, so a span's self time excludes that domain's GC pauses. *)
let index () =
  let main =
    List.filter (fun p -> p.dom = 0 && p.outer) !phases
    |> List.sort (fun a b -> Int64.compare a.p0 b.p0)
    |> Array.of_list
  in
  let idx =
    {
      closed = !spans;
      child_s = Hashtbl.create 1024;
      child_gc = Hashtbl.create 1024;
      starts = Array.map (fun p -> p.p0) main;
      ends = Array.map (fun p -> p.p1) main;
    }
  in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      add idx.child_s s.parent (span_s s);
      add idx.child_gc s.parent (gc_overlap idx s.t0 s.t1))
    idx.closed;
  idx

let find tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* Own GC of a span: main-domain pauses inside it but not inside a child. *)
let own_gc idx s = gc_overlap idx s.t0 s.t1 -. find idx.child_gc s.id
let self_s idx s = span_s s -. find idx.child_s s.id -. own_gc idx s

(* Self seconds of each call of span [name] that began inside [within]. *)
let self_samples idx ~within:(w0, w1) name =
  List.filter_map
    (fun s ->
      if s.name = name && Int64.compare s.t0 w0 >= 0 && Int64.compare s.t0 w1 < 0
      then Some (self_s idx s)
      else None)
    idx.closed

type self_row = {
  layer : string;
  calls : int;
  total_s : float;
  self_s : float;  (** minus child spans and minus this domain's GC *)
  gc_s : float;  (** GC pauses inside the span but outside its children *)
}

let self_times idx =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let r =
        Option.value
          ~default:{ layer = s.name; calls = 0; total_s = 0.; self_s = 0.; gc_s = 0. }
          (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name
        {
          r with
          calls = r.calls + 1;
          total_s = r.total_s +. span_s s;
          self_s = r.self_s +. self_s idx s;
          gc_s = r.gc_s +. own_gc idx s;
        })
    idx.closed;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

(* GC on every domain during [t0, t1]. *)
let gc_in t0 t1 =
  let inside =
    List.filter
      (fun p -> Int64.compare p.p0 t0 >= 0 && Int64.compare p.p0 t1 < 0)
      !phases
  in
  let sum f =
    List.fold_left (fun acc p -> if f p then acc +. duration_s p else acc) 0. inside
  in
  {
    minor_s = sum (fun p -> p.kind = Runtime_events.EV_MINOR);
    major_s = sum (fun p -> p.kind = Runtime_events.EV_MAJOR_SLICE);
    stw_s = sum (fun p -> p.outer && is_stw p.kind);
    pause_s = sum (fun p -> p.outer);
    pauses_us =
      List.filter_map
        (fun p -> if p.outer then Some (duration_s p *. 1e6) else None)
        inside;
  }

(* {1 Perfetto export}

   Chrome trace-event JSON, which Perfetto's UI loads directly: one track
   for the bench spans and one per domain for GC and stop-the-world
   phases. Times are microseconds from the first recorded event. *)

let write_perfetto path =
  let origin =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m)
      Int64.max_int !spans
  in
  let origin =
    List.fold_left (fun m p -> if Int64.compare p.p0 m < 0 then p.p0 else m)
      origin !phases
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let oc = open_out_bin path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit fmt =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc fmt
  in
  emit
    "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"bench spans\"}}";
  let doms =
    List.sort_uniq compare (List.map (fun p -> p.dom) !phases)
  in
  List.iter
    (fun d ->
      emit
        "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain %d GC\"}}"
        (d + 1) d)
    doms;
  List.iter
    (fun s ->
      emit
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name (us s.t0)
        (us s.t1 -. us s.t0)
        s.id s.parent)
    (List.rev !spans);
  List.iter
    (fun p ->
      emit
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}"
        (p.dom + 1)
        (Runtime_events.runtime_phase_name p.kind)
        (if is_stw p.kind then "stw" else "gc")
        (us p.p0)
        (us p.p1 -. us p.p0))
    (List.rev !phases);
  output_string oc "\n]}\n";
  close_out oc
