(* Domain-based work pool for the experiment harness.

   Every simulation run is a self-contained world — its own kernel, clock,
   event queue and seeded RNG — so independent runs parallelize across
   OCaml 5 domains without shared mutable state. The pool hands out jobs
   by atomic index, collects results into a pre-sized array, and returns
   them in submission order, so callers print tables that are
   byte-identical to a sequential run.

   Determinism contract: [map ~domains:1] takes the exact sequential code
   path (a plain [List.map] on the calling domain, no domain spawned, no
   atomics), so a single-domain run is not merely equivalent to the old
   sequential harness — it *is* the old sequential harness. *)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* Parallel body: [n] workers total (n-1 spawned domains plus the calling
   domain) race down an atomic job index. Per-job exceptions are captured
   with their backtraces and re-raised on the calling domain in job order,
   so the surfaced failure is the same one a sequential run would hit
   first. *)
let map_parallel (type a b) n (f : a -> b) (jobs : a list) : b list =
  let jobs = Array.of_list jobs in
  let njobs = Array.length jobs in
  let results : (b, exn * Printexc.raw_backtrace) result option array =
    Array.make njobs None
  in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < njobs then begin
        let r =
          try Ok (f jobs.(i))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let spawned =
    Array.init (min (n - 1) (max 0 (njobs - 1))) (fun _ -> Domain.spawn worker)
  in
  worker ();
  Array.iter Domain.join spawned;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false (* every index was claimed by a worker *))
       results)

let map ?domains (f : 'a -> 'b) (jobs : 'a list) : 'b list =
  let n =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* match on the list shape instead of forcing a full List.length just to
     test "at most one job" *)
  match jobs with
  | [] | [ _ ] -> List.map f jobs
  | _ :: _ :: _ -> if n = 1 then List.map f jobs else map_parallel n f jobs
