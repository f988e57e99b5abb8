(* Per-request latency reservoir for the server benchmarks.

   Samples are virtual-time durations, recorded in arrival order by the
   closed-loop client workers. The reservoir is deterministic: when it
   fills, it decimates by keeping every other stored sample and doubling
   the stride between kept observations — no RNG — so a given simulation
   produces the same percentile table under any --domains value. Exact
   count, sum and max are tracked separately and never decimated. *)

open Remon_sim

type t = {
  mutable samples : Vtime.t array;
  mutable n : int; (* stored samples *)
  mutable stride : int; (* keep every stride-th observation *)
  mutable next_keep : int; (* observation index of the next kept sample *)
  cap : int;
  mutable count : int; (* exact observations *)
  mutable sum_ns : int; (* exact sum *)
  mutable max : Vtime.t; (* exact max *)
}

let default_cap = 1 lsl 16

(* The sample array starts small and doubles up to [cap], so a short run
   does not pay for a full reservoir up front. *)
let initial_size = 64

let create ?(cap = default_cap) () =
  let cap = max 2 cap in
  {
    samples = Array.make (min cap initial_size) Vtime.zero;
    n = 0;
    stride = 1;
    next_keep = 0;
    cap;
    count = 0;
    sum_ns = 0;
    max = Vtime.zero;
  }

(* Keep stored indices 0, 2, 4, ...: the survivors stay evenly spaced over
   the observation history, and the stride doubles accordingly. *)
let decimate t =
  let kept = ref 0 in
  let i = ref 0 in
  while !i < t.n do
    t.samples.(!kept) <- t.samples.(!i);
    incr kept;
    i := !i + 2
  done;
  t.n <- !kept;
  t.stride <- t.stride * 2

let record t v =
  t.count <- t.count + 1;
  t.sum_ns <- t.sum_ns + v;
  if Vtime.(t.max < v) then t.max <- v;
  if t.count - 1 = t.next_keep then begin
    if t.n = t.cap then decimate t
    else if t.n = Array.length t.samples then begin
      let grown = Array.make (min t.cap (2 * t.n)) Vtime.zero in
      Array.blit t.samples 0 grown 0 t.n;
      t.samples <- grown
    end;
    t.samples.(t.n) <- v;
    t.n <- t.n + 1;
    t.next_keep <- t.next_keep + t.stride
  end

let count t = t.count
let max_sample t = t.max

let mean_ns t =
  if t.count = 0 then 0.0 else float_of_int t.sum_ns /. float_of_int t.count

(* Nearest-rank percentile over the stored (possibly decimated) samples. *)
let percentile t q =
  if t.n = 0 then Vtime.zero
  else begin
    let sorted = Array.sub t.samples 0 t.n in
    Array.sort Vtime.compare sorted;
    let rank =
      int_of_float (ceil (q /. 100.0 *. float_of_int t.n)) - 1
    in
    sorted.(max 0 (min (t.n - 1) rank))
  end

type summary = {
  count : int;
  mean_ns : float;
  p50 : Vtime.t;
  p90 : Vtime.t;
  p99 : Vtime.t;
  max : Vtime.t;
}

let summary t =
  (* one sort for all three percentiles *)
  let sorted = Array.sub t.samples 0 t.n in
  Array.sort Vtime.compare sorted;
  let pct q =
    if t.n = 0 then Vtime.zero
    else
      let rank = int_of_float (ceil (q /. 100.0 *. float_of_int t.n)) - 1 in
      sorted.(max 0 (min (t.n - 1) rank))
  in
  {
    count = t.count;
    mean_ns = mean_ns t;
    p50 = pct 50.0;
    p90 = pct 90.0;
    p99 = pct 99.0;
    max = t.max;
  }

let ms v = Vtime.to_float_ns v /. 1e6

let summary_to_string s =
  Printf.sprintf "n=%d mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms"
    s.count (s.mean_ns /. 1e6) (ms s.p50) (ms s.p90) (ms s.p99) (ms s.max)
