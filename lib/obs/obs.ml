(* Observability bundle: one tracer + one metrics aggregator per MVEE run,
   and the deterministic channel's emission API.

   Call sites hold an [Obs.t option] and match on it themselves; [None] is
   the fully-disabled path — a single pattern match per emission point and
   nothing else, which is what keeps the tracing layer zero-cost when off
   (selfperf guards the budget). Every metric an emission feeds is keyed
   "<cat>.<name>", and that key is formed here, nowhere else. *)

type t = { trace : Trace.t; metrics : Metrics.t }

let create () = { trace = Trace.create (); metrics = Metrics.create () }

(* An instant event that also counts "<cat>.<name>". *)
let instant o ~ts ~cat ~name ~pid ~tid args =
  Trace.instant o.trace ~ts ~cat ~name ~pid ~tid args;
  Metrics.incr o.metrics (cat ^ "." ^ name)

(* The "<cat>.<name>" counter alone. *)
let count o ~cat ~name = Metrics.incr o.metrics (cat ^ "." ^ name)

(* One observation of the "<cat>.<name>" latency histogram. *)
let observe_ns o ~cat ~name ns =
  Metrics.observe_ns o.metrics (cat ^ "." ^ name) ns

let summary = function None -> [] | Some o -> Metrics.summary o.metrics

let export_string o =
  Trace.export_string ~metrics:(Metrics.summary o.metrics) o.trace
