(* Observability bundle: one tracer + one metrics aggregator per MVEE run.

   Call sites hold an [Obs.t option]; [None] is the fully-disabled path —
   a single pattern match per emission point and nothing else, which is
   what keeps the tracing layer zero-cost when off (selfperf guards the
   budget). *)

type t = { trace : Trace.t; metrics : Metrics.t }

let create () = { trace = Trace.create (); metrics = Metrics.create () }

let observe_ns o name ns =
  match o with None -> () | Some o -> Metrics.observe_ns o.metrics name ns

let summary = function None -> [] | Some o -> Metrics.summary o.metrics

let export_string o =
  Trace.export_string ~metrics:(Metrics.summary o.metrics) o.trace
