(** Chaos driver: one kernel hosting an MVEE fleet, its load balancer and
    an open-loop client swarm, with deterministic fault plans killing
    replicas (masters included) while the traffic runs. Latency is measured
    from the scheduled arrival, so outage queueing is part of the number —
    the availability and tail-latency figures an SLO would see. *)

open Remon_core
open Remon_workloads

type cfg = {
  backend : Mvee.backend;
  instances : int;
  nreplicas : int;
  recovery : bool;
      (** true: intra-instance Respawn + fleet respawn; false: Kill_group
          and no fleet recovery — the availability-floor baseline *)
  fault_rate : float;  (** per-syscall-index probability in the chaos plan *)
  fault_horizon : int;
  requests : int;
  workers : int;
  interarrival_ns : int;  (** open-loop gap between scheduled arrivals *)
  policy : Lb.policy;
  rolling : int option;  (** [Some max_unavailable] runs a rolling restart *)
  seed : int;
  trace : bool;
  record_dir : string option;
      (** dump a {!Recording} for every instance generation that ends with
          a divergence verdict — the sweep's offline-replayable reproducer
          artifacts *)
}

val default_cfg : cfg
(** ReMon, 3 instances x 2 replicas, recovery on, no faults, 150 requests
    over 6 workers at 40 us interarrival. *)

type report = {
  attempted : int;
  succeeded : int;
  failed : int;
  availability : float;  (** succeeded / attempted *)
  connect_retries : int;
  client_latency : Latency.summary;  (** scheduled-arrival to response *)
  lb_proxied : int;
  failovers : int;
  lb_errors : int;
  ejections : int;
  readmissions : int;
  instance_failures : int;
  fleet_respawns : int;
  quarantines : int;
  respawns : int;
  watchdog_retries : int;
  faults_injected : int;
  served : int;
  verdict_classes : string list;  (** sorted, deduplicated *)
  recordings : string list;
      (** reproducer recordings written to [cfg.record_dir] *)
  metrics : (string * string) list;  (** [[]] when [trace] is off *)
}

val run_scenario : ?obs:Remon_obs.Obs.t -> cfg -> report
(** One deterministic simulation: fresh kernel, fleet + LB + traffic,
    run to completion. [?obs] attaches a caller-owned observability sink
    (the caller can then export the trace); otherwise [cfg.trace] decides
    whether an internal one is created for the metrics summary. *)

val summary_line : cfg -> report -> string
(** One deterministic line per sweep cell; bench tables and the domains
    identity test both consume it. *)
