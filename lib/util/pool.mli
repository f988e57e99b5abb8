(** Domain-based work pool with ordered result collection.

    Simulation runs are self-contained (own kernel, clock, seeded RNG), so
    the experiment harness fans independent runs out across OCaml 5 domains
    and reassembles the results in submission order. *)

val default_domains : unit -> int
(** Worker count used when [map] gets no [?domains]:
    [Domain.recommended_domain_count () - 1], floored at 1. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f jobs] applies [f] to every job and returns the results
    in input order. With [domains = 1] (or a single job) this is exactly
    [List.map f jobs] on the calling domain — the sequential code path.
    With [domains = n > 1], [n] workers (the caller plus [n-1] spawned
    domains) consume jobs from an atomic index. A job's exception is
    captured with its backtrace and re-raised on the calling domain at
    collection time, in job order. *)
