#!/usr/bin/env python3
"""Self-performance regression gate (CI).

Compares a freshly generated self-performance file against the checked-in
baseline and fails the build when the simulator itself regressed. Each
experiment writes its own file: `bench selfperf` writes BENCH_selfperf.json
(the "sequential" section) and `bench pdes-scale` writes
BENCH_pdes_scale.json (the "pdes_scale" section).

Sections are gated independently, and only when present in BOTH files.
Pass --require SECTION to fail when either file lacks it, so a baseline
that lost its section cannot turn the gate off.

"sequential" (the selfperf experiment):
  * sequential events/s more than --max-slowdown (default 15%) below
    the baseline's — wall-clock throughput of the event loop;
  * sequential minor words per event above --words-budget (default 128)
    — the zero-allocation dispatch budget (DESIGN.md section 13), an
    absolute cap so allocation creep cannot ratchet the baseline up.

"pdes_scale" (the herd connection-scaling sweep, DESIGN.md section 16):
  * bytes/connection at each sweep point matched by connection count:
    within 1.5x of baseline, and under the 4096-byte absolute cap
    at the points where per-connection state dominates (>= 10^5);
  * the flat stream-pair probe within 1.25x of baseline (and <= 256 B);
  * adaptive round counts (deterministic) within 1.1x of baseline;
  * events/s and fixed-mode rounds/s within --max-slowdown-pdes
    (default 35%, wall-clock on shared runners is noisy);
  * the idle-heavy ablation keeps a >= 2x round-count reduction
    (deterministic) and a >= 1.5x wall-clock speedup over the
    fixed-lookahead baseline.

Usage: check_selfperf.py BASELINE.json FRESH.json [options]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "remon-selfperf/1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def gate_sequential(base, fresh, args, failures):
    if base["quick"] != fresh["quick"]:
        sys.exit("baseline and fresh run disagree on quick mode; "
                 "throughput is not comparable")

    b_eps = base["sequential"]["events_per_sec"]
    f_eps = fresh["sequential"]["events_per_sec"]
    floor = b_eps * (1.0 - args.max_slowdown)
    print(f"events/s: baseline {b_eps:,.0f}  fresh {f_eps:,.0f}  "
          f"floor {floor:,.0f}")
    if f_eps < floor:
        failures.append(
            f"events/s {f_eps:,.0f} is more than "
            f"{args.max_slowdown:.0%} below baseline {b_eps:,.0f}")

    words = fresh["sequential"]["minor_words_per_event"]
    print(f"minor words/event: fresh {words:.2f}  budget "
          f"{args.words_budget:.2f}  "
          f"(baseline {base['sequential']['minor_words_per_event']:.2f})")
    if words > args.words_budget:
        failures.append(
            f"minor words/event {words:.2f} exceeds budget "
            f"{args.words_budget:.2f}")

    # per-workload allocation is deterministic: flag any backend whose
    # allocation/event grew, as an early pointer to *where* it crept in
    base_rows = {(w["name"], w["backend"]): w for w in base["workloads"]}
    for w in fresh["workloads"]:
        b = base_rows.get((w["name"], w["backend"]))
        if b and w["minor_words_per_event"] > b["minor_words_per_event"] * 1.05:
            failures.append(
                f"{w['name']}/{w['backend']}: minor words/event "
                f"{w['minor_words_per_event']:.2f} vs baseline "
                f"{b['minor_words_per_event']:.2f} (+5% band)")


def gate_pdes_scale(base, fresh, args, failures):
    bs, fs = base["pdes_scale"], fresh["pdes_scale"]
    base_rows = {r["connections"]: r for r in bs["sweep"]}
    matched = [(base_rows[r["connections"]], r)
               for r in fs["sweep"] if r["connections"] in base_rows]
    if not matched:
        failures.append("pdes_scale: no sweep point matches the baseline "
                        "(connection counts changed? regenerate the baseline)")
        return
    for b, f in matched:
        n = f["connections"]
        bpc, b_bpc = f["bytes_per_connection"], b["bytes_per_connection"]
        print(f"pdes {n:>8} conns: bytes/conn {bpc} "
              f"(baseline {b_bpc}), events/s {f['events_per_sec']:,.0f} "
              f"(baseline {b['events_per_sec']:,.0f})")
        # the absolute cap only means something once per-connection state
        # dominates the world's fixed overhead (kernels, link queues)
        if n >= 100_000 and bpc > args.bytes_per_conn_cap:
            failures.append(
                f"pdes_scale[{n}]: bytes/connection {bpc} exceeds the "
                f"absolute cap {args.bytes_per_conn_cap}")
        # peak heap under multiple domains has real GC variance: wide band
        if bpc > b_bpc * 1.5:
            failures.append(
                f"pdes_scale[{n}]: bytes/connection {bpc} vs baseline "
                f"{b_bpc} (+50% band)")
        # round counts are deterministic for a fixed herd shape
        if f["rounds_adaptive"] > b["rounds_adaptive"] * 1.1:
            failures.append(
                f"pdes_scale[{n}]: adaptive rounds {f['rounds_adaptive']} vs "
                f"baseline {b['rounds_adaptive']} (+10% band)")
        if f["events_per_sec"] < b["events_per_sec"] * (1 - args.max_slowdown_pdes):
            failures.append(
                f"pdes_scale[{n}]: events/s {f['events_per_sec']:,.0f} is more "
                f"than {args.max_slowdown_pdes:.0%} below baseline "
                f"{b['events_per_sec']:,.0f}")
        if f["rounds_per_sec_fixed"] < b["rounds_per_sec_fixed"] * (
                1 - args.max_slowdown_pdes):
            failures.append(
                f"pdes_scale[{n}]: fixed-mode rounds/s "
                f"{f['rounds_per_sec_fixed']:,.0f} is more than "
                f"{args.max_slowdown_pdes:.0%} below baseline "
                f"{b['rounds_per_sec_fixed']:,.0f}")

    pair = fs["stream_pair_cost_bytes"]
    b_pair = bs["stream_pair_cost_bytes"]
    print(f"stream pair cost: fresh {pair} B (baseline {b_pair} B)")
    if pair > 256:
        failures.append(
            f"pdes_scale: stream pair cost {pair} B exceeds the 256 B cap "
            "(flat connection state regressed)")
    if pair > b_pair * 1.25:
        failures.append(
            f"pdes_scale: stream pair cost {pair} B vs baseline {b_pair} B "
            "(+25% band)")

    ih = fs["idle_heavy"]
    ratio = ih["rounds_fixed"] / max(1, ih["rounds_adaptive"])
    print(f"idle-heavy: {ih['rounds_adaptive']} adaptive vs "
          f"{ih['rounds_fixed']} fixed rounds ({ratio:.0f}x), "
          f"wall speedup {ih['speedup_vs_fixed']:.2f}x")
    if ratio < 2.0:
        failures.append(
            f"pdes_scale: idle-heavy round reduction {ratio:.2f}x < 2x "
            "(adaptive lookahead stopped adapting)")
    if ih["speedup_vs_fixed"] < 1.5:
        failures.append(
            f"pdes_scale: idle-heavy wall speedup "
            f"{ih['speedup_vs_fixed']:.2f}x < 1.5x floor")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--max-slowdown", type=float, default=0.15,
                    help="allowed fractional events/s drop vs baseline")
    ap.add_argument("--words-budget", type=float, default=128.0,
                    help="max sequential minor words per event")
    ap.add_argument("--max-slowdown-pdes", type=float, default=0.35,
                    help="allowed fractional throughput drop on the "
                         "pdes_scale sweep")
    ap.add_argument("--bytes-per-conn-cap", type=int, default=4096,
                    help="absolute end-to-end bytes/connection cap")
    ap.add_argument("--require", action="append", default=[],
                    metavar="SECTION",
                    help="fail if either file lacks this section "
                         "(sequential, pdes_scale); repeatable")
    args = ap.parse_args()

    base, fresh = load(args.baseline), load(args.fresh)
    failures = []

    for section in args.require:
        for path, doc in ((args.baseline, base), (args.fresh, fresh)):
            if section not in doc:
                sys.exit(f"{path}: required section {section!r} missing")

    if "sequential" in base and "sequential" in fresh:
        gate_sequential(base, fresh, args, failures)
    else:
        print("sequential section not in both files; skipping")

    if "pdes_scale" in base and "pdes_scale" in fresh:
        gate_pdes_scale(base, fresh, args, failures)
    else:
        print("pdes_scale section not in both files; skipping")

    if failures:
        print("\nSELFPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("selfperf gate passed")


if __name__ == "__main__":
    main()
