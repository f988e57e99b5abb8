#!/usr/bin/env python3
"""Reduce one perfbench run's output to what a change that keeps simulated
behaviour must keep: the outcome_digest line, the failed count, and the
simulated counts of the final JSON line, which are BENCHMARK.json's
per_layer entries from sched.events to gw.opened (they are printed with
--trace 1). Every output line starts with LABEL.

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1 \\
      | python3 scripts/perfbench_counts.py "W S"

Exits 1 when the digest or a count is missing.
"""

import json
import os
import sys

label = sys.argv[1]
lines = sys.stdin.read().splitlines()
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "BENCHMARK.json")) as f:
    names = [m["name"] for m in json.load(f)["per_layer"]]
names = names[: names.index("gw.opened") + 1]
digests = [line for line in lines if line.startswith("outcome_digest: ")]
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    sys.exit(f"perfbench_counts: {label}: no final JSON line")
missing = [n for n in names if n not in result["metrics"]]
if len(digests) != 1 or missing:
    sys.exit(f"perfbench_counts: {label}: digest lines {len(digests)}, "
             f"missing counts {missing}")
print(f"{label} {digests[0]}")
print(f"{label} failed {result['failed']}")
for n in names:
    print(f"{label} {n} {result['metrics'][n]['value']}")
