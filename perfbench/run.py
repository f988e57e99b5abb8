#!/usr/bin/env python3
"""Performance benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload suite|servers|herd --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program (perfbench/ocaml) is
built from source together with the repository's lib/ in a workspace
under .bench_build/, which also receives every other file a run writes.
The program prints a report; this script checks the metrics it computed
against BENCHMARK.json and prints, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer ones;
a traced run also writes a Perfetto-loadable trace to .bench_build/out/.

--selftest runs the statistics unit tests and a tiny run of every
workload at both trace levels, checking that every named metric is
reported with its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys

WORK = ".bench_build"
WS = os.path.join(WORK, "ws")
EXE = os.path.join(WS, "_build", "default", "bench", "main.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def assemble_workspace():
    """Link the repository's project file and lib/ next to the benchmark
    sources, so dune builds both as one project without touching the
    repository's own build."""
    for need in ("BENCHMARK.json", "dune-project", "lib", "perfbench/ocaml"):
        if not os.path.exists(need):
            die(f"{need} not found; run from the repository root")
    os.makedirs(WS, exist_ok=True)
    for name, target in (
        ("dune-project", "../../dune-project"),
        ("lib", "../../lib"),
        ("bench", "../../perfbench/ocaml"),
    ):
        path = os.path.join(WS, name)
        if os.path.islink(path) and os.readlink(path) == target:
            continue
        if os.path.lexists(path):
            os.remove(path)
        os.symlink(target, path)


def dune_env():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep every build output in the checkout
    return env


def build(targets):
    assemble_workspace()
    try:
        r = subprocess.run(
            ["dune", "build", "--root", WS, "--display", "quiet"] + targets,
            env=dune_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed", 1)


def revision():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()[:12]
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_program(workload, seed, seconds, trace, size="full"):
    """Runs the benchmark program; returns its report lines and RESULT."""
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    # the runtime-events ring file lives in the checkout; the ring is large
    # enough that a herd iteration's GC events fit between two polls
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    env["OCAMLRUNPARAM"] = "e=18"
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
        "--rev", revision(),
    ]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, f"trace-{workload}-{seed}.json")]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"benchmark program failed: {e}", 1)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stderr.write(r.stdout)
        die(f"benchmark program exited with {r.returncode}", 1)
    return lines[:-1], json.loads(lines[-1][len("RESULT "):])


def select(spec, result, trace):
    """The metrics BENCHMARK.json names for this trace level, each checked
    for presence, unit and a finite value."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = result["metrics"]
    chosen = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            die(f"metric {m['name']} was not reported", 1)
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']} has unit {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}", 1)
        if not math.isfinite(got["value"]):
            die(f"metric {m['name']} is not finite", 1)
        chosen[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return chosen


def selftest(spec):
    build(["./bench/main.exe", "@bench/runtest"])
    for w in spec["workloads"]:
        for trace in (0, 1):
            report, result = run_program(w["name"], 1, 0, trace, size="tiny")
            metrics = select(spec, result, trace)
            text = "\n".join(report)
            for name, m in metrics.items():
                if not any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                           for line in report):
                    die(f"{w['name']}: {name} not printed with its unit", 1)
            if not result["correct"] or result["failed"]:
                sys.stderr.write(text + "\n")
                die(f"{w['name']}: tiny run failed its checks", 1)
            print(f"selftest {w['name']} trace={trace}: {len(metrics)} metrics ok")
    print("selftest ok")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        die("BENCHMARK.json not found; run from the repository root")
    spec = load_spec()
    if args.selftest:
        selftest(spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")
    build(["./bench/main.exe"])
    report, result = run_program(args.workload, args.seed, args.seconds,
                                 args.trace)
    metrics = select(spec, result, args.trace)
    for line in report:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
