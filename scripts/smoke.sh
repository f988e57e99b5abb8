#!/usr/bin/env bash
# Smoke checks of the simulator's determinism contract and its record/replay
# surfaces, and of the host-time sampler: the gates the CI smoke job runs,
# runnable locally.
#
#   scripts/smoke.sh [OUTDIR]        # default OUTDIR: smoke-out
#
# Run from the repository root. Builds once, then writes every output into
# OUTDIR. Stops at the first failing check; for the chaos and pdes checks it
# first collects failure diagnostics (a fleet chaos trace, the replay of a
# reference recording) into OUTDIR.
set -euo pipefail

out=${1:-smoke-out}
mkdir -p "$out"
dune build
root=$PWD
remon=$root/_build/default/bin/remon_cli.exe
bench=$root/_build/default/bench/main.exe
cd "$out"

stage=build
diagnose() {
  case $stage in
  chaos)
    "$remon" fleet --rate 0.004 --metrics --trace chaos_trace.json \
      > chaos_fleet.txt 2>&1 || true
    ;;
  pdes)
    # one monitored group run, replayed across backends, so the divergence
    # report sits next to the failing outputs
    "$remon" run -w parsec.dedup -b remon --record pdes_ref.rmrc \
      > /dev/null 2>&1 || true
    {
      "$remon" replay pdes_ref.rmrc || true
      "$remon" replay pdes_ref.rmrc -b varan || true
    } > pdes_replay.txt 2>&1
    ;;
  esac
}
finish() {
  local status=$?
  if [ "$status" -ne 0 ]; then
    diagnose
    echo "smoke: FAILED at stage '$stage'; outputs in $out" >&2
  fi
}
trap finish EXIT

# Experiment stdout is byte-identical at any --domains (wall time goes to
# stderr).
stage=domains
echo "== fig3 and faults: --domains 1 vs 2"
"$bench" fig3 --domains 1 2> /dev/null > fig3_d1.txt
"$bench" fig3 --domains 2 2> /dev/null > fig3_d2.txt
diff -u fig3_d1.txt fig3_d2.txt
"$bench" faults quick --domains 1 2> /dev/null > faults_d1.txt
"$bench" faults quick --domains 2 2> /dev/null > faults_d2.txt
diff -u faults_d1.txt faults_d2.txt

stage=saturation
echo "== saturation sweep: --domains 1 vs 2"
"$bench" saturation quick --domains 1 2> /dev/null > sat_d1.txt
"$bench" saturation quick --domains 2 2> /dev/null > sat_d2.txt
cmp sat_d1.txt sat_d2.txt

stage=chaos
echo "== fleet chaos sweep: --domains 1 vs 2"
"$bench" chaos quick --domains 1 2> /dev/null > chaos_d1.txt
"$bench" chaos quick --domains 2 2> /dev/null > chaos_d2.txt
cmp chaos_d1.txt chaos_d2.txt

stage=fuzz
echo "== cross-backend conformance fuzz (30-scenario slice)"
mkdir -p fuzz-artifacts
FUZZ_SCENARIOS=30 FUZZ_DUMP_DIR=fuzz-artifacts \
  "$root/_build/default/test/test_fuzz.exe" > fuzz.txt

stage=trace
echo "== trace determinism: repeat, and --domains 1 vs 4"
"$remon" run -w parsec.dedup -b remon --trace trace_a.json > /dev/null
"$remon" run -w parsec.dedup -b remon --trace trace_b.json > /dev/null
cmp trace_a.json trace_b.json
"$remon" run -w parsec.dedup -b remon --repeat 4 --domains 1 \
  --trace trace_d1.json > /dev/null
"$remon" run -w parsec.dedup -b remon --repeat 4 --domains 4 \
  --trace trace_d4.json > /dev/null
cmp trace_d1.json trace_d4.json
echo "== routing trace lines rendered from the sink: IP-MON and monitored routes"
"$remon" run -w parsec.dedup -b remon --trace-lines 40 > trace_lines.txt
grep -q -- '-> ipmon' trace_lines.txt
grep -q -- '-> monitored' trace_lines.txt

stage=replay
echo "== record and replay a clean run (byte identity)"
"$remon" run -w parsec.blackscholes -b remon --record clean.rmrc > /dev/null
"$remon" replay clean.rmrc > replay_clean.txt
grep -q 'identical : yes' replay_clean.txt
echo "== record a violating run and replay it (verdict included)"
# the run exits 1 on the injected divergence; the recording is the artifact
"$remon" run -w parsec.blackscholes -b ghumvee --faults 'args@25:1' \
  --record violation.rmrc > /dev/null || true
test -f violation.rmrc
"$remon" replay violation.rmrc > replay_violation.txt
grep -q 'identical : yes' replay_violation.txt
echo "== replay under a different backend (verdict-class agreement, fork report)"
"$remon" replay clean.rmrc -b varan > replay_varan.txt
grep -q 'verdicts  : same class' replay_varan.txt
grep -q 'first divergent record:' replay_varan.txt
"$remon" replay violation.rmrc -b remon > replay_violation_remon.txt
grep -q 'verdicts  : same class' replay_violation_remon.txt
grep -q 'first divergent record:' replay_violation_remon.txt
echo "== chaos reproducer recordings: --domains 1 vs 4"
REMON_RECORD_DIR=rec_d1 "$bench" chaos quick --domains 1 > chaos_rec_d1.txt 2> /dev/null
REMON_RECORD_DIR=rec_d4 "$bench" chaos quick --domains 4 > chaos_rec_d4.txt 2> /dev/null
ls rec_d1
diff -r rec_d1 rec_d4
# reproducers are listed relative to REMON_RECORD_DIR: stdout agrees too
cmp chaos_rec_d1.txt chaos_rec_d4.txt

stage=watchdog
echo "== rendezvous watchdog at 3 replicas: the stalled slave is quarantined"
"$remon" run -w parsec.blackscholes -b ghumvee -n 3 \
  --faults 'delay@15:2=400000ms' --on-failure quarantine > watchdog_n3.txt
grep -q 'quarantines        : 1' watchdog_n3.txt

stage=faults
echo "== one fault plan, --repeat 3: every seed injects, at --domains 1 and 2"
for d in 1 2; do
  "$remon" run -w parsec.blackscholes -b remon --faults 'crash@20:1' \
    --on-failure quarantine --repeat 3 --domains "$d" > "faults_repeat_d$d.txt"
  # the header names the domain count; only the per-seed rows must agree
  grep '^seed' "faults_repeat_d$d.txt" > "faults_rows_d$d.txt"
done
diff -u faults_rows_d1.txt faults_rows_d2.txt
test "$(grep -c ' faults 1 ' faults_rows_d1.txt)" -eq 3

stage=pdes
echo "== shard determinism corpus"
"$root/_build/default/test/test_pdes.exe" -e > pdes_corpus.txt
echo "== shard-count matrix: --shards 1 vs 4, then 6-host chaos --verify"
"$remon" pdes --shards 1 > pdes_s1.txt
"$remon" pdes --shards 4 > pdes_s4.txt
diff -u pdes_s1.txt pdes_s4.txt
"$remon" pdes --shards 4 --hosts 6 --faults 'delay@15:1=1500us' --verify \
  > pdes_verify.txt
echo "== scaling sweep: --domains 1 vs 4"
"$bench" pdes quick --domains 1 2> /dev/null > pdes_d1.txt
"$bench" pdes quick --domains 4 2> /dev/null > pdes_d4.txt
cmp pdes_d1.txt pdes_d4.txt

# The host-time sampler still loads, samples and resolves symbols: until
# the simulator splits host time by layer itself, it is how a change shows
# a layer's share falling. Two domains, so that samples land on two
# threads at once on any runner.
stage=hostprof
echo "== hostprof: sample fig3 quick on 2 domains and resolve its frames"
gcc -O2 -shared -fPIC -o hostprof.so "$root/scripts/hostprof/sampler.c" -ldl
rm -f hostprof.out.*
HOSTPROF_OUT=hostprof.out LD_PRELOAD=$PWD/hostprof.so "$bench" fig3 quick \
  --domains 2 > /dev/null 2>&1
python3 "$root/scripts/hostprof/report.py" hostprof.out.* > hostprof.txt

stage=done
echo "smoke: all checks passed; outputs in $out"
