#!/usr/bin/env bash
# Writes the simulator's pinned outputs into one directory, so that a change
# meant to keep simulated behaviour is checked against its parent with
#
#   scripts/pinned.sh OUTDIR            # in each tree
#   diff -r OUTDIR_parent OUTDIR_change # no output: byte-identical
#
# Run from the repository root. Builds once; every path the outputs mention
# is relative to OUTDIR. Wall-clock figures go to stderr and are dropped.
# Writes:
#   bench_quick.txt        bench stdout of every quick experiment
#   bench_saturation.txt   the full saturation sweep
#   chaos-rec/, chaos_rec.txt
#                          chaos reproducer recordings (REMON_RECORD_DIR)
#   dedup.*, nginx.*       RMRC recording, its replay, the Chrome trace and
#                          the metrics for parsec.dedup under ReMon and
#                          server.nginx-wrk under GHUMVEE
#   pdes_100k.txt          the 10^5-connection herd (cell hash)
#   pdes_hosts4.txt, pdes_hosts3_ghumvee.txt
#                          MVEE topologies whose client host merges 4 and 3
#                          inbound links (per-host recording digests); the
#                          second under GHUMVEE with 3 replicas and the
#                          fixed lookahead
#   test_shapes.txt        the paper-shape assertions with their figures
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/pinned.sh OUTDIR" >&2
  exit 2
fi
out=$1
mkdir -p "$out"
dune build
root=$PWD
remon=$root/_build/default/bin/remon_cli.exe
bench=$root/_build/default/bench/main.exe
cd "$out"

echo "== bench quick"
"$bench" table1 fig3 fig4 fig5 table2 dense ablations faults saturation \
  chaos pdes quick 2> /dev/null > bench_quick.txt
echo "== bench saturation (full sweep)"
"$bench" saturation 2> /dev/null > bench_saturation.txt

echo "== chaos reproducer recordings"
rm -rf chaos-rec
REMON_RECORD_DIR=chaos-rec "$bench" chaos quick 2> /dev/null > chaos_rec.txt

# Records, replays, traces and scrapes one run. An offline replay of a
# server workload exits 2 by design (it needs a live client fleet); its
# report is kept all the same.
record() {
  local name=$1
  shift
  "$remon" run "$@" --record "$name.rmrc" --trace "$name.trace.json" \
    --metrics > "$name.run.txt"
  "$remon" replay "$name.rmrc" > "$name.replay.txt" 2>&1 || true
}
echo "== parsec.dedup under ReMon"
record dedup -w parsec.dedup -b remon
echo "== server.nginx-wrk under GHUMVEE"
record nginx -w server.nginx-wrk -b ghumvee

echo "== 10^5-connection herd"
"$remon" pdes --connections 100000 2> /dev/null > pdes_100k.txt

echo "== multi-link pdes topologies"
"$remon" pdes --hosts 4 2> /dev/null > pdes_hosts4.txt
"$remon" pdes --hosts 3 -b ghumvee -n 3 --fixed-lookahead 2> /dev/null \
  > pdes_hosts3_ghumvee.txt

echo "== test_shapes"
rm -rf shapes-raw
mkdir shapes-raw
# a failing case shows up in the diff, so it does not stop the script; the
# run id and the wall time vary, the case verdicts and what each case
# printed do not
"$root/_build/default/test/test_shapes.exe" -o "$PWD/shapes-raw" \
  > shapes-raw.txt || true
{
  grep -E '^ *\[(OK|FAIL|SKIP)' shapes-raw.txt
  cat shapes-raw/latest/*.output
} > test_shapes.txt
rm -rf shapes-raw shapes-raw.txt

echo "pinned: outputs in $out"
