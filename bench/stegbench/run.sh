#!/usr/bin/env bash
# The one command: builds stegbench, runs every workload --reps times (seeds
# --seed, --seed+1, ...), saves each run's result line under --out and
# prints every metric by name with its unit (compare.py DIR).
#
#   bench/stegbench/run.sh [--reps N] [--seed S] [--seconds T] [--out DIR]
#                          [--traced] [--smoke] [--workloads "w1 w2"]
#
#   --reps N       runs per workload (default 5)
#   --seed S       first seed (default 1)
#   --seconds T    measured window per run (default: run_seconds of
#                  BENCHMARK.json)
#   --out DIR      result directory (default .bench_build/results)
#   --traced       also make a traced run per rep: per-layer tables and
#                  DIR/trace_<workload>.json (Perfetto / chrome://tracing)
#   --smoke        one 1-second run per workload
#
# Files in DIR: <workload>.<seed>.json (result line), .log (full output),
# <workload>.<seed>.traced.json/.log, trace_<workload>.json, and host.json
# (the host fingerprint of each workload).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
reps=5
seed=1
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
out="$root/.bench_build/results"
traced=0
workloads="hidden_stream hidden_random namespace_churn durable_commit"

while [ $# -gt 0 ]; do
  case "$1" in
    --reps) reps="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --smoke) reps=1; seconds=1; shift ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$out"
run() {  # run <workload> <seed> <trace> <stem> [extra args]
  local w="$1" s="$2" t="$3" stem="$4"
  shift 4
  python3 "$here/run.py" --workload "$w" --seed "$s" --seconds "$seconds" \
    --trace "$t" "$@" > "$out/$stem.log"
  tail -n 1 "$out/$stem.log" > "$out/$stem.json"
}

for w in $workloads; do
  for ((r = 0; r < reps; r++)); do
    s=$((seed + r))
    echo "== $w seed $s"
    run "$w" "$s" 0 "$w.$s"
    if [ "$traced" = 1 ]; then
      run "$w" "$s" 1 "$w.$s.traced" --trace-json "$out/trace_$w.json"
    fi
  done
done
# The host fingerprint per workload: the engine kAuto picks depends on the
# device a workload mounts.
{
  sep="{"
  for w in $workloads; do
    printf '%s\n  "%s": %s' "$sep" "$w" "$(sed -n 's/^host //p' "$out/$w.$seed.log")"
    sep=","
  done
  printf '\n}\n'
} > "$out/host.json"
python3 "$here/compare.py" "$out"
