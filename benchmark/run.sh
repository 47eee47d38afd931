#!/usr/bin/env bash
# Build padico-benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--trace] [--seed N] [--seconds S] [workload…]
#       every workload (or the named ones), each in a process of its own;
#       prints `workload metric value unit samples=N` rows and writes
#       benchmark/out/summary[_trace].json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, the form BENCHMARK.json's driver uses; the last line
#       of standard output is the JSON result
#
# Run it from anywhere; nothing here changes directory, so a relative
# CARGO_TARGET_DIR keeps meaning what the caller meant.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"
bin="$target/release/padico-benchmark"
workloads=(rpc_pingpong rpc_pipelined gridccm_coupling coexist_mpi_corba world_ring)

# Self-test: the benchmark may name paper-level API only. The roadmap's
# one-engine, World-context and one-telemetry changes delete these names and
# must still compile this directory unchanged.
forbidden='EngineKind|TmConfig|trace::isolated|metrics::snapshot|pool::stats|record_stats|coalesce_stats|schedule_cache_stats|global_recovery|timeseries::snapshot|span::snapshot|sched\(\)\.stats'
if grep -rnE "$forbidden" "$here/src"; then
    echo "run.sh: benchmark/src names API it must not depend on (see above)" >&2
    exit 1
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@" --out "$here/out"
    fi
done

trace=0
seed=14
seconds=20
chosen=()
while (($#)); do
    case "$1" in
        --trace) trace=1 ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) chosen+=("$1") ;;
    esac
    shift
done
((${#chosen[@]})) || chosen=("${workloads[@]}")

mkdir -p "$here/out"
summary="$here/out/summary.json"
((trace)) && summary="$here/out/summary_trace.json"
status=0
results=""
for w in "${chosen[@]}"; do
    out="$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out "$here/out")" || status=1
    result="$(tail -n 1 <<<"$out")"
    if [[ "$result" == "{"* ]]; then
        sed '$d' <<<"$out" # the metric rows
    else
        printf '%s\n' "$out"
        result=null
    fi
    results+="${results:+,$'\n'}\"$w\": $result"
done
printf '{"seed": %s, "seconds": %s, "trace": %s, "results": {\n%s\n}}\n' \
    "$seed" "$seconds" "$trace" "$results" >"$summary"
echo "wrote $summary" >&2
exit "$status"
