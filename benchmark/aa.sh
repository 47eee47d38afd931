#!/usr/bin/env bash
# A/A harness: run the same build against itself and check that the
# benchmark agrees with itself within its own bounds.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# Two sets of three runs of every workload; set A walks the workloads in
# order, set B in reverse, so neither set always runs a workload on a
# machine warmed by the same predecessor. Prints median and quartiles per
# (workload, metric) and fails if the two medians of any end-to-end metric
# differ by more than that metric's bound in BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../BENCHMARK.json"
command -v python3 >/dev/null || { echo "aa.sh: needs python3 for the statistics" >&2; exit 2; }

seed=14
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "aa.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift
done

forward=(rpc_pingpong rpc_pipelined gridccm_coupling coexist_mpi_corba world_ring)
backward=(world_ring coexist_mpi_corba gridccm_coupling rpc_pipelined rpc_pingpong)
mkdir -p "$here/out"
runs="$here/out/aa_runs.tsv"
: >"$runs"

for round in 1 2 3; do
    for set in A B; do
        order=("${forward[@]}")
        [[ "$set" == B ]] && order=("${backward[@]}")
        for w in "${order[@]}"; do
            echo "aa.sh: set $set round $round $w" >&2
            result="$("$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            printf '%s\t%s\t%s\n' "$set" "$w" "$result" >>"$runs"
        done
    done
done

python3 - "$spec" "$runs" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = {}
for line in open(sys.argv[2]):
    which, workload, result = line.rstrip("\n").split("\t")
    result = json.loads(result)
    if not result["correct"]:
        sys.exit(f"aa.sh: {workload} reported wrong answers")
    for name, m in result["metrics"].items():
        runs.setdefault((workload, name), {}).setdefault(which, []).append(m["value"])

failed = False
print(f"{'workload':18} {'metric':14} {'set':3} {'q1':>12} {'median':>12} {'q3':>12}  verdict")
for metric in spec["end_to_end"]:
    name, bound, better = metric["name"], metric["bound"], metric["better"]
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = runs[(workload, name)]
        med = {k: statistics.median(v) for k, v in sets.items()}
        for k in "AB":
            q1, _, q3 = statistics.quantiles(sets[k], n=4)
            print(f"{workload:18} {name:14} {k:3} {q1:12.5g} {med[k]:12.5g} {q3:12.5g}", end="")
            print() if k == "A" else None
        # How much worse B is than A, as a share of A, and the other way.
        worse = (med["B"] - med["A"]) / med["A"] * (1 if better == "lower" else -1)
        ok = abs(worse) <= bound
        failed |= not ok
        print(f"  {'agree' if ok else 'DIFFER'} ({abs(worse) * 100:.1f}% apart, bound {bound * 100:.0f}%)")
sys.exit(1 if failed else 0)
EOF
