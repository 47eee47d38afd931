#!/usr/bin/env bash
# Alternating parent/change runs of the wall-clock benchmark.
#
#   scripts/bench_pairs.sh PARENT_REV [--pairs N] [--seed S] [workload…]
#
# Extracts PARENT_REV into a temporary directory (`git archive`) and runs
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0
#
# (T is BENCHMARK.json's run_seconds) alternately there and in this
# working tree: pair i runs every chosen workload in turn, parent first
# in odd pairs and change first in even ones. Each side builds from its
# own checkout into its own benchmark/target. bench_pairs.json gets, per
# workload, the six end-to-end metrics and failed/attempted of every run,
# both sides' medians and a verdict per metric of BENCHMARK.json: pairs
# the change won, both sides' quartiles, the relative median change,
# whether a loss stays within the metric's bound, and whether a gain
# exceeds the parent's interquartile range. Defaults: 10 pairs, seed 14,
# every workload BENCHMARK.json names. Needs bash, git, cargo and python3
# (its standard library only); changes nothing under benchmark/.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: $0 PARENT_REV [--pairs N] [--seed S] [workload…]"
(($#)) || { echo "$usage" >&2; exit 2; }
rev="$1"
shift
pairs=10
seed=14
out="$repo/bench_pairs.json"
workloads=()
while (($#)); do
    case "$1" in
        --pairs) pairs="$2"; shift ;;
        --seed) seed="$2"; shift ;;
        -*) echo "$usage" >&2; exit 2 ;;
        *) workloads+=("$1") ;;
    esac
    shift
done
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")"
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo/BENCHMARK.json")
fi

tmp="$(mktemp -d)"
parent="$tmp/parent"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent"
git -C "$repo" archive "$rev" | tar -x -C "$parent"
parent_rev="$(git -C "$repo" rev-parse --short "$rev")"

# Build both sides before the first timed run.
for dir in "$parent" "$repo"; do
    echo "building $dir/benchmark" >&2
    CARGO_TARGET_DIR="$dir/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

runs="$tmp/runs.jsonl"
: >"$runs"
run() { # side pair workload
    local dir="$repo"
    [[ "$1" == parent ]] && dir="$parent"
    local result
    result="$(env -u CARGO_TARGET_DIR bash "$dir/benchmark/run.sh" --workload "$3" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>>"$tmp/stderr.log" | tail -n 1)" || true
    [[ "$result" == "{"* ]] || result=null
    printf '{"side": "%s", "pair": %s, "workload": "%s", "result": %s}\n' \
        "$1" "$2" "$3" "$result" >>"$runs"
    echo "pair $2 $3 $1 done" >&2
}
for ((i = 1; i <= pairs; i++)); do
    for w in "${workloads[@]}"; do
        if ((i % 2)); then
            run parent "$i" "$w"
            run change "$i" "$w"
        else
            run change "$i" "$w"
            run parent "$i" "$w"
        fi
    done
done

python3 - "$repo/BENCHMARK.json" "$runs" "$out" "$parent_rev" "$seed" "$seconds" "$pairs" <<'EOF'
import json, statistics, sys

bench_file, runs_file, out_file, parent_rev, seed, seconds, pairs = sys.argv[1:]
metrics = json.load(open(bench_file))["end_to_end"]
runs = [json.loads(line) for line in open(runs_file)]


def row(result):
    """The end-to-end metrics and failure counts of one run's result."""
    if result is None:
        return {"failed": None, "attempted": None}
    values = {m["name"]: result.get("metrics", {}).get(m["name"], {}).get("value")
              for m in metrics}
    values.update(failed=result.get("failed"), attempted=result.get("attempted"))
    return values


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


block = {}
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == w]
    n = max(r["pair"] for r in mine)
    side = {s: [row(next((r["result"] for r in mine if r["side"] == s and r["pair"] == i), None))
                for i in range(1, n + 1)]
            for s in ("parent", "change")}
    entry = {
        "n": n,
        "order": ["parent first" if i % 2 else "change first" for i in range(1, n + 1)],
        **side,
        "median": {"parent": {}, "change": {}},
        "verdict": {},
        "failed_total": {s: sum(r["failed"] or 0 for r in side[s]) for s in side},
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [(p[name], c[name]) for p, c in zip(side["parent"], side["change"])
                if p.get(name) is not None and c.get(name) is not None]
        if not both:
            continue
        ps, cs = [p for p, _ in both], [c for _, c in both]
        pq, cq = quartiles(ps), quartiles(cs)
        entry["median"]["parent"][name] = pq[1]
        entry["median"]["change"][name] = cq[1]
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = -rel if higher else rel
        gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        entry["verdict"][name] = {
            "change_wins": sum((c > p) if higher else (c < p) for p, c in both),
            "of": len(both),
            "parent_q1_med_q3": pq,
            "change_q1_med_q3": cq,
            "median_change": rel,
            "within_bound": worse <= m["bound"],
            "gain_exceeds_parent_iqr": gain > pq[2] - pq[0],
        }
    block[w] = entry

json.dump({
    "parent": parent_rev,
    "how": f"scripts/bench_pairs.sh {parent_rev} --pairs {pairs} --seed {seed}: "
           f"benchmark/run.sh --workload W --seed {seed} "
           f"--seconds {seconds} --trace 0, parent first in odd pairs and change "
           "first in even pairs; quartiles inclusive",
    "pairs": block,
}, open(out_file, "w"), indent=1)
print(f"wrote {out_file}", file=sys.stderr)
for w, e in block.items():
    v = e["verdict"].get("ops_per_s")
    if v:
        print(f"{w}: ops_per_s {e['median']['parent']['ops_per_s']:.6g} -> "
              f"{e['median']['change']['ops_per_s']:.6g} ({v['median_change']:+.1%}), "
              f"change won {v['change_wins']}/{v['of']}, failed {e['failed_total']}",
              file=sys.stderr)
EOF
