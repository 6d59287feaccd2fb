#!/usr/bin/env bash
# Same-session A/B of cpbench's host numbers: a parent revision against the
# working tree.
#
#   scripts/cpbench-ab.sh REV [PAIRS] [WORKLOAD...]
#
#   REV       the parent revision (anything `git rev-parse` accepts)
#   PAIRS     alternated parent/change pairs per workload (default 10)
#   WORKLOAD  pingpong-small | pingpong-bulk | service-closed | service-open
#             (default: all four)
#
# Environment: AB_DIR scratch directory (default ${TMPDIR:-/tmp}/cpbench-ab),
# AB_SEED (default 1), AB_SECONDS per run (default: BENCHMARK.json's
# run_seconds).
#
# REV is exported with `git archive` into AB_DIR and both sides' cpbench
# are built there, each in its own target directory; the working tree and
# its .git are only read. The pairs alternate which side runs first. Each
# run is `cpbench --workload W --seed N --seconds S --trace 0`, timed with
# bash's `time` for the CPU seconds of cpbench and its measuring child. Per
# workload the script prints, for host_ops_per_s, setup_s, host_peak_rss_mb
# and child CPU µs per attempted op: the median and interquartile range of
# each side, the parent's IQR as a share of its median, the pairs the change
# won, the median paired ratio (change / parent) and a verdict, judged
# against the metric's bound in BENCHMARK.json (which is only read):
#   better      the change won at least 9/10 of the pairs and the medians
#               differ, its way, by more than the parent's IQR;
#   unresolved  the parent's IQR is a larger share of its median than the
#               bound, and not every change run beats every parent run;
#   worse       the change's median is worse than the parent's by more
#               than the bound;
#   no worse    otherwise.
# A metric with no bound (CPU µs per op) is only ever "better" or "-".
# Wall-clock rows on a small shared host swing by about ±10 % between
# minutes, which is why only pairs run back to back are compared. cpbench
# itself is run as it is, never modified. Run nothing else meanwhile.
set -euo pipefail

usage() {
    sed -n '5,10s/^# \{0,1\}//p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
if [ $# -ge 1 ] && [[ $1 =~ ^[0-9]+$ ]]; then
    pairs=$1
    shift
fi
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(pingpong-small pingpong-bulk service-closed service-open)

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
dir=${AB_DIR:-${TMPDIR:-/tmp}/cpbench-ab}
seed=${AB_SEED:-1}
seconds=${AB_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
manifest=crates/bench/src/bin/cpbench/Cargo.toml

mkdir -p "$dir"
rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git -C "$root" archive "$sha" | tar -x -C "$dir/parent"

build() { # side source-root
    echo "building $1 cpbench" >&2
    CARGO_TARGET_DIR="$dir/target-$1" cargo build --release --offline --quiet \
        --manifest-path "$2/$manifest"
    echo "$dir/target-$1/release/cpbench"
}
declare -A bin
bin[parent]=$(build parent "$dir/parent")
bin[change]=$(build change "$root")

results="$dir/results.tsv"
printf 'workload\tpair\tside\thost_ops_per_s\tsetup_s\thost_peak_rss_mb\tcpu_us_per_op\n' >"$results"

run() { # side workload pair
    local out="$dir/run.out" cpu="$dir/run.cpu"
    (
        cd "$dir"
        TIMEFORMAT='%U %S'
        { time "${bin[$1]}" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
            >"$out" 2>/dev/null; } 2>"$cpu"
    ) || { echo "cpbench ($1, $2) failed; see $out" >&2; exit 1; }
    python3 - "$out" "$cpu" "$1" "$2" "$3" >>"$results" <<'EOF'
import json, sys
out, cpu, side, workload, pair = sys.argv[1:]
run = json.loads(open(out).read().strip().splitlines()[-1])
m = run["metrics"]
user, system = map(float, open(cpu).read().split()[-2:])
cpu_us = (user + system) / max(run["attempted"], 1) * 1e6
row = [workload, pair, side, m["host_ops_per_s"]["value"], m["setup_s"]["value"],
       m["host_peak_rss_mb"]["value"], cpu_us]
print("\t".join(str(v) for v in row))
EOF
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run "$side" "$w" "$i"
        done
        echo "$w: pair $i/$pairs done" >&2
    done
done

python3 - "$results" "$sha" "$root/BENCHMARK.json" <<'EOF'
import csv, json, statistics, sys
from collections import defaultdict

path, sha, bench = sys.argv[1:]
rows = list(csv.DictReader(open(path), delimiter="\t"))
metrics = [("host_ops_per_s", True), ("setup_s", False), ("host_peak_rss_mb", False),
           ("cpu_us_per_op", False)]
bounds = {m["name"]: m["bound"] for m in json.load(open(bench))["end_to_end"]}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def verdict(a, b, higher, bound):
    """Parent runs `a` against the paired change runs `b`."""
    sign = 1 if higher else -1
    ma, mb = statistics.median(a), statistics.median(b)
    lo, hi = quartiles(a)
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if won >= 0.9 * len(a) and sign * (mb - ma) > hi - lo:
        return "better"
    if bound is None:
        return "-"
    if (hi - lo) / ma > bound and min(sign * y for y in b) <= max(sign * x for x in a):
        return "unresolved"
    if sign * (ma - mb) / ma > bound:
        return "worse"
    return "no worse"

print(f"parent {sha[:12]} vs working tree; per workload: median [IQR] of each side, "
      "the parent's IQR / median against the bound, pairs won by the change, "
      "median paired ratio, verdict")
by = defaultdict(dict)
for r in rows:
    by[(r["workload"], r["pair"])][r["side"]] = r
for workload in dict.fromkeys(r["workload"] for r in rows):
    pairs = [p for (w, _), p in by.items() if w == workload and len(p) == 2]
    print(f"\n{workload} ({len(pairs)} pairs)")
    for name, higher in metrics:
        a = [float(p["parent"][name]) for p in pairs]
        b = [float(p["change"][name]) for p in pairs]
        won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        ratio = statistics.median(y / x for x, y in zip(a, b) if x)
        qa, qb = quartiles(a), quartiles(b)
        spread = (qa[1] - qa[0]) / statistics.median(a)
        bound = bounds.get(name)
        limit = f"{bound:.0%}" if bound is not None else "-"
        print(f"  {name:<17} parent {statistics.median(a):>12.4g} [{qa[0]:.4g}, {qa[1]:.4g}]"
              f"  change {statistics.median(b):>12.4g} [{qb[0]:.4g}, {qb[1]:.4g}]"
              f"  IQR {spread:.0%} / bound {limit}  won {won}/{len(pairs)}  ratio {ratio:.3f}"
              f"  {verdict(a, b, higher, bound)}")
EOF
echo "raw rows: $results" >&2
