#!/usr/bin/env bash
# Interleaved A/B of two flexvec-perfbench binaries on one workload: the
# method every performance claim in EXPERIMENTS.md uses.
#
#   usage: bench/perf_ab.sh BASE-PERFBENCH NEW-PERFBENCH WORKLOAD [SEED] [PAIRS]
#
# SEED defaults to 1 and PAIRS to 10 (at least 10 are needed for a claim).
# Build each side from its own checkout, in Release:
#
#   cmake -S perfbench -B pb -DCMAKE_BUILD_TYPE=Release
#   cmake --build pb -j2 --target flexvec-perfbench
#
# Each pair runs both binaries with --trace 0 for BENCHMARK.json's
# run_seconds, alternating which side goes first. For every end-to-end
# metric in BENCHMARK.json it prints each side's median and quartiles, the
# median of the per-pair NEW/BASE ratios and NEW's win count (ties count
# for neither side), then a verdict:
#
#   gain        NEW wins >= 9/10 of the pairs and the medians differ by more
#               than BASE's interquartile range
#   worse       NEW's median is worse than BASE's by more than the bound,
#               and either by more than BASE's interquartile range too or
#               with every NEW run worse than every BASE run
#   unresolved  BASE's interquartile range is wider than the metric's bound,
#               so "no worse than the bound" cannot be shown (unless every
#               NEW run beats every BASE run)
#   same        anything else: within the bound, no gain claimed
#
# Exit status: 0 when every run exited 0 with correct outputs and no metric
# is worse, 1 when a run failed, a side failed more operations or a metric
# is worse, 2 on a usage error. CI's perf-gate job fails on a non-zero
# exit, confirming a worse verdict with a re-run first.
set -euo pipefail

usage() {
  echo "usage: bench/perf_ab.sh BASE-PERFBENCH NEW-PERFBENCH WORKLOAD" \
       "[SEED] [PAIRS]" >&2
  exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
BASE=$1 NEW=$2 WORKLOAD=$3 SEED=${4:-1} PAIRS=${5:-10}
for Bin in "$BASE" "$NEW"; do
  [ -x "$Bin" ] || { echo "error: $Bin is not an executable" >&2; usage; }
done
[[ $SEED =~ ^[0-9]+$ ]] ||
  { echo "error: SEED must be a non-negative integer" >&2; usage; }
[[ $PAIRS =~ ^[0-9]+$ ]] && [ "$PAIRS" -ge 1 ] ||
  { echo "error: PAIRS must be a positive integer" >&2; usage; }

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
SECONDS_PER_RUN=$(python3 -c \
  'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$REPO_ROOT/BENCHMARK.json")
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

run() { # SIDE PAIR
  local Bin=$BASE
  [ "$1" = new ] && Bin=$NEW
  # A run whose checks fail exits 1 after its result line; keep going and
  # keep the status for the report below, which judges every run.
  "$Bin" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
    --trace 0 > "$OUT/$1.$2.log" || echo $? > "$OUT/$1.$2.rc"
  tail -n 1 "$OUT/$1.$2.log" > "$OUT/$1.$2.json"
}

echo "$WORKLOAD seed $SEED: $PAIRS pairs of ${SECONDS_PER_RUN} s runs" >&2
for ((P = 0; P < PAIRS; ++P)); do
  if ((P % 2 == 0)); then
    run base "$P"; run new "$P"
  else
    run new "$P"; run base "$P"
  fi
  echo "  pair $((P + 1))/$PAIRS done" >&2
done

python3 - "$REPO_ROOT/BENCHMARK.json" "$OUT" "$PAIRS" <<'EOF'
import json, os, statistics, sys

spec = json.load(open(sys.argv[1]))
out, pairs = sys.argv[2], int(sys.argv[3])
def result(side, p):
    try:
        r = json.load(open(f"{out}/{side}.{p}.json"))
    except ValueError:
        sys.exit(f"error: {side} run {p + 1} printed no result line")
    if r["correct"] and os.path.exists(f"{out}/{side}.{p}.rc"):
        rc = open(f"{out}/{side}.{p}.rc").read().strip()
        sys.exit(f"error: {side} run {p + 1} exited {rc} but reported correct outputs")
    return r

runs = {side: [result(side, p) for p in range(pairs)] for side in ("base", "new")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

status = 0
failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
attempted = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
print(f"failed: base {failed['base']}/{attempted['base']}, "
      f"new {failed['new']}/{attempted['new']}")
if not all(r["correct"] for s in runs for r in runs[s]):
    print("error: a run reported incorrect outputs")
    status = 1
if failed["new"] * attempted["base"] > failed["base"] * attempted["new"]:
    print("error: NEW failed a larger share of operations")
    status = 1

print(f"{'metric':<18} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
      f"{'ratio':>7} {'wins':>6}  verdict")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    n = [r["metrics"][name]["value"] for r in runs["new"]]
    bq, nq = quartiles(b), quartiles(n)
    ratios = [y / x if x else float("nan") for x, y in zip(b, n)]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, n))
    gap = (bq[1] - nq[1]) if lower else (nq[1] - bq[1])  # > 0: NEW better
    iqr = bq[2] - bq[0]
    bound = m["bound"] * abs(bq[1])
    better_everywhere = (max(n) < min(b)) if lower else (min(n) > max(b))
    worse_everywhere = (min(n) > max(b)) if lower else (max(n) < min(b))
    if wins * 10 >= 9 * pairs and gap > iqr:
        verdict = "gain"
    elif -gap > bound and (-gap > iqr or worse_everywhere):
        verdict = "worse"
        status = 1
    elif iqr > bound and not better_everywhere:
        verdict = "unresolved"
    else:
        verdict = "same"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<18} {fmt(bq):>30} {fmt(nq):>30} "
          f"{statistics.median(ratios):>7.3f} {wins:>3}/{pairs:<2}  {verdict}")
sys.exit(status)
EOF
