#!/usr/bin/env bash
# Tests bench/perf_ab.sh's verdicts and exit status against fake perfbench
# executables. Each fake ignores its options (--seconds included) and
# prints a fixed result line, so the whole test takes seconds.
#
#   usage: tests/perf_ab_test.sh     (ctest registers it as perf_ab)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
Failures=0

# fake NAME CORRECT VALUE...: a perfbench stand-in whose K-th call reports
# the K-th VALUE (cycling) for every end-to-end metric in BENCHMARK.json.
# CORRECT is True or False; like perfbench, an incorrect run exits 1, and
# EXIT, when set, is the exit status of every run instead.
fake() {
  local Name=$1 Correct=$2
  shift 2
  cat > "$WORK/$Name" <<EOF
#!/usr/bin/env python3
import json, os, sys
values, calls = [$(IFS=,; echo "$*")], "$WORK/$Name.calls"
k = int(open(calls).read()) if os.path.exists(calls) else 0
open(calls, "w").write(str(k + 1))
spec = json.load(open("$ROOT/BENCHMARK.json"))
print("metrics by name come first")
print(json.dumps({"correct": $Correct, "attempted": 10, "failed": 0,
                  "metrics": {m["name"]: {"value": values[k % len(values)]}
                              for m in spec["end_to_end"]}}))
sys.exit(${EXIT:-0 if $Correct else 1})
EOF
  chmod +x "$WORK/$Name"
}

# check CASE WANT-EXIT WANT-LINE ARGS...: runs perf_ab.sh ARGS and expects
# exit status WANT-EXIT and an output line matching regex WANT-LINE.
check() {
  local Case=$1 Want=$2 Line=$3 Got=0
  shift 3
  "$ROOT/bench/perf_ab.sh" "$@" > "$WORK/out" 2>&1 || Got=$?
  if [ "$Got" = "$Want" ] && grep -Eq -- "$Line" "$WORK/out"; then
    echo "ok   $Case"
  else
    echo "FAIL $Case: exit $Got (want $Want), no line matching '$Line' in:"
    cat "$WORK/out"
    Failures=$((Failures + 1))
  fi
}

fake steady True 1.0
fake steady2 True 1.0
check "identical sides are the same" 0 '^wall_s .* same$' \
  "$WORK/steady" "$WORK/steady2" figure8_full 1 3

# BASE's interquartile range (0.9 to 1.2) is 30% of its median, wider than
# every bound; NEW is 2x slower on every pair.
fake noisy True 1.0 1.3 0.8 1.2 0.9
fake slow True 2.0 2.6 1.6 2.4 1.8
check "2x slower NEW against a noisy BASE is worse" 1 '^wall_s .* worse$' \
  "$WORK/noisy" "$WORK/slow" figure8_full 1 10

# BASE's interquartile range (0.5 to 1.0) is wider than NEW's 20% gap, but
# every NEW run is slower than every BASE run.
fake spread True 0.4 0.5 1.0 1.0 1.0
fake above True 1.2
check "NEW worse than every BASE run is worse" 1 '^wall_s .* worse$' \
  "$WORK/spread" "$WORK/above" fuzz_storm 1 10

fake wrong False 1.0
check "an incorrect NEW run fails" 1 'a run reported incorrect outputs' \
  "$WORK/steady" "$WORK/wrong" fuzz_storm 1 2

EXIT=3 fake crash True 1.0
check "a run that exits 3 with correct outputs fails" 1 \
  'error: new run 1 exited 3 but reported correct outputs' \
  "$WORK/steady" "$WORK/crash" fuzz_storm 1 2

check "too few arguments" 2 '^usage:' "$WORK/steady" "$WORK/steady2"
check "zero pairs" 2 'PAIRS must be' \
  "$WORK/steady" "$WORK/steady2" fuzz_storm 1 0
check "a BASE that is not executable" 2 'is not an executable' \
  "$WORK/missing" "$WORK/steady2" fuzz_storm

[ "$Failures" = 0 ] || { echo "$Failures case(s) failed"; exit 1; }
