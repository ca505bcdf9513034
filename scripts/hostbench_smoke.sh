#!/usr/bin/env sh
# hostbench smoke: builds and runs hostbench's own tests, then runs each
# of the four workloads for a few seconds at seed 1 and checks that it is
# correct and that its simulation is the recorded one. A changed sim_digest
# means the modeled outcome moved: a host-speed change must leave it alone,
# and a change that means to move it updates the values below and says why.
# Root ctest does not build hostbench (it is its own CMake package), so
# this is how a change to src/ checks that the benchmark still agrees.
#
# Usage: scripts/hostbench_smoke.sh [seconds]   (default: 3; run from anywhere)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
seconds=${1:-3}
cd "$repo_root"

build_dir="${CARGO_TARGET_DIR:-.bench_build}/hostbench"

# Seed-1 digests: iperf_stream and redis_boot, then redis_steady, which
# redis_observed must equal (observation changes no modeled cycle).
expected_digest() {
  case $1 in
    iperf_stream) echo ad34319697e6a3c1 ;;
    redis_boot) echo d1b4fc717e6b7b39 ;;
    redis_steady | redis_observed) echo 1f975367e21e6cd5 ;;
  esac
}

failures=0
for workload in iperf_stream redis_boot redis_steady redis_observed; do
  echo "== hostbench_smoke: $workload (seed 1, ${seconds} s)"
  out=$(python3 hostbench/run.py --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 0)
  digest=$(printf '%s\n' "$out" | sed -n 's/^sim_digest = //p')
  want=$(expected_digest "$workload")
  summary=$(printf '%s\n' "$out" | tail -n 1)
  printf '%s\n' "$out" | grep -E '^(sim_digest|error_rate|ops_per_host_s) '
  if ! printf '%s\n' "$summary" | grep -q '"correct": true'; then
    echo "FAIL: $workload: not correct: $summary"
    failures=$((failures + 1))
  fi
  if [ "$digest" != "$want" ]; then
    echo "FAIL: $workload: sim_digest $digest, expected $want"
    failures=$((failures + 1))
  fi
done

echo "== hostbench_smoke: hostbench_test"
cmake --build "$build_dir" --target hostbench_test -j 4 >/dev/null
if ! "$build_dir/hostbench_test"; then
  echo "FAIL: hostbench_test"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "== hostbench_smoke: $failures failure(s)"
  exit 1
fi
echo "== hostbench_smoke: ok"
