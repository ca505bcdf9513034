#!/usr/bin/env sh
# Observability smoke under ASan+UBSan: build with FLEXOS_SANITIZE=address
# and run the obs- and watch-labeled ctest targets (metrics, tracer,
# attributor, critical path, flexwatch timeseries + SLO watchdogs).
# flexwatch's capture path is allocation-free in steady state but its
# rebind/snapshot/export paths allocate — this is the leak- and
# overflow-check for those. TSan coverage for the same labels lives in
# scripts/tsan_smoke.sh.
#
# Usage: scripts/obs_smoke.sh [build-dir]   (default: build-asan)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-asan"}

echo "== obs_smoke: configure + build (FLEXOS_SANITIZE=address)"
cmake -S "$repo_root" -B "$build_dir" -DFLEXOS_SANITIZE=address
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"

echo "== obs_smoke: obs- and watch-labeled tests"
ctest --test-dir "$build_dir" -L "obs|watch" --output-on-failure

echo "== obs_smoke: abl_obs_overhead --smoke (identity + timeline gates)"
"$build_dir/bench/abl_obs_overhead" --smoke

echo "== obs_smoke: clean under ASan"
