#!/usr/bin/env bash
# Run the current PR's benchmark snapshot.
#
# Usage: tools/run_bench.sh [build-dir] [out.json]
#
# Defaults: build directory ./build, output BENCH_pr10.json in the
# repository root. Historical BENCH_pr*.json snapshots are frozen
# artifacts of the PRs that produced them — this script no longer
# regenerates them (re-running old suites on a different host only
# destroys the numbers the docs cite).
#
# BENCH_pr10.json records the multi-tenant serving engine (DESIGN.md
# section 5k) under a Zipf-weighted three-model mix with the Table II
# class split: an interactive-only baseline, sequential isolated
# per-model runs, and the mixed run with background saturating the
# spare capacity. The acceptance numbers are in the JSON's
# "acceptance" block: mixed interactive p99 <= 1.25x the
# interactive-only p99, aggregate mixed throughput >= 0.9x the
# sequential isolated baseline, bitwise_threads_ok = 1, and
# steady_allocs = 0 on every row (alloc_counting permitting).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
mt_json="${2:-$repo_root/BENCH_pr10.json}"

# The nets read the per-host tune cache; sweep and persist it first
# so dispatched kernels never skip.
autotune_bin="$build_dir/tools/pcnn_autotune"
if [[ ! -x "$autotune_bin" ]]; then
    echo "error: $autotune_bin not built; run:" >&2
    echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
    exit 1
fi
"$autotune_bin" --reps 2

mt_bin="$build_dir/bench/bench_multitenant"
if [[ ! -x "$mt_bin" ]]; then
    echo "error: $mt_bin not built; run:" >&2
    echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
    exit 1
fi
"$mt_bin" "$mt_json"
echo "wrote $mt_json"
