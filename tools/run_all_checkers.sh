#!/usr/bin/env bash
# Sweep the whole static verification stack (docs/static-analysis.md) in
# one command — CI's verify job runs exactly this:
#
#   fluxdiv_verify       schedule legality over every registered variant
#   fluxdiv_graphcheck   task-graph races, seeded graph miscompilations,
#                        adversarial replay against the eager step
#   fluxdiv_commcheck    exchange-plan exactness/matching/deadlock
#   fluxdiv_kernelcheck  kernel footprint contracts, sound and tight
#   fluxdiv_stepcheck    whole-step semantic equivalence per fuse mode
#
# Every checker runs --strict, and every checker with a seeded-mutation
# self-test runs --mutate, so a pass means both "the shipped artifacts
# verify" and "the verifiers still reject the canonical miscompilations".
#
# Usage: tools/run_all_checkers.sh [build-dir]   (default: build)
set -euo pipefail

build="${1:-build}"
tools="$build/tools"
if [[ ! -d "$tools" ]]; then
  echo "error: '$tools' not found; configure and build first" >&2
  echo "  cmake -B $build -S . && cmake --build $build -j" >&2
  exit 1
fi

failures=0
run() {
  echo
  echo "==> $*"
  if ! "$@"; then
    failures=$((failures + 1))
    echo "FAILED: $*" >&2
  fi
}

# Schedules: the paper variants and the extension axes, at a small and a
# paper-sized box.
run "$tools/fluxdiv_verify" --boxsize 16 --extensions
run "$tools/fluxdiv_verify" --boxsize 64 --extensions

# Task graphs: both parallel policies (--policy all), replayed under the
# hostile orderings, at two pool sizes (task ownership, and so the
# steal-heavy replay order, depends on them); plus a denser
# many-small-boxes level.
for threads in 2 8; do
  run "$tools/fluxdiv_graphcheck" --policy all --threads "$threads" \
    --strict --mutate --replay
  run "$tools/fluxdiv_graphcheck" --policy all --nboxes 27 --boxsize 8 \
    --threads "$threads" --strict
done

# Exchange plans: shared-memory (nranks 0) and rank-partitioned shapes,
# each at the standard ghost depth and swept over depths 1 and 4.
for shape in "0 8 16" "0 27 8" "4 64 8" "8 16 8"; do
  read -r nranks nboxes boxsize <<<"$shape"
  for ghost in 2 1 4; do
    run "$tools/fluxdiv_commcheck" --nranks "$nranks" --nboxes "$nboxes" \
      --boxsize "$boxsize" --ghost "$ghost" --strict --mutate
  done
done

# Kernel contracts: exhaustive at box 8, sampled at 16 and 32, and dense
# rows only (pad lanes absent, offsets must not move).
for boxsize in 8 16 32; do
  run "$tools/fluxdiv_kernelcheck" --boxsize "$boxsize" --strict --mutate
  run "$tools/fluxdiv_kernelcheck" --boxsize "$boxsize" --pitch dense \
    --strict
done

# Whole-step semantics: every scheme x fuse mode (--fuse all) x {1,3}-step
# program with the seeded step miscompilations, then 3-step programs on
# 32^3 boxes with more seeds.
run "$tools/fluxdiv_stepcheck" --strict --mutate
run "$tools/fluxdiv_stepcheck" --nsteps 3 --boxsize 32 --strict --mutate \
  --seeds 7

echo
if [[ "$failures" -ne 0 ]]; then
  echo "run_all_checkers: $failures checker invocation(s) FAILED"
  exit 1
fi
echo "run_all_checkers: all checkers clean"
