#!/usr/bin/env bash
# Builds the repo and runs every figure/ablation (fig2-fig11 + ablation)
# under TRIDENT_BENCH_QUICK=1 (quarter instruction budget) — a CI-sized
# smoke of the full experimental methodology. All figures run in one
# trident_figures process, so cells that several figures share simulate
# once. Fails if any figure fails; otherwise ends with one line giving
# the suite's wall, user and sys seconds (the figures only, not the
# build).
#
# Usage: tools/run_all_figures.sh [build-dir] [--hwpf LIST]
#   --hwpf LIST          comma list restricting fig9's prefetcher axis
#                        (exported as TRIDENT_FIG9_HWPF; e.g.
#                        --hwpf sb8x8,dcpt,tskid); default: full arsenal
#   TRIDENT_BENCH_JOBS   worker threads (default: all cores)
#   TRIDENT_BENCH_INSTR  override the full per-run budget before quartering
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --hwpf)
      [[ $# -ge 2 ]] || { echo "error: --hwpf needs a value" >&2; exit 2; }
      export TRIDENT_FIG9_HWPF="$2"
      shift 2
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done

cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
# One compile job per CPU: an unbounded -j runs a compiler per target at once.
cmake --build "$BUILD_DIR" -j"$(nproc)"

export TRIDENT_BENCH_QUICK=1

TIMEFORMAT='figure suite: wall %R s, user %U s, sys %S s'
time {
  "$BUILD_DIR/bench/trident_figures"
  echo
  echo "all figures completed."
}
