#!/usr/bin/env bash
# Regenerates every golden in tests/golden/ from the current build: the
# stat snapshots, the fuzzed-scenario snapshots and the sweep identity
# fingerprints. Run this after an *intentional* behaviour change, then
# review the resulting diff like any other code change before committing.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

TESTS=(golden_stats_test fuzz_golden_test sweep_identity_test)

cmake --build "$BUILD_DIR" --target "${TESTS[@]}" -j"$(nproc)"
for T in "${TESTS[@]}"; do
  (cd "$BUILD_DIR/tests" && TRIDENT_UPDATE_GOLDENS=1 "./$T")
done

echo
echo "Goldens rewritten; review before committing:"
git -C "$REPO_ROOT" status --short -- tests/golden
