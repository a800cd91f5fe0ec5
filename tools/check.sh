#!/usr/bin/env sh
# Tier-1 gate: the full test suite once normally, then the concurrent
# runtime, reply-cache, routing and journal-writer tests again under
# ThreadSanitizer (-DTN_SANITIZE=thread): the targets and filter of
# tools/tsan_tests.sh, which the CI tsan job reads too.
# Run from anywhere; builds into build/ and build-tsan/ at the repo root.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)
. "$repo/tools/tsan_tests.sh"

echo "== tier-1: configure + build + ctest =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo "== tsan: runtime, reply-cache, routing and journal-writer tests under ThreadSanitizer =="
cmake -B "$repo/build-tsan" -S "$repo" -DTN_SANITIZE=thread
# $TSAN_TARGETS is a list of words, so it stays unquoted.
cmake --build "$repo/build-tsan" -j "$jobs" --target $TSAN_TARGETS
ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
  -R "$TSAN_FILTER"

echo "== all checks passed =="
