#!/bin/bash
# Replays single geosim-fuzz engine configurations by seed and prints each
# seed's violation lines, or "clean". The GS_CHECK source location
# (" at <file>:<line>") is stripped, so the output of two source trees can
# be diffed directly: a refactor must leave it byte-identical, and a fix
# shows exactly which seeds it clears.
#
# Usage: fuzz_seeds.sh [seed...]
# With no seeds, replays the known-failing AggShuffle permanent-crash
# seeds (ROADMAP.md, robustness item): the drain family first, then the
# queue-not-drained family.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=("$@")
if [[ ${#SEEDS[@]} -eq 0 ]]; then
  SEEDS=(3293 8377 9145 9515 9634 10362 12227 103961 203133 300118
         5659 5814 6124 7227 7430 10670 10803 11210 12489 14720 14802)
fi

BUILD_DIR="${GS_FUZZ_BUILD_DIR:-build}"
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target geosim-fuzz >&2

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for seed in "${SEEDS[@]}"; do
  # Exit status 1 (a violation) is the expected outcome here.
  "$BUILD_DIR/tools/geosim-fuzz" --engine-only --no-shrink --iters=1 \
    --seed="$seed" --out="$TMP/repro.json" > "$TMP/out.txt" 2>&1 || true
  if grep -q '^  \[' "$TMP/out.txt"; then
    grep '^  \[' "$TMP/out.txt" | sed -E "s/ at [^ ]+:[0-9]+//; s/^  /$seed: /"
  else
    echo "$seed: clean"
  fi
done
