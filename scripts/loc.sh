#!/bin/bash
# Library size: lines of src/**/*.{h,cc} per module (each directory under
# src/), the total, and the five largest files, as Markdown tables. CI
# appends it to the job summary; run it before and after a change to
# report the line count difference.
#
# Usage: loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
            xargs -0 cat | wc -l; }

echo "| module | lines |"
echo "|---|---:|"
for dir in src/*/; do
  echo "| $(basename "$dir") | $(lines "$dir") |"
done
echo "| **total** | **$(lines src)** |"
echo
echo "| largest file | lines |"
echo "|---|---:|"
find src -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
  xargs -0 wc -l | grep -v ' total$' | sort -rn | head -5 |
  while read -r n f; do echo "| $f | $n |"; done
