#!/bin/bash
# Library size: files and lines of src/**/*.{h,cc} per module (each
# directory under src/), the total, and the five largest files, as Markdown
# tables. CI appends it to the job summary; run it before and after a
# change to report the file and line count differences.
#
# Usage: loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sources() { find "$@" -type f \( -name '*.h' -o -name '*.cc' \) -print0; }
files() { sources "$@" | tr -cd '\0' | wc -c; }
lines() { sources "$@" | xargs -0 cat | wc -l; }

echo "| module | files | lines |"
echo "|---|---:|---:|"
for dir in src/*/; do
  echo "| $(basename "$dir") | $(files "$dir") | $(lines "$dir") |"
done
echo "| **total** | **$(files src)** | **$(lines src)** |"
echo
echo "| largest file | lines |"
echo "|---|---:|"
sources src | xargs -0 wc -l | grep -v ' total$' | sort -rn | head -5 |
  while read -r n f; do echo "| $f | $n |"; done
