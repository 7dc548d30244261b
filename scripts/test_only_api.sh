#!/bin/bash
# Test-only API: each function declared in src/**/*.h that nothing in src,
# tools, bench, perfbench or examples calls, as a Markdown table. Such a
# function has only test callers (or none); it is a deletion candidate
# unless it is a read-only observer that tests assert on. CI appends it to
# the job summary.
#
# The scan is by name: a declaration is a header line of the form
# "<type> name(", its definition is "::name(" in the header's own .cc, and
# every other whole-word occurrence counts as a use. An overload or a
# same-named function elsewhere therefore hides an unused one.
#
# Usage: test_only_api.sh
set -euo pipefail
cd "$(dirname "$0")/.."

decl='^\s*(?:(?:static|virtual|explicit|inline|constexpr|friend)\s+)*'
decl+='(?!return\b|else\b|case\b|delete\b|new\b|throw\b|using\b|typedef\b)'
decl+='[A-Za-z_][\w:<>,*&]*(?:\s+[\w:<>,*&]+)*[\s*&]+\K[A-Za-z_]\w*(?=\()'

count() { { grep "$@" || true; } | wc -l; }

echo "| function | declared in |"
echo "|---|---|"
find src -name '*.h' | sort | while read -r header; do
  own="${header%.h}.cc"
  [[ -f "$own" ]] || own=/dev/null
  decls=$({ grep -oP "$decl" "$header" || true; } | sort)
  # Constructors are skipped: a class is used wherever its name appears.
  types=$(grep -oP '^\s*(?:class|struct)\s+\K\w+' "$header" || true)
  uniq <<<"$decls" | while read -r name; do
    [[ -z "$name" ]] && continue
    grep -qxF -- "$name" <<<"$types" && continue
    uses=$(count -rhow --include='*.h' --include='*.cc' --include='*.cpp' \
      -- "$name" src tools bench perfbench examples)
    declared=$(count -xF -- "$name" <<<"$decls")
    defined=$(count -oP "::$name(?=\()" "$own")
    if ((uses == declared + defined)); then
      echo "| \`$name\` | $header |"
    fi
  done
done
