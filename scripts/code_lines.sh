#!/usr/bin/env bash
# Count code lines the way every PR's CHANGES.md entry reports them:
# per Rust file, the non-blank lines that are not `//` comments (so
# neither `///` nor `//!` docs) above the file's first `#[cfg(test)]`.
# Unit tests below that marker, integration tests, docs and blank lines
# never count, so moving code into tests or deleting comments does not
# read as a reduction.
#
#   scripts/code_lines.sh                 # per-crate table, every crates/*/src
#   scripts/code_lines.sh crates/bench/src crates/sched/src
#                                         # per-file rows and a total
#   scripts/code_lines.sh --markdown      # the per-crate table as markdown
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { # <file> -> code lines
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
       !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
       END { print n + 0 }' "$1"
}

sum_dir() { # <dir> -> code lines of every .rs file under it
  local total=0 f
  while IFS= read -r f; do
    total=$((total + $(count "$f")))
  done < <(find "$1" -name '*.rs' | sort)
  echo "$total"
}

if [ $# -gt 0 ] && [ "$1" != "--markdown" ]; then
  total=0
  for dir in "$@"; do
    while IFS= read -r f; do
      n=$(count "$f")
      total=$((total + n))
      printf '%6d  %s\n' "$n" "$f"
    done < <(find "$dir" -name '*.rs' | sort)
  done
  printf '%6d  total\n' "$total"
  exit 0
fi

markdown=${1:-}
[ -z "$markdown" ] || printf '| crate | code lines |\n|---|---:|\n'
total=0
for src in crates/*/src; do
  crate=${src#crates/}; crate=${crate%/src}
  n=$(sum_dir "$src")
  total=$((total + n))
  if [ -n "$markdown" ]; then printf '| `%s` | %d |\n' "$crate" "$n"; else printf '%6d  %s\n' "$n" "$crate"; fi
done
if [ -n "$markdown" ]; then printf '| **total** | **%d** |\n' "$total"; else printf '%6d  total\n' "$total"; fi
