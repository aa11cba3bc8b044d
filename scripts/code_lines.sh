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
#   scripts/code_lines.sh --since REV [--markdown]
#                                         # per crate: the lines at REV (read
#                                         # with `git show`, nothing checked
#                                         # out), now, and the difference
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { # [file] (else stdin) -> code lines
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
       !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
       END { print n + 0 }' "$@"
}

sum_dir() { # <dir> -> code lines of every .rs file under it
  local total=0 f
  while IFS= read -r f; do
    total=$((total + $(count "$f")))
  done < <(find "$1" -name '*.rs' | sort)
  echo "$total"
}

sum_at() { # <rev> <dir> -> code lines of every .rs file under it at rev
  local total=0 f
  while IFS= read -r f; do
    total=$((total + $(git show "$1:$f" | count)))
  done < <(git ls-tree -r --name-only "$1" -- "$2" | grep '\.rs$' || true)
  echo "$total"
}

if [ "${1:-}" = --since ]; then
  [ $# -ge 2 ] || { echo "usage: scripts/code_lines.sh --since REV [--markdown]" >&2; exit 2; }
  rev=$2
  markdown=${3:-}
  git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "unknown revision: $rev" >&2; exit 2; }
  crates=$( { ls -d crates/*/src 2>/dev/null; git ls-tree -d --name-only "$rev" crates/ |
    sed 's|$|/src|'; } | sed 's|^crates/||; s|/src$||' | sort -u)
  row() { # <name> <then> <now>
    if [ -n "$markdown" ]; then
      printf '| %s | %d | %d | %+d |\n' "$1" "$2" "$3" $(($3 - $2))
    else
      printf '%6d %6d %+6d  %s\n' "$2" "$3" $(($3 - $2)) "$1"
    fi
  }
  short=$(git rev-parse --short "$rev")
  if [ -n "$markdown" ]; then
    printf '| crate | at `%s` | now | net |\n|---|---:|---:|---:|\n' "$short"
  else
    printf '%6s %6s %6s  crate (code lines at %s, now, net)\n' then now net "$short"
  fi
  then_total=0 now_total=0
  for crate in $crates; do
    then_n=$(sum_at "$rev" "crates/$crate/src")
    now_n=0
    [ ! -d "crates/$crate/src" ] || now_n=$(sum_dir "crates/$crate/src")
    then_total=$((then_total + then_n)) now_total=$((now_total + now_n))
    if [ -n "$markdown" ]; then row "\`$crate\`" "$then_n" "$now_n"; else row "$crate" "$then_n" "$now_n"; fi
  done
  if [ -n "$markdown" ]; then row '**total**' "$then_total" "$now_total"; else row total "$then_total" "$now_total"; fi
  exit 0
fi

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
