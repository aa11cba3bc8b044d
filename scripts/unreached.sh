#!/usr/bin/env bash
# List the `pub fn` names nothing shipped reaches: per Rust file under
# crates/*/src and benchmark/src, take the lines above the first
# `#[cfg(test)]` with `//` comment lines dropped (the text
# scripts/code_lines.sh counts), and print every `pub fn` name of
# crates/*/src that occurs as a whole word at most once in all of it —
# its own definition. No binary, suite, exhibit or benchmark workload
# calls such a function; only tests, examples or nothing do.
#
#   scripts/unreached.sh            # `name file` per unreached function
#   scripts/unreached.sh --check    # compare with scripts/unreached.allow
#
# --check fails in both directions: an unreached name that the allow-list
# (one `name — reason` per line) does not carry, and an allow-listed name
# that is reached again or gone. It prints the count either way.
set -euo pipefail
export LC_ALL=C # one collation for sort and comm
cd "$(dirname "${BASH_SOURCE[0]}")/.."

unreached() {
  find crates/*/src benchmark/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
    !live || /^[[:space:]]*\/\// { next }
    {
      line = $0
      if (FILENAME ~ /^crates\// && match(line, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART + 7, RLENGTH - 7)
        if (!(name in file)) file[name] = FILENAME
      }
      while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        words[substr(line, RSTART, RLENGTH)]++
        line = substr(line, RSTART + RLENGTH)
      }
    }
    END { for (name in file) if (words[name] <= 1) print name, file[name] }
  ' | sort
}

if [ "${1:-}" != "--check" ]; then
  unreached
  exit 0
fi

allow=scripts/unreached.allow
status=0
if grep -nvE '^[A-Za-z_][A-Za-z0-9_]* — .+' "$allow"; then
  echo "$allow: the lines above are not 'name — reason'"
  status=1
fi
rows=$(unreached)
found=$(echo "$rows" | cut -d' ' -f1)
listed=$(cut -d' ' -f1 "$allow" | sort)
new=$(comm -23 <(echo "$found") <(echo "$listed"))
stale=$(comm -13 <(echo "$found") <(echo "$listed"))
if [ -n "$new" ]; then
  echo "unreached and not in $allow (delete it, or add a line with the reason it stays):"
  echo "$rows" | grep -wF "$new"
  status=1
fi
if [ -n "$stale" ]; then
  echo "in $allow but reached again or gone (delete the line):"
  echo "$stale"
  status=1
fi
echo "unreached pub fn: $(echo "$found" | grep -c .)"
exit $status
