#!/usr/bin/env sh
# Print each workspace crate's non-test Rust lines, then the total.
#
# The rule: every `.rs` file under a crate's `src/` counts up to (not
# including) its first `#[cfg(test)]` or `#![cfg(test)]` that starts in
# column 0, so a test-only module file that opens with `#![cfg(test)]`
# counts nothing; the vendored shims under `crates/shims/` are excluded.
# Run from anywhere:
#
#   scripts/nontest-lines.sh
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = shims ] && continue
    lines=$(find "$dir/src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^#!?\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} +)
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
