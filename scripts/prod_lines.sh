#!/usr/bin/env bash
# Production lines per crate, counted the way ROADMAP.md counts them: every `.rs` file
# under `crates/<name>/src` contributes the lines before its first column-0
# `#[cfg(test)]` (all of its lines when it has none); `crates/core/src/bd/tests.rs`, a
# test module in a file of its own, is excluded. It then prints the plain line totals of
# the `.rs` files under `tests/`, `examples/` and `benchmark/src`, and last the number of
# packages the workspace builds (`cargo metadata`, offline).
#
# Usage: scripts/prod_lines.sh [repo-root]   (default: the repository this script is in)
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

# Lines before the first column-0 `#[cfg(test)]` of each file, summed.
production() {
    find "$1" -name '*.rs' ! -path '*/bd/tests.rs' -print0 \
        | xargs -0 -r awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'
}

# Every line of every `.rs` file under the given directories.
total() {
    find "$@" -name '*.rs' -print0 | xargs -0 -r cat | wc -l
}

sum=0
for dir in crates/*/; do
    name=$(basename "$dir")
    lines=$(production "$dir/src")
    sum=$((sum + lines))
    printf '%-12s %6d\n' "$name" "$lines"
done
printf '%-12s %6d\n' "crates" "$sum"
echo
for dir in tests examples benchmark/src; do
    printf '%-16s %6d\n' "$dir" "$(total "$dir")"
done
echo
printf '%-16s %6d\n' "packages" \
    "$(cargo metadata --format-version 1 --no-deps --offline | grep -o '"manifest_path"' | wc -l)"
