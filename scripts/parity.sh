#!/usr/bin/env bash
# Cross-commit executor parity: proves the working tree charges exactly
# what <rev> charges. Builds the engine libraries of both trees, links
# tools/parity_dump.cc (from the working tree) against each, runs both
# dumps (fuzz families and hand-written queries at 1, 4 and 8 shards)
# and diffs them: rows, errors, simulated_ms at full precision,
# storage.scan.* and operator profile trees.
#
# Usage: scripts/parity.sh <rev>     (e.g. scripts/parity.sh HEAD~)
# Exit 0 when the dumps are identical, 1 when they differ. The <rev>
# tree is unpacked and built under a fresh directory in ${TMPDIR:-/tmp};
# the working tree builds in build/.
set -euo pipefail
if [[ $# -ne 1 ]]; then
  echo "usage: scripts/parity.sh <rev>" >&2
  exit 2
fi
rev="$1"
cd "$(dirname "$0")/.."
root="$(pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/eqsql-parity.XXXXXX")"
jobs="$(nproc)"

echo "== unpacking $rev into $work/base =="
mkdir -p "$work/base"
git archive "$rev" | tar x -C "$work/base"

build_tree() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" >/dev/null
  cmake --build "$2" -j"$jobs" --target eqsql_fuzz >/dev/null
}

link_dump() {  # <source dir> <build dir> <output binary>
  # shellcheck disable=SC2046
  g++ -std=c++20 -O1 -I"$1/src" "$root/tools/parity_dump.cc" -o "$3" \
    -Wl,--start-group $(find "$2/src" -name '*.a') -Wl,--end-group \
    -lpthread
}

echo "== building $rev =="
build_tree "$work/base" "$work/base/build"
link_dump "$work/base" "$work/base/build" "$work/dump_base"
echo "== building the working tree =="
build_tree "$root" "$root/build"
link_dump "$root" "$root/build" "$work/dump_head"

echo "== dumping =="
"$work/dump_base" >"$work/base.txt"
"$work/dump_head" >"$work/head.txt"
echo "$(wc -l <"$work/head.txt") dump lines; outputs in $work"
if diff -u "$work/base.txt" "$work/head.txt" >"$work/parity.diff"; then
  echo "parity.sh: no differences against $rev"
  exit 0
fi
echo "parity.sh: $(grep -c '^-[^-]' "$work/parity.diff") line(s) differ from $rev:"
head -n 60 "$work/parity.diff"
exit 1
