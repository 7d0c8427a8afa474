#!/usr/bin/env bash
# Build the benchmark from source and run one workload in isolation:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Every run gets a fresh scratch directory
# under .perfbench/ (the JIT's TMPDIR, HOME and cache root), removed at
# exit, so no compiled artifact carries over between runs.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

# DUNE_CACHE=disabled keeps the build from writing outside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2

mkdir -p .perfbench
tmp=$(mktemp -d "$PWD/.perfbench/run.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
env -u PFGEN_VM_BACKEND -u PFGEN_JIT_NATIVE -u OCAMLRUNPARAM \
  PFGEN_DOMAINS=1 TMPDIR="$tmp" HOME="$tmp" XDG_CACHE_HOME="$tmp/cache" \
  ./_build/default/perfbench/main.exe --rev "$rev" "$@"
