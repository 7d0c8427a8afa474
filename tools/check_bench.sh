#!/usr/bin/env sh
# Bench-gate runner for CI (tier 3) and local pre-merge checks.
#
# Builds the bench harness and runs every artifact that times the
# program, then re-checks the gate_passed metric written into each
# BENCH_*.json so a regression fails the job even if an exit code is
# swallowed upstream.  Every timed number is the median of the shared
# probe's trials (Obs.Clock.trials), recorded with its _iqr.
#
# Gates exercised (all ENFORCED in bench/main.ml, on the probe's medians):
#   pool    - pooled speedup >= 1.7x at 4 domains, enforced when the host
#             has at least 4 cores (recorded otherwise)
#   jit     - fast tier >= 5x over the interpreter
#   overlap - exchange-hidden-fraction >= 0.5 (model-calibrated)
#   scaling - no gate; produces the labelled weak/strong projections
#             (BENCH_scaling.json) that CI uploads as an artifact
#   zoo     - no gate; records per-family interp/jit ns-per-cell
#
# The deterministic gates (zero spawns and zero recompiles after warm-up,
# the serve mempool, bitwise overlap/reduce, cells-touched savings, the
# zoo's oracle-12 budget) are tests; README "Enforced bench gates" lists
# where each lives.
#
# Usage: tools/check_bench.sh [artifact ...]   (defaults to the timed set)
set -eu

cd "$(dirname "$0")/.."

ARTIFACTS="${*:-pool jit overlap scaling zoo}"

dune build bench/main.exe

# shellcheck disable=SC2086  # word-splitting the artifact list is intended
./_build/default/bench/main.exe $ARTIFACTS

status=0
for a in $ARTIFACTS; do
  json="BENCH_$a.json"
  if [ ! -f "$json" ]; then
    echo "GATE CHECK: missing artifact $json" >&2
    status=1
    continue
  fi
  # gate_passed is only present for gated artifacts.
  if grep -q '"gate_passed"' "$json"; then
    if grep -q '"gate_passed": 1' "$json"; then
      echo "GATE CHECK: $json passed"
    else
      echo "GATE CHECK: $json FAILED (gate_passed != 1)" >&2
      status=1
    fi
  else
    echo "GATE CHECK: $json has no gate (recorded metrics only)"
  fi
done

echo "bench artifacts for upload:"
ls -1 BENCH_*.json

exit "$status"
