#!/usr/bin/env bash
# Perf-regression gate: re-runs the pipeline_hotpath, fleet_scaling,
# kernel_microbench, geo_index, and service_soak experiments and diffs
# their latency metrics against the committed baselines
# (BENCH_pipeline.json / BENCH_fleet.json / BENCH_kernels.json /
# BENCH_geo.json / BENCH_service.json at the repo root).
#
#   ./scripts/bench-gate.sh                 # gate HEAD vs baselines (±20%)
#   ./scripts/bench-gate.sh --update        # refresh the baselines from HEAD
#                                           #   (also appends a one-line run
#                                           #   summary to BENCH_HISTORY.jsonl)
#   ./scripts/bench-gate.sh --self-test     # prove the gate can fail: inject a
#                                           #   synthetic 3x regression and
#                                           #   require a non-zero exit
#   ./scripts/bench-gate.sh --tolerance 0.35   # loosen the tolerance
#
# Any other arguments are passed through to the bench-gate binary;
# `--tolerance` is the only way to change the bound. The gated metric
# set — benchmark medians plus per-stage span means from the obs
# RunReport embedded in each baseline — lives in
# crates/bench/src/gate.rs. Exit codes follow the binary: 0 within
# tolerance, 1 regression/missing metric, 2 usage or missing baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--self-test" ]]; then
  shift
  echo "bench-gate.sh: self-test — an injected 3x regression must FAIL the gate"
  if cargo run --release -q -p gradest-bench --bin bench-gate -- --inject-regression "$@"; then
    echo "bench-gate.sh: self-test FAILED — injected regression passed the gate" >&2
    exit 1
  fi
  echo "bench-gate.sh: self-test OK — gate rejected the injected regression"
  exit 0
fi

exec cargo run --release -q -p gradest-bench --bin bench-gate -- "$@"
