#!/usr/bin/env bash
# CI gate: lint, format, invariant, and hot-path checks.
#
#   ./scripts/ci-gate.sh           # default gate  (~2-4 min cold, <1 min warm)
#   ./scripts/ci-gate.sh --quick   # clippy + fmt + gradest-lint only (<1 min
#                                  #   warm; the pre-push / inner-loop subset)
#   ./scripts/ci-gate.sh --deep    # + loom model checks, Miri, TSan (~+2 min;
#                                  #   loom scales with LOOM_ITERATIONS, default 512)
#
# Quick path (every mode runs these):
#   1. cargo clippy -D warnings        — compiler-level lints
#   2. cargo fmt --check               — formatting drift
#   3. gradest-lint                    — workspace invariants (no-panic /
#                                        no-alloc-into / float hygiene /
#                                        sync-comment audit) plus the
#                                        interprocedural pass: call-graph
#                                        transitive no-alloc/no-panic
#                                        taint from the warm/hot roots,
#                                        ambiguous-call audit,
#                                        dead-suppression audit,
#                                        warm-path drift check, and the
#                                        unused-pub audit (a pub item
#                                        with no caller outside its own
#                                        file fails). Every finding is an
#                                        error, and the step's verdict is
#                                        the finding count. Writes
#                                        target/lint/LINT_REPORT.json
#                                        (machine-readable, uploaded as a
#                                        CI artifact, never read back)
#
# Default path adds:
#   4. rustdoc -D warnings             — `cargo doc --workspace --no-deps`
#                                        with every rustdoc warning an
#                                        error: broken or private intra-doc
#                                        links, ambiguous link targets
#   5. gradest-lint self-test          — --inject-violation seeds a virtual
#                                        cross-module warm-path allocation and
#                                        hot-path panic; the gate must catch
#                                        both with full call chains or this
#                                        step fails (proves the taint pass is
#                                        actually wired in, not a no-op)
#   6. pipeline_hotpath_smoke          — zero warm-path allocations (plain,
#                                        recorded AND traced), LOWESS fast path
#                                        vs lowess_reference agreement,
#                                        warm-vs-cold and recorder
#                                        bit-identity
#   7. geo index property tests        — packed R-tree nearest/bbox queries
#                                        pinned against brute-force oracles
#                                        on randomized segment sets
#   8. geo_index_smoke                 — country-scale (≥1e5-segment) network:
#                                        indexed nearest must match the oracle
#                                        exactly, beat it ≥10x, and allocate
#                                        nothing per warm query
#   9. serve protocol robustness       — wire-codec property tests: truncated /
#                                        oversized / garbage-tagged /
#                                        length-lying frames must produce typed
#                                        errors, never panic, never allocate
#                                        past the frame cap; well-formed
#                                        frames carrying hostile values (one
#                                        per SensorLog::validate rule) must be
#                                        Malformed, and values the estimator
#                                        never reads must still decode
#  10. obs aggregator property tests   — the time-series ring against exact
#                                        oracles: a RunReport over any window
#                                        range matches a plain-vector oracle
#                                        and one RunRecorder fed the same
#                                        records, sketch quantiles stay in
#                                        the error bound, non-finite values
#                                        follow one policy, and reports
#                                        round-trip through JSON
#  11. service_soak_smoke              — gradest-serve on an ephemeral loopback
#                                        port under 64 simulated phones: ≥500
#                                        trips/s sustained, tiles bit-identical
#                                        to direct aggregation, typed BUSY
#                                        rejects at ~2x overload, clean
#                                        drain-on-shutdown, zero warm
#                                        decode→estimate allocations (live
#                                        telemetry ring wired in), drift-free
#                                        healthy STATUS polls with quantiles
#                                        inside the sketch bound, and a drift
#                                        alert within the deadline once sensors
#                                        degrade. Runs under a hard `timeout`
#                                        so a wedged accept loop fails the gate
#                                        instead of hanging it. Writes the
#                                        Prometheus exposition + trace ring +
#                                        final STATUS snapshot to
#                                        target/experiment-results/ (uploaded
#                                        as CI artifacts)
#
# Deep path (--deep, opt-in because of runtime) adds:
#  12. loom model checks               — CloudAggregator upload shard protocol,
#                                        fleet shutdown/drain ordering, and the
#                                        gradest-serve drain gate under
#                                        randomised schedule perturbation
#  13. Miri (subset)                   — UB check on gradest-core; probed and
#                                        SKIPped when the nightly component is
#                                        not installed (offline containers)
#  14. ThreadSanitizer                 — data-race check on the loom suite;
#                                        probed and SKIPped without rust-src
#                                        (needs -Zbuild-std)
#
# Every step runs even if an earlier one fails; the gate ends with a
# per-step wall-clock summary table and exits 0 only when no step
# FAILed (SKIPs — probed-away optional toolchains — do not fail the
# gate). Exit codes: 0 all PASS/SKIP, 1 at least one FAIL, 2 usage.
set -uo pipefail
cd "$(dirname "$0")/.."

MODE=default
case "${1:-}" in
  "") ;;
  --quick) MODE=quick ;;
  --deep) MODE=deep ;;
  *)
    echo "usage: $0 [--quick|--deep]" >&2
    exit 2
    ;;
esac

STEP_NAMES=()
STEP_STATUS=()
STEP_SECS=()
FAILURES=0

record_step() { # record_step <name> <status> <seconds>
  STEP_NAMES+=("$1")
  STEP_STATUS+=("$2")
  STEP_SECS+=("$3")
}

run_step() { # run_step <name> <command...>
  local name="$1"
  shift
  echo
  echo "== ${name}"
  local t0=$SECONDS
  if "$@"; then
    record_step "$name" PASS $((SECONDS - t0))
  else
    record_step "$name" FAIL $((SECONDS - t0))
    FAILURES=$((FAILURES + 1))
    echo "FAIL: ${name}" >&2
  fi
}

skip_step() { # skip_step <name> <reason>
  echo
  echo "== $1 (skipped)"
  echo "SKIP: $2"
  record_step "$1" SKIP 0
}

# --- quick steps: every mode -------------------------------------------------
run_step "clippy" cargo clippy --workspace --all-targets -- -D warnings
run_step "fmt" cargo fmt --check
# Workspace invariant linter: every finding is an error, and every
# suppression needs an in-source `lint:allow(<rule>) reason`. Runs the
# interprocedural pass (call graph + transitive taint + drift +
# dead-suppression audit) and the unused-pub audit, so an unused public
# item fails this step. The verdict is the finding count; the JSON
# report is written for the CI artifact and never read back.
mkdir -p target/lint
run_step "gradest-lint" \
  cargo run --release -q -p gradest-lint -- --report target/lint/LINT_REPORT.json

# --- default steps -----------------------------------------------------------
if [[ "$MODE" != quick ]]; then
  # Rustdoc: every doc link must resolve to a public, unambiguous item,
  # so a renamed or demoted item cannot leave a dangling link behind.
  run_step "rustdoc -D warnings" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

  # Linter self-test: seed a virtual cross-module warm-path allocation
  # and a hot-path panic two hops deep, then require the transitive
  # pass to report both with full call chains. Guards against the
  # interprocedural gate silently rotting into a no-op.
  run_step "gradest-lint --inject-violation" \
    cargo run --release -q -p gradest-lint -- --inject-violation

  # Hot-path smoke: one trip through the pipeline benchmark; the binary
  # asserts zero warm-path allocations (plain, recorded, and traced),
  # LOWESS fast path vs lowess_reference agreement on the trip's
  # steering series, and warm-vs-cold and recorded bit-identity.
  run_step "pipeline_hotpath_smoke" \
    cargo run --release -p gradest-bench --bin gradest-experiments -- pipeline_hotpath_smoke

  # Spatial-index oracle tests: the packed R-tree's nearest and bbox
  # answers pinned against linear-scan oracles on randomized segment
  # sets (including degenerate zero-length / collinear segments).
  run_step "geo index property tests" \
    cargo test -q -p gradest-geo --test index_props

  # Spatial-index smoke: builds a >= 1e5-segment country network; the
  # binary asserts exact oracle agreement, >= 10x speedup over the
  # linear scan, and zero heap allocations per warm nearest query.
  run_step "geo_index_smoke" \
    cargo run --release -p gradest-bench --bin gradest-experiments -- geo_index_smoke

  # Wire-protocol robustness: proptest suite feeding the frame decoder
  # truncated, oversized, bit-flipped, and length-lying inputs; every
  # outcome must be a typed error with bounded allocation, never a
  # panic. Well-formed frames carrying hostile values (a non-finite or
  # out-of-order IMU time, a non-finite reading, GPS or speed value)
  # must decode to Malformed, one case per SensorLog::validate rule.
  run_step "serve protocol robustness" \
    cargo test -q -p gradest-serve --test protocol_robustness

  # Telemetry-aggregator oracles: RunReport over window ranges of the
  # time-series ring pinned against plain vectors and a single
  # RunRecorder, the sketch's quantile bound, the non-finite policy,
  # and the report JSON round trip.
  run_step "obs aggregator property tests" \
    cargo test -q -p gradest-obs --test timeseries_props --test report_roundtrip

  # Service soak smoke: gradest-serve on an ephemeral loopback port,
  # 64 simulated phones. The binary asserts sustained throughput,
  # byte-identical tiles vs direct aggregation, typed BUSY rejects
  # under ~2x overload, a clean drain (including one raced by a live
  # uploader), a zero-allocation warm decode→estimate window with the
  # live telemetry ring recording, drift-free healthy STATUS polls
  # with latency quantiles inside the sketch bound, and a quality
  # drift alert within the deadline once degraded sensor logs arrive.
  # The hard timeout turns a wedged accept/drain into a FAIL instead
  # of a hung gate.
  run_step "service_soak_smoke" \
    timeout 300 cargo run --release -p gradest-bench --bin gradest-experiments -- service_soak_smoke
fi

# --- deep steps --------------------------------------------------------------
tsan_loom() {
  RUSTFLAGS="--cfg loom -Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std \
      --target "$(rustc -vV | sed -n 's/^host: //p')" \
      -p gradest-core --test loom
}

if [[ "$MODE" == deep ]]; then
  # Loom model checks: compiled only under --cfg loom, which swaps
  # gradest-core::sync onto the instrumented shim primitives.
  run_step "loom (LOOM_ITERATIONS=${LOOM_ITERATIONS:-512})" \
    env RUSTFLAGS="--cfg loom" cargo test -p gradest-core --test loom

  # Loom on the ingestion service's drain gate: every admitted upload
  # completes before shutdown reports drained, under exhaustive
  # schedule interleaving.
  run_step "loom (gradest-serve drain gate)" \
    env RUSTFLAGS="--cfg loom" cargo test -p gradest-serve --test loom

  # Miri: interpret the gradest-core unit tests looking for UB. The
  # nightly component cannot be installed in offline containers, so
  # probe first and skip gracefully rather than failing the gate.
  if cargo +nightly miri --version >/dev/null 2>&1; then
    run_step "miri (gradest-core)" cargo +nightly miri test -p gradest-core --lib
  else
    skip_step "miri (gradest-core)" "cargo +nightly miri not available (offline toolchain)"
  fi

  # ThreadSanitizer: race-check the real concurrency code (fleet pool,
  # cloud aggregator) via the loom test suite compiled with TSan.
  # Needs nightly + rust-src for -Zbuild-std; probe and skip otherwise.
  if rustc +nightly --print sysroot >/dev/null 2>&1 \
     && [[ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library" ]]; then
    run_step "tsan (loom suite)" tsan_loom
  else
    skip_step "tsan (loom suite)" "nightly rust-src not available (needed for -Zbuild-std)"
  fi
fi

# --- summary -----------------------------------------------------------------
echo
echo "== ci-gate summary (mode: ${MODE}) =="
printf '%-38s %-6s %8s\n' "step" "status" "seconds"
printf '%-38s %-6s %8s\n' "----" "------" "-------"
for i in "${!STEP_NAMES[@]}"; do
  printf '%-38s %-6s %8s\n' "${STEP_NAMES[$i]}" "${STEP_STATUS[$i]}" "${STEP_SECS[$i]}"
done

if [[ "$FAILURES" -gt 0 ]]; then
  echo "ci-gate: FAIL (${FAILURES} step(s))"
  exit 1
fi
echo "ci-gate: OK"
