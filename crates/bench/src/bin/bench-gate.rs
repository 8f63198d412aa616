//! Perf-regression gate over the committed benchmark baselines.
//!
//! ```text
//! cargo run --release -p gradest-bench --bin bench-gate                # gate HEAD
//! cargo run --release -p gradest-bench --bin bench-gate -- --update   # refresh baselines
//! cargo run --release -p gradest-bench --bin bench-gate -- --tolerance 0.35
//! cargo run --release -p gradest-bench --bin bench-gate -- --inject-regression
//! ```
//!
//! Re-runs the `pipeline_hotpath`, `fleet_scaling`,
//! `kernel_microbench`, `geo_index`, and `service_soak` experiments,
//! extracts the gated latency metrics (benchmark medians plus the
//! per-stage span means from each result's embedded obs `RunReport`),
//! and diffs them against `BENCH_pipeline.json` / `BENCH_fleet.json` /
//! `BENCH_kernels.json` / `BENCH_geo.json` / `BENCH_service.json` at
//! the repository root. Exit codes: 0 all metrics within tolerance,
//! 1 at least one regression or missing metric, 2 usage or missing
//! baseline files (the error names each absent baseline and the
//! `--update` command that regenerates it).
//!
//! Every `--update` also appends one compact JSON line (timestamp,
//! git commit, all gated metrics) to `BENCH_HISTORY.jsonl` at the
//! repository root — commit it alongside the refreshed baselines so
//! the perf trajectory across refreshes stays in one greppable file.
//!
//! Like `gradest-experiments`, this binary installs a counting global
//! allocator, so the baselines it writes carry measured
//! `allocs_per_trip_warm*` counts (the hot-path JSON asserts 0)
//! instead of "not measured" nulls.
//!
//! The tolerance is `--tolerance` when given, else the built-in default
//! (±20 %). `--inject-regression` triples every current metric after
//! measurement — a self-test hook proving the gate actually fails (used
//! by `scripts/bench-gate.sh --self-test`).

use gradest_bench::experiments::{fleet_bench, geo_index, kernels, pipeline_hotpath, service_soak};
use gradest_bench::gate::{self, GateReport, MetricSpec, DEFAULT_TOLERANCE};
use gradest_bench::perfbench::alloc_counter;
use gradest_bench::report::print_table;
use serde_json::{Map, Number, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

// The hot-path benchmark can only record `allocs_per_trip_warm*` when
// the process counts allocations, and the committed baseline must carry
// the measured zeros.
gradest_bench::install_counting_alloc!();

/// Pipeline experiment parameters: the same seed/sample count the
/// `gradest-experiments` binary uses, so the baseline and the gate
/// measure the identical workload.
const PIPELINE_SEED: u64 = 77;
const PIPELINE_SAMPLES: usize = 5;
/// Fleet experiment seed; trips/workers are read from the committed
/// baseline so the gate replays the baseline's workload shape.
const FLEET_SEED: u64 = 900;
/// Kernel microbench parameters (mirrors `kernel_microbench` in the
/// `gradest-experiments` binary).
const KERNEL_SEED: u64 = 77;
const KERNEL_SAMPLES: usize = 5;
/// Geo index tier parameters (mirrors `geo_index` in the
/// `gradest-experiments` binary): a 200 km country network keeps the
/// gate fast while still exercising the packed-tree traversal depth.
const GEO_SEED: u64 = 77;
const GEO_TARGET_KM: f64 = 200.0;
const GEO_SAMPLES: usize = 3;
/// Ingestion-service soak seed; phones/trips-per-phone are read from
/// the committed baseline so the gate replays its workload shape. The
/// defaults keep the gate's soak a fraction of the CI smoke's 64-phone
/// run while exercising the same concurrent decode → estimate → fuse
/// path.
const SERVICE_SEED: u64 = 77;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct Args {
    tolerance: f64,
    update: bool,
    inject_regression: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut tolerance: Option<f64> = None;
    let mut update = false;
    let mut inject_regression = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--inject-regression" => inject_regression = true,
            "--tolerance" => {
                let v = argv.next().ok_or("--tolerance needs a value")?;
                tolerance = Some(v.parse::<f64>().map_err(|e| format!("--tolerance {v}: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let tolerance = tolerance.unwrap_or(DEFAULT_TOLERANCE);
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!("tolerance must be a finite non-negative ratio, got {tolerance}"));
    }
    Ok(Args { tolerance, update, inject_regression })
}

/// Appends one compact JSON line summarising a baseline refresh to the
/// committed `BENCH_HISTORY.jsonl`: a unix timestamp, the current git
/// commit (best effort — `null` outside a git checkout), and every
/// gated metric's measured value in nanoseconds. One object per
/// `--update`, newest last, so the machine's perf trajectory stays
/// greppable from the repository itself without spelunking git history
/// of the full BENCH_*.json documents.
fn append_history(root: &Path, suites: &[(&Value, &[MetricSpec])]) -> Result<PathBuf, String> {
    let mut metrics = Map::new();
    for (doc, specs) in suites {
        for (name, value) in gate::extract(doc, specs) {
            metrics.insert(name, value.map(Value::from).unwrap_or(Value::Null));
        }
    }
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .map_err(|e| format!("system clock before the unix epoch: {e}"))?;
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| Value::String(sha.trim().to_string()))
        .unwrap_or(Value::Null);
    let mut line = Map::new();
    line.insert("unix_time_s", Value::Number(Number::from(unix_s)));
    line.insert("commit", commit);
    line.insert("metrics", Value::Object(metrics));
    let path = root.join("BENCH_HISTORY.jsonl");
    let mut body = Value::Object(line).to_string();
    body.push('\n');
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(body.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    Ok(path)
}

/// Loads a committed baseline document, or `None` when the file is
/// absent (fresh checkout before the first `--update`).
fn load_baseline(path: &Path) -> Result<Option<Value>, String> {
    match std::fs::read_to_string(path) {
        Ok(body) => serde_json::from_str(&body)
            .map(Some)
            .map_err(|e| format!("{} is not valid JSON: {e:?}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

fn gate_suite(
    title: &str,
    baseline: &Value,
    current: &Value,
    specs: &[MetricSpec],
    tolerance: f64,
    inject: f64,
) -> GateReport {
    let baseline_metrics = gate::extract(baseline, specs);
    let mut current_metrics = gate::extract(current, specs);
    for (_, v) in &mut current_metrics {
        *v = v.map(|ns| ns * inject);
    }
    let report =
        gate::compare(&baseline_metrics, &current_metrics, tolerance, gate::DEFAULT_ABS_SLACK_NS);
    print_table(
        &format!(
            "{title} — tolerance ±{:.0}%, {} metric(s), {} failure(s)",
            tolerance * 100.0,
            report.rows.len(),
            report.failures()
        ),
        &["metric", "baseline ms", "current ms", "delta", "verdict"],
        &report.table_rows(),
    );
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::from(2);
        }
    };
    alloc_counter::mark_installed();
    let root = workspace_root();
    let pipeline_path = root.join("BENCH_pipeline.json");
    let fleet_path = root.join("BENCH_fleet.json");
    let kernels_path = root.join("BENCH_kernels.json");
    let geo_path = root.join("BENCH_geo.json");
    let service_path = root.join("BENCH_service.json");

    let load = |path: &Path| match load_baseline(path) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("bench-gate: {e}");
            None
        }
    };
    let (
        Some(baseline_pipeline),
        Some(baseline_fleet),
        Some(baseline_kernels),
        Some(baseline_geo),
        Some(baseline_service),
    ) = (
        load(&pipeline_path),
        load(&fleet_path),
        load(&kernels_path),
        load(&geo_path),
        load(&service_path),
    )
    else {
        return ExitCode::from(2);
    };

    // Replay the baseline's fleet workload shape; fall back to the
    // experiment binary's defaults on a fresh checkout.
    let trips =
        baseline_fleet.as_ref().and_then(|b| b["trips"].as_u64()).map(|t| t as usize).unwrap_or(16);
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = baseline_fleet
        .as_ref()
        .and_then(|b| b["workers"].as_u64())
        .map(|w| w as usize)
        .unwrap_or_else(|| cpus.clamp(1, 4))
        .clamp(1, cpus.max(1));

    // Same idea for the service soak: replay the committed workload
    // shape so baseline and gate measure identical fleets.
    let phones = baseline_service
        .as_ref()
        .and_then(|b| b["phones"].as_u64())
        .map(|p| p as usize)
        .unwrap_or(8);
    let trips_per_phone = baseline_service
        .as_ref()
        .and_then(|b| b["trips_per_phone"].as_u64())
        .map(|t| t as usize)
        .unwrap_or(8);

    println!(
        "bench-gate: pipeline(seed={PIPELINE_SEED}, samples={PIPELINE_SAMPLES}), \
         fleet(seed={FLEET_SEED}, trips={trips}, workers={workers}), \
         kernels(seed={KERNEL_SEED}, samples={KERNEL_SAMPLES}), \
         geo(seed={GEO_SEED}, target_km={GEO_TARGET_KM}, samples={GEO_SAMPLES}), \
         service(seed={SERVICE_SEED}, phones={phones}, trips_per_phone={trips_per_phone})"
    );
    let pipeline_run = pipeline_hotpath::run(PIPELINE_SEED, PIPELINE_SAMPLES);
    let fleet_run = fleet_bench::run(FLEET_SEED, trips, workers);
    let kernels_run = kernels::run(KERNEL_SEED, KERNEL_SAMPLES);
    let geo_run = geo_index::run(GEO_SEED, GEO_TARGET_KM, GEO_SAMPLES);
    let service_run = service_soak::run(SERVICE_SEED, phones, trips_per_phone);
    let current_pipeline = serde_json::to_value(&pipeline_run);
    let current_fleet = serde_json::to_value(&fleet_run);
    let current_kernels = serde_json::to_value(&kernels_run);
    let current_geo = serde_json::to_value(&geo_run);
    let current_service = serde_json::to_value(&service_run);

    if args.update {
        let write = |path: &Path, value: &Value| match std::fs::write(
            path,
            value.to_string_pretty() + "\n",
        ) {
            Ok(()) => {
                println!("bench-gate: wrote {}", path.display());
                true
            }
            Err(e) => {
                eprintln!("bench-gate: cannot write {}: {e}", path.display());
                false
            }
        };
        let ok = write(&pipeline_path, &current_pipeline)
            & write(&fleet_path, &current_fleet)
            & write(&kernels_path, &current_kernels)
            & write(&geo_path, &current_geo)
            & write(&service_path, &current_service);
        let history_ok = match append_history(
            &root,
            &[
                (&current_pipeline, gate::PIPELINE_METRICS),
                (&current_fleet, gate::FLEET_METRICS),
                (&current_kernels, gate::KERNEL_METRICS),
                (&current_geo, gate::GEO_METRICS),
                (&current_service, gate::SERVICE_METRICS),
            ],
        ) {
            Ok(path) => {
                println!("bench-gate: appended refresh summary to {}", path.display());
                true
            }
            Err(e) => {
                eprintln!("bench-gate: {e}");
                false
            }
        };
        return if ok && history_ok { ExitCode::SUCCESS } else { ExitCode::from(2) };
    }

    // Name each absent baseline individually: "some baseline is
    // missing" sends people hunting through five files, while the
    // actual fix is one command away.
    let absent: Vec<&Path> = [
        (&baseline_pipeline, pipeline_path.as_path()),
        (&baseline_fleet, fleet_path.as_path()),
        (&baseline_kernels, kernels_path.as_path()),
        (&baseline_geo, geo_path.as_path()),
        (&baseline_service, service_path.as_path()),
    ]
    .into_iter()
    .filter(|(doc, _)| doc.is_none())
    .map(|(_, path)| path)
    .collect();
    if !absent.is_empty() {
        for path in &absent {
            eprintln!("bench-gate: baseline {} does not exist", path.display());
        }
        eprintln!(
            "bench-gate: {n} baseline(s) missing — regenerate with\n  \
             cargo run --release -p gradest-bench --bin bench-gate -- --update\n\
             then commit the refreshed BENCH_*.json file(s)",
            n = absent.len()
        );
        return ExitCode::from(2);
    }
    let (
        Some(baseline_pipeline),
        Some(baseline_fleet),
        Some(baseline_kernels),
        Some(baseline_geo),
        Some(baseline_service),
    ) = (baseline_pipeline, baseline_fleet, baseline_kernels, baseline_geo, baseline_service)
    else {
        unreachable!("absent baselines were reported above");
    };

    let inject = if args.inject_regression {
        println!("bench-gate: --inject-regression active, tripling every current metric");
        3.0
    } else {
        1.0
    };
    let pipeline_report = gate_suite(
        "Pipeline hot path vs BENCH_pipeline.json",
        &baseline_pipeline,
        &current_pipeline,
        gate::PIPELINE_METRICS,
        args.tolerance,
        inject,
    );
    let fleet_report = gate_suite(
        "Fleet scaling vs BENCH_fleet.json",
        &baseline_fleet,
        &current_fleet,
        gate::FLEET_METRICS,
        args.tolerance,
        inject,
    );
    let kernels_report = gate_suite(
        "Kernel microbenches vs BENCH_kernels.json",
        &baseline_kernels,
        &current_kernels,
        gate::KERNEL_METRICS,
        args.tolerance,
        inject,
    );
    let geo_report = gate_suite(
        "Geo index vs BENCH_geo.json",
        &baseline_geo,
        &current_geo,
        gate::GEO_METRICS,
        args.tolerance,
        inject,
    );
    let service_report = gate_suite(
        "Ingestion service vs BENCH_service.json",
        &baseline_service,
        &current_service,
        gate::SERVICE_METRICS,
        args.tolerance,
        inject,
    );

    let failures = pipeline_report.failures()
        + fleet_report.failures()
        + kernels_report.failures()
        + geo_report.failures()
        + service_report.failures();
    if failures == 0 {
        println!("\nbench-gate: PASS — all metrics within ±{:.0}%", args.tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nbench-gate: FAIL — {failures} metric(s) regressed or missing \
             (tolerance ±{:.0}%; refresh intentional changes with --update)",
            args.tolerance * 100.0
        );
        ExitCode::FAILURE
    }
}
