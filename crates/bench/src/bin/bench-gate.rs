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
//! `--update` runs every suite three times in rounds (every suite once,
//! then every suite again, …), so the other suites' runtime separates
//! one suite's runs, and writes each suite's run nearest the per-row
//! medians (`gate::nearest_to_median`): neither one lucky run nor one
//! fast stretch of the host sets a baseline. It takes three times as
//! long as a gate run. Every `--update` also appends one compact
//! JSON line (timestamp, git commit, all gated metrics of the kept
//! runs) to `BENCH_HISTORY.jsonl` at the repository root — commit it alongside the refreshed baselines so
//! the perf trajectory across refreshes stays in one greppable file.
//! The commit is read before anything is written and carries a
//! `-dirty` suffix when tracked files differ from it, so a refresh
//! measured on an uncommitted change is not credited to its parent.
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

/// Rounds of runs across all suites a baseline refresh measures before
/// it keeps each suite's run nearest the per-row medians.
const UPDATE_RUNS: usize = 3;

// The hot-path benchmark can only record `allocs_per_trip_warm*` when
// the process counts allocations, and the committed baseline must carry
// the measured zeros.
gradest_bench::install_counting_alloc!();

/// One gated experiment: its committed baseline file, the title of its
/// delta table, the metrics it gates, and how to run it. When gating,
/// `run` gets the committed baseline, so a suite replays the baseline's
/// workload shape; a refresh (`--update`) gets `None`, so the new
/// baseline measures the suite's defaults on this host.
struct Suite {
    file: &'static str,
    title: &'static str,
    specs: &'static [MetricSpec],
    run: fn(Option<&Value>) -> Value,
}

/// A `usize` field of a committed baseline, if present.
fn baseline_usize(baseline: Option<&Value>, key: &str) -> Option<usize> {
    baseline.and_then(|b| b[key].as_u64()).map(|v| v as usize)
}

/// The gated suites, in table order. Seeds and sample counts mirror the
/// `gradest-experiments` binary, so a baseline and the gate measure the
/// identical workload.
const SUITES: [Suite; 5] = [
    Suite {
        file: "BENCH_pipeline.json",
        title: "Pipeline hot path",
        specs: gate::PIPELINE_METRICS,
        run: |_| {
            let (seed, samples) = (77, 5);
            println!("bench-gate: pipeline(seed={seed}, samples={samples})");
            serde_json::to_value(&pipeline_hotpath::run(seed, samples))
        },
    },
    Suite {
        file: "BENCH_fleet.json",
        title: "Fleet scaling",
        specs: gate::FLEET_METRICS,
        run: |baseline| {
            // Replay the baseline's trips and workers; a refresh takes
            // the experiment binary's defaults, with one worker per CPU
            // up to four.
            let seed = 900;
            let trips = baseline_usize(baseline, "trips").unwrap_or(16);
            let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let workers = baseline_usize(baseline, "workers")
                .unwrap_or_else(|| cpus.clamp(1, 4))
                .clamp(1, cpus.max(1));
            println!("bench-gate: fleet(seed={seed}, trips={trips}, workers={workers})");
            serde_json::to_value(&fleet_bench::run(seed, trips, workers))
        },
    },
    Suite {
        file: "BENCH_kernels.json",
        title: "Kernel microbenches",
        specs: gate::KERNEL_METRICS,
        run: |_| {
            let (seed, samples) = (77, 5);
            println!("bench-gate: kernels(seed={seed}, samples={samples})");
            serde_json::to_value(&kernels::run(seed, samples))
        },
    },
    Suite {
        file: "BENCH_geo.json",
        title: "Geo index",
        specs: gate::GEO_METRICS,
        run: |_| {
            // A 200 km country network keeps the gate fast while still
            // exercising the packed-tree traversal depth.
            let (seed, target_km, samples) = (77, 200.0, 3);
            println!("bench-gate: geo(seed={seed}, target_km={target_km}, samples={samples})");
            serde_json::to_value(&geo_index::run(seed, target_km, samples))
        },
    },
    Suite {
        file: "BENCH_service.json",
        title: "Ingestion service",
        specs: gate::SERVICE_METRICS,
        run: |baseline| {
            // Replay the baseline's fleet shape. The defaults keep the
            // gate's soak a fraction of the CI smoke's 64-phone run while
            // exercising the same concurrent decode → estimate → fuse
            // path.
            let seed = 77;
            let phones = baseline_usize(baseline, "phones").unwrap_or(8);
            let trips_per_phone = baseline_usize(baseline, "trips_per_phone").unwrap_or(8);
            println!(
                "bench-gate: service(seed={seed}, phones={phones}, \
                 trips_per_phone={trips_per_phone})"
            );
            serde_json::to_value(&service_soak::run(seed, phones, trips_per_phone))
        },
    },
];

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

/// The commit a refresh measures: `git rev-parse --short HEAD`, with
/// `-dirty` appended when a tracked file differs from HEAD, or `null`
/// outside a git checkout. Read before the refresh writes anything, so
/// the new baselines themselves never mark the tree dirty.
fn commit_stamp(root: &Path) -> Value {
    let git =
        |args: &[&str]| std::process::Command::new("git").args(args).current_dir(root).output();
    let Some(sha) = git(&["rev-parse", "--short", "HEAD"])
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
    else {
        return Value::Null;
    };
    // `git diff --quiet` exits 1 exactly when the tracked files differ.
    let dirty =
        git(&["diff", "--quiet", "HEAD", "--"]).is_ok_and(|out| out.status.code() == Some(1));
    Value::String(format!("{}{}", sha.trim(), if dirty { "-dirty" } else { "" }))
}

/// Appends one compact JSON line summarising a baseline refresh to the
/// committed `BENCH_HISTORY.jsonl`: a unix timestamp, the `commit`
/// stamp, and every gated metric's measured value in nanoseconds. One
/// object per `--update`, newest last, so the machine's perf trajectory
/// stays greppable from the repository itself without spelunking git
/// history of the full BENCH_*.json documents.
fn append_history(root: &Path, commit: Value, current: &[Value]) -> Result<PathBuf, String> {
    let mut metrics = Map::new();
    for (suite, doc) in SUITES.iter().zip(current) {
        for (name, value) in gate::extract(doc, suite.specs) {
            metrics.insert(name, value.map(Value::from).unwrap_or(Value::Null));
        }
    }
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .map_err(|e| format!("system clock before the unix epoch: {e}"))?;
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

/// Runs every suite at its defaults in [`UPDATE_RUNS`] rounds (round 1
/// of every suite, then round 2, …) and returns, per suite in table
/// order, the run nearest the per-row medians of its gated metrics.
fn refresh_runs() -> Vec<Value> {
    let mut runs: Vec<Vec<Value>> = SUITES.iter().map(|_| Vec::new()).collect();
    for _ in 0..UPDATE_RUNS {
        for (suite, suite_runs) in SUITES.iter().zip(&mut runs) {
            suite_runs.push((suite.run)(None));
        }
    }
    SUITES
        .iter()
        .zip(runs)
        .map(|(suite, mut suite_runs)| {
            let rows: Vec<_> =
                suite_runs.iter().map(|run| gate::extract(run, suite.specs)).collect();
            let keep = gate::nearest_to_median(&rows);
            println!(
                "bench-gate: {} keeps round {} of {UPDATE_RUNS}, the nearest the per-row medians",
                suite.file,
                keep + 1
            );
            suite_runs.swap_remove(keep)
        })
        .collect()
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
    let mut baselines = Vec::with_capacity(SUITES.len());
    for suite in &SUITES {
        match load_baseline(&root.join(suite.file)) {
            Ok(doc) => baselines.push(doc),
            Err(e) => eprintln!("bench-gate: {e}"),
        }
    }
    if baselines.len() < SUITES.len() {
        return ExitCode::from(2);
    }

    // Name each absent baseline individually: "some baseline is
    // missing" sends people hunting through five files, while the
    // actual fix is one command away.
    let absent: Vec<PathBuf> = SUITES
        .iter()
        .zip(&baselines)
        .filter(|(_, doc)| doc.is_none())
        .map(|(suite, _)| root.join(suite.file))
        .collect();
    if !args.update && !absent.is_empty() {
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

    let commit = commit_stamp(&root);
    let current: Vec<Value> = if args.update {
        refresh_runs()
    } else {
        SUITES.iter().zip(&baselines).map(|(suite, doc)| (suite.run)(doc.as_ref())).collect()
    };

    if args.update {
        let mut ok = true;
        for (suite, value) in SUITES.iter().zip(&current) {
            let path = root.join(suite.file);
            match std::fs::write(&path, value.to_string_pretty() + "\n") {
                Ok(()) => println!("bench-gate: wrote {}", path.display()),
                Err(e) => {
                    eprintln!("bench-gate: cannot write {}: {e}", path.display());
                    ok = false;
                }
            }
        }
        match append_history(&root, commit, &current) {
            Ok(path) => println!("bench-gate: appended refresh summary to {}", path.display()),
            Err(e) => {
                eprintln!("bench-gate: {e}");
                ok = false;
            }
        }
        return if ok { ExitCode::SUCCESS } else { ExitCode::from(2) };
    }

    let inject = if args.inject_regression {
        println!("bench-gate: --inject-regression active, tripling every current metric");
        3.0
    } else {
        1.0
    };
    // No baseline is absent here (checked above), so `flatten` keeps
    // all five in table order.
    let mut failures = 0;
    for ((suite, baseline), current) in SUITES.iter().zip(baselines.iter().flatten()).zip(&current)
    {
        let title = format!("{} vs {}", suite.title, suite.file);
        failures +=
            gate_suite(&title, baseline, current, suite.specs, args.tolerance, inject).failures();
    }
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
