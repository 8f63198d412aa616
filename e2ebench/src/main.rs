//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable lines, then one JSON
//! object as the last line of standard output. Exits 0 when every
//! correctness check passed, 1 when one failed, 2 on a usage or I/O
//! error (without printing a result).

use gradest_e2ebench::{run, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: e2ebench --workload <ingest|app_sessions|city_batch> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let value = pair.get(1).map(String::as_str).unwrap_or("");
        match pair[0].as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value, "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let report = match run(workload, seed, seconds, traced) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let expected = if traced { &PER_LAYER[..] } else { &END_TO_END[..] };
    let names: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if names != expected {
        eprintln!("error: reported metrics {names:?} differ from the published list {expected:?}");
        return ExitCode::from(2);
    }
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
