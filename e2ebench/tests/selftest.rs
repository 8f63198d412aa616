//! Self-tests of the benchmark: short runs pass their checks and print
//! every published metric, inputs follow the seed, BUSY replies count
//! as failures, and the tile reference check catches a flipped byte.

use gradest_e2ebench::inputs::Inputs;
use gradest_e2ebench::service::{
    judge_upload, reference_tile, reference_tracks, start_ready, CallerLog, Outcome, CLIENT_TIMEOUT,
};
use gradest_e2ebench::{Workload, END_TO_END, PER_LAYER};
use gradest_obs::NoopRecorder;
use gradest_serve::client::{Client, ServerReply};
use gradest_serve::server::{start, ServeConfig};
use serde_json::Value;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The published metric lists of `BENCHMARK.json`, as `(name, unit)`.
fn published(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap_or("").to_string(),
                m["unit"].as_str().unwrap_or("").to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns its exit success, stdout
/// lines, and the parsed last line.
fn run_bench(workload: &str, seed: u64, seconds: &str, trace: &str) -> (bool, Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.last().cloned().unwrap_or_default();
    let doc: Value = serde_json::from_str(&last).expect("last line is one JSON object");
    (out.status.success(), lines, doc)
}

#[test]
fn published_lists_match_the_program() {
    let pairs = |list: &[(&str, &str)]| {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(published("end_to_end"), pairs(&END_TO_END));
    assert_eq!(published("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn short_runs_pass_checks_and_print_every_metric_with_a_unit() {
    for workload in Workload::ALL {
        for (trace, list) in [("0", published("end_to_end")), ("1", published("per_layer"))] {
            let (ok, lines, doc) = run_bench(workload.name(), 3, "1", trace);
            assert!(
                ok,
                "{} --trace {trace} exited non-zero:\n{}",
                workload.name(),
                lines.join("\n")
            );
            assert_eq!(doc["correct"].as_bool(), Some(true), "{}", lines.join("\n"));
            assert_eq!(doc["failed"].as_u64(), Some(0));
            assert!(doc["attempted"].as_u64().unwrap_or(0) >= 1);
            let metrics = doc["metrics"].as_object().expect("metrics object");
            assert_eq!(metrics.len(), list.len(), "{} --trace {trace}", workload.name());
            for (name, unit) in &list {
                let m = &doc["metrics"][name.as_str()];
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
                assert!(
                    m["value"].as_f64().is_some_and(f64::is_finite),
                    "{name} is not a finite number"
                );
                assert!(
                    lines.iter().any(|l| l.starts_with(&format!("{name} = "))),
                    "{name} not printed"
                );
            }
            if trace == "0" {
                for (name, _) in &list {
                    let value = doc["metrics"][name.as_str()]["value"].as_f64().unwrap_or(0.0);
                    assert!(value > 0.0, "{name} is zero");
                }
                assert!(
                    lines.iter().any(|l| l.contains("beyond p99")),
                    "percentile sample counts printed"
                );
                // Named end-to-end metrics printed but not bounded by
                // `BENCHMARK.json`.
                let mut printed = vec!["upload_p99_ms", "map_err_deg", "failed_frac"];
                if workload == Workload::AppSessions {
                    printed.extend(["tile_p50_ms", "tile_p99_ms"]);
                }
                for name in printed {
                    assert!(
                        lines.iter().any(|l| l.contains(&format!("{name} = "))),
                        "{name} not printed by {}",
                        workload.name()
                    );
                }
            } else {
                assert!(lines.iter().any(|l| l.starts_with("residuals:")), "residuals printed");
            }
        }
    }
}

#[test]
fn input_digest_follows_the_seed() {
    for workload in Workload::ALL {
        let a = Inputs::build(workload, 41);
        let b = Inputs::build(workload, 41);
        let c = Inputs::build(workload, 42);
        assert_eq!(a.digest, b.digest, "{}: same seed, same inputs", workload.name());
        assert_ne!(a.digest, c.digest, "{}: another seed, other inputs", workload.name());
    }
}

/// Polls `cond` for up to five seconds.
fn wait_for(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn busy_replies_count_in_failed_frac() {
    let inputs = Inputs::build(Workload::Ingest, 5);
    let cfg = ServeConfig { workers: 1, queue_depth: 1, ..Default::default() };
    let server =
        start(&cfg, "127.0.0.1:0", &inputs.net, Arc::new(NoopRecorder)).expect("bind loopback");
    let addr = server.addr();
    let epoch = Instant::now();
    let trip = &inputs.trips[0];
    let mut logs: Vec<CallerLog> = (0..3).map(|c| CallerLog::new(c, 8)).collect();
    // A holds the only worker, B waits in the one queue slot, C is
    // refused at accept.
    let mut a = logs[0].connect(addr, epoch, 0).expect("A connects");
    assert_eq!(logs[0].upload(&mut a, epoch, 0, 1, 0, trip), Outcome::Ok);
    let mut b = logs[1].connect(addr, epoch, 0).expect("B connects");
    assert!(wait_for(|| server.stats().connections == 2));
    let mut c = logs[2].connect(addr, epoch, 0).expect("C's TCP connect succeeds");
    assert!(wait_for(|| server.stats().busy_rejects == 1), "the third connection is refused");
    assert_eq!(logs[2].upload(&mut c, epoch, 0, 3, 0, trip), Outcome::Busy);
    drop(a);
    assert_eq!(logs[1].upload(&mut b, epoch, 0, 2, 0, trip), Outcome::Ok);
    let attempted: usize = logs.iter().map(|l| l.spans.len()).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    assert_eq!((attempted, failed), (6, 1));
    assert!(failed as f64 / attempted as f64 > 0.0, "failed_frac counts the BUSY reply");
    drop((b, c));
    assert!(server.shutdown().is_clean());
}

#[test]
fn judge_upload_rejects_a_wrong_echo() {
    assert_eq!(judge_upload(&Ok(ServerReply::Ack { road_id: 7 }), 7), Outcome::Ok);
    assert_eq!(judge_upload(&Ok(ServerReply::Ack { road_id: 8 }), 7), Outcome::WrongReply);
    assert_eq!(judge_upload(&Ok(ServerReply::Busy { reason: 0 }), 7), Outcome::Busy);
}

#[test]
fn flipped_tile_byte_fails_the_reference_check() {
    let inputs = Inputs::build(Workload::AppSessions, 6);
    let tracks = reference_tracks(&inputs.trips);
    let server = start_ready(&inputs.net, Arc::new(NoopRecorder)).expect("service starts");
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect");
    let mut uploads = Vec::new();
    for edge in [0usize, 1, 2, 3, 2] {
        let reply = client.upload(edge as u64, &inputs.trips[edge].log);
        assert_eq!(judge_upload(&reply, edge as u64), Outcome::Ok);
        uploads.push((edge as u64, edge));
    }
    let bounds = gradest_geo::NetworkIndex::build(&inputs.net).bounds();
    let Ok(ServerReply::Tile(mut served)) = client.tile_query(&bounds) else {
        panic!("the service answers a tile query with a tile");
    };
    let reference = reference_tile(&inputs.net, &uploads, &tracks);
    assert_eq!(served, reference, "the served map equals the replayed reference");
    let last = served.len() - 1;
    served[last] ^= 0x01;
    assert_ne!(served, reference, "one flipped byte fails the check");
    drop(client);
    assert!(server.shutdown().is_clean());
}
