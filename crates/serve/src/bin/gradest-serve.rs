//! `gradest-serve` — run the crowd ingestion service on a TCP port.
//!
//! ```text
//! gradest-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!               [--grid-ds METRES] [--network-seed SEED]
//! ```
//!
//! Serves the synthetic city network for `--network-seed` (clients
//! upload trips under its edge ids and query fused tiles by bbox),
//! prints the bound address, and runs until stdin reaches EOF or
//! carries a line — then drains in-flight uploads and prints the final
//! counters plus the Prometheus exposition.

use gradest_geo::generate::city_network;
use gradest_obs::RunRecorder;
use gradest_serve::server::{start, ServeConfig};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: gradest-serve [--addr HOST:PORT] [--workers N] [--queue-depth N] \
         [--grid-ds METRES] [--network-seed SEED]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(raw) = args.next() else {
        eprintln!("missing value for {flag}");
        usage();
    };
    let Ok(value) = raw.parse::<T>() else {
        eprintln!("bad value {raw:?} for {flag}");
        usage();
    };
    value
}

fn main() {
    let mut addr = String::from("127.0.0.1:4650");
    let mut cfg = ServeConfig::default();
    let mut network_seed = 7u64;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse(&mut args, "--addr"),
            "--workers" => cfg.workers = parse(&mut args, "--workers"),
            "--queue-depth" => cfg.queue_depth = parse(&mut args, "--queue-depth"),
            "--grid-ds" => cfg.grid_ds = parse(&mut args, "--grid-ds"),
            "--network-seed" => network_seed = parse(&mut args, "--network-seed"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }

    let net = city_network(network_seed);
    let rec = Arc::new(RunRecorder::new());
    let server = match start(&cfg, &addr, &net, Arc::clone(&rec)) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("failed to start on {addr}: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "gradest-serve listening on {} ({} workers, queue depth {}, network seed {}, {} edges)",
        server.addr(),
        cfg.workers,
        cfg.queue_depth,
        network_seed,
        net.edge_count()
    );
    println!("press Enter (or close stdin) to drain and stop");

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);

    let report = server.shutdown();
    println!(
        "drained: in-flight {} -> {} ({})",
        report.in_flight_at_stop,
        report.in_flight_after,
        if report.is_clean() { "clean" } else { "DIRTY" }
    );
    println!(
        "served: {} connections, {} frames ok, {} rejected, {} busy, {} uploads, {} tile queries",
        report.stats.connections,
        report.stats.frames_ok,
        report.stats.frames_rejected,
        report.stats.busy_rejects,
        report.stats.uploads_acked,
        report.stats.tile_queries
    );
    print!("{}", rec.report().render());
}
