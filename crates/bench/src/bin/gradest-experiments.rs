//! Runs the paper's full evaluation sequentially from one binary.
//!
//! ```text
//! cargo run --release -p gradest-bench --bin gradest-experiments           # everything
//! cargo run --release -p gradest-bench --bin gradest-experiments -- fig8  # name filter
//! ```
//!
//! Identical to running the individual bench targets; this entry point
//! exists for users who want the complete evaluation (and its JSON
//! artifacts under `target/experiment-results/`) in one command.

use gradest_bench::experiments::*;
use gradest_bench::perfbench::alloc_counter;

// Counts allocations for the hot-path benchmark's warm-trip gate.
gradest_bench::install_counting_alloc!();

fn main() {
    alloc_counter::mark_installed();
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let wants = |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));
    let mut ran = 0usize;

    let mut run_exp = |name: &str, f: &mut dyn FnMut()| {
        if wants(name) {
            println!("\n################ {name} ################");
            f();
            ran += 1;
        }
    };

    run_exp("table1_bump_features", &mut || table1::print_report(&table1::run(10)));
    run_exp("table2_vehicle_params", &mut || table2::print_report(&table2::run()));
    run_exp("table3_red_road", &mut || table3::print_report(&table3::run()));
    run_exp("fig3_4_steering_profiles", &mut || fig3_4::print_report(&fig3_4::run(40)));
    run_exp("fig5_lane_vs_scurve", &mut || fig5::print_report(&fig5::run(50)));
    run_exp("fig8a_error_comparison", &mut || {
        fig8a::print_report(&fig8a::run_averaged(&[11, 12, 13]))
    });
    run_exp("fig8b_track_fusion_cdf", &mut || fig8b::print_report(&fig8b::run(21)));
    run_exp("fig9_network", &mut || {
        let r = fig9::run(&fig9::Fig9Config::default());
        fig9::print_report_map(&r);
        fig9::print_report_cdf(&r);
    });
    run_exp("fig10_maps", &mut || {
        let r = fig10::run(42);
        fig10::print_report_fuel(&r);
        fig10::print_report_co2(&r);
    });
    run_exp("headline_fuel_delta", &mut || headline_fuel::print_report(&headline_fuel::run(42)));
    run_exp("motivating_factors", &mut || motivating::print_report(&motivating::run()));
    run_exp("lane_change_accuracy", &mut || {
        lane_accuracy::print_report(&lane_accuracy::run(8, 700))
    });
    run_exp("ablation_gravity_term", &mut || {
        ablations::print_report_gravity(&ablations::run_gravity(31))
    });
    run_exp("ablation_lane_correction", &mut || {
        ablations::print_report_lane(&ablations::run_lane_correction(33))
    });
    run_exp("ablation_rts_smoothing", &mut || ablations::print_report_rts(&ablations::run_rts(31)));
    run_exp("extended_baselines", &mut || extended::print_report(&extended::run(11)));
    run_exp("fleet_scaling", &mut || {
        let workers =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 4);
        fleet_bench::print_report(&fleet_bench::run(900, 16, workers))
    });
    run_exp("pipeline_hotpath", &mut || {
        pipeline_hotpath::print_report(&pipeline_hotpath::run(77, 5))
    });
    run_exp("kernel_microbench", &mut || kernels::print_report(&kernels::run(77, 5)));
    run_exp("geo_index", &mut || geo_index::print_report(&geo_index::run(77, 200.0, 3)));
    run_exp("service_soak", &mut || service_soak::print_report(&service_soak::run(77, 8, 8)));

    // CI smoke gate: exact-name only, so plain `pipeline_hotpath` runs
    // don't trigger it. One trip, and the warm path must not allocate —
    // with or without a live recorder, which must also reproduce the
    // plain estimate bit for bit.
    if filter.iter().any(|f| f == "pipeline_hotpath_smoke") {
        println!("\n################ pipeline_hotpath_smoke ################");
        let r = pipeline_hotpath::run(77, 1);
        assert_eq!(r.allocs_per_trip_warm, Some(0), "warm estimation path allocated");
        assert_eq!(
            r.allocs_per_trip_warm_recorded,
            Some(0),
            "recorded warm estimation path allocated"
        );
        assert_eq!(
            r.allocs_per_trip_warm_traced,
            Some(0),
            "warm estimation path with a live trace ring allocated"
        );
        assert!(r.fast_vs_generic_max_abs_diff < 1e-12, "fast LOWESS path diverged");
        assert!(r.warm_bit_identical, "warm scratch broke bit-identity");
        assert!(r.recorded_bit_identical, "recorder changed the estimate");
        assert!(r.traced_bit_identical, "trace ring changed the estimate");
        assert_eq!(
            r.allocs_per_trip_warm_timeseries,
            Some(0),
            "warm estimation path with a live time-series ring allocated"
        );
        assert!(r.timeseries_bit_identical, "time-series ring changed the estimate");
        assert!(r.trace_overflow_dropped > 0, "overflowing ring did not count drops");
        pipeline_hotpath::print_report(&r);
        ran += 1;
    }

    // Spatial-index smoke gate: exact-name only. A country-scale
    // network (≥ 10⁵ segments) where the packed tree must beat the
    // brute-force oracle ≥ 10x at identical answers, with zero heap
    // allocations per warm query.
    if filter.iter().any(|f| f == "geo_index_smoke") {
        println!("\n################ geo_index_smoke ################");
        let r = geo_index::run(77, 1000.0, 1);
        assert!(r.segments >= 100_000, "expected >= 1e5 segments, got {}", r.segments);
        assert!(r.nearest_matches_oracle, "indexed nearest diverged from brute force");
        assert!(
            r.nearest_speedup_vs_oracle >= 10.0,
            "index only {:.1}x faster than linear scan",
            r.nearest_speedup_vs_oracle
        );
        assert_eq!(r.allocs_per_query_warm, Some(0), "warm nearest query allocated");
        geo_index::print_report(&r);
        ran += 1;
    }

    // Ingestion-service smoke gate: exact-name only. 64 simulated
    // phones over loopback must sustain >= 500 trips/s into the
    // service, tiles served over the wire must be bit-identical to
    // direct aggregation, ~2x overload must answer typed BUSY rejects
    // with every client terminating, the drain must complete cleanly
    // (including one raced by a live uploader), the warm
    // decode → estimate window must not allocate (with the live
    // time-series recorder wired in), healthy traffic must stay
    // drift-free with STATUS quantiles inside the sketch bound, and
    // degraded sensors must trip a quality alert within the deadline.
    if filter.iter().any(|f| f == "service_soak_smoke") {
        println!("\n################ service_soak_smoke ################");
        let r = service_soak::run(77, 64, 3);
        assert!(
            r.sustained_trips_per_sec >= 500.0,
            "service sustained only {:.0} trips/s",
            r.sustained_trips_per_sec
        );
        assert!(r.tiles_bit_identical, "served tiles diverged from direct aggregation");
        assert_eq!(r.uploads_acked, r.trips_total as u64, "service dropped uploads");
        assert_eq!(r.frames_rejected, 0, "well-formed fleet saw rejects");
        assert!(r.overload_busy_rejects > 0, "overload produced no BUSY rejects");
        assert!(r.overload_clients_finished, "an overloaded client wedged");
        assert!(r.drain_clean, "shutdown left uploads in flight");
        assert!(r.prometheus_valid, "METRICS frame failed the Prometheus grammar check");
        assert_eq!(r.allocs_per_frame_warm, Some(0), "warm decode->estimate window allocated");
        assert!(r.status_healthy_drift_free, "drift alert false-positive during healthy traffic");
        assert!(
            r.status_quantiles_in_bounds,
            "STATUS latency quantiles left the sketch error bound"
        );
        assert!(
            r.drift_alert_fired,
            "degraded sensors raised no drift alert within the deadline \
             ({:.1} windows elapsed)",
            r.alert_latency_windows
        );
        service_soak::print_report(&r);
        ran += 1;
    }

    if ran == 0 {
        eprintln!("no experiment matches filter {filter:?}");
        std::process::exit(1);
    }
    println!("\n{ran} experiment group(s) complete.");
}
