//! Property-based tests for the numeric kernels.

use gradest_math::angle::{angle_diff, wrap_pi, wrap_two_pi};
use gradest_math::lowess::{detect_uniform_step, lowess, lowess_reference};
use gradest_math::signal::{cumsum_scaled, integrate_cumulative, moving_average};
use gradest_math::stats::{mean, percentile, EmpiricalCdf};
use gradest_math::{DMatrix, Mat2, Mat3, Vec2};
use proptest::prelude::*;
use std::f64::consts::PI;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

fn small_f64() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

proptest! {
    #[test]
    fn wrap_pi_is_in_range(a in -1e4..1e4f64) {
        let w = wrap_pi(a);
        prop_assert!(w > -PI - 1e-9 && w <= PI + 1e-9);
        // Wrapping preserves the angle modulo 2π.
        prop_assert!(((a - w) / (2.0 * PI)).rem_euclid(1.0) < 1e-6
            || ((a - w) / (2.0 * PI)).rem_euclid(1.0) > 1.0 - 1e-6);
    }

    #[test]
    fn wrap_two_pi_is_in_range(a in -1e4..1e4f64) {
        let w = wrap_two_pi(a);
        prop_assert!((0.0..2.0 * PI + 1e-9).contains(&w));
    }

    #[test]
    fn angle_diff_antisymmetric(a in -10.0..10.0f64, b in -10.0..10.0f64) {
        let d1 = angle_diff(a, b);
        let d2 = angle_diff(b, a);
        // d1 = -d2 modulo the π boundary case.
        prop_assert!((wrap_pi(d1 + d2)).abs() < 1e-9);
    }

    #[test]
    fn vec2_rotation_preserves_norm(x in small_f64(), y in small_f64(), ang in -10.0..10.0f64) {
        let v = Vec2::new(x, y);
        prop_assert!((v.rotated(ang).norm() - v.norm()).abs() < 1e-7);
    }

    #[test]
    fn mat2_inverse_round_trips(
        a in 0.5..5.0f64, b in -2.0..2.0f64, c in -2.0..2.0f64, d in 0.5..5.0f64
    ) {
        let m = Mat2::new(a, b, c, d);
        prop_assume!(m.det().abs() > 1e-6);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        prop_assert!((id.m[0][0] - 1.0).abs() < 1e-8);
        prop_assert!((id.m[1][1] - 1.0).abs() < 1e-8);
        prop_assert!(id.m[0][1].abs() < 1e-8);
        prop_assert!(id.m[1][0].abs() < 1e-8);
    }

    #[test]
    fn mat3_inverse_round_trips(seed in 0u64..1000) {
        // Diagonally dominant matrices are always invertible.
        let mut vals = [[0.0; 3]; 3];
        let mut s = seed;
        for row in vals.iter_mut() {
            for v in row.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = ((s >> 33) as f64 / u32::MAX as f64) - 0.5;
            }
        }
        for (i, row) in vals.iter_mut().enumerate() {
            row[i] += 3.0;
        }
        let m = Mat3::from_rows(vals[0], vals[1], vals[2]);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((id.m[i][j] - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn dmatrix_inverse_round_trips(n in 1usize..6, seed in 0u64..500) {
        let mut s = seed;
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                m[(i, j)] = ((s >> 33) as f64 / u32::MAX as f64) - 0.5;
            }
            m[(i, i)] += n as f64; // diagonal dominance => invertible
        }
        let inv = m.inverse().unwrap();
        let id = m.matmul(&inv).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((id[(i, j)] - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn cholesky_reconstructs_spd(n in 1usize..6, seed in 0u64..500) {
        // Build SPD as B·Bᵀ + n·I.
        let mut s = seed;
        let mut b = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b[(i, j)] = ((s >> 33) as f64 / u32::MAX as f64) - 0.5;
            }
        }
        let mut spd = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            spd[(i, i)] += n as f64;
        }
        let l = spd.cholesky().unwrap();
        let recon = l.matmul(&l.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((recon[(i, j)] - spd[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn lowess_output_within_data_envelope(
        ys in prop::collection::vec(finite_f64(), 3..60),
        frac in 0.1..1.0f64
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let out = lowess(&xs, &ys, frac).unwrap();
        let lo = ys.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ys.iter().cloned().fold(f64::MIN, f64::max);
        let slack = 0.5 * (hi - lo).max(1e-9);
        // Local linear fits can overshoot slightly but never wildly.
        for v in out {
            prop_assert!(v >= lo - slack && v <= hi + slack, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn lowess_idempotent_on_linear(slope in -5.0..5.0f64, intercept in -10.0..10.0f64) {
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let out = lowess(&xs, &ys, 0.3).unwrap();
        for (o, y) in out.iter().zip(&ys) {
            prop_assert!((o - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cdf_quantile_and_probability_are_inverse_like(
        samples in prop::collection::vec(finite_f64(), 1..100),
        p in 0.01..1.0f64
    ) {
        let cdf = EmpiricalCdf::new(&samples).unwrap();
        let q = cdf.value_at(p);
        // At least fraction p of samples are <= q.
        prop_assert!(cdf.probability_below(q) + 1e-12 >= p);
    }

    #[test]
    fn percentile_bounded_by_extremes(
        samples in prop::collection::vec(finite_f64(), 1..50),
        p in 0.0..100.0f64
    ) {
        let v = percentile(&samples, p).unwrap();
        let lo = samples.iter().cloned().fold(f64::MAX, f64::min);
        let hi = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn mean_is_translation_equivariant(
        samples in prop::collection::vec(small_f64(), 1..50),
        shift in small_f64()
    ) {
        let m1 = mean(&samples).unwrap();
        let shifted: Vec<f64> = samples.iter().map(|s| s + shift).collect();
        let m2 = mean(&shifted).unwrap();
        prop_assert!((m2 - (m1 + shift)).abs() < 1e-9);
    }

    #[test]
    fn integration_is_linear(
        ys in prop::collection::vec(small_f64(), 2..50),
        scale in 0.1..10.0f64
    ) {
        let a = integrate_cumulative(&ys, 0.1, 0.0).unwrap();
        let scaled: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let b = integrate_cumulative(&scaled, 0.1, 0.0).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((y - x * scale).abs() < 1e-7);
        }
    }

    #[test]
    fn cumsum_final_value_is_total(
        ys in prop::collection::vec(small_f64(), 1..50),
        dt in 0.01..1.0f64
    ) {
        let out = cumsum_scaled(&ys, dt, 0.0).unwrap();
        let total: f64 = ys.iter().sum::<f64>() * dt;
        prop_assert!((out.last().unwrap() - total).abs() < 1e-7);
    }

    #[test]
    fn moving_average_preserves_mean_of_constant(
        c in small_f64(),
        n in 1usize..50,
        half in 0usize..5
    ) {
        let ys = vec![c; n];
        let out = moving_average(&ys, half).unwrap();
        for v in out {
            prop_assert!((v - c).abs() < 1e-9);
        }
    }

    #[test]
    fn lowess_uniform_fast_path_matches_generic(
        ys in prop::collection::vec(-100.0..100.0f64, 8..200),
        x0 in 0i32..100,
        mantissa in 1i32..16,
        exponent in -7i32..1,
        frac in 0.05..1.0f64,
    ) {
        // Dyadic steps make the grid exactly uniform in f64, so the
        // detector must fire and the fast path must agree with the
        // generic reference within 1e-12.
        let dt = mantissa as f64 * 2f64.powi(exponent);
        let xs: Vec<f64> = (0..ys.len()).map(|i| x0 as f64 + i as f64 * dt).collect();
        prop_assert!(detect_uniform_step(&xs).is_some());
        let fast = lowess(&xs, &ys, frac).unwrap();
        let generic = lowess_reference(&xs, &ys, frac).unwrap();
        for (f, g) in fast.iter().zip(&generic) {
            prop_assert!((f - g).abs() < 1e-12, "fast {f} vs generic {g}");
        }
    }

    #[test]
    fn lowess_jittered_grid_uses_generic_path(
        ys in prop::collection::vec(-10.0..10.0f64, 8..100),
        jitter_scale in 0.05..0.4f64,
        frac in 0.1..1.0f64,
    ) {
        // Jitter far above the uniformity tolerance: detection must
        // refuse, and the auto path must equal the generic reference
        // bit for bit (proving the fallback really runs the generic fit).
        let n = ys.len();
        let xs: Vec<f64> = (0..n)
            .map(|i| i as f64 * 0.02 + jitter_scale * 0.02 * ((i * 7919 % 17) as f64 / 17.0))
            .collect();
        prop_assert!(detect_uniform_step(&xs).is_none());
        let auto = lowess(&xs, &ys, frac).unwrap();
        let generic = lowess_reference(&xs, &ys, frac).unwrap();
        prop_assert_eq!(auto, generic);
    }
}
