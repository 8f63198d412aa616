//! Fixture: the warm entry point reaches a warm-shaped helper in
//! `math::lowess`, which the gated list under test leaves out — drift.
pub fn estimate_into(out: &mut [f64]) {
    gradest_math::lowess::smooth_into(out);
}
