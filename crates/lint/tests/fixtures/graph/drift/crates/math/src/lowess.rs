//! Fixture: warm-shaped helper in a module absent from the gated list.
pub fn smooth_into(out: &mut [f64]) {
    for x in out.iter_mut() {
        *x *= 0.5;
    }
}
