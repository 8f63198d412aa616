//! Fixture facade: the caller of the used items.

pub fn drive() -> u32 {
    let summary = gradest_gears::report::summarize();
    summary.counts.up + gradest_gears::report::shift_up()
}
