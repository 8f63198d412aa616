//! Fixture facade: the caller of the used items.

use gradest_gears::report::shift_down;
use gradest_gears::report::Shift;
use gradest_gears::shift::Ratio;

pub fn drive() -> u32 {
    let summary = gradest_gears::report::summarize();
    summary.counts.up + gradest_gears::report::shift_up() + shift_down()
}

pub fn ratios() -> f64 {
    let gears = Shift::ALL.len() as f64;
    let low = Ratio::new(2.0);
    let top = Some(20).map(Ratio::from_teeth).map_or(1.0, |r| r.0);
    low.lerp(&Ratio(top), 0.5) * gears + low.cast::<f64>()
}
