/// Returned by the used `summarize`: not flagged.
pub struct ShiftSummary {
    pub counts: ShiftCounts,
}

/// A pub field of the rescued `ShiftSummary` names it: not flagged.
pub struct ShiftCounts {
    pub up: u32,
}

pub fn summarize() -> ShiftSummary {
    ShiftSummary { counts: ShiftCounts { up: 0 } }
}

/// Called only by this file's unit test: flagged.
pub fn only_tested() -> u32 {
    7
}

// lint:allow(unused-pub) called only from the crate's doc example
pub fn doc_example_only() -> u32 {
    1
}

// lint:allow(unused-pub) stale: the facade calls this function
pub fn shift_up() -> u32 {
    2
}

/// Imported by the facade's `use` and called bare: not flagged.
pub fn shift_down() -> u32 {
    3
}

/// Only a method of the same name is called (`.lerp(..)` on a `Ratio`),
/// like `interp::lerp` against `Vec2::lerp`: flagged.
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Only a parameter of the same name exists (`from_teeth(teeth: u32)`),
/// like `report::deg` against `deg_to_rad(deg)`: flagged.
pub fn teeth() -> u32 {
    40
}

pub enum Shift {
    Up,
    Down,
}

impl Shift {
    /// Read by the facade as `Shift::ALL`: not flagged.
    pub const ALL: [Shift; 2] = [Shift::Up, Shift::Down];
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_is_seven() {
        assert_eq!(super::only_tested(), 7);
    }
}
