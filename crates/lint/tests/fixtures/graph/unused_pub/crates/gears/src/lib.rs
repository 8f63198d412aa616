//! Fixture crate for the unused-`pub` audit.

pub mod report;
pub mod shift;

// Re-exporting an item does not use it: `Gearbox` stays unused.
pub use shift::Gearbox;
