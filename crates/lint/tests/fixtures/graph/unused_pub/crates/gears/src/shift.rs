/// Named only by the crate root's `pub use`: flagged.
pub struct Gearbox {
    pub ratios: Vec<f64>,
}
