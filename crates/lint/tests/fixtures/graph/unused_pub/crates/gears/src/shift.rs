/// Named only by the crate root's `pub use`: flagged.
pub struct Gearbox {
    pub ratios: Vec<f64>,
}

pub struct Ratio(pub f64);

impl Ratio {
    /// Called as `Ratio::new(..)`: not flagged.
    pub fn new(r: f64) -> Ratio {
        Ratio(r)
    }

    /// Passed as the fn pointer `.map(Ratio::from_teeth)`: not flagged.
    pub fn from_teeth(teeth: u32) -> Ratio {
        Ratio(f64::from(teeth) / 10.0)
    }

    /// Called as `.lerp(..)`: not flagged.
    pub fn lerp(&self, to: &Ratio, t: f64) -> f64 {
        self.0 + (to.0 - self.0) * t
    }

    /// Called as `.cast::<f64>()`: not flagged.
    pub fn cast<T: From<f32>>(&self) -> T {
        T::from(self.0 as f32)
    }

    /// Only a field of the same name is read (`summary.counts`), like
    /// `ServerHandle::timeseries` against `ServeConfig::timeseries`:
    /// flagged.
    pub fn counts(&self) -> u32 {
        self.0 as u32
    }

    /// Only a local of the same name exists (`let gears = ..`), like
    /// `NetworkIndex::segments`: flagged.
    pub fn gears(&self) -> u32 {
        1
    }

    /// Only another type's const of the same name is read
    /// (`Shift::ALL`), like `QualitySignal::ALL`: flagged.
    pub const ALL: [f64; 2] = [1.0, 2.0];
}
