//! Pollutant emission factors (paper Section III-E).
//!
//! Vehicle emissions are proportional to fuel burned:
//! `m_emission = F · V_fuel`, with `F = 8 908 g/gal` for CO₂ and
//! `0.084 g/gal` for PM2.5.

use serde::{Deserialize, Serialize};

/// A pollutant species with a per-gallon emission factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Species {
    /// Carbon dioxide.
    Co2,
    /// Fine particulate matter (≤2.5 µm).
    Pm25,
}

impl Species {
    /// Emission factor `F` in grams per gallon of gasoline burned.
    fn grams_per_gallon(self) -> f64 {
        match self {
            Species::Co2 => 8908.0,
            Species::Pm25 => 0.084,
        }
    }

    /// Emission mass in grams from `fuel_gal` gallons burned.
    pub fn emission_g(self, fuel_gal: f64) -> f64 {
        self.grams_per_gallon() * fuel_gal
    }

    /// Emission mass in metric tons from `fuel_gal` gallons burned.
    pub fn emission_tons(self, fuel_gal: f64) -> f64 {
        self.emission_g(fuel_gal) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_factors() {
        assert_eq!(Species::Co2.grams_per_gallon(), 8908.0);
        assert_eq!(Species::Pm25.grams_per_gallon(), 0.084);
    }

    #[test]
    fn emission_scales_linearly() {
        assert_eq!(Species::Co2.emission_g(2.0), 17_816.0);
        assert!((Species::Co2.emission_tons(1.0) - 8.908e-3).abs() < 1e-12);
        assert!((Species::Pm25.emission_g(10.0) - 0.84).abs() < 1e-12);
    }

    #[test]
    fn zero_fuel_zero_emission() {
        assert_eq!(Species::Co2.emission_g(0.0), 0.0);
        assert_eq!(Species::Pm25.emission_tons(0.0), 0.0);
    }
}
