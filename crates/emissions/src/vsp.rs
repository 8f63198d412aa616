//! The Vehicle Specific Power fuel-consumption model (paper Eq 7,
//! Table II).
//!
//! ```text
//! Γ = (1/GGE)·(A·v³ + B·m·v·sinθ + C·m·v + m·a·v + D·m·a)   [gallon/hour]
//! ```
//!
//! with `v` in m/s, `a` in m/s², `θ` the road gradient, and `m` the gross
//! vehicle weight in megagrams (Table II lists `m = 1.479`).

use serde::{Deserialize, Serialize};

/// The Eq (7) fuel model with Table II coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuelModel {
    /// Gasoline gallon equivalent divisor (Table II: 0.0545).
    pub gge: f64,
    /// Aerodynamic coefficient `A` (Table II: 4.7887).
    pub a: f64,
    /// Gradient coefficient `B` (Table II: 21.2903).
    pub b: f64,
    /// Rolling coefficient `C` (Table II: 0.3925).
    pub c: f64,
    /// Acceleration coefficient `D` (Table II: 3.6000).
    pub d: f64,
    /// Gross vehicle weight in Mg (Table II: 1.479).
    pub mass_mg: f64,
    /// Idle floor, gallon/hour: the engine never burns less than this
    /// (Eq 7 goes negative on steep downhills, where a real engine cuts
    /// fuel to idle).
    pub idle_floor_gph: f64,
}

impl Default for FuelModel {
    fn default() -> Self {
        FuelModel {
            gge: 0.0545,
            a: 4.7887,
            b: 21.2903,
            c: 0.3925,
            d: 3.6000,
            mass_mg: 1.479,
            idle_floor_gph: 0.16,
        }
    }
}

impl FuelModel {
    /// Raw Eq (7) evaluation in gallon/hour (may be negative downhill).
    ///
    /// Unit reconciliation (documented in DESIGN.md): the bracket is
    /// engine power in kW with `m` in Mg — which requires Table II's `A`
    /// to carry its standard-VSP scale of 10⁻⁴ (the standard aerodynamic
    /// VSP coefficient is `0.000302·m ≈ 4.5e-4` for this vehicle, matching
    /// `A×10⁻⁴`). `GGE = 0.0545` is then gallons per kWh-equivalent
    /// (1/18.35 kWh per gallon at realistic engine efficiency), so
    /// `Γ = GGE · P_kW`.
    fn fuel_rate_raw_gph(&self, v_mps: f64, a_mps2: f64, theta_rad: f64) -> f64 {
        let v = v_mps;
        let m = self.mass_mg;
        let power_kw = self.a * 1e-4 * v.powi(3)
            + self.b * m * v * theta_rad.sin()
            + self.c * m * v
            + m * a_mps2 * v
            + self.d * m * a_mps2;
        self.gge * power_kw
    }

    /// Fuel rate in gallon/hour, floored at the idle rate.
    pub fn fuel_rate_gph(&self, v_mps: f64, a_mps2: f64, theta_rad: f64) -> f64 {
        self.fuel_rate_raw_gph(v_mps, a_mps2, theta_rad).max(self.idle_floor_gph)
    }

    /// Fuel per kilometre (gallon/km) at steady speed on a gradient.
    ///
    /// # Panics
    ///
    /// Panics if `v_mps <= 0`.
    pub fn fuel_per_km(&self, v_mps: f64, a_mps2: f64, theta_rad: f64) -> f64 {
        assert!(v_mps > 0.0, "speed must be positive");
        let v_kmh = v_mps * 3.6;
        self.fuel_rate_gph(v_mps, a_mps2, theta_rad) / v_kmh
    }

    /// Integrates fuel over a trip described by `(dt, v, a, θ)` samples,
    /// returning total gallons.
    pub fn trip_fuel_gal<'a>(
        &self,
        samples: impl IntoIterator<Item = &'a (f64, f64, f64, f64)>,
    ) -> f64 {
        samples.into_iter().map(|&(dt, v, a, th)| self.fuel_rate_gph(v, a, th) * dt / 3600.0).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FuelModel {
        FuelModel::default()
    }

    #[test]
    fn table_ii_parameters() {
        let m = model();
        assert_eq!(m.gge, 0.0545);
        assert_eq!(m.a, 4.7887);
        assert_eq!(m.b, 21.2903);
        assert_eq!(m.c, 0.3925);
        assert_eq!(m.d, 3.6000);
        assert_eq!(m.mass_mg, 1.479);
    }

    #[test]
    fn cruise_consumption_is_plausible() {
        // 40 km/h steady on flat ground: on the order of 0.5–1.5 gal/h
        // (a mid-size sedan at city speed burns roughly 1 gal/h).
        let g = model().fuel_rate_gph(40.0 / 3.6, 0.0, 0.0);
        assert!((0.2..2.0).contains(&g), "Γ = {g} gal/h");
    }

    #[test]
    fn gradient_increases_fuel_substantially() {
        // The paper's motivating studies: +40 % or more from 0° to 5°.
        let m = model();
        let v = 40.0 / 3.6;
        let flat = m.fuel_rate_gph(v, 0.0, 0.0);
        let hill = m.fuel_rate_gph(v, 0.0, 5.0f64.to_radians());
        assert!(hill / flat > 1.4, "ratio {}", hill / flat);
    }

    #[test]
    fn downhill_floors_at_idle() {
        let m = model();
        let v = 40.0 / 3.6;
        let raw = m.fuel_rate_raw_gph(v, 0.0, -5.0f64.to_radians());
        assert!(raw < m.idle_floor_gph);
        assert_eq!(m.fuel_rate_gph(v, 0.0, -5.0f64.to_radians()), m.idle_floor_gph);
    }

    #[test]
    fn acceleration_costs_fuel() {
        let m = model();
        let v = 15.0;
        assert!(m.fuel_rate_gph(v, 1.0, 0.0) > m.fuel_rate_gph(v, 0.0, 0.0));
    }

    #[test]
    fn fuel_per_km_consistency() {
        let m = model();
        let v = 50.0 / 3.6;
        let per_km = m.fuel_per_km(v, 0.0, 0.01);
        let per_h = m.fuel_rate_gph(v, 0.0, 0.01);
        assert!((per_km * 50.0 - per_h).abs() < 1e-12);
    }

    #[test]
    fn trip_fuel_integration() {
        let m = model();
        // One hour at constant state = rate · 1 h.
        let samples: Vec<(f64, f64, f64, f64)> =
            (0..3600).map(|_| (1.0, 12.0, 0.0, 0.02)).collect();
        let total = m.trip_fuel_gal(&samples);
        let rate = m.fuel_rate_gph(12.0, 0.0, 0.02);
        assert!((total - rate).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn fuel_per_km_rejects_zero_speed() {
        let _ = model().fuel_per_km(0.0, 0.0, 0.0);
    }
}
