//! Dollar accounting: tenant bills and operator profit.
//!
//! The paper's economics (Sections II, IV-C, V-B):
//!
//! * tenants pay a **reservation** charge of US$120–250/kW/month for
//!   guaranteed capacity, plus **metered energy**, plus (with SpotDC)
//!   **spot payments**;
//! * the operator's costs are the **amortized capital expense** of the
//!   shared power infrastructure (US$10–25/W over its life) and, for
//!   SpotDC, the cheap rack-level headroom over-provisioning
//!   (US¢40/W amortized over 15 years);
//! * spot capacity itself has **no marginal operating cost** — energy
//!   is metered to tenants — so spot revenue net of the tiny headroom
//!   amortization is pure extra profit.

use serde::{Deserialize, Serialize};
use spotdc_units::{Price, Watts};

/// Hours in the 30-day billing month used for colo rates.
const HOURS_PER_MONTH: f64 = 30.0 * 24.0;

/// Billing and cost parameters for one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Billing {
    /// Guaranteed-capacity rate, US$/kW/month (paper: 120–250).
    pub reservation_rate_month: f64,
    /// Metered energy rate, US$/kWh.
    pub energy_rate: f64,
    /// Shared-infrastructure capital expense, US$/W (paper: 10–25).
    pub infra_capex_per_watt: f64,
    /// Rack-headroom capital expense, US$/W (paper: 0.2–0.5).
    pub headroom_capex_per_watt: f64,
    /// Amortization horizon for capital expenses, years (paper: 15).
    pub amortization_years: f64,
}

impl Billing {
    /// The defaults used throughout the evaluation: $170/kW/month
    /// reservations (≙ $0.236/kW/h amortized), $0.10/kWh energy, $25/W
    /// infrastructure, $0.40/W rack headroom, 15-year amortization.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Billing {
            reservation_rate_month: 170.0,
            energy_rate: 0.10,
            infra_capex_per_watt: 25.0,
            headroom_capex_per_watt: 0.40,
            amortization_years: 15.0,
        }
    }

    /// The amortized hourly reservation price ($/kW/h) — the natural
    /// ceiling for opportunistic bids.
    #[must_use]
    pub fn amortized_reservation_price(&self) -> Price {
        Price::from_monthly_rate(self.reservation_rate_month)
    }

    /// Reservation revenue rate ($/hour) for `subscribed` capacity.
    #[must_use]
    pub fn reservation_rate(&self, subscribed: Watts) -> f64 {
        subscribed.kilowatts() * self.reservation_rate_month / HOURS_PER_MONTH
    }

    /// Energy cost rate ($/hour) for a draw of `power`.
    #[must_use]
    pub fn energy_rate_for(&self, power: Watts) -> f64 {
        power.kilowatts() * self.energy_rate
    }

    /// Amortized hourly cost ($/hour) of `capacity` of shared
    /// infrastructure.
    #[must_use]
    pub fn infra_amortization(&self, capacity: Watts) -> f64 {
        capacity.value() * self.infra_capex_per_watt / (self.amortization_years * 365.0 * 24.0)
    }

    /// Amortized hourly cost ($/hour) of `headroom` of rack-level
    /// over-provisioning.
    #[must_use]
    pub fn headroom_amortization(&self, headroom: Watts) -> f64 {
        headroom.value() * self.headroom_capex_per_watt / (self.amortization_years * 365.0 * 24.0)
    }
}

impl Default for Billing {
    fn default() -> Self {
        Billing::paper_defaults()
    }
}

/// The operator's profit picture over a simulated horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfitSummary {
    /// Baseline profit rate ($/h): reservations minus infrastructure
    /// amortization — what `PowerCapped` earns.
    pub baseline_rate: f64,
    /// Average spot revenue rate ($/h).
    pub spot_revenue_rate: f64,
    /// Amortized rack-headroom cost rate ($/h).
    pub headroom_cost_rate: f64,
}

impl ProfitSummary {
    /// Net extra profit rate from running SpotDC ($/h).
    #[must_use]
    pub fn extra_rate(&self) -> f64 {
        self.spot_revenue_rate - self.headroom_cost_rate
    }

    /// The headline metric: extra profit as a percentage of baseline
    /// profit (the paper reports +9.7 %).
    #[must_use]
    pub fn extra_percent(&self) -> f64 {
        if self.baseline_rate <= 0.0 {
            return 0.0;
        }
        100.0 * self.extra_rate() / self.baseline_rate
    }
}

/// One tenant's cumulative bill over a horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantBill {
    /// Reservation charges, $.
    pub reservation: f64,
    /// Metered energy charges, $.
    pub energy: f64,
    /// Spot-capacity payments, $.
    pub spot: f64,
}

impl TenantBill {
    /// Total bill, $.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.reservation + self.energy + self.spot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortized_reservation_price_is_rate_over_month() {
        let b = Billing::paper_defaults();
        let expect = 170.0 / 720.0;
        assert!((b.amortized_reservation_price().per_kw_hour_value() - expect).abs() < 1e-12);
    }

    #[test]
    fn reservation_rate_scales_with_capacity() {
        let b = Billing::paper_defaults();
        // 1 kW at $170/month over 720 h ≈ $0.236/h.
        assert!((b.reservation_rate(Watts::from_kilowatts(1.0)) - 170.0 / 720.0).abs() < 1e-12);
        assert!((b.reservation_rate(Watts::new(750.0)) - 0.75 * 170.0 / 720.0).abs() < 1e-12);
    }

    #[test]
    fn infra_amortization_dwarfs_headroom_amortization() {
        let b = Billing::paper_defaults();
        let infra = b.infra_amortization(Watts::new(1400.0));
        let headroom = b.headroom_amortization(Watts::new(470.0));
        assert!(
            infra > 50.0 * headroom,
            "infra {infra} vs headroom {headroom}"
        );
    }

    #[test]
    fn profit_summary_percent() {
        let p = ProfitSummary {
            baseline_rate: 0.10,
            spot_revenue_rate: 0.0107,
            headroom_cost_rate: 0.0010,
        };
        assert!((p.extra_percent() - 9.7).abs() < 1e-9);
        assert!((p.baseline_rate + p.extra_rate() - 0.1097).abs() < 1e-12);
    }

    #[test]
    fn profit_summary_degenerate_baseline() {
        let p = ProfitSummary {
            baseline_rate: 0.0,
            spot_revenue_rate: 1.0,
            headroom_cost_rate: 0.0,
        };
        assert_eq!(p.extra_percent(), 0.0);
    }

    #[test]
    fn tenant_bill_totals() {
        let bill = TenantBill {
            reservation: 20.0,
            energy: 7.0,
            spot: 0.15,
        };
        assert!((bill.total() - 27.15).abs() < 1e-12);
    }

    #[test]
    fn energy_rate_for_draw() {
        let b = Billing::paper_defaults();
        assert!((b.energy_rate_for(Watts::new(500.0)) - 0.05).abs() < 1e-12);
    }
}
