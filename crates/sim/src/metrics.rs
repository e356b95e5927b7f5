//! Per-slot records and the aggregations the paper's figures plot.

use serde::{Deserialize, Serialize};
use spotdc_traces::Cdf;
use spotdc_units::{SlotDuration, Watts};

use crate::accounting::{Billing, ProfitSummary, TenantBill};

/// One tenant's numbers for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSlotMetrics {
    /// Whether the tenant wanted spot capacity this slot.
    pub wanted: bool,
    /// Spot capacity granted, W.
    pub grant: f64,
    /// Power drawn, W.
    pub draw: f64,
    /// Performance index (1/latency or throughput) — higher is better.
    pub perf_index: f64,
    /// SLO status for sprinting tenants, `None` for opportunistic.
    pub slo_met: Option<bool>,
    /// Performance cost rate, $/h.
    pub cost_rate: f64,
    /// Spot payment for this slot, $.
    pub payment: f64,
}

/// Everything recorded for one slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: u64,
    /// Clearing price ($/kW/h) when any spot capacity was sold.
    pub price: Option<f64>,
    /// Predicted spot capacity available (min of PDU total and UPS), W.
    pub spot_available: f64,
    /// Spot capacity sold/allocated, W.
    pub spot_sold: f64,
    /// Aggregate UPS power, W.
    pub ups_power: f64,
    /// Per-PDU power, W.
    pub pdu_power: Vec<f64>,
    /// Per-tenant metrics, index-aligned with the scenario's agents.
    pub tenants: Vec<TenantSlotMetrics>,
}

/// The full output of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-slot records, in slot order.
    pub records: Vec<SlotRecord>,
    /// The slot length used.
    pub slot: SlotDuration,
    /// Per-tenant subscriptions (index-aligned with records' tenants).
    pub subscriptions: Vec<Watts>,
    /// Per-tenant rack spot headroom.
    pub headrooms: Vec<Watts>,
    /// Total subscribed capacity including non-participating groups.
    pub total_subscribed: Watts,
    /// The UPS capacity.
    pub ups_capacity: Watts,
    /// Number of capacity overloads beyond the ±5 % breaker-tolerance
    /// band — genuine emergencies requiring power shaving.
    pub emergencies: usize,
    /// Number of overloads *within* breaker tolerance: transient
    /// overshoots absorbed by the hardware (Section III-C's
    /// "short-term power spike … handled by circuit breaker
    /// tolerance").
    pub transient_overshoots: usize,
    /// Slots in which a degradation path fired: stale-meter prediction
    /// penalties or withholding, or cap-controller shedding.
    pub degraded_slots: usize,
    /// Post-clearing invariant violations (Eqns. 1–4) found by the
    /// validator; always zero unless validation was enabled *and*
    /// something upstream is broken.
    pub invariant_violations: usize,
    /// Faults the injection plan actually fired during the run.
    pub faults_injected: usize,
}

impl SimReport {
    /// The simulated horizon in hours.
    #[must_use]
    pub fn hours(&self) -> f64 {
        self.records.len() as f64 * self.slot.hours()
    }

    /// Average spot revenue rate over the horizon, $/h.
    #[must_use]
    pub fn spot_revenue_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let per_slot: f64 = self
            .records
            .iter()
            .map(|r| r.price.unwrap_or(0.0) * r.spot_sold / 1000.0)
            .sum();
        per_slot / self.records.len() as f64
    }

    /// The operator's profit summary under `billing`.
    #[must_use]
    pub fn profit(&self, billing: &Billing) -> ProfitSummary {
        let headroom_total: Watts = self.headrooms.iter().copied().sum();
        ProfitSummary {
            baseline_rate: billing.reservation_rate(self.total_subscribed)
                - billing.infra_amortization(self.ups_capacity),
            spot_revenue_rate: self.spot_revenue_rate(),
            headroom_cost_rate: billing.headroom_amortization(headroom_total),
        }
    }

    /// Tenant `i`'s cumulative bill over the horizon.
    #[must_use]
    pub fn tenant_bill(&self, i: usize, billing: &Billing) -> TenantBill {
        let hours = self.hours();
        let slot_hours = self.slot.hours();
        let mut energy = 0.0;
        let mut spot = 0.0;
        for r in &self.records {
            if let Some(t) = r.tenants.get(i) {
                energy += billing.energy_rate_for(Watts::new(t.draw)) * slot_hours;
                spot += t.payment;
            }
        }
        TenantBill {
            reservation: billing.reservation_rate(self.subscriptions[i]) * hours,
            energy,
            spot,
        }
    }

    /// Tenant `i`'s average performance index, optionally restricted to
    /// the slots in which it wanted spot capacity (the paper averages
    /// "over all the time slots whenever tenants need spot capacity").
    /// Returns 0 when no qualifying slot exists.
    #[must_use]
    pub fn tenant_avg_perf(&self, i: usize, only_wanted: bool) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.records {
            if let Some(t) = r.tenants.get(i) {
                if only_wanted && !t.wanted {
                    continue;
                }
                if t.perf_index.is_finite() && t.perf_index > 0.0 {
                    sum += t.perf_index;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Tenant `i`'s performance ratio versus a baseline run over
    /// wanting slots, or `None` when the tenant never wanted spot
    /// capacity in either run (short horizons at hyper-scale leave some
    /// tenants idle; a 0/0 ratio must not pollute averages).
    #[must_use]
    pub fn tenant_perf_ratio_vs(&self, base: &SimReport, i: usize) -> Option<f64> {
        let ours = self.tenant_avg_perf(i, true);
        let theirs = base.tenant_avg_perf(i, true);
        if ours <= 0.0 || theirs <= 0.0 {
            None
        } else {
            Some(ours / theirs)
        }
    }

    /// The average of [`Self::tenant_perf_ratio_vs`] across tenants with
    /// a defined ratio; 1.0 when none qualify.
    #[must_use]
    pub fn avg_perf_ratio_vs(&self, base: &SimReport) -> f64 {
        let ratios: Vec<f64> = (0..self.tenant_count())
            .filter_map(|i| self.tenant_perf_ratio_vs(base, i))
            .collect();
        if ratios.is_empty() {
            1.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Tenant `i`'s maximum and average spot usage as a percentage of
    /// its subscription (Fig. 12c); the average is over slots with a
    /// positive grant. Returns `(max %, avg %)`.
    #[must_use]
    pub fn tenant_spot_usage_percent(&self, i: usize) -> (f64, f64) {
        let sub = self.subscriptions[i].value();
        if sub <= 0.0 {
            return (0.0, 0.0);
        }
        let mut max = 0.0f64;
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.records {
            if let Some(t) = r.tenants.get(i) {
                if t.grant > 0.0 {
                    let pct = 100.0 * t.grant / sub;
                    max = max.max(pct);
                    sum += pct;
                    n += 1;
                }
            }
        }
        (max, if n == 0 { 0.0 } else { sum / n as f64 })
    }

    /// Market prices over slots where spot capacity was sold
    /// (Fig. 13a).
    #[must_use]
    pub fn price_cdf(&self) -> Cdf {
        Cdf::from_samples(self.records.iter().filter_map(|r| r.price))
    }

    /// UPS power normalized to the UPS capacity (Fig. 13b / Fig. 2b).
    #[must_use]
    pub fn ups_utilization_cdf(&self) -> Cdf {
        let cap = self.ups_capacity.value().max(1e-9);
        Cdf::from_samples(self.records.iter().map(|r| r.ups_power / cap))
    }

    /// Average predicted spot capacity as a fraction of the total
    /// subscribed capacity (the paper's availability axis).
    #[must_use]
    pub fn avg_spot_available_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let avg: f64 =
            self.records.iter().map(|r| r.spot_available).sum::<f64>() / self.records.len() as f64;
        avg / self.total_subscribed.value().max(1e-9)
    }

    /// Average spot capacity sold per slot, W.
    #[must_use]
    pub fn avg_spot_sold(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.spot_sold).sum::<f64>() / self.records.len() as f64
    }

    /// Number of participating tenants tracked.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.subscriptions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> SimReport {
        let t0 = TenantSlotMetrics {
            wanted: true,
            grant: 30.0,
            draw: 150.0,
            perf_index: 10.0,
            slo_met: Some(true),
            cost_rate: 0.01,
            payment: 0.002,
        };
        let t1 = TenantSlotMetrics {
            wanted: false,
            grant: 0.0,
            draw: 80.0,
            perf_index: 40.0,
            slo_met: None,
            cost_rate: 0.0,
            payment: 0.0,
        };
        SimReport {
            records: vec![
                SlotRecord {
                    slot: 0,
                    price: Some(0.2),
                    spot_available: 100.0,
                    spot_sold: 30.0,
                    ups_power: 1000.0,
                    pdu_power: vec![500.0, 500.0],
                    tenants: vec![t0, t1],
                },
                SlotRecord {
                    slot: 1,
                    price: None,
                    spot_available: 120.0,
                    spot_sold: 0.0,
                    ups_power: 900.0,
                    pdu_power: vec![450.0, 450.0],
                    tenants: vec![
                        TenantSlotMetrics {
                            wanted: false,
                            grant: 0.0,
                            draw: 100.0,
                            perf_index: 20.0,
                            slo_met: Some(false),
                            cost_rate: 0.02,
                            payment: 0.0,
                        },
                        t1,
                    ],
                },
            ],
            slot: SlotDuration::from_secs(120),
            subscriptions: vec![Watts::new(145.0), Watts::new(125.0)],
            headrooms: vec![Watts::new(72.5), Watts::new(62.5)],
            total_subscribed: Watts::new(520.0),
            ups_capacity: Watts::new(1370.0),
            emergencies: 0,
            transient_overshoots: 0,
            degraded_slots: 0,
            invariant_violations: 0,
            faults_injected: 0,
        }
    }

    #[test]
    fn revenue_rate_averages_over_slots() {
        let r = tiny_report();
        // Slot 0: 0.2 $/kWh × 0.030 kW = 0.006 $/h; slot 1: 0. Avg 0.003.
        assert!((r.spot_revenue_rate() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn tenant_bill_components() {
        let r = tiny_report();
        let b = Billing::paper_defaults();
        let bill = r.tenant_bill(0, &b);
        let hours = 2.0 * 120.0 / 3600.0;
        assert!((bill.reservation - b.reservation_rate(Watts::new(145.0)) * hours).abs() < 1e-9);
        assert!((bill.spot - 0.002).abs() < 1e-12);
        assert!(bill.energy > 0.0);
    }

    #[test]
    fn perf_averaging_respects_wanted_filter() {
        let r = tiny_report();
        assert!((r.tenant_avg_perf(0, true) - 10.0).abs() < 1e-12);
        assert!((r.tenant_avg_perf(0, false) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn spot_usage_stats() {
        let r = tiny_report();
        let (max, avg) = r.tenant_spot_usage_percent(0);
        let expect = 100.0 * 30.0 / 145.0;
        assert!((max - expect).abs() < 1e-9);
        assert!((avg - expect).abs() < 1e-9);
        assert_eq!(r.tenant_spot_usage_percent(1), (0.0, 0.0));
        // The average is over the one slot of two with a grant.
        let granted = r.records.iter().filter(|s| s.tenants[0].grant > 0.0);
        assert_eq!(granted.count(), 1);
    }

    #[test]
    fn cdfs_and_availability() {
        let r = tiny_report();
        assert_eq!(r.price_cdf().len(), 1);
        let u = r.ups_utilization_cdf();
        assert_eq!(u.len(), 2);
        assert!(u.max().unwrap() <= 1.0);
        assert!((r.avg_spot_available_fraction() - 110.0 / 520.0).abs() < 1e-12);
        assert!((r.avg_spot_sold() - 15.0).abs() < 1e-12);
    }
}
