//! Property-based tests for the workload and gain models.

use proptest::prelude::*;
use spotdc_units::{Price, Watts};
use spotdc_workloads::{
    BatchWorkload, DvfsModel, GainCurve, InteractiveWorkload, MmK, OpportunisticCost, SprintingCost,
};

proptest! {
    #[test]
    fn erlang_c_in_unit_interval(servers in 1u32..16, mu in 0.5..200.0f64, frac in 0.0..0.999f64) {
        let q = MmK::new(servers, mu);
        let lambda = q.capacity() * frac;
        let c = q.erlang_c(lambda);
        prop_assert!((0.0..=1.0).contains(&c), "erlang-c {c}");
    }

    #[test]
    fn latency_percentile_bounded_below_by_service_tail(
        servers in 1u32..8, mu in 1.0..100.0f64, frac in 0.0..0.95f64, p in 0.5..0.999f64
    ) {
        let q = MmK::new(servers, mu);
        let lambda = q.capacity() * frac;
        let t = q.latency_percentile(lambda, p);
        let service_only = -(1.0 - p).ln() / mu;
        prop_assert!(t >= service_only - 1e-9, "response {t} below service tail {service_only}");
    }

    #[test]
    fn mean_wait_consistent_with_erlang_c(servers in 1u32..8, mu in 1.0..100.0f64, frac in 0.01..0.95f64) {
        let q = MmK::new(servers, mu);
        let lambda = q.capacity() * frac;
        let w = q.mean_wait(lambda);
        prop_assert!((w - q.erlang_c(lambda) / (q.capacity() - lambda)).abs() < 1e-9);
    }

    #[test]
    fn dvfs_capacity_monotone(budget1 in 0.0..400.0f64, budget2 in 0.0..400.0f64, u in 0.0..1.0f64) {
        let m = DvfsModel::new(4, Watts::new(10.0), Watts::new(30.0), 0.4, 2.0, 0.2);
        let (lo, hi) = if budget1 <= budget2 { (budget1, budget2) } else { (budget2, budget1) };
        let capacity = |b: f64| m.operating_point(Watts::new(b), u).relative_capacity(m.serial_fraction());
        prop_assert!(capacity(lo) <= capacity(hi) + 1e-9);
    }

    #[test]
    fn latency_and_draw_is_latency_and_power_draw_bit_for_bit(
        budget_frac in 0.0..=1.0f64, lam_frac in 0.0..=1.5f64
    ) {
        for w in [InteractiveWorkload::search_tenant(), InteractiveWorkload::web_tenant()] {
            let dvfs = w.dvfs();
            let knee = dvfs.rack_power(dvfs.freq_min(), 1.0);
            let peak = dvfs.peak_power();
            // Budgets over [-10, peak + 50] W; loads up to 1.5x capacity
            // reach the unstable queue and the latency cap.
            let drawn = Watts::new(-10.0 + budget_frac * (peak.value() + 60.0));
            let lam = lam_frac * w.max_capacity();
            for budget in [drawn, Watts::ZERO, knee, peak] {
                let (latency, draw) = w.latency_and_draw(lam, budget);
                prop_assert_eq!(latency.to_bits(), w.latency(lam, budget).to_bits());
                prop_assert_eq!(draw.value().to_bits(), w.power_draw(lam, budget).value().to_bits());
            }
        }
    }

    #[test]
    fn throughput_and_draw_is_throughput_and_power_draw_bit_for_bit(budget_frac in 0.0..=1.0f64) {
        for w in [
            BatchWorkload::word_count_tenant(),
            BatchWorkload::tera_sort_tenant(),
            BatchWorkload::graph_tenant(),
        ] {
            let dvfs = w.dvfs();
            let knee = dvfs.rack_power(dvfs.freq_min(), 1.0);
            let peak = dvfs.peak_power();
            // Budgets over [-10, peak + 50] W.
            let drawn = Watts::new(-10.0 + budget_frac * (peak.value() + 60.0));
            for budget in [drawn, Watts::ZERO, knee, peak] {
                let (rate, draw) = w.throughput_and_draw(budget);
                prop_assert_eq!(rate.to_bits(), w.throughput(budget).to_bits());
                prop_assert_eq!(draw.value().to_bits(), w.power_draw(budget).value().to_bits());
            }
        }
    }

    #[test]
    fn interactive_latency_monotone_in_budget(lam_frac in 0.05..0.9f64, b1 in 60.0..220.0f64, b2 in 60.0..220.0f64) {
        let w = InteractiveWorkload::search_tenant();
        let lam = w.max_capacity() * lam_frac;
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let d_lo = w.latency(lam, Watts::new(lo));
        let d_hi = w.latency(lam, Watts::new(hi));
        prop_assert!(d_hi <= d_lo + 1e-9, "more power worsened latency: {d_hi} vs {d_lo}");
    }

    #[test]
    fn batch_throughput_monotone(b1 in 0.0..250.0f64, b2 in 0.0..250.0f64) {
        let w = BatchWorkload::word_count_tenant();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(w.throughput(Watts::new(lo)) <= w.throughput(Watts::new(hi)) + 1e-9);
    }

    #[test]
    fn sprinting_cost_monotone_in_latency(d1 in 0.0..2.0f64, d2 in 0.0..2.0f64) {
        let c = SprintingCost::new(0.001, 0.5, 0.1);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(c.cost_per_job(lo) <= c.cost_per_job(hi) + 1e-12);
    }

    #[test]
    fn gain_curve_envelope_dominates(reserved in 50.0..200.0f64, max_spot in 1.0..150.0f64) {
        let wl = BatchWorkload::word_count_tenant();
        let cost = OpportunisticCost::new(0.001, 3000.0, 2.0);
        let curve = GainCurve::from_cost_rate(Watts::new(reserved), Watts::new(max_spot), 32, |b| {
            cost.cost_rate_at_throughput(wl.throughput(b))
        });
        let env = curve.concave_envelope();
        for i in 0..=20 {
            let s = curve.max_spot() * (i as f64 / 20.0);
            prop_assert!(env.gain(s) >= curve.gain(s) - 1e-9);
        }
    }

    #[test]
    fn gain_demand_antitone_in_price(p1 in 0.001..2.0f64, p2 in 0.001..2.0f64) {
        let wl = BatchWorkload::graph_tenant();
        let cost = OpportunisticCost::new(0.002, 4000.0, 1.5);
        let env = GainCurve::from_cost_rate(Watts::new(115.0), Watts::new(57.5), 32, |b| {
            cost.cost_rate_at_throughput(wl.throughput(b))
        })
        .concave_envelope();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let d_lo = env.demand_at_price(Price::per_kw_hour(lo));
        let d_hi = env.demand_at_price(Price::per_kw_hour(hi));
        prop_assert!(d_hi <= d_lo, "demand rose with price");
    }

    #[test]
    fn gain_never_negative(spot in 0.0..100.0f64) {
        let wl = InteractiveWorkload::web_tenant();
        let cost = SprintingCost::new(0.0002, 0.02, 0.1);
        let lam = wl.peak_load();
        let curve = GainCurve::from_cost_rate(Watts::new(115.0), Watts::new(57.5), 32, |b| {
            cost.cost_rate(wl.latency(lam, b), lam)
        });
        prop_assert!(curve.gain(Watts::new(spot)) >= 0.0);
    }
}
