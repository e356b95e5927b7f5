//! Exactness of the split valuation.
//!
//! A gain curve is built in two halves: a cost-independent valuation
//! row (latencies or throughputs at every sampled budget, plus the SLO
//! power) and the tenant's cost model applied to it. The agent caches
//! rows, and a batch agent keeps a single row for every load level, so
//! both halves must reproduce the direct computation bit for bit:
//! `GainCurve::from_cost_rate` over the direct cost rate
//! ([`oracle::cost_rate`]), and `needed_power`.

mod oracle;

use proptest::prelude::*;
use spotdc_tenants::WorkloadModel;
use spotdc_units::Watts;
use spotdc_workloads::GainCurve;

/// The agents' intensity quantization (1/256 steps).
const BUCKETS: u16 = 256;
/// What the model tabulates gain curves with.
const SAMPLES: usize = 48;

fn model(kind: usize, scale: f64) -> WorkloadModel {
    let base = match kind {
        0 => WorkloadModel::search(),
        1 => WorkloadModel::web(),
        2 => WorkloadModel::word_count(),
        3 => WorkloadModel::tera_sort(),
        _ => WorkloadModel::graph(),
    };
    base.with_cost_scaled(scale)
}

fn bits(curve: &GainCurve) -> Vec<(u64, u64)> {
    curve
        .points()
        .iter()
        .map(|&(w, g)| (w.to_bits(), g.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_then_cost_is_the_direct_valuation_bit_for_bit(
        kind in 0usize..5,
        scale in 0.8..=1.2f64,
        reservation in 0usize..3,
    ) {
        let m = model(kind, scale);
        // Table I's reservations; headroom is half the reservation.
        let reserved = [145.0, 125.0, 115.0][reservation];
        let (reserved, headroom) = (Watts::new(reserved), Watts::new(reserved * 0.5));
        let idle_row = m.valuation_row(reserved, headroom, 0.0);
        for bucket in 0..=BUCKETS {
            let q = f64::from(bucket) / f64::from(BUCKETS);
            let row = m.valuation_row(reserved, headroom, q);
            let direct = GainCurve::from_cost_rate(reserved, headroom, SAMPLES, |b| oracle::cost_rate(&m, b, q));
            prop_assert_eq!(bits(&m.gain_from_row(&row, q)), bits(&direct), "bucket {}", bucket);
            prop_assert_eq!(bits(&m.gain_curve(reserved, headroom, q)), bits(&direct));
            prop_assert_eq!(
                m.needed_from_row(&row, q).value().to_bits(),
                m.needed_power(reserved, headroom, q).value().to_bits(),
                "bucket {}", bucket
            );
            if !m.is_sprinting() {
                // Debug prints every float exactly (signed zeros too), so
                // equal strings are equal bits: one row serves every load.
                prop_assert_eq!(format!("{row:?}"), format!("{idle_row:?}"), "bucket {}", bucket);
            }
        }
    }
}
