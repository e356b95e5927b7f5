//! Exactness of a tenant's slot.
//!
//! `TenantAgent::run_slot` evaluates the performance model once and
//! reads both the reported performance and the cost rate off that one
//! value. It must match the direct composition bit for bit: the draw
//! from `power_draw`, the performance from the workload's `latency` or
//! `throughput`, and the cost from [`oracle::cost_rate`], which
//! evaluates the performance model again on its own.

mod oracle;

use spotdc_tenants::{Performance, SlotOutcome, Strategy, TenantAgent, WorkloadModel};
use spotdc_units::{Price, RackId, TenantId, Watts};

/// Table I's five kinds with their reservations; the headroom is half
/// the reservation.
fn table_one() -> [(WorkloadModel, f64); 5] {
    [
        (WorkloadModel::search(), 145.0),
        (WorkloadModel::web(), 115.0),
        (WorkloadModel::word_count(), 125.0),
        (WorkloadModel::tera_sort(), 125.0),
        (WorkloadModel::graph(), 115.0),
    ]
}

/// The slot written out from the public models.
fn direct(model: &WorkloadModel, budget: Watts, intensity: f64) -> SlotOutcome {
    let performance = match model {
        WorkloadModel::Sprinting { workload, cost } => {
            let seconds = workload.latency(model.arrival_rate(intensity), budget);
            Performance::Latency {
                seconds,
                slo_met: seconds <= cost.slo(),
            }
        }
        WorkloadModel::Opportunistic { workload, .. } => Performance::Throughput {
            rate: if intensity > 0.0 {
                workload.throughput(budget)
            } else {
                0.0
            },
        },
    };
    SlotOutcome {
        draw: model.power_draw(budget, intensity),
        performance,
        cost_rate: oracle::cost_rate(model, budget, intensity),
    }
}

/// Every field of an outcome as bits, so `-0.0`, `0.0` and NaNs
/// compare exactly.
fn bits(out: &SlotOutcome) -> (u64, u64, Option<bool>, u64) {
    let (value, slo_met) = match out.performance {
        Performance::Latency { seconds, slo_met } => (seconds, Some(slo_met)),
        Performance::Throughput { rate } => (rate, None),
    };
    (
        out.draw.value().to_bits(),
        value.to_bits(),
        slo_met,
        out.cost_rate.to_bits(),
    )
}

#[test]
fn run_slot_is_the_direct_composition_bit_for_bit() {
    for (model, reserved) in table_one() {
        let headroom = reserved * 0.5;
        let dvfs = match &model {
            WorkloadModel::Sprinting { workload, .. } => workload.dvfs(),
            WorkloadModel::Opportunistic { workload, .. } => workload.dvfs(),
        };
        let knee = dvfs.rack_power(dvfs.freq_min(), 1.0).value();
        let peak = dvfs.peak_power().value();
        // The edges of the DVFS model, then 64 budgets strictly inside
        // its bisection range, where the operating point is searched for.
        let mut budgets = vec![
            0.0,
            knee * 0.5,
            knee,
            reserved,
            reserved + headroom * 0.5,
            peak,
            peak + 50.0,
        ];
        budgets.extend((1..=64).map(|i| knee + (peak - knee) * f64::from(i) / 65.0));
        let mut agent = TenantAgent::new(
            TenantId::new(0),
            RackId::new(0),
            Watts::new(reserved),
            Watts::new(headroom),
            model.clone(),
            Strategy::simple(Price::per_kw_hour(0.5)),
        );
        let sixteenths = (0..=16).map(|i| f64::from(i) / 16.0);
        for intensity in [1e-9, 0.3].into_iter().chain(sixteenths) {
            agent.observe(intensity);
            for budget in budgets.iter().copied().map(Watts::new) {
                let got = agent.run_slot(budget);
                let want = direct(&model, budget, intensity);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{model:?} at {budget}, intensity {intensity}: {got:?} vs {want:?}"
                );
            }
        }
    }
}
