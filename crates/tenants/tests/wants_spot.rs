//! A tenant decides whether it wants spot once per slot, when it
//! observes its load: `TenantAgent::observe` evaluates
//! `WorkloadModel::wants_spot` and `TenantAgent::wants_spot` reads the
//! stored answer back. That answer must be the model's at the clamped
//! load after every observation, whatever load came before it.

use spotdc_tenants::{Strategy, TenantAgent, WorkloadModel};
use spotdc_units::{Price, RackId, TenantId, Watts};

/// Table I's five kinds with their reservations.
fn table_one() -> [(WorkloadModel, f64); 5] {
    [
        (WorkloadModel::search(), 145.0),
        (WorkloadModel::web(), 115.0),
        (WorkloadModel::word_count(), 125.0),
        (WorkloadModel::tera_sort(), 125.0),
        (WorkloadModel::graph(), 115.0),
    ]
}

/// Each Table I reservation scaled down, as is and up.
const RESERVATION_JITTER: [f64; 3] = [0.8, 1.0, 1.2];

/// Out-of-range loads on both sides, the edge just above idle, every
/// valuation step of `[0, 1]`, then the same steps downward so each
/// observation follows a different load than on the way up.
fn intensities() -> Vec<f64> {
    let steps: Vec<f64> = (0..=256).map(|k| f64::from(k) / 256.0).collect();
    let mut xs = vec![-0.5, 0.0, 1e-9];
    xs.extend(&steps);
    xs.extend([1.0, 1.5]);
    xs.extend(steps.iter().rev());
    xs
}

fn agent(model: &WorkloadModel, reserved: f64) -> TenantAgent {
    TenantAgent::new(
        TenantId::new(0),
        RackId::new(0),
        Watts::new(reserved),
        Watts::new(reserved * 0.5),
        model.clone(),
        Strategy::elastic(Price::per_kw_hour(0.05), Price::per_kw_hour(0.5)),
    )
}

#[test]
fn observe_decides_as_the_model_does_at_the_clamped_load() {
    let loads = intensities();
    for (model, base) in table_one() {
        for jitter in RESERVATION_JITTER {
            let reserved = base * jitter;
            let mut a = agent(&model, reserved);
            assert!(!a.wants_spot(), "{model:?}: a fresh agent wants spot");
            let (mut wanted, mut bid) = (0, 0);
            for &x in &loads {
                a.observe(x);
                let want = model.wants_spot(a.reserved(), x.clamp(0.0, 1.0));
                assert_eq!(a.wants_spot(), want, "{model:?} at {reserved} W, load {x}");
                assert_eq!(a.clone().wants_spot(), want, "a clone drops the flag");
                if a.make_bid().is_some() {
                    assert!(want, "{model:?} at {reserved} W bids at load {x} unwanted");
                    bid += 1;
                }
                wanted += usize::from(want);
            }
            // Both answers occur, so a constant flag cannot pass.
            assert!(
                wanted > 0 && bid > 0,
                "{model:?} at {reserved} W never wants spot"
            );
            assert!(wanted < loads.len(), "{model:?} always wants spot");
        }
    }
}
