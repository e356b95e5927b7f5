//! Property-based tests for the unit types.

use proptest::prelude::*;
use spotdc_units::{Money, Price, Slot, SlotDuration, Watts};

fn finite() -> impl Strategy<Value = f64> {
    -1e9..1e9f64
}

proptest! {
    #[test]
    fn watts_addition_commutes(a in finite(), b in finite()) {
        prop_assert_eq!(Watts::new(a) + Watts::new(b), Watts::new(b) + Watts::new(a));
    }

    #[test]
    fn watts_clamp_non_negative_is_idempotent(a in finite()) {
        let once = Watts::new(a).clamp_non_negative();
        prop_assert_eq!(once, once.clamp_non_negative());
        prop_assert!(!once.is_negative());
    }

    #[test]
    fn watts_min_max_partition(a in finite(), b in finite()) {
        let (x, y) = (Watts::new(a), Watts::new(b));
        prop_assert_eq!(x.min(y) + x.max(y), x + y);
    }

    #[test]
    fn kilowatt_round_trip(a in finite()) {
        let w = Watts::from_kilowatts(a);
        prop_assert!((w.kilowatts() - a).abs() <= a.abs() * 1e-12 + 1e-12);
    }

    #[test]
    fn price_cost_is_linear_in_power(q in 0.0..10.0f64, w in 0.0..1e6f64, secs in 1u64..86_400) {
        let price = Price::per_kw_hour(q);
        let slot = SlotDuration::from_secs(secs);
        let one = price.cost_of(Watts::new(w), slot);
        let two = price.cost_of(Watts::new(2.0 * w), slot);
        prop_assert!((two.usd() - 2.0 * one.usd()).abs() < 1e-9 * (1.0 + one.usd().abs()));
    }

    #[test]
    fn price_cost_never_negative_for_valid_inputs(q in 0.0..10.0f64, w in 0.0..1e6f64) {
        let pay = Price::per_kw_hour(q).cost_of(Watts::new(w), SlotDuration::default());
        prop_assert!(!pay.is_negative());
    }

    #[test]
    fn money_sum_matches_fold(values in prop::collection::vec(finite(), 0..50)) {
        let monies: Vec<Money> = values.iter().map(|&v| Money::dollars(v)).collect();
        let summed: Money = monies.iter().copied().sum();
        let folded = monies.iter().fold(Money::ZERO, |acc, &m| acc + m);
        prop_assert!((summed.usd() - folded.usd()).abs() < 1e-6);
    }

    #[test]
    fn slot_take_len_matches(start in 0u64..1_000_000, count in 0u64..1000) {
        let n = Slot::new(start).take(count).count();
        prop_assert_eq!(n as u64, count);
    }

    #[test]
    fn slot_duration_per_hour_per_day_consistent(secs in 1u64..86_400) {
        let d = SlotDuration::from_secs(secs);
        prop_assert!((d.slots_per_day() - 24.0 * d.slots_per_hour()).abs() < 1e-6);
    }
}
