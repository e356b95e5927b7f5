//! Fig. 7(b): market-clearing time vs rack count and price step.
//!
//! The paper's claim: sub-second clearing at 15 000 racks with a
//! 0.1 ¢/kW step, sub-100 ms with a 1 ¢/kW step, on a desktop machine.
//! Run with `cargo bench -p spotdc-bench --bench clearing`.
//!
//! Each iteration clears a different book than the one before (two
//! unrelated books of the same size alternate), the recipe the
//! reference numbers used.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spotdc_bench::market_fixture;
use spotdc_core::demand::StepBid;
use spotdc_core::{ClearingConfig, MarketClearing, RackBid};
use spotdc_sim::experiments::fig7b::synthetic_market_shaped;
use spotdc_units::{Price, Slot, Watts};

fn bench_grid_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("clearing_grid_scan");
    group.sample_size(10);
    for racks in [100usize, 1000, 5000, 15_000] {
        let (_topo, bids, constraints) = market_fixture(racks, 42);
        let (_, other, _) = market_fixture(racks, 43);
        for step_cents in [1.0f64, 0.1] {
            let engine =
                MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(step_cents)));
            let mut flip = false;
            group.bench_with_input(
                BenchmarkId::new(format!("step_{step_cents}c"), racks),
                &racks,
                |b, _| {
                    b.iter(|| {
                        flip = !flip;
                        let book = if flip { &other } else { &bids };
                        let out =
                            engine.clear(Slot::ZERO, std::hint::black_box(book), &constraints);
                        std::hint::black_box(out.sold())
                    })
                },
            );
        }
    }
    group.finish();
}

/// The shape of a real 15 000-tenant slot, which Fig. 7(b)'s book is
/// not: four racks to a PDU, so next to no PDU can bind, and ~81 % of
/// the racks bidding nothing — ~2 850 live bids whose totals are where
/// a clear goes. `clear-replay` times the recorded books themselves;
/// this case needs no 9 s recording.
fn bench_market_shape(c: &mut Criterion) {
    let thinned = |seed: u64| {
        let (_topo, mut bids, constraints) = synthetic_market_shaped(15_000, 4, seed);
        let null = StepBid::new(Watts::ZERO, Price::ZERO).expect("valid");
        for (i, bid) in bids.iter_mut().enumerate() {
            if i.wrapping_mul(2_654_435_761) % 100 < 81 {
                *bid = RackBid::new(bid.rack(), null.into());
            }
        }
        (bids, constraints)
    };
    let (bids, constraints) = thinned(42);
    let (other, _) = thinned(43);
    let engine = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(0.1)));
    let mut flip = false;
    let mut group = c.benchmark_group("clearing_market_shape");
    group.sample_size(20);
    group.bench_function("step_0.1c/15000x4_81pct_null", |b| {
        b.iter(|| {
            flip = !flip;
            let book = if flip { &other } else { &bids };
            let out = engine.clear(Slot::ZERO, std::hint::black_box(book), &constraints);
            std::hint::black_box(out.sold())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_grid_scan, bench_market_shape);
criterion_main!(benches);
