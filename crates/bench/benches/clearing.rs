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
use spotdc_core::{ClearingConfig, MarketClearing};
use spotdc_units::{Price, Slot};

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

criterion_group!(benches, bench_grid_scan);
criterion_main!(benches);
