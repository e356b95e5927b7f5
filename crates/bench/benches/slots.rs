//! Within-slot parallelism: slot throughput of a fig14-class scenario
//! (hyper-scale, 304 tenants, SpotDC with per-PDU pricing) as the
//! inner pool widens. All widths simulate byte-identical markets, so
//! any spread is pure pipeline overhead or speedup.
//!
//! This is the repository's only `inner_jobs` ≥ 2 measurement: every
//! `BENCHMARK.json` workload runs the serial width, and stays so until
//! ROADMAP item 1(c)'s two-CPU row exists. Read it beside
//! `std::thread::available_parallelism` — on one CPU it can only show
//! the pool's overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spotdc_sim::baselines::Mode;
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::scenario::Scenario;

fn bench_inner_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("hyperscale_304_per_pdu_30_slots");
    group.sample_size(10);
    for inner_jobs in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(inner_jobs),
            &inner_jobs,
            |b, &inner_jobs| {
                b.iter(|| {
                    let engine = EngineConfig {
                        per_pdu_pricing: true,
                        inner_jobs,
                        ..EngineConfig::new(Mode::SpotDc)
                    };
                    let report = Simulation::new(Scenario::hyperscale(42, 304), engine).run(30);
                    std::hint::black_box(report.avg_spot_sold())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_inner_jobs);
criterion_main!(benches);
