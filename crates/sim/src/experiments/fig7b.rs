//! Fig. 7(b): market-clearing time at scale.
//!
//! The scalability claim: with the paper's grid search, clearing stays
//! below one second even at 15 000 racks with a 0.1 ¢/kW step, and
//! below 100 ms with a 1 ¢/kW step. We measure wall-clock clearing time
//! on synthetic bid populations of increasing size, two unrelated books
//! of each size alternating through one warm engine (`repro --exp fig7b`).

use std::time::Instant;

use spotdc_core::demand::LinearBid;
use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, RackBid};
use spotdc_power::topology::{PowerTopology, TopologyBuilder};
use spotdc_traces::Sampler;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

use crate::experiments::common::{ExpConfig, ExpOutput};
use crate::report::TextTable;

/// Racks per cluster PDU (the paper's 50–80 range).
const RACKS_PER_PDU: usize = 64;

/// One timing measurement.
#[derive(Debug, Clone, Copy)]
pub struct ClearingTiming {
    /// Number of racks bidding.
    pub racks: usize,
    /// Search step in ¢/kW/h.
    pub step_cents: f64,
    /// Mean clearing time in milliseconds.
    pub millis: f64,
}

/// Builds a synthetic population: `racks` racks across PDUs of
/// 64 racks per PDU (the paper's 50-80 range), every rack bidding a
/// random linear bid.
#[must_use]
pub fn synthetic_market(racks: usize, seed: u64) -> (PowerTopology, Vec<RackBid>, ConstraintSet) {
    synthetic_market_shaped(racks, RACKS_PER_PDU, seed)
}

/// [`synthetic_market`] with `racks_per_pdu` racks under each PDU —
/// small values give the many-tiny-sub-markets shape of per-PDU
/// pricing on [`crate::Scenario::hyperscale`] (four racks per PDU).
/// Capacities stay those of a 64-rack PDU, so only the rack → PDU map
/// differs between shapes.
#[must_use]
pub fn synthetic_market_shaped(
    racks: usize,
    racks_per_pdu: usize,
    seed: u64,
) -> (PowerTopology, Vec<RackBid>, ConstraintSet) {
    let mut rng = Sampler::seeded(seed);
    let pdus = racks.div_ceil(racks_per_pdu);
    let mut builder = TopologyBuilder::new(Watts::new(1e9));
    for p in 0..pdus {
        builder = builder.pdu(Watts::new(64.0 * 8000.0));
        for r in 0..racks_per_pdu.min(racks - p * racks_per_pdu) {
            let i = p * racks_per_pdu + r;
            builder = builder.rack(TenantId::new(i), Watts::new(5000.0), Watts::new(2500.0));
        }
    }
    let topology = builder.build().expect("valid synthetic topology");
    let bids: Vec<RackBid> = (0..racks)
        .map(|i| {
            let d_max = rng.uniform_in(200.0, 2500.0);
            let d_min = rng.uniform_in(0.0, d_max);
            let q_min = rng.uniform_in(0.0, 0.2);
            let q_max = q_min + rng.uniform_in(0.01, 0.4);
            RackBid::new(
                RackId::new(i),
                LinearBid::new(
                    Watts::new(d_max),
                    Price::per_kw_hour(q_min),
                    Watts::new(d_min),
                    Price::per_kw_hour(q_max),
                )
                .expect("ordered random bid")
                .into(),
            )
        })
        .collect();
    // Roughly 15% of subscribed capacity available as spot.
    let pdu_spot = vec![Watts::new(64.0 * 5000.0 * 0.15); pdus];
    let ups_spot = Watts::new(racks as f64 * 5000.0 * 0.15);
    let constraints = ConstraintSet::new(&topology, pdu_spot, ups_spot);
    (topology, bids, constraints)
}

/// The two search steps of the figure, in ¢/kW/h.
const STEPS_CENTS: [f64; 2] = [1.0, 0.1];

/// Per step of [`STEPS_CENTS`]: the mean wall-clock milliseconds of
/// `reps` clears of a `racks`-rack market. Two unrelated books of the
/// same size alternate through one warm engine (buffers grown, nothing
/// else retained), the recipe of `BENCHMARK.json`'s
/// `core.clearing.synth15k.full_ms`.
fn time_full_clears(racks: usize, seed: u64, reps: u32) -> [f64; 2] {
    let (_topology, bids, constraints) = synthetic_market(racks, seed);
    let (_, other, _) = synthetic_market(racks, seed + 1);
    STEPS_CENTS.map(|step_cents| {
        let engine =
            MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(step_cents)));
        // Warm-up clear, then timed repetitions.
        let _ = engine.clear(Slot::ZERO, &bids, &constraints);
        let start = Instant::now();
        for i in 0..reps {
            let book = if i % 2 == 0 { &other } else { &bids };
            let outcome = engine.clear(Slot::ZERO, book, &constraints);
            assert!(outcome.sold() >= Watts::ZERO);
        }
        start.elapsed().as_secs_f64() * 1000.0 / f64::from(reps)
    })
}

/// Measures clearing time for each rack count × step size.
#[must_use]
pub fn compute(cfg: &ExpConfig) -> Vec<ClearingTiming> {
    let sizes: Vec<usize> = if cfg.quick {
        vec![100, 1000, 5000]
    } else {
        vec![100, 500, 1000, 5000, 10_000, 15_000, 100_000]
    };
    let reps = if cfg.quick { 2 } else { 5 };
    let mut out = Vec::new();
    for &racks in &sizes {
        let timed = time_full_clears(racks, cfg.seed, reps);
        for (step_cents, millis) in STEPS_CENTS.into_iter().zip(timed) {
            out.push(ClearingTiming {
                racks,
                step_cents,
                millis,
            });
        }
    }
    out
}

/// Renders Fig. 7(b).
#[must_use]
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let timings = compute(cfg);
    let mut table = TextTable::new(vec!["racks", "step (¢/kW)", "clearing time (ms)"]);
    for t in &timings {
        table.row(vec![
            t.racks.to_string(),
            format!("{:.1}", t.step_cents),
            format!("{:.2}", t.millis),
        ]);
    }
    let worst = timings.iter().map(|t| t.millis).fold(0.0, f64::max);
    let mut body = table.render();
    body.push_str(&format!(
        "\nworst case: {worst:.1} ms (paper: <1 s at 15,000 racks, 0.1 ¢ step)\n"
    ));
    ExpOutput {
        id: "fig7b".into(),
        title: "Market clearing time at scale".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearing_is_subsecond_at_scale() {
        let mut timings = compute(&ExpConfig::quick());
        // The quick grid stops at 5 000 racks; the paper's sentence is
        // about 15 000 (≈ 3 ms in release, so a debug build has two
        // orders of margin).
        let at_scale = time_full_clears(15_000, 42, 2);
        for (step_cents, millis) in STEPS_CENTS.into_iter().zip(at_scale) {
            timings.push(ClearingTiming {
                racks: 15_000,
                step_cents,
                millis,
            });
        }
        for t in &timings {
            assert!(
                t.millis < 1000.0,
                "{} racks at {}¢ took {:.0} ms",
                t.racks,
                t.step_cents,
                t.millis
            );
        }
    }

    #[test]
    fn clearing_handles_hyperscale_markets() {
        // An order of magnitude past the paper's 15k racks: a 100k-rack
        // market must clear on the columnar path in sane wall-clock even
        // in a debug build — the bound is generous
        // (this is a correctness-at-scale guard, not a benchmark; for
        // measured numbers run `repro --exp fig7b`).
        let (_, bids, cs) = synthetic_market(100_000, 42);
        let engine = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(1.0)));
        let start = std::time::Instant::now();
        let out = engine.clear(Slot::ZERO, &bids, &cs);
        let elapsed = start.elapsed();
        assert!(out.sold() > Watts::ZERO, "hyperscale market sold nothing");
        assert!(out.candidates_evaluated() > 0);
        assert!(
            elapsed.as_secs() < 60,
            "100k-rack clear took {elapsed:?} (debug build bound)"
        );
    }

    #[test]
    fn per_pdu_pricing_handles_hyperscale_markets() {
        // The same 100k racks priced per PDU, in the hyperscale
        // scenario's shape: four racks per PDU, so 25 000 sub-markets.
        // The walk holds one constraint set (~1.6 MB here); a clone per
        // sub-market would need ~40 GB alive at once.
        let (_, bids, cs) = synthetic_market_shaped(100_000, 4, 42);
        let engine = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(1.0)));
        let start = std::time::Instant::now();
        let outcomes = engine.clear_per_pdu(Slot::ZERO, &bids, &cs);
        let elapsed = start.elapsed();
        assert_eq!(outcomes.len(), 25_000);
        let sold: Watts = outcomes.iter().map(spotdc_core::MarketOutcome::sold).sum();
        assert!(sold > Watts::ZERO, "hyperscale per-PDU market sold nothing");
        assert!(sold <= cs.ups_spot() + Watts::new(1e-3));
        assert!(
            elapsed.as_secs() < 60,
            "100k-rack per-PDU clear took {elapsed:?} (debug build bound)"
        );
    }

    #[test]
    fn coarser_step_is_faster() {
        // Real sweeps, so ten times fewer candidates must simply win.
        // Up to three tries per size: under `cargo test`'s parallel
        // threads a pre-empted sub-millisecond coarse run can lose to an
        // undisturbed fine one, which says nothing about the sweep.
        for racks in [100, 1000, 5000] {
            let faster = (0..3).any(|_| {
                let [coarse, fine] = time_full_clears(racks, 42, 2);
                coarse < fine
            });
            assert!(faster, "{racks} racks: 1¢ never beat 0.1¢");
        }
    }

    #[test]
    fn synthetic_market_shape() {
        let (topo, bids, cs) = synthetic_market(200, 1);
        assert_eq!(topo.rack_count(), 200);
        assert_eq!(bids.len(), 200);
        assert_eq!(topo.pdu_count(), 4);
        assert!(cs.ups_spot() > Watts::ZERO);
    }
}
