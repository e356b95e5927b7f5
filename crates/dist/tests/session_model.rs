//! Exhaustive small-state model of the shard session protocol.
//!
//! A shard session is two states wide — statics held or not — plus an
//! epoch, so its whole reachable behaviour fits in an enumeration:
//! every frame sequence of [`DEPTH`] steps over [`KINDS`] × [`LISTS`]
//! is driven through a fresh [`MarketShard`], and after every step the
//! shard must agree with a four-line model of the rule ("statics-
//! bearing frames are adopted at any epoch; statics-less ones need held
//! statics and exactly the next epoch") and with cold clears of the
//! frame's tasks, bit for bit.

use std::collections::BTreeMap;

use spotdc_core::{
    max_perf_allocate, ClearResult, ClearingConfig, ConcaveGain, ConstraintSet, LinearBid,
    MarketClearing, RackBid, StepBid, TaskShip, WireMsg,
};
use spotdc_dist::MarketShard;
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

/// Frames per sequence. Shorter sequences are the prefixes: every
/// assertion runs after every step.
const DEPTH: usize = 4;

/// What a frame carries and at which epoch, relative to the epoch the
/// shard holds when it arrives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Statics-bearing at `held + 1`: the controller's ordinary sync.
    Sync,
    /// Statics-bearing at epoch 1 whatever is held: a controller that
    /// restarted its count (equal, lower or higher than held).
    SyncFromOne,
    /// Statics-less at `held + 1`: the warm path — or, on a shard that
    /// never saw statics, a frame it must refuse.
    Next,
    /// Statics-less at `held`: a duplicate.
    Duplicate,
    /// Statics-less at `held + 2`: a frame went missing.
    Gap,
}

const KINDS: [Kind; 5] = [
    Kind::Sync,
    Kind::SyncFromOne,
    Kind::Next,
    Kind::Duplicate,
    Kind::Gap,
];

/// Task lists of 0..=2 tasks: `M` a two-bid book, `m` a one-bid book,
/// `e` a market task with no bids, `X` a MaxPerf task. Between them:
/// either kind first, an empty list, an empty book, the same book twice
/// in a row on the shard's engine (`M`, `MX`) and a different one
/// (`Xm`, `eM`).
const LISTS: [&str; 5] = ["", "M", "MX", "Xm", "eM"];

fn config() -> ClearingConfig {
    // A coarse grid keeps each of the ~1.5 million clears tiny.
    ClearingConfig::grid(Price::cents_per_kw_hour(2.0))
}

/// The constraint set of statics variant `variant`, built from scratch:
/// variant 1 adds a heat zone, which also routes its clears through the
/// engine's zoned scan.
fn constraints(variant: usize, pdu_spot: Vec<Watts>, ups_spot: Watts) -> ConstraintSet {
    let topo = TopologyBuilder::new(Watts::new(400.0))
        .pdu(Watts::new(200.0))
        .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
        .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
        .pdu(Watts::new(200.0))
        .rack(TenantId::new(2), Watts::new(90.0), Watts::new(45.0))
        .build()
        .unwrap();
    let set = ConstraintSet::new(&topo, pdu_spot, ups_spot);
    if variant == 1 {
        set.with_zone(
            "aisle",
            vec![RackId::new(0), RackId::new(2)],
            Watts::new(35.0),
        )
    } else {
        set
    }
}

fn pdu_spot(step: usize) -> Vec<Watts> {
    let s = step as f64;
    vec![Watts::new(60.0 - 7.0 * s), Watts::new(30.0 + 5.0 * s)]
}

fn tasks(list: &str, step: usize) -> Vec<TaskShip> {
    let s = step as f64;
    let step_bid = |rack, watts, price| {
        let demand = StepBid::new(Watts::new(watts), Price::per_kw_hour(price)).unwrap();
        RackBid::new(RackId::new(rack), demand.into())
    };
    let linear = LinearBid::new(
        Watts::new(40.0),
        Price::per_kw_hour(0.05),
        Watts::new(10.0),
        Price::per_kw_hour(0.30),
    )
    .unwrap();
    let market = |ups: f64, bids| TaskShip::Market {
        ups_spot: Watts::new(ups),
        bids,
    };
    list.chars()
        .map(|c| match c {
            'M' => market(
                55.0 - 4.0 * s,
                vec![
                    RackBid::new(RackId::new(0), linear.into()),
                    step_bid(1, 25.0, 0.2),
                ],
            ),
            'm' => market(20.0 + 3.0 * s, vec![step_bid(2, 30.0, 0.12)]),
            'e' => market(40.0, Vec::new()),
            'X' => TaskShip::MaxPerf {
                ups_spot: Watts::new(35.0 + 2.0 * s),
                gains: [(1, vec![(20.0, 2.0), (15.0, 0.5)]), (2, vec![(25.0, 1.5)])]
                    .into_iter()
                    .map(|(rack, segs)| (RackId::new(rack), ConcaveGain::new(segs).unwrap()))
                    .collect::<BTreeMap<_, _>>(),
            },
            other => unreachable!("no task kind {other}"),
        })
        .collect()
}

/// What a cold, sessionless clear of the frame's tasks returns: a fresh
/// engine and a from-scratch constraint set per task.
fn cold(variant: usize, step: usize, list: &str) -> Vec<ClearResult> {
    tasks(list, step)
        .into_iter()
        .map(|task| match task {
            TaskShip::Market { ups_spot, bids } => {
                ClearResult::Market(MarketClearing::new(config()).clear(
                    Slot::new(step as u64),
                    &bids,
                    &constraints(variant, pdu_spot(step), ups_spot),
                ))
            }
            TaskShip::MaxPerf { ups_spot, gains } => ClearResult::MaxPerf(max_perf_allocate(
                &gains,
                &constraints(variant, pdu_spot(step), ups_spot),
            )),
        })
        .collect()
}

#[test]
fn every_short_frame_sequence_follows_the_session_rule() {
    // oracle[variant][step][list]
    let oracle: Vec<Vec<Vec<Vec<ClearResult>>>> = (0..2)
        .map(|variant| {
            (0..DEPTH)
                .map(|step| LISTS.iter().map(|l| cold(variant, step, l)).collect())
                .collect()
        })
        .collect();
    // The statics a sync frame ships carry stale spot capacities: the
    // shard must take both from the frame and the task, never from here.
    let shipped: Vec<ConstraintSet> = (0..2)
        .map(|variant| constraints(variant, vec![Watts::new(1.0); 2], Watts::new(2.0)))
        .collect();
    // frames[step][list]
    let frames: Vec<Vec<Vec<TaskShip>>> = (0..DEPTH)
        .map(|step| LISTS.iter().map(|l| tasks(l, step)).collect())
        .collect();
    let spots: Vec<Vec<Watts>> = (0..DEPTH).map(pdu_spot).collect();

    let letters = KINDS.len() * LISTS.len();
    let mut accepted_frames = 0_u64;
    for seq in 0..letters.pow(DEPTH as u32) {
        let mut shard = MarketShard::new(0, 1, config());
        // The model: which statics variant is held, at which epoch, and
        // how many market tasks with live bids were cleared.
        let (mut held, mut held_epoch, mut cleared) = (None, 0_u64, 0_u64);
        let mut rest = seq;
        for step in 0..DEPTH {
            let (kind, list) = (KINDS[rest % KINDS.len()], rest / KINDS.len() % LISTS.len());
            rest /= letters;
            let (variant, epoch) = match kind {
                Kind::Sync => (Some(step % 2), held_epoch + 1),
                Kind::SyncFromOne => (Some(step % 2), 1),
                Kind::Next => (None, held_epoch + 1),
                Kind::Duplicate => (None, held_epoch),
                Kind::Gap => (None, held_epoch + 2),
            };
            let accept = variant.is_some() || (held.is_some() && epoch == held_epoch + 1);
            let slot = Slot::new(step as u64);
            let before = shard.cache_stats();
            let reply = shard.handle_frame(
                slot,
                epoch,
                variant.map(|v| shipped[v].clone()),
                &spots[step],
                frames[step][list].clone(),
            );
            let at = || format!("sequence {seq} step {step}: {kind:?} {:?}", LISTS[list]);
            if accept {
                held = variant.or(held);
                held_epoch = epoch;
                cleared += LISTS[list].matches(['M', 'm']).count() as u64;
                accepted_frames += 1;
                let want = WireMsg::ShardCleared {
                    slot,
                    epoch,
                    results: oracle[held.unwrap()][step][list].clone(),
                    cache: shard.cache_stats(),
                };
                assert_eq!(reply, want, "{}", at());
            } else {
                let want = WireMsg::ResyncNeeded {
                    slot,
                    epoch: held_epoch,
                };
                assert_eq!(reply, want, "{}", at());
                assert_eq!(shard.cache_stats(), before, "{}: a refusal cleared", at());
            }
            assert_eq!(shard.epoch(), held_epoch, "{}", at());
            let stats = shard.cache_stats();
            assert_eq!(
                stats.full_sweeps + stats.cache_hits + stats.legacy_scans,
                cleared,
                "{}: {stats:?}",
                at()
            );
            assert_eq!(stats.delta_sweeps, 0, "{}", at());
        }
    }
    // Both arms of the rule ran, many times over.
    assert!(accepted_frames > 0 && accepted_frames < (DEPTH * letters.pow(DEPTH as u32)) as u64);
}
