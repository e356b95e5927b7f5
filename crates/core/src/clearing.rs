//! Uniform-price market clearing (Eq. 1 subject to Eqns. 2–4).
//!
//! The operator chooses one price `q` maximizing revenue
//! `q · Σ_r D_r(q)` over prices at which the induced demands fit every
//! capacity constraint. Because all demand functions are non-increasing
//! in price, the feasible set is upward-closed: raising the price only
//! sheds demand, so a sufficiently high price is always feasible and
//! selling spot capacity can never create a power emergency.
//!
//! The search is the paper's: evaluate every multiple of a configurable
//! price step (0.1–1 ¢/kW in the paper) up to the highest bid ceiling —
//! simple, predictable, sub-second even at 15 000 racks (Fig. 7b). An
//! exact enumeration of demand kinks and revenue vertices was tried and
//! rejected as quadratic in the bid count for under 0.1 % more revenue
//! (DESIGN.md §4.1).
//!
//! The hot path evaluates candidates against a *columnar
//! bid book* ([`BidBook`]): live bids are decomposed once per slot into
//! flat arrays of headroom, per-PDU chain and demand segments, and the
//! sweep runs *bid-major* — each piece of a bid's curve covers one
//! contiguous range of the ascending candidates, found from a grid
//! hint and summed by a straight-line loop, and the all-zero tail
//! above a bid's ceiling is never visited. Only what can decide the
//! price is summed: a PDU's per-candidate sums only if its bidders'
//! headrooms could exceed its spot capacity at all, every sum only
//! from the first candidate no PDU has ruled out yet, and exact totals
//! only where bounds on them cannot name the winner (DESIGN.md §13).
//! The sweep is bit-identical to the straightforward per-candidate
//! scan, which remains in the code as the *legacy* fallback for
//! heat-zone/phase constrained markets.
//!
//! Clearing keeps no market state between calls, as in the paper's
//! Algorithm 1: every non-empty clear regenerates the grid, sweeps and
//! selects, so an outcome is a pure function of
//! `(config, bids, constraints)`. What an engine retains is buffers
//! (recycled, so a warm clear makes one allocation: its outcome's
//! rack-ordered grant vector) and counters — DESIGN.md §13, "Why
//! clearing keeps no state".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use spotdc_units::{Price, RackId, Slot, Watts};

use crate::allocation::SpotAllocation;
use crate::bid::RackBid;
use crate::constraints::{ConstraintSet, TOLERANCE};
use crate::demand::{DemandBid, EPS};
use crate::wire::TaskShip;

/// Most candidate prices one clearing scans. Bid ceilings arrive from
/// tenants (and, on shard agents, straight off a pipe) with no upper
/// bound, and the candidate list plus the per-candidate sums are sized
/// from the highest one; a ceiling beyond `MAX_CANDIDATES` steps is
/// therefore cleared *within the scanned range* — prices
/// `0, step, …, (MAX_CANDIDATES − 1) · step` — rather than by growing
/// the scan. Every scanned price is still checked against Eqns. 2–4,
/// so the outcome stays feasible; only revenue above the range is
/// forgone. At the paper's 0.1 ¢ step the range ends at $16.38/kW/h,
/// some 30× any price a scenario bids.
const MAX_CANDIDATES: usize = 1 << 14;

/// Configuration for the clearing search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClearingConfig {
    /// Spacing of the scanned candidate prices.
    pub price_step: Price,
}

impl ClearingConfig {
    /// Grid scan at the given step (the paper uses 0.1–1 ¢/kW/h).
    #[must_use]
    pub fn grid(step: Price) -> Self {
        ClearingConfig { price_step: step }
    }
}

impl Default for ClearingConfig {
    fn default() -> Self {
        ClearingConfig::grid(Price::cents_per_kw_hour(0.1))
    }
}

/// The result of clearing one slot's market.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketOutcome {
    allocation: SpotAllocation,
    /// Revenue rate in $/hour at the clearing price.
    revenue_rate: f64,
    /// Size of the price grid the search considered.
    candidates: usize,
}

impl MarketOutcome {
    /// The resulting spot allocation (possibly empty).
    #[must_use]
    pub fn allocation(&self) -> &SpotAllocation {
        &self.allocation
    }

    /// Consumes the outcome, yielding the allocation.
    #[must_use]
    pub fn into_allocation(self) -> SpotAllocation {
        self.allocation
    }

    /// The uniform clearing price.
    #[must_use]
    pub fn price(&self) -> Price {
        self.allocation.price()
    }

    /// Total spot capacity sold.
    #[must_use]
    pub fn sold(&self) -> Watts {
        self.allocation.total()
    }

    /// The operator's revenue rate at the clearing price, $/hour.
    #[must_use]
    pub fn revenue_rate(&self) -> f64 {
        self.revenue_rate
    }

    /// Size of the price grid the search considered — the prices the
    /// outcome is the best of, not how many of them had to be summed.
    #[must_use]
    pub fn candidates_evaluated(&self) -> usize {
        self.candidates
    }
}

impl spotdc_durable::Persist for MarketOutcome {
    fn persist(&self, enc: &mut spotdc_durable::Encoder) {
        self.allocation.persist(enc);
        enc.put_f64(self.revenue_rate);
        enc.put_usize(self.candidates);
    }

    fn restore(dec: &mut spotdc_durable::Decoder<'_>) -> Result<Self, spotdc_durable::DecodeError> {
        Ok(MarketOutcome {
            allocation: SpotAllocation::restore(dec)?,
            revenue_rate: dec.get_f64()?,
            candidates: dec.get_usize()?,
        })
    }
}

/// The market-clearing engine.
///
/// # Examples
///
/// ```
/// use spotdc_core::{demand::StepBid, ClearingConfig, ConstraintSet, MarketClearing, RackBid};
/// use spotdc_power::topology::TopologyBuilder;
/// use spotdc_units::{Price, RackId, Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(300.0))
///     .pdu(Watts::new(200.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .build()?;
/// let cs = ConstraintSet::new(&topo, vec![Watts::new(50.0)], Watts::new(50.0));
/// let bids = vec![RackBid::new(
///     RackId::new(0),
///     StepBid::new(Watts::new(40.0), Price::per_kw_hour(0.3))?.into(),
/// )];
/// let outcome = MarketClearing::new(ClearingConfig::default()).clear(Slot::ZERO, &bids, &cs);
/// // A lone step bid clears at its own price cap.
/// assert_eq!(outcome.sold(), Watts::new(40.0));
/// assert!((outcome.price().per_kw_hour_value() - 0.3).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MarketClearing {
    config: ClearingConfig,
    /// The engine's reusable buffers. A clearing (or a whole
    /// [`Self::clear_tasks`] run) takes them with `try_lock` and holds
    /// them throughout; a concurrent caller finds them busy and works
    /// from a stack-local scratch instead (the same outcome, it only
    /// allocates), so parallel per-PDU runs never serialize on it. A
    /// poisoned scratch — a panic mid-clearing — is never reacquired.
    scratch: Mutex<Scratch>,
    /// Clear counters, updated with relaxed atomics on every clearing
    /// regardless of telemetry state.
    stats: ClearCounters,
}

/// Internal clear counters (relaxed atomics so concurrent per-PDU
/// clears never contend). Snapshot via [`MarketClearing::cache_stats`].
#[derive(Debug, Default)]
struct ClearCounters {
    full_sweeps: AtomicU64,
    legacy_scans: AtomicU64,
    candidates_total: AtomicU64,
}

/// A snapshot of one engine's clear counters.
///
/// `full_sweeps + legacy_scans` equals the number of non-empty markets
/// cleared. The name and the three constant fields are what is left of
/// the cross-slot caches; they stay, with their wire words, only until
/// the external `benchmark/` package stops reading them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClearingCacheStats {
    /// Markets cleared by the columnar sweep.
    pub full_sweeps: u64,
    /// Always 0 (no hit cache exists); see the struct docs.
    pub cache_hits: u64,
    /// Always 0 (no delta mode exists); see the struct docs.
    pub delta_sweeps: u64,
    /// Markets routed through the legacy per-candidate scan (heat-zone
    /// or phase-balance constraints, or a bid on an unknown PDU).
    pub legacy_scans: u64,
    /// Candidate prices considered across all clearings.
    pub candidates_total: u64,
    /// Always equal to `candidates_total` (every clear scans every
    /// candidate); see the struct docs.
    pub candidates_swept: u64,
}

/// One engine's reusable buffers, each O(candidates + bids) long: the
/// candidate prices, the columnar bid book and the per-candidate sums.
/// Every field is rebuilt from the inputs on each clear before it is
/// read; nothing here carries market state from one clear to the next.
#[derive(Debug, Default)]
struct Scratch {
    /// This clear's candidate prices, ascending.
    candidates: Vec<Price>,
    /// Indices into the caller's bid slice for live (non-null) bids —
    /// hoisted here so the hot path allocates nothing per call.
    live: Vec<u32>,
    /// The current slot's columnar bid book.
    book: BidBook,
    /// Per-candidate clipped-demand totals (parallel to `candidates`,
    /// plus a closing cell), exact wherever `ruled_out` is unset.
    totals: Vec<f64>,
    /// The same sums over the bids of the one PDU being checked;
    /// all-zero between PDUs, the approximate totals after the last.
    pdu_row: Vec<f64>,
    /// Per-candidate "cannot be the price" flags: some PDU is over
    /// capacity, or the bounds on the total rule the candidate out.
    ruled_out: Vec<bool>,
}

/// One linear-or-constant piece of a bid's demand curve; past its last
/// piece a bid demands exactly zero. Where a piece ends among the
/// candidates is found when the book is built and kept beside it, so
/// the piece itself is only its values.
#[derive(Debug, Clone, Copy)]
enum Segment {
    Const(f64),
    Interp { q0: f64, dq: f64, a: f64, b: f64 },
}

impl Segment {
    /// The piece's demand at `q`, unclipped: its value, or `demand_at`'s
    /// own interpolation.
    #[inline]
    fn at(self, q: f64) -> f64 {
        match self {
            Segment::Const(v) => v,
            Segment::Interp { q0, dq, a, b } => a + (b - a) * ((q - q0) / dq),
        }
    }
}

/// Whether `q` lies beyond a piece valid up to `bound`, reproducing the
/// corresponding `demand_at` implementation bit for bit — including its
/// comparison style: `fuzzy` pieces end when `bound <= q + EPS` (the
/// `partition_point` predicate of [`crate::demand::FullBid`]) while
/// exact pieces end when `q > bound` with `EPS` pre-added into the
/// bound (the `LinearBid`/`StepBid` style). The two are *not*
/// interchangeable. Monotone in `q` for either style, so the candidates
/// a piece covers are one contiguous run.
#[inline]
fn passed(bound: f64, fuzzy: bool, q: f64) -> bool {
    if fuzzy {
        bound <= q + EPS
    } else {
        q > bound
    }
}

/// Decomposes `d` into its [`Segment`] chain, matching the region
/// boundaries and arithmetic of `d.demand_at` exactly: `push` gets each
/// piece in order with the bound it is valid up to and whether that
/// bound compares `fuzzy` (see [`passed`]).
#[inline]
fn for_each_segment(d: &DemandBid, mut push: impl FnMut(f64, bool, Segment)) {
    match d {
        DemandBid::Linear(b) => {
            let d_max = b.d_max().value();
            let d_min = b.d_min().value();
            let q0 = b.q_min().per_kw_hour_value();
            let q1 = b.q_max().per_kw_hour_value();
            push(q0 + EPS, false, Segment::Const(d_max));
            let seg = if q1 - q0 <= EPS {
                // Degenerate step at q0 == q1: demand D_max up to it.
                Segment::Const(d_max)
            } else {
                Segment::Interp {
                    q0,
                    dq: q1 - q0,
                    a: d_max,
                    b: d_min,
                }
            };
            push(q1 + EPS, false, seg);
        }
        DemandBid::Step(b) => {
            let cap = b.price_cap().per_kw_hour_value();
            push(cap + EPS, false, Segment::Const(b.demand().value()));
        }
        DemandBid::Full(b) => {
            let pts = b.points();
            let first = pts[0];
            push(
                first.0.per_kw_hour_value() + EPS,
                false,
                Segment::Const(first.1.value()),
            );
            for w in pts.windows(2) {
                let (q0, d0) = (w[0].0.per_kw_hour_value(), w[0].1.value());
                let (q1, d1) = (w[1].0.per_kw_hour_value(), w[1].1.value());
                let span = q1 - q0;
                let seg = if span <= EPS {
                    Segment::Const(d1)
                } else {
                    Segment::Interp {
                        q0,
                        dq: span,
                        a: d0,
                        b: d1,
                    }
                };
                push(q1, true, seg);
            }
            let last = pts[pts.len() - 1];
            push(
                last.0.per_kw_hour_value() + EPS,
                false,
                Segment::Const(last.1.value()),
            );
        }
    }
}

/// The columnar bid book: one slot's live bids decomposed into flat
/// parallel arrays (structure-of-arrays), so the price sweep touches
/// contiguous memory instead of chasing `RackBid` enum layouts.
///
/// PDUs are remapped to compact *slots* in first-appearance order
/// (`touched`/`slot_lookup`), however sparse the global PDU space.
#[derive(Debug, Default)]
struct BidBook {
    /// Rack of each bid.
    rack: Vec<RackId>,
    /// Rack headroom (watts) per bid.
    headroom: Vec<f64>,
    /// The next bid on the same PDU, in bid order (`u32::MAX` = none).
    next_bid: Vec<u32>,
    /// First segment of each bid's chain in `segs`, plus one closing
    /// entry: bid `j`'s chain is `segs[seg_start[j]..seg_start[j + 1]]`.
    seg_start: Vec<u32>,
    /// All bids' segment chains, concatenated.
    segs: Vec<Segment>,
    /// End of the candidate range each piece of `segs` covers (parallel
    /// to it); a range starts where the bid's previous piece ends.
    seg_end: Vec<u32>,
    /// Global index of each PDU with a bid, in first-appearance order.
    touched: Vec<u32>,
    /// Current spot capacity (watts) of each touched PDU.
    touched_spot: Vec<f64>,
    /// The most each touched PDU's bids can demand together at any
    /// price: their `clip(∞, headroom)` summed in bid order.
    touched_most: Vec<f64>,
    /// Head and tail of each touched PDU's `next_bid` chain.
    first_bid: Vec<u32>,
    last_bid: Vec<u32>,
    /// Global PDU index → compact slot (`u32::MAX` = untouched).
    /// Persists across builds; reset via the previous `touched` list.
    slot_lookup: Vec<u32>,
    /// Whether any live bid's rack has no known PDU (forces the legacy
    /// fallback: such markets are wholly infeasible).
    any_unknown_pdu: bool,
}

impl BidBook {
    /// Rebuilds the book for one slot's live bids over the ascending
    /// `candidates`, each piece's end found as it is pushed. Reuses
    /// every buffer; `slot_lookup` is un-marked via the *old* `touched`
    /// list first so it never needs a full clear.
    fn build(
        &mut self,
        bids: &[RackBid],
        live: &[u32],
        constraints: &ConstraintSet,
        candidates: &[Price],
    ) {
        for &p in &self.touched {
            self.slot_lookup[p as usize] = u32::MAX;
        }
        self.rack.clear();
        self.headroom.clear();
        self.next_bid.clear();
        self.seg_start.clear();
        self.segs.clear();
        self.seg_end.clear();
        self.touched.clear();
        self.touched_spot.clear();
        self.touched_most.clear();
        self.first_bid.clear();
        self.last_bid.clear();
        self.any_unknown_pdu = false;
        let (n, q) = (candidates.len(), |i: usize| {
            candidates[i].per_kw_hour_value()
        });
        let step = q(1);
        for (j, &i) in live.iter().enumerate() {
            let b = &bids[i as usize];
            let headroom = constraints.rack_headroom(b.rack()).value();
            self.rack.push(b.rack());
            self.headroom.push(headroom);
            self.next_bid.push(u32::MAX);
            match constraints.pdu_of(b.rack()) {
                Some(p) => {
                    let pi = p.index();
                    if pi >= self.slot_lookup.len() {
                        self.slot_lookup.resize(pi + 1, u32::MAX);
                    }
                    let mut slot = self.slot_lookup[pi] as usize;
                    if slot == u32::MAX as usize {
                        slot = self.touched.len();
                        self.slot_lookup[pi] = slot as u32;
                        self.touched.push(pi as u32);
                        self.touched_spot.push(constraints.pdu_spot(p).value());
                        self.touched_most.push(0.0);
                        self.first_bid.push(j as u32);
                        self.last_bid.push(j as u32);
                    } else {
                        // Chains keep bid order, the order
                        // `feasible_total` adds a PDU's demands in.
                        self.next_bid[self.last_bid[slot] as usize] = j as u32;
                        self.last_bid[slot] = j as u32;
                    }
                    self.touched_most[slot] += clip(f64::INFINITY, headroom);
                }
                None => self.any_unknown_pdu = true,
            }
            self.seg_start.push(self.segs.len() as u32);
            // Each piece's end as it is pushed: the first candidate from
            // the previous piece's end on that [`passed`] holds at.
            // Candidate `i` is `i · step`, so `bound / step + 1` says
            // where to start; walking up while the piece is not passed,
            // then down while the candidate below is, ends on that
            // monotone predicate's partition point wherever it began —
            // a wrong hint costs comparisons, nothing else.
            let (segs, seg_end, mut end) = (&mut self.segs, &mut self.seg_end, 0);
            for_each_segment(b.demand(), |bound, fuzzy, seg| {
                let floor = end;
                end = ((bound / step + 1.0) as usize).clamp(floor, n);
                while end < n && !passed(bound, fuzzy, q(end)) {
                    end += 1;
                }
                while end > floor && passed(bound, fuzzy, q(end - 1)) {
                    end -= 1;
                }
                segs.push(seg);
                seg_end.push(end as u32);
            });
        }
        self.seg_start.push(self.segs.len() as u32);
    }

    /// Adds bid `j`'s clipped demand into `sums` (parallel to
    /// `candidates`, cut off where the caller's window ends) at every
    /// candidate from `from` up that one of its pieces covers; returns
    /// where its last piece ends (`from` at least). The one loop
    /// per-PDU sums and totals both go through: a precomputed value or
    /// `demand_at`'s own expression, per piece kind.
    fn add_bid(&self, candidates: &[Price], j: usize, from: usize, sums: &mut [f64]) -> usize {
        let h = self.headroom[j];
        let chain = self.seg_start[j] as usize..self.seg_start[j + 1] as usize;
        let mut lo = from;
        for (seg, &hi) in self.segs[chain.clone()].iter().zip(&self.seg_end[chain]) {
            let hi = (hi as usize).clamp(lo, sums.len());
            match *seg {
                Segment::Const(v) => {
                    let d = clip(v, h);
                    sums[lo..hi].iter_mut().for_each(|sum| *sum += d);
                }
                seg @ Segment::Interp { .. } => {
                    let cells = sums[lo..hi].iter_mut().zip(&candidates[lo..hi]);
                    cells.for_each(|(sum, q)| *sum += clip(seg.at(q.per_kw_hour_value()), h));
                }
            }
            lo = hi;
        }
        lo
    }

    /// Bid `j`'s clipped demand at candidate `i`: the piece covering `i`
    /// evaluated there, or `clip(0, h)` past its last piece, where
    /// `demand_at` is zero — `demand_at(q).min(h).clamp_non_negative()`
    /// bit for bit, `±0` included.
    fn demand_at(&self, candidates: &[Price], j: usize, i: usize) -> f64 {
        let chain = self.seg_start[j] as usize..self.seg_start[j + 1] as usize;
        let mut pieces = self.segs[chain.clone()].iter().zip(&self.seg_end[chain]);
        let d = pieces
            .find(|&(_, &end)| end as usize > i)
            .map_or(0.0, |(seg, _)| seg.at(candidates[i].per_kw_hour_value()));
        clip(d, self.headroom[j])
    }
}

impl Clone for MarketClearing {
    fn clone(&self) -> Self {
        // Scratch is per-instance buffers, not state: clones start empty.
        MarketClearing::new(self.config)
    }
}

impl Default for MarketClearing {
    fn default() -> Self {
        MarketClearing::new(ClearingConfig::default())
    }
}

impl MarketClearing {
    /// Creates a clearing engine with the given configuration.
    #[must_use]
    pub fn new(config: ClearingConfig) -> Self {
        MarketClearing {
            config,
            scratch: Mutex::new(Scratch::default()),
            stats: ClearCounters::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ClearingConfig {
        &self.config
    }

    /// A snapshot of this engine's clear counters: how many clearings
    /// were swept or routed through the legacy scan.
    #[must_use]
    pub fn cache_stats(&self) -> ClearingCacheStats {
        let candidates_total = self.stats.candidates_total.load(Ordering::Relaxed);
        ClearingCacheStats {
            full_sweeps: self.stats.full_sweeps.load(Ordering::Relaxed),
            cache_hits: 0,
            delta_sweeps: 0,
            legacy_scans: self.stats.legacy_scans.load(Ordering::Relaxed),
            candidates_total,
            candidates_swept: candidates_total,
        }
    }

    /// Clears the market for `slot`: finds the revenue-maximizing
    /// feasible uniform price and the per-rack grants it induces.
    ///
    /// Bids whose demand is identically zero are ignored. If no bid is
    /// present (or no positive-revenue feasible price exists) the
    /// returned outcome carries an empty allocation. The outcome is a
    /// pure function of `(config, bids, constraints)`: nothing an
    /// earlier clearing left in the engine is read.
    #[must_use]
    pub fn clear(
        &self,
        slot: Slot,
        bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> MarketOutcome {
        self.with_scratch(|scratch| self.clear_in(scratch, slot, bids, constraints))
    }

    /// Runs `f` on the engine's scratch, or on a fresh stack-local one
    /// when it is busy (or poisoned).
    fn with_scratch<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut held) => f(&mut held),
            Err(_) => f(&mut Scratch::default()),
        }
    }

    /// [`Self::clear`] on a scratch the caller already holds.
    fn clear_in(
        &self,
        scratch: &mut Scratch,
        slot: Slot,
        bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> MarketOutcome {
        let _span = spotdc_telemetry::span!("clearing", slot = slot);
        scratch.live.clear();
        scratch.live.extend(
            bids.iter()
                .enumerate()
                .filter(|(_, b)| !b.demand().is_null())
                .map(|(i, _)| i as u32),
        );
        scratch.candidates.clear();
        if scratch.live.is_empty() {
            return self.finish(slot, scratch, constraints, None);
        }
        self.grid_candidates(bids, &scratch.live, &mut scratch.candidates);
        scratch
            .book
            .build(bids, &scratch.live, constraints, &scratch.candidates);
        let zoned = !constraints.zones().is_empty() || constraints.phases().is_some();
        let (best, tally) = if zoned {
            let best = legacy_scan(bids, &scratch.live, constraints, &scratch.candidates);
            (best, &self.stats.legacy_scans)
        } else if scratch.book.any_unknown_pdu {
            // `feasible_total` rejects every candidate when any live
            // bid's rack has no PDU, so the market clears empty.
            (None, &self.stats.legacy_scans)
        } else {
            let ups_limit = constraints.ups_spot().value() + TOLERANCE;
            scratch.sweep(ups_limit);
            (scratch.select_best(ups_limit), &self.stats.full_sweeps)
        };
        tally.fetch_add(1, Ordering::Relaxed);
        self.stats
            .candidates_total
            .fetch_add(scratch.candidates.len() as u64, Ordering::Relaxed);
        self.finish(slot, scratch, constraints, best)
    }

    /// Builds the outcome for the winning candidate `best` (its index
    /// and revenue rate) and records telemetry.
    fn finish(
        &self,
        slot: Slot,
        scratch: &Scratch,
        constraints: &ConstraintSet,
        best: Option<(usize, f64)>,
    ) -> MarketOutcome {
        let (allocation, revenue_rate) = match best {
            Some((i, rate)) if rate > 0.0 => {
                let price = scratch.candidates[i];
                let allocation = SpotAllocation::from_pairs(slot, price, scratch.grants_at(i));
                (allocation, rate)
            }
            _ => (SpotAllocation::none(slot), 0.0),
        };
        let outcome = MarketOutcome {
            allocation,
            revenue_rate,
            candidates: scratch.candidates.len(),
        };
        if spotdc_telemetry::is_enabled() {
            self.record_outcome(slot, &outcome, constraints);
        }
        outcome
    }

    /// Telemetry for one clearing: the `SlotCleared` event and
    /// `ConstraintBound` events for every capacity the winning
    /// allocation exhausted. Only called when telemetry is enabled.
    fn record_outcome(&self, slot: Slot, outcome: &MarketOutcome, constraints: &ConstraintSet) {
        use spotdc_telemetry::Event;
        use spotdc_units::MonotonicNanos;

        spotdc_telemetry::emit(Event::SlotCleared {
            slot,
            at: MonotonicNanos::now(),
            price_per_kw_hour: outcome.price().per_kw_hour_value(),
            sold_watts: outcome.sold().value(),
            revenue_rate_per_hour: outcome.revenue_rate(),
            candidates_evaluated: outcome.candidates as u64,
        });
        if outcome.allocation.is_empty() {
            return;
        }
        // A constraint is "bound" when the winning grants leave less
        // than a watt-scale epsilon of its spot capacity unused.
        let bound = |used: Watts, limit: Watts| -> bool {
            limit > Watts::ZERO && used.value() >= limit.value() - (1e-6 * limit.value() + 1e-9)
        };
        let mut per_pdu: std::collections::BTreeMap<usize, Watts> =
            std::collections::BTreeMap::new();
        let mut total = Watts::ZERO;
        for (rack, grant) in outcome.allocation.iter() {
            total += grant;
            if let Some(p) = constraints.pdu_of(rack) {
                *per_pdu.entry(p.index()).or_insert(Watts::ZERO) += grant;
            }
        }
        for (p, used) in per_pdu {
            let limit = constraints.pdu_spot(spotdc_units::PduId::new(p));
            if bound(used, limit) {
                spotdc_telemetry::emit(Event::ConstraintBound {
                    slot,
                    at: MonotonicNanos::now(),
                    constraint: format!("pdu-{p}"),
                    limit_watts: limit.value(),
                });
            }
        }
        if bound(total, constraints.ups_spot()) {
            spotdc_telemetry::emit(Event::ConstraintBound {
                slot,
                at: MonotonicNanos::now(),
                constraint: "ups".to_owned(),
                limit_watts: constraints.ups_spot().value(),
            });
        }
    }

    /// Grid candidates: every multiple of the step from 0 through the
    /// highest bid ceiling (inclusive, with one extra step beyond so a
    /// feasible zero-demand price always exists), ascending, at most
    /// [`MAX_CANDIDATES`] of them. Appends into `out` so the caller's
    /// buffer is recycled between clearings.
    fn grid_candidates(&self, bids: &[RackBid], live: &[u32], out: &mut Vec<Price>) {
        let ceiling = live
            .iter()
            .map(|&i| bids[i as usize].demand().price_ceiling())
            .fold(Price::ZERO, Price::max);
        let step = self.config.price_step.per_kw_hour_value().max(1e-9);
        // The float-to-int cast saturates, so no ceiling overflows it.
        let n = ((ceiling.per_kw_hour_value() / step).ceil() as usize).min(MAX_CANDIDATES - 2) + 1;
        out.extend((0..=n).map(|i| Price::per_kw_hour(i as f64 * step)));
    }
}

impl MarketClearing {
    /// Per-PDU pricing — the localized-price ablation of DESIGN.md.
    ///
    /// Instead of one uniform price, each PDU's bids are cleared
    /// independently against that PDU's spot capacity plus a
    /// proportional share of the UPS spot capacity. Localized prices
    /// can extract more revenue when PDUs are unevenly loaded, at the
    /// cost of the transparency/simplicity the paper argues for (and
    /// cross-PDU heat zones are only enforced within each sub-market).
    ///
    /// Returns one outcome per PDU that received bids, in PDU order.
    #[must_use]
    pub fn clear_per_pdu(
        &self,
        slot: Slot,
        bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> Vec<MarketOutcome> {
        let _span = spotdc_telemetry::span!("clear_per_pdu", slot = slot);
        let tasks: Vec<TaskShip> = self
            .per_pdu_submarket_shares(bids, constraints)
            .into_iter()
            .map(|(bids, ups_spot)| TaskShip { ups_spot, bids })
            .collect();
        self.clear_tasks(slot, &mut constraints.clone(), &tasks)
    }

    /// Clears a run of tasks in order against **one** retained
    /// constraint set, re-pointed at each task's UPS share with
    /// [`ConstraintSet::set_ups_spot`] — the clamp `with_ups_spot`
    /// applies, so every task reads bit for bit what
    /// `constraints.clone().with_ups_spot(share)` would hold while
    /// memory stays O(racks + bids), not O(tasks × racks). This is the
    /// one task walk: a local clear stage, [`Self::clear_per_pdu`] and
    /// a shard agent's frame handler all run it. `constraints` is left
    /// at the last task's share. The run holds one scratch throughout;
    /// callers fanning out across threads hand each worker a
    /// contiguous run of tasks and its own copy of the set, and
    /// concatenate the results in run order.
    #[must_use]
    pub fn clear_tasks(
        &self,
        slot: Slot,
        constraints: &mut ConstraintSet,
        tasks: &[TaskShip],
    ) -> Vec<MarketOutcome> {
        self.with_scratch(|scratch| {
            tasks
                .iter()
                .map(|task| {
                    constraints.set_ups_spot(task.ups_spot);
                    self.clear_in(scratch, slot, &task.bids, constraints)
                })
                .collect()
        })
    }

    /// Decomposes a per-PDU pricing round into its independent
    /// sub-markets: one `(bids, constraints)` pair per PDU that
    /// received bids, in PDU order, each with the PDU's proportional
    /// share of the UPS spot capacity. Sub-markets share no mutable
    /// state, so callers may clear them in any order — or concurrently
    /// — and merge outcomes back in this order to reproduce
    /// [`Self::clear_per_pdu`] exactly.
    ///
    /// Every pair owns a full clone of `constraints`, so this is
    /// O(sub-markets × racks) in memory. No product path calls it;
    /// it is the reference the tests (and the benchmark's split row)
    /// hold [`Self::clear_tasks`] against.
    #[must_use]
    pub fn per_pdu_submarkets(
        &self,
        bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> Vec<(Vec<RackBid>, ConstraintSet)> {
        self.per_pdu_submarket_shares(bids, constraints)
            .into_iter()
            .map(|(group, share)| (group, constraints.clone().with_ups_spot(share)))
            .collect()
    }

    /// Like [`Self::per_pdu_submarkets`] but returns each sub-market's
    /// UPS spot *share* instead of materializing a full constraint-set
    /// clone per group. The share is the exact value
    /// `per_pdu_submarkets` passes to [`ConstraintSet::with_ups_spot`],
    /// so `constraints.clone().with_ups_spot(share)` — or a retained
    /// set updated via [`ConstraintSet::set_ups_spot`] — reproduces the
    /// sub-market constraints bit for bit. [`Self::clear_tasks`] walks
    /// them, one [`TaskShip`] each, against one retained set,
    /// and the distributed controller ships one share per task instead
    /// of a cloned constraint set per task.
    #[must_use]
    pub fn per_pdu_submarket_shares(
        &self,
        bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> Vec<(Vec<RackBid>, Watts)> {
        use std::collections::BTreeMap;
        let mut by_pdu: BTreeMap<usize, Vec<RackBid>> = BTreeMap::new();
        for b in bids {
            if let Some(p) = constraints.pdu_of(b.rack()) {
                by_pdu.entry(p.index()).or_default().push(b.clone());
            }
        }
        let spot_total: f64 = by_pdu
            .keys()
            .map(|&p| constraints.pdu_spot(spotdc_units::PduId::new(p)).value())
            .sum();
        by_pdu
            .into_iter()
            .map(|(p, group)| {
                let pdu_spot = constraints.pdu_spot(spotdc_units::PduId::new(p));
                let share = if spot_total > 0.0 {
                    constraints.ups_spot() * (pdu_spot.value() / spot_total)
                } else {
                    Watts::ZERO
                };
                (group, share.min(constraints.ups_spot()))
            })
            .collect()
    }
}

/// The legacy per-candidate scan for heat-zone and phase-plan markets:
/// they need the BTreeMap-ordered extra checks of `feasible_total`,
/// whose accumulation order is part of the byte-identity contract.
fn legacy_scan(
    bids: &[RackBid],
    live: &[u32],
    constraints: &ConstraintSet,
    candidates: &[Price],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &q) in candidates.iter().enumerate() {
        let demands = live.iter().map(|&j| {
            let b = &bids[j as usize];
            (b.rack(), b.demand_at(q))
        });
        let Some(total) = constraints.feasible_total(demands) else {
            continue;
        };
        let rate = q.per_kw_hour_value() * total.kilowatts();
        match best {
            Some((_, best_rate)) if rate <= best_rate + 1e-12 => {}
            _ => best = Some((i, rate)),
        }
    }
    best
}

/// A piece's demand `d` clipped to rack headroom `h`: `min` then
/// clamp — `f64::min` and `< 0.0`, matching `Watts::min` /
/// `Watts::clamp_non_negative` bit for bit. Never above `clip(∞, h)`.
#[inline]
fn clip(d: f64, h: f64) -> f64 {
    let clip = d.min(h);
    if clip < 0.0 {
        0.0
    } else {
        clip
    }
}

impl Scratch {
    /// The bid-major price sweep: fills `ruled_out` and `totals` for
    /// [`Self::select_best`], skipping cells that cannot decide the
    /// price (DESIGN.md §13 argues each skip). Sums add their bids in
    /// bid order, so a cell that is read holds the addends of
    /// `feasible_total` less some `+ 0.0` terms — the identity on a sum
    /// that starts at `+0.0` and only adds non-negative or `-0.0`
    /// values — and is bit-identical to the legacy scan's.
    fn sweep(&mut self, ups_limit: f64) {
        let n = self.candidates.len();
        self.ruled_out.clear();
        self.ruled_out.resize(n, false);
        self.pdu_row.clear();
        self.pdu_row.resize(n + 1, 0.0);
        // Every candidate below `from` is flagged and a flag is never
        // unset, so no sum is read there — and none is written there.
        let mut from = 0;
        for (s, &cap) in self.book.touched_spot.iter().enumerate() {
            // f64 addition is monotone in both arguments, so no sum of
            // this PDU's demands exceeds the sum of their bounds.
            if self.book.touched_most[s] <= cap + TOLERANCE {
                continue;
            }
            let (mut j, mut end) = (self.book.first_bid[s], from);
            while j != u32::MAX {
                let row = &mut self.pdu_row[..n];
                end = end.max(self.book.add_bid(&self.candidates, j as usize, from, row));
                j = self.book.next_bid[j as usize];
            }
            let row = &mut self.pdu_row[from..end];
            for (over, used) in self.ruled_out[from..end].iter_mut().zip(row) {
                *over |= *used > cap + TOLERANCE;
                *used = 0.0;
            }
            while from < n && self.ruled_out[from] {
                from += 1;
            }
        }
        self.totals.clear();
        self.totals.resize(n + 1, 0.0);
        self.rule_out_losers(from, ups_limit);
        // Exact totals from the first to the last candidate still in.
        let flags = &self.ruled_out[from..];
        let lo = from + flags.iter().position(|&out| !out).unwrap_or(flags.len());
        let hi = n - flags.iter().rev().position(|&out| !out).unwrap_or(n - lo);
        for j in 0..self.book.headroom.len() {
            self.book
                .add_bid(&self.candidates, j, lo, &mut self.totals[..hi]);
        }
    }

    /// Flags the candidates from `from` up whose exact total need not
    /// be known (DESIGN.md §13, "Bounding before summing"). Each piece
    /// is a line `level + slope · q` over the candidates it covers,
    /// added into difference arrays (the idle `pdu_row`, the unwritten
    /// `totals`, left zeroed); prefix sums give every total to within
    /// `err`, a generous multiple of all the rounding involved.
    fn rule_out_losers(&mut self, from: usize, ups_limit: f64) {
        let n = self.candidates.len();
        let q = |i: usize| self.candidates[i].per_kw_hour_value();
        let (book, approx, slopes) = (&self.book, &mut self.pdu_row, &mut self.totals);
        let (mut magnitude, mut lines) = (0.0, n);
        let mut add = |lo: usize, hi: usize, level: f64, slope: f64| {
            approx[lo] += level;
            approx[hi] -= level;
            slopes[lo] += slope;
            slopes[hi] -= slope;
            magnitude += level.abs() + q(n - 1) * slope.abs();
            lines += 1;
        };
        for (j, &h) in book.headroom.iter().enumerate() {
            let chain = book.seg_start[j] as usize..book.seg_start[j + 1] as usize;
            let mut lo = from;
            for (seg, &hi) in book.segs[chain.clone()].iter().zip(&book.seg_end[chain]) {
                let hi = (hi as usize).max(lo);
                match *seg {
                    _ if lo == hi => {}
                    Segment::Const(v) => add(lo, hi, clip(v, h), 0.0),
                    Segment::Interp { q0, dq, a, b } => {
                        // `add_bid`'s cell before clipping, monotone in
                        // `q` operation by operation: within the clip at
                        // both ends, the piece is a line.
                        let at = |i: usize| seg.at(q(i));
                        if (0.0..=h).contains(&at(lo)) && (0.0..=h).contains(&at(hi - 1)) {
                            let slope = (b - a) / dq;
                            add(lo, hi, a - slope * q0, slope);
                        } else {
                            (lo..hi).for_each(|i| add(i, i + 1, clip(at(i), h), 0.0));
                        }
                    }
                }
                lo = hi;
            }
        }
        let err = (4 * lines + 64) as f64 * (f64::EPSILON * magnitude + f64::MIN_POSITIVE);
        let rate = |i: usize, total: f64| q(i) * (total / 1_000.0);
        let (mut level, mut slope, mut floor) = (0.0, 0.0, f64::NEG_INFINITY);
        for i in from..n {
            level += approx[i];
            slope += std::mem::take(&mut slopes[i]);
            approx[i] = level + q(i) * slope;
            if !self.ruled_out[i] && approx[i] + err <= ups_limit {
                floor = floor.max(rate(i, approx[i] - err));
            }
        }
        // What a candidate certainly under the limit certainly earns,
        // less more than the incumbent rule's 1e-12 adds up to along the
        // grid and two ulps for the subtraction: any that certainly
        // earns less, or is certainly over the limit, is out.
        floor -= (n + 2) as f64 * 2e-12 + 2.0 * f64::EPSILON * floor.abs();
        // Bounds that overflowed or met a NaN bound nothing.
        let sound = magnitude < 1e300;
        for (i, out) in self.ruled_out.iter_mut().enumerate().skip(from) {
            *out |= sound && (approx[i] - err > ups_limit || rate(i, approx[i] + err) < floor);
        }
    }

    /// Each live bid's `(rack, grant)` at candidate `i`, in bid order:
    /// its clipped demand there, `demand_at(price).min(headroom)` bit for
    /// bit, read from the book's pieces.
    fn grants_at(&self, i: usize) -> Vec<(RackId, Watts)> {
        let at = |j| Watts::new(self.book.demand_at(&self.candidates, j, i));
        let racks = self.book.rack.iter().enumerate();
        racks.map(|(j, &rack)| (rack, at(j))).collect()
    }

    /// Picks the revenue-maximizing feasible candidate, ascending, with
    /// the legacy tie rule (`rate <= best + 1e-12` keeps the incumbent).
    /// A flagged candidate is skipped *before* its total is looked at:
    /// the sweep leaves the totals of flagged candidates unsummed.
    fn select_best(&self, ups_limit: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let sums = self.totals.iter().zip(&self.ruled_out);
        for (i, (&q, (&total, &out))) in self.candidates.iter().zip(sums).enumerate() {
            if out || total > ups_limit {
                continue;
            }
            let rate = q.per_kw_hour_value() * (total / 1_000.0);
            match best {
                Some((_, best_rate)) if rate <= best_rate + 1e-12 => {}
                _ => best = Some((i, rate)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{LinearBid, StepBid};
    use crate::invariant::check_allocation;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{RackId, TenantId};

    /// One PDU with `pdu_spot` watts of spot, two racks with 60 W
    /// headroom each, generous UPS.
    fn constraints(pdu_spot: f64) -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(60.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(60.0))
            .build()
            .unwrap();
        ConstraintSet::new(&topo, vec![Watts::new(pdu_spot)], Watts::new(pdu_spot))
    }

    /// Two PDUs with one 60 W-headroom rack each.
    fn two_pdu_constraints(spot0: f64, spot1: f64, ups_spot: f64) -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(60.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(60.0))
            .build()
            .unwrap();
        ConstraintSet::new(
            &topo,
            vec![Watts::new(spot0), Watts::new(spot1)],
            Watts::new(ups_spot),
        )
    }

    fn linear(rack: usize, d_max: f64, q_min: f64, d_min: f64, q_max: f64) -> RackBid {
        RackBid::new(
            RackId::new(rack),
            LinearBid::new(
                Watts::new(d_max),
                Price::per_kw_hour(q_min),
                Watts::new(d_min),
                Price::per_kw_hour(q_max),
            )
            .unwrap()
            .into(),
        )
    }

    fn step(rack: usize, demand: f64, price_cap: f64) -> RackBid {
        let bid = StepBid::new(Watts::new(demand), Price::per_kw_hour(price_cap)).unwrap();
        RackBid::new(RackId::new(rack), bid.into())
    }

    /// A 0.01 ¢ grid: ten times finer than the paper's finest, so the
    /// tests below probe optima to within 0.0001 $/kW/h.
    fn fine_grid() -> MarketClearing {
        MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(0.01)))
    }

    fn clear_with(bids: &[RackBid], cs: &ConstraintSet) -> MarketOutcome {
        fine_grid().clear(Slot::ZERO, bids, cs)
    }

    #[test]
    fn empty_market_clears_empty() {
        let cs = constraints(100.0);
        let out = MarketClearing::default().clear(Slot::ZERO, &[], &cs);
        assert!(out.allocation().is_empty());
        assert_eq!(out.revenue_rate(), 0.0);
    }

    #[test]
    fn single_step_bid_clears_at_its_cap() {
        let cs = constraints(100.0);
        let out = clear_with(&[step(0, 40.0, 0.25)], &cs);
        assert!(
            (out.price().per_kw_hour_value() - 0.25).abs() < 1e-6,
            "price {}",
            out.price()
        );
        assert_eq!(out.sold(), Watts::new(40.0));
    }

    #[test]
    fn linear_bid_clears_at_revenue_vertex_or_corner() {
        // A single linear bid with wide-open capacity and no clipping
        // (headroom is also 60 W): D(q) = 60(1 − q/0.3) = 60 − 200q, so
        // R = 60q − 200q² peaks at q* = 0.15, a grid point, where
        // R = 9 − 4.5 = 4.5 W·$/kW/h = 0.0045 $/h.
        let cs = constraints(1000.0);
        let bids = vec![linear(0, 60.0, 0.0, 0.0, 0.3)];
        let out = clear_with(&bids, &cs);
        assert!(
            (out.price().per_kw_hour_value() - 0.15).abs() < 1e-6,
            "price {}",
            out.price()
        );
        assert!((out.sold().value() - 30.0).abs() < 1e-6);
        assert!((out.revenue_rate() - 0.0045).abs() < 1e-9);
        // The paper's ten-times-coarser grid finds the same vertex.
        let coarse = MarketClearing::default().clear(Slot::ZERO, &bids, &cs);
        assert!((coarse.revenue_rate() - out.revenue_rate()).abs() < 1e-9);
    }

    #[test]
    fn tight_capacity_forces_price_up() {
        // Two 40 W step bids but only 50 W of PDU spot: serving both is
        // infeasible at any price ≤ 0.2 (both demand), so the market
        // must price out the cheap bidder.
        let cs = constraints(50.0);
        let out = clear_with(&[step(0, 40.0, 0.2), step(1, 40.0, 0.5)], &cs);
        assert!(out.price() > Price::per_kw_hour(0.2));
        assert_eq!(out.sold(), Watts::new(40.0));
        assert_eq!(out.allocation().grant(RackId::new(0)), Watts::ZERO);
        assert_eq!(out.allocation().grant(RackId::new(1)), Watts::new(40.0));
    }

    #[test]
    fn elastic_bids_are_partially_served_under_scarcity() {
        // LinearBid's whole point: under scarcity the price rises along
        // the sloped segment and demand shrinks to fit, rather than the
        // all-or-nothing StepBid outcome.
        let cs = constraints(50.0);
        let bids = vec![
            linear(0, 40.0, 0.05, 10.0, 0.4),
            linear(1, 40.0, 0.05, 10.0, 0.4),
        ];
        let out = clear_with(&bids, &cs);
        let g0 = out.allocation().grant(RackId::new(0));
        let g1 = out.allocation().grant(RackId::new(1));
        assert!(g0 > Watts::ZERO && g1 > Watts::ZERO, "both served");
        assert!(g0 + g1 <= Watts::new(50.0 + 1e-6), "fits capacity");
        assert!(g0 < Watts::new(40.0), "partially served");
    }

    #[test]
    fn more_spot_capacity_never_raises_the_price() {
        // Exact on a fixed grid: more capacity only adds lower feasible
        // candidates, and the first best candidate wins ties.
        let bids = vec![
            linear(0, 50.0, 0.05, 10.0, 0.4),
            linear(1, 50.0, 0.10, 20.0, 0.5),
        ];
        let mut last_price = f64::INFINITY;
        for spot in [30.0, 60.0, 90.0, 120.0] {
            let out = clear_with(&bids, &constraints(spot));
            let p = out.price().per_kw_hour_value();
            assert!(p <= last_price, "price rose with more capacity");
            last_price = p;
        }
    }

    #[test]
    fn allocation_always_feasible() {
        for spot in [10.0, 35.0, 80.0, 200.0] {
            let cs = constraints(spot);
            let bids = vec![
                linear(0, 55.0, 0.02, 5.0, 0.35),
                linear(1, 70.0, 0.05, 15.0, 0.45), // d_max above 60 W headroom
            ];
            let out = clear_with(&bids, &cs);
            assert!(
                cs.is_feasible(out.allocation().grants()),
                "infeasible allocation at spot {spot}"
            );
        }
    }

    #[test]
    fn null_bids_are_ignored() {
        let cs = constraints(100.0);
        let bids = vec![step(0, 0.0, 0.2)];
        let out = MarketClearing::default().clear(Slot::ZERO, &bids, &cs);
        assert!(out.allocation().is_empty());
        assert_eq!(out.candidates_evaluated(), 0);
    }

    #[test]
    fn zero_spot_capacity_sells_nothing() {
        let cs = constraints(0.0);
        let out = clear_with(&[linear(0, 50.0, 0.1, 10.0, 0.4)], &cs);
        assert!(out.allocation().is_empty());
    }

    #[test]
    fn oversized_ceiling_clears_within_the_capped_scan() {
        // A price cap of 3 000 $/kW/h asks for three million candidates
        // at the default step. The scan stops at `MAX_CANDIDATES` and
        // the market clears inside it: the absurd bid is served like
        // any bid still demanding at every scanned price, its neighbour
        // is unaffected, and the outcome satisfies Eqns. 2–4.
        let cs = constraints(100.0);
        let bids = vec![step(0, 40.0, 3_000.0), linear(1, 40.0, 0.05, 10.0, 0.4)];
        let engine = MarketClearing::default();
        let out = engine.clear(Slot::ZERO, &bids, &cs);
        assert!(
            out.candidates_evaluated() <= MAX_CANDIDATES,
            "{} candidates",
            out.candidates_evaluated()
        );
        let top = MAX_CANDIDATES as f64 * engine.config().price_step.per_kw_hour_value();
        assert!(
            out.price().per_kw_hour_value() < top,
            "price {}",
            out.price()
        );
        assert_eq!(out.allocation().grant(RackId::new(0)), Watts::new(40.0));
        assert_eq!(check_allocation(&cs, out.allocation(), &bids, true), vec![]);
        // A ceiling the float-to-int cast saturates on is capped too.
        let bids = vec![step(0, 40.0, 1e300)];
        let out = engine.clear(Slot::ZERO, &bids, &cs);
        assert!(out.candidates_evaluated() <= MAX_CANDIDATES);
        assert_eq!(check_allocation(&cs, out.allocation(), &bids, true), vec![]);
    }

    #[test]
    fn per_pdu_pricing_localizes_prices() {
        // PDU#0 scarce and contested; a second PDU plentiful and cheap.
        let cs = two_pdu_constraints(20.0, 200.0, 220.0);
        let bids = vec![
            linear(0, 60.0, 0.10, 10.0, 0.50), // hungry on the scarce PDU
            linear(1, 60.0, 0.02, 10.0, 0.20), // cheap on the plentiful PDU
        ];
        let engine = fine_grid();
        let per_pdu = engine.clear_per_pdu(Slot::ZERO, &bids, &cs);
        assert_eq!(per_pdu.len(), 2);
        // The scarce PDU clears higher than the plentiful one.
        assert!(per_pdu[0].price() > per_pdu[1].price());
        // Each sub-market stays feasible.
        for out in &per_pdu {
            assert!(cs.is_feasible(out.allocation().grants()));
        }
        // Localized pricing extracts at least the uniform revenue here:
        // the uniform price is a candidate of both sub-markets' grids
        // (or lies above a sub-market's ceiling, where it sells nothing).
        let uniform = engine.clear(Slot::ZERO, &bids, &cs);
        let local_rev: f64 = per_pdu.iter().map(MarketOutcome::revenue_rate).sum();
        assert!(local_rev >= uniform.revenue_rate() - 1e-9);
    }

    #[test]
    fn per_pdu_outcomes_respect_ups_apportionment() {
        // UPS tighter than the PDU sum: shares must cap the sub-markets.
        let cs = two_pdu_constraints(60.0, 60.0, 50.0);
        let bids = vec![
            linear(0, 60.0, 0.0, 0.0, 0.4),
            linear(1, 60.0, 0.0, 0.0, 0.4),
        ];
        let engine = MarketClearing::default();
        let per_pdu = engine.clear_per_pdu(Slot::ZERO, &bids, &cs);
        let total: f64 = per_pdu.iter().map(|o| o.sold().value()).sum();
        assert!(total <= 50.0 + 1e-6, "UPS share exceeded: {total}");
    }

    #[test]
    fn clearing_respects_heat_zones() {
        // Two racks share a 30 W hot-aisle budget despite 100 W of PDU
        // spot; the market must keep their joint grant under it.
        let cs = constraints(100.0).with_zone(
            "aisle",
            vec![RackId::new(0), RackId::new(1)],
            Watts::new(30.0),
        );
        let bids = vec![
            linear(0, 50.0, 0.0, 0.0, 0.4),
            linear(1, 50.0, 0.0, 0.0, 0.4),
        ];
        let out = clear_with(&bids, &cs);
        assert!(cs.is_feasible(out.allocation().grants()));
        assert!(out.sold() <= Watts::new(30.0 + 1e-6), "{}", out.sold());
    }

    #[test]
    fn clearing_respects_phase_balance() {
        // Both racks on phase 0 of PDU#0: any joint grant beyond the
        // 25 W imbalance bound (vs the empty phases) is infeasible.
        let cs = constraints(100.0).with_phases(vec![0, 0], Watts::new(25.0));
        let bids = vec![
            linear(0, 50.0, 0.0, 0.0, 0.4),
            linear(1, 50.0, 0.0, 0.0, 0.4),
        ];
        let out = clear_with(&bids, &cs);
        assert!(cs.is_feasible(out.allocation().grants()));
        assert!(out.sold() <= Watts::new(25.0 + 1e-6), "sold {}", out.sold());
    }

    #[test]
    fn scratch_reuse_never_changes_outcomes() {
        // A reused engine (warm candidate buffer) must clear exactly
        // like a fresh engine for every subsequent market, including a
        // smaller one that leaves stale capacity behind.
        let mut markets = distinct_markets();
        markets.insert(2, (vec![], constraints(100.0)));
        let reused = MarketClearing::default();
        let cloned = reused.clone();
        for (slot, (bids, cs)) in markets.iter().enumerate() {
            let warm = reused.clear(Slot::new(slot as u64), bids, cs);
            let fresh = MarketClearing::default().clear(Slot::new(slot as u64), bids, cs);
            let from_clone = cloned.clear(Slot::new(slot as u64), bids, cs);
            assert_eq!(warm, fresh, "slot {slot}");
            assert_eq!(from_clone, fresh, "slot {slot} (clone)");
        }
    }

    #[test]
    fn headroom_clipping_respected_in_grants() {
        // Bid asks for 100 W max but headroom is 60 W.
        let cs = constraints(500.0);
        let out = clear_with(&[linear(0, 100.0, 0.0, 0.0, 0.4)], &cs);
        let grant = out.allocation().grant(RackId::new(0));
        assert!(grant > Watts::ZERO && grant <= Watts::new(60.0), "{grant}");
    }

    /// A handful of distinct markets for the scratch tests.
    fn distinct_markets() -> Vec<(Vec<RackBid>, ConstraintSet)> {
        vec![
            (
                vec![
                    linear(0, 55.0, 0.02, 5.0, 0.35),
                    linear(1, 70.0, 0.05, 15.0, 0.45),
                ],
                constraints(80.0),
            ),
            (vec![linear(0, 40.0, 0.05, 10.0, 0.4)], constraints(30.0)),
            (vec![linear(1, 30.0, 0.15, 10.0, 0.5)], constraints(200.0)),
            (
                vec![
                    linear(0, 20.0, 0.0, 0.0, 0.25),
                    linear(1, 45.0, 0.1, 5.0, 0.3),
                ],
                constraints(55.0),
            ),
        ]
    }

    #[test]
    fn concurrent_clears_on_one_engine_match_serial() {
        // Many threads hammering one shared engine — one of them holds
        // its scratch, the rest fall back — must produce the same
        // outcomes as clearing the same markets one at a time.
        let markets = distinct_markets();
        let engine = MarketClearing::default();
        let serial: Vec<MarketOutcome> = markets
            .iter()
            .map(|(bids, cs)| MarketClearing::default().clear(Slot::ZERO, bids, cs))
            .collect();
        for round in 0..4 {
            let parallel = spotdc_par::ThreadPool::new(4)
                .par_map(&markets, |(bids, cs)| engine.clear(Slot::ZERO, bids, cs));
            assert_eq!(parallel, serial, "round {round}");
        }
    }

    #[test]
    fn poisoned_scratch_is_never_reacquired() {
        // Poison the scratch; every later clearing must work from a
        // stack-local one and stay correct rather than reuse state a
        // panic may have torn.
        let engine = MarketClearing::default();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.scratch.lock().unwrap();
            panic!("poison the scratch");
        }));
        assert!(engine.scratch.is_poisoned());
        for (bids, cs) in distinct_markets() {
            let fresh = MarketClearing::default().clear(Slot::ZERO, &bids, &cs);
            assert_eq!(engine.clear(Slot::ZERO, &bids, &cs), fresh);
        }
    }

    #[test]
    fn busy_scratch_falls_back_once_per_run() {
        // Hold the scratch (`try_lock` is non-reentrant, so the calls
        // below cannot acquire it): a clear and a `clear_tasks` run
        // then work from a stack-local scratch and must produce exactly
        // what they produce once the lock is released.
        let engine = MarketClearing::default();
        let cs = constraints(100.0);
        let bids = vec![linear(0, 40.0, 0.05, 10.0, 0.4)];
        let market = |share: f64| TaskShip {
            ups_spot: Watts::new(share),
            bids: bids.clone(),
        };
        let tasks = vec![market(30.0), market(20.0), market(30.0)];
        let guard = engine.scratch.lock().unwrap();
        let busy = engine.clear(Slot::ZERO, &bids, &cs);
        let busy_run = engine.clear_tasks(Slot::ZERO, &mut cs.clone(), &tasks);
        drop(guard);
        assert_eq!(busy, engine.clear(Slot::ZERO, &bids, &cs));
        let free_run = engine.clear_tasks(Slot::ZERO, &mut cs.clone(), &tasks);
        assert_eq!(busy_run, free_run);
        assert_eq!(engine.cache_stats().full_sweeps, 8);
        // Each task cleared against its own share, not its neighbour's.
        let sold: Vec<f64> = busy_run.iter().map(|o| o.sold().value()).collect();
        assert_eq!(sold[0], sold[2]);
        assert!(sold[1] < sold[0] && sold[0] <= 30.0, "{sold:?}");
    }

    #[test]
    fn bounding_leaves_a_handful_of_candidates_to_sum() {
        // 3 000 linear bids, four racks to a PDU, a quarter of them
        // asking for more than their rack's headroom (pieces that clip
        // and are bounded cell by cell): 6 000 pieces over ~600
        // candidates. The bounds must actually decide — sound bounds
        // that rule nothing out would pass every outcome test and sum
        // everything.
        let mut state = 42u64;
        let mut uniform = |lo: f64, hi: f64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
        };
        let racks = 3_000;
        let mut topo = TopologyBuilder::new(Watts::new(1e9));
        for r in 0..racks {
            if r % 4 == 0 {
                topo = topo.pdu(Watts::new(1e6));
            }
            topo = topo.rack(TenantId::new(r), Watts::new(5_000.0), Watts::new(2_000.0));
        }
        let topo = topo.build().unwrap();
        let bids: Vec<RackBid> = (0..racks)
            .map(|r| {
                let d_max = uniform(200.0, 2_600.0);
                let q_min = uniform(0.0, 0.2);
                let (d_min, q_max) = (uniform(0.0, d_max), q_min + uniform(0.01, 0.4));
                linear(r, d_max, q_min, d_min, q_max)
            })
            .collect();
        let cs = ConstraintSet::new(
            &topo,
            vec![Watts::new(6_000.0); racks / 4],
            Watts::new(racks as f64 * 400.0),
        );
        let engine = MarketClearing::default();
        let mut scratch = Scratch::default();
        let out = engine.clear_in(&mut scratch, Slot::ZERO, &bids, &cs);
        let summed = scratch.ruled_out.iter().filter(|&&out| !out).count();
        assert!(
            (1..=8).contains(&summed),
            "{summed} of {} candidates summed exactly",
            scratch.candidates.len()
        );
        let (i, rate) = legacy_scan(&bids, &scratch.live, &cs, &scratch.candidates).unwrap();
        assert_eq!(
            (out.price(), out.revenue_rate()),
            (scratch.candidates[i], rate)
        );
        assert!(rate > 0.0);
    }

    #[test]
    fn submarkets_compose_to_clear_per_pdu() {
        let cs = two_pdu_constraints(40.0, 90.0, 100.0);
        let bids = vec![
            linear(0, 60.0, 0.10, 10.0, 0.50),
            linear(1, 60.0, 0.02, 10.0, 0.20),
        ];
        let engine = fine_grid();
        let direct = engine.clear_per_pdu(Slot::ZERO, &bids, &cs);
        let subs = engine.per_pdu_submarkets(&bids, &cs);
        assert_eq!(subs.len(), direct.len());
        let composed: Vec<MarketOutcome> = subs
            .iter()
            .map(|(group, local)| engine.clear(Slot::ZERO, group, local))
            .collect();
        assert_eq!(composed, direct);
        // And a parallel merge in sub-market order is identical too.
        let merged = spotdc_par::ThreadPool::new(4).par_map(&subs, |(group, local)| {
            engine.clear(Slot::ZERO, group, local)
        });
        assert_eq!(merged, direct);
    }
}
