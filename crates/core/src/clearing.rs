//! Uniform-price market clearing (Eq. 1 subject to Eqns. 2–4).
//!
//! The operator chooses one price `q` maximizing revenue
//! `q · Σ_r D_r(q)` over prices at which the induced demands fit every
//! capacity constraint. Because all demand functions are non-increasing
//! in price, the feasible set is upward-closed: raising the price only
//! sheds demand, so a sufficiently high price is always feasible and
//! selling spot capacity can never create a power emergency.
//!
//! Two search strategies are provided:
//!
//! * [`ClearingAlgorithm::GridScan`] — the paper's method: evaluate
//!   every multiple of a configurable price step (0.1–1 ¢/kW in the
//!   paper) up to the highest bid ceiling. Simple, predictable,
//!   sub-second even at 15 000 racks (Fig. 7b).
//! * [`ClearingAlgorithm::KinkSearch`] — an exact refinement: revenue
//!   is piece-wise quadratic in `q` between the finitely many *kink
//!   prices* of the aggregate (headroom-clipped) demand, so the optimum
//!   lies at a kink, just above a discontinuity, or at an interior
//!   quadratic vertex — all enumerable in `O(K log K)`. Used to
//!   validate the grid scan and as the ablation in DESIGN.md.
//!
//! Either way, the hot path evaluates candidates against a *columnar
//! bid book* ([`BidBook`]): live bids are decomposed once per slot into
//! flat arrays of headroom, PDU slot, and demand segments, candidate
//! prices are swept in ascending order with one monotone segment cursor
//! per bid (O(1) amortized per bid per sweep), and per-PDU/UPS sums are
//! accumulated in recycled SoA buffers. When only `k` bids changed
//! since the previous slot (per-bid fingerprints), only the price rows
//! those bids perturbed are re-summed — and when nothing changed, the
//! cached sums are reused outright. Every mode produces bit-identical
//! outcomes to the straightforward per-candidate scan (DESIGN.md §13),
//! which remains in the code as the fallback for heat-zone/phase
//! constrained markets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use spotdc_units::{Price, Slot, Watts};

use crate::allocation::SpotAllocation;
use crate::bid::RackBid;
use crate::constraints::{ConstraintSet, TOLERANCE};
use crate::demand::{DemandBid, EPS};

/// Offset used to probe "just above" a discontinuity price.
const JUST_ABOVE: f64 = 1e-9;

/// Which price-search strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClearingAlgorithm {
    /// Evaluate every multiple of the configured step (paper default).
    GridScan,
    /// Enumerate demand kinks and quadratic revenue vertices.
    KinkSearch,
}

/// Configuration for the clearing search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClearingConfig {
    /// The search strategy.
    pub algorithm: ClearingAlgorithm,
    /// Grid step (ignored by [`ClearingAlgorithm::KinkSearch`]).
    pub price_step: Price,
}

impl ClearingConfig {
    /// The paper's default: grid scan at 0.1 ¢/kW/h.
    #[must_use]
    pub fn grid(step: Price) -> Self {
        ClearingConfig {
            algorithm: ClearingAlgorithm::GridScan,
            price_step: step,
        }
    }

    /// Exact kink-based search.
    #[must_use]
    pub fn kink_search() -> Self {
        ClearingConfig {
            algorithm: ClearingAlgorithm::KinkSearch,
            price_step: Price::cents_per_kw_hour(0.1),
        }
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
    /// Number of candidate prices evaluated (search-cost metric).
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

    /// Number of candidate prices the search evaluated.
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
    /// Pool of reusable candidate scratch buffers, one per concurrent
    /// clearing. Each worker grabs the first free slot with `try_lock`
    /// and holds it for the whole clearing, so parallel per-PDU clears
    /// never serialize on a shared lock; when all slots are busy a
    /// stack-local scratch is used instead (correct, just cold).
    /// A poisoned slot — a panic mid-clearing — is simply never
    /// reacquired: its cached key/candidate state may be torn, and
    /// abandoning it is cheaper than proving it consistent.
    scratch: [Mutex<Scratch>; SCRATCH_SLOTS],
    /// Sweep-mode counters, updated with relaxed atomics on every
    /// clearing regardless of telemetry state.
    stats: CacheStats,
}

/// Number of scratch buffers in the pool; clears beyond this many at
/// once fall back to a fresh stack-local buffer.
const SCRATCH_SLOTS: usize = 8;

/// A delta re-clear is attempted only while the number of changed bids
/// stays at or below `live / DELTA_CHURN_DIVISOR` (at least one): past
/// that, marking affected price rows costs about as much as re-summing
/// everything, so the full sweep wins.
const DELTA_CHURN_DIVISOR: usize = 8;

/// Internal sweep-mode counters (relaxed atomics so concurrent per-PDU
/// clears never contend). Snapshot via [`MarketClearing::cache_stats`].
#[derive(Debug, Default)]
struct CacheStats {
    full_sweeps: AtomicU64,
    cache_hits: AtomicU64,
    delta_sweeps: AtomicU64,
    legacy_scans: AtomicU64,
    candidates_total: AtomicU64,
    candidates_swept: AtomicU64,
}

/// A snapshot of one engine's clearing-cache effectiveness counters.
///
/// `full_sweeps + cache_hits + delta_sweeps + legacy_scans` equals the
/// number of non-empty markets cleared; `candidates_swept` out of
/// `candidates_total` measures how much per-candidate work the cache
/// actually avoided (a hit sweeps zero rows, a delta only the rows the
/// changed bids perturbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClearingCacheStats {
    /// Markets swept from scratch (cold cache or over-threshold churn).
    pub full_sweeps: u64,
    /// Markets served entirely from cached per-candidate sums.
    pub cache_hits: u64,
    /// Markets where only the changed bids' price rows were re-summed.
    pub delta_sweeps: u64,
    /// Markets routed through the legacy per-candidate scan (heat-zone
    /// or phase-balance constraints, or a bid on an unknown PDU).
    pub legacy_scans: u64,
    /// Candidate prices considered across all clearings.
    pub candidates_total: u64,
    /// Candidate prices actually (re-)summed across all clearings.
    pub candidates_swept: u64,
}

/// One worker's reusable clearing state: the candidate-price buffer,
/// the market fingerprint it was generated for (the cross-slot cache),
/// and the columnar bid book plus per-candidate sum buffers the sweep
/// recycles between slots.
#[derive(Debug, Default)]
struct Scratch {
    /// Fingerprint of the market `candidates` was generated for.
    key: Vec<u64>,
    /// Staging buffer for the current market's fingerprint.
    next_key: Vec<u64>,
    /// Cached candidate prices.
    candidates: Vec<Price>,
    /// Indices into the caller's bid slice for live (non-null) bids —
    /// hoisted here so the hot path allocates nothing per call.
    live: Vec<u32>,
    /// Candidate indices in ascending price order (the sweep order);
    /// rebuilt exactly when `candidates` is regenerated.
    order: Vec<u32>,
    /// The current slot's columnar bid book.
    book: BidBook,
    /// The previous slot's book — the baseline delta detection and the
    /// cached sums refer to.
    prev_book: BidBook,
    /// Per-candidate clipped-demand totals (indexed by stored candidate
    /// position, like `candidates`).
    totals: Vec<f64>,
    /// Per-candidate per-touched-PDU sums, candidate-major:
    /// `pdu_used[c * touched + s]`.
    pdu_used: Vec<f64>,
    /// Whether `totals`/`pdu_used` describe (`prev_book`, `candidates`).
    sums_valid: bool,
    /// Segment cursors for the sweep (one per live bid).
    cursors: Vec<u32>,
    /// Segment cursors over the previous book's changed bids (marking).
    old_cursors: Vec<u32>,
    /// Segment cursors over the current book's changed bids (marking).
    new_cursors: Vec<u32>,
    /// Positions of bids whose fingerprint chunk changed since the
    /// previous slot.
    changed: Vec<u32>,
    /// Per-candidate "this price row must be re-summed" marks.
    affected: Vec<bool>,
}

/// One linear-or-constant piece of a bid's demand curve, valid up to
/// `bound`. [`advance_cursor`] walks these left to right as the sweep's
/// query price rises, reproducing the corresponding `demand_at`
/// implementation bit for bit — including its comparison style:
/// `fuzzy` pieces end when `bound <= q + EPS` (the `partition_point`
/// predicate of [`crate::demand::FullBid`]) while exact pieces end when
/// `q > bound` with `EPS` pre-added into the bound (the `LinearBid`/
/// `StepBid` style). The two are *not* interchangeable.
#[derive(Debug, Clone, Copy)]
struct Segment {
    bound: f64,
    fuzzy: bool,
    kind: SegKind,
}

#[derive(Debug, Clone, Copy)]
enum SegKind {
    Const(f64),
    Interp { q0: f64, dq: f64, a: f64, b: f64 },
}

impl Segment {
    /// Every bid's chain ends with this unbounded zero-demand piece, so
    /// cursors saturate instead of running off the end.
    const TERMINAL: Segment = Segment {
        bound: f64::INFINITY,
        fuzzy: false,
        kind: SegKind::Const(0.0),
    };

    #[inline]
    fn passed(&self, q: f64) -> bool {
        if self.fuzzy {
            self.bound <= q + EPS
        } else {
            q > self.bound
        }
    }

    #[inline]
    fn eval(&self, q: f64) -> f64 {
        match self.kind {
            SegKind::Const(v) => v,
            SegKind::Interp { q0, dq, a, b } => a + (b - a) * ((q - q0) / dq),
        }
    }
}

/// Advances one bid's segment cursor to the piece covering `q` and
/// evaluates it. Queries must arrive in non-decreasing `q` order per
/// sweep, which is why each candidate costs O(1) amortized.
#[inline]
fn advance_cursor(segs: &[Segment], cur: &mut u32, q: f64) -> f64 {
    let mut i = *cur as usize;
    while segs[i].passed(q) {
        i += 1;
    }
    *cur = i as u32;
    segs[i].eval(q)
}

/// Decomposes `d` into its [`Segment`] chain (terminated), matching the
/// region boundaries and arithmetic of `d.demand_at` exactly.
fn push_segments(d: &DemandBid, out: &mut Vec<Segment>) {
    match d {
        DemandBid::Linear(b) => {
            let d_max = b.d_max().value();
            let d_min = b.d_min().value();
            let q0 = b.q_min().per_kw_hour_value();
            let q1 = b.q_max().per_kw_hour_value();
            out.push(Segment {
                bound: q0 + EPS,
                fuzzy: false,
                kind: SegKind::Const(d_max),
            });
            let kind = if q1 - q0 <= EPS {
                // Degenerate step at q0 == q1: demand D_max up to it.
                SegKind::Const(d_max)
            } else {
                SegKind::Interp {
                    q0,
                    dq: q1 - q0,
                    a: d_max,
                    b: d_min,
                }
            };
            out.push(Segment {
                bound: q1 + EPS,
                fuzzy: false,
                kind,
            });
            out.push(Segment::TERMINAL);
        }
        DemandBid::Step(b) => {
            out.push(Segment {
                bound: b.price_cap().per_kw_hour_value() + EPS,
                fuzzy: false,
                kind: SegKind::Const(b.demand().value()),
            });
            out.push(Segment::TERMINAL);
        }
        DemandBid::Full(b) => {
            let pts = b.points();
            out.push(Segment {
                bound: pts[0].0.per_kw_hour_value() + EPS,
                fuzzy: false,
                kind: SegKind::Const(pts[0].1.value()),
            });
            for w in pts.windows(2) {
                let (q0, d0) = (w[0].0.per_kw_hour_value(), w[0].1.value());
                let (q1, d1) = (w[1].0.per_kw_hour_value(), w[1].1.value());
                let span = q1 - q0;
                let kind = if span <= EPS {
                    SegKind::Const(d1)
                } else {
                    SegKind::Interp {
                        q0,
                        dq: span,
                        a: d0,
                        b: d1,
                    }
                };
                out.push(Segment {
                    bound: q1,
                    fuzzy: true,
                    kind,
                });
            }
            let last = pts[pts.len() - 1];
            out.push(Segment {
                bound: last.0.per_kw_hour_value() + EPS,
                fuzzy: false,
                kind: SegKind::Const(last.1.value()),
            });
            out.push(Segment::TERMINAL);
        }
    }
}

/// The columnar bid book: one slot's live bids decomposed into flat
/// parallel arrays (structure-of-arrays), so the price sweep touches
/// contiguous memory instead of chasing `RackBid` enum layouts.
///
/// PDUs are remapped to compact *slots* in first-appearance order
/// (`touched`/`slot_lookup`), so per-candidate PDU sums live in a dense
/// `candidates × touched` matrix however sparse the global PDU space.
/// `fp`/`fp_start` hold per-bid fingerprint chunks (rack, headroom, PDU
/// index, demand parameters — deliberately *not* the spot capacities,
/// which only feasibility reads) used for delta detection between
/// consecutive slots.
#[derive(Debug, Default)]
struct BidBook {
    /// Rack index of each live bid.
    rack: Vec<u32>,
    /// Global PDU index per bid (`u32::MAX` for an unknown rack).
    pdu: Vec<u32>,
    /// Compact accumulator slot per bid (index into `touched`).
    pdu_slot: Vec<u32>,
    /// Rack headroom (watts) per bid.
    headroom: Vec<f64>,
    /// First segment of each bid's chain in `segs`.
    seg_start: Vec<u32>,
    /// All bids' segment chains, concatenated.
    segs: Vec<Segment>,
    /// Per-bid fingerprint chunks, concatenated.
    fp: Vec<u64>,
    /// Chunk boundaries: bid `i` owns `fp[fp_start[i]..fp_start[i+1]]`.
    fp_start: Vec<u32>,
    /// Global indices of PDUs with at least one bid, in first-appearance
    /// order.
    touched: Vec<u32>,
    /// Current spot capacity (watts) of each touched PDU.
    touched_spot: Vec<f64>,
    /// Global PDU index → compact slot (`u32::MAX` = untouched).
    /// Persists across builds; reset via the previous `touched` list.
    slot_lookup: Vec<u32>,
    /// Highest bid price ceiling — determines the grid candidate list.
    ceiling: f64,
    /// Whether any live bid's rack has no known PDU (forces the legacy
    /// fallback: such markets are wholly infeasible).
    any_unknown_pdu: bool,
}

impl BidBook {
    fn len(&self) -> usize {
        self.rack.len()
    }

    /// Rebuilds the book for one slot's live bids. Reuses every buffer;
    /// `slot_lookup` is un-marked via the *old* `touched` list first so
    /// it never needs a full clear.
    fn build(&mut self, bids: &[RackBid], live: &[u32], constraints: &ConstraintSet) {
        for &p in &self.touched {
            self.slot_lookup[p as usize] = u32::MAX;
        }
        self.rack.clear();
        self.pdu.clear();
        self.pdu_slot.clear();
        self.headroom.clear();
        self.seg_start.clear();
        self.segs.clear();
        self.fp.clear();
        self.fp_start.clear();
        self.touched.clear();
        self.touched_spot.clear();
        self.ceiling = 0.0;
        self.any_unknown_pdu = false;
        self.fp_start.push(0);
        for &i in live {
            let b = &bids[i as usize];
            let rack = b.rack();
            let headroom = constraints.rack_headroom(rack).value();
            self.rack.push(rack.index() as u32);
            self.headroom.push(headroom);
            self.fp.push(rack.index() as u64);
            self.fp.push(headroom.to_bits());
            match constraints.pdu_of(rack) {
                Some(p) => {
                    let pi = p.index();
                    self.fp.push(pi as u64);
                    if pi >= self.slot_lookup.len() {
                        self.slot_lookup.resize(pi + 1, u32::MAX);
                    }
                    let mut slot = self.slot_lookup[pi];
                    if slot == u32::MAX {
                        slot = self.touched.len() as u32;
                        self.slot_lookup[pi] = slot;
                        self.touched.push(pi as u32);
                        self.touched_spot.push(constraints.pdu_spot(p).value());
                    }
                    self.pdu.push(pi as u32);
                    self.pdu_slot.push(slot);
                }
                None => {
                    self.fp.push(u64::MAX);
                    self.any_unknown_pdu = true;
                    self.pdu.push(u32::MAX);
                    self.pdu_slot.push(0);
                }
            }
            self.seg_start.push(self.segs.len() as u32);
            push_segments(b.demand(), &mut self.segs);
            self.ceiling = self
                .ceiling
                .max(b.demand().price_ceiling().per_kw_hour_value());
            fingerprint_demand(b.demand(), &mut self.fp);
            self.fp_start.push(self.fp.len() as u32);
        }
    }
}

impl Clone for MarketClearing {
    fn clone(&self) -> Self {
        // Scratch is per-instance cache, not state: clones start empty.
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
            scratch: std::array::from_fn(|_| Mutex::new(Scratch::default())),
            stats: CacheStats::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ClearingConfig {
        &self.config
    }

    /// A snapshot of this engine's sweep-mode counters: how many
    /// clearings were served from cache, patched incrementally, swept
    /// in full, or routed through the legacy scan.
    #[must_use]
    pub fn cache_stats(&self) -> ClearingCacheStats {
        ClearingCacheStats {
            full_sweeps: self.stats.full_sweeps.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            delta_sweeps: self.stats.delta_sweeps.load(Ordering::Relaxed),
            legacy_scans: self.stats.legacy_scans.load(Ordering::Relaxed),
            candidates_total: self.stats.candidates_total.load(Ordering::Relaxed),
            candidates_swept: self.stats.candidates_swept.load(Ordering::Relaxed),
        }
    }

    /// Clears the market for `slot`: finds the revenue-maximizing
    /// feasible uniform price and the per-rack grants it induces.
    ///
    /// Bids whose demand is identically zero are ignored. If no bid is
    /// present (or no positive-revenue feasible price exists) the
    /// returned outcome carries an empty allocation.
    ///
    /// Candidate prices are cached across calls: when the live-bid set
    /// (bid parameters, headrooms, spot capacities) is bit-identical to
    /// the market a scratch buffer last cleared, candidate generation
    /// is skipped and the cached prices are re-evaluated against the
    /// current constraints. The cache key is the *full* fingerprint of
    /// every input candidate generation reads — compared by equality,
    /// not by hash — so a hit provably regenerates the same candidate
    /// list and the outcome is byte-identical either way.
    ///
    /// On top of the candidate cache, per-candidate demand sums are
    /// cached too: when the live-bid set is unchanged since the scratch
    /// buffer's previous clearing, no demand function is re-evaluated
    /// at all (a *cache hit* — only feasibility is re-checked against
    /// the current capacities); when only a few bids changed under grid
    /// scanning, only the candidate rows those bids perturbed are
    /// re-summed (a *delta sweep*). Both are bit-identical to the full
    /// sweep by construction — see DESIGN.md §13 for the invariants.
    #[must_use]
    pub fn clear(
        &self,
        slot: Slot,
        bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> MarketOutcome {
        let _span = spotdc_telemetry::span!("clearing", slot = slot);
        // Grab the first free scratch buffer; fall back to a fresh
        // stack-local one when every slot is busy (or poisoned).
        let mut fallback = None;
        let mut guard = self.scratch.iter().find_map(|m| m.try_lock().ok());
        let scratch: &mut Scratch = match guard.as_deref_mut() {
            Some(s) => s,
            None => fallback.get_or_insert_with(Scratch::default),
        };
        scratch.live.clear();
        scratch.live.extend(
            bids.iter()
                .enumerate()
                .filter(|(_, b)| !b.demand().is_null())
                .map(|(i, _)| i as u32),
        );
        if scratch.live.is_empty() {
            let outcome = MarketOutcome {
                allocation: SpotAllocation::none(slot),
                revenue_rate: 0.0,
                candidates: 0,
            };
            if spotdc_telemetry::is_enabled() {
                self.record_outcome(slot, &outcome, constraints, None);
            }
            return outcome;
        }
        scratch.next_key.clear();
        self.fingerprint(bids, &scratch.live, constraints, &mut scratch.next_key);
        let mut regenerated = false;
        if scratch.candidates.is_empty() || scratch.next_key != scratch.key {
            regenerated = true;
            scratch.candidates.clear();
            match self.config.algorithm {
                ClearingAlgorithm::GridScan => {
                    self.grid_candidates(bids, &scratch.live, &mut scratch.candidates);
                }
                ClearingAlgorithm::KinkSearch => {
                    self.kink_candidates(bids, &scratch.live, constraints, &mut scratch.candidates);
                }
            }
            std::mem::swap(&mut scratch.key, &mut scratch.next_key);
            build_order(&scratch.candidates, &mut scratch.order);
        }
        let evaluated = scratch.candidates.len();

        // Heat zones and phase plans need the BTreeMap-ordered extra
        // checks of `feasible_total`; keep those markets on the legacy
        // per-candidate scan (their accumulation order is part of the
        // byte-identity contract).
        if !constraints.zones().is_empty() || constraints.phases().is_some() {
            scratch.sums_valid = false;
            let mut best: Option<(Price, f64)> = None;
            for &q in &scratch.candidates {
                let demands = scratch.live.iter().map(|&i| {
                    let b = &bids[i as usize];
                    (b.rack(), b.demand_at(q))
                });
                let Some(total) = constraints.feasible_total(demands) else {
                    continue;
                };
                let rate = q.per_kw_hour_value() * total.kilowatts();
                match best {
                    Some((_, best_rate)) if rate <= best_rate + 1e-12 => {}
                    _ => best = Some((q, rate)),
                }
            }
            return self.finish(
                slot,
                bids,
                &scratch.live,
                constraints,
                best,
                evaluated,
                "legacy",
                evaluated,
            );
        }

        std::mem::swap(&mut scratch.book, &mut scratch.prev_book);
        scratch.book.build(bids, &scratch.live, constraints);
        if scratch.book.any_unknown_pdu {
            // `feasible_total` rejects every candidate when any live
            // bid's rack has no PDU, so the market clears empty.
            scratch.sums_valid = false;
            return self.finish(
                slot,
                bids,
                &scratch.live,
                constraints,
                None,
                evaluated,
                "legacy",
                evaluated,
            );
        }
        let nc = evaluated;
        let ns = scratch.book.touched.len();
        let sums_usable =
            scratch.sums_valid && scratch.totals.len() == nc && scratch.pdu_used.len() == nc * ns;
        let same_bids = sums_usable
            && scratch.book.fp == scratch.prev_book.fp
            && scratch.book.fp_start == scratch.prev_book.fp_start
            && scratch.book.touched == scratch.prev_book.touched;
        let is_grid = self.config.algorithm == ClearingAlgorithm::GridScan;
        // A grid candidate list is a pure function of the step and the
        // bid ceiling, so equal bids imply an identical (even if just
        // regenerated) list and the cached sums still line up. Kink
        // candidates also read the capacities, so a kink hit requires
        // the whole fingerprint to have matched (no regeneration).
        let (mode, swept): (&'static str, usize) = if same_bids && (is_grid || !regenerated) {
            ("hit", 0)
        } else if sums_usable
            && is_grid
            && delta_changed(&scratch.prev_book, &scratch.book, &mut scratch.changed)
        {
            let marked = mark_affected(
                &scratch.prev_book,
                &scratch.book,
                &scratch.changed,
                &scratch.candidates,
                &scratch.order,
                &mut scratch.old_cursors,
                &mut scratch.new_cursors,
                &mut scratch.affected,
            );
            for (c, &aff) in scratch.affected.iter().enumerate() {
                if aff {
                    scratch.totals[c] = 0.0;
                    for v in &mut scratch.pdu_used[c * ns..(c + 1) * ns] {
                        *v = 0.0;
                    }
                }
            }
            sweep(
                &scratch.book,
                &scratch.candidates,
                &scratch.order,
                Some(&scratch.affected),
                &mut scratch.cursors,
                &mut scratch.totals,
                &mut scratch.pdu_used,
            );
            ("delta", marked)
        } else {
            scratch.totals.clear();
            scratch.totals.resize(nc, 0.0);
            scratch.pdu_used.clear();
            scratch.pdu_used.resize(nc * ns, 0.0);
            sweep(
                &scratch.book,
                &scratch.candidates,
                &scratch.order,
                None,
                &mut scratch.cursors,
                &mut scratch.totals,
                &mut scratch.pdu_used,
            );
            scratch.sums_valid = true;
            ("full", nc)
        };
        let best = select_best(
            &scratch.candidates,
            &scratch.totals,
            &scratch.pdu_used,
            &scratch.book.touched_spot,
            constraints.ups_spot().value(),
        );
        self.finish(
            slot,
            bids,
            &scratch.live,
            constraints,
            best,
            evaluated,
            mode,
            swept,
        )
    }

    /// Builds the outcome for the chosen price, updates the sweep-mode
    /// counters, and records telemetry. Grants re-evaluate each live
    /// bid at the winning price exactly like the legacy scan did.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        slot: Slot,
        bids: &[RackBid],
        live: &[u32],
        constraints: &ConstraintSet,
        best: Option<(Price, f64)>,
        evaluated: usize,
        mode: &'static str,
        swept: usize,
    ) -> MarketOutcome {
        let outcome = match best {
            Some((price, rate)) if rate > 0.0 => {
                let grants = live
                    .iter()
                    .map(|&i| {
                        let b = &bids[i as usize];
                        let d = b.demand_at(price).min(constraints.rack_headroom(b.rack()));
                        (b.rack(), d)
                    })
                    .collect();
                MarketOutcome {
                    allocation: SpotAllocation::new(slot, price, grants),
                    revenue_rate: rate,
                    candidates: evaluated,
                }
            }
            _ => MarketOutcome {
                allocation: SpotAllocation::none(slot),
                revenue_rate: 0.0,
                candidates: evaluated,
            },
        };
        let counter = match mode {
            "hit" => &self.stats.cache_hits,
            "delta" => &self.stats.delta_sweeps,
            "full" => &self.stats.full_sweeps,
            _ => &self.stats.legacy_scans,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.stats
            .candidates_total
            .fetch_add(evaluated as u64, Ordering::Relaxed);
        self.stats
            .candidates_swept
            .fetch_add(swept as u64, Ordering::Relaxed);
        if spotdc_telemetry::is_enabled() {
            self.record_outcome(slot, &outcome, constraints, Some((mode, evaluated, swept)));
        }
        outcome
    }

    /// Writes the full fingerprint of everything candidate generation
    /// reads into `out`: algorithm, grid step, UPS spot, and per live
    /// bid its rack, headroom, PDU (with that PDU's spot capacity), and
    /// every demand-curve parameter, all as exact `f64` bit patterns.
    /// Heat zones and phase bounds are deliberately absent — candidate
    /// generation never reads them (only per-candidate feasibility
    /// does, and that is re-evaluated on every call).
    fn fingerprint(
        &self,
        bids: &[RackBid],
        live: &[u32],
        constraints: &ConstraintSet,
        out: &mut Vec<u64>,
    ) {
        out.push(match self.config.algorithm {
            ClearingAlgorithm::GridScan => 0,
            ClearingAlgorithm::KinkSearch => 1,
        });
        out.push(self.config.price_step.per_kw_hour_value().to_bits());
        out.push(constraints.ups_spot().value().to_bits());
        out.push(live.len() as u64);
        for &i in live {
            let b = &bids[i as usize];
            out.push(b.rack().index() as u64);
            out.push(constraints.rack_headroom(b.rack()).value().to_bits());
            match constraints.pdu_of(b.rack()) {
                Some(p) => {
                    out.push(p.index() as u64);
                    out.push(constraints.pdu_spot(p).value().to_bits());
                }
                None => {
                    out.push(u64::MAX);
                    out.push(0);
                }
            }
            fingerprint_demand(b.demand(), out);
        }
    }

    /// Telemetry for one clearing: counters, the `SlotCleared` and
    /// `ClearingCache` events, and `ConstraintBound` events for every
    /// capacity the winning allocation exhausted. Only called when
    /// telemetry is enabled. `cache` carries the sweep mode plus the
    /// candidate counts considered and actually re-summed (`None` for
    /// the empty-market early exit, which sweeps nothing).
    fn record_outcome(
        &self,
        slot: Slot,
        outcome: &MarketOutcome,
        constraints: &ConstraintSet,
        cache: Option<(&'static str, usize, usize)>,
    ) {
        use spotdc_telemetry::Event;
        use spotdc_units::MonotonicNanos;

        let registry = spotdc_telemetry::registry();
        registry.inc_counter("spotdc_slots_cleared_total", 1);
        registry.inc_counter(
            "spotdc_clearing_candidates_total",
            outcome.candidates as u64,
        );
        spotdc_telemetry::emit(Event::SlotCleared {
            slot,
            at: MonotonicNanos::now(),
            price_per_kw_hour: outcome.price().per_kw_hour_value(),
            sold_watts: outcome.sold().value(),
            revenue_rate_per_hour: outcome.revenue_rate(),
            candidates_evaluated: outcome.candidates as u64,
        });
        if let Some((mode, evaluated, swept)) = cache {
            registry.inc_counter(
                match mode {
                    "hit" => "spotdc_clearing_cache_hits_total",
                    "delta" => "spotdc_clearing_cache_delta_total",
                    _ => "spotdc_clearing_cache_misses_total",
                },
                1,
            );
            registry.inc_counter("spotdc_clearing_candidates_swept_total", swept as u64);
            spotdc_telemetry::emit(Event::ClearingCache {
                slot,
                at: MonotonicNanos::now(),
                mode: mode.to_owned(),
                candidates_total: evaluated as u64,
                candidates_swept: swept as u64,
            });
        }
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
    /// feasible zero-demand price always exists). Appends into `out`
    /// so the caller's buffer is recycled between clearings.
    fn grid_candidates(&self, bids: &[RackBid], live: &[u32], out: &mut Vec<Price>) {
        let ceiling = live
            .iter()
            .map(|&i| bids[i as usize].demand().price_ceiling())
            .fold(Price::ZERO, Price::max);
        let step = self.config.price_step.per_kw_hour_value().max(1e-9);
        let n = (ceiling.per_kw_hour_value() / step).ceil() as usize + 1;
        out.extend((0..=n).map(|i| Price::per_kw_hour(i as f64 * step)));
    }

    /// Kink candidates: all bids' kink prices (and headroom-clip
    /// crossings), each also probed "just above" (for discontinuities),
    /// plus the quadratic revenue vertex interior to each kink
    /// interval. Appends into `out` like [`Self::grid_candidates`].
    fn kink_candidates(
        &self,
        bids: &[RackBid],
        live: &[u32],
        constraints: &ConstraintSet,
        out: &mut Vec<Price>,
    ) {
        let mut kinks: Vec<f64> = vec![0.0];
        for &i in live {
            let b = &bids[i as usize];
            for k in b.demand().kink_prices() {
                kinks.push(k.per_kw_hour_value());
            }
            for k in clip_crossings(b.demand(), constraints.rack_headroom(b.rack())) {
                kinks.push(k.per_kw_hour_value());
            }
        }
        kinks.retain(|k| k.is_finite() && *k >= 0.0);
        kinks.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        kinks.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        // Clipped demand of one bid at price q.
        let clipped = |b: &RackBid, q: f64| -> f64 {
            b.demand_at(Price::per_kw_hour(q))
                .min(constraints.rack_headroom(b.rack()))
                .clamp_non_negative()
                .value()
        };
        let aggregate =
            |q: f64| -> f64 { live.iter().map(|&i| clipped(&bids[i as usize], q)).sum() };

        // The constraint groups whose crossing prices matter: every PDU
        // with at least one bid, plus the UPS over all bids. Members
        // are positions into `live`, preserving live-bid order.
        let mut groups: Vec<(Vec<usize>, f64)> = Vec::new();
        {
            use std::collections::BTreeMap;
            let mut by_pdu: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (j, &i) in live.iter().enumerate() {
                if let Some(p) = constraints.pdu_of(bids[i as usize].rack()) {
                    by_pdu.entry(p.index()).or_default().push(j);
                }
            }
            for (p, members) in by_pdu {
                let cap = constraints.pdu_spot(spotdc_units::PduId::new(p)).value();
                groups.push((members, cap));
            }
            groups.push(((0..live.len()).collect(), constraints.ups_spot().value()));
        }

        out.reserve(kinks.len() * 4);
        for (i, &k) in kinks.iter().enumerate() {
            out.push(Price::per_kw_hour(k));
            out.push(Price::per_kw_hour(k + JUST_ABOVE));
            if let Some(&next) = kinks.get(i + 1) {
                // Demand is linear on (k, next): fit D(q) = α − βq from
                // two interior probes.
                let q1 = k + (next - k) * 0.25;
                let q2 = k + (next - k) * 0.75;
                if (q2 - q1).abs() <= 1e-15 {
                    continue;
                }
                // Revenue vertex of the aggregate demand.
                let d1 = aggregate(q1);
                let d2 = aggregate(q2);
                let beta = (d1 - d2) / (q2 - q1);
                if beta > 1e-12 {
                    let alpha = d1 + beta * q1;
                    let vertex = alpha / (2.0 * beta);
                    if vertex > k && vertex < next {
                        out.push(Price::per_kw_hour(vertex));
                    }
                }
                // Feasibility-threshold prices: where each constraint
                // group's demand crosses its capacity, the feasible
                // region begins — the revenue optimum often sits there.
                for (members, cap) in &groups {
                    let g1: f64 = members
                        .iter()
                        .map(|&m| clipped(&bids[live[m] as usize], q1))
                        .sum();
                    let g2: f64 = members
                        .iter()
                        .map(|&m| clipped(&bids[live[m] as usize], q2))
                        .sum();
                    let gb = (g1 - g2) / (q2 - q1);
                    if gb > 1e-12 {
                        let ga = g1 + gb * q1;
                        let crossing = (ga - cap) / gb;
                        if crossing > k && crossing < next {
                            out.push(Price::per_kw_hour(crossing));
                            out.push(Price::per_kw_hour(crossing + JUST_ABOVE));
                        }
                    }
                }
            }
        }
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
        self.clear_shares(
            slot,
            &self.per_pdu_submarket_shares(bids, constraints),
            constraints,
        )
    }

    /// Clears a run of [`Self::per_pdu_submarket_shares`] pairs in
    /// order against **one** retained copy of `constraints`, re-pointed
    /// at each sub-market's UPS share with
    /// [`ConstraintSet::set_ups_spot`] — the same clamp
    /// [`Self::per_pdu_submarkets`] applies through `with_ups_spot`, so
    /// every clear reads bit-for-bit the values a per-sub-market clone
    /// would hold while memory stays O(racks + bids) instead of
    /// O(sub-markets × racks). Callers fanning out across threads hand
    /// each worker a contiguous run of shares and concatenate the
    /// results in run order.
    #[must_use]
    pub fn clear_shares(
        &self,
        slot: Slot,
        shares: &[(Vec<RackBid>, Watts)],
        constraints: &ConstraintSet,
    ) -> Vec<MarketOutcome> {
        let mut local = constraints.clone();
        shares
            .iter()
            .map(|(group, share)| {
                local.set_ups_spot(*share);
                self.clear(slot, group, &local)
            })
            .collect()
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
    /// hold [`Self::clear_shares`] against.
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
    /// sub-market constraints bit for bit. [`Self::clear_shares`] walks
    /// these against one retained set, and the distributed controller
    /// ships one share per task instead of ~120KB of cloned statics.
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

/// Rebuilds the ascending-price visiting order for a candidate list.
/// Grid lists are already ascending (the common case, detected with one
/// linear scan); kink lists interleave vertices and crossings and need
/// the sort. Ties may land in any order — equal prices evaluate to
/// identical sums, and results are stored by candidate position, so the
/// selection order (and thus the tie rule) is unaffected.
fn build_order(candidates: &[Price], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..candidates.len() as u32);
    let sorted = candidates
        .windows(2)
        .all(|w| w[0].per_kw_hour_value() <= w[1].per_kw_hour_value());
    if !sorted {
        order.sort_unstable_by(|&a, &b| {
            candidates[a as usize]
                .per_kw_hour_value()
                .partial_cmp(&candidates[b as usize].per_kw_hour_value())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

/// The bucketed price sweep: visits candidates in ascending price
/// order, advancing every bid's segment cursor monotonically, and
/// accumulates each candidate's clipped-demand total and per-PDU sums
/// in bid order — the exact addend sequence `feasible_total` would
/// produce, so the resulting floats are bit-identical to the legacy
/// scan's. With `only`, rows not marked are skipped (their cached sums
/// are already correct); skipping is safe because cursors advance
/// lazily to whatever price comes next.
fn sweep(
    book: &BidBook,
    candidates: &[Price],
    order: &[u32],
    only: Option<&[bool]>,
    cursors: &mut Vec<u32>,
    totals: &mut [f64],
    pdu_used: &mut [f64],
) {
    let ns = book.touched.len();
    cursors.clear();
    cursors.extend_from_slice(&book.seg_start);
    for &ci in order {
        let c = ci as usize;
        if only.is_some_and(|m| !m[c]) {
            continue;
        }
        let q = candidates[c].per_kw_hour_value();
        let row = &mut pdu_used[c * ns..(c + 1) * ns];
        let mut total = 0.0;
        for ((cur, &h), &ps) in cursors.iter_mut().zip(&book.headroom).zip(&book.pdu_slot) {
            let d = advance_cursor(&book.segs, cur, q);
            // `min` then clamp — f64::min and `< 0.0`, matching
            // `Watts::min`/`Watts::clamp_non_negative` bit for bit.
            let mut clip = d.min(h);
            if clip < 0.0 {
                clip = 0.0;
            }
            total += clip;
            row[ps as usize] += clip;
        }
        totals[c] = total;
    }
}

/// Picks the revenue-maximizing feasible candidate from the swept sums,
/// visiting candidates in *stored* order with the legacy tie rule
/// (`rate <= best + 1e-12` keeps the incumbent). Untouched PDUs carry
/// exactly 0.0 demand and non-negative capacity, so checking only the
/// touched ones decides feasibility identically to the all-PDU loop.
fn select_best(
    candidates: &[Price],
    totals: &[f64],
    pdu_used: &[f64],
    touched_spot: &[f64],
    ups_spot: f64,
) -> Option<(Price, f64)> {
    let ns = touched_spot.len();
    let mut best: Option<(Price, f64)> = None;
    'cand: for (c, &q) in candidates.iter().enumerate() {
        for (&used, &cap) in pdu_used[c * ns..(c + 1) * ns].iter().zip(touched_spot) {
            if used > cap + TOLERANCE {
                continue 'cand;
            }
        }
        let total = totals[c];
        if total > ups_spot + TOLERANCE {
            continue;
        }
        let rate = q.per_kw_hour_value() * (total / 1_000.0);
        match best {
            Some((_, best_rate)) if rate <= best_rate + 1e-12 => {}
            _ => best = Some((q, rate)),
        }
    }
    best
}

/// Whether `new` differs from `old` by a small, delta-sweepable set of
/// bids. Fills `changed` with the positions whose fingerprint chunks
/// differ and returns `true` only when a delta re-clear is sound:
/// same bid count (positions align), same grid ceiling (the regenerated
/// candidate list is bit-identical to the one the cached sums were
/// built for), same touched-PDU list (accumulator slots align), every
/// changed bid still on its old PDU, and churn at or below the
/// threshold. Capacities may differ freely — they are not part of the
/// sums, only of selection.
fn delta_changed(old: &BidBook, new: &BidBook, changed: &mut Vec<u32>) -> bool {
    changed.clear();
    let n = new.len();
    if old.len() != n
        || old.ceiling.to_bits() != new.ceiling.to_bits()
        || old.touched != new.touched
    {
        return false;
    }
    let limit = (n / DELTA_CHURN_DIVISOR).max(1);
    for i in 0..n {
        let old_chunk = &old.fp[old.fp_start[i] as usize..old.fp_start[i + 1] as usize];
        let new_chunk = &new.fp[new.fp_start[i] as usize..new.fp_start[i + 1] as usize];
        if old_chunk == new_chunk {
            continue;
        }
        if new.pdu[i] != old.pdu[i] || changed.len() == limit {
            changed.clear();
            return false;
        }
        changed.push(i as u32);
    }
    !changed.is_empty()
}

/// Marks the candidate rows whose cached sums the changed bids
/// perturbed: a row is affected iff any changed bid's clipped demand
/// at that price differs *in bits* between the old and new book.
/// Unaffected rows are sums of bit-identical addend sequences and stay
/// valid as-is. Returns the number of rows marked.
#[allow(clippy::too_many_arguments)]
fn mark_affected(
    old: &BidBook,
    new: &BidBook,
    changed: &[u32],
    candidates: &[Price],
    order: &[u32],
    old_cursors: &mut Vec<u32>,
    new_cursors: &mut Vec<u32>,
    affected: &mut Vec<bool>,
) -> usize {
    old_cursors.clear();
    new_cursors.clear();
    for &p in changed {
        old_cursors.push(old.seg_start[p as usize]);
        new_cursors.push(new.seg_start[p as usize]);
    }
    affected.clear();
    affected.resize(candidates.len(), false);
    let mut marked = 0;
    for &ci in order {
        let c = ci as usize;
        let q = candidates[c].per_kw_hour_value();
        for (k, &p) in changed.iter().enumerate() {
            let p = p as usize;
            let od = advance_cursor(&old.segs, &mut old_cursors[k], q);
            let nd = advance_cursor(&new.segs, &mut new_cursors[k], q);
            let mut old_clip = od.min(old.headroom[p]);
            if old_clip < 0.0 {
                old_clip = 0.0;
            }
            let mut new_clip = nd.min(new.headroom[p]);
            if new_clip < 0.0 {
                new_clip = 0.0;
            }
            if old_clip.to_bits() != new_clip.to_bits() {
                affected[c] = true;
            }
        }
        if affected[c] {
            marked += 1;
        }
    }
    marked
}

/// Appends the exact parameters of one demand curve to a fingerprint:
/// a variant tag, then every defining value as an `f64` bit pattern
/// (length-prefixed for [`crate::demand::FullBid`]'s variable point list, so distinct
/// curves can never encode to the same sequence).
fn fingerprint_demand(d: &DemandBid, out: &mut Vec<u64>) {
    match d {
        DemandBid::Linear(b) => {
            out.push(1);
            out.push(b.d_max().value().to_bits());
            out.push(b.q_min().per_kw_hour_value().to_bits());
            out.push(b.d_min().value().to_bits());
            out.push(b.q_max().per_kw_hour_value().to_bits());
        }
        DemandBid::Step(b) => {
            out.push(2);
            out.push(b.demand().value().to_bits());
            out.push(b.price_cap().per_kw_hour_value().to_bits());
        }
        DemandBid::Full(b) => {
            out.push(3);
            out.push(b.points().len() as u64);
            for (q, w) in b.points() {
                out.push(q.per_kw_hour_value().to_bits());
                out.push(w.value().to_bits());
            }
        }
    }
}

/// Prices at which `bid`'s demand crosses the rack headroom `h` (the
/// clip `min(D(q), h)` introduces kinks there).
fn clip_crossings(bid: &DemandBid, headroom: Watts) -> Vec<Price> {
    let h = headroom.value();
    let mut out = Vec::new();
    match bid {
        DemandBid::Linear(b) => {
            let (d0, d1) = (b.d_max().value(), b.d_min().value());
            let (q0, q1) = (b.q_min().per_kw_hour_value(), b.q_max().per_kw_hour_value());
            if d0 > h && h > d1 && q1 > q0 && (d0 - d1) > 1e-15 {
                let q = q0 + (q1 - q0) * (d0 - h) / (d0 - d1);
                out.push(Price::per_kw_hour(q));
            }
        }
        DemandBid::Step(_) => {}
        DemandBid::Full(b) => {
            for w in b.points().windows(2) {
                let (q0, d0) = (w[0].0.per_kw_hour_value(), w[0].1.value());
                let (q1, d1) = (w[1].0.per_kw_hour_value(), w[1].1.value());
                if d0 > h && h > d1 && (d0 - d1) > 1e-15 && q1 > q0 {
                    let q = q0 + (q1 - q0) * (d0 - h) / (d0 - d1);
                    out.push(Price::per_kw_hour(q));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{FullBid, LinearBid, StepBid};
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

    fn clear_with(algo: ClearingAlgorithm, bids: &[RackBid], cs: &ConstraintSet) -> MarketOutcome {
        let config = match algo {
            ClearingAlgorithm::GridScan => ClearingConfig::grid(Price::cents_per_kw_hour(0.01)),
            ClearingAlgorithm::KinkSearch => ClearingConfig::kink_search(),
        };
        MarketClearing::new(config).clear(Slot::ZERO, bids, cs)
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
        let bids = vec![RackBid::new(
            RackId::new(0),
            StepBid::new(Watts::new(40.0), Price::per_kw_hour(0.25))
                .unwrap()
                .into(),
        )];
        for algo in [ClearingAlgorithm::GridScan, ClearingAlgorithm::KinkSearch] {
            let out = clear_with(algo, &bids, &cs);
            assert!(
                (out.price().per_kw_hour_value() - 0.25).abs() < 1e-6,
                "{algo:?} price {}",
                out.price()
            );
            assert_eq!(out.sold(), Watts::new(40.0));
        }
    }

    #[test]
    fn linear_bid_clears_at_revenue_vertex_or_corner() {
        // A single linear bid D(q) = 100 − 250q on (0.1, 0.3] wide open
        // capacity: revenue q(125 - 250q)... compute the truth directly.
        let cs = constraints(1000.0);
        let bids = vec![linear(0, 60.0, 0.0, 0.0, 0.3)];
        // D(q) = 60(1 − q/0.3) = 60 − 200q; R = 60q − 200q²; vertex at
        // q* = 0.15, but rack headroom also 60 so no clipping. R(0.15)
        // = 60*.15 − 200*.0225 = 9 − 4.5 = 4.5 W·$/kW/h = 0.0045 $/h.
        let out = clear_with(ClearingAlgorithm::KinkSearch, &bids, &cs);
        assert!(
            (out.price().per_kw_hour_value() - 0.15).abs() < 1e-6,
            "price {}",
            out.price()
        );
        assert!((out.sold().value() - 30.0).abs() < 1e-6);
        // Grid scan with a fine step finds (nearly) the same optimum.
        let grid = clear_with(ClearingAlgorithm::GridScan, &bids, &cs);
        assert!(grid.revenue_rate() <= out.revenue_rate() + 1e-12);
        assert!(grid.revenue_rate() > out.revenue_rate() * 0.999);
    }

    #[test]
    fn tight_capacity_forces_price_up() {
        // Two 40 W step bids but only 50 W of PDU spot: serving both is
        // infeasible at any price ≤ 0.2 (both demand), so the market
        // must price out the cheap bidder.
        let cs = constraints(50.0);
        let bids = vec![
            RackBid::new(
                RackId::new(0),
                StepBid::new(Watts::new(40.0), Price::per_kw_hour(0.2))
                    .unwrap()
                    .into(),
            ),
            RackBid::new(
                RackId::new(1),
                StepBid::new(Watts::new(40.0), Price::per_kw_hour(0.5))
                    .unwrap()
                    .into(),
            ),
        ];
        for algo in [ClearingAlgorithm::GridScan, ClearingAlgorithm::KinkSearch] {
            let out = clear_with(algo, &bids, &cs);
            assert!(out.price() > Price::per_kw_hour(0.2), "{algo:?}");
            assert_eq!(out.sold(), Watts::new(40.0));
            assert_eq!(out.allocation().grant(RackId::new(0)), Watts::ZERO);
            assert_eq!(out.allocation().grant(RackId::new(1)), Watts::new(40.0));
        }
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
        let out = clear_with(ClearingAlgorithm::KinkSearch, &bids, &cs);
        let g0 = out.allocation().grant(RackId::new(0));
        let g1 = out.allocation().grant(RackId::new(1));
        assert!(g0 > Watts::ZERO && g1 > Watts::ZERO, "both served");
        assert!(g0 + g1 <= Watts::new(50.0 + 1e-6), "fits capacity");
        assert!(g0 < Watts::new(40.0), "partially served");
    }

    #[test]
    fn more_spot_capacity_never_raises_the_price() {
        let bids = vec![
            linear(0, 50.0, 0.05, 10.0, 0.4),
            linear(1, 50.0, 0.10, 20.0, 0.5),
        ];
        let mut last_price = f64::INFINITY;
        for spot in [30.0, 60.0, 90.0, 120.0] {
            let cs = constraints(spot);
            let out = clear_with(ClearingAlgorithm::KinkSearch, &bids, &cs);
            let p = out.price().per_kw_hour_value();
            assert!(p <= last_price + 1e-9, "price rose with more capacity");
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
            for algo in [ClearingAlgorithm::GridScan, ClearingAlgorithm::KinkSearch] {
                let out = clear_with(algo, &bids, &cs);
                assert!(
                    cs.is_feasible(out.allocation().grants()),
                    "{algo:?} produced infeasible allocation at spot {spot}"
                );
            }
        }
    }

    #[test]
    fn kink_search_at_least_matches_grid_scan() {
        let cases: Vec<Vec<RackBid>> = vec![
            vec![linear(0, 60.0, 0.0, 0.0, 0.3)],
            vec![
                linear(0, 45.0, 0.1, 20.0, 0.2),
                linear(1, 30.0, 0.15, 10.0, 0.5),
            ],
            vec![
                RackBid::new(
                    RackId::new(0),
                    FullBid::new(vec![
                        (Price::ZERO, Watts::new(55.0)),
                        (Price::per_kw_hour(0.2), Watts::new(25.0)),
                        (Price::per_kw_hour(0.6), Watts::ZERO),
                    ])
                    .unwrap()
                    .into(),
                ),
                linear(1, 50.0, 0.05, 0.0, 0.4),
            ],
        ];
        for bids in cases {
            for spot in [20.0, 45.0, 100.0] {
                let cs = constraints(spot);
                let grid = clear_with(ClearingAlgorithm::GridScan, &bids, &cs);
                let kink = clear_with(ClearingAlgorithm::KinkSearch, &bids, &cs);
                assert!(
                    kink.revenue_rate() >= grid.revenue_rate() - 1e-9,
                    "kink search lost: {} < {}",
                    kink.revenue_rate(),
                    grid.revenue_rate()
                );
            }
        }
    }

    #[test]
    fn kink_search_evaluates_far_fewer_candidates() {
        let cs = constraints(100.0);
        let bids = vec![
            linear(0, 50.0, 0.1, 10.0, 0.4),
            linear(1, 40.0, 0.2, 5.0, 0.6),
        ];
        let grid = clear_with(ClearingAlgorithm::GridScan, &bids, &cs);
        let kink = clear_with(ClearingAlgorithm::KinkSearch, &bids, &cs);
        assert!(kink.candidates_evaluated() < grid.candidates_evaluated() / 10);
    }

    #[test]
    fn null_bids_are_ignored() {
        let cs = constraints(100.0);
        let bids = vec![RackBid::new(
            RackId::new(0),
            StepBid::new(Watts::ZERO, Price::per_kw_hour(0.2))
                .unwrap()
                .into(),
        )];
        let out = MarketClearing::default().clear(Slot::ZERO, &bids, &cs);
        assert!(out.allocation().is_empty());
        assert_eq!(out.candidates_evaluated(), 0);
    }

    #[test]
    fn zero_spot_capacity_sells_nothing() {
        let cs = constraints(0.0);
        let bids = vec![linear(0, 50.0, 0.1, 10.0, 0.4)];
        for algo in [ClearingAlgorithm::GridScan, ClearingAlgorithm::KinkSearch] {
            let out = clear_with(algo, &bids, &cs);
            assert!(out.allocation().is_empty(), "{algo:?}");
        }
    }

    #[test]
    fn per_pdu_pricing_localizes_prices() {
        // PDU#0 scarce and contested; a second PDU plentiful and cheap.
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(60.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(60.0))
            .build()
            .unwrap();
        let cs = ConstraintSet::new(
            &topo,
            vec![Watts::new(20.0), Watts::new(200.0)],
            Watts::new(220.0),
        );
        let bids = vec![
            linear(0, 60.0, 0.10, 10.0, 0.50), // hungry on the scarce PDU
            linear(1, 60.0, 0.02, 10.0, 0.20), // cheap on the plentiful PDU
        ];
        let engine = MarketClearing::new(ClearingConfig::kink_search());
        let per_pdu = engine.clear_per_pdu(Slot::ZERO, &bids, &cs);
        assert_eq!(per_pdu.len(), 2);
        // The scarce PDU clears higher than the plentiful one.
        assert!(per_pdu[0].price() > per_pdu[1].price());
        // Each sub-market stays feasible.
        for out in &per_pdu {
            assert!(cs.is_feasible(out.allocation().grants()));
        }
        // Localized pricing extracts at least the uniform revenue here.
        let uniform = engine.clear(Slot::ZERO, &bids, &cs);
        let local_rev: f64 = per_pdu.iter().map(MarketOutcome::revenue_rate).sum();
        assert!(local_rev >= uniform.revenue_rate() - 1e-9);
    }

    #[test]
    fn per_pdu_outcomes_respect_ups_apportionment() {
        // UPS tighter than the PDU sum: shares must cap the sub-markets.
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(60.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(60.0))
            .build()
            .unwrap();
        let cs = ConstraintSet::new(
            &topo,
            vec![Watts::new(60.0), Watts::new(60.0)],
            Watts::new(50.0),
        );
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
        for algo in [ClearingAlgorithm::GridScan, ClearingAlgorithm::KinkSearch] {
            let out = clear_with(algo, &bids, &cs);
            assert!(cs.is_feasible(out.allocation().grants()), "{algo:?}");
            assert!(
                out.sold() <= Watts::new(30.0 + 1e-6),
                "{algo:?}: {}",
                out.sold()
            );
        }
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
        let out = clear_with(ClearingAlgorithm::GridScan, &bids, &cs);
        assert!(cs.is_feasible(out.allocation().grants()));
        assert!(out.sold() <= Watts::new(25.0 + 1e-6), "sold {}", out.sold());
    }

    #[test]
    fn scratch_reuse_never_changes_outcomes() {
        // A reused engine (warm candidate buffer) must clear exactly
        // like a fresh engine for every subsequent market, including a
        // smaller one that leaves stale capacity behind.
        let markets: Vec<(Vec<RackBid>, ConstraintSet)> = vec![
            (
                vec![
                    linear(0, 55.0, 0.02, 5.0, 0.35),
                    linear(1, 70.0, 0.05, 15.0, 0.45),
                ],
                constraints(80.0),
            ),
            (vec![linear(0, 40.0, 0.05, 10.0, 0.4)], constraints(30.0)),
            (vec![], constraints(100.0)),
            (vec![linear(1, 30.0, 0.15, 10.0, 0.5)], constraints(200.0)),
        ];
        for config in [
            ClearingConfig::grid(Price::cents_per_kw_hour(0.1)),
            ClearingConfig::kink_search(),
        ] {
            let reused = MarketClearing::new(config);
            let cloned = reused.clone();
            for (slot, (bids, cs)) in markets.iter().enumerate() {
                let warm = reused.clear(Slot::new(slot as u64), bids, cs);
                let fresh = MarketClearing::new(config).clear(Slot::new(slot as u64), bids, cs);
                let from_clone = cloned.clear(Slot::new(slot as u64), bids, cs);
                assert_eq!(warm, fresh, "{config:?} slot {slot}");
                assert_eq!(from_clone, fresh, "{config:?} slot {slot} (clone)");
            }
        }
    }

    #[test]
    fn headroom_clipping_respected_in_grants() {
        // Bid asks for 100 W max but headroom is 60 W.
        let cs = constraints(500.0);
        let bids = vec![linear(0, 100.0, 0.0, 0.0, 0.4)];
        let out = clear_with(ClearingAlgorithm::KinkSearch, &bids, &cs);
        assert!(out.allocation().grant(RackId::new(0)) <= Watts::new(60.0));
    }

    /// A handful of distinct markets for the scratch-pool tests.
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
        // Many threads hammering one shared engine must produce the
        // same outcomes as clearing the same markets one at a time.
        let markets = distinct_markets();
        for config in [
            ClearingConfig::grid(Price::cents_per_kw_hour(0.1)),
            ClearingConfig::kink_search(),
        ] {
            let engine = MarketClearing::new(config);
            let serial: Vec<MarketOutcome> = markets
                .iter()
                .map(|(bids, cs)| MarketClearing::new(config).clear(Slot::ZERO, bids, cs))
                .collect();
            for round in 0..4 {
                let parallel = spotdc_par::ThreadPool::new(4)
                    .par_map(&markets, |(bids, cs)| engine.clear(Slot::ZERO, bids, cs));
                assert_eq!(parallel, serial, "{config:?} round {round}");
            }
        }
    }

    #[test]
    fn poisoned_scratch_slots_are_skipped() {
        // Poison one pool slot; clearing must route around it and stay
        // correct (the old code silently reused poisoned state).
        let engine = MarketClearing::default();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.scratch[0].lock().unwrap();
            panic!("poison the slot");
        }));
        assert!(engine.scratch[0].is_poisoned());
        let cs = constraints(100.0);
        let bids = vec![linear(0, 40.0, 0.05, 10.0, 0.4)];
        let warm = engine.clear(Slot::ZERO, &bids, &cs);
        let fresh = MarketClearing::default().clear(Slot::ZERO, &bids, &cs);
        assert_eq!(warm, fresh);
    }

    #[test]
    fn clear_falls_back_when_all_scratch_slots_are_busy() {
        // Hold every pool slot (try_lock is non-reentrant, so the
        // clearing below cannot acquire any of them) and verify the
        // stack-local fallback produces the same outcome.
        let engine = MarketClearing::default();
        let cs = constraints(100.0);
        let bids = vec![linear(0, 40.0, 0.05, 10.0, 0.4)];
        let guards: Vec<_> = engine.scratch.iter().map(|m| m.lock().unwrap()).collect();
        let busy = engine.clear(Slot::ZERO, &bids, &cs);
        drop(guards);
        let free = engine.clear(Slot::ZERO, &bids, &cs);
        assert_eq!(busy, free);
    }

    #[test]
    fn submarkets_compose_to_clear_per_pdu() {
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(60.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(60.0))
            .build()
            .unwrap();
        let cs = ConstraintSet::new(
            &topo,
            vec![Watts::new(40.0), Watts::new(90.0)],
            Watts::new(100.0),
        );
        let bids = vec![
            linear(0, 60.0, 0.10, 10.0, 0.50),
            linear(1, 60.0, 0.02, 10.0, 0.20),
        ];
        let engine = MarketClearing::new(ClearingConfig::kink_search());
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

    #[test]
    fn ups_only_change_reuses_cached_sums_as_a_hit() {
        // The per-candidate demand sums depend only on the bids; a new
        // UPS bound changes the feasibility filter, not the sums, so
        // the second clear must resolve as a cache hit (zero rows
        // swept) and still match a cold engine under the new bound.
        let config = ClearingConfig::grid(Price::cents_per_kw_hour(0.1));
        let engine = MarketClearing::new(config);
        let bids = vec![
            linear(0, 40.0, 0.05, 10.0, 0.4),
            linear(1, 30.0, 0.10, 5.0, 0.3),
        ];
        let cs = constraints(100.0);
        let _ = engine.clear(Slot::ZERO, &bids, &cs);
        assert_eq!(engine.cache_stats().full_sweeps, 1);

        let tighter = constraints(100.0).with_ups_spot(Watts::new(35.0));
        let warm = engine.clear(Slot::new(1), &bids, &tighter);
        let stats = engine.cache_stats();
        assert_eq!(stats.cache_hits, 1, "{stats:?}");
        assert_eq!(
            stats.candidates_swept,
            stats.candidates_total / 2,
            "a hit sweeps no candidate rows: {stats:?}"
        );
        let fresh = MarketClearing::new(config).clear(Slot::new(1), &bids, &tighter);
        assert_eq!(warm, fresh);
        assert!(warm.sold() <= Watts::new(35.0 + 1e-6));
    }

    #[test]
    fn single_bid_change_triggers_a_delta_resweep() {
        // Ten bids, one d_max nudged between slots: prices (and thus
        // the grid candidate list) are unchanged, so the engine patches
        // the cached sums instead of re-sweeping from scratch.
        let mut b = TopologyBuilder::new(Watts::new(1e5)).pdu(Watts::new(1e4));
        for i in 0..10 {
            b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
        }
        let topo = b.build().unwrap();
        let cs = ConstraintSet::new(&topo, vec![Watts::new(400.0)], Watts::new(400.0));
        let bids: Vec<RackBid> = (0..10)
            .map(|i| linear(i, 40.0 + i as f64, 0.05, 10.0, 0.4))
            .collect();
        let config = ClearingConfig::grid(Price::cents_per_kw_hour(0.1));
        let engine = MarketClearing::new(config);
        let _ = engine.clear(Slot::ZERO, &bids, &cs);

        let mut changed = bids.clone();
        changed[3] = linear(3, 55.0, 0.05, 10.0, 0.4);
        let warm = engine.clear(Slot::new(1), &changed, &cs);
        let stats = engine.cache_stats();
        assert_eq!(stats.delta_sweeps, 1, "{stats:?}");
        assert!(
            stats.candidates_swept < stats.candidates_total,
            "the delta pass must skip unaffected rows: {stats:?}"
        );
        let fresh = MarketClearing::new(config).clear(Slot::new(1), &changed, &cs);
        assert_eq!(warm, fresh);
    }

    #[test]
    fn bulk_churn_falls_back_to_a_full_sweep() {
        // Changing more than n/8 bids exceeds the delta threshold; the
        // engine must fall back to a full re-sweep, not a patch.
        let mut b = TopologyBuilder::new(Watts::new(1e5)).pdu(Watts::new(1e4));
        for i in 0..10 {
            b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
        }
        let topo = b.build().unwrap();
        let cs = ConstraintSet::new(&topo, vec![Watts::new(400.0)], Watts::new(400.0));
        let bids: Vec<RackBid> = (0..10)
            .map(|i| linear(i, 40.0 + i as f64, 0.05, 10.0, 0.4))
            .collect();
        let config = ClearingConfig::grid(Price::cents_per_kw_hour(0.1));
        let engine = MarketClearing::new(config);
        let _ = engine.clear(Slot::ZERO, &bids, &cs);

        let mut changed = bids.clone();
        for (i, bid) in changed.iter_mut().enumerate().take(5) {
            *bid = linear(i, 50.0 + i as f64, 0.05, 10.0, 0.4);
        }
        let warm = engine.clear(Slot::new(1), &changed, &cs);
        let stats = engine.cache_stats();
        assert_eq!(stats.full_sweeps, 2, "{stats:?}");
        assert_eq!(stats.delta_sweeps, 0, "{stats:?}");
        let fresh = MarketClearing::new(config).clear(Slot::new(1), &changed, &cs);
        assert_eq!(warm, fresh);
    }

    #[test]
    fn zone_markets_use_the_legacy_scan() {
        // Extra constraints (zones/phases) route through the scalar
        // per-candidate scan; the stats must say so.
        let cs = constraints(100.0).with_zone(
            "aisle",
            vec![RackId::new(0), RackId::new(1)],
            Watts::new(30.0),
        );
        let engine = MarketClearing::default();
        let bids = vec![linear(0, 50.0, 0.0, 0.0, 0.4)];
        let _ = engine.clear(Slot::ZERO, &bids, &cs);
        let stats = engine.cache_stats();
        assert_eq!(stats.legacy_scans, 1, "{stats:?}");
        assert_eq!(stats.full_sweeps, 0, "{stats:?}");
    }
}
