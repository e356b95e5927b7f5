//! The `MaxPerf` baseline: owner-operated optimal allocation.
//!
//! The paper's upper-bound comparator (Section V-B) assumes the
//! operator controls every server, knows every tenant's performance
//! gain from extra power, and allocates spot capacity to maximize the
//! *total* gain with no payments — the power-routing setting of \[9\].
//!
//! With concave per-rack gain curves and the nested rack ⊆ PDU ⊆ UPS
//! capacity structure, the greedy that repeatedly feeds the hungriest
//! marginal watt is optimal: process all racks' gain-curve segments in
//! decreasing slope order, granting each as much of its segment as the
//! rack's remaining headroom, its PDU's remaining spot capacity and the
//! UPS's remaining spot capacity allow.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use spotdc_units::{RackId, Watts};

use crate::constraints::ConstraintSet;

/// A concave piece-wise linear gain curve for one rack: the $/hour of
/// performance gain as a function of spot watts granted.
///
/// # Examples
///
/// ```
/// use spotdc_core::ConcaveGain;
///
/// // 0→20 W at $0.002/W/h, then 20→50 W at $0.0005/W/h.
/// let g = ConcaveGain::new(vec![(20.0, 0.002), (30.0, 0.0005)])?;
/// assert_eq!(g.segments(), &[(20.0, 0.002), (30.0, 0.0005)]);
/// // Slopes must not increase: a convex curve is rejected.
/// assert!(ConcaveGain::new(vec![(20.0, 0.0005), (30.0, 0.002)]).is_err());
/// # Ok::<(), spotdc_core::maxperf::GainError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcaveGain {
    /// `(width_watts, slope_usd_per_watt_hour)` segments with strictly
    /// decreasing slopes.
    segments: Vec<(f64, f64)>,
}

/// An invalid gain curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GainError(String);

impl std::fmt::Display for GainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid gain curve: {}", self.0)
    }
}

impl std::error::Error for GainError {}

impl ConcaveGain {
    /// Creates a curve from `(segment width in watts, slope in $/W/h)`
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GainError`] if any width/slope is negative or
    /// non-finite, or slopes are not non-increasing (concavity).
    pub fn new(segments: Vec<(f64, f64)>) -> Result<Self, GainError> {
        for &(w, s) in &segments {
            if !w.is_finite() || w < 0.0 {
                return Err(GainError("segment widths must be non-negative".into()));
            }
            if !s.is_finite() || s < 0.0 {
                return Err(GainError("slopes must be non-negative".into()));
            }
        }
        for pair in segments.windows(2) {
            if pair[1].1 > pair[0].1 + 1e-12 {
                return Err(GainError("slopes must be non-increasing".into()));
            }
        }
        Ok(ConcaveGain { segments })
    }

    /// Builds a curve from sampled `(watts, gain)` points of a concave
    /// function (e.g. a concave envelope from `spotdc-workloads`):
    /// consecutive point pairs become segments. Slopes that increase by
    /// tiny numeric noise are flattened.
    ///
    /// # Errors
    ///
    /// Returns [`GainError`] if points are not sorted/finite.
    pub fn from_points(points: &[(f64, f64)]) -> Result<Self, GainError> {
        let mut segments = Vec::with_capacity(points.len().saturating_sub(1));
        let mut last_slope = f64::INFINITY;
        for pair in points.windows(2) {
            let width = pair[1].0 - pair[0].0;
            if !width.is_finite() || width < 0.0 {
                return Err(GainError("points must be sorted by watts".into()));
            }
            if width == 0.0 {
                continue;
            }
            let slope = ((pair[1].1 - pair[0].1) / width).max(0.0);
            let slope = slope.min(last_slope);
            last_slope = slope;
            segments.push((width, slope));
        }
        ConcaveGain::new(segments)
    }

    /// The curve's segments.
    #[must_use]
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }
}

/// Allocates spot capacity to maximize total gain across `gains`,
/// subject to `constraints` — the `MaxPerf` baseline.
///
/// Racks without a gain curve receive nothing. The returned grants are
/// always feasible.
///
/// # Examples
///
/// ```
/// use spotdc_core::{max_perf_allocate, ConcaveGain, ConstraintSet};
/// use spotdc_power::topology::TopologyBuilder;
/// use spotdc_units::{RackId, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(300.0))
///     .pdu(Watts::new(200.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .rack(TenantId::new(1), Watts::new(100.0), Watts::new(50.0))
///     .build()?;
/// let cs = ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0));
/// let gains = [
///     (RackId::new(0), ConcaveGain::new(vec![(50.0, 0.002)])?),
///     (RackId::new(1), ConcaveGain::new(vec![(50.0, 0.001)])?),
/// ].into_iter().collect();
/// let grants = max_perf_allocate(&gains, &cs);
/// // Hungrier rack 0 is saturated first; rack 1 gets the remainder.
/// assert_eq!(grants[&RackId::new(0)], Watts::new(50.0));
/// assert_eq!(grants[&RackId::new(1)], Watts::new(10.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn max_perf_allocate(
    gains: &BTreeMap<RackId, ConcaveGain>,
    constraints: &ConstraintSet,
) -> BTreeMap<RackId, Watts> {
    // Flatten all segments, tagged by rack, and sort by slope desc.
    struct Piece {
        rack: RackId,
        width: f64,
        slope: f64,
    }
    let mut pieces: Vec<Piece> = Vec::new();
    for (&rack, curve) in gains {
        for &(width, slope) in curve.segments() {
            if width > 0.0 && slope > 0.0 {
                pieces.push(Piece { rack, width, slope });
            }
        }
    }
    pieces.sort_by(|a, b| b.slope.partial_cmp(&a.slope).expect("finite slopes"));

    let mut grants: BTreeMap<RackId, Watts> = gains.keys().map(|&r| (r, Watts::ZERO)).collect();
    let mut pdu_left: Vec<Watts> = (0..)
        .map(spotdc_units::PduId::new)
        .take_while(|p| p.index() < constraints_pdu_count(constraints))
        .map(|p| constraints.pdu_spot(p))
        .collect();
    let mut ups_left = constraints.ups_spot();

    for piece in pieces {
        let Some(pdu) = constraints.pdu_of(piece.rack) else {
            continue;
        };
        let rack_left = constraints.rack_headroom(piece.rack) - grants[&piece.rack];
        let take = Watts::new(piece.width)
            .min(rack_left)
            .min(pdu_left[pdu.index()])
            .min(ups_left)
            .clamp_non_negative();
        if take > Watts::ZERO {
            *grants.get_mut(&piece.rack).expect("initialized") += take;
            pdu_left[pdu.index()] -= take;
            ups_left -= take;
        }
    }
    grants
}

/// Number of PDUs a constraint set covers (probe until zero-capacity
/// PDUs would repeat forever — the set stores them densely).
fn constraints_pdu_count(constraints: &ConstraintSet) -> usize {
    // ConstraintSet is dense over PDU ids; racks carry the mapping.
    (0..constraints.rack_count())
        .filter_map(|i| constraints.pdu_of(RackId::new(i)))
        .map(|p| p.index() + 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn constraints(pdu0: f64, pdu1: f64, ups: f64) -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(50.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(2), Watts::new(100.0), Watts::new(50.0))
            .build()
            .unwrap();
        ConstraintSet::new(
            &topo,
            vec![Watts::new(pdu0), Watts::new(pdu1)],
            Watts::new(ups),
        )
    }

    fn gain(segs: &[(f64, f64)]) -> ConcaveGain {
        ConcaveGain::new(segs.to_vec()).unwrap()
    }

    /// Gain ($/hour) of `g` at `watts`: the segments filled in order.
    fn gain_at(g: &ConcaveGain, watts: f64) -> f64 {
        let mut remaining = watts.max(0.0);
        let mut total = 0.0;
        for &(w, s) in g.segments() {
            let take = remaining.min(w);
            total += take * s;
            remaining -= take;
        }
        total
    }

    #[test]
    fn non_concave_rejected() {
        assert!(ConcaveGain::new(vec![(10.0, 0.5), (10.0, 1.0)]).is_err());
        assert!(ConcaveGain::new(vec![(-1.0, 0.5)]).is_err());
        assert!(ConcaveGain::new(vec![(1.0, -0.5)]).is_err());
    }

    #[test]
    fn from_points_builds_segments() {
        let g = ConcaveGain::from_points(&[(0.0, 0.0), (10.0, 20.0), (30.0, 30.0)]).unwrap();
        assert_eq!(g.segments().len(), 2);
        assert!((gain_at(&g, 10.0) - 20.0).abs() < 1e-12);
        assert!((gain_at(&g, 30.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_prefers_higher_marginal_gain() {
        let cs = constraints(60.0, 500.0, 1000.0);
        let gains = [
            (RackId::new(0), gain(&[(50.0, 0.003)])),
            (RackId::new(1), gain(&[(50.0, 0.001)])),
        ]
        .into_iter()
        .collect();
        let grants = max_perf_allocate(&gains, &cs);
        assert_eq!(grants[&RackId::new(0)], Watts::new(50.0));
        assert_eq!(grants[&RackId::new(1)], Watts::new(10.0));
    }

    #[test]
    fn interleaves_segments_across_racks() {
        // Rack 0: steep then shallow; rack 1: medium. Optimal order:
        // r0-seg1 (0.004), r1-seg (0.002), r0-seg2 (0.001).
        let cs = constraints(45.0, 500.0, 1000.0);
        let gains = [
            (RackId::new(0), gain(&[(20.0, 0.004), (20.0, 0.001)])),
            (RackId::new(1), gain(&[(20.0, 0.002)])),
        ]
        .into_iter()
        .collect();
        let grants = max_perf_allocate(&gains, &cs);
        assert_eq!(grants[&RackId::new(0)], Watts::new(25.0)); // 20 + 5
        assert_eq!(grants[&RackId::new(1)], Watts::new(20.0));
    }

    #[test]
    fn respects_all_constraint_levels() {
        let cs = constraints(30.0, 20.0, 40.0);
        let gains = [
            (RackId::new(0), gain(&[(50.0, 0.005)])),
            (RackId::new(1), gain(&[(50.0, 0.004)])),
            (RackId::new(2), gain(&[(50.0, 0.003)])),
        ]
        .into_iter()
        .collect();
        let grants = max_perf_allocate(&gains, &cs);
        assert!(cs.is_feasible(&grants), "grants {grants:?}");
        // UPS (40) binds before PDU sums (50): total must be 40.
        let total: Watts = grants.values().copied().sum();
        assert!(total.approx_eq(Watts::new(40.0), 1e-9));
        // And the steepest rack is served first.
        assert_eq!(grants[&RackId::new(0)], Watts::new(30.0));
    }

    #[test]
    fn matches_brute_force_on_small_instance() {
        // Two racks on one PDU (30 W spot), concave 2-segment curves.
        let cs = constraints(30.0, 0.0, 30.0);
        let g0 = gain(&[(15.0, 0.004), (25.0, 0.002)]);
        let g1 = gain(&[(10.0, 0.005), (30.0, 0.001)]);
        let gains = [(RackId::new(0), g0.clone()), (RackId::new(1), g1.clone())]
            .into_iter()
            .collect();
        let grants = max_perf_allocate(&gains, &cs);
        let greedy_total = gain_at(&g0, grants[&RackId::new(0)].value())
            + gain_at(&g1, grants[&RackId::new(1)].value());
        // Brute-force over integer splits of the 30 W.
        let mut best = 0.0f64;
        for a in 0..=30 {
            let b = 30 - a;
            let v = gain_at(&g0, a as f64) + gain_at(&g1, b as f64);
            best = best.max(v);
        }
        assert!(
            greedy_total >= best - 1e-9,
            "greedy {greedy_total} < brute force {best}"
        );
    }

    #[test]
    fn empty_gains_yield_empty_grants() {
        let cs = constraints(30.0, 30.0, 60.0);
        let grants = max_perf_allocate(&BTreeMap::new(), &cs);
        assert!(grants.is_empty());
    }

    #[test]
    fn zero_slope_segments_get_nothing() {
        let cs = constraints(30.0, 30.0, 60.0);
        let gains = [(RackId::new(0), gain(&[(50.0, 0.0)]))]
            .into_iter()
            .collect();
        let grants = max_perf_allocate(&gains, &cs);
        assert_eq!(grants[&RackId::new(0)], Watts::ZERO);
    }
}
