//! Demand functions: how a rack's spot-capacity demand varies with price.
//!
//! The heart of SpotDC's market design (Section III-B1 of the paper).
//! Three demand-function languages are supported:
//!
//! * [`LinearBid`] — **SpotDC's proposal**: four parameters
//!   `{(D_max, q_min), (D_min, q_max)}` describing a flat segment up to
//!   `q_min`, a linearly decreasing segment to `(q_max, D_min)` and a
//!   cut-off above `q_max`. Cheap to solicit yet elastic.
//! * [`StepBid`] — the Amazon-spot-style baseline: a fixed quantity at
//!   any price up to a cap, then nothing. All-or-nothing; cannot
//!   express elasticity.
//! * [`FullBid`] — the research upper bound: the complete demand curve
//!   as an arbitrary non-increasing piece-wise linear function.
//!
//! [`DemandBid`] is the closed union of the three that the market
//! operates on. All demand functions are **non-increasing in price** —
//! enforced at construction — which is what makes uniform-price
//! clearing monotone and safe.

use std::fmt;

use serde::{Deserialize, Serialize};
use spotdc_units::{Price, Watts};

use crate::bid::BidError;

/// Numeric tolerance when comparing prices for kink handling. Shared
/// with the columnar clearing sweep, whose segment bounds must compare
/// bit-for-bit like the `demand_at` implementations below.
pub(crate) const EPS: f64 = 1e-12;

/// SpotDC's four-parameter piece-wise linear demand function.
///
/// ```text
/// demand
/// D_max ────────╮
///               │╲
///               │ ╲        (linearly decreasing)
/// D_min         │  ╲───────╮
///               │          │
///     0 ────────┴──────────┴───────→ price
///             q_min      q_max
/// ```
///
/// Degenerate forms are allowed and reduce to [`StepBid`]:
/// `D_max = D_min` (price-insensitive quantity up to `q_max`) or
/// `q_min = q_max` (all-or-nothing at one price).
///
/// # Examples
///
/// ```
/// use spotdc_core::demand::LinearBid;
/// use spotdc_units::{Price, Watts};
///
/// let bid = LinearBid::new(
///     Watts::new(100.0), Price::per_kw_hour(0.10),
///     Watts::new(40.0), Price::per_kw_hour(0.20),
/// )?;
/// // Midpoint of the sloped segment:
/// assert_eq!(bid.demand_at(Price::per_kw_hour(0.15)), Watts::new(70.0));
/// # Ok::<(), spotdc_core::BidError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearBid {
    d_max: Watts,
    q_min: Price,
    d_min: Watts,
    q_max: Price,
}

impl LinearBid {
    /// Creates a linear bid from its four parameters.
    ///
    /// # Errors
    ///
    /// Returns [`BidError`] unless `0 ≤ D_min ≤ D_max`, both demands
    /// finite, and `0 ≤ q_min ≤ q_max` with both prices valid.
    pub fn new(d_max: Watts, q_min: Price, d_min: Watts, q_max: Price) -> Result<Self, BidError> {
        if !d_max.is_finite() || !d_min.is_finite() {
            return Err(BidError::invalid("demand must be finite"));
        }
        if d_min.is_negative() {
            return Err(BidError::invalid("minimum demand must be non-negative"));
        }
        if d_min > d_max {
            return Err(BidError::invalid(
                "minimum demand must not exceed maximum demand",
            ));
        }
        if !q_min.is_valid() || !q_max.is_valid() {
            return Err(BidError::invalid("prices must be finite and non-negative"));
        }
        if q_min > q_max {
            return Err(BidError::invalid(
                "minimum price must not exceed maximum price",
            ));
        }
        Ok(LinearBid {
            d_max,
            q_min,
            d_min,
            q_max,
        })
    }

    /// The maximum demand `D_max`.
    #[must_use]
    pub fn d_max(&self) -> Watts {
        self.d_max
    }

    /// The price `q_min` up to which the full `D_max` is demanded.
    #[must_use]
    pub fn q_min(&self) -> Price {
        self.q_min
    }

    /// The minimum demand `D_min`.
    #[must_use]
    pub fn d_min(&self) -> Watts {
        self.d_min
    }

    /// The maximum acceptable price `q_max`.
    #[must_use]
    pub fn q_max(&self) -> Price {
        self.q_max
    }

    /// Demand at `price`.
    #[must_use]
    pub fn demand_at(&self, price: Price) -> Watts {
        let q = price.per_kw_hour_value();
        let q0 = self.q_min.per_kw_hour_value();
        let q1 = self.q_max.per_kw_hour_value();
        if q > q1 + EPS {
            return Watts::ZERO;
        }
        if q <= q0 + EPS {
            return self.d_max;
        }
        if q1 - q0 <= EPS {
            // Degenerate step at q0 == q1: demand D_max up to the price.
            return self.d_max;
        }
        let frac = (q - q0) / (q1 - q0);
        self.d_max + (self.d_min - self.d_max) * frac
    }
}

impl fmt::Display for LinearBid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "linear bid ({:.1} @ {}, {:.1} @ {})",
            self.d_max, self.q_min, self.d_min, self.q_max
        )
    }
}

/// An all-or-nothing step demand (the Amazon-spot baseline).
///
/// # Examples
///
/// ```
/// use spotdc_core::demand::StepBid;
/// use spotdc_units::{Price, Watts};
///
/// let bid = StepBid::new(Watts::new(50.0), Price::per_kw_hour(0.2))?;
/// assert_eq!(bid.demand_at(Price::per_kw_hour(0.2)), Watts::new(50.0));
/// assert_eq!(bid.demand_at(Price::per_kw_hour(0.21)), Watts::ZERO);
/// # Ok::<(), spotdc_core::BidError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepBid {
    demand: Watts,
    price_cap: Price,
}

impl StepBid {
    /// Creates a step bid: `demand` watts at any price up to
    /// `price_cap`.
    ///
    /// # Errors
    ///
    /// Returns [`BidError`] if the demand is negative/non-finite or the
    /// price invalid.
    pub fn new(demand: Watts, price_cap: Price) -> Result<Self, BidError> {
        if !demand.is_finite() || demand.is_negative() {
            return Err(BidError::invalid("demand must be finite and non-negative"));
        }
        if !price_cap.is_valid() {
            return Err(BidError::invalid(
                "price cap must be finite and non-negative",
            ));
        }
        Ok(StepBid { demand, price_cap })
    }

    /// The fixed quantity demanded.
    #[must_use]
    pub fn demand(&self) -> Watts {
        self.demand
    }

    /// The highest acceptable price.
    #[must_use]
    pub fn price_cap(&self) -> Price {
        self.price_cap
    }

    /// Demand at `price`.
    #[must_use]
    pub fn demand_at(&self, price: Price) -> Watts {
        if price.per_kw_hour_value() <= self.price_cap.per_kw_hour_value() + EPS {
            self.demand
        } else {
            Watts::ZERO
        }
    }
}

impl fmt::Display for StepBid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step bid ({:.1} up to {})", self.demand, self.price_cap)
    }
}

/// The complete demand curve: an arbitrary non-increasing piece-wise
/// linear function of price (the "FullBid" comparator of Section V-C).
///
/// Between breakpoints demand interpolates linearly; beyond the last
/// breakpoint it is zero; before the first it is the first demand.
///
/// # Examples
///
/// ```
/// use spotdc_core::demand::FullBid;
/// use spotdc_units::{Price, Watts};
///
/// let bid = FullBid::new(vec![
///     (Price::ZERO, Watts::new(80.0)),
///     (Price::per_kw_hour(0.1), Watts::new(50.0)),
///     (Price::per_kw_hour(0.3), Watts::ZERO),
/// ])?;
/// assert!(bid.demand_at(Price::per_kw_hour(0.2)).approx_eq(Watts::new(25.0), 1e-9));
/// # Ok::<(), spotdc_core::BidError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullBid {
    /// `(price, demand)` breakpoints, strictly increasing in price,
    /// non-increasing in demand.
    points: Vec<(Price, Watts)>,
}

impl FullBid {
    /// Creates a full demand curve from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`BidError`] if fewer than one point is given, prices
    /// are not strictly increasing, any value is invalid, or demand
    /// ever increases with price.
    pub fn new(points: Vec<(Price, Watts)>) -> Result<Self, BidError> {
        if points.is_empty() {
            return Err(BidError::invalid("demand curve needs at least one point"));
        }
        for &(q, d) in &points {
            if !q.is_valid() {
                return Err(BidError::invalid("prices must be finite and non-negative"));
            }
            if !d.is_finite() || d.is_negative() {
                return Err(BidError::invalid("demand must be finite and non-negative"));
            }
        }
        for w in points.windows(2) {
            if w[1].0.per_kw_hour_value() <= w[0].0.per_kw_hour_value() {
                return Err(BidError::invalid("prices must be strictly increasing"));
            }
            if w[1].1 > w[0].1 {
                return Err(BidError::invalid("demand must be non-increasing in price"));
            }
        }
        Ok(FullBid { points })
    }

    /// The curve's breakpoints.
    #[must_use]
    pub fn points(&self) -> &[(Price, Watts)] {
        &self.points
    }

    /// Demand at `price`.
    #[must_use]
    pub fn demand_at(&self, price: Price) -> Watts {
        let q = price.per_kw_hour_value();
        let first = &self.points[0];
        if q <= first.0.per_kw_hour_value() + EPS {
            return first.1;
        }
        let last = &self.points[self.points.len() - 1];
        if q > last.0.per_kw_hour_value() + EPS {
            return Watts::ZERO;
        }
        let i = self
            .points
            .partition_point(|(p, _)| p.per_kw_hour_value() <= q + EPS);
        let (q0, d0) = self.points[i - 1];
        if i == self.points.len() {
            return d0; // exactly at (or within eps of) the last point
        }
        let (q1, d1) = self.points[i];
        let span = q1.per_kw_hour_value() - q0.per_kw_hour_value();
        if span <= EPS {
            return d1;
        }
        let frac = (q - q0.per_kw_hour_value()) / span;
        d0 + (d1 - d0) * frac
    }
}

/// Any of the three demand-function languages, as submitted for one
/// rack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DemandBid {
    /// SpotDC's four-parameter piece-wise linear bid.
    Linear(LinearBid),
    /// All-or-nothing step bid.
    Step(StepBid),
    /// Complete demand curve.
    Full(FullBid),
}

impl DemandBid {
    /// Demand at `price`.
    #[must_use]
    pub fn demand_at(&self, price: Price) -> Watts {
        match self {
            DemandBid::Linear(b) => b.demand_at(price),
            DemandBid::Step(b) => b.demand_at(price),
            DemandBid::Full(b) => b.demand_at(price),
        }
    }

    /// Demand at price zero (the most that can ever be allocated).
    #[must_use]
    pub fn max_demand(&self) -> Watts {
        self.demand_at(Price::ZERO)
    }

    /// The highest price at which demand is still positive; any price
    /// strictly above this clears the bid to zero.
    #[must_use]
    pub fn price_ceiling(&self) -> Price {
        match self {
            DemandBid::Linear(b) => b.q_max(),
            DemandBid::Step(b) => b.price_cap(),
            DemandBid::Full(b) => b.points[b.points.len() - 1].0,
        }
    }

    /// Whether demand is zero at every price.
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.max_demand() == Watts::ZERO
    }
}

impl From<LinearBid> for DemandBid {
    fn from(b: LinearBid) -> Self {
        DemandBid::Linear(b)
    }
}

impl From<StepBid> for DemandBid {
    fn from(b: StepBid) -> Self {
        DemandBid::Step(b)
    }
}

impl From<FullBid> for DemandBid {
    fn from(b: FullBid) -> Self {
        DemandBid::Full(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> LinearBid {
        LinearBid::new(
            Watts::new(100.0),
            Price::per_kw_hour(0.10),
            Watts::new(40.0),
            Price::per_kw_hour(0.20),
        )
        .unwrap()
    }

    #[test]
    fn linear_three_segments() {
        let b = linear();
        assert_eq!(b.demand_at(Price::ZERO), Watts::new(100.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.10)), Watts::new(100.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.15)), Watts::new(70.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.20)), Watts::new(40.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.2000001)), Watts::ZERO);
    }

    #[test]
    fn linear_degenerate_equal_prices_is_step() {
        let b = LinearBid::new(
            Watts::new(100.0),
            Price::per_kw_hour(0.2),
            Watts::new(40.0),
            Price::per_kw_hour(0.2),
        )
        .unwrap();
        assert_eq!(b.demand_at(Price::per_kw_hour(0.19)), Watts::new(100.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.2)), Watts::new(100.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.21)), Watts::ZERO);
    }

    #[test]
    fn linear_degenerate_equal_demands_is_flat() {
        let b = LinearBid::new(
            Watts::new(60.0),
            Price::per_kw_hour(0.1),
            Watts::new(60.0),
            Price::per_kw_hour(0.3),
        )
        .unwrap();
        assert_eq!(b.demand_at(Price::per_kw_hour(0.2)), Watts::new(60.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.3)), Watts::new(60.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.31)), Watts::ZERO);
    }

    #[test]
    fn linear_validation() {
        let p = Price::per_kw_hour;
        assert!(LinearBid::new(Watts::new(10.0), p(0.2), Watts::new(20.0), p(0.3)).is_err());
        assert!(LinearBid::new(Watts::new(20.0), p(0.3), Watts::new(10.0), p(0.2)).is_err());
        assert!(LinearBid::new(Watts::new(-1.0), p(0.1), Watts::new(-2.0), p(0.2)).is_err());
        assert!(LinearBid::new(Watts::new(20.0), p(-0.1), Watts::new(10.0), p(0.2)).is_err());
        assert!(LinearBid::new(Watts::new(f64::NAN), p(0.1), Watts::new(1.0), p(0.2)).is_err());
    }

    #[test]
    fn step_is_all_or_nothing() {
        let b = StepBid::new(Watts::new(50.0), Price::per_kw_hour(0.25)).unwrap();
        assert_eq!(b.demand_at(Price::ZERO), Watts::new(50.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.25)), Watts::new(50.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.26)), Watts::ZERO);
    }

    #[test]
    fn full_bid_interpolates() {
        let b = FullBid::new(vec![
            (Price::ZERO, Watts::new(80.0)),
            (Price::per_kw_hour(0.1), Watts::new(50.0)),
            (Price::per_kw_hour(0.3), Watts::ZERO),
        ])
        .unwrap();
        assert_eq!(b.demand_at(Price::ZERO), Watts::new(80.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.05)), Watts::new(65.0));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.1)), Watts::new(50.0));
        assert!(b
            .demand_at(Price::per_kw_hour(0.2))
            .approx_eq(Watts::new(25.0), 1e-9));
        assert_eq!(b.demand_at(Price::per_kw_hour(0.3)), Watts::ZERO);
        assert_eq!(b.demand_at(Price::per_kw_hour(0.4)), Watts::ZERO);
    }

    #[test]
    fn full_bid_validation() {
        let p = Price::per_kw_hour;
        assert!(FullBid::new(vec![]).is_err());
        // non-increasing prices
        assert!(FullBid::new(vec![(p(0.2), Watts::new(1.0)), (p(0.1), Watts::ZERO)]).is_err());
        // increasing demand
        assert!(FullBid::new(vec![(p(0.1), Watts::new(1.0)), (p(0.2), Watts::new(2.0))]).is_err());
    }

    #[test]
    fn demand_bid_union_dispatch() {
        let l: DemandBid = linear().into();
        let s: DemandBid = StepBid::new(Watts::new(5.0), Price::per_kw_hour(0.1))
            .unwrap()
            .into();
        assert_eq!(l.max_demand(), Watts::new(100.0));
        assert_eq!(s.max_demand(), Watts::new(5.0));
        assert_eq!(l.price_ceiling(), Price::per_kw_hour(0.2));
        assert_eq!(s.price_ceiling(), Price::per_kw_hour(0.1));
        assert!(!l.is_null());
        let null: DemandBid = StepBid::new(Watts::ZERO, Price::per_kw_hour(0.1))
            .unwrap()
            .into();
        assert!(null.is_null());
    }

    #[test]
    fn all_demands_non_increasing_in_price() {
        let bids: Vec<DemandBid> = vec![
            linear().into(),
            StepBid::new(Watts::new(30.0), Price::per_kw_hour(0.15))
                .unwrap()
                .into(),
            FullBid::new(vec![
                (Price::ZERO, Watts::new(80.0)),
                (Price::per_kw_hour(0.1), Watts::new(20.0)),
                (Price::per_kw_hour(0.3), Watts::new(5.0)),
            ])
            .unwrap()
            .into(),
        ];
        for bid in bids {
            let mut last = Watts::new(f64::INFINITY);
            for i in 0..=50 {
                let q = Price::per_kw_hour(0.4 * i as f64 / 50.0);
                let d = bid.demand_at(q);
                assert!(d <= last + Watts::new(1e-9), "demand rose at {q}");
                last = d;
            }
        }
    }
}
