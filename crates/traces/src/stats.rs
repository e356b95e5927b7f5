//! Empirical statistics over traces: CDFs and variation measures.
//!
//! Three of the paper's figures are direct statistics of time series:
//! Fig. 2(b) (CDF of aggregate PDU power), Fig. 7(a) (histogram of
//! slot-to-slot PDU power variation) and Fig. 13 (CDFs of market price
//! and UPS utilization). [`Cdf`] and [`VariationStats`] compute them.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution over `f64` samples.
///
/// # Examples
///
/// ```
/// use spotdc_traces::Cdf;
///
/// let cdf = Cdf::from_samples([3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; non-finite samples are dropped.
    #[must_use]
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Cdf { sorted }
    }

    /// Number of (finite) samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The minimum sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// The maximum sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The sample mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// `P(X ≤ x)`: the fraction of samples at or below `x`.
    #[must_use]
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (nearest-rank), e.g. `quantile(0.5)` = median.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q ∉ [0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty cdf");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Evaluates the CDF at `points` evenly spaced values covering the
    /// sample range, returning `(x, P(X ≤ x))` pairs ready to plot.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` or the CDF is empty.
    #[must_use]
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        assert!(!self.sorted.is_empty(), "curve of empty cdf");
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Cdf::from_samples(iter)
    }
}

/// Relative slot-to-slot variation of a time series (paper Fig. 7a).
///
/// For a series `p₀, p₁, …` the variations are
/// `|pₜ₊₁ − pₜ| / pₜ` (slots with `pₜ = 0` are skipped).
///
/// # Examples
///
/// ```
/// use spotdc_traces::VariationStats;
///
/// let v = VariationStats::from_series(&[100.0, 101.0, 99.0, 99.0]);
/// assert!(v.fraction_within(0.025) > 0.99);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationStats {
    variations: Vec<f64>,
}

impl VariationStats {
    /// Computes relative consecutive variations of `series`.
    #[must_use]
    pub fn from_series(series: &[f64]) -> Self {
        let variations = series
            .windows(2)
            .filter(|w| w[0] != 0.0 && w[0].is_finite() && w[1].is_finite())
            .map(|w| ((w[1] - w[0]) / w[0]).abs())
            .collect();
        VariationStats { variations }
    }

    /// Number of variation samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.variations.len()
    }

    /// Whether there are no variation samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.variations.is_empty()
    }

    /// Fraction of slot transitions whose relative change is at most
    /// `bound` (e.g. `0.025` for ±2.5 %).
    #[must_use]
    pub fn fraction_within(&self, bound: f64) -> f64 {
        if self.variations.is_empty() {
            return 1.0;
        }
        self.variations.iter().filter(|&&v| v <= bound).count() as f64
            / self.variations.len() as f64
    }

    /// Histogram of variations over `bin_edges` (which must be
    /// ascending): returns one count per bin `[edge[i], edge[i+1])`,
    /// plus a final overflow bin for values ≥ the last edge.
    ///
    /// # Panics
    ///
    /// Panics if `bin_edges` has fewer than 2 entries or is not
    /// ascending.
    #[must_use]
    pub fn histogram(&self, bin_edges: &[f64]) -> Vec<usize> {
        assert!(bin_edges.len() >= 2, "need at least two bin edges");
        assert!(
            bin_edges.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be ascending"
        );
        let mut counts = vec![0usize; bin_edges.len()];
        for &v in &self.variations {
            if v < bin_edges[0] {
                continue;
            }
            let idx = bin_edges.partition_point(|&e| e <= v);
            counts[(idx - 1).min(bin_edges.len() - 1)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fraction_and_quantile_agree() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.fraction_at_or_below(50.0), 0.5);
        assert_eq!(cdf.quantile(0.5), 50.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(100.0));
    }

    #[test]
    fn cdf_handles_out_of_range_queries() {
        let cdf = Cdf::from_samples([5.0, 10.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = Cdf::from_samples([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf: Cdf = (0..1000).map(|i| (i as f64).sin() + 2.0).collect();
        let curve = cdf.curve(50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_mean() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0]);
        assert!((cdf.mean() - 2.0).abs() < 1e-12);
        assert_eq!(Cdf::from_samples([]).mean(), 0.0);
    }

    #[test]
    fn variation_basic() {
        let v = VariationStats::from_series(&[100.0, 110.0, 99.0]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.fraction_within(0.05), 0.0);
        assert_eq!(v.fraction_within(0.11), 1.0);
    }

    #[test]
    fn variation_skips_zero_baseline() {
        let v = VariationStats::from_series(&[0.0, 10.0, 11.0]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn variation_empty_series() {
        let v = VariationStats::from_series(&[]);
        assert!(v.is_empty());
        assert_eq!(v.fraction_within(0.1), 1.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let v = VariationStats::from_series(&[100.0, 101.0, 103.0, 200.0]);
        // variations: 0.01, ~0.0198, ~0.9417
        let h = v.histogram(&[0.0, 0.015, 0.05]);
        assert_eq!(h, vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_edges() {
        let v = VariationStats::from_series(&[1.0, 2.0]);
        let _ = v.histogram(&[0.1, 0.0]);
    }
}
