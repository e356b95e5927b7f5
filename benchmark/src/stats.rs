//! Order statistics: medians, Python-compatible quartiles and the
//! tail-percentile picker.

/// Percentiles the tail picker chooses from, ascending.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
/// The epsilon keeps `99.9 % of 1000` at 999 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(p, v.len()).clamp(1, v.len()) - 1]
}

/// The highest ladder percentile with at least ten samples beyond it,
/// and its value. With fewer than twenty samples no percentile
/// qualifies and the median stands in (the caller states the count).
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let pct = TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    if pct == TAIL_LADDER[0] {
        // Same definition as the p50 rows, so a stand-in tail never
        // reads below its own median.
        return (pct, median(values));
    }
    (pct, percentile(values, pct))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver's spread is `(q3 - q1) / median`. `None` under two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 when undefined.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[5.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 19 samples: not even p50 has ten beyond it; the median stands in.
        assert_eq!(tail(&ramp(19)), (50.0, 10.0));
        assert_eq!(tail(&ramp(4)), (50.0, 2.5));
        // 20: exactly ten beyond the median.
        assert_eq!(tail(&ramp(20)), (50.0, 10.5));
        // 100: p90 leaves ten beyond, p95 only five.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 1000: p99 leaves ten beyond, p99.9 one.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 100 000: p99.99 leaves ten beyond.
        assert_eq!(tail(&ramp(100_000)), (99.99, 99_990.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }
}
