//! Deterministic, seedable random samplers.
//!
//! Every trace generator in this crate draws from a [`Sampler`]: a thin
//! wrapper over a seeded [`rand::rngs::StdRng`] adding the handful of
//! distributions the traces need (normal via Box–Muller, lognormal,
//! geometric). Implemented here rather than pulling `rand_distr`,
//! keeping the dependency set to the pre-approved crates (see DESIGN.md
//! §3).
//!
//! Determinism matters: every experiment in the paper reproduction is
//! seeded, so two runs of a figure produce identical numbers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random sampler with the distributions used by the traces.
///
/// # Examples
///
/// ```
/// use spotdc_traces::Sampler;
///
/// let mut a = Sampler::seeded(42);
/// let mut b = Sampler::seeded(42);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0)); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: StdRng,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl Sampler {
    /// Creates a sampler from a 64-bit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Sampler {
            rng: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (empty range) via the underlying RNG.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        if lo == hi {
            return lo;
        }
        self.rng.gen_range(lo..hi)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn flip(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        self.rng.gen_range(0..n)
    }

    /// A standard normal draw via the Box–Muller transform (polar
    /// rejection-free form; the spare variate is cached).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Guard against u1 == 0 (ln(0) = -inf).
        let u1: f64 = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "standard deviation must be non-negative");
        mean + sigma * self.standard_normal()
    }

    /// A lognormal draw: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A geometric draw: number of Bernoulli(`p`) failures before the
    /// first success. Returns 0 for `p ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `p > 0`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0, "success probability must be positive");
        if p >= 1.0 {
            return 0;
        }
        let u: f64 = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Sampler::seeded(7);
        let mut b = Sampler::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        let mut c = Sampler::seeded(8);
        assert_ne!(a.uniform(), c.uniform());
    }

    #[test]
    fn normal_moments_close() {
        let mut s = Sampler::seeded(1);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| s.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn flip_frequency_close() {
        let mut s = Sampler::seeded(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| s.flip(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn geometric_mean_close() {
        let mut s = Sampler::seeded(6);
        let n = 100_000;
        let mean = (0..n).map(|_| s.geometric(0.25) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}"); // (1-p)/p
    }

    #[test]
    fn uniform_in_bounds() {
        let mut s = Sampler::seeded(9);
        for _ in 0..10_000 {
            let x = s.uniform_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        assert_eq!(s.uniform_in(3.0, 3.0), 3.0);
    }

    #[test]
    fn index_in_range() {
        let mut s = Sampler::seeded(10);
        for _ in 0..1000 {
            assert!(s.index(7) < 7);
        }
    }
}
