//! Queueing formulas for interactive tail latency.
//!
//! Interactive tenants care about tail latency (p99 for Search, p90 for
//! Web in the paper). We model a rack of `k` servers behind a shared
//! queue as an M/M/k system: Poisson arrivals at rate `λ`, exponential
//! service at rate `µ` per server. The response-time tail gives the
//! p-percentile latency; service rate scales with the DVFS frequency
//! that the rack's power budget affords, which is what produces the
//! convex latency-vs-power curves of the paper's Fig. 8.

use serde::{Deserialize, Serialize};

/// An M/M/k queue: `k` identical servers, Poisson arrivals, exponential
/// service times.
///
/// All rates are per second. The system is *stable* iff `λ < k·µ`;
/// latency queries on an unstable system return
/// [`f64::INFINITY`], which callers clamp to a saturation latency.
///
/// # Examples
///
/// ```
/// use spotdc_workloads::MmK;
///
/// let q = MmK::new(4, 100.0); // 4 servers, 100 req/s each
/// let p99 = q.latency_percentile(350.0, 0.99);
/// assert!(p99.is_finite() && p99 > 0.0);
/// assert!(q.latency_percentile(450.0, 0.99).is_infinite()); // λ ≥ kµ
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmK {
    servers: u32,
    service_rate: f64,
}

impl MmK {
    /// Creates a queue with `servers` servers of `service_rate` req/s
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero or `service_rate` is not positive
    /// and finite.
    #[must_use]
    pub fn new(servers: u32, service_rate: f64) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(
            service_rate.is_finite() && service_rate > 0.0,
            "service rate must be positive"
        );
        MmK {
            servers,
            service_rate,
        }
    }

    /// Number of servers `k`.
    #[must_use]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Per-server service rate `µ`.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Total service capacity `k·µ`.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        f64::from(self.servers) * self.service_rate
    }

    /// Server utilization `ρ = λ/(k·µ)` at arrival rate `lambda`.
    #[must_use]
    pub fn utilization(&self, lambda: f64) -> f64 {
        lambda / self.capacity()
    }

    /// Whether the queue is stable at arrival rate `lambda`.
    #[must_use]
    pub fn is_stable(&self, lambda: f64) -> bool {
        lambda >= 0.0 && lambda < self.capacity()
    }

    /// The Erlang-C probability that an arriving job must wait.
    ///
    /// Returns 1.0 for an unstable system. Computed with the standard
    /// numerically-stable iterative form.
    #[must_use]
    pub fn erlang_c(&self, lambda: f64) -> f64 {
        if !self.is_stable(lambda) {
            return 1.0;
        }
        if lambda == 0.0 {
            return 0.0;
        }
        let k = self.servers;
        let a = lambda / self.service_rate; // offered load in Erlangs
        let rho = self.utilization(lambda);
        // inv = 1 / C where C built iteratively:
        // B(0)=1; B(j) = a*B(j-1)/(j + a*B(j-1) ... use Erlang B recursion
        // then convert: C = B / (1 - rho*(1-B)).
        let mut b = 1.0;
        for j in 1..=k {
            b = a * b / (f64::from(j) + a * b);
        }
        b / (1.0 - rho * (1.0 - b))
    }

    /// Mean waiting time in queue (excluding service), seconds.
    #[must_use]
    pub fn mean_wait(&self, lambda: f64) -> f64 {
        if !self.is_stable(lambda) {
            return f64::INFINITY;
        }
        self.erlang_c(lambda) / (self.capacity() - lambda)
    }

    /// The `p`-percentile response time in seconds (e.g. `p = 0.99`).
    ///
    /// Uses the standard M/M/k tail: waiting time is zero with
    /// probability `1 − C` and `Exp(kµ − λ)` with probability `C`
    /// (Erlang-C), and service is `Exp(µ)`. The percentile of the sum is
    /// found by bisection on the exact tail expression.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn latency_percentile(&self, lambda: f64, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "percentile must be in (0,1)");
        if !self.is_stable(lambda) {
            return f64::INFINITY;
        }
        if lambda == 0.0 {
            // Pure service: Exp(µ) percentile.
            return -(1.0 - p).ln() / self.service_rate;
        }
        let c = self.erlang_c(lambda);
        let theta = self.capacity() - lambda; // wait tail rate
        let mu = self.service_rate;
        // P(T > t) for T = W + S with W the Erlang-C mixture:
        // if θ ≠ µ: P = (1-c) e^{-µt} + c [ θ e^{-µt} - µ e^{-θt} ] / (θ - µ)
        // (convolution of the atom-at-0/exponential wait with service).
        let tail = |t: f64| -> f64 {
            if (theta - mu).abs() < 1e-9 * mu {
                (1.0 - c) * (-mu * t).exp() + c * (1.0 + mu * t) * (-mu * t).exp()
            } else {
                (1.0 - c) * (-mu * t).exp()
                    + c * (theta * (-mu * t).exp() - mu * (-theta * t).exp()) / (theta - mu)
            }
        };
        let target = 1.0 - p;
        // Bracket: upper bound grows until the tail drops below target.
        let mut hi = 1.0 / mu;
        while tail(hi) > target {
            hi *= 2.0;
            if hi > 1e9 {
                return f64::INFINITY;
            }
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if tail(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_c_known_values() {
        // Single server: C = ρ.
        let q = MmK::new(1, 10.0);
        assert!((q.erlang_c(5.0) - 0.5).abs() < 1e-9);
        assert!((q.erlang_c(9.0) - 0.9).abs() < 1e-9);
        // No load: never waits.
        assert_eq!(q.erlang_c(0.0), 0.0);
    }

    #[test]
    fn erlang_c_multi_server_textbook_value() {
        // k=2, a=1 (ρ=0.5): B = (1/2)/(1+1+1/2)=0.2, C = 0.2/(1-0.5*0.8)=1/3.
        let q = MmK::new(2, 1.0);
        assert!((q.erlang_c(1.0) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn mm1_mean_response_matches_closed_form() {
        let q = MmK::new(1, 10.0);
        // M/M/1: E[T] = E[W] + 1/µ = 1/(µ-λ).
        assert!((q.mean_wait(6.0) + 1.0 / 10.0 - 1.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn mm1_percentile_matches_closed_form() {
        // M/M/1 response time is Exp(µ−λ): t_p = −ln(1−p)/(µ−λ).
        let q = MmK::new(1, 10.0);
        let expect = -(0.01f64).ln() / 4.0;
        let got = q.latency_percentile(6.0, 0.99);
        assert!((got - expect).abs() < 1e-6, "got {got}, expect {expect}");
    }

    #[test]
    fn percentile_monotone_in_load() {
        let q = MmK::new(4, 100.0);
        let mut last = 0.0;
        for lambda in [0.0, 100.0, 200.0, 300.0, 380.0] {
            let t = q.latency_percentile(lambda, 0.99);
            assert!(t >= last, "latency must grow with load");
            last = t;
        }
    }

    #[test]
    fn percentile_monotone_in_percentile() {
        let q = MmK::new(4, 100.0);
        let p90 = q.latency_percentile(350.0, 0.90);
        let p99 = q.latency_percentile(350.0, 0.99);
        assert!(p99 > p90);
    }

    #[test]
    fn unstable_system_is_infinite() {
        let q = MmK::new(2, 10.0);
        assert!(!q.is_stable(20.0));
        assert!(q.mean_wait(25.0).is_infinite());
        assert!(q.latency_percentile(25.0, 0.99).is_infinite());
    }

    #[test]
    fn zero_load_percentile_is_service_percentile() {
        let q = MmK::new(3, 10.0);
        let expect = -(0.1f64).ln() / 10.0;
        assert!((q.latency_percentile(0.0, 0.90) - expect).abs() < 1e-9);
    }

    #[test]
    fn capacity_and_utilization() {
        let q = MmK::new(5, 20.0);
        assert_eq!(q.capacity(), 100.0);
        assert!((q.utilization(25.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0,1)")]
    fn bad_percentile_rejected() {
        let _ = MmK::new(1, 1.0).latency_percentile(0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = MmK::new(0, 1.0);
    }
}
