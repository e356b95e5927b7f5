//! Deterministic, seedable fault injection for the SpotDC simulation.
//!
//! Real multi-tenant deployments lose meter samples, receive frozen or
//! noisy readings, drop or delay bid submissions, lose price
//! broadcasts, and feed the predictor stale inputs. [`FaultPlan`] turns
//! a [`FaultConfig`] into a per-slot schedule of such faults that is a
//! *pure function* of `(seed, slot, target)`: every decision — message
//! loss in either direction of the operator↔tenant exchange included
//! (paper Section III-C: both ways the tenant gets "no spot capacity")
//! — is derived by hashing the coordinates rather than by advancing a
//! shared RNG stream. That keeps the schedule byte-identical regardless
//! of query order, worker count, or which subsystems happen to consult
//! it — the property the determinism gate
//! (`crates/sim/tests/determinism.rs`) checks end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use spotdc_units::{RackId, Slot, TenantId};

/// Fault rates for one simulation run. All rates are probabilities in
/// `[0, 1]` applied independently per slot and per target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the fault schedule (independent of the scenario seed).
    pub seed: u64,
    /// Probability a rack's meter sample is lost for a slot.
    pub meter_dropout: f64,
    /// Probability a rack's meter repeats its previous value (frozen
    /// reading) for a slot.
    pub meter_freeze: f64,
    /// Probability a rack's meter sample is perturbed by a noise spike.
    pub meter_noise: f64,
    /// Maximum relative magnitude of a noise spike (e.g. `0.4` perturbs
    /// the true draw by up to ±40 %).
    pub noise_magnitude: f64,
    /// Probability a tenant's bid submission is lost outright.
    pub bid_loss: f64,
    /// Probability a tenant's bid misses the clearing deadline and
    /// rolls over to the next slot.
    pub bid_delay: f64,
    /// Probability a slot's prediction reads the meter a slot late: the
    /// previous slot's readings are withheld (slot 1 reads the warm-up,
    /// slot 0 reads live). From slot 2 on, a staleness policy ages the
    /// newest readings by 1, so a delayed slot counts as degraded.
    pub prediction_delay: f64,
    /// Probability the price broadcast back to a bidding tenant is
    /// lost: it cannot know its grant, so the operator revokes it.
    pub broadcast_loss: f64,
}

impl FaultConfig {
    /// No faults at all (the default for every engine run): every rate
    /// zero.
    #[must_use]
    pub fn disabled() -> Self {
        FaultConfig::default()
    }

    /// The six input-side channels (meter, bid, prediction) at the same
    /// `rate`, with a 40 % noise-spike magnitude — the configuration the
    /// `robustness` experiment sweeps. The output-side channel,
    /// `broadcast_loss`, stays off: set it by name.
    #[must_use]
    pub fn uniform(rate: f64, seed: u64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultConfig {
            seed,
            meter_dropout: rate,
            meter_freeze: rate,
            meter_noise: rate,
            noise_magnitude: 0.4,
            bid_loss: rate,
            bid_delay: rate,
            prediction_delay: rate,
            broadcast_loss: 0.0,
        }
    }

    /// Whether any fault channel has a nonzero rate. Nothing in the
    /// engine branches on it — when `false`, every [`FaultPlan`] query
    /// answers `None` / `false` without hashing — it is for callers that
    /// report on a run.
    #[must_use]
    pub fn any(&self) -> bool {
        self.meter_dropout > 0.0
            || self.meter_freeze > 0.0
            || self.meter_noise > 0.0
            || self.bid_loss > 0.0
            || self.bid_delay > 0.0
            || self.prediction_delay > 0.0
            || self.broadcast_loss > 0.0
    }
}

/// A fault affecting one rack's meter sample for one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeterFault {
    /// The sample is lost; the meter keeps its last known good value
    /// and the reading's staleness grows.
    Dropout,
    /// The meter reports its previous value again (frozen sensor).
    Freeze,
    /// The sample is perturbed: `observed = true · (1 + relative)`.
    Noise {
        /// Relative perturbation in `[-magnitude, +magnitude]`.
        relative: f64,
    },
}

impl MeterFault {
    /// Short stable name for telemetry (`meter-dropout`, `meter-freeze`,
    /// `meter-noise`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MeterFault::Dropout => "meter-dropout",
            MeterFault::Freeze => "meter-freeze",
            MeterFault::Noise { .. } => "meter-noise",
        }
    }
}

/// A fault affecting one tenant's bid submission for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BidFault {
    /// The submission never arrives.
    Lost,
    /// The submission misses the clearing deadline; the operator rolls
    /// it into the next slot's auction instead of aborting this one.
    Late,
}

impl BidFault {
    /// Short stable name for telemetry (`bid-lost`, `bid-late`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            BidFault::Lost => "bid-lost",
            BidFault::Late => "bid-late",
        }
    }
}

// Per-channel salts keep the hash streams independent: the same
// (slot, index) coordinates must not correlate across channels.
const SALT_METER: u64 = 0x6d65_7465_720a_0001;
const SALT_NOISE: u64 = 0x6d65_7465_720a_0002;
const SALT_BID: u64 = 0x6269_640a_0000_0001;
const SALT_PREDICTION: u64 = 0x7072_6564_0a00_0001;
const SALT_BROADCAST: u64 = 0x6263_6173_740a_0001;

/// A materialized fault schedule: [`FaultConfig`] plus the stateless
/// hash answering "does fault X fire at slot T for target Y?".
///
/// # Examples
///
/// ```
/// use spotdc_faults::{FaultConfig, FaultPlan};
/// use spotdc_units::{RackId, Slot};
///
/// let plan = FaultPlan::new(FaultConfig::uniform(0.5, 7));
/// let a = plan.meter_fault(Slot::new(3), RackId::new(1));
/// let b = plan.meter_fault(Slot::new(3), RackId::new(1));
/// assert_eq!(a, b); // pure function of (seed, slot, rack)
/// assert!(FaultPlan::new(FaultConfig::disabled())
///     .meter_fault(Slot::new(3), RackId::new(1))
///     .is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Builds the schedule for `config`.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The meter fault (if any) for `rack`'s sample at `slot`.
    ///
    /// One uniform draw decides among the three meter channels
    /// cumulatively, so their rates compose like disjoint probabilities
    /// (a sample suffers at most one meter fault per slot).
    #[must_use]
    pub fn meter_fault(&self, slot: Slot, rack: RackId) -> Option<MeterFault> {
        let c = &self.config;
        if c.meter_dropout <= 0.0 && c.meter_freeze <= 0.0 && c.meter_noise <= 0.0 {
            return None;
        }
        let u = self.unit(SALT_METER, slot.index(), rack.index() as u64);
        if u < c.meter_dropout {
            Some(MeterFault::Dropout)
        } else if u < c.meter_dropout + c.meter_freeze {
            Some(MeterFault::Freeze)
        } else if u < c.meter_dropout + c.meter_freeze + c.meter_noise {
            let v = self.unit(SALT_NOISE, slot.index(), rack.index() as u64);
            Some(MeterFault::Noise {
                relative: (2.0 * v - 1.0) * c.noise_magnitude,
            })
        } else {
            None
        }
    }

    /// The bid fault (if any) for `tenant`'s submission at `slot`.
    #[must_use]
    pub fn bid_fault(&self, slot: Slot, tenant: TenantId) -> Option<BidFault> {
        let c = &self.config;
        if c.bid_loss <= 0.0 && c.bid_delay <= 0.0 {
            return None;
        }
        let u = self.unit(SALT_BID, slot.index(), tenant.index() as u64);
        if u < c.bid_loss {
            Some(BidFault::Lost)
        } else if u < c.bid_loss + c.bid_delay {
            Some(BidFault::Late)
        } else {
            None
        }
    }

    /// Whether the prediction at `slot` reads the meter a slot late.
    #[must_use]
    pub fn prediction_delayed(&self, slot: Slot) -> bool {
        self.config.prediction_delay > 0.0
            && self.unit(SALT_PREDICTION, slot.index(), 0) < self.config.prediction_delay
    }

    /// Whether the price broadcast to `tenant` at `slot` is lost. Keyed
    /// by tenant, not by delivery: every sub-market of a slot sees the
    /// same verdict however often or in whatever order it asks.
    #[must_use]
    pub fn broadcast_lost(&self, slot: Slot, tenant: TenantId) -> bool {
        self.config.broadcast_loss > 0.0
            && self.unit(SALT_BROADCAST, slot.index(), tenant.index() as u64)
                < self.config.broadcast_loss
    }

    /// A uniform draw in `[0, 1)` from the coordinate hash.
    fn unit(&self, salt: u64, slot: u64, index: u64) -> f64 {
        let h = mix(mix(mix(self.config.seed ^ salt) ^ slot) ^ index);
        // Top 53 bits → exactly representable uniform in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every channel at `rate`, the output-side one included.
    fn plan(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            broadcast_loss: rate,
            ..FaultConfig::uniform(rate, seed)
        })
    }

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::new(FaultConfig::disabled());
        assert!(!p.config().any());
        for t in 0..200 {
            let slot = Slot::new(t);
            assert_eq!(p.meter_fault(slot, RackId::new(t as usize % 7)), None);
            assert_eq!(p.bid_fault(slot, TenantId::new(t as usize % 5)), None);
            assert!(!p.prediction_delayed(slot));
            assert!(!p.broadcast_lost(slot, TenantId::new(t as usize % 5)));
        }
    }

    #[test]
    fn broadcast_loss_is_its_own_channel() {
        let only = FaultConfig {
            broadcast_loss: 0.3,
            ..FaultConfig::disabled()
        };
        assert!(only.any(), "any() must see the broadcast channel");
        assert_eq!(
            FaultPlan::new(only).bid_fault(Slot::ZERO, TenantId::new(0)),
            None
        );
        // `uniform` is the six input-side channels and nothing else.
        assert_eq!(FaultConfig::uniform(1.0, 3).broadcast_loss, 0.0);

        // 10⁵ draws: both loss rates hold, and at equal coordinates the
        // bid and broadcast verdicts coincide as often as independent
        // 0.3-coins do (0.09), not as often as one shared coin (0.3).
        let p = FaultPlan::new(FaultConfig {
            seed: 424_242,
            bid_loss: 0.3,
            ..only
        });
        let (mut bids, mut broadcasts, mut both) = (0usize, 0usize, 0usize);
        for s in 0..1_000 {
            for t in 0..100 {
                let (slot, tenant) = (Slot::new(s), TenantId::new(t));
                let bid = p.bid_fault(slot, tenant) == Some(BidFault::Lost);
                let broadcast = p.broadcast_lost(slot, tenant);
                bids += usize::from(bid);
                broadcasts += usize::from(broadcast);
                both += usize::from(bid && broadcast);
            }
        }
        for (what, count, want) in [
            ("bid loss", bids, 0.3),
            ("broadcast loss", broadcasts, 0.3),
            ("joint loss", both, 0.09),
        ] {
            let rate = count as f64 / 1e5;
            assert!((rate - want).abs() < 0.01, "{what} rate {rate}");
        }

        // A verdict is keyed by all of seed, slot and tenant.
        let verdicts = |plan: FaultPlan, slot: u64| -> Vec<bool> {
            (0..64)
                .map(|t| plan.broadcast_lost(Slot::new(slot), TenantId::new(t)))
                .collect()
        };
        let at_5 = verdicts(p, 5);
        assert!(at_5.contains(&true) && at_5.contains(&false));
        assert_ne!(at_5, verdicts(p, 6));
        assert_ne!(at_5, verdicts(plan(0.3, 1), 5));
    }

    #[test]
    fn full_rate_always_fires() {
        let p = plan(1.0, 3);
        for t in 0..50 {
            let slot = Slot::new(t);
            assert!(p.meter_fault(slot, RackId::new(0)).is_some());
            assert!(p.bid_fault(slot, TenantId::new(0)).is_some());
            assert!(p.prediction_delayed(slot));
            assert!(p.broadcast_lost(slot, TenantId::new(0)));
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = plan(0.1, 42);
        let n = 20_000;
        let hits = (0..n)
            .filter(|&t| p.meter_fault(Slot::new(t), RackId::new(1)).is_some())
            .count();
        // Three stacked 10 % channels ⇒ ~30 % of samples faulted.
        let frac = hits as f64 / n as f64;
        assert!((0.27..0.33).contains(&frac), "fault fraction {frac}");
    }

    #[test]
    fn noise_is_bounded_by_magnitude() {
        let p = plan(1.0, 9);
        for t in 0..500 {
            if let Some(MeterFault::Noise { relative }) =
                p.meter_fault(Slot::new(t), RackId::new(2))
            {
                assert!(relative.abs() <= p.config().noise_magnitude + 1e-12);
            }
        }
    }

    #[test]
    fn channels_are_decorrelated() {
        // The same coordinates must not fire identically across
        // channels: meter and bid decisions at the same (slot, index)
        // should disagree for some slots.
        let p = plan(0.15, 5);
        let disagree = (0..200).any(|t| {
            p.meter_fault(Slot::new(t), RackId::new(0)).is_some()
                != p.bid_fault(Slot::new(t), TenantId::new(0)).is_some()
        });
        assert!(disagree);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn identical_seeds_identical_schedules(seed in 0u64..1_000, rate in 0u32..=10) {
            let rate = f64::from(rate) / 10.0;
            let a = plan(rate, seed);
            let b = plan(rate, seed);
            for t in 0..64u64 {
                let slot = Slot::new(t);
                for r in 0..4usize {
                    prop_assert_eq!(
                        a.meter_fault(slot, RackId::new(r)),
                        b.meter_fault(slot, RackId::new(r))
                    );
                    prop_assert_eq!(
                        a.bid_fault(slot, TenantId::new(r)),
                        b.bid_fault(slot, TenantId::new(r))
                    );
                    prop_assert_eq!(
                        a.broadcast_lost(slot, TenantId::new(r)),
                        b.broadcast_lost(slot, TenantId::new(r))
                    );
                }
                prop_assert_eq!(a.prediction_delayed(slot), b.prediction_delayed(slot));
            }
        }

        #[test]
        fn different_seeds_diverge(seed in 0u64..1_000) {
            let a = plan(0.5, seed);
            let b = plan(0.5, seed ^ 0xdead_beef);
            let differs = (0..256u64).any(|t| {
                a.meter_fault(Slot::new(t), RackId::new(0))
                    != b.meter_fault(Slot::new(t), RackId::new(0))
            });
            prop_assert!(differs, "seeds {} and its xor produced identical schedules", seed);
        }
    }
}
