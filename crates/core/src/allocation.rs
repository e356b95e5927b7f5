//! The outcome of one slot's market: per-rack spot-capacity grants.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use spotdc_units::{Money, Price, RackId, Slot, SlotDuration, Watts};

/// The spot capacity granted to each participating rack for one slot,
/// at the uniform clearing price.
///
/// Once issued, a grant behaves exactly like guaranteed capacity for
/// the duration of the slot (it cannot be revoked mid-slot); it simply
/// may not exist next slot.
///
/// # Examples
///
/// ```
/// use spotdc_core::SpotAllocation;
/// use spotdc_units::{Price, RackId, Slot, SlotDuration, Watts};
///
/// let alloc = SpotAllocation::new(
///     Slot::new(4),
///     Price::per_kw_hour(0.25),
///     [(RackId::new(0), Watts::new(40.0))].into_iter().collect(),
/// );
/// assert_eq!(alloc.total(), Watts::new(40.0));
/// let pay = alloc.payment_for(RackId::new(0), SlotDuration::from_secs(3600));
/// assert!((pay.usd() - 0.25 * 0.040).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotAllocation {
    slot: Slot,
    price: Price,
    /// `(rack, grant)` pairs, strictly ascending by rack.
    grants: Vec<(RackId, Watts)>,
}

impl SpotAllocation {
    /// Creates an allocation. Zero grants are retained (a rack that bid
    /// but was priced out appears with a zero grant), negative grants
    /// are clamped to zero.
    #[must_use]
    pub fn new(slot: Slot, price: Price, grants: BTreeMap<RackId, Watts>) -> Self {
        SpotAllocation::from_pairs(slot, price, grants.into_iter().collect())
    }

    /// [`Self::new`] from `(rack, grant)` pairs in any order, with what
    /// collecting them into a `BTreeMap` would keep: sorted by rack, the
    /// last grant of a rack named twice. Rack-ascending pairs — every
    /// real book's — are neither moved nor copied.
    pub(crate) fn from_pairs(slot: Slot, price: Price, mut grants: Vec<(RackId, Watts)>) -> Self {
        for (_, grant) in &mut grants {
            *grant = grant.clamp_non_negative();
        }
        if !grants.is_sorted_by(|a, b| a.0 < b.0) {
            // Stable, so a rack's grants stay in the order given.
            grants.sort_by_key(|&(rack, _)| rack);
            grants.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
        }
        SpotAllocation {
            slot,
            price,
            grants,
        }
    }

    /// An empty allocation (no spot capacity sold) for `slot`.
    #[must_use]
    pub fn none(slot: Slot) -> Self {
        SpotAllocation {
            slot,
            price: Price::ZERO,
            grants: Vec::new(),
        }
    }

    /// The slot this allocation is effective for.
    #[must_use]
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// The uniform clearing price.
    #[must_use]
    pub fn price(&self) -> Price {
        self.price
    }

    /// The grant for `rack` (zero if it received nothing).
    #[must_use]
    pub fn grant(&self, rack: RackId) -> Watts {
        self.grants
            .binary_search_by_key(&rack, |&(r, _)| r)
            .map_or(Watts::ZERO, |i| self.grants[i].1)
    }

    /// Iterates over `(rack, grant)` pairs in rack order.
    pub fn iter(&self) -> impl Iterator<Item = (RackId, Watts)> + '_ {
        self.grants.iter().copied()
    }

    /// The racks holding a strictly positive grant.
    pub fn granted_racks(&self) -> impl Iterator<Item = RackId> + '_ {
        self.iter()
            .filter(|&(_, w)| w > Watts::ZERO)
            .map(|(r, _)| r)
    }

    /// Total spot capacity sold.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.iter().map(|(_, w)| w).sum()
    }

    /// Whether nothing was sold.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == Watts::ZERO
    }

    /// The payment owed for `rack`'s grant over one slot of `duration`.
    #[must_use]
    pub fn payment_for(&self, rack: RackId, duration: SlotDuration) -> Money {
        self.price.cost_of(self.grant(rack), duration)
    }

    /// The operator's total revenue for this slot.
    #[must_use]
    pub fn revenue(&self, duration: SlotDuration) -> Money {
        self.price.cost_of(self.total(), duration)
    }

    /// Removes the grant of every rack `lost` names (used when the price
    /// broadcast to a rack's tenant is lost — the fallback is "no spot
    /// capacity").
    pub fn revoke_where(&mut self, mut lost: impl FnMut(RackId) -> bool) {
        self.grants.retain(|&(rack, _)| !lost(rack));
    }

    /// The `(rack, grant)` pairs, strictly ascending by rack.
    #[must_use]
    pub fn grants(&self) -> &[(RackId, Watts)] {
        &self.grants
    }
}

impl spotdc_durable::Persist for SpotAllocation {
    fn persist(&self, enc: &mut spotdc_durable::Encoder) {
        enc.put_u64(self.slot.index());
        enc.put_f64(self.price.per_kw_hour_value());
        enc.put_usize(self.grants.len());
        for (rack, grant) in self.iter() {
            enc.put_u64(rack.index() as u64);
            enc.put_f64(grant.value());
        }
    }

    fn restore(dec: &mut spotdc_durable::Decoder<'_>) -> Result<Self, spotdc_durable::DecodeError> {
        use spotdc_durable::DecodeError;
        let slot = Slot::new(dec.get_u64()?);
        let price = Price::per_kw_hour(dec.get_f64()?);
        let n = dec.get_usize()?;
        // Each grant is 16 bytes on the wire: a count the rest of the
        // buffer cannot hold is refused before anything is allocated.
        if n > dec.remaining() / 16 {
            return Err(DecodeError::BadLength(n as u64));
        }
        let mut grants = Vec::with_capacity(n);
        for _ in 0..n {
            let rack = RackId::new(dec.get_usize()?);
            if grants.last().is_some_and(|&(last, _)| last >= rack) {
                return Err(DecodeError::Invalid(format!(
                    "spot grant racks out of order at {rack}"
                )));
            }
            grants.push((rack, Watts::new(dec.get_f64()?)));
        }
        // The struct is rebuilt directly (not via `new`) so the decoded
        // value is bit-identical to the encoded one even for the zero
        // and negative-zero grants `new` would clamp.
        Ok(SpotAllocation {
            slot,
            price,
            grants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> SpotAllocation {
        SpotAllocation::new(
            Slot::new(2),
            Price::per_kw_hour(0.2),
            [
                (RackId::new(0), Watts::new(30.0)),
                (RackId::new(1), Watts::ZERO),
                (RackId::new(2), Watts::new(20.0)),
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn totals_and_lookups() {
        let a = alloc();
        assert_eq!(a.total(), Watts::new(50.0));
        assert_eq!(a.grant(RackId::new(0)), Watts::new(30.0));
        assert_eq!(a.grant(RackId::new(1)), Watts::ZERO);
        assert_eq!(a.grant(RackId::new(9)), Watts::ZERO);
        assert!(!a.is_empty());
    }

    #[test]
    fn granted_racks_excludes_zero_grants() {
        let a = alloc();
        let racks: Vec<RackId> = a.granted_racks().collect();
        assert_eq!(racks, vec![RackId::new(0), RackId::new(2)]);
    }

    #[test]
    fn payments_scale_with_duration() {
        let a = alloc();
        let hour = SlotDuration::from_secs(3600);
        let two_min = SlotDuration::from_secs(120);
        let per_hour = a.revenue(hour);
        let per_slot = a.revenue(two_min);
        assert!((per_hour.usd() - 30.0 * per_slot.usd()).abs() < 1e-12);
        assert!((per_hour.usd() - 0.2 * 0.050).abs() < 1e-12);
    }

    #[test]
    fn revoke_removes_grant() {
        let mut a = alloc();
        a.revoke_where(|rack| rack == RackId::new(0));
        assert_eq!(a.grant(RackId::new(0)), Watts::ZERO);
        assert_eq!(a.total(), Watts::new(20.0));
    }

    #[test]
    fn none_is_empty() {
        let a = SpotAllocation::none(Slot::new(7));
        assert!(a.is_empty());
        assert_eq!(a.slot(), Slot::new(7));
        assert_eq!(a.revenue(SlotDuration::default()), Money::ZERO);
    }

    #[test]
    fn negative_grants_clamped_zero_grants_kept() {
        use spotdc_durable::{Decoder, Encoder, Persist};

        let watts = [-5.0, 0.0, -0.0, 30.0];
        let grants = watts.into_iter().enumerate();
        let a = SpotAllocation::new(
            Slot::new(3),
            Price::per_kw_hour(0.2),
            grants
                .map(|(r, w)| (RackId::new(r), Watts::new(w)))
                .collect(),
        );
        // Only the negative grant changes — a `-0.0` is not negative and
        // keeps its sign — and every rack stays in the map.
        let bits: Vec<u64> = a.iter().map(|(_, w)| w.value().to_bits()).collect();
        let kept = [0.0, 0.0, -0.0, 30.0].map(f64::to_bits);
        assert_eq!(bits, kept);
        assert_eq!(a.granted_racks().collect::<Vec<_>>(), [RackId::new(3)]);
        // Equal to the allocation built from already-clamped grants, and
        // a persist round trip restores it bit for bit.
        let clamped = a.iter().collect();
        assert_eq!(a, SpotAllocation::new(a.slot(), a.price(), clamped));
        let mut enc = Encoder::new();
        a.persist(&mut enc);
        let bytes = enc.into_bytes();
        let back = SpotAllocation::restore(&mut Decoder::new(&bytes)).expect("round trip");
        assert_eq!(back, a);
        let back_bits: Vec<u64> = back.iter().map(|(_, w)| w.value().to_bits()).collect();
        assert_eq!(back_bits, kept);
    }

    #[test]
    fn pairs_in_any_order_collect_like_a_map() {
        // Shuffled racks are sorted; a rack named twice keeps its last
        // grant, as `BTreeMap`'s `collect` does; negatives are clamped.
        let pairs = [(2, 20.0), (0, 30.0), (2, -7.0), (1, 5.0), (0, 10.0)];
        let pairs = pairs.map(|(r, w)| (RackId::new(r), Watts::new(w)));
        let a = SpotAllocation::from_pairs(Slot::new(2), Price::per_kw_hour(0.2), pairs.to_vec());
        let map = SpotAllocation::new(a.slot(), a.price(), pairs.into_iter().collect());
        assert_eq!(a, map);
        let kept = [(0, 10.0), (1, 5.0), (2, 0.0)].map(|(r, w)| (RackId::new(r), Watts::new(w)));
        assert_eq!(a.grants(), kept);
        assert_eq!(a.grant(RackId::new(1)), Watts::new(5.0));
    }

    /// `alloc()`'s persisted bytes with grant `i`'s rack word replaced.
    fn with_rack_word(i: usize, rack: u64) -> Vec<u8> {
        use spotdc_durable::{Encoder, Persist};
        let mut enc = Encoder::new();
        alloc().persist(&mut enc);
        let mut bytes = enc.into_bytes();
        let at = 24 + 16 * i;
        bytes[at..at + 8].copy_from_slice(&rack.to_le_bytes());
        bytes
    }

    #[test]
    fn decoding_refuses_unordered_racks_and_impossible_counts() {
        use spotdc_durable::{DecodeError, Decoder, Persist};
        let decode = |bytes: &[u8]| SpotAllocation::restore(&mut Decoder::new(bytes));
        // Racks 0, 1, 2 as written decode; a duplicate or a descending
        // rack — which no writer produces — is refused, not collapsed.
        assert_eq!(decode(&with_rack_word(1, 1)), Ok(alloc()));
        for rack in [0, 2] {
            let err = decode(&with_rack_word(1, rack)).unwrap_err();
            assert!(matches!(err, DecodeError::Invalid(_)), "{err}");
        }
        // A count of u64::MAX grants (and one more than the bytes hold)
        // fails before anything is allocated for them.
        let mut bytes = with_rack_word(0, 0);
        for count in [u64::MAX, 4] {
            bytes[16..24].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(decode(&bytes), Err(DecodeError::BadLength(n)) if n == count));
        }
    }
}
