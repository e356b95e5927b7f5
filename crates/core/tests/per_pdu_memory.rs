//! Memory regression guard for per-PDU pricing.
//!
//! `clear_per_pdu` must hold one constraint set however many
//! sub-markets it walks: bytes allocated are O(racks + bids), not
//! O(sub-markets × racks). This lives in its own test binary because it
//! installs a counting `#[global_allocator]`, which needs `unsafe` the
//! library crates forbid, and holds a single test so no sibling test's
//! allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spotdc_core::demand::StepBid;
use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, RackBid};
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

/// Bytes requested from the allocator so far (allocations plus the new
/// size of every reallocation); frees are not subtracted.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the only added
// work is a relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same block, layout and size the caller vouches for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested while `f` runs.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = f();
    (out, REQUESTED.load(Ordering::Relaxed) - before)
}

#[test]
fn clear_per_pdu_allocates_a_constant_number_of_constraint_sets() {
    const PDUS: usize = 1_024;
    const RACKS_PER_PDU: usize = 4;
    let mut b = TopologyBuilder::new(Watts::new(1e9));
    for p in 0..PDUS {
        b = b.pdu(Watts::new(1e5));
        for r in 0..RACKS_PER_PDU {
            let i = p * RACKS_PER_PDU + r;
            b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
        }
    }
    let topo = b.build().expect("valid topology");
    let cs = ConstraintSet::new(&topo, vec![Watts::new(90.0); PDUS], Watts::new(60_000.0));
    let bids: Vec<RackBid> = (0..PDUS * RACKS_PER_PDU)
        .map(|i| {
            let demand = 20.0 + (i % 7) as f64 * 5.0;
            let cap = 0.05 + (i % 11) as f64 * 0.02;
            RackBid::new(
                RackId::new(i),
                StepBid::new(Watts::new(demand), Price::per_kw_hour(cap))
                    .expect("valid")
                    .into(),
            )
        })
        .collect();

    let (_, one_set) = requested_by(|| cs.clone());
    let engine = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(1.0)));
    let (outcomes, walked) = requested_by(|| engine.clear_per_pdu(Slot::ZERO, &bids, &cs));
    assert_eq!(outcomes.len(), PDUS);
    assert!(outcomes.iter().all(|o| o.sold() > Watts::ZERO));

    // Grouping the bids, the engine's scratch and the outcomes' grant
    // maps are all per bid; 1 KiB each is several times what they take.
    // One clone per sub-market would be PDUS × `one_set` — hundreds of
    // times over this bound.
    let bound = 4 * one_set + 1_024 * bids.len() as u64;
    assert!(
        walked < bound,
        "clear_per_pdu requested {walked} B; bound {bound} B \
         (one constraint set = {one_set} B, {PDUS} sub-markets)"
    );
    assert!(
        PDUS as u64 * one_set > 10 * bound,
        "bound must discriminate"
    );
}
