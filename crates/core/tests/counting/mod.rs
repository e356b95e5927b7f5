//! A counting `#[global_allocator]` for the memory regression guards.
//!
//! Each guard is its own test binary holding a single test (so no
//! sibling test's allocations land in the count) and includes this
//! module with `mod counting;` — installing an allocator needs `unsafe`
//! the library crates forbid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator so far (allocations plus the new
/// size of every reallocation); frees are not subtracted.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Allocation calls so far: every `alloc` and every `realloc`.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the only added
// work is relaxed counter bumps that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
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
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same block, layout and size the caller vouches for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested while `f` runs.
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, bytes, _) = counted(f);
    (out, bytes)
}

/// Bytes requested and allocation calls made while `f` runs.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, calls) = (
        REQUESTED.load(Ordering::Relaxed),
        CALLS.load(Ordering::Relaxed),
    );
    let out = f();
    let bytes = REQUESTED.load(Ordering::Relaxed) - bytes;
    (out, bytes, CALLS.load(Ordering::Relaxed) - calls)
}
