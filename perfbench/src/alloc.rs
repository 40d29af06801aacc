//! A counting global allocator: live heap bytes and a resettable
//! high-water mark, so the ledger can report true peak heap rather than the
//! engine's vertex-store estimate.
//!
//! Every method forwards to [`System`]; the counters are statistics that
//! publish no other data, so `Relaxed` ordering is enough. Resetting the peak
//! is meant for quiet points (between assemblies, at stage boundaries) where
//! the worker pool is parked; a concurrent allocation can only make the
//! reading slightly high, never low.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], plus live-byte and high-water-mark counters.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the counter
// updates are atomics that never allocate or touch the returned memory.
// ppa_lint: allow(unsafe-audit)
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout goes to `System::alloc` unchanged.
    // ppa_lint: allow(unsafe-audit)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: the caller's layout goes to `System::alloc_zeroed` unchanged.
    // ppa_lint: allow(unsafe-audit)
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: `ptr` was allocated by this allocator, hence by `System`, with
    // `layout`, as the caller guarantees.
    // ppa_lint: allow(unsafe-audit)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    // SAFETY: `ptr`, `layout` and `new_size` meet `GlobalAlloc::realloc`'s
    // requirements, as the caller guarantees; `System` receives them as is.
    // ppa_lint: allow(unsafe-audit)
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// The high-water mark of live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts the high-water mark at the current live bytes, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}
