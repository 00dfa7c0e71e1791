//! Allocation accounting for the bench plane: a counting
//! `#[global_allocator]` wrapper over the system allocator.
//!
//! The workspace is dependency-free, so this is a std-only shim: every
//! allocation bumps a relaxed atomic counter and the current-bytes gauge
//! (whose running maximum is the peak-RSS proxy), then defers to
//! [`std::alloc::System`]. Counting is **gated**: until [`enable`] is
//! called the fast path is a single relaxed load, so a registered wrapper
//! costs the code it does not measure nothing measurable.
//!
//! The wrapper must be registered as the global allocator by the *binary*
//! or test target that measures (the `perfbench` benchmark and the
//! `tests/alloc_budget.rs` allocation-budget test);
//! library tests run under the default allocator, where [`is_active`]
//! stays `false` and reported stats are zero. Allocation counts are
//! deterministic, so a budget on them is a real regression gate, not a
//! noisy one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Set the first time an allocation is counted — distinguishes "wrapper
/// registered and measuring" from "library test without registration".
static ACTIVE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator. Register with
/// `#[global_allocator]` in a bench-capable binary.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count_alloc(size: usize) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        ACTIVE.store(true, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let now = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    }

    #[inline]
    fn count_dealloc(size: usize) {
        if ENABLED.load(Ordering::Relaxed) {
            // Saturating: frees of blocks allocated before enable() would
            // otherwise wrap the gauge.
            CURRENT_BYTES
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    Some(b.saturating_sub(size as u64))
                })
                .ok();
        }
    }
}

// SAFETY: defers every allocation verbatim to `System`; the wrapper only
// adjusts atomics and never observes or alters the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocator round trip: count it once, and move
        // the gauge by the size delta.
        Self::count_alloc(new_size);
        Self::count_dealloc(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on (bench entry point only).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns counting back off (end of the bench run).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True once the registered wrapper has counted at least one allocation —
/// i.e. the process really runs under [`CountingAlloc`] with counting
/// enabled. False in library tests, where stats read zero.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocator round trips (alloc + alloc_zeroed + realloc).
    pub allocs: u64,
    /// High-water mark of live heap bytes — the peak-RSS proxy.
    pub peak_bytes: u64,
}

/// Runs `f` and returns its result alongside the allocation stats of just
/// that closure: allocation count delta, and the peak live bytes reached
/// *during* `f` in excess of the level at entry.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let level = CURRENT_BYTES.load(Ordering::Relaxed);
    // Re-arm the high-water mark at the current level so the measured peak
    // belongs to `f` alone.
    PEAK_BYTES.store(level, Ordering::Relaxed);
    let out = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(level);
    (
        out,
        AllocStats {
            allocs,
            peak_bytes: peak,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_stay_zero_without_registration() {
        // Library tests run under the default allocator: enabling the
        // counters must still observe nothing, because the wrapper's hooks
        // are never invoked.
        enable();
        let (v, stats) = measure(|| vec![0u8; 4096].len());
        disable();
        assert_eq!(v, 4096);
        assert!(!is_active());
        assert_eq!(stats.allocs, 0);
        assert_eq!(stats.peak_bytes, 0);
    }
}
