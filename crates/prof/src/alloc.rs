//! The feature-gated global counting allocator.
//!
//! With the `count-alloc` feature the crate installs a
//! `#[global_allocator]` that wraps the system allocator and maintains
//! four relaxed atomics: allocation count, total bytes ever allocated,
//! live bytes, and the peak of live bytes (a cheap RSS proxy — it
//! tracks heap demand, not mapped pages). Without the feature every
//! function here returns zeros and `enabled()` is `false`, so callers
//! — the per-phase deltas in [`crate::Prof`] and the `host.alloc`
//! section of `mcio.prof.v1` — need no `cfg` of their own.
//!
//! The feature is off by default: the wrapper costs two atomic RMW ops
//! per allocation, and a binary can only have one global allocator.

/// A point-in-time reading of the cumulative allocation counters, used
/// for per-phase deltas (end minus start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations performed so far (monotonic).
    pub allocs: u64,
    /// Bytes allocated so far, ignoring frees (monotonic).
    pub bytes: u64,
}

/// Whole-process allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Whether the counting allocator is installed (`count-alloc`).
    pub enabled: bool,
    /// Total allocations performed.
    pub total_allocs: u64,
    /// Total bytes allocated (ignoring frees).
    pub total_bytes: u64,
    /// Peak of live heap bytes — the RSS proxy.
    pub peak_bytes: u64,
}

#[cfg(feature = "count-alloc")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub(super) static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub(super) static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    fn on_alloc(size: u64) {
        ALLOCS.fetch_add(1, Relaxed);
        TOTAL_BYTES.fetch_add(size, Relaxed);
        let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                // Count a grow-or-shrink as one allocation of the new
                // block plus a free of the old one.
                on_alloc(new_size as u64);
                LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Whether the counting allocator is installed in this binary.
pub fn enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Current cumulative counters (zeros without `count-alloc`).
pub fn snapshot() -> AllocSnapshot {
    #[cfg(feature = "count-alloc")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        AllocSnapshot {
            allocs: counting::ALLOCS.load(Relaxed),
            bytes: counting::TOTAL_BYTES.load(Relaxed),
        }
    }
    #[cfg(not(feature = "count-alloc"))]
    AllocSnapshot::default()
}

/// Heap bytes live right now (zero without `count-alloc`): what a value
/// holds is the difference across building it, once its temporaries are
/// gone.
pub fn live_bytes() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting::LIVE_BYTES.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    0
}

/// Whole-process allocator statistics (zeros without `count-alloc`).
pub fn stats() -> AllocStats {
    #[cfg(feature = "count-alloc")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        AllocStats {
            enabled: true,
            total_allocs: counting::ALLOCS.load(Relaxed),
            total_bytes: counting::TOTAL_BYTES.load(Relaxed),
            peak_bytes: counting::PEAK_BYTES.load(Relaxed),
        }
    }
    #[cfg(not(feature = "count-alloc"))]
    AllocStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotonic_and_matches_feature() {
        let a = snapshot();
        // Allocate something measurable.
        let v: Vec<u64> = (0..4096).collect();
        assert_eq!(v.len(), 4096);
        let b = snapshot();
        assert_eq!(enabled(), cfg!(feature = "count-alloc"));
        if enabled() {
            assert!(b.bytes > a.bytes, "allocation was counted");
            assert!(b.allocs > a.allocs);
            assert!(stats().peak_bytes > 0);
            assert!(live_bytes() >= 4096 * 8, "the vector is live");
        } else {
            assert_eq!((a, b), Default::default());
            assert_eq!(live_bytes(), 0);
        }
    }
}
