//! A counting allocator: exact allocation counts for the traced pass.
//!
//! Installed as the binary's global allocator; it forwards to the system
//! allocator and counts only while [`counted`] is running, so a timed run
//! pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The system allocator with call and byte counters in front of it.
pub struct CountingAlloc;

// Statistics only — none of these publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state and do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation activity observed during one [`counted`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// One counting region at a time (parallel unit tests would otherwise
/// switch each other's counting off).
static REGION: Mutex<()> = Mutex::new(());

/// Runs `f` with counting on and returns what it allocated. Not
/// re-entrant, and counts every thread — the harness is single-threaded
/// where it counts.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    // The guarded data is `()`: a panic in another region leaves nothing
    // inconsistent, so a poisoned lock is still good.
    let _region = REGION
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let calls = CALLS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let count = AllocCount {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-wide and `cargo test` runs tests on
    // parallel threads, so only lower bounds can be asserted here; the
    // traced pass, which is single-threaded, gets exact counts.
    #[test]
    fn sees_what_the_closure_allocates() {
        // The test binary installs the allocator through `main.rs`.
        let (v, n) = counted(|| {
            let mut v: Vec<u64> = Vec::with_capacity(100);
            v.push(1);
            v
        });
        assert_eq!(v.len(), 1);
        assert!(n.calls >= 1, "allocation not seen: {n:?}");
        assert!(n.bytes >= 800, "bytes not seen: {n:?}");
        let (_, grown) = counted(|| {
            let mut v: Vec<u8> = Vec::with_capacity(16);
            v.resize(4096, 0);
            v
        });
        assert!(grown.calls >= 2, "realloc not seen: {grown:?}");
    }
}
