//! Deterministic parallel compute substrate for the SpeContext workspace.
//!
//! A hand-rolled scoped worker pool over [`std::thread::scope`] (the build
//! environment has no crates.io access, so no rayon). It has two users:
//! the figure and table benches fan their config sweeps out through
//! [`par_map`], and `spec_tensor`'s k-means assignment sweep fans out
//! through [`par_map_range`] from 2^17 distance multiply-adds. Every
//! primitive in this crate upholds one contract:
//!
//! > **Results are bit-for-bit identical at 1 or N threads.**
//!
//! That holds because work is partitioned into *contiguous index bands*
//! and every output slot is written by exactly one worker — no shared
//! accumulators, no reduction trees, no work stealing. Changing the
//! thread count only changes band boundaries, never the per-element
//! computation or the order results are assembled in. Floating-point
//! reductions that must stay deterministic (e.g. k-means inertia) are
//! folded serially, in index order, over the parallel-computed parts.
//!
//! # Thread count
//!
//! Workers per call = `min(max_threads(), work items)`, where
//! [`max_threads`] resolves, in order:
//!
//! 1. a thread-local [`with_threads`] override (used by the determinism
//!    property tests to sweep thread counts inside one process),
//! 2. the `SPEC_THREADS` environment variable (parsed once; `0` or
//!    garbage falls through),
//! 3. [`std::thread::available_parallelism`].
//!
//! Workers are spawned per call inside a [`std::thread::scope`], which is
//! what keeps the API safe to use with borrowed data; spawn cost is tens
//! of microseconds, so callers gate parallel dispatch on a work-size
//! threshold and fall back to the serial path below it (the serial path
//! is always the `threads == 1` specialization of the same code).
//!
//! Workers inherit the caller's thread budget **divided by the worker
//! count** (at least 1), so nested fan-outs — a figure sweep's worker
//! running ClusterKV's k-means — degrade to serial instead of
//! oversubscribing the machine.
//!
//! # Example
//!
//! ```
//! let squares = spec_parallel::par_map_range(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Identical output at any thread count — that's the contract.
//! let at_one = spec_parallel::with_threads(1, || spec_parallel::par_map_range(8, |i| i * i));
//! assert_eq!(at_one, squares);
//! ```

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = unset.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// `SPEC_THREADS`, parsed once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPEC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The maximum number of worker threads a parallel primitive may use.
///
/// Resolution order: [`with_threads`] override, then `SPEC_THREADS`, then
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn max_threads() -> usize {
    let over = THREAD_OVERRIDE.with(Cell::get);
    if over > 0 {
        return over;
    }
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` with [`max_threads`] pinned to `n` on the current thread.
///
/// The override is thread-local, so concurrent tests cannot race on it
/// (pool workers receive their own divided budget at spawn; see the
/// module docs). Restores the previous value on exit, including on
/// panic.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Splits `0..n` into `parts` contiguous ranges whose lengths differ by
/// at most one, in index order.
fn bands(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Each index is computed by exactly one worker and results are
/// assembled band-by-band in index order, so the output is identical to
/// the serial `(0..n).map(f).collect()` at any thread count.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let budget = max_threads();
    let threads = budget.min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let parts = bands(n, threads);
    let child_budget = worker_budget(budget, parts.len());
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .map(|band| {
                let band = band.clone();
                let f = &f;
                s.spawn(move || with_threads(child_budget, || band.map(f).collect::<Vec<R>>()))
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("spec_parallel worker panicked"));
        }
    });
    out
}

/// The thread budget each of `workers` workers inherits: the caller's
/// budget divided evenly, at least 1. Nested parallel calls inside a
/// worker therefore cannot oversubscribe the machine — a fan-out that
/// already saturates the budget runs its inner fan-outs serially.
fn worker_budget(budget: usize, workers: usize) -> usize {
    (budget / workers.max(1)).max(1)
}

/// Maps `f` over a slice, returning results in item order. See
/// [`par_map_range`] for the determinism contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 65] {
            for parts in [1usize, 2, 3, 7, 64, 100] {
                let bs = bands(n, parts);
                let mut seen = 0;
                for b in &bs {
                    assert_eq!(b.start, seen, "contiguous");
                    seen = b.end;
                }
                assert_eq!(seen, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1usize, 2, 3, 7, 16] {
            let got = with_threads(t, || par_map(&items, |x| x * x + 1));
            assert_eq!(got, serial, "threads={t}");
        }
    }

    #[test]
    fn par_map_range_empty_and_single() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn workers_inherit_divided_budget() {
        // 4 workers out of a budget of 8 → each sees a budget of 2, so a
        // nested fan-out cannot oversubscribe the caller's allowance.
        let seen = with_threads(8, || par_map_range(4, |_| max_threads()));
        assert_eq!(seen, vec![2, 2, 2, 2]);
        // Saturated: 7 workers from a budget of 7 → nested calls serial.
        let seen = with_threads(7, || par_map_range(7, |_| max_threads()));
        assert_eq!(seen, vec![1; 7]);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = max_threads();
        with_threads(5, || assert_eq!(max_threads(), 5));
        assert_eq!(max_threads(), before);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn with_threads_rejects_zero() {
        with_threads(0, || {});
    }
}
