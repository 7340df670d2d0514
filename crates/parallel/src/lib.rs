//! Deterministic parallel compute substrate for the SpeContext workspace.
//!
//! Two mechanisms, neither from crates.io (the build environment has no
//! access, so no rayon):
//!
//! * **[`join`]** splits one piece of work in two: `join(a, b)` runs `b`
//!   on the caller while one process-wide helper thread, spawned on first
//!   use, may take `a`. A decode step and a prefill block split their
//!   retrieval select and attention by KV head through it. Its rules:
//!   - **Claim-back.** If the helper has not started `a` by the time `b`
//!     is done, the caller takes `a` back and runs it, so a descheduled
//!     helper never stalls a step.
//!   - **One slot.** A job is posted with a CAS from idle, and the slot
//!     stays held until its caller has collected the job: any other
//!     `join` meanwhile — another thread's, a nested one, one on the
//!     helper — runs both halves inline, as does every `join` when the
//!     process allows fewer than two threads (`SPEC_THREADS=1`, one
//!     CPU) and every `join` on a pool worker.
//!   - **Park.** After its last job the helper spins for a bounded window
//!     (a millisecond, longer than the gaps between a decode loop's
//!     joins), then parks; `join` unparks it but never waits for it.
//!   - **Panics** in either half are caught and resumed on the caller
//!     only after both halves have settled, so `a` may borrow the
//!     caller's stack.
//!
//!   A hand-off costs well under a microsecond, where a scoped spawn
//!   costs tens. [`join_counts`] reports the hand-offs and claim-backs.
//! * **A scoped worker pool** over [`std::thread::scope`], which the
//!   figure and table benches fan their config sweeps out through
//!   ([`par_map`]), as does `spec_tensor`'s k-means assignment sweep from
//!   2^17 distance multiply-adds ([`par_map_range`]).
//!
//! Every primitive in this crate upholds one contract:
//!
//! > **Results are bit-for-bit identical at 1 or N threads.**
//!
//! That holds because work is partitioned into *contiguous index bands*
//! (or, for `join`, two halves) and every output slot is written by
//! exactly one worker — no shared accumulators, no reduction trees, no
//! work stealing. Changing the thread count only changes band boundaries
//! or which thread runs a half, never the per-element computation or the
//! order results are assembled in. Floating-point reductions that must
//! stay deterministic (e.g. k-means inertia) are folded serially, in
//! index order, over the parallel-computed parts.
//!
//! # Thread count
//!
//! The process allows [`process_threads`] threads: the `SPEC_THREADS`
//! environment variable (parsed once; `0` or garbage falls through), else
//! [`std::thread::available_parallelism`]. `join` uses the helper when
//! that is at least 2.
//!
//! The pool's workers per call = `min(max_threads(), work items)`, where
//! [`max_threads`] is a thread-local [`with_threads`] override (used by
//! the determinism property tests to sweep thread counts inside one
//! process, and by `bench_e2e`) if one is installed, else
//! `process_threads()`. The override sizes the pool only.
//!
//! Pool workers are spawned per call inside a [`std::thread::scope`],
//! which is what keeps the API safe to use with borrowed data; spawn cost
//! is tens of microseconds, so callers gate parallel dispatch on a
//! work-size threshold and fall back to the serial path below it (the
//! serial path is always the `threads == 1` specialization of the same
//! code).
//!
//! Workers inherit the caller's thread budget **divided by the worker
//! count** (at least 1), so nested fan-outs — a figure sweep's worker
//! running ClusterKV's k-means — degrade to serial instead of
//! oversubscribing the machine, and their joins run inline.
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

mod join;

pub use join::{join, join_counts, JoinCounts};

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = unset.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Set on the pool's workers.
    static POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The threads the process allows: `SPEC_THREADS` (`0` or garbage falls
/// through), then [`std::thread::available_parallelism`] (1 if
/// unavailable). Resolved once per process — the CPU count reads the
/// affinity mask and cgroup quota, too slow and allocating for the
/// [`join`] on every step that asks. `join` uses its helper when this is
/// at least 2.
pub fn process_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SPEC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// The maximum number of worker threads the pool's fan-outs
/// ([`par_map`], [`par_map_range`]) may use.
///
/// Resolution order: [`with_threads`] override, then
/// [`process_threads`].
pub fn max_threads() -> usize {
    let over = THREAD_OVERRIDE.with(Cell::get);
    if over > 0 {
        return over;
    }
    process_threads()
}

/// Whether this thread is one of the pool's workers.
fn on_pool_worker() -> bool {
    POOL_WORKER.with(Cell::get)
}

/// Runs `f` with [`max_threads`] pinned to `n` on the current thread. It
/// sizes the pool's fan-outs; [`join`] follows [`process_threads`].
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
                s.spawn(move || {
                    POOL_WORKER.with(|w| w.set(true));
                    with_threads(child_budget, || band.map(f).collect::<Vec<R>>())
                })
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
