//! Deterministic parallel compute substrate for the SpeContext workspace.
//!
//! One way off the calling thread, not from crates.io (the build
//! environment has no access, so no rayon): **[`join`]**. `join(a, b)`
//! runs `b` on the caller and posts `a` to the first idle one of
//! `process_threads() − 1` slots, each served by its own persistent
//! helper thread, spawned on first use. A decode step and a prefill block
//! split their retrieval select and attention by KV head through it; its
//! rules:
//!
//! - **Claim-back.** If the slot's helper has not started `a` by the time
//!   `b` is done, the caller takes `a` back and runs it, so a descheduled
//!   helper never stalls a step.
//! - **Slots.** A job is posted with a CAS from idle, and its slot stays
//!   held until its caller has collected the job. A `join` that finds
//!   every slot held — other threads', ones it is nested in — runs both
//!   halves inline, as does every `join` when the process allows one
//!   thread (`SPEC_THREADS=1`, one CPU) and every `join` inside a
//!   [`par_map`] item.
//! - **Park.** After its last job a helper spins for a bounded window (a
//!   millisecond, longer than the gaps between a decode loop's joins),
//!   then parks; `join` unparks it but never waits for it.
//! - **Panics** in either half are caught and resumed on the caller only
//!   after both halves have settled, so `a` may borrow the caller's stack.
//!
//! A hand-off costs well under a microsecond. [`join_counts`] reports the
//! hand-offs and claim-backs. `tests/interleavings.rs` enumerates every
//! schedule of a state-machine model of the slot protocol.
//!
//! [`par_map`] and [`par_map_range`] are built on it: `0..n` is halved
//! recursively through `join` into `min(max_threads(), n)` contiguous
//! leaves, concatenated in index order. The figure and table benches fan
//! their config sweeps out through them, as does `spec_tensor`'s k-means
//! assignment sweep from 2^17 distance multiply-adds.
//!
//! Every primitive in this crate upholds one contract:
//!
//! > **Results are bit-for-bit identical at 1 or N threads.**
//!
//! That holds because every output slot is written by exactly one
//! closure call — no shared accumulators, no reduction trees, no work
//! stealing. Changing the thread count only changes leaf boundaries or
//! which thread runs a half, never the per-element computation or the
//! order results are assembled in. Floating-point reductions that must
//! stay deterministic (e.g. k-means inertia) are folded serially, in
//! index order, over the parallel-computed parts.
//!
//! # Thread count
//!
//! The process allows [`process_threads`] threads: the `SPEC_THREADS`
//! environment variable (parsed once; `0` or garbage falls through), else
//! [`std::thread::available_parallelism`]. `join` has one slot fewer.
//!
//! A `par_map` call's leaves = `min(max_threads(), items)`, where
//! [`max_threads`] is 1 inside a `par_map` item, else a thread-local
//! [`with_threads`] override (used by the determinism property tests to
//! sweep thread counts inside one process, and by `bench_e2e`) if one is
//! installed, else `process_threads()`. The override caps the leaves only; a `join` made
//! outside a `par_map` item follows the process.
//!
//! Fan-outs and joins inside a `par_map` item run inline on the item's
//! thread, so nested fan-outs — a figure sweep's item running ClusterKV's
//! k-means — stay serial instead of oversubscribing the machine.
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
use std::thread::LocalKey;

mod join;

pub use join::{join, join_counts, JoinCounts};

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = unset.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread runs a [`par_map_range`] item.
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// The threads the process allows: `SPEC_THREADS` (`0` or garbage falls
/// through), then [`std::thread::available_parallelism`] (1 if
/// unavailable). Resolved once per process — the CPU count reads the
/// affinity mask and cgroup quota, too slow and allocating for the
/// [`join`] on every step that asks. `join` has one slot fewer.
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

/// The most leaves a [`par_map`] / [`par_map_range`] call is split into.
///
/// Resolution order: 1 inside a `par_map` item, then the [`with_threads`]
/// override, then [`process_threads`].
pub fn max_threads() -> usize {
    if in_par_map_item() {
        return 1;
    }
    let over = THREAD_OVERRIDE.with(Cell::get);
    if over > 0 {
        return over;
    }
    process_threads()
}

/// Whether this thread is running a [`par_map_range`] item.
fn in_par_map_item() -> bool {
    IN_ITEM.with(Cell::get)
}

/// Runs `f` with the thread-local `key` set to `value`, restoring the
/// previous value on exit, including on panic.
fn with_local<T: Copy, R>(key: &'static LocalKey<Cell<T>>, value: T, f: impl FnOnce() -> R) -> R {
    struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);
    impl<T: Copy> Drop for Restore<T> {
        fn drop(&mut self) {
            self.0.with(|c| c.set(self.1));
        }
    }
    let _restore = Restore(key, key.with(|c| c.replace(value)));
    f()
}

/// Runs `f` with [`max_threads`] pinned to `n` on the current thread. It
/// caps the leaves of `par_map` calls; [`join`] follows
/// [`process_threads`].
///
/// The override is thread-local, so concurrent tests cannot race on it.
/// Restores the previous value on exit, including on panic.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be at least 1");
    with_local(&THREAD_OVERRIDE, n, f)
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// `0..n` is halved recursively through [`join`] into
/// `min(max_threads(), n)` contiguous leaves — one inside a `par_map`
/// item — and the leaves are concatenated in index order, so the output
/// is identical to the serial `(0..n).map(f).collect()` at any thread
/// count. A panicking item's payload reaches the caller.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    leaves_of(0..n, max_threads().min(n), &f)
}

/// `range` mapped through `f` as `leaves` contiguous leaves: the right
/// part offered to a helper, the left run here.
fn leaves_of<R, F>(range: Range<usize>, leaves: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if leaves <= 1 {
        return with_local(&IN_ITEM, true, || range.map(f).collect());
    }
    let left = leaves / 2;
    let mid = range.start + range.len() * left / leaves;
    let (right, mut out) = join(
        || leaves_of(mid..range.end, leaves - left, f),
        || leaves_of(range.start..mid, left, f),
    );
    out.extend(right);
    out
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
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};

    fn me() -> ThreadId {
        thread::current().id()
    }

    /// The leaves `par_map` splits `0..n` into — its bands — cover every
    /// index exactly once, in order, for any leaf count.
    #[test]
    fn bands_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 65] {
            for parts in [1usize, 2, 3, 7, 64, 100] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = leaves_of(0..n, parts, &|i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i
                });
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "n={n} parts={parts}"
                );
            }
        }
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        for n in [0u64, 1, 2, 3, 7, 64, 65, 97] {
            let items: Vec<u64> = (0..n).collect();
            let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            for t in [1usize, 2, 3, 7, 16] {
                let calls = AtomicUsize::new(0);
                let got = with_threads(t, || {
                    par_map(&items, |x| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        x * x + 1
                    })
                });
                assert_eq!(got, serial, "n={n} threads={t}");
                assert_eq!(calls.into_inner(), items.len(), "n={n} threads={t}");
            }
        }
    }

    #[test]
    fn par_map_range_empty_and_single() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_payload() {
        for t in [1usize, 2, 7] {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                with_threads(t, || {
                    par_map_range(16, |i| {
                        if i == 11 {
                            panic!("item 11");
                        }
                        i
                    })
                })
            }));
            let payload = outcome.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("item 11"),
                "threads={t}"
            );
            assert!(!in_par_map_item(), "the item flag is restored on unwind");
        }
    }

    #[test]
    fn workers_inherit_divided_budget() {
        // Whatever the caller's budget and however many items share it,
        // an item's own budget is one leaf, so a nested fan-out cannot
        // oversubscribe the caller's allowance.
        let seen = with_threads(8, || par_map_range(4, |_| max_threads()));
        assert_eq!(seen, vec![1; 4]);
        let seen = with_threads(7, || par_map_range(7, |_| with_threads(7, max_threads)));
        assert_eq!(seen, vec![1; 7]);
        assert_eq!(with_threads(7, max_threads), 7, "restored after the items");
    }

    #[test]
    fn fan_outs_and_joins_inside_an_item_run_on_its_thread() {
        let seen = with_threads(4, || {
            par_map_range(4, |_| {
                let inner = with_threads(4, || par_map_range(8, |_| me()));
                let (a, b) = join(me, me);
                inner.iter().all(|&id| id == me()) && (a, b) == (me(), me())
            })
        });
        assert_eq!(seen, vec![true; 4]);
        assert!(!in_par_map_item());
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
