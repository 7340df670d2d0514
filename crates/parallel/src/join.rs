//! [`join`]: two closures, the second on the caller, the first posted to
//! the first idle one of `process_threads() − 1` slots, each served by
//! its own persistent helper thread — or taken back by the caller when
//! that helper has not started it by the time the second is done.
//!
//! A slot's helper is spawned by the first `join` that posts to it and
//! lives for the rest of the process. It owns nothing: a job is a pointer
//! to the caller's closure on the caller's stack, passed through the
//! slot.
//!
//! # A slot
//!
//! One state word moves a job through
//!
//! ```text
//! IDLE --caller CAS--> HELD --job written--> POSTED --helper CAS--> RUNNING --> DONE
//!                        ^                      |                                 |
//!                        +---caller CAS (claim back)                              |
//! IDLE <--------------- caller, once the job is settled (claimed back and run, or DONE)
//! ```
//!
//! Only a caller that wins `IDLE -> HELD` posts, so a slot holds one job
//! at a time, and it stays out of `IDLE` until that caller has collected
//! it. A `join` tries the slots in order and runs inline when it wins
//! none. `tests/interleavings.rs` checks every schedule of a
//! state-machine model of these steps, the park handshake included.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

const IDLE: u8 = 0;
const HELD: u8 = 1;
const POSTED: u8 = 2;
const RUNNING: u8 = 3;
const DONE: u8 = 4;

/// How long a helper spins for its next job after the last one before
/// it parks. A decode step's joins come 10–40 µs apart and a prefill's
/// attention joins one every ~300 µs (a block's gemms lie between them),
/// so the window covers both; each helper holds a core for a millisecond
/// after its last job, then none.
const IDLE_SPIN: Duration = Duration::from_millis(1);

/// A type-erased pointer to a [`StackJob`] and the function that runs it.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    run: unsafe fn(*const ()),
}

/// A job slot, and the helper that serves it.
#[repr(align(64))]
struct Slot {
    state: AtomicU8,
    /// Written by the poster while the state is `HELD`, read by the
    /// helper once it has moved the state `POSTED -> RUNNING`.
    job: UnsafeCell<Option<JobRef>>,
    /// Set by the helper just before it parks.
    sleeping: AtomicBool,
    /// Spawned on the first post; `None` if the spawn failed, and then
    /// every `join` that wins this slot releases it and runs inline. The
    /// helper is detached on purpose: it lives as long as the process,
    /// and nothing it runs can unwind out of it (a job's panic is caught
    /// into the job's result).
    helper: OnceLock<Option<Thread>>,
}

/// Jobs posted, and how many of those their caller took back: on a line
/// of their own, away from the states the helpers spin on.
#[repr(align(64))]
struct Counts {
    posted: AtomicU64,
    claimed_back: AtomicU64,
}

static COUNTS: Counts = Counts {
    posted: AtomicU64::new(0),
    claimed_back: AtomicU64::new(0),
};

// SAFETY: `job` is the only non-`Sync` field. It is written only by the
// thread that moved `state` from `IDLE` to `HELD` and read only by the
// helper after it moved `state` from `POSTED` to `RUNNING`; the poster's
// `POSTED` store (SeqCst, so also Release) and the helper's Acquire CAS
// order the write before the read, and no write happens again until the
// state has been through `IDLE`, which the poster stores only after the
// helper's `DONE` (or after taking the job back, when the helper never
// read it).
unsafe impl Sync for Slot {}

/// The process's slots, one fewer than the threads it allows.
fn slots() -> &'static [Slot] {
    static SLOTS: OnceLock<&'static [Slot]> = OnceLock::new();
    SLOTS.get_or_init(|| {
        let slots = (1..crate::process_threads()).map(|_| Slot {
            state: AtomicU8::new(IDLE),
            job: UnsafeCell::new(None),
            sleeping: AtomicBool::new(false),
            helper: OnceLock::new(),
        });
        Box::leak(slots.collect())
    })
}

/// The first slot this thread wins `IDLE -> HELD`, with its helper;
/// `None` inside a `par_map` item or when every slot is held.
fn hold() -> Option<(&'static Slot, &'static Thread)> {
    if crate::in_par_map_item() {
        return None;
    }
    slots().iter().find_map(|slot| {
        slot.state
            .compare_exchange(IDLE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .ok()?;
        let helper = slot.helper.get_or_init(|| {
            thread::Builder::new()
                .name("spec_parallel helper".into())
                .spawn(move || slot.serve())
                .ok()
                .map(|handle| handle.thread().clone())
        });
        if helper.is_none() {
            slot.state.store(IDLE, Ordering::Release);
        }
        Some((slot, helper.as_ref()?))
    })
}

impl Slot {
    /// The helper's loop: wait for a post, run it, mark it done.
    fn serve(&self) {
        loop {
            self.wait_for_post();
            if self
                .state
                .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // its caller took it back first
            }
            // SAFETY: the CAS above made this thread the job's only runner
            // and synchronised with the post (see `Slot`); the caller does
            // not return before `DONE`, so the job's frame is alive
            // throughout.
            unsafe {
                let job = (*self.job.get()).expect("a posted slot holds a job");
                (job.run)(job.data);
            }
            self.state.store(DONE, Ordering::Release);
        }
    }

    /// Spins until a job is posted, parking once [`IDLE_SPIN`] has passed
    /// without one.
    fn wait_for_post(&self) {
        let mut since = Instant::now();
        let mut spins = 0u32;
        while self.state.load(Ordering::Acquire) != POSTED {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if !spins.is_multiple_of(256) || since.elapsed() < IDLE_SPIN {
                continue;
            }
            // A poster stores `POSTED` then reads `sleeping`; this stores
            // `sleeping` then reads the state. Both SeqCst, so one of the
            // two reads sees the other's store: no post is slept through.
            // A wake that comes before `park` leaves its token, so `park`
            // returns.
            self.sleeping.store(true, Ordering::SeqCst);
            if self.state.load(Ordering::SeqCst) != POSTED {
                thread::park();
            }
            self.sleeping.store(false, Ordering::SeqCst);
            since = Instant::now();
        }
    }
}

/// A closure on the caller's stack and the slot its outcome lands in.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
}

impl<F: FnOnce() -> R, R> StackJob<F, R> {
    /// Runs the closure, catching a panic into the result.
    ///
    /// # Safety
    ///
    /// `this` points to a live `StackJob<F, R>` that nothing else reads
    /// or writes until this returns, and that has not run yet.
    unsafe fn run(this: *const ()) {
        let this = &*(this as *const Self);
        let func = (*this.func.get()).take().expect("a job runs once");
        *this.result.get() = Some(panic::catch_unwind(AssertUnwindSafe(func)));
    }

    fn job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            run: Self::run,
        }
    }
}

/// Runs `a` and `b` and returns both results; `b` on the calling thread,
/// `a` on the helper of the first idle slot, if there is one.
///
/// After `b` returns, a caller whose `a` the helper has not started takes
/// it back and runs it itself, so a descheduled helper never stalls the
/// caller for longer than `a` takes. Both halves run inline — `b`, then
/// `a` — when the process allows one thread (`SPEC_THREADS=1`, or one CPU
/// as [`std::thread::available_parallelism`] sees it), inside a
/// [`par_map`](crate::par_map) item, and whenever every slot is held:
/// by other threads' joins, or by the ones this call is nested in. The
/// thread-local [`with_threads`](crate::with_threads) override caps
/// `par_map`'s leaves and does not reach `join`.
///
/// Either way both halves run to completion. A panic in either is caught
/// and resumed on the caller once both have settled (`b`'s first if both
/// panic), which is what lets `a` borrow from the caller's stack.
///
/// Which thread runs `a` is the only thing that varies, so results that
/// do not depend on it — disjoint outputs, as at every call site in the
/// workspace — are identical at any thread count.
///
/// ```
/// let mut left = vec![0u32; 4];
/// let mut right = vec![0u32; 4];
/// let (a, b) = spec_parallel::join(
///     || { right.iter_mut().for_each(|x| *x = 2); right.len() },
///     || { left.iter_mut().for_each(|x| *x = 1); left.len() },
/// );
/// assert_eq!((a, b), (4, 4));
/// assert_eq!((left, right), (vec![1; 4], vec![2; 4]));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB,
{
    let Some((slot, helper)) = hold() else {
        return inline(a, b);
    };
    let job = StackJob {
        func: UnsafeCell::new(Some(a)),
        result: UnsafeCell::new(None),
    };
    // SAFETY (the whole protocol, argued once):
    // - `hold` won the slot with a CAS from `IDLE`: this thread alone owns
    //   it from here until its `IDLE` store below.
    // - `job` — `a` and its result — stays in this frame, and nothing
    //   below returns or unwinds before the job has settled: `b` runs
    //   under `catch_unwind`; then either this thread wins `POSTED ->
    //   HELD`, after which the helper can no longer start the job, or the
    //   helper has won `POSTED -> RUNNING` and this thread waits for its
    //   `DONE`, after which the helper never touches the job again.
    // - A panic in `a` is caught inside `StackJob::run`, on whichever
    //   thread runs it; one in `b` is caught here. Both are resumed only
    //   after both halves have settled, `rayon::join`'s rule.
    // - `A: Send` and `RA: Send` because `a` may run, and its result be
    //   made, on the helper. `b` never leaves this thread.
    unsafe { *slot.job.get() = Some(job.job_ref()) };
    COUNTS.posted.fetch_add(1, Ordering::Relaxed);
    slot.state.store(POSTED, Ordering::SeqCst);
    if slot.sleeping.load(Ordering::SeqCst) {
        helper.unpark();
    }
    let rb = panic::catch_unwind(AssertUnwindSafe(b));
    if slot
        .state
        .compare_exchange(POSTED, HELD, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
    {
        COUNTS.claimed_back.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the helper can no longer start the job (see above).
        unsafe { StackJob::<A, RA>::run(&job as *const StackJob<A, RA> as *const ()) };
    } else {
        let mut spins = 0u32;
        while slot.state.load(Ordering::Acquire) != DONE {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                thread::yield_now();
            }
        }
    }
    slot.state.store(IDLE, Ordering::Release);
    let ra = job.result.into_inner().expect("a settled job has a result");
    settle(ra, rb)
}

/// Both halves on the caller, `b` first, each to completion.
fn inline<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    let rb = panic::catch_unwind(AssertUnwindSafe(b));
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    settle(ra, rb)
}

/// The two results, or the first panic (`b`'s before `a`'s) resumed.
fn settle<RA, RB>(ra: thread::Result<RA>, rb: thread::Result<RB>) -> (RA, RB) {
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (_, Err(payload)) | (Err(payload), _) => panic::resume_unwind(payload),
    }
}

/// Counts of [`join`]'s hand-offs since the process started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounts {
    /// Joins that posted their `a` to the helper.
    pub posted: u64,
    /// Of those, the ones whose caller took `a` back and ran it itself.
    pub claimed_back: u64,
}

/// The hand-off counts so far (every join that did not run inline posted).
pub fn join_counts() -> JoinCounts {
    JoinCounts {
        posted: COUNTS.posted.load(Ordering::Relaxed),
        claimed_back: COUNTS.claimed_back.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};
    use std::thread::ThreadId;

    fn me() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn both_halves_run_exactly_once() {
        for _ in 0..1000 {
            let (runs_a, runs_b) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (a, b) = join(
                || runs_a.fetch_add(1, Ordering::Relaxed),
                || runs_b.fetch_add(1, Ordering::Relaxed),
            );
            assert_eq!((a, b), (0, 0));
            assert_eq!(runs_a.load(Ordering::Relaxed), 1);
            assert_eq!(runs_b.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn the_helper_takes_a_when_two_cores_are_free() {
        if crate::process_threads() < 2 {
            return;
        }
        // `b` waits (bounded) until `a` has started, so when the helper is
        // free the caller cannot take `a` back: some round must see `a`
        // off the caller, unless the harness's other tests hold the
        // helper throughout.
        let off_caller = (0..200).any(|_| {
            let started = AtomicBool::new(false);
            let (a, _) = join(
                || {
                    started.store(true, Ordering::Release);
                    me()
                },
                || {
                    let since = Instant::now();
                    while !started.load(Ordering::Acquire)
                        && since.elapsed() < Duration::from_millis(5)
                    {
                        std::hint::spin_loop();
                    }
                },
            );
            a != me()
        });
        assert!(off_caller, "200 joins and `a` never ran on the helper");
    }

    /// Re-runs the named test of this binary in a child process under
    /// `SPEC_THREADS=1`; `true` in the child, where the caller goes on.
    fn in_child_at_one_thread(name: &str) -> bool {
        const CHILD: &str = "SPEC_PARALLEL_JOIN_CHILD";
        if std::env::var_os(CHILD).is_some() {
            return true;
        }
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--test-threads=1"])
            .env("SPEC_THREADS", "1")
            .env(CHILD, "1")
            .output()
            .expect("child test process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name} under SPEC_THREADS=1:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        false
    }

    /// A join inside a `par_map` item runs both halves on the item's
    /// thread, whichever thread runs the item.
    #[test]
    fn pool_workers_run_both_halves_themselves() {
        let seen = crate::with_threads(2, || {
            crate::par_map_range(2, |_| {
                let (a, b) = join(me, me);
                (a == me(), b == me())
            })
        });
        assert_eq!(seen, vec![(true, true); 2]);
    }

    #[test]
    fn a_budget_of_one_runs_both_halves_on_the_caller() {
        if in_child_at_one_thread("join::tests::a_budget_of_one_runs_both_halves_on_the_caller") {
            assert_eq!(crate::process_threads(), 1);
            for _ in 0..100 {
                let (a, b) = join(me, me);
                assert_eq!((a, b), (me(), me()));
            }
        }
    }

    /// A panic in one half reaches the caller with its payload, after the
    /// other half — which writes the caller's buffer — has finished.
    fn panics_after_the_other_half(panic_in_a: bool) {
        for _ in 0..50 {
            let mut buffer = vec![0u8; 1 << 12];
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let fill = |buf: &mut Vec<u8>| {
                    thread::sleep(Duration::from_micros(50));
                    buf.iter_mut().for_each(|x| *x = 7);
                };
                if panic_in_a {
                    join(|| panic!("boom in a"), || fill(&mut buffer));
                } else {
                    join(|| fill(&mut buffer), || panic!("boom in b"));
                }
            }));
            let payload = outcome.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<&str>().copied();
            let want = if panic_in_a { "boom in a" } else { "boom in b" };
            assert_eq!(message, Some(want));
            assert!(
                buffer.iter().all(|&x| x == 7),
                "the other half finished first"
            );
        }
    }

    #[test]
    fn a_panic_in_a_reaches_the_caller_after_b() {
        panics_after_the_other_half(true);
    }

    #[test]
    fn a_panic_in_b_reaches_the_caller_after_a() {
        panics_after_the_other_half(false);
    }

    #[test]
    fn nested_joins_run_inline_and_give_the_right_sums() {
        for _ in 0..200 {
            nested_round();
        }
    }

    /// Four leaves two joins deep: the sums are right and each leaf runs
    /// once whatever the slots. With one slot (two threads), a nested
    /// join finds it held, so each inner join runs on its outer half's
    /// thread; with more, an inner join may take another slot.
    fn nested_round() {
        let xs: Vec<u64> = (0..4096).collect();
        let runs: [AtomicUsize; 4] = Default::default();
        let sum = |leaf: usize| {
            runs[leaf].fetch_add(1, Ordering::Relaxed);
            (xs[leaf * 1024..][..1024].iter().sum::<u64>(), me())
        };
        let half = |lo: usize| {
            let outer = me();
            let ((p, pid), (q, qid)) = join(|| sum(lo + 1), || sum(lo));
            (p + q, [outer, pid, qid])
        };
        let ((a, a_ids), (b, b_ids)) = join(|| half(2), || half(0));
        assert_eq!(a + b, xs.iter().sum::<u64>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        if crate::process_threads() == 2 && a_ids[0] != b_ids[0] {
            for ids in [a_ids, b_ids] {
                assert!(ids.iter().all(|&id| id == ids[0]), "{ids:?}");
            }
        }
    }

    #[test]
    fn eight_threads_joining_at_once_get_their_own_results() {
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for round in 0..2000u64 {
                        let (mut lo, mut hi) = (vec![0u64; 64], vec![0u64; 64]);
                        let (a, b) = join(
                            || {
                                hi.iter_mut().for_each(|x| *x = t * round + 1);
                                t
                            },
                            || {
                                lo.iter_mut().for_each(|x| *x = t * round + 2);
                                round
                            },
                        );
                        assert_eq!((a, b), (t, round));
                        assert!(hi.iter().all(|&x| x == t * round + 1));
                        assert!(lo.iter().all(|&x| x == t * round + 2));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no joiner panicked");
        }
    }

    #[test]
    fn counts_only_grow() {
        let before = join_counts();
        join(|| (), || ());
        let after = join_counts();
        assert!(after.posted >= before.posted);
        assert!(after.claimed_back >= before.claimed_back);
        assert!(after.claimed_back <= after.posted);
    }
}
