//! An exhaustive interleaving checker for `join`'s slot protocol.
//!
//! `src/join.rs` argues its safety in `SAFETY` comments; this file checks
//! the argument. It models the protocol as a state machine — one step
//! per atomic operation of the code, under sequentially consistent
//! interleaving — and enumerates every schedule of every program in
//! [`programs`]: up to three caller threads, one or two slots (each with
//! its helper thread), up to two joins, placed one after the other, on
//! different callers, or nested in either half, with leaves that panic
//! or not — up to 186 thousand states a program. The steps:
//!
//! - a caller's post: `IDLE -> HELD` CAS slot by slot (inline when it
//!   wins none), the job written, `POSTED` stored, `sleeping` read and
//!   the helper unparked if it was set;
//! - the caller's `b`, then its claim-back CAS `POSTED -> HELD` and `a`
//!   run here, or its wait for `DONE`; then `IDLE` and the result read;
//! - a helper's loop: read the state, CAS `POSTED -> RUNNING`, read the
//!   job, run it (a nested join posts from the helper), store `DONE`; or
//!   store `sleeping`, re-read the state, park until a token, clear
//!   `sleeping`.
//!
//! Asserted in every reachable state: no leaf runs twice, no helper reads
//! or finishes a job whose join has returned, `join` never returns before
//! its `a` has settled, each join's outcome is the serial one (`b`'s
//! panic before `a`'s), and no post is slept through — a helper parked
//! without a token while its slot is `POSTED` and no poster is left to
//! unpark it. Every schedule must end with every caller done, every leaf
//! run exactly once and every slot `IDLE`; a state where a caller cannot
//! move is a deadlock. Broken variants of the protocol ([`Mutant`]) must
//! each be caught, so the checker is known to see what it looks for.

use std::collections::HashSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum St {
    Idle,
    Held,
    Posted,
    Running,
    Done,
}

/// What a thread runs: a leaf (by id) or a join (by id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Body {
    Leaf(u8),
    Join(u8),
}

/// A body's outcome: returned, or panicked with a leaf's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Outcome {
    Ok,
    Panic(u8),
}

/// `b`'s panic first, then `a`'s (`join`'s `settle`).
fn settle(ra: Outcome, rb: Outcome) -> Outcome {
    match rb {
        Outcome::Panic(_) => rb,
        Outcome::Ok => ra,
    }
}

struct Program {
    /// Each caller's top-level bodies, run in order.
    callers: Vec<Vec<Body>>,
    /// `(a, b)` per join id.
    joins: Vec<(Body, Body)>,
    /// Whether each leaf panics.
    panics: Vec<bool>,
}

impl Program {
    /// The outcome of running `body` on one thread (every join inline).
    fn serial(&self, body: Body) -> Outcome {
        match body {
            Body::Leaf(l) if self.panics[l as usize] => Outcome::Panic(l),
            Body::Leaf(_) => Outcome::Ok,
            Body::Join(j) => {
                let (a, b) = self.joins[j as usize];
                let rb = self.serial(b);
                settle(self.serial(a), rb)
            }
        }
    }
}

/// Where a join is, on the thread that called it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// About to CAS this slot `IDLE -> HELD`.
    Scan(u8),
    /// No slot won: running `b`, then `a`, here.
    InlineB,
    InlineA,
    WriteJob,
    StorePosted,
    LoadSleeping,
    Unpark,
    /// Running `b` after the post.
    RunB,
    ClaimBack,
    /// [`Mutant::ClaimBackByStore`]: read `POSTED`, about to store `HELD`.
    ClaimStore,
    /// Running the claimed-back `a`.
    RunA,
    WaitDone,
    Release,
    Collect,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Frame {
    /// About to run this body.
    Run(Body),
    /// A join in progress; `ra` is set only when it ran inline.
    Join {
        j: u8,
        pc: Pc,
        slot: u8,
        ra: Option<Outcome>,
        rb: Option<Outcome>,
    },
    /// A helper running join `j`'s `a`; `ran` once `a` has settled.
    Job { j: u8, ran: bool },
}

/// A helper's place in its loop (`serve` / `wait_for_post`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum HPc {
    Top,
    SleepStore,
    SleepLoad,
    Park,
    Wake,
    Claim,
    /// [`Mutant::HelperLoadThenStore`]: read `POSTED`, about to store `RUNNING`.
    ClaimStore,
    Read,
    Running,
    StoreDone,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Thread {
    /// `Some` for a helper (serving the slot of its index).
    helper: Option<HPc>,
    stack: Vec<Frame>,
    /// A caller's next top-level body.
    next: u8,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Slot {
    state: St,
    job: Option<u8>,
    sleeping: bool,
    /// The helper's park token.
    token: bool,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    slots: Vec<Slot>,
    /// Helpers first (one per slot), then callers.
    threads: Vec<Thread>,
    runs: Vec<u8>,
    /// Each join's `a` outcome, as `StackJob::run` writes it.
    results_a: Vec<Option<Outcome>>,
    returned: Vec<bool>,
}

/// Broken variants of the protocol, each of which the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutant {
    /// The poster reads `sleeping` before it stores `POSTED`.
    CheckSleepingBeforePost,
    /// The helper parks without re-reading the state after `sleeping`.
    ParkWithoutRecheck,
    /// The caller stores `IDLE` without waiting for `DONE` when its
    /// claim-back fails.
    SkipWaitForDone,
    /// The claim-back is a load of `POSTED` then a store of `HELD`.
    ClaimBackByStore,
    /// The helper's claim is a load of `POSTED` then a store of `RUNNING`.
    HelperLoadThenStore,
}

/// Which protocol paths the schedules of a sweep took.
#[derive(Default, Debug)]
struct Coverage {
    helper_ran_a_job: bool,
    claimed_back: bool,
    ran_inline: bool,
    unparked_a_parked_helper: bool,
    helper_posted_a_nested_join: bool,
    panic_settled_on_a_helper: bool,
}

struct Checker<'p> {
    prog: &'p Program,
    slots: usize,
    mutant: Option<Mutant>,
}

type Step = Result<(), String>;

impl Checker<'_> {
    fn initial(&self) -> State {
        let helper = Thread {
            helper: Some(HPc::Top),
            stack: Vec::new(),
            next: 0,
        };
        let caller = Thread {
            helper: None,
            stack: Vec::new(),
            next: 0,
        };
        let mut threads = vec![helper; self.slots];
        threads.extend(std::iter::repeat_n(caller, self.prog.callers.len()));
        State {
            slots: vec![
                Slot {
                    state: St::Idle,
                    job: None,
                    sleeping: false,
                    token: false,
                };
                self.slots
            ],
            threads,
            runs: vec![0; self.prog.panics.len()],
            results_a: vec![None; self.prog.joins.len()],
            returned: vec![false; self.prog.joins.len()],
        }
    }

    /// The caller index of thread `t`.
    fn caller(&self, t: usize) -> usize {
        t - self.slots
    }

    /// Thread `t`'s one step from `s`, or `None` when it cannot move.
    fn step(&self, s: &State, t: usize, cov: &mut Coverage) -> Option<Result<State, String>> {
        let mut n = s.clone();
        let th = &s.threads[t];
        let moved = match (th.helper, th.stack.is_empty()) {
            (Some(HPc::Running), _) | (None, false) => self.frame_step(&mut n, t, cov),
            (Some(pc), _) => self.helper_step(&mut n, t, pc, cov),
            (None, true) => {
                let bodies = &self.prog.callers[self.caller(t)];
                let body = *bodies.get(th.next as usize)?;
                let th = &mut n.threads[t];
                th.stack.push(Frame::Run(body));
                th.next += 1;
                Ok(true)
            }
        };
        match moved {
            Ok(true) => Some(self.slept_through(&n).map(|()| n)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }

    fn helper_step(
        &self,
        n: &mut State,
        t: usize,
        pc: HPc,
        cov: &mut Coverage,
    ) -> Result<bool, String> {
        let slot = &mut n.slots[t];
        let next = match pc {
            HPc::Top if slot.state == St::Posted => HPc::Claim,
            HPc::Top => HPc::SleepStore,
            HPc::SleepStore => {
                slot.sleeping = true;
                match self.mutant {
                    Some(Mutant::ParkWithoutRecheck) => HPc::Park,
                    _ => HPc::SleepLoad,
                }
            }
            HPc::SleepLoad if slot.state == St::Posted => HPc::Wake,
            HPc::SleepLoad => HPc::Park,
            HPc::Park if !slot.token => return Ok(false),
            HPc::Park => {
                slot.token = false;
                HPc::Wake
            }
            HPc::Wake => {
                slot.sleeping = false;
                HPc::Top
            }
            HPc::Claim => match (slot.state, self.mutant) {
                (St::Posted, Some(Mutant::HelperLoadThenStore)) => HPc::ClaimStore,
                (St::Posted, _) => {
                    slot.state = St::Running;
                    HPc::Read
                }
                _ => HPc::Top,
            },
            HPc::ClaimStore => {
                slot.state = St::Running;
                HPc::Read
            }
            HPc::Read => {
                let j = slot.job.ok_or("helper read an empty slot")?;
                if n.returned[j as usize] {
                    return Err(format!("helper {t} read join {j}'s job after it returned"));
                }
                let a = self.prog.joins[j as usize].0;
                let stack = &mut n.threads[t].stack;
                stack.push(Frame::Job { j, ran: false });
                stack.push(Frame::Run(a));
                cov.helper_ran_a_job = true;
                HPc::Running
            }
            HPc::StoreDone => {
                slot.state = St::Done;
                HPc::Top
            }
            HPc::Running => unreachable!("a running helper steps its frames"),
        };
        n.threads[t].helper = Some(next);
        Ok(true)
    }

    /// The step of the frame on top of thread `t`'s stack.
    fn frame_step(&self, n: &mut State, t: usize, cov: &mut Coverage) -> Result<bool, String> {
        let top = *n.threads[t].stack.last().expect("a frame to step");
        match top {
            Frame::Run(Body::Leaf(l)) => {
                n.runs[l as usize] += 1;
                if n.runs[l as usize] > 1 {
                    return Err(format!("leaf {l} ran twice"));
                }
                n.threads[t].stack.pop();
                let out = match self.prog.panics[l as usize] {
                    true => Outcome::Panic(l),
                    false => Outcome::Ok,
                };
                self.deliver(n, t, out, cov)?;
            }
            Frame::Run(Body::Join(j)) => {
                *n.threads[t].stack.last_mut().unwrap() = Frame::Join {
                    j,
                    pc: Pc::Scan(0),
                    slot: 0,
                    ra: None,
                    rb: None,
                };
            }
            Frame::Job { ran: true, .. } => {
                n.threads[t].stack.pop();
                n.threads[t].helper = Some(HPc::StoreDone);
            }
            Frame::Job { ran: false, .. } => unreachable!("a job's `a` is above it"),
            Frame::Join {
                j,
                pc,
                slot,
                ra,
                rb,
            } => {
                return self.join_step(n, t, j, pc, slot as usize, ra, rb, cov);
            }
        }
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn join_step(
        &self,
        n: &mut State,
        t: usize,
        j: u8,
        pc: Pc,
        slot: usize,
        ra: Option<Outcome>,
        rb: Option<Outcome>,
        cov: &mut Coverage,
    ) -> Result<bool, String> {
        let (a, b) = self.prog.joins[j as usize];
        let check_first = self.mutant == Some(Mutant::CheckSleepingBeforePost);
        let (next, push) = match pc {
            Pc::Scan(i) if i as usize == self.slots => {
                cov.ran_inline = true;
                (Pc::InlineB, Some(b))
            }
            Pc::Scan(i) => {
                let s = &mut n.slots[i as usize];
                if s.state == St::Idle {
                    s.state = St::Held;
                    self.set_slot(n, t, i);
                    (Pc::WriteJob, None)
                } else {
                    (Pc::Scan(i + 1), None)
                }
            }
            Pc::WriteJob => {
                n.slots[slot].job = Some(j);
                if n.threads[t].helper.is_some() {
                    cov.helper_posted_a_nested_join = true;
                }
                (
                    if check_first {
                        Pc::LoadSleeping
                    } else {
                        Pc::StorePosted
                    },
                    None,
                )
            }
            Pc::StorePosted => {
                n.slots[slot].state = St::Posted;
                if check_first {
                    (Pc::RunB, Some(b))
                } else {
                    (Pc::LoadSleeping, None)
                }
            }
            Pc::LoadSleeping if n.slots[slot].sleeping => (Pc::Unpark, None),
            Pc::LoadSleeping | Pc::Unpark => {
                if pc == Pc::Unpark {
                    if n.threads[slot].helper == Some(HPc::Park) && !n.slots[slot].token {
                        cov.unparked_a_parked_helper = true;
                    }
                    n.slots[slot].token = true;
                }
                if check_first {
                    (Pc::StorePosted, None)
                } else {
                    (Pc::RunB, Some(b))
                }
            }
            Pc::ClaimBack => match (n.slots[slot].state, self.mutant) {
                (St::Posted, Some(Mutant::ClaimBackByStore)) => (Pc::ClaimStore, None),
                (St::Posted, _) => {
                    n.slots[slot].state = St::Held;
                    cov.claimed_back = true;
                    (Pc::RunA, Some(a))
                }
                (_, Some(Mutant::SkipWaitForDone)) => (Pc::Release, None),
                _ => (Pc::WaitDone, None),
            },
            Pc::ClaimStore => {
                n.slots[slot].state = St::Held;
                (Pc::RunA, Some(a))
            }
            Pc::WaitDone if n.slots[slot].state != St::Done => return Ok(false),
            Pc::WaitDone => (Pc::Release, None),
            Pc::Release => {
                n.slots[slot].state = St::Idle;
                (Pc::Collect, None)
            }
            Pc::Collect => {
                let ra = ra
                    .or(n.results_a[j as usize])
                    .ok_or_else(|| format!("join {j} returned before its `a` settled"))?;
                let rb = rb.expect("`b` ran before the join returned");
                n.returned[j as usize] = true;
                n.threads[t].stack.pop();
                self.deliver(n, t, settle(ra, rb), cov)?;
                return Ok(true);
            }
            Pc::InlineB | Pc::InlineA | Pc::RunB | Pc::RunA => {
                unreachable!("a join waiting on a half has that half above it")
            }
        };
        self.set_pc(n, t, next);
        if let Some(body) = push {
            n.threads[t].stack.push(Frame::Run(body));
        }
        Ok(true)
    }

    fn set_pc(&self, n: &mut State, t: usize, next: Pc) {
        if let Some(Frame::Join { pc, .. }) = n.threads[t].stack.last_mut() {
            *pc = next;
        }
    }

    fn set_slot(&self, n: &mut State, t: usize, i: u8) {
        if let Some(Frame::Join { slot, .. }) = n.threads[t].stack.last_mut() {
            *slot = i;
        }
    }

    /// Hands a finished body's outcome to the frame below it.
    fn deliver(&self, n: &mut State, t: usize, out: Outcome, cov: &mut Coverage) -> Step {
        let Some(top) = n.threads[t].stack.last_mut() else {
            // A caller's top-level body.
            let c = self.caller(t);
            let body = self.prog.callers[c][n.threads[t].next as usize - 1];
            let want = self.prog.serial(body);
            return match out == want {
                true => Ok(()),
                false => Err(format!("caller {c} got {out:?}, serially {want:?}")),
            };
        };
        match top {
            Frame::Job { j, ran } => {
                if n.returned[*j as usize] {
                    return Err(format!("join {j}'s job settled after the join returned"));
                }
                if matches!(out, Outcome::Panic(_)) {
                    cov.panic_settled_on_a_helper = true;
                }
                n.results_a[*j as usize] = Some(out);
                *ran = true;
            }
            Frame::Join { j, pc, ra, rb, .. } => {
                let (a, _) = self.prog.joins[*j as usize];
                match *pc {
                    Pc::InlineB => {
                        *rb = Some(out);
                        *pc = Pc::InlineA;
                        n.threads[t].stack.push(Frame::Run(a));
                        return Ok(());
                    }
                    Pc::InlineA => {
                        *ra = Some(out);
                        *pc = Pc::Collect;
                    }
                    Pc::RunB => {
                        *rb = Some(out);
                        *pc = Pc::ClaimBack;
                    }
                    Pc::RunA => {
                        let j = *j as usize;
                        *pc = Pc::Release;
                        n.results_a[j] = Some(out);
                    }
                    other => unreachable!("a half finished under a join at {other:?}"),
                }
            }
            Frame::Run(_) => unreachable!("a body finished above an unstarted one"),
        }
        Ok(())
    }

    /// A helper parked without a token while its slot is `POSTED`, with
    /// no poster left to unpark it.
    fn slept_through(&self, n: &State) -> Step {
        for h in 0..self.slots {
            let slot = &n.slots[h];
            if n.threads[h].helper != Some(HPc::Park) || slot.token || slot.state != St::Posted {
                continue;
            }
            let unpark_pending = n.threads.iter().any(|th| {
                matches!(
                    th.stack.last(),
                    Some(Frame::Join { pc: Pc::LoadSleeping | Pc::Unpark, slot, .. }) if *slot as usize == h
                )
            });
            if !unpark_pending {
                return Err(format!("helper {h} sleeps through a post"));
            }
        }
        Ok(())
    }

    /// Every reachable state, depth first; the count of states, or the
    /// first violation.
    fn explore(&self, cov: &mut Coverage) -> Result<usize, String> {
        let start = self.initial();
        let mut seen = HashSet::from([start.clone()]);
        let mut todo = vec![start];
        while let Some(s) = todo.pop() {
            let mut moved = false;
            for t in 0..s.threads.len() {
                let Some(next) = self.step(&s, t, cov) else {
                    continue;
                };
                moved = true;
                let next = next?;
                if seen.insert(next.clone()) {
                    todo.push(next);
                }
            }
            if !moved {
                self.check_final(&s)?;
            }
        }
        Ok(seen.len())
    }

    /// A state no thread can leave: every caller done, every leaf run
    /// once, every slot idle.
    fn check_final(&self, s: &State) -> Step {
        for (c, bodies) in self.prog.callers.iter().enumerate() {
            let th = &s.threads[self.slots + c];
            if !th.stack.is_empty() || th.next as usize != bodies.len() {
                return Err(format!(
                    "deadlock: caller {c} stuck at {:?}",
                    th.stack.last()
                ));
            }
        }
        if let Some(l) = s.runs.iter().position(|&r| r != 1) {
            return Err(format!("leaf {l} ran {} times", s.runs[l]));
        }
        match s.slots.iter().all(|slot| slot.state == St::Idle) {
            true => Ok(()),
            false => Err("a slot is left held".into()),
        }
    }
}

/// A program without its panics: a name, each caller's bodies, the joins
/// and the number of leaves.
type Shape = (&'static str, Vec<Vec<Body>>, Vec<(Body, Body)>, usize);

/// The programs every schedule of which is checked, by name.
fn programs() -> Vec<(String, Program)> {
    use Body::{Join as J, Leaf as L};
    let leaf_pairs = vec![(L(0), L(1)), (L(2), L(3))];
    let shapes: Vec<Shape> = vec![
        ("one join", vec![vec![J(0)]], vec![(L(0), L(1))], 2),
        (
            "two joins in a row",
            vec![vec![J(0), J(1)]],
            leaf_pairs.clone(),
            4,
        ),
        (
            "a join nested in b",
            vec![vec![J(0)]],
            vec![(L(0), J(1)), (L(1), L(2))],
            3,
        ),
        (
            "a join nested in a",
            vec![vec![J(0)]],
            vec![(J(1), L(0)), (L(1), L(2))],
            3,
        ),
        (
            "two callers, a join each",
            vec![vec![J(0)], vec![J(1)]],
            leaf_pairs.clone(),
            4,
        ),
        (
            "three callers, two joins and a leaf",
            vec![vec![J(0)], vec![J(1)], vec![L(4)]],
            leaf_pairs,
            5,
        ),
    ];
    let mut out = Vec::new();
    for (name, callers, joins, leaves) in shapes {
        // Every leaf returning, every leaf panicking, and (one join) each
        // half alone panicking. A panic changes outcomes, not steps, and
        // the third caller's lone leaf touches no slot, so the largest
        // shape is checked without panics.
        let mut masks = vec![vec![false; leaves]];
        if callers.len() < 3 {
            masks.push(vec![true; leaves]);
        }
        if joins.len() == 1 {
            masks.extend([vec![true, false], vec![false, true]]);
        }
        for panics in masks {
            let tag: String = panics.iter().map(|&p| if p { 'P' } else { '.' }).collect();
            let (callers, joins) = (callers.clone(), joins.clone());
            let program = Program {
                callers,
                joins,
                panics,
            };
            out.push((format!("{name} [{tag}]"), program));
        }
    }
    out
}

#[test]
fn every_schedule_keeps_the_slot_protocol_invariants() {
    let mut cov = Coverage::default();
    for (name, prog) in programs() {
        for slots in 1..=2 {
            let checker = Checker {
                prog: &prog,
                slots,
                mutant: None,
            };
            let states = checker
                .explore(&mut cov)
                .unwrap_or_else(|e| panic!("{name}, {slots} slot(s): {e}"));
            assert!(states > 10, "{name}, {slots} slot(s): only {states} states");
        }
    }
    assert!(
        cov.helper_ran_a_job
            && cov.claimed_back
            && cov.ran_inline
            && cov.unparked_a_parked_helper
            && cov.helper_posted_a_nested_join
            && cov.panic_settled_on_a_helper,
        "a protocol path was never taken: {cov:?}"
    );
}

#[test]
fn the_checker_catches_each_broken_protocol() {
    let programs = programs();
    for (mutant, want) in [
        (
            Mutant::CheckSleepingBeforePost,
            &["sleeps through a post"][..],
        ),
        (Mutant::ParkWithoutRecheck, &["sleeps through a post"]),
        (
            Mutant::SkipWaitForDone,
            &["returned before its `a` settled"],
        ),
        (
            Mutant::ClaimBackByStore,
            &["ran twice", "after it returned"],
        ),
        (
            Mutant::HelperLoadThenStore,
            &["ran twice", "after it returned"],
        ),
    ] {
        let caught = programs.iter().find_map(|(_, prog)| {
            (1..=2).find_map(|slots| {
                let checker = Checker {
                    prog,
                    slots,
                    mutant: Some(mutant),
                };
                checker.explore(&mut Coverage::default()).err()
            })
        });
        let e = caught.unwrap_or_else(|| panic!("{mutant:?} passed every schedule"));
        assert!(want.iter().any(|w| e.contains(w)), "{mutant:?}: {e}");
    }
}
