//! The single-step loop is the specification of
//! [`Scheduler::advance_until`].
//!
//! `advance_until(state, cache, t, sink)` promises to be exactly
//! `while state.has_work() && state.now() < t { step_traced }`. Its fast
//! form runs quiet iterations as one walk over the step table, takes the
//! admission sweeps that fall inside a run without leaving it, and closes
//! some of them from a cached verdict — every one of which is a way to
//! drift from the loop of single steps by a bit, a tick or a DRR visit.
//! This suite drives two engines through the same script — pushes (fresh,
//! `Restored`, `Preloaded`), cut points, straggler-scale changes, crash
//! dumps — one through `advance_until`, one through the loop, and after
//! every operation compares the whole state (`Debug` text: clock bits,
//! `iter`, queues, deficits, service ledgers, completions, rejections,
//! handoffs) and the recorded event stream.
//!
//! Mutation-checked — each of these makes the suite fail: setting the
//! verdict while a running request has produced nothing; skipping
//! `batch_changed` at an admission or at a completion; sweeping before
//! the `now < t` test; and caching "a victim exists but evicting it
//! would not unblock". The last one fails through the run's debug
//! assertion (a verdict implies `pick_victim == None`), not through a
//! diverging state: today's admission arithmetic reads only the batch
//! size and the longest final length, which happens to make that outcome
//! independent of the victim `served` selects, and the verdict must not
//! bake that in. Two rules are there so the verdict's meaning has no
//! exceptions and cannot be told apart from their absence by any script:
//! the preemption's and the crash's `batch_changed` (an admission's
//! follows before any verdict is read), and the verdict being keyed by
//! its head (a head only leaves a queue into the batch, or out of an
//! engine whose batch is empty).
//!
//! The sweeps a run counts instead of running (`drive_closed` steers
//! into that state on purpose: FIFO and DRR, 2–4 verdicted tenants with
//! deficits at and over their heads' cost, heads arriving inside a
//! counted stretch, one arrived head without a verdict) are
//! mutation-checked too — each of these fails the suite: rotating DRR
//! by the count of counted sweeps instead of the count modulo the
//! arrived tenants; counting sweeps past the next head's arrival;
//! rotating under FIFO; entering the count with one arrived head
//! unverdicted; and judging the verdicts by the heads arrived at an
//! earlier sweep of the run rather than at the one just closed.
//!
//! No dispatched kernel is involved: the suite runs the same at every
//! `SPEC_SIMD` tier.

use proptest::prelude::*;
use spec_hwsim::DeviceSpec;
use spec_model::ModelConfig;
use spec_runtime::{
    Admission, BatchState, FairConfig, PreemptionPolicy, QueueDiscipline, ReplicaRole, Request,
    RestorableRequest, Scheduler, SchedulerConfig, ServingSim, StepCache, SystemKind,
};
use spec_telemetry::RecordingSink;
use spec_tensor::SimRng;

const BUDGET: usize = 2048;

/// Tenant ids in order of first appearance: the later ones are smaller,
/// so a tenant that shows up mid-run is inserted in front of the slots
/// the running batch already indexes.
const TENANTS: [u32; 4] = [7, 3, 9, 1];

fn sim() -> ServingSim {
    ServingSim::new(
        ModelConfig::deepseek_distill_llama_8b(),
        DeviceSpec::a100_80g(),
        BUDGET,
    )
}

/// The longest final length a batch of `batch` SpeContext requests is
/// admissible at (full offload still fits) — the edge the "evicting the
/// victim would not unblock" outcome lives on.
fn longest_fit(sim: &ServingSim, batch: usize) -> usize {
    let mm = sim.memory_model();
    let fits = |s: usize| mm.m_part(batch, s, mm.layers, BUDGET) <= mm.gpu_mem as f64;
    let (mut lo, mut hi) = (0, 1 << 26);
    assert!(fits(lo) && !fits(hi));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[derive(Debug, Clone, Copy)]
struct Case {
    discipline: QueueDiscipline,
    preemption: PreemptionPolicy,
    stride: usize,
    max_batch: usize,
    role: ReplicaRole,
    tenants: usize,
    /// Whether some requests are too long to share the device: they
    /// block on memory, not on the batch cap.
    hogs: bool,
}

impl Case {
    fn scheduler(&self) -> Scheduler {
        let cfg = SchedulerConfig {
            max_batch: self.max_batch,
            admission_stride: self.stride,
            fair: FairConfig {
                discipline: self.discipline,
                weights: vec![(7, 4), (3, 1), (9, 2)],
                quantum_tokens: 64,
                preemption: self.preemption,
                max_preemptions: 2,
            },
        };
        Scheduler::new(sim(), SystemKind::SpeContext, cfg)
    }
}

/// One engine under test: state, its own step table, its own recording.
struct Engine {
    state: BatchState,
    cache: StepCache,
    sink: RecordingSink,
}

impl Engine {
    fn new(role: ReplicaRole) -> Self {
        let mut state = BatchState::new();
        state.set_role(role);
        Self {
            state,
            cache: StepCache::new(),
            sink: RecordingSink::new(),
        }
    }
}

/// The engine driven by `advance_until` beside the one driven by the
/// loop of single steps it is specified as.
struct Pair {
    scheduler: Scheduler,
    fast: Engine,
    spec: Engine,
}

impl Pair {
    fn new(case: &Case) -> Self {
        Self {
            scheduler: case.scheduler(),
            fast: Engine::new(case.role),
            spec: Engine::new(case.role),
        }
    }

    fn advance(&mut self, t: f64) {
        let (s, f, p) = (&self.scheduler, &mut self.fast, &mut self.spec);
        s.advance_until(&mut f.state, &mut f.cache, t, &mut f.sink);
        while p.state.has_work() && p.state.now() < t {
            s.step_traced(&mut p.state, &mut p.cache, &mut p.sink);
        }
    }

    fn each(&mut self, mut f: impl FnMut(&mut Engine)) {
        f(&mut self.fast);
        f(&mut self.spec);
    }

    fn push(&mut self, admission: Admission) {
        self.each(|e| e.state.push_traced(admission, &mut e.sink));
    }

    /// The two engines must be indistinguishable.
    fn assert_same(&self, context: &str) {
        let (f, p) = (&self.fast, &self.spec);
        assert_eq!(
            f.state.now().to_bits(),
            p.state.now().to_bits(),
            "clock after {context}: {} vs {}",
            f.state.now(),
            p.state.now()
        );
        assert_eq!(
            f.state.completed(),
            p.state.completed(),
            "completions after {context}"
        );
        assert_eq!(
            f.state.rejected_requests(),
            p.state.rejected_requests(),
            "rejections after {context}"
        );
        assert_eq!(
            format!("{:?}", f.state),
            format!("{:?}", p.state),
            "state after {context}"
        );
        if f.sink.events() != p.sink.events() {
            let at = f
                .sink
                .events()
                .iter()
                .zip(p.sink.events())
                .position(|(a, b)| a != b)
                .unwrap_or(f.sink.len().min(p.sink.len()));
            panic!(
                "event streams part at #{at} after {context}: {:?} vs {:?} ({} vs {} events)",
                f.sink.events().get(at),
                p.sink.events().get(at),
                f.sink.len(),
                p.sink.len()
            );
        }
    }
}

/// Runs one seeded script against `case` and holds the pair together
/// after every operation. Returns how many requests reached a terminal
/// state, so callers can tell the script did something.
fn drive(case: &Case, seed: u64, ops: usize) -> usize {
    let mut pair = Pair::new(case);
    let mut rng = SimRng::seed(seed);
    let hog_len = longest_fit(pair.scheduler.sim(), 2) + 4096;
    let mut next_id = 0usize;
    let mut pushed = 0usize;
    let mut last_arrival = 0.0f64;
    let mut t = 0.0f64;
    for op in 0..ops {
        // Tenants join one by one: the i-th after 3·i pushes.
        let known = case.tenants.min(1 + pushed / 3);
        let tenant = TENANTS[rng.below(known)];
        // Arrivals never go backwards; some land in the engine's future.
        let arrival = if rng.chance(0.3) {
            last_arrival.max(t + rng.uniform() as f64 * 0.5)
        } else {
            last_arrival.max(t)
        };
        // Long generations on the odd tenants, short ones on the rest,
        // so eviction has someone worth evicting and someone to evict
        // for.
        let long = tenant % 4 == 3;
        let output_len = if long {
            120 + rng.below(200)
        } else {
            1 + rng.below(40)
        };
        let input_len = if case.hogs && rng.chance(0.2) {
            hog_len - output_len
        } else {
            64 + rng.below(3000)
        };
        let request = Request::new(next_id, tenant, input_len, output_len, arrival);
        let context = format!("op {op} of seed {seed} in {case:?}");
        match rng.below(12) {
            0..=4 => {
                next_id += 1;
                pushed += 1;
                last_arrival = arrival;
                let produced = 1 + rng.below(output_len);
                let history = RestorableRequest {
                    request: Request {
                        arrival: arrival * 0.5,
                        ..request
                    },
                    produced: produced.min(output_len.saturating_sub(1)).max(1),
                    start: Some(arrival * 0.5),
                    first_token: Some(arrival * 0.75),
                    preemptions: rng.below(3),
                };
                let admission = match (rng.below(4), case.role) {
                    (0, ReplicaRole::Decode) if output_len > 1 => Admission::Preloaded {
                        handoff: history,
                        at: arrival,
                    },
                    (0, _) if output_len > 1 => Admission::Restored {
                        checkpoint: history,
                        at: arrival,
                    },
                    _ => Admission::Fresh(request),
                };
                pair.push(admission);
            }
            5 => {
                let scale = [1.0, 1.5, 3.0, 1.0][rng.below(4)];
                pair.each(|e| e.state.set_time_scale(scale));
            }
            6 if rng.chance(0.3) => {
                // A crash tears everything out; what survived comes back
                // the way the cluster brings it back.
                let work = pair.fast.state.crash_dump();
                let twin = pair.spec.state.crash_dump();
                assert_eq!(format!("{work:?}"), format!("{twin:?}"), "{context}");
                let at = last_arrival.max(pair.fast.state.now());
                last_arrival = at;
                for checkpoint in work.checkpointed {
                    pair.push(Admission::Restored { checkpoint, at });
                }
                for lost in work.lost {
                    pair.push(Admission::Fresh(Request {
                        arrival: at,
                        ..lost
                    }));
                }
            }
            7 if case.role == ReplicaRole::Prefill => {
                let taken = pair.fast.state.take_handoffs();
                let twin = pair.spec.state.take_handoffs();
                assert_eq!(format!("{taken:?}"), format!("{twin:?}"), "{context}");
            }
            _ => {
                // A cut: sometimes a hair's breadth (lands inside a
                // run), sometimes long enough to drain.
                t += match rng.below(4) {
                    0 => 0.002 * rng.uniform() as f64,
                    1 => 0.05 * rng.uniform() as f64,
                    2 => 0.5 * rng.uniform() as f64,
                    _ => 4.0 * rng.uniform() as f64,
                };
                pair.advance(t);
            }
        }
        pair.assert_same(&context);
    }
    pair.advance(f64::INFINITY);
    pair.assert_same(&format!("the drain of seed {seed} in {case:?}"));
    assert!(!pair.fast.state.has_work());
    pair.fast.state.completed().len() + pair.fast.state.rejected()
}

const DISCIPLINES: [QueueDiscipline; 2] =
    [QueueDiscipline::Fifo, QueueDiscipline::DeficitRoundRobin];
const PREEMPTIONS: [PreemptionPolicy; 3] = [
    PreemptionPolicy::None,
    PreemptionPolicy::LongestFirst,
    PreemptionPolicy::DeficitRoundRobin,
];
const STRIDES: [usize; 4] = [1, 2, 4, 7];
const ROLES: [ReplicaRole; 3] = [
    ReplicaRole::Unified,
    ReplicaRole::Prefill,
    ReplicaRole::Decode,
];

/// Every discipline × preemption policy × stride × role, at three
/// (batch cap, tenant count, memory pressure) corners.
#[test]
fn advance_until_is_the_single_step_loop_on_a_fixed_grid() {
    let mut terminal = 0;
    let mut seed = 0;
    for discipline in DISCIPLINES {
        for preemption in PREEMPTIONS {
            for stride in STRIDES {
                for role in ROLES {
                    for (max_batch, tenants, hogs) in [(1, 1, false), (2, 2, true), (4, 4, false)] {
                        let case = Case {
                            discipline,
                            preemption,
                            stride,
                            max_batch,
                            role,
                            tenants,
                            hogs,
                        };
                        seed += 1;
                        terminal += drive(&case, seed, 60);
                    }
                }
            }
        }
    }
    assert!(terminal > 2000, "the grid barely ran: {terminal} requests");
}

/// The outcomes the verdict's rules are about, each reached on purpose:
/// a waiter that finds no victim because the batch has not produced a
/// token yet (and preempts once it has), and a waiter too long for any
/// eviction to unblock while a perfectly eligible victim is running.
#[test]
fn the_verdict_is_only_ever_no_eligible_victim() {
    let base = Case {
        discipline: QueueDiscipline::DeficitRoundRobin,
        preemption: PreemptionPolicy::LongestFirst,
        stride: 1,
        max_batch: 2,
        role: ReplicaRole::Unified,
        tenants: 2,
        hogs: false,
    };
    for (stride, preemption) in [
        (1, PreemptionPolicy::LongestFirst),
        (4, PreemptionPolicy::LongestFirst),
        (1, PreemptionPolicy::DeficitRoundRobin),
        (2, PreemptionPolicy::DeficitRoundRobin),
    ] {
        let case = Case {
            stride,
            preemption,
            ..base
        };

        // (1) Two long generations fill the batch at t = 0 (FIFO, so
        // they go first); the short waiter's first sweep sees
        // `produced == 0` everywhere — no victim *yet*. One iteration
        // later there is one.
        let mut pair = Pair::new(&Case {
            discipline: QueueDiscipline::Fifo,
            ..case
        });
        pair.push(Admission::Fresh(Request::new(0, 3, 512, 400, 0.0)));
        pair.push(Admission::Fresh(Request::new(1, 3, 512, 300, 0.0)));
        pair.push(Admission::Fresh(Request::new(2, 7, 256, 8, 0.0)));
        for cut in 1..=40 {
            pair.advance(cut as f64 * 0.05);
            pair.assert_same(&format!("cut {cut} of the first-token scenario, {case:?}"));
        }
        pair.advance(f64::INFINITY);
        pair.assert_same("the first-token scenario's drain");
        let preempted: usize = pair
            .fast
            .state
            .completed()
            .iter()
            .map(|c| c.preemptions)
            .sum();
        assert!(preempted > 0, "the waiter never preempted under {case:?}");

        // (2) Two long generations run; the waiter of the other tenant
        // is too long to share the device with anyone, so evicting the
        // victim the policy offers would not unblock it — until the
        // batch drains to one, where eviction does.
        let hog = longest_fit(&sim(), 2) + 4096;
        let mut pair = Pair::new(&case);
        pair.push(Admission::Fresh(Request::new(0, 3, 512, 260, 0.0)));
        pair.push(Admission::Fresh(Request::new(1, 3, 512, 180, 0.0)));
        pair.advance(0.5);
        pair.assert_same("the hog scenario's warm-up");
        let now = pair.fast.state.now();
        pair.push(Admission::Fresh(Request::new(2, 7, hog - 16, 16, now)));
        for cut in 1..=60 {
            pair.advance(now + cut as f64 * 0.1);
            pair.assert_same(&format!("cut {cut} of the hog scenario, {case:?}"));
        }
        pair.advance(f64::INFINITY);
        pair.assert_same("the hog scenario's drain");
        assert_eq!(pair.fast.state.completed().len(), 3);
    }
}

/// Scripts that live where the fast form counts sweeps instead of
/// running them: a full batch of long generations no waiter may preempt,
/// so every head a sweep places carries its "no eligible victim" verdict,
/// and waiters of `waiting` tenants (2–4) whose deficits the rotation
/// raises to exactly their heads' cost (tenant 3: one quantum, cost 64)
/// or past it. Then heads arrive inside a counted stretch: a new tenant's
/// head in the engine's future, without a verdict, whose first visit
/// grants it its cost — so for a while exactly one arrived head lacks a
/// verdict while the sweeps still close — and a second request behind a
/// waiting head, which changes no head.
fn drive_closed(discipline: QueueDiscipline, stride: usize, waiting: usize) {
    let case = Case {
        discipline,
        preemption: PreemptionPolicy::None,
        stride,
        max_batch: 2,
        role: ReplicaRole::Unified,
        tenants: waiting,
        hogs: false,
    };
    let context = |what: &str| format!("{what}, {waiting} waiting tenants, {case:?}");
    let mut pair = Pair::new(&case);
    pair.push(Admission::Fresh(Request::new(0, 7, 512, 900, 0.0)));
    pair.push(Admission::Fresh(Request::new(1, 7, 600, 700, 0.0)));
    pair.advance(0.01);
    pair.assert_same(&context("the batch's admission"));
    let now = pair.fast.state.now();
    let waiters = [(3, 64), (9, 20), (1, 30), (5, 64)];
    for (i, &(tenant, output_len)) in waiters[..waiting].iter().enumerate() {
        pair.push(Admission::Fresh(Request::new(
            10 + i,
            tenant,
            256,
            output_len,
            now,
        )));
    }
    for cut in 1..=12 {
        pair.advance(now + cut as f64 * 0.15);
        pair.assert_same(&context(&format!("cut {cut} among verdicted waiters")));
    }
    let now = pair.fast.state.now();
    pair.push(Admission::Fresh(Request::new(20, 11, 256, 40, now + 0.3)));
    pair.push(Admission::Fresh(Request::new(21, 3, 256, 10, now + 0.7)));
    for cut in 1..=12 {
        pair.advance(now + cut as f64 * 0.25);
        pair.assert_same(&context(&format!(
            "cut {cut} after arrivals in a counted stretch"
        )));
    }
    pair.advance(f64::INFINITY);
    pair.assert_same(&context("the drain"));
    assert_eq!(pair.fast.state.completed().len(), waiting + 4);
}

/// The sweeps a quiet run counts instead of running, under both
/// disciplines, at strides that put a sweep on every iteration and
/// between them.
#[test]
fn counted_sweeps_are_the_sweeps_they_stand_for() {
    for discipline in DISCIPLINES {
        for stride in [1, 2, 3, 4] {
            for waiting in 2..=4 {
                drive_closed(discipline, stride, waiting);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random scripts over the whole configuration space.
    #[test]
    fn advance_until_is_the_single_step_loop(
        seed in 0u64..1_000_000,
        discipline in 0usize..2,
        preemption in 0usize..3,
        stride in 0usize..4,
        max_batch in 1usize..9,
        role in 0usize..5,
        tenants in 1usize..5,
        hogs in any::<bool>(),
    ) {
        let case = Case {
            discipline: DISCIPLINES[discipline],
            preemption: PREEMPTIONS[preemption],
            stride: STRIDES[stride],
            max_batch,
            // Unified three times in five: it is where the runs are.
            role: ROLES[role.saturating_sub(2)],
            tenants,
            hogs,
        };
        drive(&case, seed, 80);
    }
}
