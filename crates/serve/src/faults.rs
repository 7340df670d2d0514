//! Deterministic, seeded fault injection and graceful degradation.
//!
//! A [`FaultPlan`] describes everything that can go wrong during a
//! cluster run — replica crashes and restarts (memoryless MTBF/MTTR
//! processes or scripted events), transient straggler windows (a
//! per-replica multiplier on device-priced step costs), and KV
//! checkpoint-migration failures — plus the recovery knobs: a capped
//! exponential-backoff [`RetryPolicy`] with seeded jitter and a retry
//! budget, an optional tenant-weighted [`ShedPolicy`] for overload
//! shedding, a probation window for restarted replicas, and whether
//! routing is health-aware. The [`FaultInjector`] materializes the plan
//! into a deterministic event timeline on the simulated clock: every
//! random quantity is drawn from [`SimRng`] streams forked from the
//! plan seed per replica, so identical plans produce byte-identical
//! timelines.
//!
//! The empty plan ([`FaultPlan::none`]) schedules nothing, retries
//! nothing and sheds nothing — it is what `Cluster::run` hands the
//! event kernel.

use serde::{Deserialize, Serialize};
use spec_tensor::SimRng;

/// One scripted crash: `replica` goes down at `at_s` for `down_for_s`
/// seconds, then restarts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Fleet index of the replica that crashes.
    pub replica: usize,
    /// Crash instant, seconds on the simulated clock.
    pub at_s: f64,
    /// Outage duration, seconds.
    pub down_for_s: f64,
}

/// One scripted straggler window: `replica`'s device-priced costs are
/// multiplied by `slowdown` between `at_s` and `at_s + duration_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerWindow {
    /// Fleet index of the straggling replica.
    pub replica: usize,
    /// Window start, seconds.
    pub at_s: f64,
    /// Window length, seconds.
    pub duration_s: f64,
    /// Cost multiplier (> 1 slows the replica down).
    pub slowdown: f64,
}

/// How crashes are generated.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum CrashModel {
    /// Nothing ever crashes.
    #[default]
    None,
    /// Each replica fails independently with exponentially distributed
    /// time-between-failures (mean `mtbf_s`) and outage length (mean
    /// `mttr_s`), both drawn from a per-replica stream forked off the
    /// plan seed.
    Mtbf {
        /// Mean time between failures, seconds.
        mtbf_s: f64,
        /// Mean time to repair, seconds.
        mttr_s: f64,
    },
    /// Exactly these crashes, in any order.
    Scripted(Vec<CrashEvent>),
}

/// How straggler windows are generated.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum StragglerModel {
    /// Nobody straggles.
    #[default]
    None,
    /// Exactly these windows, in any order.
    Scripted(Vec<StragglerWindow>),
    /// Each replica independently enters `slowdown`× windows of length
    /// `duration_s` with exponentially distributed gaps (mean `mtbs_s`).
    Random {
        /// Mean time between straggler windows, seconds.
        mtbs_s: f64,
        /// Window length, seconds.
        duration_s: f64,
        /// Cost multiplier while straggling.
        slowdown: f64,
    },
}

/// Capped exponential backoff with seeded jitter and a retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Crash-driven re-entries a request may consume (retries *and*
    /// checkpoint migrations both count, so a request bouncing between
    /// crashing replicas always terminates). Exhausted → dead-lettered.
    pub max_attempts: u32,
    /// First retry's backoff, seconds.
    pub base_backoff_s: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff_s: f64,
    /// Multiplicative jitter: the backoff is scaled by a seeded uniform
    /// draw in `[1, 1 + jitter_frac)`.
    pub jitter_frac: f32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_s: 0.5,
            max_backoff_s: 8.0,
            jitter_frac: 0.2,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based): capped
    /// exponential plus seeded jitter.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> f64 {
        let doubling = attempt.saturating_sub(1).min(30);
        let raw = self.base_backoff_s * f64::from(1u32 << doubling);
        let capped = raw.min(self.max_backoff_s).max(0.0);
        capped * (1.0 + f64::from(self.jitter_frac) * f64::from(rng.uniform()))
    }
}

/// Tenant-weighted overload shedding: a fresh arrival is dropped when
/// the fleet's outstanding work has reached its tenant's watermark.
/// Thresholds scale with tenant weight relative to the heaviest tenant,
/// so light (low-priority) tenants shed first and the heavy tenant keeps
/// the full `watermark` of headroom — graceful degradation instead of
/// collapsing every SLO at once. Retries are exempt: shedding applies to
/// first-time arrivals only, keeping each request's disposition unique.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShedPolicy {
    /// Outstanding-work watermark for the heaviest tenant.
    pub watermark: usize,
    /// `(tenant, weight)` pairs; unlisted tenants weigh 1.
    pub weights: Vec<(u32, u32)>,
}

impl ShedPolicy {
    /// Sheds every tenant at `watermark` outstanding (equal weights).
    pub fn new(watermark: usize) -> Self {
        Self {
            watermark,
            weights: Vec::new(),
        }
    }

    /// Sets the tenant weights (unlisted tenants weigh 1).
    pub fn weights(mut self, weights: Vec<(u32, u32)>) -> Self {
        self.weights = weights;
        self
    }

    fn weight(&self, tenant: u32) -> u64 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|&(_, w)| u64::from(w.max(1)))
            .unwrap_or(1)
    }

    /// The outstanding-work level at which `tenant`'s arrivals shed:
    /// `ceil(watermark · weight / max_weight)`, at least 1.
    pub fn threshold(&self, tenant: u32) -> usize {
        let w_max = self
            .weights
            .iter()
            .map(|&(_, w)| u64::from(w.max(1)))
            .max()
            .unwrap_or(1)
            .max(1);
        let w = self.weight(tenant);
        (self.watermark as u64 * w).div_ceil(w_max).max(1) as usize
    }
}

/// Everything that goes wrong during one cluster run, plus the recovery
/// knobs. Built fluently from [`FaultPlan::none`]; the default plan
/// injects nothing, which makes `Cluster::run_faulted` under it
/// `Cluster::run`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every random quantity the plan draws.
    pub seed: u64,
    /// Crash generation.
    pub crashes: CrashModel,
    /// Straggler generation.
    pub stragglers: StragglerModel,
    /// Probability that a crashed replica's host-side checkpoint fails
    /// to transfer to a surviving replica (the request then restarts
    /// from scratch via the retry path). Local PCIe restores inside a
    /// healthy engine stay reliable — only cross-replica migration over
    /// the network can fail.
    pub kv_loss_prob: f32,
    /// Retry budget and backoff for crash-lost requests.
    pub retry: RetryPolicy,
    /// Overload shedding; `None` admits everything.
    pub shed: Option<ShedPolicy>,
    /// How long a restarted replica stays in probation (unroutable under
    /// health-aware routing) before re-admission. 0 = immediate.
    pub probation_s: f64,
    /// Whether routing ejects non-healthy replicas (down, straggling, or
    /// in probation) from candidate sets. `false` routes blindly: a
    /// crashed replica keeps receiving work that waits out the outage.
    pub health_aware: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no crashes, no stragglers, no shedding.
    pub fn none() -> Self {
        Self {
            seed: 0,
            crashes: CrashModel::None,
            stragglers: StragglerModel::None,
            kv_loss_prob: 0.0,
            retry: RetryPolicy::default(),
            shed: None,
            probation_s: 0.0,
            health_aware: false,
        }
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables memoryless MTBF/MTTR crashes.
    pub fn mtbf(mut self, mtbf_s: f64, mttr_s: f64) -> Self {
        self.crashes = CrashModel::Mtbf { mtbf_s, mttr_s };
        self
    }

    /// Appends one scripted crash.
    pub fn crash_at(mut self, replica: usize, at_s: f64, down_for_s: f64) -> Self {
        let ev = CrashEvent {
            replica,
            at_s,
            down_for_s,
        };
        match &mut self.crashes {
            CrashModel::Scripted(list) => list.push(ev),
            _ => self.crashes = CrashModel::Scripted(vec![ev]),
        }
        self
    }

    /// Appends one scripted straggler window.
    pub fn straggler_at(
        mut self,
        replica: usize,
        at_s: f64,
        duration_s: f64,
        slowdown: f64,
    ) -> Self {
        let w = StragglerWindow {
            replica,
            at_s,
            duration_s,
            slowdown,
        };
        match &mut self.stragglers {
            StragglerModel::Scripted(list) => list.push(w),
            _ => self.stragglers = StragglerModel::Scripted(vec![w]),
        }
        self
    }

    /// Enables memoryless straggler windows.
    pub fn random_stragglers(mut self, mtbs_s: f64, duration_s: f64, slowdown: f64) -> Self {
        self.stragglers = StragglerModel::Random {
            mtbs_s,
            duration_s,
            slowdown,
        };
        self
    }

    /// Sets the checkpoint-migration loss probability.
    pub fn kv_loss(mut self, prob: f32) -> Self {
        self.kv_loss_prob = prob;
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables overload shedding.
    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = Some(shed);
        self
    }

    /// Sets the restart probation window.
    pub fn probation(mut self, probation_s: f64) -> Self {
        self.probation_s = probation_s;
        self
    }

    /// Sets health-aware routing.
    pub fn health_aware(mut self, on: bool) -> Self {
        self.health_aware = on;
        self
    }
}

/// Fleet-level fault and recovery counters, carried on `ClusterReport`.
/// All zeros for a no-fault run, which keeps report equality pinning
/// intact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Replica crashes applied.
    pub crashes: usize,
    /// Replica restarts applied.
    pub recoveries: usize,
    /// Requests torn out of crashed replicas without a checkpoint.
    pub lost_in_flight: usize,
    /// Retry attempts scheduled (backoff re-entries).
    pub retries: usize,
    /// Requests that exhausted their retry budget.
    pub dead_lettered: usize,
    /// Fresh arrivals dropped by overload shedding.
    pub shed: usize,
    /// Checkpoints successfully migrated to a surviving replica.
    pub checkpoints_migrated: usize,
    /// Checkpoints whose migration transfer failed (request retried
    /// from scratch).
    pub checkpoints_lost: usize,
    /// Straggler windows applied.
    pub straggler_windows: usize,
}

/// What one fault-timeline event does to a replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultAction {
    /// The replica's process dies; its restart is scheduled as the
    /// crash is delivered.
    Crash,
    /// The replica comes back up (probation may follow).
    Restart,
    /// A straggler window opens with this cost multiplier.
    StragglerStart(f64),
    /// The open straggler window closes.
    StragglerEnd,
    /// The post-restart probation window ends.
    ProbationEnd,
}

impl FaultAction {
    /// Tie-break priority at equal timestamps: recoveries before new
    /// failures, so a replica restarting and re-crashing at the same
    /// instant observes the restart first.
    fn priority(self) -> u8 {
        match self {
            FaultAction::Restart => 0,
            FaultAction::ProbationEnd => 1,
            FaultAction::StragglerEnd => 2,
            FaultAction::StragglerStart(_) => 3,
            FaultAction::Crash => 4,
        }
    }
}

/// One materialized fault-timeline event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultEvent {
    /// When it fires, seconds on the simulated clock.
    pub at: f64,
    /// Which replica it targets.
    pub replica: usize,
    /// What it does.
    pub action: FaultAction,
}

/// Materializes a [`FaultPlan`] into a deterministic event timeline.
///
/// Scripted events are loaded up front; a crash carries its outage
/// length and schedules its restart when it is delivered. Stochastic
/// processes (MTBF crashes, random straggler windows) are chained
/// lazily — popping a restart draws the next crash, popping a window
/// end draws the next window — from per-replica [`SimRng`] streams, so
/// the draw sequence is a pure function of the plan and never of thread
/// interleaving. Events pop in `(time, replica, action-priority)` order.
#[derive(Debug)]
pub struct FaultInjector {
    /// The events not yet delivered, each beside its outage length in
    /// seconds (a crash's; 0 for every other action).
    pending: Vec<(FaultEvent, f64)>,
    /// One stream per replica for its stochastic processes.
    rngs: Vec<SimRng>,
    crashes: CrashModel,
    stragglers: StragglerModel,
    probation_s: f64,
    /// Injector-side down tracking, so a scripted crash that lands inside
    /// an outage is dropped; its restart was never scheduled.
    down: Vec<bool>,
    /// The index in `pending` of the next deliverable event, found by
    /// the last [`peek_time`](Self::peek_time) and kept until the next
    /// [`pop`](Self::pop) — the only call that changes `pending` or
    /// `down` once the undeliverable events ahead are discarded — so
    /// the event loop's peek per event scans the timeline once.
    next: Option<usize>,
}

impl FaultInjector {
    /// Builds the injector for a fleet of `replicas`.
    pub fn new(plan: &FaultPlan, replicas: usize) -> Self {
        let mut inj = Self {
            pending: Vec::new(),
            // Fresh parent per replica: the stream depends only on
            // (seed, replica), never on construction order.
            rngs: (0..replicas)
                .map(|i| SimRng::seed(plan.seed).fork(i as u64 + 1))
                .collect(),
            crashes: plan.crashes.clone(),
            stragglers: plan.stragglers.clone(),
            probation_s: plan.probation_s,
            down: vec![false; replicas],
            next: None,
        };
        match &plan.crashes {
            CrashModel::None => {}
            CrashModel::Scripted(list) => {
                for ev in list.iter().filter(|ev| ev.replica < replicas) {
                    inj.schedule(ev.at_s, ev.replica, FaultAction::Crash, ev.down_for_s);
                }
            }
            &CrashModel::Mtbf { mtbf_s, mttr_s } => {
                for i in 0..replicas {
                    let at = inj.draw(i, mtbf_s);
                    let down_for = inj.draw(i, mttr_s);
                    inj.schedule(at, i, FaultAction::Crash, down_for);
                }
            }
        }
        match &plan.stragglers {
            StragglerModel::None => {}
            StragglerModel::Scripted(list) => {
                for w in list.iter().filter(|w| w.replica < replicas) {
                    let (start, end) = (w.at_s, w.at_s + w.duration_s);
                    inj.schedule(
                        start,
                        w.replica,
                        FaultAction::StragglerStart(w.slowdown),
                        0.0,
                    );
                    inj.schedule(end, w.replica, FaultAction::StragglerEnd, 0.0);
                }
            }
            &StragglerModel::Random {
                mtbs_s,
                duration_s,
                slowdown,
            } => {
                for i in 0..replicas {
                    let at = inj.draw(i, mtbs_s);
                    inj.schedule(at, i, FaultAction::StragglerStart(slowdown), 0.0);
                    inj.schedule(at + duration_s, i, FaultAction::StragglerEnd, 0.0);
                }
            }
        }
        inj
    }

    /// Queues `action` on `replica` at `at`; `down_for` is a crash's
    /// outage length, 0 for every other action.
    fn schedule(&mut self, at: f64, replica: usize, action: FaultAction, down_for: f64) {
        let ev = FaultEvent {
            at,
            replica,
            action,
        };
        self.pending.push((ev, down_for));
    }

    /// An exponential draw of mean `mean` from `replica`'s stream.
    fn draw(&mut self, replica: usize, mean: f64) -> f64 {
        // Inverse-CDF with u in [0,1): 1-u is in (0,1], so ln is finite.
        let u = f64::from(self.rngs[replica].uniform());
        -(1.0 - u).max(1e-12).ln() * mean
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ea, eb) = (&self.pending[a].0, &self.pending[b].0);
            ea.at
                .partial_cmp(&eb.at)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ea.replica.cmp(&eb.replica))
                .then(ea.action.priority().cmp(&eb.action.priority()))
        })
    }

    /// When the next deliverable event fires, if any.
    pub(crate) fn peek_time(&mut self) -> Option<f64> {
        self.next_deliverable().map(|i| self.pending[i].0.at)
    }

    /// The index of the next deliverable event: the one kept since the
    /// last peek, else found by dropping the leading crashes that land
    /// inside an outage.
    fn next_deliverable(&mut self) -> Option<usize> {
        if self.next.is_some() {
            return self.next;
        }
        while let Some(i) = self.min_index() {
            let ev = self.pending[i].0;
            if ev.action == FaultAction::Crash && self.down[ev.replica] {
                self.pending.swap_remove(i);
            } else {
                self.next = Some(i);
                break;
            }
        }
        self.next
    }

    /// Pops the next event, chaining what it starts: a crash marks the
    /// replica down and schedules its restart; a restart marks it up,
    /// schedules the probation end and (under MTBF) draws the next
    /// crash; a window end under the random model draws the next window.
    pub(crate) fn pop(&mut self) -> Option<FaultEvent> {
        let i = self.next_deliverable()?;
        self.next = None;
        let (ev, down_for) = self.pending.swap_remove(i);
        let r = ev.replica;
        match ev.action {
            FaultAction::Crash => {
                self.down[r] = true;
                self.schedule(ev.at + down_for, r, FaultAction::Restart, 0.0);
            }
            FaultAction::Restart => {
                self.down[r] = false;
                if self.probation_s > 0.0 {
                    self.schedule(ev.at + self.probation_s, r, FaultAction::ProbationEnd, 0.0);
                }
                if let CrashModel::Mtbf { mtbf_s, mttr_s } = self.crashes {
                    let gap = self.draw(r, mtbf_s);
                    let down_for = self.draw(r, mttr_s);
                    self.schedule(ev.at + gap, r, FaultAction::Crash, down_for);
                }
            }
            FaultAction::StragglerEnd => {
                if let StragglerModel::Random {
                    mtbs_s,
                    duration_s,
                    slowdown,
                } = self.stragglers
                {
                    let at = ev.at + self.draw(r, mtbs_s);
                    self.schedule(at, r, FaultAction::StragglerStart(slowdown), 0.0);
                    self.schedule(at + duration_s, r, FaultAction::StragglerEnd, 0.0);
                }
            }
            FaultAction::StragglerStart(_) | FaultAction::ProbationEnd => {}
        }
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = FaultPlan::none();
        let mut inj = FaultInjector::new(&plan, 4);
        assert_eq!(inj.peek_time(), None);
        assert!(inj.pop().is_none());
    }

    #[test]
    fn scripted_events_pop_in_time_order() {
        let plan = FaultPlan::none()
            .crash_at(1, 5.0, 2.0)
            .straggler_at(0, 1.0, 3.0, 4.0);
        let mut inj = FaultInjector::new(&plan, 2);
        let mut seen = Vec::new();
        while let Some(ev) = inj.pop() {
            seen.push((ev.at, ev.replica));
        }
        assert_eq!(seen, vec![(1.0, 0), (4.0, 0), (5.0, 1), (7.0, 1)]);
    }

    #[test]
    fn overlapping_scripted_crash_is_dropped_with_its_restart() {
        let plan = FaultPlan::none()
            .crash_at(0, 1.0, 10.0)
            .crash_at(0, 2.0, 1.0);
        let mut inj = FaultInjector::new(&plan, 1);
        let kinds: Vec<(f64, FaultAction)> = std::iter::from_fn(|| inj.pop())
            .map(|e| (e.at, e.action))
            .collect();
        assert_eq!(
            kinds,
            vec![(1.0, FaultAction::Crash), (11.0, FaultAction::Restart)]
        );
    }

    #[test]
    fn overlapping_scripted_crash_leaves_the_outage_at_its_length() {
        // The crash at 4 lands inside the outage from 1 to 11 and is
        // dropped; the first outage still ends at 11, so the crash at 12
        // finds the replica up and is delivered.
        let plan = FaultPlan::none()
            .crash_at(0, 1.0, 10.0)
            .crash_at(0, 4.0, 20.0)
            .crash_at(0, 12.0, 1.0);
        let mut inj = FaultInjector::new(&plan, 1);
        let kinds: Vec<(f64, FaultAction)> = std::iter::from_fn(|| inj.pop())
            .map(|e| (e.at, e.action))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (1.0, FaultAction::Crash),
                (11.0, FaultAction::Restart),
                (12.0, FaultAction::Crash),
                (13.0, FaultAction::Restart),
            ]
        );
    }

    #[test]
    fn a_zero_length_outage_restarts_after_its_crash() {
        // The restart shares its crash's instant and outranks a crash at
        // equal times, but it is scheduled by the crash, so it cannot pop
        // first and leave the replica down for good.
        let plan = FaultPlan::none().crash_at(0, 1.0, 0.0);
        let mut inj = FaultInjector::new(&plan, 1);
        let kinds: Vec<(f64, FaultAction)> = std::iter::from_fn(|| inj.pop())
            .map(|e| (e.at, e.action))
            .collect();
        assert_eq!(
            kinds,
            vec![(1.0, FaultAction::Crash), (1.0, FaultAction::Restart)]
        );
    }

    #[test]
    fn peeking_before_each_pop_changes_no_event() {
        // Overlapping scripted crashes on replica 0 — the crashes at 2 and
        // 4 land inside the first outage and are dropped, which leaves its
        // restart at 11, so the crash at 12 is delivered — a back-to-back
        // pair on replica 1, straggler windows and a probation window
        // chained off each restart.
        let plan = FaultPlan::none()
            .crash_at(0, 1.0, 10.0)
            .crash_at(0, 2.0, 1.0)
            .crash_at(0, 4.0, 20.0)
            .crash_at(1, 3.0, 2.0)
            .crash_at(1, 5.0, 2.0)
            .crash_at(0, 12.0, 1.0)
            .straggler_at(1, 2.5, 4.0, 3.0)
            .straggler_at(0, 1.0, 1.0, 2.0)
            .probation(0.5);
        let popped = |peeks: usize| {
            let mut inj = FaultInjector::new(&plan, 2);
            let mut seen = Vec::new();
            loop {
                let peeked: Vec<Option<f64>> = (0..peeks).map(|_| inj.peek_time()).collect();
                let ev = inj.pop();
                for at in peeked {
                    assert_eq!(at, ev.map(|e| e.at), "a peek names the next pop's instant");
                }
                match ev {
                    Some(ev) => seen.push(ev),
                    None => return seen,
                }
            }
        };
        let alone = popped(0);
        assert_eq!(
            alone
                .iter()
                .filter(|e| e.action == FaultAction::Crash)
                .count(),
            4,
            "two of replica 0's four crashes land inside an outage"
        );
        for peeks in 1..=3 {
            assert_eq!(popped(peeks), alone, "{peeks} peeks before each pop");
        }
    }

    #[test]
    fn mtbf_timeline_is_deterministic_and_alternates() {
        let plan = FaultPlan::none().mtbf(10.0, 2.0).seed(7);
        let pops = |n: usize| {
            let mut inj = FaultInjector::new(&plan, 2);
            (0..n)
                .map(|_| inj.pop().expect("endless"))
                .collect::<Vec<_>>()
        };
        let a = pops(12);
        let b = pops(12);
        assert_eq!(a, b, "same plan, same timeline");
        // Per replica, crashes and restarts must strictly alternate.
        for r in 0..2 {
            let seq: Vec<FaultAction> = a
                .iter()
                .filter(|e| e.replica == r)
                .map(|e| e.action)
                .collect();
            for pair in seq.windows(2) {
                assert_ne!(pair[0], pair[1], "replica {r} must alternate");
            }
        }
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let retry = RetryPolicy {
            max_attempts: 10,
            base_backoff_s: 1.0,
            max_backoff_s: 4.0,
            jitter_frac: 0.5,
        };
        let mut rng = SimRng::seed(3);
        for (attempt, nominal) in [(1u32, 1.0f64), (2, 2.0), (3, 4.0), (4, 4.0), (9, 4.0)] {
            let b = retry.backoff(attempt, &mut rng);
            assert!(
                b >= nominal && b < nominal * 1.5,
                "attempt {attempt}: backoff {b} outside [{nominal}, {})",
                nominal * 1.5
            );
        }
    }

    #[test]
    fn shed_thresholds_scale_with_tenant_weight() {
        let shed = ShedPolicy::new(20).weights(vec![(0, 4), (1, 1)]);
        assert_eq!(shed.threshold(0), 20, "heaviest tenant gets the watermark");
        assert_eq!(shed.threshold(1), 5, "light tenant sheds at a quarter");
        assert_eq!(shed.threshold(9), 5, "unlisted tenants weigh 1");
        let equal = ShedPolicy::new(8);
        assert_eq!(equal.threshold(0), 8);
        assert_eq!(equal.threshold(5), 8);
        // Degenerate watermark still leaves a sliver of admission.
        assert_eq!(ShedPolicy::new(0).threshold(0), 1);
    }
}
