//! The cluster event kernel.
//!
//! A [`Cluster`] owns N [`Replica`]s and one routing policy per stage.
//! Every `run*` entry point is the same private loop, whose body is
//! *next event → advance the fleet to its instant → apply it*:
//!
//! * **Events** come from three lazy places: the [`ArrivalSource`]
//!   (peeked and popped one request at a time — a million-request trace
//!   is never materialized), the [`FaultPlan`]'s injector, and one
//!   time-ordered queue of what the run itself scheduled: retries
//!   waiting out their backoff and prefill→decode handoffs on the
//!   interconnect. The earliest wins; at equal instants a fault applies
//!   before a retry re-enters, a retry before a handoff is delivered,
//!   and all of them before a fresh arrival — retries in scheduling
//!   order, handoffs by request id.
//! * **Advance, then apply**, for every event alike. Each replica first
//!   runs its engine up to the event's instant (a decode iteration may
//!   overshoot, exactly as on a real engine), and every handoff whose
//!   transfer finished by then is delivered. So a crash tears out what
//!   its replica held *at the crash instant*, and a restored checkpoint,
//!   a retry or an arrival is placed by the fleet's load at that
//!   instant. With no event left but work remaining the instant is ∞:
//!   the fleet runs dry.
//! * **The source picks how to advance — and nothing else.** An
//!   open-loop source cannot be influenced by the fleet, so each replica
//!   advances in bulk, one after another (a scoped-thread fan-out was
//!   measured and removed: the stepping between two events is tens of
//!   microseconds, less than a spawn). A
//!   [closed-loop](ArrivalSource::closed_loop) source releases a
//!   session's next turn when its previous response completes, possibly
//!   *before* the event just peeked; there the kernel steps the
//!   lowest-clock replica by one scheduler decision, feeds completions
//!   (in `(finish, id)` order) and refusals back into the source, and
//!   peeks again. Either way replicas only touch their own state
//!   between events, so the order they advance in cannot matter.
//! * **Routing** snapshots the fleet and folds it down to the stage's
//!   candidates before asking the stage's policy. Role is a hard
//!   filter — arrivals and retries never start on a decode-only
//!   replica, handoffs only land on decode replicas — and health a soft
//!   one: health-aware plans eject down, straggling and probation
//!   replicas unless that would leave the stage no candidate.
//!
//! Because replicas are driven through the runtime scheduler's own
//! micro-steps, a 1-replica cluster reproduces `Scheduler::run`
//! bit-for-bit, which pins the whole subsystem to the single-node
//! Table-3 ground truth; an all-`Unified` fleet never schedules a
//! handoff and an empty plan never injects a fault, so both walk the
//! plain arrival sequence.
//!
//! Recovery under a [`FaultPlan`]: a crash tears out the replica's
//! in-flight work — requests with decode progress surface as host-side
//! checkpoints and restore onto the healthiest surviving replica
//! (paying the Eq.-6 KV re-transfer there) unless the plan's
//! `kv_loss_prob` draw fails; everything else re-enters the router
//! after capped exponential backoff with seeded jitter. Every
//! crash-driven re-entry (retry *or* migration) consumes one unit of the
//! request's retry budget, so a request bouncing between crashing
//! replicas always terminates; an exhausted budget dead-letters the
//! request, attributed per tenant in the SLO report. Arrivals are shed
//! at the plan's tenant-weighted watermark before routing. A closed-loop
//! source hears of shed and dead-lettered turns through `on_reject`, so
//! their sessions end instead of waiting forever.

use crate::arrivals::{ArrivalSource, ClusterRequest, SliceSource};
use crate::faults::{FaultAction, FaultEvent, FaultInjector, FaultPlan, FaultSummary};
use crate::replica::Replica;
use crate::router::{ReplicaSnapshot, RoutePolicy, RouterKind};
use crate::slo::{self, CostReport, SloReport, SloSpec};
use serde::{Deserialize, Serialize};
use spec_hwsim::{DeviceSpec, FleetSlot, LinkSpec, ReplicaRole};
use spec_model::ModelConfig;
use spec_runtime::{
    Admission, CompletedRequest, HandoffRecord, IdMap, Request, ScheduleReport, SchedulerConfig,
    ServingSim, StepCache, SystemKind,
};
use spec_telemetry::{
    merge_streams, seconds_to_ticks, Event, EventKind, RecordingSink, TelemetrySink,
};
use spec_tensor::SimRng;
use std::collections::BTreeMap;

/// Queue-depth-driven scale-up/down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Replicas kept active at all times.
    pub min_replicas: usize,
    /// Activate a parked replica when every active replica's outstanding
    /// count reaches this depth.
    pub scale_up_outstanding: usize,
    /// Park an idle replica when the fleet's total outstanding count is
    /// at or below this depth.
    pub scale_down_outstanding: usize,
    /// Seconds a freshly woken replica spends booting before it serves —
    /// charged by jumping its clock past the wake instant. `0.0` (the
    /// default) reproduces the instant-wake autoscaler exactly.
    pub spin_up_s: f64,
    /// KV tokens a freshly woken replica warms over the interconnect
    /// before serving (cold-start cache warmup, priced by the cluster's
    /// [`DisaggConfig`] link). `0` (the default) skips the transfer.
    pub warmup_kv_tokens: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            scale_up_outstanding: 4,
            scale_down_outstanding: 1,
            spin_up_s: 0.0,
            warmup_kv_tokens: 0,
        }
    }
}

/// Disaggregated prefill/decode serving knobs. Only consulted when the
/// fleet declares [`ReplicaRole::Prefill`]/[`ReplicaRole::Decode`] slots
/// (see [`Cluster::from_fleet_slots`]); an all-`Unified` fleet never
/// reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggConfig {
    /// The interconnect pricing each prefill→decode KV hop: a handoff
    /// emitted at `t` with `b` resident bytes reaches its decode target
    /// at `t + link.time(b)`.
    pub link: LinkSpec,
    /// Stage-2 policy picking the decode target at handoff-delivery time
    /// (stage 1 is the cluster's main router, restricted to non-decode
    /// replicas).
    pub decode_router: RouterKind,
}

impl Default for DisaggConfig {
    /// InfiniBand-class interconnect, least-outstanding decode picks.
    fn default() -> Self {
        Self {
            link: LinkSpec::infiniband(),
            decode_router: RouterKind::LeastOutstanding,
        }
    }
}

impl DisaggConfig {
    /// The default configuration; chain the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the interconnect class pricing the KV hop.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Sets the stage-2 decode-target policy.
    pub fn decode_router(mut self, kind: RouterKind) -> Self {
        self.decode_router = kind;
        self
    }
}

/// Cluster-wide configuration, built fluently:
///
/// ```
/// use spec_serve::cluster::{AutoscaleConfig, ClusterConfig};
///
/// let cfg = ClusterConfig::new().autoscale(AutoscaleConfig::default());
/// assert!(cfg.autoscale.is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Per-replica continuous-batching configuration.
    pub scheduler: SchedulerConfig,
    /// Autoscaling; `None` keeps the whole fleet active throughout.
    pub autoscale: Option<AutoscaleConfig>,
    /// Disaggregated prefill/decode serving; `None` falls back to the
    /// defaults when the fleet declares split roles and is ignored
    /// entirely otherwise.
    pub disagg: Option<DisaggConfig>,
}

impl ClusterConfig {
    /// The default configuration; chain the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-replica scheduler configuration.
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables queue-depth autoscaling.
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Configures the disaggregated prefill/decode path (interconnect
    /// class and decode-target policy).
    pub fn disagg(mut self, disagg: DisaggConfig) -> Self {
        self.disagg = Some(disagg);
        self
    }
}

/// Interconnect traffic of the prefill→decode KV hops in one run; all
/// zeros when no replica ran a split role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HandoffSummary {
    /// Handoffs delivered to decode replicas.
    pub count: usize,
    /// KV bytes moved over the interconnect.
    pub bytes: f64,
    /// Seconds the handoffs spent on the wire (sum over hops).
    pub transfer_s: f64,
}

/// One replica's slice of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Device name.
    pub device: String,
    /// Requests routed to this replica.
    pub assigned: usize,
    /// The replica's own serving report — identical in shape to a
    /// single-node `Scheduler::run` result.
    pub report: ScheduleReport,
}

/// The outcome of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Per-replica reports, in fleet order.
    pub replicas: Vec<ReplicaReport>,
    /// Completed requests across the fleet.
    pub completed: usize,
    /// Rejected requests across the fleet.
    pub rejected: usize,
    /// Latest replica clock — the run's wall time.
    pub makespan: f64,
    /// Output tokens/s across the fleet over the makespan.
    pub throughput: f64,
    /// SLO accounting over all completions.
    pub slo: SloReport,
    /// `(arrival_time, fleet outstanding)` after each routing decision.
    pub queue_depth: Vec<(f64, usize)>,
    /// Peak simultaneously-active replicas (autoscaling high-water mark).
    pub peak_active: usize,
    /// Fault and recovery counters; all zeros for fault-free runs, so
    /// no-fault reports stay bit-identical to pre-fault ones.
    pub faults: FaultSummary,
    /// Prefill→decode handoff traffic; all zeros on unified fleets.
    pub handoffs: HandoffSummary,
    /// Dollar accounting: fleet price, billed replica-hours, and
    /// goodput per dollar.
    pub cost: CostReport,
}

/// A fleet of serving replicas behind a router. Holds only what
/// outlives a run — the engines, their step-price tables, the policies,
/// and the autoscaler's parking and billing state; everything one run
/// accumulates lives in the kernel's run-local state.
pub struct Cluster {
    replicas: Vec<Replica>,
    /// One step-price table per group of identically pricing replicas
    /// (see [`Cluster::new`]), lent to a replica for each advance.
    step_tables: Vec<StepCache>,
    /// Replica index → index of its group's table in `step_tables`.
    table_of: Vec<usize>,
    /// The routing decision's view of the fleet, refilled per request
    /// instead of allocated.
    snapshots: Vec<ReplicaSnapshot>,
    router: Box<dyn RoutePolicy>,
    cfg: ClusterConfig,
    peak_active: usize,
    /// Whether any replica runs a split role.
    two_stage: bool,
    /// Stage-2 router picking decode targets at handoff-delivery time.
    decode_router: Box<dyn RoutePolicy>,
    /// The interconnect pricing prefill→decode hops and cold-start
    /// warmup transfers.
    link: LinkSpec,
    /// Billing: when each replica's current active window opened
    /// (`None` = parked, not billing).
    active_since: Vec<Option<f64>>,
    /// Billing: closed active-window seconds per replica.
    billed_s: Vec<f64>,
}

/// What can wake the kernel. Declaration order is the tie rule at equal
/// instants: a fault applies before a retry re-enters, a retry before a
/// handoff is delivered, and all of them before a fresh arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventClass {
    Fault,
    Retry,
    Handoff,
    Arrival,
}

/// Where one event sorts on the run's timeline: instant, then class,
/// then the class's own first-in-first-out rule (`tie` is the retry's
/// scheduling sequence number or the handoff's request id).
#[derive(Debug, Clone, Copy)]
struct EventKey {
    at: f64,
    class: EventClass,
    tie: u64,
}

impl EventKey {
    /// The key of a generator's next event (`tie` is moot there: a
    /// generator yields one candidate at a time).
    fn of(at: f64, class: EventClass) -> Self {
        Self { at, class, tie: 0 }
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.class.cmp(&other.class))
            .then(self.tie.cmp(&other.tie))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for EventKey {}

/// An event the run itself scheduled (faults and arrivals stay in their
/// lazy generators).
#[derive(Debug, Clone, Copy)]
enum Scheduled {
    /// A crash-lost request waiting out its backoff.
    Retry(Request),
    /// A prefill→decode handoff on the interconnect.
    Handoff(HandoffRecord),
}

/// Everything one run accumulates: the fault timeline, the queue of
/// scheduled events, per-request bookkeeping for re-entries, and the
/// counters and streams the report is built from.
struct Run<'p> {
    plan: &'p FaultPlan,
    injector: FaultInjector,
    /// Backoff-jitter and migration-loss draws, taken on the serial
    /// event path in event order.
    rng: SimRng,
    /// Retries and handoffs in flight, in firing order.
    scheduled: BTreeMap<EventKey, Scheduled>,
    next_seq: u64,
    /// Request id → crash-driven re-entries consumed so far.
    attempts: IdMap<usize, u32>,
    /// Request id → session, so a re-entry (retry or stage-2 routing of
    /// a handoff) sees the session key its first routing saw.
    sessions: IdMap<usize, u64>,
    /// Request id → original arrival, recorded the first time a request
    /// is restamped (retried, migrated or handed off), so the report's
    /// latency metrics span from first submission.
    origins: IdMap<usize, f64>,
    dead_by_tenant: BTreeMap<u32, usize>,
    shed_by_tenant: BTreeMap<u32, usize>,
    retries_by_tenant: BTreeMap<u32, usize>,
    faults: FaultSummary,
    handoffs: HandoffSummary,
    /// `(arrival_time, fleet outstanding)` after each routing decision.
    queue_depth: Vec<(f64, usize)>,
    /// Shed and dead-lettered requests the source has not been told
    /// about yet (a closed-loop source ends their sessions).
    refused: Vec<Request>,
    /// Cluster-scope event buffer (routing, scaling, fault lifecycle);
    /// `None` = untraced. Replicas record into buffers of their own; the
    /// streams are merged when the run ends.
    sink: Option<RecordingSink>,
}

impl<'p> Run<'p> {
    fn new(plan: &'p FaultPlan, replicas: usize, arrivals: usize, traced: bool) -> Self {
        Self {
            plan,
            injector: FaultInjector::new(plan, replicas),
            rng: SimRng::seed(plan.seed).fork(0xFA17),
            scheduled: BTreeMap::new(),
            next_seq: 0,
            attempts: IdMap::default(),
            sessions: IdMap::default(),
            origins: IdMap::default(),
            dead_by_tenant: BTreeMap::new(),
            shed_by_tenant: BTreeMap::new(),
            retries_by_tenant: BTreeMap::new(),
            faults: FaultSummary::default(),
            handoffs: HandoffSummary::default(),
            queue_depth: Vec::with_capacity(arrivals),
            refused: Vec::new(),
            sink: traced.then(RecordingSink::new),
        }
    }

    /// Records a cluster-scope decision into the cluster event buffer.
    /// The event is built out of line: inlined, its tick's rounding was
    /// hoisted above the untraced check and paid on every decision.
    fn emit(&mut self, now: f64, replica: usize, kind: EventKind) {
        #[inline(never)]
        fn record(sink: &mut RecordingSink, now: f64, replica: usize, kind: EventKind) {
            sink.emit(Event {
                tick: seconds_to_ticks(now),
                replica: replica as u32,
                kind,
            });
        }
        if let Some(sink) = &mut self.sink {
            record(sink, now, replica, kind);
        }
    }

    /// `req` as it re-enters routing at `at`, under its original session.
    fn reentry(&self, req: Request, at: f64) -> ClusterRequest {
        ClusterRequest {
            request: Request { arrival: at, ..req },
            session: self.sessions.get(&req.id).copied().unwrap_or(req.id as u64),
        }
    }

    /// Consumes one unit of `req`'s retry budget. Returns the attempt
    /// number (1-based), or `None` when the budget is exhausted — the
    /// caller must dead-letter.
    fn consume_attempt(&mut self, req: &Request) -> Option<u32> {
        self.origins.entry(req.id).or_insert(req.arrival);
        let used = self.attempts.entry(req.id).or_insert(0);
        if *used >= self.plan.retry.max_attempts {
            return None;
        }
        *used += 1;
        Some(*used)
    }

    /// Schedules `req`'s re-entry after backoff (the caller has already
    /// consumed the attempt).
    fn retry(&mut self, req: Request, now: f64, origin: usize, attempt: u32) {
        let key = EventKey {
            at: now + self.plan.retry.backoff(attempt, &mut self.rng),
            class: EventClass::Retry,
            tie: self.next_seq,
        };
        self.next_seq += 1;
        self.scheduled.insert(key, Scheduled::Retry(req));
        self.faults.retries += 1;
        *self.retries_by_tenant.entry(req.tenant).or_insert(0) += 1;
        let (request, tenant) = (req.id as u64, req.tenant);
        let kind = EventKind::RetryScheduled {
            request,
            tenant,
            attempt,
        };
        self.emit(now, origin, kind);
    }

    /// Gives up on a request whose retry budget ran out.
    fn dead_letter(&mut self, req: Request, now: f64, origin: usize) {
        self.faults.dead_lettered += 1;
        *self.dead_by_tenant.entry(req.tenant).or_insert(0) += 1;
        self.refused.push(req);
        let (request, tenant) = (req.id as u64, req.tenant);
        self.emit(now, origin, EventKind::DeadLettered { request, tenant });
    }

    /// Drops a fresh arrival at the plan's overload watermark.
    fn shed(&mut self, req: Request, now: f64) {
        self.faults.shed += 1;
        *self.shed_by_tenant.entry(req.tenant).or_insert(0) += 1;
        self.refused.push(req);
        let (request, tenant) = (req.id as u64, req.tenant);
        self.emit(now, 0, EventKind::RequestShed { request, tenant });
    }

    /// Sends one crash-torn request through the retry path: consume
    /// budget, then schedule with backoff or dead-letter.
    fn bounce(&mut self, req: Request, now: f64, origin: usize) {
        match self.consume_attempt(&req) {
            Some(attempt) => self.retry(req, now, origin, attempt),
            None => self.dead_letter(req, now, origin),
        }
    }

    /// The per-tenant dispositions in `slo::evaluate_faulted` form.
    fn outcomes(&self) -> slo::FaultOutcomes {
        let list = |m: &BTreeMap<u32, usize>| m.iter().map(|(&t, &n)| (t, n)).collect();
        slo::FaultOutcomes {
            dead_lettered: list(&self.dead_by_tenant),
            shed: list(&self.shed_by_tenant),
            retries: list(&self.retries_by_tenant),
        }
    }
}

impl Cluster {
    /// Builds a cluster with one replica per serving simulator. With
    /// autoscaling, replicas beyond `min_replicas` start parked;
    /// `min_replicas` is clamped to at least 1, so a fleet can never
    /// start (or scale) to zero active replicas.
    ///
    /// Replicas whose simulators price identically
    /// ([`ServingSim::prices_like`]: equal model, device, budget and
    /// `elastic_reuse`, however each was constructed) form a group that
    /// shares one [`StepCache`]: the group runs on clones of its first
    /// member, so its engines stamp the table alike, and a step one of
    /// them priced is an indexed load for the rest. Step prices are
    /// exact functions of `(batch, length)`, so sharing changes no
    /// simulated value — `tests/goldens.rs` (e)–(g) were recorded with a
    /// private table per replica. [`Cluster::step_tables`] shows the
    /// grouping.
    ///
    /// # Panics
    ///
    /// Panics if `sims` is empty.
    pub fn new(
        sims: Vec<ServingSim>,
        system: SystemKind,
        cfg: ClusterConfig,
        router: Box<dyn RoutePolicy>,
    ) -> Self {
        assert!(!sims.is_empty(), "a cluster needs at least one replica");
        // The first simulator of each pricing group; fleets hold a
        // handful of device kinds, so a linear scan finds the group.
        let mut groups: Vec<ServingSim> = Vec::new();
        let mut table_of = Vec::with_capacity(sims.len());
        let mut replicas = Vec::with_capacity(sims.len());
        for sim in sims {
            let group = groups
                .iter()
                .position(|first| first.prices_like(&sim))
                .unwrap_or_else(|| {
                    groups.push(sim);
                    groups.len() - 1
                });
            table_of.push(group);
            let sim = groups[group].clone();
            replicas.push(Replica::new(sim, system, cfg.scheduler.clone()));
        }
        if let Some(auto) = &cfg.autoscale {
            let min = auto.min_replicas.max(1);
            for (i, rep) in replicas.iter_mut().enumerate() {
                rep.set_active(i < min);
            }
        }
        let peak_active = replicas.iter().filter(|r| r.is_active()).count();
        let disagg = cfg.disagg.clone().unwrap_or_default();
        let active_since = replicas
            .iter()
            .map(|r| r.is_active().then_some(0.0))
            .collect();
        let billed_s = vec![0.0; replicas.len()];
        Self {
            snapshots: Vec::with_capacity(replicas.len()),
            replicas,
            step_tables: groups.iter().map(|_| StepCache::new()).collect(),
            table_of,
            router,
            cfg,
            peak_active,
            two_stage: false,
            decode_router: disagg.decode_router.build(),
            link: disagg.link,
            active_since,
            billed_s,
        }
    }

    /// Builds a homogeneous-or-mixed cluster from a device fleet (see
    /// `spec_hwsim::Fleet`), one replica per device, all sharing the
    /// model and per-request KV budget.
    pub fn from_fleet(
        model: &ModelConfig,
        devices: &[DeviceSpec],
        budget: usize,
        system: SystemKind,
        cfg: ClusterConfig,
        router: Box<dyn RoutePolicy>,
    ) -> Self {
        let sims = devices
            .iter()
            .map(|dev| ServingSim::new(model.clone(), dev.clone(), budget))
            .collect();
        Self::new(sims, system, cfg, router)
    }

    /// Builds a role-typed cluster from fleet slots
    /// (`spec_hwsim::Fleet::build_slots`): one replica per slot, prefill
    /// slots running requests only to their first token and handing the
    /// resident KV off to decode slots over `cfg.disagg`'s interconnect.
    /// A fleet of all-[`Unified`](ReplicaRole::Unified) slots behaves
    /// exactly like [`Cluster::from_fleet`] over the same devices.
    pub fn from_fleet_slots(
        model: &ModelConfig,
        slots: &[FleetSlot],
        budget: usize,
        system: SystemKind,
        cfg: ClusterConfig,
        router: Box<dyn RoutePolicy>,
    ) -> Self {
        let sims = slots
            .iter()
            .map(|s| ServingSim::new(model.clone(), s.device.clone(), budget))
            .collect();
        let mut cluster = Self::new(sims, system, cfg, router);
        for (i, slot) in slots.iter().enumerate() {
            cluster.replicas[i].set_role(slot.role);
        }
        cluster.two_stage = slots.iter().any(|s| s.role != ReplicaRole::Unified);
        if cluster.two_stage && cluster.cfg.autoscale.is_some() {
            // `min_replicas` parking in `new` is role-blind; a split
            // fleet must keep at least one routable replica per present
            // role or both routing stages would wedge on an all-parked
            // candidate set.
            for role in [
                ReplicaRole::Prefill,
                ReplicaRole::Decode,
                ReplicaRole::Unified,
            ] {
                let of_role: Vec<usize> = (0..cluster.replicas.len())
                    .filter(|&i| cluster.replicas[i].role() == role)
                    .collect();
                if !of_role.is_empty() && !of_role.iter().any(|&i| cluster.replicas[i].is_active())
                {
                    cluster.replicas[of_role[0]].set_active(true);
                }
            }
            cluster.peak_active = cluster.replicas.iter().filter(|r| r.is_active()).count();
            cluster.active_since = cluster
                .replicas
                .iter()
                .map(|r| r.is_active().then_some(0.0))
                .collect();
        }
        cluster
    }

    /// The fleet's step-price tables, one per group of identically
    /// pricing replicas, in order of each group's first replica. A
    /// table's [`StepCache::len`] is the number of distinct
    /// `(batch, length)` steps its whole group has priced so far.
    pub fn step_tables(&self) -> &[StepCache] {
        &self.step_tables
    }

    /// Runs an arrival-ordered trace to completion under `slo`: the
    /// kernel over a pre-materialized slice, no faults, untraced.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[ClusterRequest], slo: &SloSpec) -> ClusterReport {
        self.run_source(&mut SliceSource::new(trace), slo)
    }

    /// Runs a streaming [`ArrivalSource`] — open- or closed-loop — to
    /// completion under `slo`: the kernel under the empty fault plan.
    pub fn run_source<S: ArrivalSource + ?Sized>(
        &mut self,
        source: &mut S,
        slo: &SloSpec,
    ) -> ClusterReport {
        self.run_faulted(source, slo, &FaultPlan::none())
    }

    /// [`Cluster::run`], also returning the telemetry stream.
    pub fn run_traced(
        &mut self,
        trace: &[ClusterRequest],
        slo: &SloSpec,
    ) -> (ClusterReport, Vec<Event>) {
        self.run_source_traced(&mut SliceSource::new(trace), slo)
    }

    /// [`Cluster::run_source`], also returning the telemetry stream.
    pub fn run_source_traced<S: ArrivalSource + ?Sized>(
        &mut self,
        source: &mut S,
        slo: &SloSpec,
    ) -> (ClusterReport, Vec<Event>) {
        self.run_faulted_traced(source, slo, &FaultPlan::none())
    }

    /// [`Cluster::run`] under a [`FaultPlan`].
    pub fn run_fault_plan(
        &mut self,
        trace: &[ClusterRequest],
        slo: &SloSpec,
        plan: &FaultPlan,
    ) -> ClusterReport {
        self.run_faulted(&mut SliceSource::new(trace), slo, plan)
    }

    /// Runs a streaming source under a [`FaultPlan`]: the kernel,
    /// untraced. The recovery semantics the plan's knobs select are
    /// documented on [`FaultPlan`] and in the module docs.
    pub fn run_faulted<S: ArrivalSource + ?Sized>(
        &mut self,
        source: &mut S,
        slo: &SloSpec,
        plan: &FaultPlan,
    ) -> ClusterReport {
        self.kernel(source, slo, plan, false).0
    }

    /// [`Cluster::run_faulted`], also returning the telemetry stream:
    /// every replica's own buffer and the cluster-scope buffer (routing,
    /// scaling, fault lifecycle), merged on `(tick, stream)` with the
    /// cluster stream first — so at equal ticks a routing decision sorts
    /// before the engine's reaction to it — and per-stream emission
    /// order preserved.
    pub fn run_faulted_traced<S: ArrivalSource + ?Sized>(
        &mut self,
        source: &mut S,
        slo: &SloSpec,
        plan: &FaultPlan,
    ) -> (ClusterReport, Vec<Event>) {
        self.kernel(source, slo, plan, true)
    }

    /// The cluster event kernel: the one loop behind every `run*` name,
    /// implementing the rule in the module docs.
    fn kernel<S: ArrivalSource + ?Sized>(
        &mut self,
        source: &mut S,
        slo: &SloSpec,
        plan: &FaultPlan,
        traced: bool,
    ) -> (ClusterReport, Vec<Event>) {
        let arrivals = source.remaining_hint().unwrap_or(0);
        let mut run = Run::new(plan, self.replicas.len(), arrivals, traced);
        if traced {
            for (i, rep) in self.replicas.iter_mut().enumerate() {
                rep.enable_telemetry(i as u32);
            }
        }
        let closed = source.closed_loop();
        let mut fed_back = vec![(0, 0); self.replicas.len()];
        loop {
            if closed {
                self.flush_feedback(source, &mut fed_back);
            }
            // A closed-loop step may have emitted handoffs: queue them
            // before peeking.
            self.collect_handoffs(&mut run);
            let fault = run.injector.peek_time();
            let arrival = source.peek_arrival();
            let next = fault
                .map(|at| EventKey::of(at, EventClass::Fault))
                .into_iter()
                .chain(run.scheduled.keys().next().copied())
                .chain(arrival.map(|at| EventKey::of(at, EventClass::Arrival)))
                .min();
            // Advance the fleet to the event's instant, or until it runs
            // dry when no event is left.
            let t = next.map_or(f64::INFINITY, |k| k.at);
            if closed {
                // A completion may release a turn that departs before
                // `t`: step the laggard once, feed back, peek again.
                if let Some(i) = self.laggard_below(t) {
                    self.replicas[i].step_once(&mut self.step_tables[self.table_of[i]]);
                    continue;
                }
            } else {
                self.advance_all(t);
            }
            // The pump half of the advance: handoffs whose transfer
            // finished by the event — those the advance just emitted
            // included — come on board, stamped at their own delivery
            // instants, before it applies.
            self.collect_handoffs(&mut run);
            if let Some(next) = next {
                self.deliver_due(next, &mut run);
            }
            // A fault timeline never ends (MTBF draws forever), so faults
            // alone do not keep a run alive.
            if arrival.is_none()
                && run.scheduled.is_empty()
                && !self.replicas.iter().any(Replica::has_work)
            {
                break;
            }
            match next.map(|k| k.class) {
                // Nothing left to apply: the fleet ran dry (what that
                // emitted is collected), or the pump delivered the handoff.
                None | Some(EventClass::Handoff) => {}
                Some(EventClass::Fault) => {
                    let ev = run.injector.pop().expect("peeked fault vanished");
                    self.apply_fault(ev, &mut run);
                }
                Some(EventClass::Retry) => {
                    let Some((key, Scheduled::Retry(req))) = run.scheduled.pop_first() else {
                        unreachable!("peeked retry vanished");
                    };
                    // Re-entries skip shedding (their admission already
                    // happened) and emit no second `Arrived`.
                    let cr = run.reentry(req, key.at);
                    self.route(&cr, false, &mut run);
                }
                Some(EventClass::Arrival) => {
                    let cr = source.next_request().expect("peeked arrival vanished");
                    run.sessions.insert(cr.request.id, cr.session);
                    let overloaded = plan.shed.as_ref().is_some_and(|shed| {
                        let outstanding: usize =
                            self.replicas.iter().map(Replica::outstanding).sum();
                        outstanding >= shed.threshold(cr.request.tenant)
                    });
                    if overloaded {
                        run.shed(cr.request, t);
                    } else {
                        self.route(&cr, true, &mut run);
                    }
                }
            }
            for req in run.refused.drain(..) {
                source.on_reject(&req);
            }
        }
        // Re-entries are over: free their bookkeeping before the report
        // allocates its own.
        run.sessions = IdMap::default();
        run.attempts = IdMap::default();
        let mut streams = Vec::new();
        if let Some(sink) = run.sink.take() {
            // Cluster-scope stream first, replica streams in fleet order.
            streams.push(sink.into_events());
            streams.extend(self.replicas.iter_mut().map(Replica::take_telemetry));
        }
        (self.report(run, slo), merge_streams(streams))
    }

    /// Advances every replica's engine to `t`. Each replica's state
    /// depends only on its own trace slice — which is what keeps the
    /// 1-replica anchor bit-for-bit on `Scheduler::run`.
    fn advance_all(&mut self, t: f64) {
        for (rep, &table) in self.replicas.iter_mut().zip(&self.table_of) {
            rep.advance_until(&mut self.step_tables[table], t);
        }
    }

    /// The lowest-clock replica that can step and is strictly behind `t`
    /// (ties to the lowest index), or `None` when the whole fleet has
    /// caught up.
    fn laggard_below(&self, t: f64) -> Option<usize> {
        (0..self.replicas.len())
            .filter(|&i| {
                let rep = &self.replicas[i];
                rep.has_work() && !rep.is_down() && rep.now() < t
            })
            .min_by(|&a, &b| {
                self.replicas[a]
                    .now()
                    .total_cmp(&self.replicas[b].now())
                    .then(a.cmp(&b))
            })
    }

    /// Feeds completions and rejections the source has not seen yet back
    /// into it, completions in `(finish, id)` order so the stream is
    /// deterministic regardless of replica interleaving. `fed_back`
    /// counts, per replica, the completions and rejections already fed.
    fn flush_feedback<S: ArrivalSource + ?Sized>(
        &self,
        source: &mut S,
        fed_back: &mut [(usize, usize)],
    ) {
        let mut fresh: Vec<CompletedRequest> = Vec::new();
        for (rep, (done, _)) in self.replicas.iter().zip(fed_back.iter_mut()) {
            fresh.extend_from_slice(&rep.completed()[*done..]);
            *done = rep.completed().len();
        }
        fresh.sort_by(|a, b| {
            a.finish
                .total_cmp(&b.finish)
                .then(a.request.id.cmp(&b.request.id))
        });
        for done in &fresh {
            source.on_complete(done);
        }
        for (rep, (_, rejected)) in self.replicas.iter().zip(fed_back.iter_mut()) {
            for req in &rep.rejected_requests()[*rejected..] {
                source.on_reject(req);
            }
            *rejected = rep.rejected();
        }
    }

    /// Moves freshly emitted handoff records from prefill engines onto
    /// the interconnect, each scheduled for its delivery instant:
    /// emission plus the link's transfer time for its resident bytes.
    /// (Only prefill-role engines ever emit one.)
    fn collect_handoffs(&mut self, run: &mut Run) {
        for rep in &mut self.replicas {
            for record in rep.drain_handoffs() {
                let key = EventKey {
                    at: record.emitted + self.link.time(record.kv_bytes),
                    class: EventClass::Handoff,
                    tie: record.restorable.request.id as u64,
                };
                run.scheduled.insert(key, Scheduled::Handoff(record));
            }
        }
    }

    /// Delivers, in order, every handoff that sorts no later than
    /// `next`'s class at `next`'s instant — so each decode replica sees
    /// nondecreasing arrival stamps. Stage-2 routing picks the target at
    /// delivery time; the entry is admitted there preloaded (the link
    /// already priced the hop).
    fn deliver_due(&mut self, next: EventKey, run: &mut Run) {
        let horizon = EventKey {
            tie: u64::MAX,
            ..next
        };
        while let Some(entry) = run.scheduled.first_entry() {
            let at = entry.key().at;
            let &Scheduled::Handoff(record) = entry.get() else {
                break;
            };
            if *entry.key() > horizon {
                break;
            }
            entry.remove();
            let req = record.restorable.request;
            let idx = self.pick(&run.reentry(req, at), true, run.plan.health_aware);
            run.origins.entry(req.id).or_insert(req.arrival);
            self.replicas[idx].push(Admission::Preloaded {
                handoff: record.restorable,
                at,
            });
            run.handoffs.count += 1;
            run.handoffs.bytes += record.kv_bytes;
            run.handoffs.transfer_s += self.link.time(record.kv_bytes);
            let kind = EventKind::HandoffDelivered {
                request: req.id as u64,
                tenant: req.tenant,
                bytes: record.kv_bytes as u64,
            };
            run.emit(at, idx, kind);
        }
    }

    /// Applies one fault-timeline event to the fleet (already advanced
    /// to the event's instant).
    fn apply_fault(&mut self, ev: FaultEvent, run: &mut Run) {
        let r = ev.replica;
        match ev.action {
            FaultAction::Crash => {
                let work = self.replicas[r].crash();
                run.faults.crashes += 1;
                run.faults.lost_in_flight += work.lost.len();
                let kind = EventKind::ReplicaCrashed {
                    lost: work.lost.len() as u32,
                    checkpointed: work.checkpointed.len() as u32,
                };
                run.emit(ev.at, r, kind);
                for req in work.lost {
                    run.bounce(req, ev.at, r);
                }
                for ck in work.checkpointed {
                    let Some(attempt) = run.consume_attempt(&ck.request) else {
                        run.dead_letter(ck.request, ev.at, r);
                        continue;
                    };
                    // The migration transfer draw happens in crash-dump
                    // order.
                    let transfer_failed = run.rng.chance(run.plan.kv_loss_prob);
                    match self.pick_restore_target(r, run.plan.health_aware) {
                        Some(target) if !transfer_failed => {
                            self.replicas[target].push(Admission::Restored {
                                checkpoint: ck,
                                at: ev.at,
                            });
                            run.faults.checkpoints_migrated += 1;
                        }
                        _ => {
                            // Failed transfer (or nowhere to go): degrade
                            // to a from-scratch retry.
                            let bytes = self.replicas[r].checkpoint_bytes(&ck.request, ck.produced);
                            run.faults.checkpoints_lost += 1;
                            let request = ck.request.id as u64;
                            run.emit(ev.at, r, EventKind::CheckpointLost { request, bytes });
                            run.retry(ck.request, ev.at, r, attempt);
                        }
                    }
                }
            }
            FaultAction::Restart => {
                let probation = run.plan.probation_s;
                self.replicas[r].restart(ev.at, (probation > 0.0).then_some(ev.at + probation));
                run.faults.recoveries += 1;
                run.emit(ev.at, r, EventKind::ReplicaRecovered);
            }
            FaultAction::StragglerStart(slowdown) => {
                let slowdown = slowdown.max(1.0);
                self.replicas[r].set_slowdown(slowdown);
                run.faults.straggler_windows += 1;
                let permille = (slowdown * 1000.0).round() as u32;
                run.emit(ev.at, r, EventKind::StragglerStarted { permille });
            }
            FaultAction::StragglerEnd => {
                // Steps started inside the window still pay the slowed
                // price up to the boundary, then costs return to nominal.
                self.replicas[r].set_slowdown(1.0);
                run.emit(ev.at, r, EventKind::StragglerEnded);
            }
            FaultAction::ProbationEnd => self.replicas[r].end_probation(ev.at),
        }
    }

    /// The surviving replica a checkpoint restores onto: the
    /// least-outstanding healthy replica other than the crashed one,
    /// falling back to any up replica when none is healthy. `None` only
    /// when every other replica is down. On split fleets the primary
    /// pick skips prefill replicas — a restored checkpoint resumes
    /// *decoding*, and a prefill engine would immediately hand it off
    /// again, paying a pointless second hop.
    fn pick_restore_target(&self, crashed: usize, health_aware: bool) -> Option<usize> {
        let up = |i: &usize| *i != crashed && !self.replicas[*i].is_down();
        let by_load = |i: &usize| (self.replicas[*i].outstanding(), *i);
        (0..self.replicas.len())
            .filter(up)
            .filter(|&i| !health_aware || self.replicas[i].health().routable())
            .filter(|&i| !self.two_stage || self.replicas[i].role() != ReplicaRole::Prefill)
            .min_by_key(by_load)
            .or_else(|| (0..self.replicas.len()).filter(up).min_by_key(by_load))
    }

    /// One routing decision for either stage: snapshot the fleet, fold
    /// it down to the stage's candidates, and ask the stage's policy.
    ///
    /// Role is a hard filter: stage 1 (`decode == false`) never picks a
    /// decode-only replica — fresh work starts with its prompt phase —
    /// and stage 2 only picks decode replicas, so a handoff can never
    /// land on a prefill engine that would hand it off again. Health is
    /// a soft one: under health-aware routing non-healthy replicas are
    /// folded out too, unless that would leave the stage no candidate —
    /// then the stage's replicas are routed blind rather than the work
    /// falling through to another role. Folding clears the snapshot's
    /// `active` flag, so every policy ejects the replica unchanged.
    fn pick(&mut self, cr: &ClusterRequest, decode: bool, health_aware: bool) -> usize {
        let mut snapshots = std::mem::take(&mut self.snapshots);
        snapshots.clear();
        snapshots.extend(self.replicas.iter().enumerate().map(|(i, rep)| {
            let mut snap = rep.snapshot(i);
            snap.active &= (rep.role() == ReplicaRole::Decode) == decode;
            snap
        }));
        if health_aware && snapshots.iter().any(|s| s.active && s.health.routable()) {
            for snap in &mut snapshots {
                snap.active &= snap.health.routable();
            }
        }
        let router = if decode {
            &mut self.decode_router
        } else {
            &mut self.router
        };
        let idx = router.route(cr, &snapshots);
        assert!(
            idx < snapshots.len() && (snapshots[idx].active || snapshots.iter().all(|s| !s.active)),
            "router {} picked an unavailable replica {idx}",
            router.name()
        );
        self.snapshots = snapshots;
        idx
    }

    /// Routes one request into the fleet (stage 1): scale decision,
    /// pick, hand over, record queue depth. `fresh` arrivals emit the
    /// `Arrived` lifecycle edge; crash-driven re-entries already did on
    /// first arrival and announced themselves via `RetryScheduled`.
    fn route(&mut self, cr: &ClusterRequest, fresh: bool, run: &mut Run) {
        let req = cr.request;
        self.autoscale(req.arrival, run);
        let idx = self.pick(cr, false, run.plan.health_aware);
        if fresh {
            let (request, tenant) = (req.id as u64, req.tenant);
            run.emit(req.arrival, idx, EventKind::Arrived { request, tenant });
        }
        self.replicas[idx].push(Admission::Fresh(req));
        let outstanding: usize = self.replicas.iter().map(Replica::outstanding).sum();
        run.queue_depth.push((req.arrival, outstanding));
    }

    /// One scale decision, taken at an arrival instant: scale up when
    /// every active replica of some role is backed up, scale down an
    /// idle replica when the fleet is nearly empty.
    ///
    /// The wake pick is cost-aware — among parked candidates of a
    /// backed-up role, the cheapest device wins, ties to the lowest
    /// index — and charges the cold start (spin-up latency plus the
    /// warmup KV transfer over the interconnect) by jumping the woken
    /// replica's clock. On an all-`Unified` homogeneous fleet with the
    /// default zero cold-start this is exactly the original
    /// wake-first-parked-by-index autoscaler.
    fn autoscale(&mut self, now: f64, run: &mut Run) {
        let Some(auto) = self.cfg.autoscale else {
            return;
        };
        let min_replicas = auto.min_replicas.max(1);
        // The active replicas, walked in place (no list per decision).
        let active = || (0..self.replicas.len()).filter(|&i| self.replicas[i].is_active());
        let active_count = active().count();
        let total_outstanding: usize = self.replicas.iter().map(Replica::outstanding).sum();
        // Crashed replicas neither veto a scale-up (their outstanding
        // count is frozen, not low) nor qualify as wake/park candidates
        // — the restart path owns their state.
        let backed_up = |role: ReplicaRole| {
            active()
                .filter(|&i| !self.replicas[i].is_down() && self.replicas[i].role() == role)
                .all(|i| self.replicas[i].outstanding() >= auto.scale_up_outstanding)
        };
        let wake = (0..self.replicas.len())
            .filter(|&i| !self.replicas[i].is_active() && !self.replicas[i].is_down())
            .filter(|&i| backed_up(self.replicas[i].role()))
            .min_by(|&a, &b| {
                self.replicas[a]
                    .hourly_cost()
                    .partial_cmp(&self.replicas[b].hourly_cost())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        if let Some(parked) = wake {
            self.replicas[parked].set_active(true);
            let warmup_bytes =
                auto.warmup_kv_tokens as f64 * self.replicas[parked].kv_bytes_per_token() as f64;
            let cold_start = auto.spin_up_s
                + if auto.warmup_kv_tokens > 0 {
                    self.link.time(warmup_bytes)
                } else {
                    0.0
                };
            if cold_start > 0.0 {
                self.replicas[parked].warm_until(now + cold_start);
            }
            self.peak_active = self.peak_active.max(active_count + 1);
            if self.active_since[parked].is_none() {
                self.active_since[parked] = Some(now);
            }
            run.emit(now, parked, EventKind::ReplicaScaledUp);
            return;
        }
        if active_count > min_replicas && total_outstanding <= auto.scale_down_outstanding {
            // Park the highest-index active replica that is fully
            // drained: a replica still holding queued or running work is
            // never parked mid-flight — it stays a candidate for when it
            // runs dry. On split fleets the last active replica of a
            // role is never parked, so both routing stages always keep a
            // candidate.
            let last_of_role = |i: usize| {
                self.two_stage
                    && !active()
                        .any(|j| j != i && self.replicas[j].role() == self.replicas[i].role())
            };
            if let Some(idle) = active().rev().find(|&i| {
                self.replicas[i].outstanding() == 0
                    && !self.replicas[i].is_down()
                    && !last_of_role(i)
            }) {
                self.replicas[idle].set_active(false);
                if let Some(start) = self.active_since[idle].take() {
                    self.billed_s[idle] += now - start;
                }
                run.emit(now, idle, EventKind::ReplicaScaledDown);
            }
        }
    }

    fn report(&self, run: Run, slo: &SloSpec) -> ClusterReport {
        // Retried, migrated and handed-off requests were restamped to
        // their re-injection/delivery instant (the engines'
        // arrival-order invariant); latency metrics must span from first
        // submission, so patch the original arrival back in. Undisturbed
        // unified runs recorded no origins and every completion passes
        // through unchanged.
        let patch = |mut c: CompletedRequest| {
            if let Some(&origin) = run.origins.get(&c.request.id) {
                c.request.arrival = origin;
            }
            c
        };
        let replicas: Vec<ReplicaReport> = self
            .replicas
            .iter()
            .map(|r| ReplicaReport {
                device: r.device().to_string(),
                assigned: r.assigned(),
                report: ScheduleReport::from_completed(
                    r.completed().iter().copied().map(patch).collect(),
                    r.now(),
                    r.rejected(),
                ),
            })
            .collect();
        let makespan = self
            .replicas
            .iter()
            .map(Replica::now)
            .fold(0.0f64, f64::max);
        // In fleet order: the SLO evaluation counts and summarizes, and
        // a summary depends only on its sample's values.
        let all: Vec<CompletedRequest> = self
            .replicas
            .iter()
            .flat_map(|r| r.completed().iter().copied().map(patch))
            .collect();
        let rejected: usize = self.replicas.iter().map(Replica::rejected).sum();
        // Attribute rejections to tenants for the per-tenant SLO slices.
        let mut rejected_by_tenant: std::collections::BTreeMap<u32, usize> =
            std::collections::BTreeMap::new();
        for rep in &self.replicas {
            for req in rep.rejected_requests() {
                *rejected_by_tenant.entry(req.tenant).or_insert(0) += 1;
            }
        }
        let rejected_by_tenant: Vec<(u32, usize)> = rejected_by_tenant.into_iter().collect();
        let total_tokens: usize = all.iter().map(|c| c.request.output_len).sum();
        let slo_report = slo::evaluate_faulted(
            &all,
            rejected,
            &rejected_by_tenant,
            &run.outcomes(),
            makespan,
            slo,
        );
        // Billing: closed windows plus any window still open at the end
        // of the run, priced per replica at its device's hourly rate. A
        // provisioned-but-parked replica bills nothing.
        let mut billed_hours = 0.0;
        let mut cost_usd = 0.0;
        for (i, rep) in self.replicas.iter().enumerate() {
            let open = self.active_since[i].map_or(0.0, |s| (makespan - s).max(0.0));
            let hours = (self.billed_s[i] + open) / 3600.0;
            billed_hours += hours;
            cost_usd += hours * rep.hourly_cost();
        }
        let per_usd = |tokens_per_s: f64| {
            if cost_usd > 0.0 {
                tokens_per_s * makespan / cost_usd
            } else {
                0.0
            }
        };
        let cost = CostReport {
            fleet_hourly_usd: self.replicas.iter().map(Replica::hourly_cost).sum(),
            billed_hours,
            cost_usd,
            goodput_tokens_per_usd: per_usd(slo_report.goodput_tokens_per_s),
            throughput_tokens_per_usd: per_usd(slo_report.throughput_tokens_per_s),
        };
        ClusterReport {
            completed: all.len(),
            rejected,
            makespan,
            throughput: if makespan > 0.0 {
                total_tokens as f64 / makespan
            } else {
                0.0
            },
            slo: slo_report,
            queue_depth: run.queue_depth,
            peak_active: self.peak_active,
            faults: run.faults,
            handoffs: run.handoffs,
            cost,
            replicas,
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.replicas.len())
            .field("router", &self.router.name())
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{self, ClosedLoopConfig, TraceConfig};
    use crate::router::RouterKind;
    use spec_hwsim::{fleet, DeviceSpec, Fleet};
    use spec_runtime::Workload;
    use spec_tensor::SimRng;

    fn model() -> ModelConfig {
        ModelConfig::deepseek_distill_llama_8b()
    }

    fn trace(rate: f64, count: usize, seed: u64) -> Vec<ClusterRequest> {
        arrivals::generate(
            &TraceConfig::poisson(rate)
                .shapes(vec![Workload::new(2048, 1024, 1)])
                .count(count),
            &mut SimRng::seed(seed),
        )
    }

    fn cluster(n: usize, kind: RouterKind, autoscale: Option<AutoscaleConfig>) -> Cluster {
        let cfg = match autoscale {
            Some(auto) => ClusterConfig::new().autoscale(auto),
            None => ClusterConfig::new(),
        };
        Cluster::from_fleet(
            &model(),
            &fleet::homogeneous(DeviceSpec::a100_80g(), n),
            2048,
            SystemKind::SpeContext,
            cfg,
            kind.build(),
        )
    }

    #[test]
    fn events_order_by_instant_then_class_then_their_own_fifo_rule() {
        use EventClass::{Arrival, Fault, Handoff, Retry};
        let key = |at: f64, class, tie| EventKey { at, class, tie };
        // Equal instants: fault < retry < handoff < arrival, retries in
        // scheduling order, handoffs by request id.
        let in_order = [
            key(0.5, Arrival, 0),
            key(1.0, Fault, 0),
            key(1.0, Retry, 3),
            key(1.0, Retry, 4),
            key(1.0, Handoff, 2),
            key(1.0, Handoff, 9),
            key(1.0, Arrival, 0),
            key(1.5, Fault, 0),
        ];
        for pair in in_order.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{:?} must precede {:?}",
                pair[0],
                pair[1]
            );
        }
        let mut shuffled = in_order;
        shuffled.reverse();
        shuffled.sort();
        assert_eq!(shuffled, in_order);

        // The run's queue pops in that order: retries scheduled for the
        // same instant leave first-in-first-out, ahead of a handoff due
        // at that instant.
        let plan = FaultPlan::none().retry(crate::faults::RetryPolicy {
            jitter_frac: 0.0,
            base_backoff_s: 1.0,
            ..Default::default()
        });
        let mut run = Run::new(&plan, 1, 0, false);
        let req = |id: usize| Request::new(id, 0, 1, 1, 0.0);
        run.retry(req(1), 0.0, 0, 1);
        run.retry(req(2), 0.0, 0, 1);
        run.retry(req(0), 1.0, 0, 1);
        let record = HandoffRecord {
            restorable: spec_runtime::RestorableRequest {
                request: req(7),
                produced: 1,
                start: Some(0.0),
                first_token: Some(0.5),
                preemptions: 0,
            },
            emitted: 0.5,
            kv_bytes: 0.0,
        };
        run.scheduled
            .insert(key(1.0, Handoff, 7), Scheduled::Handoff(record));
        let popped: Vec<(f64, usize)> = std::iter::from_fn(|| run.scheduled.pop_first())
            .map(|(k, what)| match what {
                Scheduled::Retry(r) => (k.at, r.id),
                Scheduled::Handoff(record) => (k.at, record.restorable.request.id),
            })
            .collect();
        assert_eq!(popped, [(1.0, 1), (1.0, 2), (1.0, 7), (2.0, 0)]);
        assert_eq!(run.faults.retries, 3);
    }

    #[test]
    fn retry_budget_runs_out_after_max_attempts_and_keeps_the_origin() {
        let plan = FaultPlan::none().retry(crate::faults::RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        });
        let mut run = Run::new(&plan, 1, 0, false);
        let req = Request::new(9, 3, 128, 64, 1.0);
        assert_eq!(run.consume_attempt(&req), Some(1));
        // A restamped re-entry must not move the recorded origin.
        let restamped = Request {
            arrival: 4.0,
            ..req
        };
        assert_eq!(run.consume_attempt(&restamped), Some(2));
        assert_eq!(run.consume_attempt(&restamped), None, "budget exhausted");
        assert_eq!(run.origins.get(&9), Some(&1.0));
        run.bounce(restamped, 5.0, 0);
        assert_eq!(run.faults.dead_lettered, 1);
        assert_eq!(run.outcomes().dead_lettered, vec![(3, 1)]);
        assert_eq!(run.refused.len(), 1, "the source is owed an on_reject");
    }

    #[test]
    fn every_request_completes_once() {
        for kind in RouterKind::all() {
            let mut c = cluster(3, kind, None);
            let report = c.run(&trace(2.0, 24, 11), &SloSpec::default());
            assert_eq!(report.completed, 24, "router {kind}");
            assert_eq!(report.rejected, 0);
            let assigned: usize = report.replicas.iter().map(|r| r.assigned).sum();
            assert_eq!(assigned, 24);
        }
    }

    #[test]
    fn more_replicas_cut_latency_under_load() {
        let reqs = trace(1.0, 32, 5);
        let one = cluster(1, RouterKind::LeastOutstanding, None).run(&reqs, &SloSpec::default());
        let four = cluster(4, RouterKind::LeastOutstanding, None).run(&reqs, &SloSpec::default());
        assert!(four.slo.latency.p95 < one.slo.latency.p95);
        assert!(four.makespan <= one.makespan);
        assert!(four.slo.attainment >= one.slo.attainment);
    }

    #[test]
    fn heterogeneous_fleet_routes_more_load_to_bigger_gpus() {
        let devices = Fleet::new()
            .with(DeviceSpec::a100_80g(), 1)
            .with(DeviceSpec::rtx4090(), 1)
            .build();
        let mut c = Cluster::from_fleet(
            &model(),
            &devices,
            2048,
            SystemKind::SpeContext,
            ClusterConfig::default(),
            RouterKind::LeastKvPressure.build(),
        );
        let report = c.run(&trace(4.0, 48, 23), &SloSpec::default());
        assert_eq!(report.completed, 48);
        assert_eq!(report.replicas[0].device, "A100-80GB");
        assert!(
            report.replicas[0].assigned > report.replicas[1].assigned,
            "A100 {} vs 4090 {}",
            report.replicas[0].assigned,
            report.replicas[1].assigned
        );
    }

    #[test]
    fn autoscaler_activates_under_burst_and_reports_peak() {
        let auto = AutoscaleConfig {
            min_replicas: 1,
            scale_up_outstanding: 2,
            scale_down_outstanding: 1,
            ..AutoscaleConfig::default()
        };
        let mut c = cluster(4, RouterKind::LeastOutstanding, Some(auto));
        let report = c.run(&trace(8.0, 40, 7), &SloSpec::default());
        assert_eq!(report.completed, 40);
        assert!(
            report.peak_active > 1,
            "burst should trigger scale-up, peak {}",
            report.peak_active
        );
    }

    #[test]
    fn multi_replica_run_is_deterministic() {
        let reqs = trace(4.0, 24, 29);
        let run = || cluster(3, RouterKind::LeastOutstanding, None).run(&reqs, &SloSpec::default());
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_depth_timeline_matches_trace_length() {
        let reqs = trace(2.0, 16, 3);
        let mut c = cluster(2, RouterKind::RoundRobin, None);
        let report = c.run(&reqs, &SloSpec::default());
        assert_eq!(report.queue_depth.len(), 16);
        assert!(report.queue_depth.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn zero_min_replicas_is_clamped_and_never_panics() {
        // Regression: min_replicas 0 used to leave every replica parked,
        // and RoundRobin divided by zero on the empty active set.
        let auto = AutoscaleConfig {
            min_replicas: 0,
            scale_up_outstanding: 1000,
            scale_down_outstanding: 0,
            ..AutoscaleConfig::default()
        };
        let mut c = cluster(3, RouterKind::RoundRobin, Some(auto));
        let report = c.run(&trace(2.0, 12, 13), &SloSpec::default());
        assert_eq!(report.completed, 12);
        assert!(report.peak_active >= 1);
    }

    #[test]
    fn scale_down_skips_replicas_still_holding_work() {
        // Decision-point pin for the park rule: a replica is parked only
        // once fully drained. Replica 1 is the scan's first candidate
        // (highest index) but holds an in-flight request, so the
        // autoscaler must skip it and park the drained replica 0 instead.
        let auto = AutoscaleConfig {
            min_replicas: 1,
            scale_up_outstanding: 1000,
            scale_down_outstanding: 1000, // park-eligible at every arrival
            ..AutoscaleConfig::default()
        };
        let mut c = cluster(2, RouterKind::LeastOutstanding, Some(auto));
        let mk = |id: usize, arrival: f64| ClusterRequest {
            request: spec_runtime::Request {
                id,
                tenant: 0,
                input_len: 2048,
                output_len: 1024,
                arrival,
            },
            session: id as u64,
        };
        c.replicas[1].set_active(true);
        c.replicas[1].push(Admission::Fresh(mk(0, 0.0).request));
        let report = c.run(&[mk(1, 0.001)], &SloSpec::default());
        assert!(
            c.replicas[1].is_active(),
            "a replica holding outstanding work must never be parked"
        );
        assert!(
            !c.replicas[0].is_active(),
            "the drained replica is the one that parks"
        );
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn session_affinity_repins_when_target_parks_mid_trace() {
        let mut c = cluster(2, RouterKind::SessionAffinity, None);
        let mk = |id: usize, arrival: f64| ClusterRequest {
            request: spec_runtime::Request {
                id,
                tenant: 0,
                input_len: 1024,
                output_len: 256,
                arrival,
            },
            session: 42,
        };
        c.run(&[mk(0, 0.0), mk(1, 0.1)], &SloSpec::default());
        let pinned = (0..2)
            .find(|&i| c.replicas[i].assigned() > 0)
            .expect("session routed somewhere");
        assert_eq!(c.replicas[pinned].assigned(), 2, "session pinned");
        let other = 1 - pinned;
        // Park the pinned replica mid-trace: the next request must fall
        // back AND move the pin.
        c.replicas[pinned].set_active(false);
        let t = c.replicas.iter().map(Replica::now).fold(0.0f64, f64::max) + 1.0;
        c.run(&[mk(2, t)], &SloSpec::default());
        assert_eq!(c.replicas[other].assigned(), 1, "fallback target");
        // Unpark the old target and make it strictly more attractive: a
        // stale pin would route back, a moved pin stays on the fallback.
        c.replicas[pinned].set_active(true);
        let t = c.replicas.iter().map(Replica::now).fold(0.0f64, f64::max) + 1.0;
        c.run(&[mk(3, t)], &SloSpec::default());
        assert_eq!(
            c.replicas[other].assigned(),
            2,
            "session must stay re-pinned to its fallback target"
        );
    }

    #[test]
    fn run_source_over_a_slice_matches_run() {
        let reqs = trace(2.0, 24, 41);
        let a = cluster(3, RouterKind::LeastOutstanding, None).run(&reqs, &SloSpec::default());
        let b = cluster(3, RouterKind::LeastOutstanding, None)
            .run_source(&mut arrivals::SliceSource::new(&reqs), &SloSpec::default());
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_generator_matches_materialized_trace() {
        let cfg = TraceConfig::bursty(1.0, 10.0, 0.1)
            .shapes(vec![Workload::new(2048, 1024, 1)])
            .count(32)
            .seed(19);
        let eager = arrivals::generate(&cfg, &mut SimRng::seed(19));
        let a = cluster(2, RouterKind::LeastKvPressure, None).run(&eager, &SloSpec::default());
        let b = cluster(2, RouterKind::LeastKvPressure, None)
            .run_source(&mut cfg.source(), &SloSpec::default());
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_sessions_run_to_completion() {
        let cfg = ClosedLoopConfig::new(4, 3)
            .think(0.5)
            .shapes(vec![Workload::new(1024, 256, 1)])
            .seed(2);
        let mut c = cluster(2, RouterKind::LeastOutstanding, None);
        let report = c.run_source(&mut cfg.source(), &SloSpec::default());
        assert_eq!(report.completed, 12, "4 sessions × 3 turns");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.queue_depth.len(), 12);
        assert!(report.queue_depth.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn closed_loop_turns_depart_after_the_previous_response() {
        // With one session there is never more than one request in the
        // system: each turn's arrival must be at or after the previous
        // turn's finish.
        let cfg = ClosedLoopConfig::new(1, 4)
            .think(0.1)
            .shapes(vec![Workload::new(1024, 256, 1)]);
        let mut c = cluster(1, RouterKind::LeastOutstanding, None);
        let report = c.run_source(&mut cfg.source(), &SloSpec::default());
        assert_eq!(report.completed, 4);
        let done = &report.replicas[0].report.completed;
        for w in done.windows(2) {
            assert!(
                w[1].request.arrival >= w[0].finish,
                "turn at {} departed before the previous finish {}",
                w[1].request.arrival,
                w[0].finish
            );
        }
    }

    #[test]
    fn closed_loop_runs_are_deterministic() {
        let cfg = ClosedLoopConfig::new(6, 2)
            .think(0.2)
            .ramp(1.0)
            .shapes(vec![Workload::new(2048, 512, 1)])
            .seed(5);
        let run = || {
            cluster(3, RouterKind::LeastOutstanding, None)
                .run_source(&mut cfg.source(), &SloSpec::default())
        };
        let reference = run();
        assert_eq!(reference.completed, 12);
        assert_eq!(run(), reference);
    }

    fn split_cluster(prefill: usize, decode: usize, link: LinkSpec) -> Cluster {
        let slots = Fleet::new()
            .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, prefill)
            .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, decode)
            .build_slots();
        Cluster::from_fleet_slots(
            &model(),
            &slots,
            2048,
            SystemKind::SpeContext,
            ClusterConfig::new().disagg(DisaggConfig::new().link(link)),
            RouterKind::LeastOutstanding.build(),
        )
    }

    #[test]
    fn unified_slots_match_from_fleet_exactly() {
        let reqs = trace(2.0, 24, 11);
        let slots = Fleet::new().with(DeviceSpec::a100_80g(), 3).build_slots();
        let a = Cluster::from_fleet_slots(
            &model(),
            &slots,
            2048,
            SystemKind::SpeContext,
            ClusterConfig::new(),
            RouterKind::LeastOutstanding.build(),
        )
        .run(&reqs, &SloSpec::default());
        let b = cluster(3, RouterKind::LeastOutstanding, None).run(&reqs, &SloSpec::default());
        assert_eq!(a, b);
    }

    #[test]
    fn split_fleet_completes_everything_and_counts_the_hops() {
        let reqs = trace(2.0, 16, 11);
        let mut c = split_cluster(1, 1, LinkSpec::infiniband());
        let report = c.run(&reqs, &SloSpec::default());
        assert_eq!(report.completed, 16);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.handoffs.count, 16, "one hop per request");
        assert!(report.handoffs.bytes > 0.0);
        assert!(report.handoffs.transfer_s > 0.0);
        assert!(
            report.replicas[0].report.completed.is_empty(),
            "prefill replicas retire at first token"
        );
        assert_eq!(report.replicas[1].report.completed.len(), 16);
        // Delivered requests were restamped on the decode engine; the
        // report must span latency from first submission.
        for (c, orig) in report.replicas[1].report.completed.iter().zip(&reqs) {
            assert_eq!(c.request.arrival, orig.request.arrival, "origin patched");
            assert!(c.first_token < c.finish);
        }
    }

    #[test]
    fn pricier_links_stretch_decode_latency_not_bytes() {
        let reqs = trace(1.0, 8, 5);
        let fast = split_cluster(1, 1, LinkSpec::nvlink()).run(&reqs, &SloSpec::default());
        let slow = split_cluster(1, 1, LinkSpec::ethernet_100g()).run(&reqs, &SloSpec::default());
        assert_eq!(fast.completed, 8);
        assert_eq!(slow.completed, 8);
        assert_eq!(
            slow.handoffs.bytes, fast.handoffs.bytes,
            "the link prices the hop, it does not resize it"
        );
        assert!(slow.handoffs.transfer_s > fast.handoffs.transfer_s);
        assert!(
            slow.slo.latency.p50 > fast.slo.latency.p50,
            "slow {} vs fast {}",
            slow.slo.latency.p50,
            fast.slo.latency.p50
        );
    }

    #[test]
    fn billing_charges_active_windows_at_device_rates() {
        let reqs = trace(2.0, 8, 3);
        let mut c = cluster(2, RouterKind::LeastOutstanding, None);
        let r = c.run(&reqs, &SloSpec::default());
        let a100 = DeviceSpec::a100_80g().hourly_cost;
        assert!((r.cost.fleet_hourly_usd - 2.0 * a100).abs() < 1e-12);
        // Fixed fleet: both replicas bill the whole run.
        assert!((r.cost.billed_hours - 2.0 * r.makespan / 3600.0).abs() < 1e-9);
        assert!((r.cost.cost_usd - r.cost.billed_hours * a100).abs() < 1e-9);
        assert!(r.cost.goodput_tokens_per_usd > 0.0);
        assert!(r.cost.throughput_tokens_per_usd >= r.cost.goodput_tokens_per_usd);
        // An autoscaled fleet that never wakes its second replica bills
        // roughly half the replica-hours.
        let auto = AutoscaleConfig {
            min_replicas: 1,
            scale_up_outstanding: 1_000_000,
            scale_down_outstanding: 0,
            ..AutoscaleConfig::default()
        };
        let r2 =
            cluster(2, RouterKind::LeastOutstanding, Some(auto)).run(&reqs, &SloSpec::default());
        assert_eq!(r2.completed, 8);
        assert!(
            r2.cost.billed_hours < r.cost.billed_hours,
            "parked time must be free: {} vs {}",
            r2.cost.billed_hours,
            r.cost.billed_hours
        );
    }

    #[test]
    fn cold_start_pricing_delays_woken_replicas() {
        let reqs = trace(8.0, 24, 7);
        let base = AutoscaleConfig {
            min_replicas: 1,
            scale_up_outstanding: 2,
            scale_down_outstanding: 0,
            ..AutoscaleConfig::default()
        };
        let free =
            cluster(3, RouterKind::LeastOutstanding, Some(base)).run(&reqs, &SloSpec::default());
        let cold_cfg = AutoscaleConfig {
            spin_up_s: 20.0,
            warmup_kv_tokens: 2048,
            ..base
        };
        let cold = cluster(3, RouterKind::LeastOutstanding, Some(cold_cfg))
            .run(&reqs, &SloSpec::default());
        assert_eq!(free.completed, 24);
        assert_eq!(cold.completed, 24);
        assert!(free.peak_active > 1, "burst must trigger a wake");
        assert!(
            cold.slo.latency.p95 > free.slo.latency.p95,
            "cold starts must show up in the tail: {} vs {}",
            cold.slo.latency.p95,
            free.slo.latency.p95
        );
    }

    #[test]
    fn session_affinity_keeps_sessions_on_one_replica() {
        let mut c = cluster(3, RouterKind::SessionAffinity, None);
        let reqs = trace(2.0, 30, 17);
        c.run(&reqs, &SloSpec::default());
        // Re-route the same trace through a fresh router and check the
        // mapping is a function of session id.
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let c2 = cluster(3, RouterKind::SessionAffinity, None);
        let mut router = RouterKind::SessionAffinity.build();
        for cr in &reqs {
            let snaps: Vec<ReplicaSnapshot> = c2
                .replicas
                .iter()
                .enumerate()
                .map(|(i, r)| r.snapshot(i))
                .collect();
            let idx = router.route(cr, &snaps);
            if let Some(&prev) = seen.get(&cr.session) {
                assert_eq!(prev, idx, "session {} moved", cr.session);
            }
            seen.insert(cr.session, idx);
        }
    }
}
