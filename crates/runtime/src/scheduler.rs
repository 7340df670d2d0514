//! Continuous-batching request scheduler — the serving system of the
//! paper's Fig. 3 ("Model, Requests → KV cache manager → hardware").
//!
//! Requests arrive over time; the scheduler admits them into the running
//! batch whenever the memory model allows (weights + per-request KV under
//! the system's placement policy), executes one decode iteration for the
//! whole batch, retires finished requests, and repeats. Iteration latency
//! comes from the same per-step dataflow timelines as the throughput
//! benches, so scheduler results and Table-3 results are mutually
//! consistent.
//!
//! # Multi-tenant fairness and preemption
//!
//! Every [`Request`] bills to a tenant. The wait "queue" is one FIFO per
//! tenant; a [`FairConfig`] picks the admission discipline across tenants
//! ([`QueueDiscipline::Fifo`] = global arrival order, exactly the
//! pre-tenant behaviour; [`QueueDiscipline::DeficitRoundRobin`] =
//! weighted deficit round-robin over tenant queues) and an optional
//! [`PreemptionPolicy`]: when an arrived request cannot enter the batch
//! (batch cap or memory) the scheduler may checkpoint a running victim —
//! paying the KV save transfer at the memory model's bytes/token over the
//! device's PCIe bandwidth — admit the waiter, and later restore the
//! victim (paying the restore transfer on re-admission). With a single
//! tenant and preemption off, every discipline reduces to the historical
//! single-FIFO scheduler bit-for-bit ([`Scheduler::run_reference`] keeps
//! that behaviour verbatim and `tests/fairness.rs` pins the equivalence).
//!
//! # The hot path
//!
//! A trace is millions of decode iterations and only thousands of
//! changes to a batch's composition, so the per-iteration path carries
//! no map and no allocation. Per-tenant state is a small vector sorted
//! by tenant id (a running request carries its slot), queue totals are
//! maintained counters, and [`Scheduler::advance_until`] — the one loop
//! behind [`Scheduler::run`] and the `spec_serve` replicas — runs the
//! iterations between two composition changes as one *quiet run*. The
//! clock counts integer ticks of [`spec_telemetry::TICK_NS`] and the
//! [`StepCache`] keeps each block of step prices as running sums, so a
//! stretch of the run costs one difference per block
//! ([`ServingSim::run_ticks`]), not an add per iteration; an admission
//! sweep that falls inside the run is taken without leaving it when it
//! provably closes — most often because the head it picks already
//! carries the verdict "no eligible victim in this batch". Once a closed
//! sweep shows that every later one closes too, until the next head
//! arrives, those are counted, not run. [`Scheduler::step_traced`] is the
//! specification: `tests/advance_equivalence.rs` holds the run to a loop
//! of single steps, state and event stream, bit for bit.
//!
//! # Simulated time
//!
//! The public surface speaks seconds (`f64`): [`Request::arrival`],
//! [`BatchState::now`], the `t` of [`Scheduler::advance_until`] and every
//! report. Inside, the clock is a [`Tick`] count. Durations — a step, a
//! prefill, a KV transfer — are rounded to the nearest tick once, where
//! they are priced. Instants from outside — arrivals, deadlines, skip
//! targets — enter at the first tick at or after them, so that comparing
//! one with the clock reads the same in ticks as in seconds. A
//! straggler's [`BatchState::set_time_scale`] scales the device work
//! charged since the clock last jumped or changed scale, rounded once:
//! a run charged whole lands on the tick its steps charged one by one
//! land on, at any scale.

use crate::serving::{ServingSim, StepCache, SystemKind, Workload};
use serde::{Deserialize, Serialize};
use spec_hwsim::ReplicaRole;
use spec_telemetry::{
    seconds_to_ticks, ticks_to_seconds, Event, EventKind, NullSink, TelemetrySink, Tick,
};
use spec_tensor::PercentileSummary;
use std::collections::VecDeque;

/// Emits a scheduler-scope telemetry event at the clock's tick. Scheduler
/// code cannot know which replica it runs inside, so the replica field is
/// 0; a tagged `RecordingSink` overwrites it.
fn emit<S: TelemetrySink>(sink: &mut S, tick: Tick, kind: EventKind) {
    if sink.enabled() {
        sink.emit(Event {
            tick,
            replica: 0,
            kind,
        });
    }
}

/// The first tick at or after `t` seconds: where an instant from outside
/// enters the clock, so that the clock is below `tick_at(t)` exactly when
/// [`BatchState::now`] is below `t`.
fn tick_at(t: f64) -> Tick {
    let k = seconds_to_ticks(t);
    if k < Tick::MAX && ticks_to_seconds(k) < t {
        k + 1
    } else {
        k
    }
}

/// One serving request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request id (unique per run).
    pub id: usize,
    /// Tenant (user group / workload class) the request bills to; the
    /// fair scheduler arbitrates between tenants. Single-tenant traces
    /// use 0.
    pub tenant: u32,
    /// Prompt tokens.
    pub input_len: usize,
    /// Tokens to generate.
    pub output_len: usize,
    /// Arrival time, seconds.
    pub arrival: f64,
}

impl Request {
    /// Builds a request from its fields, in declaration order — the one
    /// construction site arrival generators share, so adding a field
    /// means fixing one constructor instead of every trace producer.
    pub fn new(id: usize, tenant: u32, input_len: usize, output_len: usize, arrival: f64) -> Self {
        Self {
            id,
            tenant,
            input_len,
            output_len,
            arrival,
        }
    }

    /// Builds a request shaped like one [`Workload`] row (its
    /// `requests` batch-size field is a mixture weight to trace
    /// generators and is ignored here).
    pub fn with_shape(id: usize, tenant: u32, shape: &Workload, arrival: f64) -> Self {
        Self::new(id, tenant, shape.input_len, shape.output_len, arrival)
    }
}

/// A finished request with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// The request.
    pub request: Request,
    /// When decoding started (first admission + prefill end).
    pub start: f64,
    /// When the first output token existed: the end of the request's
    /// first decode iteration (not the decode *start* — the batch
    /// iteration has to finish before a token exists).
    pub first_token: f64,
    /// When the last token was produced.
    pub finish: f64,
    /// Times the request was checkpointed off the batch and later
    /// restored (0 when it ran uninterrupted).
    pub preemptions: usize,
}

impl CompletedRequest {
    /// End-to-end latency (arrival to last token).
    pub fn latency(&self) -> f64 {
        self.finish - self.request.arrival
    }

    /// Queueing + prefill + first decode iteration: arrival until the
    /// first output token exists.
    pub fn time_to_first_token(&self) -> f64 {
        self.first_token - self.request.arrival
    }

    /// Mean time between output tokens: the span from the first token to
    /// the last spread over the `output_len - 1` intervals between them
    /// (0 for single-token outputs, which have no inter-token gap).
    pub fn time_between_tokens(&self) -> f64 {
        let intervals = self.request.output_len.saturating_sub(1);
        if intervals == 0 {
            0.0
        } else {
            (self.finish - self.first_token) / intervals as f64
        }
    }
}

/// How queued requests of different tenants are ordered for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// Global arrival order across all tenants — the historical single
    /// FIFO. A long-generation tenant's backlog delays everyone behind
    /// it.
    Fifo,
    /// Weighted deficit round-robin over per-tenant queues: tenants take
    /// turns in id order, each visit granting `quantum × weight` tokens
    /// of deficit, and a tenant's head is admitted once its remaining
    /// output fits the accumulated deficit. Orders *who goes next*
    /// without ever delaying admission the memory model would allow, so
    /// a single-tenant trace is served exactly as under `Fifo`.
    DeficitRoundRobin,
}

/// Whom to evict when an arrived request cannot enter the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreemptionPolicy {
    /// Never evict; the waiter queues until capacity frees up.
    None,
    /// Evict the running request with the most remaining output tokens
    /// (ties to the smaller id).
    LongestFirst,
    /// Evict from the tenant that has consumed the most decode service
    /// per unit weight this run (ties: most remaining output, then
    /// smaller id) — the deficit-round-robin notion of "most over
    /// served".
    DeficitRoundRobin,
}

/// Multi-tenant fairness knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairConfig {
    /// Admission ordering across tenants.
    pub discipline: QueueDiscipline,
    /// `(tenant, weight)` pairs; unlisted tenants weigh 1. Weights scale
    /// both the DRR deficit quantum and the preemption service ledger.
    pub weights: Vec<(u32, u32)>,
    /// Deficit tokens granted per DRR visit (per unit weight).
    pub quantum_tokens: usize,
    /// Eviction policy when an arrived request cannot enter the batch.
    pub preemption: PreemptionPolicy,
    /// Hard cap on how many times one request may be checkpointed — the
    /// thrash guard that bounds save/restore churn.
    pub max_preemptions: usize,
}

impl Default for FairConfig {
    fn default() -> Self {
        Self {
            discipline: QueueDiscipline::DeficitRoundRobin,
            weights: Vec::new(),
            quantum_tokens: 512,
            preemption: PreemptionPolicy::None,
            max_preemptions: 4,
        }
    }
}

impl FairConfig {
    /// The weight of `tenant` (1 unless listed).
    fn weight(&self, tenant: u32) -> u32 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|&(_, w)| w.max(1))
            .unwrap_or(1)
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Hard cap on concurrent requests.
    pub max_batch: usize,
    /// Decode iterations between admission checks (1 = every step;
    /// larger values model chunked admission).
    pub admission_stride: usize,
    /// Tenant fairness and preemption.
    pub fair: FairConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            admission_stride: 16,
            fair: FairConfig::default(),
        }
    }
}

/// A serving run's aggregate report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Completed requests, in finish order.
    pub completed: Vec<CompletedRequest>,
    /// Total simulated time.
    pub makespan: f64,
    /// Output tokens per second over the whole run.
    pub throughput: f64,
    /// End-to-end latency percentiles (arrival → last token).
    pub latency: PercentileSummary,
    /// Time-to-first-token percentiles (arrival → first token), the
    /// same definition the `spec_serve` SLO accounting uses, so
    /// single-node and cluster reports are directly comparable.
    pub ttft: PercentileSummary,
    /// Time-between-tokens percentiles (first-to-last-token span over
    /// `output_len - 1` intervals).
    pub tbt: PercentileSummary,
    /// Requests that could never be admitted (memory).
    pub rejected: usize,
    /// Checkpoint/restore round-trips paid across all completions.
    pub preemptions: usize,
}

impl ScheduleReport {
    /// Builds the aggregate report from a run's raw outcome.
    pub fn from_completed(
        completed: Vec<CompletedRequest>,
        makespan: f64,
        rejected: usize,
    ) -> Self {
        let total_tokens: usize = completed.iter().map(|c| c.request.output_len).sum();
        let latencies: Vec<f64> = completed.iter().map(CompletedRequest::latency).collect();
        let ttfts: Vec<f64> = completed
            .iter()
            .map(CompletedRequest::time_to_first_token)
            .collect();
        let tbts: Vec<f64> = completed
            .iter()
            .map(CompletedRequest::time_between_tokens)
            .collect();
        Self {
            makespan,
            throughput: if makespan > 0.0 {
                total_tokens as f64 / makespan
            } else {
                0.0
            },
            latency: PercentileSummary::from_samples(&latencies),
            ttft: PercentileSummary::from_samples(&ttfts),
            tbt: PercentileSummary::from_samples(&tbts),
            rejected,
            preemptions: completed.iter().map(|c| c.preemptions).sum(),
            completed,
        }
    }
}

/// The continuous-batching simulator, bound to a system and a
/// [`ServingSim`]'s model/device/budget.
#[derive(Debug, Clone)]
pub struct Scheduler {
    sim: ServingSim,
    system: SystemKind,
    cfg: SchedulerConfig,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    req: Request,
    /// Index of the request's tenant in [`BatchState::tenants`].
    slot: usize,
    produced: usize,
    start: f64,
    first_token: Option<f64>,
    preemptions: usize,
}

/// One queued unit of work: a fresh arrival (`produced == 0`), a
/// checkpointed request awaiting restore, or a delivered prefill
/// handoff whose KV is already device-resident (`preloaded`).
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    req: Request,
    /// `req.arrival` on the clock.
    at: Tick,
    /// Global push sequence — the FIFO discipline's ordering key.
    seq: u64,
    /// Tokens already produced before the last checkpoint (0 = fresh).
    produced: usize,
    /// Original decode start, kept across checkpoints.
    start: Option<f64>,
    /// When the first token was produced, kept across checkpoints.
    first_token: Option<f64>,
    /// Times this request has been checkpointed so far.
    preemptions: usize,
    /// Whether the entry's KV is already resident on this engine: a
    /// prefill handoff whose interconnect hop (paid by the cluster)
    /// priced device placement too, so admission charges nothing. A
    /// preemption clears it — later restores pay PCIe like any
    /// checkpoint.
    preloaded: bool,
}

/// One tenant's wait queue plus its fairness ledgers — one slot of
/// [`BatchState::tenants`].
#[derive(Debug, Clone, Default)]
struct TenantQueue {
    tenant: u32,
    /// The tenant's [`FairConfig::weight`], resolved by the scheduler the
    /// first time it meets the slot (0 until then; real weights are ≥ 1).
    weight: u64,
    queue: VecDeque<QueueEntry>,
    /// DRR deficit, in output tokens.
    deficit: u64,
    /// Decode service consumed this run, in output tokens (the
    /// preemption policy's "over-served" signal).
    served: u64,
    /// The cached verdict of a quiet run's sweeps: the id of the head
    /// that found **no eligible victim** in the batch now running
    /// ([`Scheduler::preempt_for`] sets it, and says why it may). Keyed
    /// by the head, so a queue whose head changed carries no verdict;
    /// every change to the running batch clears it
    /// ([`BatchState::batch_changed`]). It lives here, not in a
    /// slot-indexed side table, because a tenant inserted in front
    /// shifts the slots.
    no_victim_for: Option<usize>,
    /// Last-emitted queue-depth and deficit gauges, so traced runs emit
    /// gauges on *change* rather than on every micro-step. Never read
    /// unless a sink is enabled.
    gauged_depth: Option<u64>,
    gauged_deficit: Option<u64>,
}

impl TenantQueue {
    /// Whether the head of the queue has arrived by `now`.
    fn head_arrived(&self, now: Tick) -> bool {
        self.queue.front().is_some_and(|e| e.at <= now)
    }
}

/// A request checkpointed before a crash: its host-side checkpoint
/// survives the process, so it can restore on another engine by paying
/// the Eq.-6 KV re-transfer instead of a fresh prefill. Carries the
/// timing history the destination needs for honest latency accounting.
#[derive(Debug, Clone, Copy)]
pub struct RestorableRequest {
    /// The request itself (arrival restamped on re-injection).
    pub request: Request,
    /// Tokens produced before the last checkpoint.
    pub produced: usize,
    /// Original decode start, kept across checkpoints.
    pub start: Option<f64>,
    /// When the first token was produced, if any.
    pub first_token: Option<f64>,
    /// Times this request has been checkpointed so far.
    pub preemptions: usize,
}

/// A request a `Prefill`-role engine retired at its first token,
/// packaged for the KV hop to a decode replica. The restorable carries
/// the request with its *original* arrival plus the timing history
/// (start, first token, produced = 1) the decode side needs for honest
/// latency accounting; `kv_bytes` is the resident KV under the sparse
/// budget — exactly what the interconnect moves, and the quantity the
/// `table3_disagg` bench shows shrinking versus dense baselines.
#[derive(Debug, Clone, Copy)]
pub struct HandoffRecord {
    /// The request plus its produced/timing history.
    pub restorable: RestorableRequest,
    /// The prefill engine's clock when the handoff was emitted (the
    /// request's first-token time).
    pub emitted: f64,
    /// Device-resident KV bytes to move over the interconnect.
    pub kv_bytes: f64,
}

/// Everything a crash tears out of an engine — see
/// [`BatchState::crash_dump`].
#[derive(Debug, Clone, Default)]
pub struct CrashedWork {
    /// Requests whose device-resident state died with the process: the
    /// running batch plus queued fresh arrivals. They restart from
    /// scratch (the cluster's retry path).
    pub lost: Vec<Request>,
    /// Queued entries holding host-side checkpoints (preempted before
    /// the crash): eligible for restore on a surviving engine.
    pub checkpointed: Vec<RestorableRequest>,
}

/// How a request enters an engine's wait queue — the input of
/// [`BatchState::push_traced`].
#[derive(Debug, Clone, Copy)]
pub enum Admission {
    /// A fresh arrival, stamped at its own arrival: nothing produced
    /// yet, so admission into the batch charges a prefill.
    Fresh(Request),
    /// A checkpoint rescued from a crashed engine (cluster failover),
    /// restamped to `at` for the destination's arrival-order contract:
    /// admission into the batch charges the Eq.-6 KV re-transfer — a
    /// restore, not a fresh prefill.
    Restored {
        /// The rescued request with its decode progress.
        checkpoint: RestorableRequest,
        /// When it reaches this engine.
        at: f64,
    },
    /// A delivered prefill handoff whose KV the interconnect already
    /// placed on this engine: admission into the batch charges nothing —
    /// the cluster priced the whole hop, GPUDirect-style, when it
    /// delayed delivery by the link time — and emits
    /// [`EventKind::Restored`] rather than a fresh admission. A later
    /// preemption moves the KV host-side, so re-restores pay PCIe like
    /// any checkpoint.
    Preloaded {
        /// The handed-off request with its first-token history.
        handoff: RestorableRequest,
        /// When its KV finished arriving.
        at: f64,
    },
}

/// The incremental state of one continuous-batching engine: per-tenant
/// wait queues, running batch, completions and the local clock.
///
/// [`Scheduler::run`] drives a `BatchState` to completion over a whole
/// trace; the `spec_serve` cluster simulator instead drives one per
/// replica, event by event, feeding arrivals in as its router assigns
/// them. Both go through [`Scheduler::advance_until`], so a 1-replica
/// cluster reproduces `Scheduler::run` bit-for-bit.
#[derive(Debug, Clone)]
pub struct BatchState {
    /// Per-tenant state, sorted by tenant id (tenants are few: a slot is
    /// found by binary search once per push and carried by index after).
    tenants: Vec<TenantQueue>,
    /// Entries across all tenant queues.
    queued: usize,
    /// Final-length KV tokens across all tenant queues, each request
    /// capped at `kv_token_cap` — what [`BatchState::queued_kv_tokens`]
    /// reports.
    queued_kv_tokens: usize,
    kv_token_cap: usize,
    running: Vec<Running>,
    completed: Vec<CompletedRequest>,
    rejected: Vec<Request>,
    /// The clock: `base` plus the device work charged since, scaled by
    /// `time_scale` and rounded once ([`BatchState::charge`]).
    now: Tick,
    /// The clock when it last jumped or changed scale.
    base: Tick,
    /// Nominal (unscaled) ticks of device work charged since `base`.
    charged: Tick,
    iter: usize,
    /// Whether the admission sweep for the current iteration already
    /// closed (hit a future arrival, a full batch, or an empty queue).
    sweep_done: bool,
    last_arrival: f64,
    next_seq: u64,
    /// The tenant id the DRR rotation visited last.
    drr_last: Option<u32>,
    /// Last-emitted batch-size gauge (traced runs only).
    gauged_batch: Option<u64>,
    /// Straggler multiplier on device-priced costs (1.0 = nominal).
    time_scale: f64,
    /// Which phase this engine serves. `Unified` (the default) is the
    /// monolithic behaviour, bit-identical to the pre-role scheduler.
    role: ReplicaRole,
    /// Handoffs a `Prefill`-role engine has emitted and nobody
    /// collected yet.
    handoffs: Vec<HandoffRecord>,
    /// Bumped on every change to the running batch
    /// ([`BatchState::batch_changed`]).
    batch_epoch: u64,
}

impl Default for BatchState {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            queued: 0,
            queued_kv_tokens: 0,
            kv_token_cap: usize::MAX,
            running: Vec::new(),
            completed: Vec::new(),
            rejected: Vec::new(),
            now: 0,
            base: 0,
            charged: 0,
            iter: 0,
            sweep_done: false,
            last_arrival: 0.0,
            next_seq: 0,
            drr_last: None,
            gauged_batch: None,
            time_scale: 1.0,
            role: ReplicaRole::Unified,
            handoffs: Vec::new(),
            batch_epoch: 0,
        }
    }
}

impl BatchState {
    /// An empty engine at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine's straggler multiplier on device-priced costs.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Which phase this engine serves.
    pub fn role(&self) -> ReplicaRole {
        self.role
    }

    /// Sets the engine's role. `Unified` runs the whole request
    /// lifecycle (the default, bit-identical to the pre-role
    /// scheduler); `Prefill` retires each request at its first token
    /// into a [`HandoffRecord`]; `Decode` admits delivered handoffs
    /// ([`Admission::Preloaded`]) and runs the remaining iterations.
    pub fn set_role(&mut self, role: ReplicaRole) {
        self.role = role;
    }

    /// Caps what one queued request counts towards
    /// [`BatchState::queued_kv_tokens`]: a sparse system keeps at most
    /// its retrieval budget resident per request. Set before any work is
    /// pushed (the default is uncapped).
    pub fn set_kv_token_cap(&mut self, cap: usize) {
        debug_assert!(!self.has_work(), "cap set after work was pushed");
        self.kv_token_cap = cap;
    }

    /// Committed KV demand of the wait queue: every queued request at
    /// its final length, capped per request. Maintained on every queue
    /// change, so a router's per-arrival snapshot never walks the queue.
    pub fn queued_kv_tokens(&self) -> usize {
        self.queued_kv_tokens
    }

    /// Drains the handoffs a `Prefill`-role engine has emitted since
    /// the last call, in emission order, keeping the buffer for the
    /// next ones.
    pub fn drain_handoffs(&mut self) -> std::vec::Drain<'_, HandoffRecord> {
        self.handoffs.drain(..)
    }

    /// Sets the straggler multiplier: prefill, decode iterations and KV
    /// checkpoint/restore transfers cost `scale`× their nominal time.
    /// The idle clock jump to the next arrival is *not* scaled (waiting
    /// is not compute). A change of scale rebases the clock: the work
    /// charged from then on is scaled as one sum and rounded to the tick
    /// once (the module's "Simulated time"). At the default 1.0 the clock
    /// adds integer ticks, so an engine that never straggles is
    /// bit-identical to one without the knob.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is finite and positive.
    pub fn set_time_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time_scale must be finite and positive, got {scale}"
        );
        if scale != self.time_scale {
            self.rebase(self.now);
            self.time_scale = scale;
        }
    }

    /// Jumps the clock forward to `t` if it lags behind (restart after a
    /// crash outage: the engine was down, not computing).
    pub fn skip_to(&mut self, t: f64) {
        let at = tick_at(t);
        if at > self.now {
            self.rebase(at);
        }
    }

    /// Charges `nominal` ticks of device work. The clock reads `base`
    /// plus the scaled sum of the work charged since, rounded once: so it
    /// does not matter how that work is split into charges — a quiet run
    /// charged whole lands where its steps charged one by one land — and
    /// at scale 1 this is integer addition.
    fn charge(&mut self, nominal: Tick) {
        self.charged += nominal;
        self.now = self.base + self.scaled(self.charged);
    }

    /// `nominal` ticks of work at the current scale.
    fn scaled(&self, nominal: Tick) -> Tick {
        if self.time_scale == 1.0 {
            nominal
        } else {
            (nominal as f64 * self.time_scale).round() as Tick
        }
    }

    /// Puts the clock at `at` and starts charging afresh from there: a
    /// jump (waiting, not computing) or a change of scale.
    fn rebase(&mut self, at: Tick) {
        (self.now, self.base, self.charged) = (at, at, 0);
    }

    /// How many nominal ticks must still be charged before the clock
    /// reads `stop` or later: 0 if it already does, `Tick::MAX` for a
    /// `stop` it never reaches.
    fn work_until(&self, stop: Tick) -> Tick {
        if stop <= self.now {
            return 0;
        }
        if stop == Tick::MAX {
            return Tick::MAX;
        }
        let wall = stop - self.base;
        let total = if self.time_scale == 1.0 {
            wall
        } else {
            // The least `x` with `scaled(x) >= wall`: the inverse's
            // guess, then corrected against the rounding.
            let mut x = ((wall as f64 - 0.5) / self.time_scale).ceil().max(0.0) as Tick;
            while self.scaled(x) < wall {
                x += 1;
            }
            while x > 0 && self.scaled(x - 1) >= wall {
                x -= 1;
            }
            x
        };
        total - self.charged
    }

    /// Simulates a process crash: tears all queued and running work out
    /// of the engine and resets the admission sweep. Queued entries
    /// holding a host-side checkpoint (`produced > 0`, written by a
    /// preemption before the crash) survive as restorable; everything
    /// else — the running batch, whose device state died with the
    /// process, and fresh queued arrivals — is lost and must retry from
    /// scratch. Completions, rejections and the clock are untouched.
    /// Ordering is deterministic: the running batch in admission order,
    /// then queues in tenant-id order.
    pub fn crash_dump(&mut self) -> CrashedWork {
        let mut out = CrashedWork::default();
        for r in self.running.drain(..) {
            out.lost.push(r.req);
        }
        for q in &mut self.tenants {
            for e in q.queue.drain(..) {
                // Preloaded handoffs live in device memory only — no
                // host checkpoint survives the crash.
                if e.produced > 0 && !e.preloaded {
                    out.checkpointed.push(RestorableRequest {
                        request: e.req,
                        produced: e.produced,
                        start: e.start,
                        first_token: e.first_token,
                        preemptions: e.preemptions,
                    });
                } else {
                    out.lost.push(e.req);
                }
            }
            q.deficit = 0;
        }
        self.queued = 0;
        self.queued_kv_tokens = 0;
        self.sweep_done = false;
        self.batch_changed();
        out
    }

    /// Forgets every cached "no eligible victim" verdict and moves the
    /// [batch epoch](BatchState::batch_epoch) on. Called wherever the
    /// running batch gains or loses a request — admission, a
    /// preemption's removal, a completion or handoff retirement, a
    /// crash — because a verdict is a statement about one batch.
    fn batch_changed(&mut self) {
        self.batch_epoch = self.batch_epoch.wrapping_add(1);
        for q in &mut self.tenants {
            q.no_victim_for = None;
        }
    }

    /// Enqueues an arrived request on its tenant's queue.
    ///
    /// # Panics
    ///
    /// Panics if `req` arrives earlier than a previously pushed request
    /// (arrivals must be fed in nondecreasing order).
    pub fn push(&mut self, req: Request) {
        self.push_traced(Admission::Fresh(req), &mut NullSink);
    }

    /// The one way work enters the wait queue: enqueues `admission` on
    /// its tenant's queue, stamped at its [`Admission`]'s instant, and
    /// emits [`EventKind::Enqueued`] there. Re-entries keep their
    /// produced tokens and timing history; the caller owns mapping
    /// latency metrics back to the original arrival.
    ///
    /// # Panics
    ///
    /// Panics if the admission's instant precedes a previously pushed
    /// request (work must be fed in nondecreasing order).
    pub fn push_traced<S: TelemetrySink>(&mut self, admission: Admission, sink: &mut S) {
        let (history, at, preloaded) = match admission {
            Admission::Fresh(request) => {
                let fresh = RestorableRequest {
                    request,
                    produced: 0,
                    start: None,
                    first_token: None,
                    preemptions: 0,
                };
                (fresh, request.arrival, false)
            }
            Admission::Restored { checkpoint, at } => (checkpoint, at, false),
            Admission::Preloaded { handoff, at } => (handoff, at, true),
        };
        let req = Request {
            arrival: at,
            ..history.request
        };
        assert!(
            req.arrival >= self.last_arrival,
            "requests must be pushed in arrival order ({} after {})",
            req.arrival,
            self.last_arrival
        );
        self.last_arrival = req.arrival;
        let at = tick_at(at);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slot_of(req.tenant);
        self.enqueue(
            slot,
            QueueEntry {
                req,
                at,
                seq,
                produced: history.produced,
                start: history.start,
                first_token: history.first_token,
                preemptions: history.preemptions,
                preloaded,
            },
            false,
        );
        emit(
            sink,
            at,
            EventKind::Enqueued {
                request: req.id as u64,
                tenant: req.tenant,
            },
        );
    }

    /// The slot of `tenant`, created on first sight. Slots stay sorted by
    /// tenant id, so a new tenant shifts the slots behind it — and the
    /// running batch's indices with them.
    fn slot_of(&mut self, tenant: u32) -> usize {
        match self.tenants.binary_search_by_key(&tenant, |q| q.tenant) {
            Ok(slot) => slot,
            Err(slot) => {
                let fresh = TenantQueue {
                    tenant,
                    ..TenantQueue::default()
                };
                self.tenants.insert(slot, fresh);
                for r in &mut self.running {
                    if r.slot >= slot {
                        r.slot += 1;
                    }
                }
                slot
            }
        }
    }

    /// What one queued request counts towards `queued_kv_tokens`.
    fn kv_tokens(&self, req: &Request) -> usize {
        (req.input_len + req.output_len).min(self.kv_token_cap)
    }

    /// Puts `entry` on `slot`'s queue — at the front for a checkpointed
    /// victim, which resumes before its tenant's fresh arrivals.
    fn enqueue(&mut self, slot: usize, entry: QueueEntry, front: bool) {
        self.queued += 1;
        self.queued_kv_tokens += self.kv_tokens(&entry.req);
        let queue = &mut self.tenants[slot].queue;
        if front {
            queue.push_front(entry);
        } else {
            queue.push_back(entry);
        }
    }

    /// Pops `slot`'s head (admitted or rejected), clearing the tenant's
    /// deficit when its queue runs empty.
    fn dequeue(&mut self, slot: usize) -> QueueEntry {
        let q = &mut self.tenants[slot];
        let entry = q.queue.pop_front().expect("selected head");
        if q.queue.is_empty() {
            q.deficit = 0;
        }
        self.queued -= 1;
        self.queued_kv_tokens -= self.kv_tokens(&entry.req);
        entry
    }

    /// Whether any request is still queued or decoding.
    pub fn has_work(&self) -> bool {
        !self.running.is_empty() || self.queued > 0
    }

    /// The engine's local clock, seconds.
    pub fn now(&self) -> f64 {
        ticks_to_seconds(self.now)
    }

    /// Queued (not yet admitted or checkpointed) requests.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Requests currently decoding.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Queued + running requests — the router's load signal.
    pub fn outstanding(&self) -> usize {
        self.queued() + self.running.len()
    }

    /// A count of the changes to the running batch so far: while it
    /// reads the same, [`BatchState::running_requests`] yields the same
    /// requests, so a mirror of the batch synced at an epoch stays synced
    /// until the epoch moves.
    pub fn batch_epoch(&self) -> u64 {
        self.batch_epoch
    }

    /// The requests currently decoding, in admission order.
    pub fn running_requests(&self) -> impl Iterator<Item = &Request> {
        self.running.iter().map(|r| &r.req)
    }

    /// Requests finished so far, in finish order.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Requests rejected so far (could never be admitted, even alone).
    pub fn rejected(&self) -> usize {
        self.rejected.len()
    }

    /// The rejected requests themselves (per-tenant SLO accounting needs
    /// their tenant ids, not just the count).
    pub fn rejected_requests(&self) -> &[Request] {
        &self.rejected
    }

    /// Consumes the state into `(completed, rejected)`.
    fn into_outcome(self) -> (Vec<CompletedRequest>, usize) {
        (self.completed, self.rejected.len())
    }

    /// The earliest head arrival across tenant queues.
    fn earliest_head_arrival(&self) -> Option<Tick> {
        self.tenants
            .iter()
            .filter_map(|q| q.queue.front())
            .map(|e| e.at)
            .min()
    }

    /// Emits per-tick gauges (queue depths, DRR deficits, batch size)
    /// for every value that changed since the last emission. Callers
    /// guard on `sink.enabled()`, so untraced runs never touch the
    /// shadow.
    fn emit_gauges<S: TelemetrySink>(&mut self, sink: &mut S) {
        let now = self.now;
        for q in &mut self.tenants {
            let (tenant, depth, deficit) = (q.tenant, q.queue.len() as u64, q.deficit);
            if q.gauged_depth != Some(depth) {
                q.gauged_depth = Some(depth);
                emit(sink, now, EventKind::QueueDepth { tenant, depth });
            }
            if q.gauged_deficit != Some(deficit) {
                q.gauged_deficit = Some(deficit);
                emit(sink, now, EventKind::DrrDeficit { tenant, deficit });
            }
        }
        let batch = self.running.len() as u64;
        if self.gauged_batch != Some(batch) {
            self.gauged_batch = Some(batch);
            emit(sink, now, EventKind::RunningBatch { size: batch });
        }
    }
}

impl Scheduler {
    /// Creates a scheduler for `system` on the given serving simulator.
    pub fn new(sim: ServingSim, system: SystemKind, cfg: SchedulerConfig) -> Self {
        Self { sim, system, cfg }
    }

    /// The underlying serving simulator.
    pub fn sim(&self) -> &ServingSim {
        &self.sim
    }

    /// Runs the request trace to completion.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty or not sorted by arrival, or if
    /// the config's `admission_stride` is zero.
    pub fn run(&self, requests: &[Request]) -> ScheduleReport {
        self.run_traced(requests, &mut NullSink)
    }

    /// [`Scheduler::run`] with telemetry: every lifecycle edge and gauge
    /// transition of the run flows into `sink`. With [`NullSink`] this
    /// *is* `run` — the instrumentation monomorphizes away.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty or not sorted by arrival, or if
    /// the config's `admission_stride` is zero.
    fn run_traced<S: TelemetrySink>(&self, requests: &[Request], sink: &mut S) -> ScheduleReport {
        assert!(!requests.is_empty(), "no requests");
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival"
        );
        let mut state = BatchState::new();
        for req in requests {
            state.push_traced(Admission::Fresh(*req), sink);
        }
        self.advance_until(&mut state, &mut StepCache::new(), f64::INFINITY, sink);
        let makespan = state.now();
        let (completed, rejected) = state.into_outcome();
        ScheduleReport::from_completed(completed, makespan, rejected)
    }

    /// The pre-tenant scheduler, kept verbatim as the pinning reference
    /// (the same convention as the selection engine's `*_reference`
    /// kernels): one global FIFO, no preemption. `tests/fairness.rs`
    /// property-tests that [`Scheduler::run`] under a single tenant with
    /// preemption off reproduces this bit-for-bit, whatever the
    /// discipline.
    pub fn run_reference(&self, requests: &[Request]) -> ScheduleReport {
        assert!(!requests.is_empty(), "no requests");
        assert!(
            self.cfg.admission_stride > 0,
            "admission_stride must be positive"
        );
        let mut queue: VecDeque<Request> = requests.iter().copied().collect();
        let mut running: Vec<Running> = Vec::new();
        let mut completed: Vec<CompletedRequest> = Vec::new();
        let mut rejected = 0usize;
        let mut now: Tick = 0;
        let mut iter = 0usize;
        let mut cache = StepCache::new();
        while !queue.is_empty() || !running.is_empty() {
            if iter.is_multiple_of(self.cfg.admission_stride) {
                // Admission sweep: pull every admissible head.
                while let Some(&head) = queue.front() {
                    let arrival = tick_at(head.arrival);
                    if arrival > now && running.is_empty() {
                        now = arrival;
                    }
                    if arrival > now || running.len() >= self.cfg.max_batch {
                        break;
                    }
                    if !self.admissible(&running, &head) {
                        if running.is_empty() {
                            rejected += 1;
                            queue.pop_front();
                            continue;
                        }
                        break;
                    }
                    queue.pop_front();
                    now += self.prefill_time(&head, &mut cache);
                    running.push(Running {
                        req: head,
                        slot: 0,
                        produced: 0,
                        start: ticks_to_seconds(now),
                        first_token: None,
                        preemptions: 0,
                    });
                }
            }
            if running.is_empty() {
                iter += 1;
                continue;
            }
            now += self.iteration_time(&running, &mut cache);
            iter += 1;
            let secs = ticks_to_seconds(now);
            for r in running.iter_mut() {
                r.produced += 1;
                if r.first_token.is_none() {
                    r.first_token = Some(secs);
                }
            }
            running.retain(|r| {
                if r.produced >= r.req.output_len {
                    completed.push(CompletedRequest {
                        request: r.req,
                        start: r.start,
                        first_token: r.first_token.expect("token after iteration"),
                        finish: secs,
                        preemptions: r.preemptions,
                    });
                    false
                } else {
                    true
                }
            });
        }
        ScheduleReport::from_completed(completed, ticks_to_seconds(now), rejected)
    }

    /// Executes one scheduling micro-step: a single admission decision
    /// while an admission sweep is open, otherwise a single decode
    /// iteration for the running batch (a step with an empty batch only
    /// advances the admission phase). This is the loop body of
    /// [`Scheduler::run`] split at decision granularity, exposed so
    /// external event loops (the `spec_serve` replicas) can interleave
    /// stepping with routing: the clock never advances by more than one
    /// admission decision (a preemptive admission charges the victim's
    /// checkpoint and the waiter's prefill/restore as one decision) or
    /// one iteration per call, so a router can inject an arrival the
    /// moment the replica's clock passes it — exactly what the closed
    /// loop sees with the full trace queued upfront.
    ///
    /// # Panics
    ///
    /// Panics if the config's `admission_stride` is zero.
    pub fn step(&self, state: &mut BatchState, cache: &mut StepCache) {
        self.step_traced(state, cache, &mut NullSink);
    }

    /// [`Scheduler::step`] with telemetry: admissions, preemptions,
    /// first tokens, completions and rejections are emitted as they
    /// happen, and gauge transitions after every decision/iteration.
    /// With [`NullSink`] this *is* `step` — the same machine code.
    ///
    /// # Panics
    ///
    /// Panics if the config's `admission_stride` is zero.
    pub fn step_traced<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        sink: &mut S,
    ) {
        assert!(
            self.cfg.admission_stride > 0,
            "admission_stride must be positive"
        );
        // Admission: one decision per call while the sweep is open.
        if state.iter.is_multiple_of(self.cfg.admission_stride) && !state.sweep_done {
            self.admission_decision(state, cache, sink);
            if sink.enabled() {
                state.emit_gauges(sink);
            }
            return;
        }
        if state.running.is_empty() {
            state.iter += 1;
            state.sweep_done = false;
            return;
        }
        // One decode iteration for the whole batch.
        let nominal = self.iteration_time(&state.running, cache);
        state.charge(nominal);
        state.iter += 1;
        state.sweep_done = false;
        let (now, secs) = (state.now, state.now());
        for r in state.running.iter_mut() {
            r.produced += 1;
            if r.first_token.is_none() {
                r.first_token = Some(secs);
                emit(
                    sink,
                    now,
                    EventKind::FirstToken {
                        request: r.req.id as u64,
                        tenant: r.req.tenant,
                    },
                );
            }
        }
        for r in &state.running {
            state.tenants[r.slot].served += 1;
        }
        let role = state.role;
        let batch = state.running.len();
        let completed = &mut state.completed;
        let handoffs = &mut state.handoffs;
        state.running.retain(|r| {
            if r.produced >= r.req.output_len {
                completed.push(CompletedRequest {
                    request: r.req,
                    start: r.start,
                    first_token: r.first_token.expect("token after iteration"),
                    finish: secs,
                    preemptions: r.preemptions,
                });
                emit(
                    sink,
                    now,
                    EventKind::Completed {
                        request: r.req.id as u64,
                        tenant: r.req.tenant,
                    },
                );
                false
            } else if role == ReplicaRole::Prefill {
                // A prefill engine is done with a request the moment its
                // first token exists: retire it into a handoff carrying
                // the resident KV (sparse-budget-capped) for the decode
                // hop. Requests whose whole output was that one token
                // completed above and never pay the hop.
                let kv_bytes = self.resident_tokens(&r.req, r.produced) as f64
                    * self.sim.memory_model().kv_token_total_bytes();
                handoffs.push(HandoffRecord {
                    restorable: RestorableRequest {
                        request: r.req,
                        produced: r.produced,
                        start: Some(r.start),
                        first_token: r.first_token,
                        preemptions: r.preemptions,
                    },
                    emitted: secs,
                    kv_bytes,
                });
                emit(
                    sink,
                    now,
                    EventKind::HandoffEmitted {
                        request: r.req.id as u64,
                        tenant: r.req.tenant,
                        bytes: kv_bytes as u64,
                    },
                );
                false
            } else {
                true
            }
        });
        if state.running.len() != batch {
            state.batch_changed();
        }
        if sink.enabled() {
            state.emit_gauges(sink);
        }
    }

    /// Runs the engine until its clock reaches `t` or it runs out of work
    /// (`f64::INFINITY` drains it) — exactly
    /// `while state.has_work() && state.now() < t { step_traced }`, one
    /// micro-step may overshoot `t` — and the loop every driver shares:
    /// [`Scheduler::run`] and the `spec_serve` replicas. The loop
    /// of single steps is the specification; this is its fast form, held
    /// to it state for state and event for event by
    /// `tests/advance_equivalence.rs`.
    ///
    /// Between two changes of the batch's composition nothing but the
    /// clock moves: nobody produces a first token or finishes, and
    /// nothing outside can reach the state. Those iterations are one
    /// *quiet run*: the batch's mean length rises by exactly one per
    /// iteration, so the run reads the batch's row of the step table,
    /// whose blocks hold running sums of tick prices
    /// ([`ServingSim::run_ticks`]): a stretch whose end is known — the
    /// run's last iteration, or the next sweep that will run — costs one
    /// difference per block, and "until the clock reaches `t`" is a walk
    /// over block partials and a search inside one block. The clock is
    /// charged once per stretch, which lands where single steps land
    /// ([`BatchState::set_time_scale`]), and the per-request and
    /// per-tenant token counters are settled once at the end.
    ///
    /// An admission sweep that falls due inside a run (every
    /// `admission_stride`-th iteration) does not end it. The run takes
    /// the tenant pick exactly as a single step would — DRR deficits and
    /// the rotation move per visit, and a traced run emits the same
    /// gauge transitions at the same ticks — and keeps going when the
    /// sweep provably closes: the queue is empty, no head has arrived,
    /// or the picked head carries the cached verdict "no eligible victim
    /// in this batch" (`TenantQueue::no_victim_for`). Once a sweep closes
    /// in a state no later sweep of the run can leave — under DRR, every
    /// arrived head carries its verdict and its tenant's deficit covers
    /// it; under FIFO, the pick and its verdict simply stay — the sweeps
    /// up to the next head's arrival are counted, by division, not run,
    /// and DRR's rotation moves on by their count modulo the arrived
    /// tenants; in that state no gauge can move, so traced runs count
    /// them too. Only a sweep that might admit or preempt settles the
    /// counters and falls into the ordinary decision. The clock test
    /// comes first: a sweep at a boundary reached with `now >= t`
    /// belongs to the next call, after the caller has pushed whatever
    /// arrives at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the config's `admission_stride` is zero.
    pub fn advance_until<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        t: f64,
        sink: &mut S,
    ) {
        let t = tick_at(t);
        while state.has_work() && state.now < t {
            let quiet = self.quiet_iterations(state);
            if quiet == 0 {
                self.step_traced(state, cache, sink);
            } else if let Some(slot) = self.quiet_run(state, cache, t, quiet, sink) {
                self.place_waiter(state, cache, slot, sink);
                if sink.enabled() {
                    state.emit_gauges(sink);
                }
            }
        }
    }

    /// Up to `quiet` decode iterations of an unchanging batch, stopping
    /// early once the clock reaches `t` — the body of
    /// [`Scheduler::advance_until`], which documents it. Returns the slot
    /// of the waiter an admission sweep inside the run picked and could
    /// not dismiss; the counters are settled, the caller places it.
    ///
    /// The run goes in stretches. A stretch ends at the run's last
    /// iteration, at the next sweep that will run, or, while sweeps
    /// close, once the clock reaches `closed.until`; and in any case once
    /// it reaches `t`. The sweeps a stretch passed closed and are counted.
    fn quiet_run<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        t: Tick,
        quiet: usize,
        sink: &mut S,
    ) -> Option<usize> {
        let stride = self.cfg.admission_stride;
        let mut closed = ClosedSweeps::NONE;
        // An open sweep at the run's first iteration comes first.
        if state.iter.is_multiple_of(stride) && !state.sweep_done {
            if let Some(slot) = self.sweep_in_run(state, sink) {
                return Some(slot);
            }
            closed = self.closed_sweeps(state);
        }
        let batch = state.running.len();
        let from = mean_len(&state.running);
        // Iterations run so far, and the iteration after which the next
        // sweep falls due.
        let (mut done, mut sweep) = (0, stride - state.iter % stride);
        let mut waiter = None;
        loop {
            let (mut end, stop) = if state.now >= closed.until {
                (quiet.min(sweep), t)
            } else {
                (quiet, t.min(closed.until))
            };
            // Gauges can have moved before the run (work pushed since the
            // last step), so a traced run's first iteration goes alone
            // and emits them; a sweep emits its own.
            let traced_first = done == 0 && sink.enabled();
            if traced_first {
                end = 1;
            }
            let (steps, spent) = self.sim.run_ticks(
                cache,
                self.system,
                batch,
                from + done,
                end - done,
                state.work_until(stop),
            );
            state.charge(spent);
            done += steps;
            if traced_first {
                state.emit_gauges(sink);
            }
            // The sweeps before the stretch's last iteration closed: the
            // clock was below `closed.until` there.
            if done > sweep {
                let passed = (done - 1 - sweep) / stride + 1;
                closed.skipped += passed;
                sweep += passed * stride;
            }
            if done == quiet || state.now >= t {
                break;
            }
            if done == sweep {
                sweep += stride;
                if state.now < closed.until {
                    closed.skipped += 1;
                    continue;
                }
                self.rotate_past(state, &mut closed);
                waiter = self.sweep_in_run(state, sink);
                if waiter.is_some() {
                    break;
                }
                closed = self.closed_sweeps(state);
            }
        }
        self.rotate_past(state, &mut closed);
        state.iter += done;
        state.sweep_done = false;
        for r in &mut state.running {
            r.produced += done;
            state.tenants[r.slot].served += done as u64;
        }
        waiter
    }

    /// Judged right after an in-run sweep that closed: until when every
    /// later sweep of the run closes too, with no effect but DRR's
    /// rotation — so the run counts those sweeps instead of running them.
    ///
    /// Inside a run the batch cannot change and nothing is pushed, so
    /// the verdicts stand and the heads stay; only the clock moves, and
    /// with it the set of arrived heads. While that set stays as it is,
    /// FIFO picks the head the sweep just dismissed on its verdict every
    /// time, changing nothing. DRR visits the arrived tenants in turn,
    /// so it needs every arrived head to carry its `no_victim_for`
    /// verdict and, with two or more of them, every such tenant's
    /// deficit to cover its head's remaining output already: then each
    /// sweep picks the next tenant in the rotation without granting a
    /// quantum, and dismisses its head. An empty queue and a queue with
    /// no head arrived have no arrived head at all. The state holds
    /// until the earliest arrival among the heads still in the future; a
    /// sweep whose clock reaches it runs.
    fn closed_sweeps(&self, state: &BatchState) -> ClosedSweeps {
        let drr = self.cfg.fair.discipline == QueueDiscipline::DeficitRoundRobin;
        let now = state.now;
        let (mut arrived, mut covered, mut until) = (0, true, Tick::MAX);
        for q in &state.tenants {
            let Some(head) = q.queue.front() else {
                continue;
            };
            if head.at > now {
                until = until.min(head.at);
                continue;
            }
            if drr && q.no_victim_for != Some(head.req.id) {
                return ClosedSweeps::NONE;
            }
            arrived += 1;
            covered &= q.deficit >= remaining_tokens(head) as u64;
        }
        // A lone arrived head is picked without a visit.
        let rotating = drr && arrived > 1;
        if rotating && !covered {
            return ClosedSweeps::NONE;
        }
        ClosedSweeps {
            until,
            decided_at: now,
            skipped: 0,
            rotating,
        }
    }

    /// Moves DRR's rotation past the sweeps `closed` counted: each one
    /// visits the next arrived tenant — arrived by the clock the skip
    /// was decided at — so the last visited is `skipped` places on,
    /// modulo how many have arrived, and the count starts over. FIFO's
    /// pick moves nothing.
    fn rotate_past(&self, state: &mut BatchState, closed: &mut ClosedSweeps) {
        let skipped = std::mem::take(&mut closed.skipped);
        if !closed.rotating || skipped == 0 {
            return;
        }
        let at = closed.decided_at;
        let arrived = || state.tenants.iter().filter(|q| q.head_arrived(at));
        let n = arrived().count();
        // The first visit goes to the first arrived tenant past the last
        // visited one, wrapping to the lowest.
        let past = state
            .drr_last
            .map_or(0, |last| arrived().take_while(|q| q.tenant <= last).count());
        let last = (past + skipped - 1) % n;
        state.drr_last = arrived().nth(last).map(|q| q.tenant);
    }

    /// How many of the next decode iterations are guaranteed to change
    /// nothing but the clock and the token counters: 0 while the batch is
    /// empty or someone still owes a first token (or retires on it, as
    /// everyone does on a prefill engine); otherwise every iteration
    /// before the one that completes a request.
    fn quiet_iterations(&self, state: &BatchState) -> usize {
        assert!(
            self.cfg.admission_stride > 0,
            "admission_stride must be positive"
        );
        if state.role == ReplicaRole::Prefill {
            return 0;
        }
        state
            .running
            .iter()
            .map(|r| match r.first_token {
                Some(_) => r.req.output_len.saturating_sub(r.produced + 1),
                None => 0,
            })
            .min()
            .unwrap_or(0)
    }

    /// An admission sweep inside a quiet run: the tenant pick of an
    /// ordinary decision, then `None` when the sweep closes — nobody to
    /// pick, or the picked head carries the verdict of the batch now
    /// running — and the picked slot when only
    /// [`Scheduler::place_waiter`] can tell. The batch's token counters
    /// are not settled here; neither the pick nor the verdict reads them.
    fn sweep_in_run<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        sink: &mut S,
    ) -> Option<usize> {
        let waiter = self.pick_waiter(state).filter(|&slot| {
            let q = &state.tenants[slot];
            let head = q.queue.front().expect("picked head");
            let closed = q.no_victim_for == Some(head.req.id);
            // Unsettled counters only under-count `produced`, which can
            // only make a request look *more* eligible.
            debug_assert!(
                !closed || self.pick_victim(state, head).is_none(),
                "a verdict outlived the batch or the head it was about"
            );
            !closed
        });
        if waiter.is_none() && sink.enabled() {
            state.emit_gauges(sink);
        }
        waiter
    }

    /// One admission decision: pick the next waiting request under the
    /// configured discipline, then admit, reject, preempt-and-admit, or
    /// close the sweep.
    fn admission_decision<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        sink: &mut S,
    ) {
        match self.pick_waiter(state) {
            Some(slot) => self.place_waiter(state, cache, slot, sink),
            None => state.sweep_done = true,
        }
    }

    /// The first half of an admission decision: the slot of the tenant
    /// whose head goes next, or `None` when the sweep closes because the
    /// queue is empty or no head has arrived yet. An idle engine first
    /// jumps its clock to the next arrival.
    fn pick_waiter(&self, state: &mut BatchState) -> Option<usize> {
        if state.queued == 0 {
            return None;
        }
        // Idle engine: jump the clock to the next arrival, exactly like
        // the single-FIFO reference.
        if state.running.is_empty() {
            let earliest = state.earliest_head_arrival().expect("queued work");
            if earliest > state.now {
                state.rebase(earliest);
            }
        }
        for q in &mut state.tenants {
            if q.weight == 0 {
                q.weight = u64::from(self.cfg.fair.weight(q.tenant));
            }
        }
        self.select_tenant(state)
    }

    /// The second half of an admission decision: admits `slot`'s head,
    /// rejects it (it can never run, even alone), checkpoints a victim
    /// to make room for it, or closes the sweep.
    fn place_waiter<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        slot: usize,
        sink: &mut S,
    ) {
        let entry = *state.tenants[slot].queue.front().expect("selected head");
        if state.running.len() >= self.cfg.max_batch {
            self.preempt_for(state, cache, slot, &entry, sink);
            return;
        }
        if !self.admissible(&state.running, &entry.req) {
            if state.running.is_empty() {
                // Can never run, even alone.
                state.dequeue(slot);
                state.rejected.push(entry.req);
                emit(
                    sink,
                    state.now,
                    EventKind::Rejected {
                        request: entry.req.id as u64,
                        tenant: entry.req.tenant,
                    },
                );
                return; // sweep stays open for the next head
            }
            self.preempt_for(state, cache, slot, &entry, sink);
            return;
        }
        self.admit(state, cache, slot, sink);
    }

    /// Pops `slot`'s head and moves it into the running batch, charging
    /// prefill (fresh) or the KV restore transfer (checkpointed).
    fn admit<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        slot: usize,
        sink: &mut S,
    ) {
        let entry = state.dequeue(slot);
        let q = &mut state.tenants[slot];
        q.deficit = q.deficit.saturating_sub(remaining_tokens(&entry) as u64);
        if entry.preloaded {
            // Delivered prefill handoff: the KV is already resident (the
            // cluster priced the interconnect hop, device placement
            // included), so admission costs nothing.
            emit(
                sink,
                state.now,
                EventKind::Restored {
                    request: entry.req.id as u64,
                    tenant: entry.req.tenant,
                },
            );
        } else if entry.produced == 0 {
            let nominal = self.prefill_time(&entry.req, cache);
            state.charge(nominal);
            emit(
                sink,
                state.now,
                EventKind::Admitted {
                    request: entry.req.id as u64,
                    tenant: entry.req.tenant,
                },
            );
        } else {
            state.charge(self.kv_transfer_time(&entry.req, entry.produced));
            emit(
                sink,
                state.now,
                EventKind::Restored {
                    request: entry.req.id as u64,
                    tenant: entry.req.tenant,
                },
            );
        }
        state.running.push(Running {
            req: entry.req,
            slot,
            produced: entry.produced,
            start: entry.start.unwrap_or(state.now()),
            first_token: entry.first_token,
            preemptions: entry.preemptions,
        });
        state.batch_changed();
    }

    /// Tries to checkpoint a running victim so the blocked `entry` can
    /// enter the batch this decision; closes the sweep when the policy
    /// yields no eligible victim or evicting one would not unblock the
    /// waiter.
    ///
    /// "No eligible victim" is the one outcome a quiet run may reuse
    /// (`TenantQueue::no_victim_for`), and only once every running
    /// request has produced a token: eligibility — another tenant, under
    /// the preemption cap, more output left than the waiter — can then
    /// only shrink while the batch and the head stay the same. "A victim
    /// exists but evicting it would not unblock" is not cached: it is a
    /// statement about the admission arithmetic for the victim the
    /// policy picks, and that pick moves with `served`. "No head has
    /// arrived" ([`Scheduler::pick_waiter`]) depends on the clock.
    fn preempt_for<S: TelemetrySink>(
        &self,
        state: &mut BatchState,
        cache: &mut StepCache,
        slot: usize,
        entry: &QueueEntry,
        sink: &mut S,
    ) {
        let Some(victim_idx) = self.pick_victim(state, entry) else {
            if state.running.iter().all(|r| r.produced > 0) {
                state.tenants[slot].no_victim_for = Some(entry.req.id);
            }
            state.sweep_done = true;
            return;
        };
        // Eviction must actually unblock the waiter memory-wise (the
        // batch slot is never the issue: the batch can't exceed
        // max_batch, so one eviction always frees a slot).
        let victim = state.running[victim_idx];
        if !self.admissible_without(&state.running, victim_idx, &entry.req) {
            state.sweep_done = true;
            return;
        }
        // Checkpoint: save the victim's resident KV over PCIe and park
        // it at the front of its tenant queue (it resumes before that
        // tenant's fresh arrivals).
        state.charge(self.kv_transfer_time(&victim.req, victim.produced));
        state.running.remove(victim_idx);
        state.batch_changed();
        state.enqueue(
            victim.slot,
            QueueEntry {
                req: victim.req,
                at: tick_at(victim.req.arrival),
                seq: 0, // resumes first under FIFO too: it predates the queue
                produced: victim.produced,
                start: Some(victim.start),
                first_token: victim.first_token,
                preemptions: victim.preemptions + 1,
                // The checkpoint now lives host-side; the restore pays
                // PCIe even if the KV originally arrived preloaded.
                preloaded: false,
            },
            true,
        );
        if sink.enabled() {
            let request = victim.req.id as u64;
            emit(
                sink,
                state.now,
                EventKind::Preempted {
                    request,
                    tenant: victim.req.tenant,
                },
            );
            let bytes = (self.resident_tokens(&victim.req, victim.produced) as f64
                * self.sim.memory_model().kv_token_total_bytes()) as u64;
            emit(
                sink,
                state.now,
                EventKind::CheckpointWritten { request, bytes },
            );
        }
        self.admit(state, cache, slot, sink);
    }

    /// The index of the victim the preemption policy picks for the
    /// blocked `entry`, or `None` when no running request is eligible.
    /// Eligibility: a different tenant, strictly more remaining output
    /// than the waiter (so the preemption chain terminates), at least
    /// one produced token (its restore has something to checkpoint), and
    /// under the per-request preemption cap.
    fn pick_victim(&self, state: &BatchState, entry: &QueueEntry) -> Option<usize> {
        if self.cfg.fair.preemption == PreemptionPolicy::None {
            return None;
        }
        let waiter_remaining = remaining_tokens(entry);
        let eligible = |r: &Running| {
            r.req.tenant != entry.req.tenant
                && r.produced > 0
                && r.preemptions < self.cfg.fair.max_preemptions
                && r.req.output_len - r.produced > waiter_remaining
        };
        let remaining = |r: &Running| r.req.output_len - r.produced;
        match self.cfg.fair.preemption {
            PreemptionPolicy::None => None,
            PreemptionPolicy::LongestFirst => state
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| eligible(r))
                .max_by(|(_, a), (_, b)| {
                    remaining(a)
                        .cmp(&remaining(b))
                        .then(b.req.id.cmp(&a.req.id))
                })
                .map(|(i, _)| i),
            PreemptionPolicy::DeficitRoundRobin => {
                // Most over-served tenant first: served tokens per unit
                // weight, exact in integers via cross-multiplication.
                let norm = |r: &Running| {
                    let q = &state.tenants[r.slot];
                    (q.served, q.weight)
                };
                state
                    .running
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| eligible(r))
                    .max_by(|(_, a), (_, b)| {
                        let (sa, wa) = norm(a);
                        let (sb, wb) = norm(b);
                        (sa * wb)
                            .cmp(&(sb * wa))
                            .then(remaining(a).cmp(&remaining(b)))
                            .then(b.req.id.cmp(&a.req.id))
                    })
                    .map(|(i, _)| i)
            }
        }
    }

    /// Picks the slot of the tenant whose head goes next, among tenants
    /// whose head has arrived. `None` when every queued head is still in
    /// the future.
    fn select_tenant(&self, state: &mut BatchState) -> Option<usize> {
        let now = state.now;
        let mut arrived = (0..state.tenants.len()).filter(|&i| state.tenants[i].head_arrived(now));
        let first = arrived.next()?;
        if arrived.next().is_none() {
            return Some(first);
        }
        match self.cfg.fair.discipline {
            QueueDiscipline::Fifo => {
                // Global push order: the smallest sequence number wins
                // (checkpointed entries carry seq 0 and resume first;
                // ties go to the lowest tenant id).
                (first..state.tenants.len())
                    .filter(|&i| state.tenants[i].head_arrived(now))
                    .min_by_key(|&i| state.tenants[i].queue.front().map(|e| e.seq))
            }
            QueueDiscipline::DeficitRoundRobin => {
                // Rotate in tenant-id order from the last visited tenant,
                // granting quantum × weight per visit, until some arrived
                // head's remaining output fits its tenant's deficit. The
                // deficit only ever *orders* tenants — it keeps growing
                // until someone affords, so admission is never delayed
                // beyond what memory allows.
                let quantum = self.cfg.fair.quantum_tokens.max(1) as u64;
                loop {
                    let next = (first..state.tenants.len())
                        .find(|&i| {
                            let q = &state.tenants[i];
                            state.drr_last.is_none_or(|last| q.tenant > last) && q.head_arrived(now)
                        })
                        .unwrap_or(first);
                    let q = &mut state.tenants[next];
                    state.drr_last = Some(q.tenant);
                    let cost = q.queue.front().map(remaining_tokens).unwrap_or(0) as u64;
                    if q.deficit >= cost {
                        return Some(next);
                    }
                    q.deficit += quantum * q.weight;
                }
            }
        }
    }

    /// Whether adding `req` to the running batch fits in GPU memory at
    /// the *final* lengths (conservative admission).
    fn admissible(&self, running: &[Running], req: &Request) -> bool {
        self.admissible_at(
            running.iter().map(|r| r.req.input_len + r.req.output_len),
            running.len() + 1,
            req,
        )
    }

    /// [`Scheduler::admissible`] with the running request at `skip`
    /// excluded — the preemption check "would evicting this victim
    /// unblock the waiter", without materializing the reduced batch.
    fn admissible_without(&self, running: &[Running], skip: usize, req: &Request) -> bool {
        self.admissible_at(
            running
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, r)| r.req.input_len + r.req.output_len),
            running.len(),
            req,
        )
    }

    fn admissible_at(
        &self,
        final_lens: impl Iterator<Item = usize>,
        batch: usize,
        req: &Request,
    ) -> bool {
        let mm = self.sim.memory_model();
        let max_len = final_lens
            .chain([req.input_len + req.output_len])
            .max()
            .unwrap_or(0);
        match self.system {
            SystemKind::SpeContext => {
                // Adaptive placement: admissible if full offload fits.
                mm.m_part(batch, max_len, mm.layers, self.sim_budget()) <= mm.gpu_mem as f64
            }
            _ => mm.fits_all(batch, max_len),
        }
    }

    fn sim_budget(&self) -> usize {
        self.sim.budget()
    }

    /// Tokens of `req`'s KV resident on the GPU once `produced` tokens
    /// exist — the checkpoint/restore transfer size. Sparse systems keep
    /// at most the retrieval budget per request; full systems keep the
    /// whole context.
    fn resident_tokens(&self, req: &Request, produced: usize) -> usize {
        let total = req.input_len + produced;
        match self.system {
            SystemKind::SpeContext => total.min(self.sim.budget()),
            _ => total,
        }
    }

    /// The one-way PCIe time to move `req`'s resident KV at the memory
    /// model's bytes/token, in ticks — paid once to checkpoint and once
    /// to restore.
    fn kv_transfer_time(&self, req: &Request, produced: usize) -> Tick {
        let bytes = self.resident_tokens(req, produced) as f64
            * self.sim.memory_model().kv_token_total_bytes();
        seconds_to_ticks(self.sim.device().pcie_time(bytes))
    }

    /// Prefill latency for one prompt in ticks, memoized per prompt
    /// length.
    fn prefill_time(&self, req: &Request, cache: &mut StepCache) -> Tick {
        self.sim
            .prefill_time_cached(cache, self.system, req.input_len)
    }

    /// Iteration latency at the current batch composition, in ticks: the
    /// per-step dataflow timeline at the batch's mean sequence length,
    /// memoized across iterations through the run's step cache.
    fn iteration_time(&self, running: &[Running], cache: &mut StepCache) -> Tick {
        let mean_len = mean_len(running);
        self.sim
            .step_time_cached(cache, self.system, running.len(), mean_len, mean_len)
    }
}

/// The mean sequence length of a (non-empty) running batch — the length
/// its iteration is priced at. Every request grows by one token per
/// iteration, so it rises by exactly one per iteration too.
fn mean_len(running: &[Running]) -> usize {
    running
        .iter()
        .map(|r| r.req.input_len + r.produced)
        .sum::<usize>()
        / running.len()
}

fn remaining_tokens(entry: &QueueEntry) -> usize {
    entry.req.output_len.saturating_sub(entry.produced)
}

/// A quiet run's sweeps that close before they run — see
/// [`Scheduler::closed_sweeps`].
struct ClosedSweeps {
    /// Sweeps whose clock is below this close (0: none do).
    until: Tick,
    /// The clock of the sweep the skip was decided after.
    decided_at: Tick,
    /// Sweeps counted so far.
    skipped: usize,
    /// Whether each counted sweep moves DRR's rotation one place on.
    rotating: bool,
}

impl ClosedSweeps {
    const NONE: Self = Self {
        until: 0,
        decided_at: 0,
        skipped: 0,
        rotating: false,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_hwsim::DeviceSpec;
    use spec_model::ModelConfig;

    fn sim() -> ServingSim {
        ServingSim::new(
            ModelConfig::deepseek_distill_llama_8b(),
            DeviceSpec::a100_80g(),
            2048,
        )
    }

    #[test]
    fn an_instant_enters_the_clock_at_the_first_tick_at_or_after_it() {
        for t in [
            0.0,
            1e-7,
            1e-6,
            0.123_456_789,
            0.3,
            8_806.133_020_335_95,
            1e6 + 0.5e-6,
        ] {
            let k = tick_at(t);
            assert!(ticks_to_seconds(k) >= t, "{t} entered at {k}, before it");
            assert!(
                k == 0 || ticks_to_seconds(k - 1) < t,
                "{t} entered at {k}, a tick late"
            );
        }
        assert_eq!(tick_at(f64::INFINITY), Tick::MAX);
    }

    fn trace(n: usize, spacing: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i,
                tenant: 0,
                input_len: 2048,
                output_len: 1024,
                arrival: i as f64 * spacing,
            })
            .collect()
    }

    #[test]
    fn all_requests_complete_in_fifo_friendly_trace() {
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        let report = s.run(&trace(8, 0.1));
        assert_eq!(report.completed.len(), 8);
        assert_eq!(report.rejected, 0);
        assert!(report.throughput > 0.0);
        for c in &report.completed {
            assert!(c.finish > c.start);
            assert!(c.start >= c.request.arrival);
            assert!(c.first_token > c.start, "first token needs an iteration");
            assert!(c.first_token <= c.finish);
        }
    }

    #[test]
    fn batching_system_outperforms_single_request_system() {
        let reqs = trace(6, 0.01);
        let ours =
            Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default()).run(&reqs);
        let quest_cfg = SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        };
        let quest = Scheduler::new(sim(), SystemKind::Quest, quest_cfg).run(&reqs);
        assert!(
            ours.throughput > quest.throughput,
            "ours {} vs single-request {}",
            ours.throughput,
            quest.throughput
        );
        assert!(ours.latency.mean < quest.latency.mean);
    }

    #[test]
    fn memory_pressure_limits_full_attention_batch() {
        // Full attention at 33K final length cannot batch as deep as the
        // sparse system: its makespan suffers.
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request {
                id: i,
                tenant: 0,
                input_len: 2048,
                output_len: 31 * 1024,
                arrival: 0.0,
            })
            .collect();
        let full = Scheduler::new(
            sim(),
            SystemKind::FullFlashInfer,
            SchedulerConfig::default(),
        )
        .run(&reqs);
        let ours =
            Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default()).run(&reqs);
        assert!(ours.throughput > full.throughput);
    }

    #[test]
    fn oversized_requests_are_rejected_not_hung() {
        let reqs = vec![Request {
            id: 0,
            tenant: 0,
            input_len: 10_000_000, // cannot fit even alone
            output_len: 10_000_000,
            arrival: 0.0,
        }];
        let s = Scheduler::new(
            sim(),
            SystemKind::FullFlashInfer,
            SchedulerConfig::default(),
        );
        let report = s.run(&reqs);
        assert_eq!(report.rejected, 1);
        assert!(report.completed.is_empty());
    }

    #[test]
    fn p95_at_least_mean() {
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        let report = s.run(&trace(10, 0.5));
        assert!(report.latency.p95 >= report.latency.mean * 0.5);
    }

    #[test]
    fn ttft_includes_the_first_decode_iteration() {
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        let report = s.run(&trace(1, 0.0));
        let c = &report.completed[0];
        // TTFT strictly exceeds queueing + prefill: the first iteration
        // has to finish before a token exists.
        assert!(c.time_to_first_token() > c.start - c.request.arrival);
        // TBT spans output_len - 1 intervals from the first token.
        let expect = (c.finish - c.first_token) / (c.request.output_len - 1) as f64;
        assert!((c.time_between_tokens() - expect).abs() < 1e-12);
    }

    #[test]
    fn single_token_output_has_zero_tbt() {
        let done = CompletedRequest {
            request: Request {
                id: 0,
                tenant: 0,
                input_len: 128,
                output_len: 1,
                arrival: 0.0,
            },
            start: 1.0,
            first_token: 1.5,
            finish: 1.5,
            preemptions: 0,
        };
        assert_eq!(done.time_between_tokens(), 0.0);
    }

    fn two_tenant_trace() -> Vec<Request> {
        // Tenant 1 floods long generations at t=0; tenant 0 sends short
        // interactive requests while the batch is saturated.
        let mut reqs: Vec<Request> = (0..6)
            .map(|i| Request {
                id: i,
                tenant: 1,
                input_len: 2048,
                output_len: 8192,
                arrival: 0.0,
            })
            .collect();
        for i in 0..4 {
            reqs.push(Request {
                id: 6 + i,
                tenant: 0,
                input_len: 512,
                output_len: 128,
                arrival: 2.0 + i as f64,
            });
        }
        reqs
    }

    fn fair_cfg(preemption: PreemptionPolicy) -> SchedulerConfig {
        SchedulerConfig {
            max_batch: 4,
            admission_stride: 4,
            fair: FairConfig {
                discipline: QueueDiscipline::DeficitRoundRobin,
                weights: vec![(0, 4), (1, 1)],
                preemption,
                ..FairConfig::default()
            },
        }
    }

    #[test]
    fn preemption_rescues_short_tenant_ttft() {
        let reqs = two_tenant_trace();
        let fifo_cfg = SchedulerConfig {
            max_batch: 4,
            admission_stride: 4,
            fair: FairConfig {
                discipline: QueueDiscipline::Fifo,
                ..FairConfig::default()
            },
        };
        let fifo = Scheduler::new(sim(), SystemKind::SpeContext, fifo_cfg).run(&reqs);
        let fair = Scheduler::new(
            sim(),
            SystemKind::SpeContext,
            fair_cfg(PreemptionPolicy::DeficitRoundRobin),
        )
        .run(&reqs);
        let short_ttft = |rep: &ScheduleReport| {
            let v: Vec<f64> = rep
                .completed
                .iter()
                .filter(|c| c.request.tenant == 0)
                .map(CompletedRequest::time_to_first_token)
                .collect();
            assert_eq!(v.len(), 4);
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert_eq!(fifo.completed.len() + fifo.rejected, 10);
        assert_eq!(fair.completed.len() + fair.rejected, 10);
        assert!(
            fair.preemptions > 0,
            "saturated batch must trigger eviction"
        );
        assert!(
            short_ttft(&fair) < short_ttft(&fifo),
            "fair {} vs fifo {}",
            short_ttft(&fair),
            short_ttft(&fifo)
        );
    }

    #[test]
    fn preempted_requests_still_complete_with_all_tokens() {
        for policy in [
            PreemptionPolicy::LongestFirst,
            PreemptionPolicy::DeficitRoundRobin,
        ] {
            let reqs = two_tenant_trace();
            let rep = Scheduler::new(sim(), SystemKind::SpeContext, fair_cfg(policy)).run(&reqs);
            assert_eq!(rep.completed.len() + rep.rejected, reqs.len());
            for c in &rep.completed {
                assert!(c.preemptions <= FairConfig::default().max_preemptions);
                assert!(c.first_token >= c.start);
                assert!(c.finish >= c.first_token);
            }
        }
    }

    #[test]
    fn prefill_role_retires_requests_at_first_token() {
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        let mut state = BatchState::new();
        state.set_role(ReplicaRole::Prefill);
        assert_eq!(state.role(), ReplicaRole::Prefill);
        for req in trace(3, 0.1) {
            state.push(req);
        }
        let mut cache = StepCache::new();
        while state.has_work() {
            s.step(&mut state, &mut cache);
        }
        assert!(state.completed().is_empty(), "prefill engines never finish");
        let handoffs: Vec<_> = state.drain_handoffs().collect();
        assert_eq!(handoffs.len(), 3);
        assert!(
            state.drain_handoffs().next().is_none(),
            "drain_handoffs drains"
        );
        // Resident KV under the sparse budget: 2048 input + 1 produced,
        // capped at the 2048-token budget.
        let per_token = s.sim().memory_model().kv_token_total_bytes();
        for h in &handoffs {
            assert_eq!(h.restorable.produced, 1);
            assert_eq!(h.restorable.first_token, Some(h.emitted));
            assert!(h.restorable.start.is_some());
            assert_eq!(h.kv_bytes, 2048.0 * per_token);
        }
    }

    #[test]
    fn single_token_outputs_complete_on_the_prefill_engine() {
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        let mut state = BatchState::new();
        state.set_role(ReplicaRole::Prefill);
        state.push(Request::new(0, 0, 1024, 1, 0.0));
        let mut cache = StepCache::new();
        while state.has_work() {
            s.step(&mut state, &mut cache);
        }
        assert_eq!(state.completed().len(), 1);
        assert!(
            state.drain_handoffs().next().is_none(),
            "one-token outputs never pay the hop"
        );
    }

    #[test]
    fn preloaded_handoffs_admit_free_and_keep_timing_history() {
        use spec_telemetry::RecordingSink;
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        // Produce one handoff on a prefill engine.
        let mut prefill = BatchState::new();
        prefill.set_role(ReplicaRole::Prefill);
        prefill.push(Request::new(0, 0, 2048, 64, 0.0));
        let mut cache = StepCache::new();
        while prefill.has_work() {
            s.step(&mut prefill, &mut cache);
        }
        let handoff = prefill.drain_handoffs().next().expect("one handoff");
        let (history, at) = (handoff.restorable, handoff.emitted);
        let fresh = Request::new(7, 3, 2048, 64, 0.25);

        // The three ways in, through the one entry: what lands on the
        // queue, what is announced, and where each engine finishes.
        // (admission, stamp, produced, first token kept, preloaded)
        let cases = [
            (Admission::Fresh(fresh), 0.25, 0, None, false),
            (
                Admission::Restored {
                    checkpoint: history,
                    at,
                },
                at,
                1,
                history.first_token,
                false,
            ),
            (
                Admission::Preloaded {
                    handoff: history,
                    at,
                },
                at,
                1,
                history.first_token,
                true,
            ),
        ];
        let mut finished = Vec::new();
        for (admission, stamp, produced, first_token, preloaded) in cases {
            let mut state = BatchState::new();
            state.set_role(ReplicaRole::Decode);
            let mut sink = RecordingSink::new();
            state.push_traced(admission, &mut sink);
            let id = if produced == 0 {
                fresh.id
            } else {
                history.request.id
            };
            let tenant = if produced == 0 {
                fresh.tenant
            } else {
                history.request.tenant
            };
            let slot = state.slot_of(tenant);
            let entry = *state.tenants[slot].queue.back().expect("one entry");
            assert_eq!(entry.req.id, id);
            assert_eq!(entry.req.arrival, stamp, "restamped to the admission");
            assert_eq!(
                (entry.seq, entry.produced, entry.preemptions),
                (0, produced, 0)
            );
            assert_eq!(
                entry.start,
                if produced == 0 { None } else { history.start }
            );
            assert_eq!(entry.first_token, first_token);
            assert_eq!(entry.preloaded, preloaded);
            assert_eq!(
                sink.events(),
                [Event {
                    tick: seconds_to_ticks(stamp),
                    replica: 0,
                    kind: EventKind::Enqueued {
                        request: id as u64,
                        tenant,
                    },
                }]
            );
            // The arrival-order contract holds for every way in.
            let mut late = state.clone();
            let early = Request::new(9, 0, 128, 8, stamp - 0.125);
            let refused = std::panic::catch_unwind(move || late.push(early));
            assert!(refused.is_err(), "out-of-order push must panic");

            let mut cache = StepCache::new();
            while state.has_work() {
                s.step(&mut state, &mut cache);
            }
            finished.push(state.completed()[0]);
        }
        // Preloaded against PCIe-charged restore of the same handoff: the
        // preloaded engine finishes strictly earlier.
        let (paid, free) = (finished[1], finished[2]);
        assert_eq!(free.first_token, history.first_token.unwrap());
        assert_eq!(paid.first_token, free.first_token);
        assert_eq!(free.request.output_len, 64);
        assert!(free.finish < paid.finish, "preloaded admission is free");
        assert_eq!(free.preemptions, 0);
        assert!(
            finished[0].first_token > fresh.arrival,
            "a fresh request pays prefill"
        );
    }

    #[test]
    fn traced_run_emits_matching_lifecycle_and_changes_nothing() {
        use spec_telemetry::RecordingSink;
        let s = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
        let mut sink = RecordingSink::new();
        let report = s.run_traced(&trace(4, 0.1), &mut sink);
        let count =
            |pred: fn(&EventKind) -> bool| sink.events().iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, EventKind::Enqueued { .. })), 4);
        assert_eq!(count(|k| matches!(k, EventKind::Admitted { .. })), 4);
        assert_eq!(count(|k| matches!(k, EventKind::FirstToken { .. })), 4);
        assert_eq!(
            count(|k| matches!(k, EventKind::Completed { .. })),
            report.completed.len()
        );
        assert!(count(|k| matches!(k, EventKind::RunningBatch { .. })) > 0);
        // Tracing must not perturb the run.
        assert_eq!(s.run(&trace(4, 0.1)), report);
    }

    #[test]
    fn preemptions_emit_paired_checkpoint_and_restore() {
        use spec_telemetry::RecordingSink;
        let reqs = two_tenant_trace();
        let s = Scheduler::new(
            sim(),
            SystemKind::SpeContext,
            fair_cfg(PreemptionPolicy::DeficitRoundRobin),
        );
        let mut sink = RecordingSink::new();
        let report = s.run_traced(&reqs, &mut sink);
        let count =
            |pred: fn(&EventKind) -> bool| sink.events().iter().filter(|e| pred(&e.kind)).count();
        let preempted = count(|k| matches!(k, EventKind::Preempted { .. }));
        assert!(preempted > 0, "trace must trigger preemption");
        assert_eq!(
            preempted,
            count(|k| matches!(k, EventKind::CheckpointWritten { .. }))
        );
        // Every victim completes, so every checkpoint is restored.
        assert_eq!(
            preempted,
            count(|k| matches!(k, EventKind::Restored { .. }))
        );
        assert_eq!(report.preemptions, preempted);
    }

    #[test]
    fn checkpoint_restore_charges_the_victims() {
        // Preemption is not free: the evicted tenant pays the save and
        // restore transfers plus the wait, so its mean latency strictly
        // exceeds the no-preemption run's on the same trace. (Makespan is
        // *not* monotone — evictions change batch compositions and the
        // iteration-time integrand with them.)
        let reqs = two_tenant_trace();
        let none = Scheduler::new(
            sim(),
            SystemKind::SpeContext,
            fair_cfg(PreemptionPolicy::None),
        )
        .run(&reqs);
        let preempt = Scheduler::new(
            sim(),
            SystemKind::SpeContext,
            fair_cfg(PreemptionPolicy::LongestFirst),
        )
        .run(&reqs);
        assert!(preempt.preemptions > 0);
        let victim_latency = |rep: &ScheduleReport| {
            let v: Vec<f64> = rep
                .completed
                .iter()
                .filter(|c| c.request.tenant == 1)
                .map(CompletedRequest::latency)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            victim_latency(&preempt) > victim_latency(&none),
            "victims must pay: {} vs {}",
            victim_latency(&preempt),
            victim_latency(&none)
        );
    }
}
