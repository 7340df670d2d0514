//! One cluster replica: a serving engine plus KV occupancy accounting.
//!
//! A replica wraps the runtime's continuous-batching core — a
//! [`Scheduler`] driving a [`BatchState`] through
//! [`Scheduler::advance_until`] (or single [`Scheduler::step`]
//! micro-steps under a closed-loop source) — so the cluster event loop
//! can interleave request routing with engine progress at decision
//! granularity. The running batch is the replica's only KV account: its
//! resident bytes are the batch's final lengths, capped per request by
//! the scheduler and paged in 16-token pages, summed when asked. That
//! gives routers a byte-accurate KV-pressure signal that stays
//! comparable across heterogeneous devices.
//!
//! A replica does not own a step-price table: whoever drives it lends a
//! [`StepCache`] to each advance, so the cluster can keep one table per
//! group of identically pricing replicas instead of one per replica.

use crate::router::{ReplicaHealth, ReplicaSnapshot};
use spec_runtime::{
    Admission, BatchState, CompletedRequest, CrashedWork, HandoffRecord, ReplicaRole, Request,
    Scheduler, SchedulerConfig, ServingSim, StepCache, SystemKind,
};
use spec_telemetry::{seconds_to_ticks, Event, EventKind, RecordingSink, TelemetrySink};

/// Tokens in one KV page: a request's resident KV is counted in whole
/// pages, as a paged (vLLM/FlashInfer-style) cache holds it.
const KV_PAGE_TOKENS: usize = 16;

/// One serving engine in the fleet.
#[derive(Debug)]
pub struct Replica {
    scheduler: Scheduler,
    state: BatchState,
    /// One token's KV bytes, whole bytes.
    kv_bytes_per_token: u64,
    /// KV capacity in bytes: device memory left after weights and
    /// runtime buffers.
    kv_capacity: u64,
    device: String,
    /// Rental price of the underlying device, USD per hour (cost-aware
    /// autoscaling and the fleet cost report).
    hourly_cost: f64,
    active: bool,
    /// Crashed and not yet restarted: the engine is frozen (no steps)
    /// until the fault timeline restarts it.
    down: bool,
    /// Post-restart probation deadline (health-aware routers keep the
    /// replica ejected until it passes).
    probation_until: Option<f64>,
    assigned: usize,
    /// Per-replica event buffer (`None` = untraced, zero overhead).
    /// Each replica records into its own buffer; the cluster merges the
    /// buffers in the stable `(tick, stream)` order.
    telemetry: Option<RecordingSink>,
    /// Last KV occupancy emitted, so traced runs gauge on change.
    kv_gauge: Option<u64>,
}

impl Replica {
    /// Creates a replica for `system` on the given serving simulator.
    /// Its KV capacity is the device memory left after weights and
    /// runtime buffers, counted in 16-token pages.
    pub fn new(sim: ServingSim, system: SystemKind, cfg: SchedulerConfig) -> Self {
        let mm = sim.memory_model();
        // One token's K+V across all layers plus the retrieval-head and
        // grouped-query terms of Eq. 6 — shared with the admission
        // arithmetic via the memory model.
        let kv_bytes_per_token = mm.kv_token_total_bytes().max(1.0) as u64;
        let kv_capacity = (mm.gpu_mem as f64 - mm.static_bytes()).max(0.0) as u64;
        let device = sim.device().name.clone();
        let hourly_cost = sim.device().hourly_cost;
        let scheduler = Scheduler::new(sim, system, cfg);
        let mut state = BatchState::new();
        state.set_kv_token_cap(scheduler.kv_token_cap());
        Self {
            scheduler,
            state,
            kv_bytes_per_token,
            kv_capacity,
            device,
            hourly_cost,
            active: true,
            down: false,
            probation_until: None,
            assigned: 0,
            telemetry: None,
            kv_gauge: None,
        }
    }

    /// Starts recording this replica's telemetry, stamping every event
    /// with `index`. Scheduler-scope events (admissions, preemptions,
    /// gauges) flow into the same buffer via the tagged sink.
    pub fn enable_telemetry(&mut self, index: u32) {
        self.telemetry = Some(RecordingSink::tagged(index));
        self.kv_gauge = None;
    }

    /// Stops recording and returns the buffered events, in emission
    /// order (untraced replicas return an empty stream).
    pub fn take_telemetry(&mut self) -> Vec<Event> {
        self.kv_gauge = None;
        self.telemetry
            .take()
            .map(RecordingSink::into_events)
            .unwrap_or_default()
    }

    /// The device this replica runs on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Rental price of the underlying device, USD per hour.
    pub fn hourly_cost(&self) -> f64 {
        self.hourly_cost
    }

    /// One token's KV bytes on this replica (warmup-transfer sizing).
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_bytes_per_token
    }

    /// The phase this replica's engine runs ([`ReplicaRole::Unified`]
    /// unless the fleet slot said otherwise).
    pub fn role(&self) -> ReplicaRole {
        self.state.role()
    }

    /// Pins the replica to one serving phase. Set at fleet construction,
    /// before any request is routed.
    pub fn set_role(&mut self, role: ReplicaRole) {
        self.state.set_role(role);
    }

    /// Drains the handoff records emitted since the last collection, in
    /// emission order, keeping the buffer for the next ones.
    pub fn drain_handoffs(&mut self) -> std::vec::Drain<'_, HandoffRecord> {
        self.state.drain_handoffs()
    }

    /// Jumps the engine clock forward to `t` without touching queued
    /// work — the autoscaler charges spin-up latency and cold-start KV
    /// warmup to a freshly woken replica this way.
    pub fn warm_until(&mut self, t: f64) {
        self.state.skip_to(t);
    }

    /// Whether the replica accepts new requests.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Parks or unparks the replica (autoscaling). A parked replica
    /// keeps draining already-assigned work.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Requests routed here so far.
    pub fn assigned(&self) -> usize {
        self.assigned
    }

    /// Whether the replica is crashed and awaiting restart.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Fault-facing health, by severity: a crashed replica is [`Down`]
    /// whatever else holds; a slowed one is [`Straggling`]; a freshly
    /// restarted one is in [`Probation`] until its deadline passes.
    ///
    /// [`Down`]: ReplicaHealth::Down
    /// [`Straggling`]: ReplicaHealth::Straggling
    /// [`Probation`]: ReplicaHealth::Probation
    pub fn health(&self) -> ReplicaHealth {
        if self.down {
            ReplicaHealth::Down
        } else if self.state.time_scale() > 1.0 {
            ReplicaHealth::Straggling
        } else if self.probation_until.is_some() {
            ReplicaHealth::Probation
        } else {
            ReplicaHealth::Healthy
        }
    }

    /// Crashes the replica at its current clock: tears all in-flight
    /// work out of the engine (running and queued requests are lost;
    /// queued-with-progress ones surface as restorable checkpoints),
    /// which frees its resident KV, and freezes the engine until
    /// [`restart`](Self::restart). Completions and rejections recorded
    /// so far survive — they already happened.
    pub fn crash(&mut self) -> CrashedWork {
        self.down = true;
        self.probation_until = None;
        let work = self.state.crash_dump();
        self.gauge_kv();
        work
    }

    /// Brings a crashed replica back at time `now`, optionally entering
    /// probation until `probation_until`.
    pub fn restart(&mut self, now: f64, probation_until: Option<f64>) {
        self.down = false;
        self.probation_until = probation_until;
        self.state.skip_to(now);
    }

    /// Ends the probation window scheduled for `at`. Stale deadlines (a
    /// re-crash superseded them) are ignored.
    pub fn end_probation(&mut self, at: f64) {
        if !self.down && self.probation_until == Some(at) {
            self.probation_until = None;
        }
    }

    /// Sets the straggler cost multiplier (1.0 = healthy speed).
    pub fn set_slowdown(&mut self, factor: f64) {
        self.state.set_time_scale(factor);
    }

    /// Host-side checkpoint size for a request with `produced` decoded
    /// tokens: its resident KV footprint under this replica's token cap.
    pub fn checkpoint_bytes(&self, req: &Request, produced: usize) -> u64 {
        let tokens = (req.input_len + produced).min(self.scheduler.kv_token_cap());
        tokens as u64 * self.kv_bytes_per_token
    }

    /// The replica's local clock, seconds.
    pub fn now(&self) -> f64 {
        self.state.now()
    }

    /// Queued + running requests.
    pub fn outstanding(&self) -> usize {
        self.state.outstanding()
    }

    /// Whether any assigned request is still queued or decoding.
    pub fn has_work(&self) -> bool {
        self.state.has_work()
    }

    /// Requests finished so far, in finish order.
    pub fn completed(&self) -> &[CompletedRequest] {
        self.state.completed()
    }

    /// Requests rejected so far (never admissible, even alone).
    pub fn rejected(&self) -> usize {
        self.state.rejected()
    }

    /// The rejected requests themselves (per-tenant SLO attribution).
    pub fn rejected_requests(&self) -> &[Request] {
        self.state.rejected_requests()
    }

    /// Hands work to this replica's engine: a fresh arrival, a
    /// crash-survived checkpoint or a delivered prefill handoff (see
    /// [`Admission`] for what each is charged at admission).
    pub fn push(&mut self, admission: Admission) {
        self.assigned += 1;
        self.state.push_traced(admission, &mut self.telemetry);
    }

    /// Advances the engine until its clock reaches `t` or it runs dry
    /// (`f64::INFINITY` runs all assigned work to completion), then
    /// gauges the KV occupancy (traced runs). One micro-step may overshoot
    /// `t` (a decode iteration is atomic), exactly like the closed-loop
    /// scheduler. A crashed replica is frozen: its queued ghosts (blind
    /// routing) wait out the outage.
    ///
    /// Step and prefill prices are read from, and on a miss written to,
    /// the lent `cache`. Lend the same table to every advance of this
    /// replica — and to any replica on a clone of the same simulator —
    /// or it refills.
    pub fn advance_until(&mut self, cache: &mut StepCache, t: f64) {
        if self.down {
            return;
        }
        self.scheduler
            .advance_until(&mut self.state, cache, t, &mut self.telemetry);
        self.gauge_kv();
    }

    /// One scheduler micro-step (closed-loop event granularity: the
    /// cluster interleaves single steps with completion feedback) priced
    /// through the lent `cache`, then gauges the KV occupancy (traced
    /// runs). No-op when idle.
    pub fn step_once(&mut self, cache: &mut StepCache) {
        if self.down {
            return;
        }
        if self.state.has_work() {
            self.scheduler
                .step_traced(&mut self.state, cache, &mut self.telemetry);
        }
        self.gauge_kv();
    }

    /// Router-facing view of this replica.
    pub fn snapshot(&self, index: usize) -> ReplicaSnapshot {
        ReplicaSnapshot {
            index,
            active: self.active,
            queued: self.state.queued(),
            running: self.state.running_len(),
            kv_pressure: self.kv_pressure(),
            health: self.health(),
        }
    }

    /// Committed KV demand (resident batch + queued backlog at final
    /// lengths, sparse-budget-capped per request) relative to capacity.
    fn kv_pressure(&self) -> f64 {
        if self.kv_capacity == 0 {
            return f64::INFINITY;
        }
        let queued_bytes = self.state.queued_kv_tokens() as f64 * self.kv_bytes_per_token as f64;
        (self.resident_bytes() as f64 + queued_bytes) / self.kv_capacity as f64
    }

    /// KV bytes the running batch holds: each running request at its
    /// final length, capped at the scheduler's per-request token cap,
    /// rounded up to whole pages (at least one). Accounting only — the
    /// scheduler's own admission test stays authoritative, so a
    /// 1-replica cluster still reproduces `Scheduler::run` bit-for-bit.
    ///
    /// The scheduler admits on unpaged arithmetic, so a request whose
    /// page round-up does not fit in the capacity left still counts
    /// paged: the sum can exceed the capacity, and the pressure 1.
    fn resident_bytes(&self) -> u64 {
        let cap = self.scheduler.kv_token_cap();
        self.state
            .running_requests()
            .map(|r| {
                let tokens = (r.input_len + r.output_len).min(cap).max(1);
                (tokens.div_ceil(KV_PAGE_TOKENS) * KV_PAGE_TOKENS) as u64 * self.kv_bytes_per_token
            })
            .sum()
    }

    /// Emits the KV occupancy gauge if it moved, after each change the
    /// running batch can see (an advance, a step, a crash). Traced runs
    /// only: an untraced replica sums its resident bytes only when a
    /// router asks for its pressure.
    fn gauge_kv(&mut self) {
        if self.telemetry.enabled() {
            self.emit_kv_gauge();
        }
    }

    /// The traced half of [`Replica::gauge_kv`], out of line so an
    /// untraced advance never computes the event's tick.
    #[inline(never)]
    fn emit_kv_gauge(&mut self) {
        let used = self.resident_bytes();
        if self.kv_gauge != Some(used) {
            self.kv_gauge = Some(used);
            self.telemetry.emit(Event {
                tick: seconds_to_ticks(self.state.now()),
                replica: 0, // restamped by the tagged sink
                kind: EventKind::KvOccupancy {
                    used,
                    capacity: self.kv_capacity,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_hwsim::DeviceSpec;
    use spec_model::ModelConfig;

    fn replica(system: SystemKind) -> Replica {
        Replica::new(
            ServingSim::new(
                ModelConfig::deepseek_distill_llama_8b(),
                DeviceSpec::a100_80g(),
                2048,
            ),
            system,
            SchedulerConfig::default(),
        )
    }

    fn req(id: usize, arrival: f64) -> Request {
        Request {
            id,
            tenant: 0,
            input_len: 2048,
            output_len: 512,
            arrival,
        }
    }

    #[test]
    fn advance_until_respects_the_clock() {
        let mut cache = StepCache::new();
        let mut r = replica(SystemKind::SpeContext);
        r.push(Admission::Fresh(req(0, 0.0)));
        r.advance_until(&mut cache, 0.5);
        assert!(r.now() >= 0.0);
        let before = r.now();
        r.advance_until(&mut cache, f64::INFINITY);
        assert!(r.now() >= before);
        assert_eq!(r.completed().len(), 1);
        assert!(!r.has_work());
    }

    #[test]
    fn kv_pressure_rises_with_backlog_and_clears_when_drained() {
        let mut cache = StepCache::new();
        let mut r = replica(SystemKind::FullFlashInfer);
        let empty = r.kv_pressure();
        for i in 0..8 {
            r.push(Admission::Fresh(req(i, 0.0)));
        }
        r.advance_until(&mut cache, 1e-9); // admit some work
        let loaded = r.kv_pressure();
        assert!(loaded > empty, "pressure {loaded} after load vs {empty}");
        r.advance_until(&mut cache, f64::INFINITY);
        assert_eq!(r.completed().len(), 8);
        assert!(r.kv_pressure() < loaded);
    }

    #[test]
    fn sparse_system_caps_per_request_kv_at_the_budget() {
        let mut cache = StepCache::new();
        let mut ours = replica(SystemKind::SpeContext);
        let mut full = replica(SystemKind::FullFlashInfer);
        for i in 0..4 {
            ours.push(Admission::Fresh(req(i, 0.0)));
            full.push(Admission::Fresh(req(i, 0.0)));
        }
        ours.advance_until(&mut cache, 1e-9);
        full.advance_until(&mut cache, 1e-9);
        assert!(ours.kv_pressure() < full.kv_pressure());
    }

    #[test]
    fn crash_tears_out_work_and_freezes_until_restart() {
        let mut cache = StepCache::new();
        let mut r = replica(SystemKind::SpeContext);
        r.push(Admission::Fresh(req(0, 0.0)));
        r.push(Admission::Fresh(req(1, 0.0)));
        r.advance_until(&mut cache, 1e-9); // admit, no completions yet
        let work = r.crash();
        assert!(r.is_down());
        assert_eq!(r.health(), ReplicaHealth::Down);
        assert!(!r.has_work(), "crash empties the engine");
        assert_eq!(
            work.lost.len() + work.checkpointed.len() + r.completed().len(),
            2,
            "every assigned request is lost, checkpointed or already done"
        );
        let frozen = r.now();
        r.advance_until(&mut cache, 10.0);
        assert_eq!(r.now(), frozen, "a crashed replica is frozen");
        r.restart(5.0, Some(6.5));
        assert_eq!(r.health(), ReplicaHealth::Probation);
        assert!(r.now() >= 5.0, "restart fast-forwards the clock");
        r.end_probation(6.0); // stale deadline: ignored
        assert_eq!(r.health(), ReplicaHealth::Probation);
        r.end_probation(6.5);
        assert_eq!(r.health(), ReplicaHealth::Healthy);
    }

    #[test]
    fn straggler_slowdown_stretches_the_clock() {
        let mut cache = StepCache::new();
        let mut fast = replica(SystemKind::SpeContext);
        let mut slow = replica(SystemKind::SpeContext);
        slow.set_slowdown(4.0);
        assert_eq!(slow.health(), ReplicaHealth::Straggling);
        fast.push(Admission::Fresh(req(0, 0.0)));
        slow.push(Admission::Fresh(req(0, 0.0)));
        fast.advance_until(&mut cache, f64::INFINITY);
        slow.advance_until(&mut cache, f64::INFINITY);
        assert!(
            slow.now() > fast.now(),
            "slowed replica {} must trail healthy {}",
            slow.now(),
            fast.now()
        );
        slow.set_slowdown(1.0);
        assert_eq!(slow.health(), ReplicaHealth::Healthy);
    }

    #[test]
    fn prefill_replica_hands_off_and_decode_resumes_free() {
        let mut cache = StepCache::new();
        let mut p = replica(SystemKind::SpeContext);
        p.set_role(ReplicaRole::Prefill);
        assert_eq!(p.role(), ReplicaRole::Prefill);
        p.push(Admission::Fresh(req(0, 0.0)));
        p.advance_until(&mut cache, f64::INFINITY);
        assert!(p.completed().is_empty(), "prefill retires at first token");
        let hs: Vec<_> = p.drain_handoffs().collect();
        assert_eq!(hs.len(), 1);
        assert!(
            p.drain_handoffs().next().is_none(),
            "collection drains the buffer"
        );
        let mut d = replica(SystemKind::SpeContext);
        d.set_role(ReplicaRole::Decode);
        d.push(Admission::Preloaded {
            handoff: hs[0].restorable,
            at: hs[0].emitted,
        });
        d.advance_until(&mut cache, f64::INFINITY);
        assert_eq!(d.completed().len(), 1);
        assert_eq!(
            d.completed()[0].first_token,
            hs[0].emitted,
            "first-token history survives the hop"
        );
    }

    #[test]
    fn resident_kv_is_the_running_batch_in_whole_pages() {
        let mut cache = StepCache::new();
        // 100 tokens take seven 16-token pages: 112 tokens' bytes.
        let mut full = replica(SystemKind::FullFlashInfer);
        full.push(Admission::Fresh(Request::new(0, 0, 60, 40, 0.0)));
        full.advance_until(&mut cache, 1e-9);
        assert_eq!(full.state.running_len(), 1);
        assert_eq!(full.resident_bytes(), 112 * full.kv_bytes_per_token());

        // A sparse system keeps at most its budget resident per request.
        let mut ours = replica(SystemKind::SpeContext);
        let (bpt, budget) = (ours.kv_bytes_per_token(), 2048);
        ours.push(Admission::Fresh(Request::new(0, 0, 4000, 100, 0.0)));
        ours.advance_until(&mut cache, 1e-9);
        assert_eq!(ours.state.running_len(), 1);
        assert_eq!(ours.resident_bytes(), budget as u64 * bpt);

        // Pressure is the resident bytes plus the queued backlog's, each
        // queued request capped at the budget, over the capacity.
        for i in 1..40 {
            ours.push(Admission::Fresh(req(i, 0.0)));
        }
        assert_eq!(ours.state.queued_kv_tokens(), 39 * budget);
        let expected = ((budget as u64 * bpt) as f64 + (39 * budget) as f64 * bpt as f64)
            / ours.kv_capacity as f64;
        assert_eq!(ours.kv_pressure().to_bits(), expected.to_bits());
    }

    #[test]
    fn parked_replica_keeps_draining() {
        let mut cache = StepCache::new();
        let mut r = replica(SystemKind::SpeContext);
        r.push(Admission::Fresh(req(0, 0.0)));
        r.set_active(false);
        assert!(!r.is_active());
        r.advance_until(&mut cache, f64::INFINITY);
        assert_eq!(r.completed().len(), 1);
    }
}
