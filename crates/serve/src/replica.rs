//! One cluster replica: a serving engine plus KV occupancy accounting.
//!
//! A replica wraps the runtime's continuous-batching core — a
//! [`Scheduler`] driving a [`BatchState`] through
//! [`Scheduler::advance_until`] (or single [`Scheduler::step`]
//! micro-steps under a closed-loop source) — so the cluster event loop
//! can interleave request routing with engine progress at decision
//! granularity. On top of the scheduler's logical state the replica
//! mirrors its running batch into a [`BlockAllocator`] drawn from
//! `spec_kvcache`, giving routers a byte-accurate KV-pressure signal
//! that stays comparable across heterogeneous devices.
//!
//! A replica does not own a step-price table: whoever drives it lends a
//! [`StepCache`] to each advance, so the cluster can keep one table per
//! group of identically pricing replicas instead of one per replica.

use crate::router::{ReplicaHealth, ReplicaSnapshot};
use spec_kvcache::{AllocId, BlockAllocator};
use spec_runtime::{
    Admission, BatchState, CompletedRequest, CrashedWork, HandoffRecord, ReplicaRole, Request,
    Scheduler, SchedulerConfig, ServingSim, StepCache, SystemKind,
};
use spec_telemetry::{seconds_to_ticks, Event, EventKind, RecordingSink, TelemetrySink};

/// One serving engine in the fleet.
#[derive(Debug)]
pub struct Replica {
    scheduler: Scheduler,
    state: BatchState,
    kv: BlockAllocator,
    /// The running batch as the allocator holds it: request id → hold,
    /// at most `max_batch` entries, diffed by linear scan.
    kv_held: Vec<(usize, KvHold)>,
    /// The engine's batch epoch `kv_held` was last diffed at.
    kv_epoch: u64,
    kv_token_cap: usize,
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

/// How one running request's KV is on the books.
#[derive(Debug, Clone, Copy)]
enum KvHold {
    /// Resident in the block allocator.
    Live(AllocId),
    /// The allocator could not admit it (its paged round-up needs
    /// slightly more than the scheduler's admission arithmetic): this
    /// many tokens, accounted arithmetically so pressure never
    /// undercounts a loaded replica.
    Overflow(usize),
}

impl Replica {
    /// Creates a replica for `system` on the given serving simulator.
    /// Its KV capacity is the device memory left after weights and
    /// runtime buffers, managed as 16-token pages.
    pub fn new(sim: ServingSim, system: SystemKind, cfg: SchedulerConfig) -> Self {
        let mm = sim.memory_model();
        // One token's K+V across all layers plus the retrieval-head and
        // grouped-query terms of Eq. 6 — shared with the admission
        // arithmetic via the memory model.
        let bytes_per_token = mm.kv_token_total_bytes().max(1.0) as u64;
        let capacity = (mm.gpu_mem as f64 - mm.static_bytes()).max(0.0) as u64;
        // Sparse systems keep at most `budget` tokens per request
        // resident; full systems keep the whole context.
        let kv_token_cap = match system {
            SystemKind::SpeContext => sim.budget(),
            _ => usize::MAX,
        };
        let device = sim.device().name.clone();
        let hourly_cost = sim.device().hourly_cost;
        let mut state = BatchState::new();
        state.set_kv_token_cap(kv_token_cap);
        let kv_epoch = state.batch_epoch();
        Self {
            scheduler: Scheduler::new(sim, system, cfg),
            state,
            kv: BlockAllocator::new(16, bytes_per_token, capacity),
            kv_held: Vec::new(),
            kv_epoch,
            kv_token_cap,
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
        self.kv.bytes_per_token()
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
    /// releases the KV mirror, and freezes the engine until
    /// [`restart`](Self::restart). Completions and rejections recorded
    /// so far survive — they already happened.
    pub fn crash(&mut self) -> CrashedWork {
        self.down = true;
        self.probation_until = None;
        let work = self.state.crash_dump();
        self.sync_kv();
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
        let tokens = (req.input_len + produced).min(self.kv_token_cap);
        tokens as u64 * self.kv.bytes_per_token()
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
    /// refreshes the KV occupancy mirror. One micro-step may overshoot
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
        self.sync_kv();
    }

    /// One scheduler micro-step (closed-loop event granularity: the
    /// cluster interleaves single steps with completion feedback) priced
    /// through the lent `cache`, then refreshes the KV occupancy mirror.
    /// No-op when idle.
    pub fn step_once(&mut self, cache: &mut StepCache) {
        if self.down {
            return;
        }
        if self.state.has_work() {
            self.scheduler
                .step_traced(&mut self.state, cache, &mut self.telemetry);
        }
        self.sync_kv();
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
        let capacity = self.kv.capacity_bytes();
        if capacity == 0 {
            return f64::INFINITY;
        }
        let overflow_tokens: usize = self
            .kv_held
            .iter()
            .map(|&(_, hold)| match hold {
                KvHold::Live(_) => 0,
                KvHold::Overflow(tokens) => tokens,
            })
            .sum();
        let unresident_bytes = (self.state.queued_kv_tokens() + overflow_tokens) as f64
            * self.kv.bytes_per_token() as f64;
        (self.kv.used_bytes() as f64 + unresident_bytes) / capacity as f64
    }

    /// Mirrors the running batch into the block allocator: admit newly
    /// scheduled requests, release finished ones. Accounting only — the
    /// scheduler's own admission test stays authoritative, so a
    /// 1-replica cluster still reproduces `Scheduler::run` bit-for-bit.
    /// The diff runs only when the engine's batch epoch has moved since
    /// the last one; otherwise the batch, and so the mirror, is as it was.
    fn sync_kv(&mut self) {
        let epoch = self.state.batch_epoch();
        if epoch != self.kv_epoch {
            self.kv_epoch = epoch;
            self.diff_kv();
        }
        if self.telemetry.enabled() {
            self.gauge_kv();
        }
    }

    /// Emits the KV occupancy gauge if it moved (traced runs only; out of
    /// line, so an untraced sync never computes the event's tick).
    #[inline(never)]
    fn gauge_kv(&mut self) {
        let used = self.kv.used_bytes();
        if self.kv_gauge != Some(used) {
            self.kv_gauge = Some(used);
            self.telemetry.emit(Event {
                tick: seconds_to_ticks(self.state.now()),
                replica: 0, // restamped by the tagged sink
                kind: EventKind::KvOccupancy {
                    used,
                    capacity: self.kv.capacity_bytes(),
                },
            });
        }
    }

    /// The diff behind [`Replica::sync_kv`].
    fn diff_kv(&mut self) {
        let (state, kv) = (&self.state, &mut self.kv);
        self.kv_held.retain(|&(id, hold)| {
            let running = state.running_requests().any(|r| r.id == id);
            if let (false, KvHold::Live(alloc)) = (running, hold) {
                kv.release(alloc);
            }
            running
        });
        for req in state.running_requests() {
            if self.kv_held.iter().any(|&(id, _)| id == req.id) {
                continue;
            }
            let tokens = (req.input_len + req.output_len).min(self.kv_token_cap);
            // When the allocator refuses, the scheduler's admission stays
            // authoritative; keep the demand on the books so
            // LeastKvPressure sees the load.
            let hold = kv
                .admit(tokens)
                .map_or(KvHold::Overflow(tokens), KvHold::Live);
            self.kv_held.push((req.id, hold));
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
        r.advance_until(&mut cache, 1e-9); // admit some work, sync the mirror
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

    /// Diffs `rep`'s KV mirror whatever its batch epoch says, and asserts
    /// that the full re-sync found nothing to change: the same requests
    /// held, the same bytes in use.
    fn assert_mirror_is_resynced(rep: &mut Replica, context: &str) {
        let mirror = |rep: &Replica| {
            let held: Vec<usize> = rep.kv_held.iter().map(|&(id, _)| id).collect();
            (held, rep.kv.used_bytes())
        };
        let skipped = mirror(rep);
        rep.kv_epoch = rep.kv_epoch.wrapping_sub(1);
        rep.sync_kv();
        assert_eq!(skipped, mirror(rep), "{context}");
    }

    #[test]
    fn epoch_skipped_kv_mirror_equals_a_full_resync() {
        use spec_runtime::{FairConfig, PreemptionPolicy, QueueDiscipline};
        // A faulted split fleet, driven by hand the way the cluster
        // drives it: one prefill engine handing off to two decode
        // engines, which crash (checkpoints restored on the other, lost
        // work back through prefill) and restart. DRR with preemption
        // over two tenants, so checkpoints exist to restore.
        let cfg = SchedulerConfig {
            max_batch: 4,
            admission_stride: 4,
            fair: FairConfig {
                discipline: QueueDiscipline::DeficitRoundRobin,
                weights: vec![(0, 4), (1, 1)],
                preemption: PreemptionPolicy::DeficitRoundRobin,
                ..FairConfig::default()
            },
        };
        let sim = ServingSim::new(
            ModelConfig::deepseek_distill_llama_8b(),
            DeviceSpec::a100_80g(),
            2048,
        );
        let engine = |role| {
            let mut r = Replica::new(sim.clone(), SystemKind::SpeContext, cfg.clone());
            r.set_role(role);
            r
        };
        let mut fleet = [
            engine(ReplicaRole::Prefill),
            engine(ReplicaRole::Decode),
            engine(ReplicaRole::Decode),
        ];
        // Per engine, the last instant work was pushed at: work goes in
        // no earlier than that.
        let mut last = [0.0f64; 3];
        let mut at_or_after = |i: usize, at: f64| {
            last[i] = last[i].max(at);
            last[i]
        };
        let mut cache = StepCache::new();
        let (mut t, mut next_id, mut crashes) = (0.0, 0, 0);
        let mut checks = 0;
        while t < 600.0 {
            if next_id < 48 && t < 40.0 {
                let (tenant, output_len) = ((next_id % 3 == 0) as u32, 8 + 24 * (next_id % 5));
                let req = Request::new(next_id, tenant, 512 + 256 * (next_id % 7), output_len, t);
                at_or_after(0, t);
                fleet[0].push(Admission::Fresh(req));
                next_id += 1;
            }
            for (i, rep) in fleet.iter_mut().enumerate() {
                rep.advance_until(&mut cache, t);
                assert_mirror_is_resynced(rep, &format!("advance of {i} to {t}"));
                checks += 1;
            }
            let handoffs: Vec<HandoffRecord> = fleet[0].drain_handoffs().collect();
            for (k, h) in handoffs.into_iter().enumerate() {
                let to = 1 + (h.restorable.request.id + k) % 2;
                let at = at_or_after(to, h.emitted);
                fleet[to].push(Admission::Preloaded {
                    handoff: h.restorable,
                    at,
                });
            }
            let step = (t / 0.5) as usize;
            if step % 37 == 11 && crashes < 6 {
                let (down, up) = (1 + crashes % 2, 2 - crashes % 2);
                crashes += 1;
                let work = fleet[down].crash();
                assert_mirror_is_resynced(&mut fleet[down], &format!("crash of {down} at {t}"));
                for checkpoint in work.checkpointed {
                    let at = at_or_after(up, t);
                    fleet[up].push(Admission::Restored { checkpoint, at });
                    assert_mirror_is_resynced(&mut fleet[up], &format!("restore on {up} at {t}"));
                }
                for lost in work.lost {
                    let arrival = at_or_after(0, t);
                    fleet[0].push(Admission::Fresh(Request { arrival, ..lost }));
                }
            }
            for (i, rep) in fleet.iter_mut().enumerate() {
                if rep.is_down() && step % 37 == 14 {
                    rep.restart(t, None);
                    assert_mirror_is_resynced(rep, &format!("restart of {i} at {t}"));
                }
            }
            t += 0.5;
        }
        for rep in &mut fleet {
            rep.advance_until(&mut cache, f64::INFINITY);
            assert_mirror_is_resynced(rep, "drain");
        }
        let done: usize = fleet.iter().map(|r| r.completed().len()).sum();
        assert!(
            crashes >= 4 && checks > 1000,
            "{crashes} crashes, {checks} checks"
        );
        assert!(done > 24, "{done} completions");
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
