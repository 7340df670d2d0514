//! Request-lifecycle events and the sinks they flow into.
//!
//! Instrumented code is generic over [`TelemetrySink`] and monomorphizes:
//! with the default [`NullSink`] every `emit` is a no-op and
//! [`TelemetrySink::enabled`] is a compile-time `false`, so gauge
//! snapshots behind `if sink.enabled()` cost nothing and the traced and
//! untraced code paths are the same machine code modulo dead stores. No
//! event ever carries wall-clock time — ticks come from the simulated
//! clock, so recorded streams are bit-for-bit reproducible.

use serde::{Deserialize, Serialize};

/// Simulated time, in ticks of [`TICK_NS`] nanoseconds.
pub type Tick = u64;

/// Nanoseconds per tick — a 1 µs grid, the same resolution the `SPTR`
/// trace format defaults to, and exactly the `ts` unit Chrome/Perfetto
/// `trace_event` JSON expects.
pub const TICK_NS: u64 = 1_000;

/// Converts simulator seconds to the telemetry tick grid (rounding to
/// the nearest tick).
pub fn seconds_to_ticks(seconds: f64) -> Tick {
    (seconds * (1e9 / TICK_NS as f64)).round() as Tick
}

/// Converts ticks back to seconds.
pub fn ticks_to_seconds(ticks: Tick) -> f64 {
    ticks as f64 * TICK_NS as f64 / 1e9
}

/// What happened. Lifecycle kinds identify the request; gauge kinds
/// snapshot a scheduler-internal quantity once per decode iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The request entered the cluster (router-side, pre-queue).
    Arrived { request: u64, tenant: u32 },
    /// The request joined a replica's tenant queue.
    Enqueued { request: u64, tenant: u32 },
    /// The request entered the running batch fresh (prefill charged).
    Admitted { request: u64, tenant: u32 },
    /// The request was evicted from the running batch.
    Preempted { request: u64, tenant: u32 },
    /// The evicted request's resident KV was saved over PCIe.
    CheckpointWritten { request: u64, bytes: u64 },
    /// A checkpointed request re-entered the batch (restore charged).
    Restored { request: u64, tenant: u32 },
    /// The request's first output token exists.
    FirstToken { request: u64, tenant: u32 },
    /// The request produced its last token.
    Completed { request: u64, tenant: u32 },
    /// The request could never be admitted, even alone.
    Rejected { request: u64, tenant: u32 },
    /// The autoscaler unparked a replica.
    ReplicaScaledUp,
    /// The autoscaler parked a replica.
    ReplicaScaledDown,
    /// The replica crashed: `lost` in-flight/queued requests enter the
    /// retry path, `checkpointed` requests hold host-side checkpoints
    /// eligible for restore on a surviving replica.
    ReplicaCrashed { lost: u32, checkpointed: u32 },
    /// The crashed replica restarted (probation may follow).
    ReplicaRecovered,
    /// A request lost to a crash (or failed migration) was scheduled to
    /// re-enter the cluster after backoff; `attempt` counts retries so
    /// far (1 = first retry).
    RetryScheduled {
        request: u64,
        tenant: u32,
        attempt: u32,
    },
    /// Admission control dropped the arrival: outstanding work crossed
    /// the tenant's shed watermark.
    RequestShed { request: u64, tenant: u32 },
    /// A checkpoint's KV transfer to a surviving replica failed; the
    /// request restarts from scratch via the retry path.
    CheckpointLost { request: u64, bytes: u64 },
    /// The request exhausted its retry budget and was dropped.
    DeadLettered { request: u64, tenant: u32 },
    /// A `Prefill`-role replica retired the request at its first token
    /// and emitted its resident KV (`bytes`, sparse-budget-capped) for
    /// the hop to a decode replica.
    HandoffEmitted {
        request: u64,
        tenant: u32,
        bytes: u64,
    },
    /// The interconnect finished moving the handoff's KV and the
    /// request joined a `Decode`-role replica's queue, preloaded.
    HandoffDelivered {
        request: u64,
        tenant: u32,
        bytes: u64,
    },
    /// The replica entered a straggler window: step costs are scaled by
    /// `permille`/1000 until [`EventKind::StragglerEnded`].
    StragglerStarted { permille: u32 },
    /// The replica's straggler window ended; costs return to nominal.
    StragglerEnded,
    /// Gauge: one tenant's wait-queue depth.
    QueueDepth { tenant: u32, depth: u64 },
    /// Gauge: requests in the running batch.
    RunningBatch { size: u64 },
    /// Gauge: KV bytes the running batch holds (each request paged to
    /// 16 tokens, sparse-budget-capped) against the replica's capacity.
    KvOccupancy { used: u64, capacity: u64 },
    /// Gauge: one tenant's DRR deficit counter, tokens.
    DrrDeficit { tenant: u32, deficit: u64 },
}

impl EventKind {
    /// A short stable name (Perfetto event names, dashboard rows).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrived { .. } => "arrived",
            EventKind::Enqueued { .. } => "enqueued",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Preempted { .. } => "preempted",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::Restored { .. } => "restored",
            EventKind::FirstToken { .. } => "first_token",
            EventKind::Completed { .. } => "completed",
            EventKind::Rejected { .. } => "rejected",
            EventKind::ReplicaScaledUp => "replica_scaled_up",
            EventKind::ReplicaScaledDown => "replica_scaled_down",
            EventKind::ReplicaCrashed { .. } => "replica_crashed",
            EventKind::ReplicaRecovered => "replica_recovered",
            EventKind::RetryScheduled { .. } => "retry_scheduled",
            EventKind::RequestShed { .. } => "request_shed",
            EventKind::CheckpointLost { .. } => "checkpoint_lost",
            EventKind::DeadLettered { .. } => "dead_lettered",
            EventKind::HandoffEmitted { .. } => "handoff_emitted",
            EventKind::HandoffDelivered { .. } => "handoff_delivered",
            EventKind::StragglerStarted { .. } => "straggler_started",
            EventKind::StragglerEnded => "straggler_ended",
            EventKind::QueueDepth { .. } => "queue_depth",
            EventKind::RunningBatch { .. } => "running_batch",
            EventKind::KvOccupancy { .. } => "kv_occupancy",
            EventKind::DrrDeficit { .. } => "drr_deficit",
        }
    }
}

/// One telemetry event: a kind stamped with the simulated tick and the
/// replica it happened on (0 when scheduler-scope code emits it; a
/// tagged [`RecordingSink`] overwrites the stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Simulated time, ticks.
    pub tick: Tick,
    /// Replica index the event belongs to.
    pub replica: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Where instrumented code sends events. Implementations must be cheap:
/// the scheduler emits on every admission decision and decode iteration.
pub trait TelemetrySink {
    /// Accepts one event.
    fn emit(&mut self, event: Event);

    /// Whether emission has any effect — instrumentation guards
    /// *construction* of expensive payloads (gauge sweeps) behind this,
    /// so a disabled sink costs nothing.
    fn enabled(&self) -> bool {
        true
    }
}

/// The disabled sink: `emit` is a no-op and [`TelemetrySink::enabled`]
/// is `false`, so monomorphized instrumentation compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

impl<S: TelemetrySink> TelemetrySink for &mut S {
    fn emit(&mut self, event: Event) {
        (**self).emit(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// `None` behaves like [`NullSink`]; `Some` forwards. This is how owners
/// of an optional sink (a replica that may or may not be traced) pass it
/// down without branching at every call site.
impl<S: TelemetrySink> TelemetrySink for Option<S> {
    fn emit(&mut self, event: Event) {
        if let Some(sink) = self {
            sink.emit(event);
        }
    }

    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(|s| s.enabled())
    }
}

/// A sink that buffers every event in emission order, optionally
/// stamping a fixed replica index on each — the per-replica buffer that
/// makes cluster tracing deterministic: each replica's local stream is
/// its own, and [`merge_streams`] interleaves the buffers by a total
/// order of simulated time and replica index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingSink {
    tag: Option<u32>,
    events: Vec<Event>,
}

impl RecordingSink {
    /// An empty, untagged recorder (events keep their own replica field).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder that stamps `replica` on every event it
    /// receives — handed to scheduler-scope code that cannot know which
    /// replica it runs inside.
    pub fn tagged(replica: u32) -> Self {
        Self {
            tag: Some(replica),
            events: Vec::new(),
        }
    }

    /// Events recorded so far, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the recorder into its event buffer.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl TelemetrySink for RecordingSink {
    fn emit(&mut self, mut event: Event) {
        if let Some(tag) = self.tag {
            event.replica = tag;
        }
        self.events.push(event);
    }
}

/// Merges per-stream event buffers into one deterministic sequence,
/// ordered by `(tick, stream index, within-stream emission order)`.
///
/// Stream index — the buffer's position in `streams` — must itself be
/// fixed (replica index, with any cluster-scope buffer at a fixed
/// position); given that, the merged order is identical on every run.
/// Per-stream tick monotonicity is *not* assumed (enqueues are
/// stamped at arrival time while the replica clock may already have
/// overshot), hence a full stable sort rather than a k-way merge.
pub fn merge_streams(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let total = streams.iter().map(Vec::len).sum();
    let mut keyed: Vec<(usize, Event)> = Vec::with_capacity(total);
    for (index, stream) in streams.into_iter().enumerate() {
        keyed.extend(stream.into_iter().map(|e| (index, e)));
    }
    // Stable sort: ties on (tick, stream) keep emission order.
    keyed.sort_by_key(|&(index, event)| (event.tick, index));
    keyed.into_iter().map(|(_, event)| event).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: Tick, replica: u32, request: u64) -> Event {
        Event {
            tick,
            replica,
            kind: EventKind::Completed { request, tenant: 0 },
        }
    }

    #[test]
    fn tick_conversion_round_trips_on_the_grid() {
        for t in [0u64, 1, 999, 1_000_000, 86_400_000_000] {
            assert_eq!(seconds_to_ticks(ticks_to_seconds(t)), t);
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        let mut none: Option<RecordingSink> = None;
        assert!(!none.enabled());
        none.emit(ev(0, 0, 0));
        let mut some = Some(RecordingSink::new());
        assert!(some.enabled());
        some.emit(ev(3, 1, 7));
        assert_eq!(some.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn tagged_recorder_stamps_replica() {
        let mut sink = RecordingSink::tagged(5);
        sink.emit(ev(1, 0, 42));
        assert_eq!(sink.events()[0].replica, 5);
    }

    #[test]
    fn merge_orders_by_tick_then_stream_then_emission() {
        let a = vec![ev(5, 0, 1), ev(5, 0, 2), ev(1, 0, 3)];
        let b = vec![ev(5, 1, 4), ev(0, 1, 5)];
        let merged = merge_streams(vec![a, b]);
        let ids: Vec<u64> = merged
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Completed { request, .. } => Some(request),
                _ => None,
            })
            .collect();
        // tick 0 → 5(b); tick 1 → 3(a); tick 5 → stream 0 first in
        // emission order (1, 2), then stream 1 (4).
        assert_eq!(ids, vec![5, 3, 1, 2, 4]);
    }
}
