//! Observability for the serving stack: request-lifecycle events,
//! streaming histograms, Perfetto export, and run dashboards.
//!
//! The scheduler, replicas, cluster and autoscaler are generic over a
//! [`TelemetrySink`]; with the default [`NullSink`] instrumentation
//! monomorphizes to nothing (every result file and bit-for-bit pin in
//! the workspace is produced with the sink disabled and stays
//! byte-identical). Handing in a [`RecordingSink`] instead captures the
//! full per-request journey — queue → admit → preempt → checkpoint →
//! restore → first token → complete — stamped with simulated ticks,
//! never wall clock, so recorded streams are deterministic.
//!
//! What you can do with a recorded stream:
//!
//! * [`perfetto::export_trace`] — Chrome/Perfetto `trace_event` JSON for
//!   `ui.perfetto.dev`: a track per replica and tenant, slices for
//!   running segments, counters for queue depth / batch size / KV
//!   occupancy / DRR deficits, flow arrows linking each preemption to
//!   its restore;
//! * [`dashboard::render_dashboard`] — a markdown run summary to append
//!   to the `characterize` report;
//! * [`histogram::completion_time_histograms`] — per-tenant streaming
//!   [`LogHistogram`]s of completion time, the distribution the replay
//!   regression gate (`replay_gate` in `spec_bench`) pins against a
//!   committed baseline.

pub mod dashboard;
pub mod event;
pub mod histogram;
pub mod perfetto;

pub use dashboard::render_dashboard;
pub use event::{
    merge_streams, seconds_to_ticks, ticks_to_seconds, Event, EventKind, NullSink, RecordingSink,
    TelemetrySink, Tick, TICK_NS,
};
pub use histogram::{completion_time_histograms, LogHistogram, DEFAULT_SUB_BITS};
pub use perfetto::export_trace;
