//! Cluster-scale serving on top of the single-engine runtime.
//!
//! The paper's serving evaluation (Table 3) and `spec_runtime`'s
//! [`Scheduler`](spec_runtime::Scheduler) stop at one replica fed a
//! closed-loop workload. This crate adds the layer between "one engine"
//! and "a fleet": an event-driven cluster simulator that composes N
//! replicas of the existing `ServingSim`/`Scheduler` stack behind a
//! pluggable router, drives them from streaming arrival sources —
//! open-loop processes, recorded traces, closed-loop sessions — and
//! accounts results against latency SLOs.
//!
//! * [`arrivals`] — the streaming [`ArrivalSource`]
//!   API and its generators: Poisson, bursty (Markov-modulated), diurnal
//!   and flash-crowd processes over the runtime's `Workload` shapes, plus
//!   closed-loop sessions whose next request departs only after the
//!   previous response; deterministic via `spec_tensor::SimRng`;
//! * [`trace`] — compact binary traces (~10 bytes/request): record any
//!   source, replay it bit-for-bit with O(1) memory;
//! * [`characterize`](mod@characterize) — one-pass trace characterization (tenant mix,
//!   length histograms, burstiness, peak-to-mean) as markdown + JSON;
//! * [`router`] — pluggable routing policies: round-robin,
//!   least-outstanding, least-KV-pressure, session affinity, and
//!   weighted-tenant fleet partitioning;
//! * [`replica`] — one serving engine: the runtime scheduler's stepping
//!   core plus KV occupancy accounting through `spec_kvcache`'s block
//!   allocator;
//! * [`cluster`] — the event kernel: take the next event (arrival,
//!   fault, retry, handoff), advance the fleet to its instant, apply it
//!   — routing, autoscaling on queue depth, feeding completions back to
//!   closed-loop sources — and report when the fleet runs dry;
//!   heterogeneous fleets come from `spec_hwsim::Fleet`. Role-typed
//!   fleets ([`Cluster::from_fleet_slots`](cluster::Cluster::from_fleet_slots))
//!   disaggregate serving: prefill replicas retire requests at first
//!   token and hand their sparse-budget KV to decode replicas over a
//!   priced interconnect, with two-stage routing, cost-aware role-aware
//!   autoscaling, and goodput-per-dollar accounting;
//! * [`slo`] — per-request TTFT/TBT/latency percentiles, SLO attainment
//!   and goodput, fleet-wide and broken down per tenant;
//! * [`faults`] — deterministic seeded fault injection (crashes,
//!   stragglers, checkpoint-transfer failures) and the recovery knobs:
//!   capped-backoff retries with a dead-letter budget, tenant-weighted
//!   overload shedding, probation, and health-aware routing.
//!
//! A 1-replica cluster under round-robin routing reproduces
//! [`Scheduler::run`](spec_runtime::Scheduler::run) bit-for-bit: both
//! drive the identical [`Scheduler::step`](spec_runtime::Scheduler::step)
//! decisions, the cluster merely interleaves arrival routing between
//! steps (see `tests/properties.rs`).
//!
//! # Example
//!
//! ```
//! use spec_hwsim::{DeviceSpec, Fleet};
//! use spec_model::ModelConfig;
//! use spec_runtime::{SystemKind, Workload};
//! use spec_serve::{
//!     arrivals::TraceConfig,
//!     cluster::{Cluster, ClusterConfig},
//!     router::RouterKind,
//!     slo::SloSpec,
//! };
//!
//! let fleet = Fleet::new().with(DeviceSpec::a100_80g(), 2).build();
//! let mut cluster = Cluster::from_fleet(
//!     &ModelConfig::deepseek_distill_llama_8b(),
//!     &fleet,
//!     2048,
//!     SystemKind::SpeContext,
//!     ClusterConfig::new(),
//!     RouterKind::LeastOutstanding.build(),
//! );
//! let cfg = TraceConfig::poisson(0.5)
//!     .shapes(vec![Workload::new(2048, 1024, 1)])
//!     .count(8)
//!     .seed(7);
//! let report = cluster.run_source(&mut cfg.source(), &SloSpec::default());
//! assert_eq!(report.completed, 8);
//! ```

pub mod arrivals;
pub mod characterize;
pub mod cluster;
pub mod faults;
pub mod replica;
pub mod router;
pub mod slo;
pub mod trace;

pub use arrivals::{
    ArrivalProcess, ArrivalSource, ClosedLoopConfig, ClosedLoopSource, ClusterRequest,
    GeneratedArrivals, SliceSource, TenantClass, TraceConfig,
};
pub use characterize::{characterize, Characterization, ComputeSplit};
pub use cluster::{
    AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, DisaggConfig, HandoffSummary,
    ReplicaReport,
};
pub use faults::{
    CrashEvent, CrashModel, FaultInjector, FaultPlan, FaultSummary, RetryPolicy, ShedPolicy,
    StragglerModel, StragglerWindow,
};
pub use replica::Replica;
pub use router::{ReplicaHealth, ReplicaSnapshot, RoutePolicy, RouterKind, WeightedTenant};
pub use slo::{CostReport, FaultOutcomes, SloReport, SloSpec, TenantSlo};
pub use trace::{RecordingSource, ReplayArrivals, TraceCursor, TraceError, TraceWriter};
