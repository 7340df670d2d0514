//! Telemetry contract tests over the committed sample trace.
//!
//! 1. **Determinism** — replaying a prefix of
//!    `results/sample_trace.sptr` through a traced cluster emits the
//!    exact same event stream on a repeat run.
//! 2. **Zero interference** — a traced run's `ClusterReport` (and so
//!    its `SloReport`) is identical to the untraced run's: recording
//!    observes the schedule, it never perturbs it.
//! 3. **Conservation** — lifecycle edges pair up: every request arrives
//!    and enqueues exactly once, completions match the report, and
//!    every preemption has a checkpoint and a later restore.

use spec_hwsim::{fleet, DeviceSpec};
use spec_model::ModelConfig;
use spec_runtime::{FairConfig, PreemptionPolicy, QueueDiscipline, SchedulerConfig, SystemKind};
use spec_serve::arrivals::ClusterRequest;
use spec_serve::cluster::{Cluster, ClusterConfig};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_serve::trace::decode;
use spec_telemetry::{Event, EventKind};

/// The first `n` requests of the committed sample trace.
fn sample_prefix(n: usize) -> Vec<ClusterRequest> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sample_trace.sptr");
    let bytes = std::fs::read(path).expect("committed results/sample_trace.sptr");
    let mut trace = decode(&bytes).expect("sample trace decodes");
    trace.truncate(n);
    trace
}

/// A small DRR + preemption fleet (the `table3_replay` policy shape), so
/// the replay exercises the full lifecycle including preempt/restore.
fn cluster() -> Cluster {
    let cfg = ClusterConfig::new().scheduler(SchedulerConfig {
        max_batch: 4,
        admission_stride: 4,
        fair: FairConfig {
            discipline: QueueDiscipline::DeficitRoundRobin,
            weights: vec![(0, 4), (1, 1)],
            preemption: PreemptionPolicy::DeficitRoundRobin,
            ..FairConfig::default()
        },
    });
    Cluster::from_fleet(
        &ModelConfig::deepseek_distill_llama_8b(),
        &fleet::homogeneous(DeviceSpec::a100_80g(), 2),
        2048,
        SystemKind::SpeContext,
        cfg,
        RouterKind::LeastOutstanding.build(),
    )
}

fn count(events: &[Event], f: impl Fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| f(&e.kind)).count()
}

#[test]
fn traced_replay_is_deterministic() {
    let trace = sample_prefix(192);
    let run = || cluster().run_traced(&trace, &SloSpec::new(10.0, 0.02));
    let (report_1, events_1) = run();
    assert!(!events_1.is_empty());
    let (report_2, events_2) = run();
    assert_eq!(report_2, report_1, "report on a repeat run");
    assert_eq!(events_2, events_1, "event stream diverged on a repeat run");
}

#[test]
fn tracing_never_perturbs_the_schedule() {
    let trace = sample_prefix(192);
    let slo = SloSpec::new(10.0, 0.02);
    let untraced = cluster().run(&trace, &slo);
    let (traced, events) = cluster().run_traced(&trace, &slo);
    assert!(!events.is_empty());
    assert_eq!(traced, untraced, "recording must not change the report");
    assert_eq!(traced.slo, untraced.slo);
}

#[test]
fn lifecycle_edges_are_conserved() {
    let trace = sample_prefix(192);
    let (report, events) = cluster().run_traced(&trace, &SloSpec::new(10.0, 0.02));
    let arrived = count(&events, |k| matches!(k, EventKind::Arrived { .. }));
    let enqueued = count(&events, |k| matches!(k, EventKind::Enqueued { .. }));
    let completed = count(&events, |k| matches!(k, EventKind::Completed { .. }));
    let rejected = count(&events, |k| matches!(k, EventKind::Rejected { .. }));
    let preempted = count(&events, |k| matches!(k, EventKind::Preempted { .. }));
    let checkpoints = count(&events, |k| {
        matches!(k, EventKind::CheckpointWritten { .. })
    });
    let restored = count(&events, |k| matches!(k, EventKind::Restored { .. }));
    assert_eq!(arrived, trace.len());
    assert_eq!(enqueued, trace.len());
    assert_eq!(completed, report.completed);
    assert_eq!(rejected, report.rejected);
    assert_eq!(
        preempted, checkpoints,
        "each preemption writes a checkpoint"
    );
    assert_eq!(preempted, restored, "each preempted request is restored");
    // Ticks are merge-sorted: the stream must be nondecreasing in time.
    assert!(events.windows(2).all(|w| w[0].tick <= w[1].tick));
}
