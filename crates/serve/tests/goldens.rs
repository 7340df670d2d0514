//! Golden pins for the cluster event kernel.
//!
//! The other suites compare one `Cluster::run*` entry point with another
//! (empty plan ≡ `run`, traced ≡ untraced, all-`Unified` ≡ monolithic).
//! With a single kernel behind every entry point those compare a
//! function with itself, so these four runs are pinned against constants
//! instead: the bit-exact `ClusterReport` (every float of every
//! completion, through its `Debug` text) and the telemetry stream,
//! recorded on the three-loop implementation the kernel replaced.
//! Golden (b) was re-recorded once, for the one deliberate change: the
//! fleet now advances to a fault's instant before the fault applies.
//! All seven were re-recorded once more when the scheduler's clock moved
//! to integer ticks (every step, prefill and transfer price rounded to
//! the microsecond): (a) and (c)–(g) kept every decision and moved only
//! instants, by at most 0.8 ms; (b) is the one run whose decisions moved.

use spec_hwsim::{fleet, DeviceSpec, Fleet, LinkSpec, ReplicaRole};
use spec_model::ModelConfig;
use spec_runtime::{
    FairConfig, PreemptionPolicy, QueueDiscipline, SchedulerConfig, SystemKind, Workload,
};
use spec_serve::arrivals::{self, ClosedLoopConfig, TenantClass, TraceConfig};
use spec_serve::cluster::{AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, DisaggConfig};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_serve::trace::ReplayArrivals;
use spec_serve::{FaultPlan, RetryPolicy, ShedPolicy, SliceSource};
use spec_telemetry::{Event, EventKind};
use spec_tensor::SimRng;

/// What a golden run is held to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over the report's `Debug` text (floats print round-trip
    /// exact, so equal hashes mean equal bits).
    report: u64,
    /// Telemetry events recorded.
    events: usize,
    /// FNV-1a over the event stream's `Debug` text.
    stream: u64,
    /// FNV-1a over every KV occupancy gauge as `(tick, replica, used,
    /// capacity)`, recorded when a block allocator still mirrored each
    /// running batch: pins the gauge's bytes to the sum that replaced it.
    kv: u64,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden((report, events): (ClusterReport, Vec<Event>)) -> Golden {
    Golden {
        report: fnv1a(&format!("{report:?}")),
        events: events.len(),
        stream: fnv1a(&format!("{events:?}")),
        kv: fnv1a(&format!("{:?}", kv_gauges(&events))),
    }
}

fn kv_gauges(events: &[Event]) -> Vec<(u64, u32, u64, u64)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::KvOccupancy { used, capacity } => Some((e.tick, e.replica, used, capacity)),
            _ => None,
        })
        .collect()
}

/// `replay_gate`'s scheduler: DRR with preemption, so checkpoints and
/// restores run, not just FIFO decode.
fn gate_scheduler() -> SchedulerConfig {
    SchedulerConfig {
        max_batch: 4,
        admission_stride: 4,
        fair: FairConfig {
            discipline: QueueDiscipline::DeficitRoundRobin,
            weights: vec![(0, 4), (1, 1)],
            preemption: PreemptionPolicy::DeficitRoundRobin,
            ..FairConfig::default()
        },
    }
}

fn model() -> ModelConfig {
    ModelConfig::deepseek_distill_llama_8b()
}

fn unified(n: usize, cfg: ClusterConfig) -> Cluster {
    Cluster::from_fleet(
        &model(),
        &fleet::homogeneous(DeviceSpec::a100_80g(), n),
        2048,
        SystemKind::SpeContext,
        cfg,
        RouterKind::LeastOutstanding.build(),
    )
}

fn sample_trace() -> ReplayArrivals {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sample_trace.sptr");
    let bytes = std::fs::read(path).expect("committed results/sample_trace.sptr");
    ReplayArrivals::new(bytes).expect("sample trace decodes")
}

fn gate_slo() -> SloSpec {
    SloSpec::new(10.0, 0.02)
}

/// (a) The sample trace through `run_source` on `replay_gate`'s 2×A100
/// cluster.
#[test]
fn golden_a_open_loop_sample_trace() {
    let mut cluster = unified(2, ClusterConfig::new().scheduler(gate_scheduler()));
    let got = golden(cluster.run_source_traced(&mut sample_trace(), &gate_slo()));
    assert_eq!(
        got,
        Golden {
            report: 2683233818896216028,
            events: 63408,
            stream: 6618679274012302635,
            kv: 128435896440716715,
        }
    );
}

/// (b) The same trace through `run_faulted` on `bench_e2e`'s 2 prefill +
/// 2 decode InfiniBand fleet under its `chaos_plan()`.
#[test]
fn golden_b_faulted_split_fleet() {
    let slots = Fleet::new()
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, 2)
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, 2)
        .build_slots();
    let mut cluster = Cluster::from_fleet_slots(
        &model(),
        &slots,
        2048,
        SystemKind::SpeContext,
        ClusterConfig::new()
            .scheduler(gate_scheduler())
            .disagg(DisaggConfig::new().link(LinkSpec::infiniband())),
        RouterKind::LeastOutstanding.build(),
    );
    let plan = FaultPlan::none()
        .seed(11)
        .mtbf(3000.0, 5.0)
        .random_stragglers(60.0, 10.0, 5.0)
        .kv_loss(0.1)
        .retry(RetryPolicy::default())
        .shed(ShedPolicy::new(12_000).weights(vec![(0, 4), (1, 1)]))
        .probation(2.0);
    let (report, events) = cluster.run_faulted_traced(&mut sample_trace(), &gate_slo(), &plan);
    let counters = (
        report.completed,
        report.faults.retries,
        report.handoffs.count,
        report
            .replicas
            .iter()
            .map(|r| r.report.preemptions)
            .sum::<usize>(),
        report.makespan,
    );
    // Before advance-then-apply reached the fault arm (struck replica
    // only, the rest of the fleet at stale clocks) the parent recorded
    // (3942, 1607, 5549, 1307, 8767.82724305081) with report
    // 11791540808780660334 over 107142 events, stream
    // 14677427422617904870 — and the fold reproduced that bit for bit.
    // On the float clock it read (3942, 1646, 5588, 1321,
    // 8806.13302033595), report 7295266806554923399 over 107932 events;
    // the tick clock's roundings move one sweep across a head's arrival at
    // t ≈ 408 s, and the chaos run diverges from there.
    assert_eq!(counters, (3942, 1648, 5590, 1325, 8806.708618));
    assert_eq!(
        golden((report, events)),
        Golden {
            report: 3735408134989923011,
            events: 108024,
            stream: 17268109669951635175,
            kv: 12292046109033975730,
        }
    );
}

/// (c) A two-tenant closed-loop run: sessions with think time and a
/// ramp on three replicas.
#[test]
fn golden_c_closed_loop() {
    let cfg = ClosedLoopConfig::new(12, 4)
        .think(0.4)
        .ramp(2.0)
        .tenants(vec![
            TenantClass::new(0, 3, vec![Workload::new(512, 128, 1)]),
            TenantClass::new(1, 1, vec![Workload::new(2048, 1024, 1)]),
        ])
        .seed(5);
    let mut cluster = unified(3, ClusterConfig::new().scheduler(gate_scheduler()));
    let got = golden(cluster.run_source_traced(&mut cfg.source(), &SloSpec::default()));
    assert_eq!(
        got,
        Golden {
            report: 9092149104076901463,
            events: 487,
            stream: 2442377645487579667,
            kv: 5968597624520574534,
        }
    );
}

/// (d) An autoscaled run with a priced cold start: a bursty trace wakes
/// parked replicas, a lull parks them again.
#[test]
fn golden_d_autoscaled() {
    let auto = AutoscaleConfig {
        min_replicas: 1,
        scale_up_outstanding: 2,
        scale_down_outstanding: 1,
        spin_up_s: 2.0,
        warmup_kv_tokens: 2048,
    };
    let trace = arrivals::generate(
        &TraceConfig::bursty(1.0, 12.0, 0.1)
            .shapes(vec![
                Workload::new(2048, 512, 3),
                Workload::new(1024, 256, 1),
            ])
            .count(160),
        &mut SimRng::seed(7),
    );
    let mut cluster = unified(4, ClusterConfig::new().autoscale(auto));
    let (report, events) = cluster.run_traced(&trace, &SloSpec::default());
    for kind in [EventKind::ReplicaScaledUp, EventKind::ReplicaScaledDown] {
        assert!(events.iter().any(|e| e.kind == kind), "no {kind:?}");
    }
    assert_eq!(
        golden((report, events)),
        Golden {
            report: 10597251840022910124,
            events: 1512,
            stream: 13508032966670016670,
            kv: 14345278203531791155,
        }
    );
}

/// The first 512 requests of the sample trace.
fn sample_prefix() -> Vec<arrivals::ClusterRequest> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sample_trace.sptr");
    let bytes = std::fs::read(path).expect("committed results/sample_trace.sptr");
    let mut trace = spec_serve::trace::decode(&bytes).expect("sample trace decodes");
    trace.truncate(512);
    trace
}

// Goldens (e)-(g) pin that sharing one step table between replicas that
// price identically changes no report: they were recorded on the commit
// where every replica still filled a private table.

/// (e) The prefix on four identical A100s — one shared table.
#[test]
fn golden_e_homogeneous_fleet_prefix() {
    let mut cluster = unified(4, ClusterConfig::new().scheduler(gate_scheduler()));
    let got = golden(cluster.run_traced(&sample_prefix(), &gate_slo()));
    assert_eq!(
        got,
        Golden {
            report: 4018050635621829297,
            events: 7537,
            stream: 12999392517806961581,
            kv: 17096203651473722030,
        }
    );
}

/// (f) The prefix on 2 A100 + 2 RTX 4090 — two tables, each shared by a
/// pair.
#[test]
fn golden_f_mixed_device_fleet_prefix() {
    let devices = Fleet::new()
        .with(DeviceSpec::a100_80g(), 2)
        .with(DeviceSpec::rtx4090(), 2)
        .build();
    let mut cluster = Cluster::from_fleet(
        &model(),
        &devices,
        2048,
        SystemKind::SpeContext,
        ClusterConfig::new().scheduler(gate_scheduler()),
        RouterKind::LeastKvPressure.build(),
    );
    let got = golden(cluster.run_traced(&sample_prefix(), &gate_slo()));
    assert_eq!(
        got,
        Golden {
            report: 1544353056562509431,
            events: 8113,
            stream: 6341784970227580067,
            kv: 459980536824806980,
        }
    );
}

/// (g) The prefix on golden (b)'s 2 prefill + 2 decode fleet under a
/// fault plan dense enough to crash, straggle and shed within it.
#[test]
fn golden_g_faulted_split_fleet_prefix() {
    let slots = Fleet::new()
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, 2)
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, 2)
        .build_slots();
    let mut cluster = Cluster::from_fleet_slots(
        &model(),
        &slots,
        2048,
        SystemKind::SpeContext,
        ClusterConfig::new()
            .scheduler(gate_scheduler())
            .disagg(DisaggConfig::new().link(LinkSpec::infiniband())),
        RouterKind::LeastOutstanding.build(),
    );
    let plan = FaultPlan::none()
        .seed(11)
        .mtbf(400.0, 5.0)
        .random_stragglers(60.0, 10.0, 5.0)
        .kv_loss(0.1)
        .retry(RetryPolicy::default())
        .shed(ShedPolicy::new(1_200).weights(vec![(0, 4), (1, 1)]))
        .probation(2.0);
    let (report, events) =
        cluster.run_faulted_traced(&mut SliceSource::new(&sample_prefix()), &gate_slo(), &plan);
    let counters = (
        report.completed,
        report.faults.crashes,
        report.faults.retries,
        report.faults.shed,
        report.handoffs.count,
        report
            .replicas
            .iter()
            .map(|r| r.report.preemptions)
            .sum::<usize>(),
        report.makespan,
    );
    assert_eq!(counters, (486, 12, 205, 26, 691, 162, 1122.211475));
    assert_eq!(
        golden((report, events)),
        Golden {
            report: 14281011349898250868,
            events: 13487,
            stream: 11589704614792463788,
            kv: 2478264179762475296,
        }
    );
}
