//! Smoke tests for the `examples/` directory.
//!
//! CI compiles all thirteen examples (`cargo build --examples`) and runs
//! each of them; these tests additionally exercise the quickstart and
//! cluster-serving examples' flows in-process so `cargo test` catches
//! runtime regressions of the paths the examples walk (engine build,
//! prefill, generate, transfer stats, the paper-scale config math, and
//! the routed-fleet serving loop).

use specontext::core::engine::{Engine, EngineConfig};
use specontext::hwsim::{DeviceSpec, Fleet};
use specontext::model::{AttentionKind, ModelConfig, SimGeometry};
use specontext::runtime::{SystemKind, Workload};
use specontext::serve::arrivals::{self, TraceConfig};
use specontext::serve::cluster::{Cluster, ClusterConfig};
use specontext::serve::router::RouterKind;
use specontext::serve::slo::SloSpec;
use specontext::tensor::SimRng;

/// The quickstart example, end to end, with its printed quantities
/// asserted instead of printed.
#[test]
fn quickstart_flow_end_to_end() {
    let engine = Engine::build(EngineConfig {
        geometry: SimGeometry::tiny(AttentionKind::Gqa),
        budget: 48,
        ..EngineConfig::default()
    });

    // The retrieval head must be a strict parameter subset of the DLM.
    let head_params = engine.dlm().to_retrieval_head().param_count_non_embedding();
    let dlm_params = engine.dlm().param_count_non_embedding();
    assert!(head_params > 0);
    assert!(
        head_params < dlm_params,
        "pruned head ({head_params}) must be smaller than the DLM ({dlm_params})"
    );

    let mut session = engine.session();
    let prompt: Vec<usize> = (0..96).map(|i| (i * 13) % 60).collect();
    session.prefill_tokens(&prompt);
    assert_eq!(session.seq_len(), 96);

    let out = session.generate(24);
    assert_eq!(out.tokens.len(), 24);
    let transfer = out.transfer.expect("speculative path reports transfers");
    assert!(transfer.fetched_entries > 0);
    assert!((0.0..=1.0).contains(&transfer.reuse_fraction()));
    assert!(out.overlaps.iter().all(|o| (0.0..=1.0 + 1e-6).contains(o)));
}

/// The cluster-serving example's flow, shrunk: a mixed fleet behind a
/// KV-pressure router completes an open-loop trace with full accounting.
#[test]
fn cluster_serving_flow_end_to_end() {
    let fleet = Fleet::new()
        .with(DeviceSpec::a100_80g(), 1)
        .with(DeviceSpec::rtx4090(), 1)
        .build();
    let mut cluster = Cluster::from_fleet(
        &ModelConfig::deepseek_distill_llama_8b(),
        &fleet,
        2048,
        SystemKind::SpeContext,
        ClusterConfig::default(),
        RouterKind::LeastKvPressure.build(),
    );
    let trace = arrivals::generate(
        &TraceConfig::poisson(1.0)
            .shapes(vec![Workload::new(2048, 1024, 1)])
            .count(10),
        &mut SimRng::seed(0xFACADE),
    );
    let report = cluster.run(&trace, &SloSpec::default());
    assert_eq!(report.completed, 10);
    assert_eq!(report.rejected, 0);
    assert!(report.throughput > 0.0);
    assert!(report.slo.ttft.p99 >= report.slo.ttft.p50);
    assert_eq!(report.queue_depth.len(), 10);
}

/// The trace-replay example's flow, shrunk: record a generated trace,
/// replay it through a cluster, and check the replayed run matches
/// running the materialized trace directly.
#[test]
fn trace_replay_flow_end_to_end() {
    use specontext::serve::trace::{decode, encode, ReplayArrivals};

    let cfg = TraceConfig::bursty(1.0, 8.0, 0.1)
        .shapes(vec![Workload::new(2048, 1024, 1)])
        .count(12)
        .seed(0x7ACE);
    let bytes = encode(cfg.source());
    let trace = decode(&bytes).expect("round-trips");
    assert_eq!(trace.len(), 12);
    let fleet = || {
        Cluster::from_fleet(
            &ModelConfig::deepseek_distill_llama_8b(),
            &Fleet::new().with(DeviceSpec::a100_80g(), 2).build(),
            2048,
            SystemKind::SpeContext,
            ClusterConfig::new(),
            RouterKind::LeastOutstanding.build(),
        )
    };
    let direct = fleet().run(&trace, &SloSpec::default());
    let replayed = fleet().run_source(
        &mut ReplayArrivals::new(bytes).expect("validates"),
        &SloSpec::default(),
    );
    assert_eq!(direct, replayed);
    assert_eq!(direct.completed + direct.rejected, 12);
}

/// The paper-scale facts quoted by the quickstart example stay sane.
#[test]
fn paper_scale_facts_are_plausible() {
    let cfg = ModelConfig::llama3_1_8b();
    let kv_gb = cfg.kv_bytes_total(32 * 1024) as f64 / 1e9;
    assert!(
        (1.0..64.0).contains(&kv_gb),
        "32K-context KV cache of {kv_gb:.2} GB is outside the plausible range"
    );
    let head_mb = cfg.retrieval_head_params() as f64 * 2.0 / 1e6;
    assert!(
        head_mb < 1024.0,
        "retrieval head of {head_mb:.0} MB is not lightweight"
    );
}

/// The fair-serving example's flow, shrunk: a 2-tenant mix under DRR
/// queues with preemption completes with per-tenant SLO accounting and
/// the short tenant protected.
#[test]
fn fair_serving_flow_end_to_end() {
    use specontext::runtime::{FairConfig, PreemptionPolicy, QueueDiscipline, SchedulerConfig};
    use specontext::serve::arrivals::TenantClass;

    let mut cluster = Cluster::from_fleet(
        &ModelConfig::deepseek_distill_llama_8b(),
        &Fleet::new().with(DeviceSpec::a100_80g(), 1).build(),
        2048,
        SystemKind::SpeContext,
        ClusterConfig::new().scheduler(SchedulerConfig {
            max_batch: 4,
            admission_stride: 4,
            fair: FairConfig {
                discipline: QueueDiscipline::DeficitRoundRobin,
                weights: vec![(0, 4), (1, 1)],
                preemption: PreemptionPolicy::DeficitRoundRobin,
                ..FairConfig::default()
            },
        }),
        RouterKind::LeastOutstanding.build(),
    );
    let trace = arrivals::generate(
        &TraceConfig::poisson(2.0)
            .tenants(vec![
                TenantClass::new(0, 3, vec![Workload::new(512, 256, 1)]),
                TenantClass::new(1, 1, vec![Workload::new(2048, 8192, 1)]),
            ])
            .count(16),
        &mut SimRng::seed(0xFA1A),
    );
    let report = cluster.run(&trace, &SloSpec::new(10.0, 0.02));
    assert_eq!(report.completed + report.rejected, 16);
    assert_eq!(report.slo.per_tenant.len(), 2);
    let good_sum: f64 = report
        .slo
        .per_tenant
        .iter()
        .map(|t| t.goodput_tokens_per_s)
        .sum();
    assert!((good_sum - report.slo.goodput_tokens_per_s).abs() < 1e-9);
}
