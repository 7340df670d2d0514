//! Property tests for the cluster serving subsystem.
//!
//! The three invariants the subsystem is pinned to:
//!
//! 1. **Conservation** — across any router, every submitted request is
//!    either completed exactly once or rejected exactly once; none is
//!    lost or duplicated.
//! 2. **Per-replica monotonicity** — each replica retires requests in
//!    nondecreasing finish-time order, and no request finishes before it
//!    starts or starts before it arrives.
//! 3. **Single-replica equivalence** — a 1-replica cluster (any router)
//!    reproduces the closed-loop `Scheduler::run` bit-for-bit: same
//!    completions, same floats, same makespan.
//!
//! And the fleet's step-price tables: replicas that price identically —
//! by what their simulators are, not how they were built — share one,
//! which then holds exactly the distinct steps the group priced. (That
//! sharing changes no report is `goldens.rs` (e)–(g), recorded with a
//! private table per replica.)

use proptest::prelude::*;
use spec_hwsim::DeviceSpec;
use spec_model::ModelConfig;
use spec_runtime::{
    BatchState, Request, Scheduler, SchedulerConfig, ServingSim, StepCache, SystemKind, Workload,
};
use spec_serve::arrivals::{self, ArrivalProcess, ClusterRequest, TenantClass, TraceConfig};
use spec_serve::cluster::{Cluster, ClusterConfig};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_telemetry::NullSink;
use spec_tensor::SimRng;

fn sim() -> ServingSim {
    ServingSim::new(
        ModelConfig::deepseek_distill_llama_8b(),
        DeviceSpec::a100_80g(),
        2048,
    )
}

fn cluster(n: usize, kind: RouterKind) -> Cluster {
    Cluster::new(
        (0..n).map(|_| sim()).collect(),
        SystemKind::SpeContext,
        ClusterConfig::default(),
        kind.build(),
    )
}

fn make_trace(seed: u64, count: usize, rate: f64, bursty: bool) -> Vec<ClusterRequest> {
    let process = if bursty {
        ArrivalProcess::Bursty {
            base_rate: rate,
            burst_rate: rate * 8.0,
            switch_prob: 0.1,
        }
    } else {
        ArrivalProcess::Poisson { rate }
    };
    arrivals::generate(
        &TraceConfig::new(process)
            .shapes(vec![
                Workload::new(2048, 512, 3),
                Workload::new(4096, 1024, 1),
            ])
            .sessions((count / 3).max(1))
            .count(count),
        &mut SimRng::seed(seed),
    )
}

fn make_tenanted_trace(seed: u64, count: usize, rate: f64) -> Vec<ClusterRequest> {
    arrivals::generate(
        &TraceConfig::poisson(rate)
            .tenants(vec![
                TenantClass::new(0, 3, vec![Workload::new(512, 128, 1)]),
                TenantClass::new(1, 1, vec![Workload::new(2048, 4096, 1)]),
            ])
            .count(count),
        &mut SimRng::seed(seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No request is lost or duplicated, whatever the router.
    #[test]
    fn requests_are_conserved_across_routing(
        seed in 0u64..1000,
        count in 4usize..24,
        replicas in 1usize..4,
        bursty in any::<bool>(),
    ) {
        let trace = make_trace(seed, count, 2.0, bursty);
        for kind in RouterKind::all() {
            let mut c = cluster(replicas, kind);
            let report = c.run(&trace, &SloSpec::default());
            prop_assert_eq!(report.completed + report.rejected, count);
            let mut ids: Vec<usize> = report
                .replicas
                .iter()
                .flat_map(|r| r.report.completed.iter().map(|c| c.request.id))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), report.completed, "duplicated completion under {}", kind);
        }
    }

    /// Completion times are monotone per replica, and every request
    /// observes arrival <= start < finish.
    #[test]
    fn completions_are_monotone_per_replica(
        seed in 0u64..1000,
        count in 4usize..20,
        replicas in 1usize..4,
    ) {
        let trace = make_trace(seed, count, 4.0, false);
        let mut c = cluster(replicas, RouterKind::LeastOutstanding);
        let report = c.run(&trace, &SloSpec::default());
        for rep in &report.replicas {
            prop_assert!(rep
                .report
                .completed
                .windows(2)
                .all(|w| w[0].finish <= w[1].finish));
            for done in &rep.report.completed {
                prop_assert!(done.start >= done.request.arrival);
                prop_assert!(done.finish > done.start);
            }
        }
    }

    /// A 1-replica cluster reproduces the closed-loop scheduler exactly:
    /// identical completions (same floats), makespan and rejects, for
    /// every router (with one replica, routing is forced).
    #[test]
    fn one_replica_cluster_equals_scheduler_run(
        seed in 0u64..1000,
        count in 2usize..16,
        rate in 1.0f64..16.0,
        bursty in any::<bool>(),
    ) {
        let trace = make_trace(seed, count, rate, bursty);
        let requests: Vec<_> = trace.iter().map(|cr| cr.request).collect();
        let single = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default())
            .run(&requests);
        for kind in RouterKind::all() {
            let mut c = cluster(1, kind);
            let report = c.run(&trace, &SloSpec::default());
            prop_assert_eq!(&report.replicas[0].report, &single, "router {}", kind);
            prop_assert_eq!(report.makespan.to_bits(), single.makespan.to_bits());
            prop_assert_eq!(report.rejected, single.rejected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-tenant goodput, throughput, completions and rejections sum to
    /// the fleet totals, for any router over a 2-tenant mix.
    #[test]
    fn per_tenant_slo_sums_to_fleet(
        seed in 0u64..1000,
        count in 6usize..24,
        replicas in 1usize..4,
    ) {
        let trace = make_tenanted_trace(seed, count, 4.0);
        for kind in RouterKind::all() {
            let mut c = cluster(replicas, kind);
            let report = c.run(&trace, &SloSpec::default());
            let s = &report.slo;
            let good: f64 = s.per_tenant.iter().map(|t| t.goodput_tokens_per_s).sum();
            let thr: f64 = s.per_tenant.iter().map(|t| t.throughput_tokens_per_s).sum();
            let done: usize = s.per_tenant.iter().map(|t| t.completed).sum();
            let rej: usize = s.per_tenant.iter().map(|t| t.rejected).sum();
            prop_assert!((good - s.goodput_tokens_per_s).abs() <= 1e-9 * good.max(1.0),
                "goodput {} vs sum {} under {}", s.goodput_tokens_per_s, good, kind);
            prop_assert!((thr - s.throughput_tokens_per_s).abs() <= 1e-9 * thr.max(1.0));
            prop_assert_eq!(done, s.completed);
            prop_assert_eq!(rej, s.rejected);
            prop_assert!(s.per_tenant.iter().all(|t| t.attainment.is_finite()));
        }
    }

    /// Tenanted traces are conserved under preemptive fair scheduling
    /// too: every request completes once or is rejected once, and no
    /// completion exceeds the preemption cap.
    #[test]
    fn preemptive_cluster_conserves_requests(
        seed in 0u64..1000,
        count in 6usize..20,
        replicas in 1usize..3,
    ) {
        use spec_runtime::{FairConfig, PreemptionPolicy, QueueDiscipline};
        let trace = make_tenanted_trace(seed, count, 8.0);
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
        let mut c = Cluster::new(
            (0..replicas).map(|_| sim()).collect(),
            SystemKind::SpeContext,
            cfg,
            RouterKind::LeastOutstanding.build(),
        );
        let report = c.run(&trace, &SloSpec::default());
        prop_assert_eq!(report.completed + report.rejected, count);
        let cap = FairConfig::default().max_preemptions;
        for rep in &report.replicas {
            for done in &rep.report.completed {
                prop_assert!(done.preemptions <= cap);
                prop_assert!(done.first_token >= done.start);
                prop_assert!(done.finish >= done.first_token);
            }
        }
    }
}

/// The same equivalence holds for a batching baseline system and for a
/// tight admission stride (admission every iteration).
#[test]
fn one_replica_equivalence_for_baseline_and_tight_stride() {
    let trace = make_trace(77, 12, 6.0, true);
    let requests: Vec<_> = trace.iter().map(|cr| cr.request).collect();
    for (system, stride) in [
        (SystemKind::FullFlashInfer, 16),
        (SystemKind::SpeContext, 1),
        (SystemKind::ShadowKv, 4),
    ] {
        let cfg = SchedulerConfig {
            admission_stride: stride,
            ..SchedulerConfig::default()
        };
        let single = Scheduler::new(sim(), system, cfg.clone()).run(&requests);
        let mut c = Cluster::new(
            vec![sim()],
            system,
            ClusterConfig::new().scheduler(cfg),
            RouterKind::RoundRobin.build(),
        );
        let report = c.run(&trace, &SloSpec::default());
        assert_eq!(
            report.replicas[0].report, single,
            "system {system} stride {stride}"
        );
    }
}

/// Oversized requests are rejected by the cluster exactly as by the
/// single-node scheduler, and never wedge the event loop.
#[test]
fn oversized_requests_reject_cluster_wide() {
    let trace = arrivals::from_trace(&[
        (0.0, 2048, 512),
        (0.5, 10_000_000, 10_000_000),
        (1.0, 2048, 512),
    ])
    .expect("sorted trace");
    let mut c = cluster(2, RouterKind::LeastOutstanding);
    let report = c.run(&trace, &SloSpec::default());
    assert_eq!(report.completed, 2);
    assert_eq!(report.rejected, 1);
}

/// A homogeneous fleet fills one table, and that table holds the union
/// of what its replicas priced — fewer entries than four private tables,
/// because identical neighbours revisit each other's batch compositions.
/// A miss prices the aligned block of lengths around it, so "what a
/// replica priced" is a set of blocks; the blocks are aligned, so a
/// table's contents depend only on which blocks were visited, not on the
/// order of the visits — which is why one table filled by the fleet's
/// interleaved run equals one filled by the replicas' slices in turn.
#[test]
fn a_homogeneous_fleet_shares_one_step_table() {
    let trace = make_tenanted_trace(5, 64, 8.0);
    // `cluster` constructs its simulators one by one: sharing is decided
    // from their content.
    let mut c = cluster(4, RouterKind::LeastOutstanding);
    assert_eq!(c.step_tables().len(), 1);
    assert!(c.step_tables()[0].is_empty(), "nothing priced before a run");
    let report = c.run(&trace, &SloSpec::default());
    assert_eq!(report.completed, trace.len());

    // Replay each replica's slice on a bare scheduler (the 1-replica
    // equivalence: the same steps in the same order), once into one
    // table for the whole fleet and once into a private one.
    let scheduler = Scheduler::new(sim(), SystemKind::SpeContext, SchedulerConfig::default());
    let mut union = StepCache::new();
    let mut private_total = 0;
    for rep in &report.replicas {
        assert!(rep.assigned > 0, "every replica must take part");
        let mut slice: Vec<Request> = rep.report.completed.iter().map(|c| c.request).collect();
        slice.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        let mut private = StepCache::new();
        for table in [&mut union, &mut private] {
            let mut state = BatchState::new();
            for req in &slice {
                state.push(*req);
            }
            scheduler.advance_until(&mut state, table, f64::INFINITY, &mut NullSink);
            assert_eq!(state.completed().len(), slice.len());
        }
        private_total += private.len();
    }
    assert_eq!(
        c.step_tables()[0].len(),
        union.len(),
        "the shared table holds each visited (batch, length block) once"
    );
    assert!(
        union.len() < private_total,
        "sharing must save misses: {} shared vs {private_total} private",
        union.len()
    );
}

/// Replicas that price differently keep their own tables: another
/// device, or the same device with its public `elastic_reuse` changed.
#[test]
fn differently_pricing_replicas_keep_their_own_tables() {
    let trace = make_trace(9, 24, 4.0, false);
    let mut mixed = Cluster::from_fleet(
        &ModelConfig::deepseek_distill_llama_8b(),
        &[
            DeviceSpec::a100_80g(),
            DeviceSpec::rtx4090(),
            DeviceSpec::a100_80g(),
        ],
        2048,
        SystemKind::SpeContext,
        ClusterConfig::default(),
        RouterKind::RoundRobin.build(),
    );
    assert_eq!(mixed.step_tables().len(), 2, "two A100s, one RTX 4090");
    let report = mixed.run(&trace, &SloSpec::default());
    assert_eq!(report.completed, trace.len());
    assert!(mixed.step_tables().iter().all(|t| !t.is_empty()));

    let mut retuned = sim();
    retuned.elastic_reuse = 0.5;
    let c = Cluster::new(
        vec![sim(), retuned, sim()],
        SystemKind::SpeContext,
        ClusterConfig::default(),
        RouterKind::RoundRobin.build(),
    );
    assert_eq!(
        c.step_tables().len(),
        2,
        "the retuned simulator stands alone"
    );
}
