//! Fault-injection pins.
//!
//! 1. **No-fault identity** — `run_fault_plan(FaultPlan::none())` is
//!    bit-identical to `Cluster::run`, reports and event streams alike:
//!    the fault machinery prices at exactly zero when unused.
//! 2. **Determinism** — identical `FaultPlan` + seed produce
//!    byte-identical event streams and `ClusterReport`s on a repeat run.
//! 3. **Conservation** — under any plan, every submitted request is
//!    completed, rejected, dead-lettered or shed, exactly once.
//! 4. **Recovery policy** — health-aware routing strictly beats
//!    failure-blind routing through the same outage, sessions re-pin
//!    away from crashed replicas without flapping back during
//!    probation, and the autoscaler never parks a replica holding
//!    outstanding work.
//! 5. **Combinations that used to abort** — health-aware routing on a
//!    split fleet (PR 12's reproducer) and a closed-loop source under
//!    crashes and shedding run to completion and conserve.

use proptest::prelude::*;
use spec_hwsim::{fleet, DeviceSpec, Fleet, LinkSpec, ReplicaRole};
use spec_model::ModelConfig;
use spec_runtime::{
    FairConfig, PreemptionPolicy, QueueDiscipline, Request, SchedulerConfig, SystemKind, Workload,
};
use spec_serve::arrivals::{self, ClosedLoopConfig, ClusterRequest, TenantClass, TraceConfig};
use spec_serve::cluster::{AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, DisaggConfig};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_serve::trace::decode;
use spec_serve::{FaultPlan, RetryPolicy, ShedPolicy, SliceSource};
use spec_telemetry::{Event, EventKind};
use spec_tensor::SimRng;

fn cluster(n: usize, kind: RouterKind, autoscale: Option<AutoscaleConfig>) -> Cluster {
    let cfg = match autoscale {
        Some(auto) => ClusterConfig::new().autoscale(auto),
        None => ClusterConfig::new(),
    };
    Cluster::from_fleet(
        &ModelConfig::deepseek_distill_llama_8b(),
        &fleet::homogeneous(DeviceSpec::a100_80g(), n),
        2048,
        SystemKind::SpeContext,
        cfg,
        kind.build(),
    )
}

fn trace(rate: f64, count: usize, seed: u64) -> Vec<ClusterRequest> {
    arrivals::generate(
        &TraceConfig::poisson(rate)
            .shapes(vec![Workload::new(2048, 512, 1)])
            .count(count),
        &mut SimRng::seed(seed),
    )
}

fn tenanted_trace(rate: f64, count: usize, seed: u64) -> Vec<ClusterRequest> {
    arrivals::generate(
        &TraceConfig::poisson(rate)
            .tenants(vec![
                TenantClass::new(0, 3, vec![Workload::new(512, 128, 1)]),
                TenantClass::new(1, 1, vec![Workload::new(2048, 1024, 1)]),
            ])
            .count(count),
        &mut SimRng::seed(seed),
    )
}

/// completed + rejected + dead-lettered + shed must equal submitted —
/// the conservation law every faulted run answers to.
fn assert_conserved(report: &ClusterReport, submitted: usize, label: &str) {
    let accounted =
        report.completed + report.rejected + report.faults.dead_lettered + report.faults.shed;
    assert_eq!(
        accounted, submitted,
        "{label}: {} completed + {} rejected + {} dead-lettered + {} shed != {submitted} submitted",
        report.completed, report.rejected, report.faults.dead_lettered, report.faults.shed
    );
    // The SLO denominators must agree with the fleet counters.
    let slo_submitted =
        report.slo.completed + report.slo.rejected + report.slo.dead_lettered + report.slo.shed;
    assert_eq!(slo_submitted, submitted, "{label}: SLO denominator");
    assert_eq!(report.slo.dead_lettered, report.faults.dead_lettered);
    assert_eq!(report.slo.shed, report.faults.shed);
}

#[test]
fn empty_plan_is_bit_identical_to_run() {
    let reqs = trace(2.0, 24, 11);
    let slo = SloSpec::default();
    for kind in RouterKind::all() {
        let baseline = cluster(3, kind, None).run(&reqs, &slo);
        let faulted = cluster(3, kind, None).run_fault_plan(&reqs, &slo, &FaultPlan::none());
        assert_eq!(baseline, faulted, "router {kind}");
    }
    // With autoscaling in the loop too.
    let auto = AutoscaleConfig {
        min_replicas: 1,
        scale_up_outstanding: 2,
        scale_down_outstanding: 1,
        ..AutoscaleConfig::default()
    };
    let a = cluster(4, RouterKind::LeastOutstanding, Some(auto)).run(&reqs, &slo);
    let b = cluster(4, RouterKind::LeastOutstanding, Some(auto)).run_fault_plan(
        &reqs,
        &slo,
        &FaultPlan::none(),
    );
    assert_eq!(a, b, "autoscaled");
}

#[test]
fn empty_plan_traced_matches_run_traced_event_for_event() {
    let reqs = trace(3.0, 20, 17);
    let slo = SloSpec::default();
    let (ra, ea) = cluster(2, RouterKind::LeastKvPressure, None).run_traced(&reqs, &slo);
    let (rb, eb) = cluster(2, RouterKind::LeastKvPressure, None).run_faulted_traced(
        &mut SliceSource::new(&reqs),
        &slo,
        &FaultPlan::none(),
    );
    assert_eq!(ra, rb, "reports");
    assert_eq!(ea, eb, "event streams");
}

#[test]
fn crashed_replica_work_is_recovered_or_dead_lettered() {
    let reqs = trace(4.0, 40, 7);
    // Replica 0 crashes mid-trace and restarts while arrivals continue.
    let plan = FaultPlan::none()
        .crash_at(0, 1.0, 5.0)
        .health_aware(true)
        .seed(3);
    let mut c = cluster(2, RouterKind::LeastOutstanding, None);
    let (report, events) =
        c.run_faulted_traced(&mut SliceSource::new(&reqs), &SloSpec::default(), &plan);
    assert_eq!(report.faults.crashes, 1);
    assert_eq!(report.faults.recoveries, 1);
    assert_conserved(&report, 40, "single crash");
    // Something was actually in flight when the crash hit, and it came
    // back through a checkpoint or a retry.
    let torn = report.faults.lost_in_flight
        + report.faults.checkpoints_migrated
        + report.faults.checkpoints_lost;
    assert!(torn > 0, "the crash must tear out in-flight work");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ReplicaCrashed { .. })),
        "crash event recorded"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ReplicaRecovered)),
        "recovery event recorded"
    );
}

#[test]
fn straggler_window_slows_then_releases_the_replica() {
    let reqs = trace(2.0, 16, 23);
    let slo = SloSpec::default();
    let healthy = cluster(2, RouterKind::RoundRobin, None).run(&reqs, &slo);
    let plan = FaultPlan::none().straggler_at(0, 0.0, 30.0, 6.0);
    let (slowed, events) = cluster(2, RouterKind::RoundRobin, None).run_faulted_traced(
        &mut SliceSource::new(&reqs),
        &slo,
        &plan,
    );
    assert_eq!(slowed.faults.straggler_windows, 1);
    assert_conserved(&slowed, 16, "straggler");
    assert!(
        slowed.slo.latency.p95 > healthy.slo.latency.p95,
        "a 6x straggler must stretch tail latency ({} vs {})",
        slowed.slo.latency.p95,
        healthy.slo.latency.p95
    );
    let started = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StragglerStarted { .. }))
        .count();
    let ended = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StragglerEnded))
        .count();
    assert_eq!((started, ended), (1, 1));
}

#[test]
fn health_aware_routing_beats_failure_blind_through_an_outage() {
    let reqs = tenanted_trace(6.0, 36, 41);
    let slo = SloSpec::default();
    // Replica 0 is down for most of the trace. Blind routing keeps
    // assigning work to the frozen replica (its queue looks short);
    // health-aware routing ejects it from candidate sets.
    let outage = |aware: bool| {
        FaultPlan::none()
            .crash_at(0, 0.5, 30.0)
            .probation(1.0)
            .health_aware(aware)
            .seed(9)
    };
    let blind =
        cluster(2, RouterKind::LeastOutstanding, None).run_fault_plan(&reqs, &slo, &outage(false));
    let aware =
        cluster(2, RouterKind::LeastOutstanding, None).run_fault_plan(&reqs, &slo, &outage(true));
    assert_conserved(&blind, 36, "blind");
    assert_conserved(&aware, 36, "aware");
    assert!(
        aware.slo.attainment > blind.slo.attainment,
        "health-aware attainment {} must strictly beat blind {}",
        aware.slo.attainment,
        blind.slo.attainment
    );
    assert!(
        aware.slo.latency.p95 < blind.slo.latency.p95,
        "health-aware p95 {} must strictly beat blind {}",
        aware.slo.latency.p95,
        blind.slo.latency.p95
    );
}

#[test]
fn shedding_degrades_gracefully_by_tenant_weight() {
    let reqs = tenanted_trace(20.0, 48, 13);
    let slo = SloSpec::default();
    let plan = FaultPlan::none().shed(ShedPolicy::new(6).weights(vec![(0, 4), (1, 1)]));
    let report = cluster(2, RouterKind::LeastOutstanding, None).run_fault_plan(&reqs, &slo, &plan);
    assert_conserved(&report, 48, "shedding");
    assert!(report.faults.shed > 0, "overload must trigger shedding");
    // The light tenant (1) sheds at a quarter of the heavy tenant's
    // watermark, so its shed fraction must be at least as high.
    let shed_frac = |tenant: u32| {
        let t = report
            .slo
            .per_tenant
            .iter()
            .find(|t| t.tenant == tenant)
            .expect("tenant present");
        let submitted = t.completed + t.rejected + t.dead_lettered + t.shed;
        t.shed as f64 / submitted.max(1) as f64
    };
    assert!(
        shed_frac(1) >= shed_frac(0),
        "light tenant shed fraction {} must be >= heavy {}",
        shed_frac(1),
        shed_frac(0)
    );
}

#[test]
fn sessions_repin_away_from_a_crash_and_hold_through_probation() {
    let mk = |id: usize, arrival: f64| ClusterRequest {
        request: Request {
            id,
            tenant: 0,
            input_len: 1024,
            output_len: 256,
            arrival,
        },
        session: 42,
    };
    // Request 0 pins session 42 to replica 0 (least-outstanding tie
    // breaks to index 0). Replica 0 then crashes at 1.0 and restarts at
    // 6.0 into a long probation; the remaining turns must re-pin to
    // replica 1 and stay there — both during probation and after it.
    let reqs = [mk(0, 0.0), mk(1, 2.0), mk(2, 8.0), mk(3, 40.0)];
    let plan = FaultPlan::none()
        .crash_at(0, 1.0, 5.0)
        .probation(10.0)
        .health_aware(true)
        .seed(5);
    let mut c = cluster(2, RouterKind::SessionAffinity, None);
    let (report, events) =
        c.run_faulted_traced(&mut SliceSource::new(&reqs), &SloSpec::default(), &plan);
    assert_conserved(&report, 4, "session crash");
    let routed: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Arrived { request, .. } => Some((request, e.replica)),
            _ => None,
        })
        .collect();
    assert_eq!(routed[0], (0, 0), "session pins to replica 0 first");
    assert_eq!(routed[1], (1, 1), "crash forces a re-pin to replica 1");
    assert_eq!(routed[2], (2, 1), "no flap-back during probation");
    assert_eq!(
        routed[3],
        (3, 1),
        "the moved pin holds even after probation re-admits replica 0"
    );
}

#[test]
fn no_arrival_is_ever_routed_to_a_parked_replica() {
    // Cluster-stream invariant (routing decisions and scale events are
    // emitted by the same serial path, so their order is exact): after
    // ReplicaScaledDown for replica i, no Arrived may target i until a
    // matching ReplicaScaledUp. A parked replica was drained when
    // parked — see `scale_down_skips_replicas_still_holding_work` for
    // the decision-point pin — so routing anything there would strand
    // it on a replica the autoscaler believes is idle.
    let auto = AutoscaleConfig {
        min_replicas: 1,
        scale_up_outstanding: 2,
        scale_down_outstanding: 3,
        ..AutoscaleConfig::default()
    };
    // Two bursts separated by a long lull: scale decisions fire at
    // arrival instants, so the fleet must be drained at one for a park
    // to happen — the first tail arrival finds it empty.
    let mut reqs = trace(6.0, 24, 31);
    let base = reqs.len();
    for (k, mut cr) in trace(6.0, 24, 33).into_iter().enumerate() {
        cr.request.id = base + k;
        cr.request.arrival += 300.0;
        reqs.push(cr);
    }
    let (report, events) =
        cluster(4, RouterKind::LeastOutstanding, Some(auto)).run_traced(&reqs, &SloSpec::default());
    assert_eq!(report.completed, 48);
    let down_count = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ReplicaScaledDown))
        .count();
    assert!(down_count > 0, "the sweep must exercise scale-down");
    let mut parked = [false; 4];
    for e in &events {
        let r = e.replica as usize;
        match e.kind {
            EventKind::ReplicaScaledDown => parked[r] = true,
            EventKind::ReplicaScaledUp => parked[r] = false,
            EventKind::Arrived { request, .. } if parked[r] => {
                panic!(
                    "request {request} routed to parked replica {r} at tick {}",
                    e.tick
                )
            }
            _ => {}
        }
    }
}

#[test]
fn retry_budget_exhaustion_dead_letters_with_tenant_attribution() {
    // A single replica that crashes over and over: every in-flight
    // request bounces until its budget runs out, then dead-letters.
    let reqs = trace(4.0, 12, 3);
    let mut plan = FaultPlan::none()
        .mtbf(1.5, 0.5)
        .retry(RetryPolicy {
            max_attempts: 1,
            base_backoff_s: 0.2,
            max_backoff_s: 1.0,
            jitter_frac: 0.1,
        })
        .seed(29);
    plan.kv_loss_prob = 1.0; // every checkpoint transfer fails
    let report = cluster(1, RouterKind::LeastOutstanding, None).run_fault_plan(
        &reqs,
        &SloSpec::default(),
        &plan,
    );
    assert_conserved(&report, 12, "crash churn");
    assert!(report.faults.crashes > 1, "the plan must crash repeatedly");
    assert!(
        report.faults.dead_lettered > 0,
        "a 1-attempt budget under crash churn must dead-letter"
    );
    let per_tenant_dead: usize = report.slo.per_tenant.iter().map(|t| t.dead_lettered).sum();
    assert_eq!(
        per_tenant_dead, report.faults.dead_lettered,
        "dead-letters must be attributed to tenants"
    );
}

/// PR 12's reproducer: `bench_e2e`'s 2 prefill + 2 decode InfiniBand
/// fleet replaying the committed sample trace (its first 512 requests
/// already failed) under its chaos plan with a short MTBF and
/// health-aware routing on. Before the kernel fold this
/// died in the scheduler's arrival-order assert, for two reasons: with
/// every decode replica folded out as unhealthy, stage 2 fell through to
/// replica 0 — a prefill engine, which handed the request off again —
/// and a crash restored checkpoints onto engines the fleet had not yet
/// advanced (or pumped handoffs) up to the crash instant.
#[test]
fn health_aware_routing_on_a_split_fleet_conserves_and_never_delivers_to_prefill() {
    let slots = Fleet::new()
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, 2)
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, 2)
        .build_slots();
    let cfg = ClusterConfig::new()
        .scheduler(SchedulerConfig {
            max_batch: 4,
            admission_stride: 4,
            fair: FairConfig {
                discipline: QueueDiscipline::DeficitRoundRobin,
                weights: vec![(0, 4), (1, 1)],
                preemption: PreemptionPolicy::DeficitRoundRobin,
                ..FairConfig::default()
            },
        })
        .disagg(DisaggConfig::new().link(LinkSpec::infiniband()));
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sample_trace.sptr");
    let bytes = std::fs::read(path).expect("committed results/sample_trace.sptr");
    let mut trace = decode(&bytes).expect("sample trace decodes");
    trace.truncate(512);
    let chaos = |seed: u64| {
        FaultPlan::none()
            .seed(seed)
            .mtbf(120.0, 5.0)
            .kv_loss(0.1)
            .shed(ShedPolicy::new(12_000).weights(vec![(0, 4), (1, 1)]))
            .probation(2.0)
            .health_aware(true)
    };
    let plans = [
        ("seed 1", chaos(1).random_stragglers(60.0, 10.0, 5.0)),
        ("seed 3, stragglers off", chaos(3)),
    ];
    for (label, plan) in plans {
        let (report, events) = Cluster::from_fleet_slots(
            &ModelConfig::deepseek_distill_llama_8b(),
            &slots,
            2048,
            SystemKind::SpeContext,
            cfg.clone(),
            RouterKind::LeastOutstanding.build(),
        )
        .run_faulted_traced(
            &mut SliceSource::new(&trace),
            &SloSpec::new(10.0, 0.02),
            &plan,
        );
        assert_conserved(&report, trace.len(), label);
        assert!(report.faults.crashes > 10, "{label}: the plan must crash");
        assert!(report.handoffs.count > 0, "{label}");
        for e in &events {
            if let EventKind::HandoffDelivered { request, .. } = e.kind {
                assert_eq!(
                    slots[e.replica as usize].role,
                    ReplicaRole::Decode,
                    "{label}: request {request} delivered to replica {}",
                    e.replica
                );
            }
        }
    }
}

/// A closed-loop source under a scripted crash and overload shedding:
/// used to be refused with an assert. Every turn the source issued ends
/// in exactly one terminal state, and the turns the fleet refused (shed
/// or dead-lettered) reach the source through `on_reject`, which ends
/// their sessions — otherwise the run would wait forever on responses
/// that never come.
#[test]
fn closed_loop_source_under_crash_and_shedding_conserves_and_ends_refused_sessions() {
    let cfg = ClosedLoopConfig::new(10, 4)
        .think(0.2)
        .ramp(1.0)
        .shapes(vec![Workload::new(2048, 512, 1)])
        .seed(5);
    let mut plan = FaultPlan::none()
        .crash_at(0, 1.5, 4.0)
        .retry(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        })
        .shed(ShedPolicy::new(7))
        .health_aware(true)
        .seed(3);
    plan.kv_loss_prob = 1.0;
    let mut source = cfg.source();
    let (report, events) = cluster(2, RouterKind::LeastOutstanding, None).run_faulted_traced(
        &mut source,
        &SloSpec::default(),
        &plan,
    );
    let aborted = source.aborted_sessions();
    // What the source issued: every fresh turn either arrives or sheds.
    let issued = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Arrived { .. } | EventKind::RequestShed { .. }
            )
        })
        .count();
    assert_conserved(&report, issued, "closed loop under faults");
    assert_eq!(report.faults.crashes, 1);
    assert!(report.faults.shed > 0, "the watermark must shed");
    assert!(report.faults.retries > 0, "the crash must bounce work");
    assert!(
        aborted > 0 && aborted <= report.faults.shed + report.faults.dead_lettered,
        "{aborted} sessions ended by {} refusals",
        report.faults.shed + report.faults.dead_lettered
    );
    assert!(issued < 40, "ended sessions issue no further turns");
}

fn fault_event_names(events: &[Event]) -> Vec<&'static str> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::ReplicaCrashed { .. }
                    | EventKind::ReplicaRecovered
                    | EventKind::RetryScheduled { .. }
                    | EventKind::RequestShed { .. }
                    | EventKind::CheckpointLost { .. }
                    | EventKind::DeadLettered { .. }
                    | EventKind::StragglerStarted { .. }
                    | EventKind::StragglerEnded
            )
        })
        .map(|e| e.kind.name())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Identical plan + seed → byte-identical event streams and reports
    /// on a repeat run; conservation holds throughout.
    #[test]
    fn faulted_runs_are_deterministic(
        seed in 0u64..1000,
        mtbf in 2.0f64..8.0,
        mttr in 0.5f64..2.0,
        kv_loss in 0.0f32..1.0,
        straggle in any::<bool>(),
        shed in any::<bool>(),
        aware in any::<bool>(),
    ) {
        let mut plan = FaultPlan::none()
            .mtbf(mtbf, mttr)
            .probation(0.5)
            .health_aware(aware)
            .seed(seed);
        plan.kv_loss_prob = kv_loss;
        if straggle {
            plan = plan.random_stragglers(4.0, 1.5, 3.0);
        }
        if shed {
            plan = plan.shed(ShedPolicy::new(24).weights(vec![(0, 2), (1, 1)]));
        }
        let reqs = tenanted_trace(5.0, 30, seed ^ 0xABCD);
        let run = || {
            cluster(3, RouterKind::LeastOutstanding, None)
                .run_faulted_traced(&mut SliceSource::new(&reqs), &SloSpec::default(), &plan)
        };
        let (report, events) = run();
        assert_conserved(&report, 30, "proptest");
        prop_assert!(report.faults.crashes > 0 || report.makespan < mtbf);
        let (r, e) = run();
        prop_assert_eq!(&r, &report, "report on a repeat run");
        prop_assert_eq!(&e, &events, "events on a repeat run");
        // The fault lifecycle must actually be visible in telemetry when
        // the summary says something happened.
        if report.faults.crashes > 0 {
            prop_assert!(fault_event_names(&events).contains(&"replica_crashed"));
        }
    }
}
