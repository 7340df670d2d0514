//! Property tests pinning disaggregated prefill/decode serving to the
//! monolithic cluster.
//!
//! Three invariants:
//!
//! 1. **Unified anchor** — a fleet built from `from_fleet_slots` whose
//!    slots all carry `ReplicaRole::Unified` reproduces the monolithic
//!    `Cluster::new` path bit-for-bit (full `ClusterReport` equality,
//!    cost and handoff fields included), for every router.
//! 2. **Zero-cost-link equivalence** — on a serial trace (every request
//!    finishes before the next arrives), a 1-prefill + 1-decode fleet
//!    over a free interconnect reproduces the 1-replica monolithic
//!    cluster's per-request floats exactly: the KV hop is priced, never
//!    recomputed, so a free hop must be invisible.
//! 3. **Determinism** — the two-stage path (routing, handoff delivery,
//!    billing) gives the same report on a repeat run.
//! 4. **Closed-loop sources** drive a split fleet to completion (this
//!    combination used to be refused with an assert).

use proptest::prelude::*;
use spec_hwsim::{DeviceSpec, Fleet, LinkSpec, ReplicaRole};
use spec_model::ModelConfig;
use spec_runtime::{ServingSim, SystemKind, Workload};
use spec_serve::arrivals::{
    self, ArrivalProcess, ArrivalSource, ClosedLoopConfig, ClusterRequest, TraceConfig,
};
use spec_serve::cluster::{Cluster, ClusterConfig, DisaggConfig};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_tensor::SimRng;

const BUDGET: usize = 2048;

fn model() -> ModelConfig {
    ModelConfig::deepseek_distill_llama_8b()
}

fn sim() -> ServingSim {
    ServingSim::new(model(), DeviceSpec::a100_80g(), BUDGET)
}

fn monolithic(n: usize, kind: RouterKind) -> Cluster {
    Cluster::new(
        (0..n).map(|_| sim()).collect(),
        SystemKind::SpeContext,
        ClusterConfig::default(),
        kind.build(),
    )
}

fn unified_slots(n: usize, kind: RouterKind) -> Cluster {
    let slots = Fleet::new().with(DeviceSpec::a100_80g(), n).build_slots();
    Cluster::from_fleet_slots(
        &model(),
        &slots,
        BUDGET,
        SystemKind::SpeContext,
        ClusterConfig::default(),
        kind.build(),
    )
}

fn split(prefill: usize, decode: usize, link: LinkSpec, decode_router: RouterKind) -> Cluster {
    let slots = Fleet::new()
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, prefill)
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, decode)
        .build_slots();
    Cluster::from_fleet_slots(
        &model(),
        &slots,
        BUDGET,
        SystemKind::SpeContext,
        ClusterConfig::new().disagg(DisaggConfig::new().link(link).decode_router(decode_router)),
        RouterKind::LeastOutstanding.build(),
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
                Workload::new(1024, 256, 1),
            ])
            .sessions((count / 3).max(1))
            .count(count),
        &mut SimRng::seed(seed),
    )
}

/// Arrivals spaced so widely every request drains before the next one
/// lands: the regime where a free KV hop is provably invisible.
fn serial_trace(count: usize, gap: f64) -> Vec<ClusterRequest> {
    let items: Vec<(f64, usize, usize)> = (0..count)
        .map(|i| {
            if i % 2 == 0 {
                (i as f64 * gap, 2048, 512)
            } else {
                (i as f64 * gap, 1024, 256)
            }
        })
        .collect();
    arrivals::from_trace(&items).expect("sorted by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariant 1: an all-`Unified` slot fleet is the monolithic
    /// cluster, bit for bit — every field of the report, including the
    /// new handoff and cost sections, for every router.
    #[test]
    fn unified_slot_fleet_is_bit_identical_to_monolithic(
        seed in 0u64..1000,
        count in 4usize..20,
        replicas in 1usize..4,
        bursty in any::<bool>(),
    ) {
        let trace = make_trace(seed, count, 2.0, bursty);
        for kind in RouterKind::all() {
            let a = unified_slots(replicas, kind).run(&trace, &SloSpec::default());
            let b = monolithic(replicas, kind).run(&trace, &SloSpec::default());
            prop_assert_eq!(&a, &b, "router {}", kind);
            prop_assert_eq!(a.handoffs.count, 0, "unified fleets never hop KV");
        }
    }

    /// Disaggregated fleets conserve requests for every decode router:
    /// each request is prefilled once, hopped once, decoded once.
    #[test]
    fn split_fleet_conserves_requests_across_decode_routers(
        seed in 0u64..1000,
        count in 4usize..16,
        decode in 1usize..3,
    ) {
        let trace = make_trace(seed, count, 2.0, false);
        for kind in RouterKind::all() {
            let report = split(1, decode, LinkSpec::infiniband(), kind)
                .run(&trace, &SloSpec::default());
            prop_assert_eq!(
                report.completed + report.rejected, count, "decode router {}", kind
            );
            prop_assert_eq!(report.handoffs.count, report.completed);
            let mut ids: Vec<usize> = report
                .replicas
                .iter()
                .flat_map(|r| r.report.completed.iter().map(|c| c.request.id))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), report.completed, "duplicate under {}", kind);
        }
    }

    /// Invariant 3: the two-stage path is deterministic.
    #[test]
    fn two_stage_report_is_deterministic(
        seed in 0u64..1000,
        count in 4usize..16,
    ) {
        let trace = make_trace(seed, count, 4.0, true);
        let run = || {
            split(1, 2, LinkSpec::infiniband(), RouterKind::LeastOutstanding)
                .run(&trace, &SloSpec::default())
        };
        prop_assert_eq!(&run(), &run());
    }
}

/// Invariant 2: over a free link, prefill/decode disaggregation
/// reproduces the monolithic single replica exactly on serial traces —
/// identical start/first-token/finish floats, SLO report and makespan.
#[test]
fn zero_cost_link_split_matches_monolithic_on_serial_traces() {
    for count in [2usize, 5, 8] {
        let trace = serial_trace(count, 600.0);
        let mono = monolithic(1, RouterKind::RoundRobin).run(&trace, &SloSpec::default());
        // Premise check: the trace really is serial on this hardware.
        let mut done: Vec<_> = mono
            .replicas
            .iter()
            .flat_map(|r| r.report.completed.iter())
            .collect();
        done.sort_by(|a, b| a.finish.partial_cmp(&b.finish).unwrap());
        for (c, next) in done.iter().zip(trace.iter().skip(1)) {
            assert!(
                c.finish < next.request.arrival,
                "gap too small: finish {} vs next arrival {}",
                c.finish,
                next.request.arrival
            );
        }

        let disagg = split(1, 1, LinkSpec::zero_cost(), RouterKind::RoundRobin)
            .run(&trace, &SloSpec::default());
        assert_eq!(disagg.completed, mono.completed);
        assert_eq!(disagg.rejected, mono.rejected);
        assert_eq!(disagg.handoffs.count, count);
        assert_eq!(disagg.handoffs.transfer_s, 0.0, "free link charges nothing");
        assert_eq!(
            disagg.makespan.to_bits(),
            mono.makespan.to_bits(),
            "count {count}"
        );
        assert_eq!(&disagg.slo, &mono.slo, "count {count}");
        let mut hopped: Vec<_> = disagg
            .replicas
            .iter()
            .flat_map(|r| r.report.completed.iter())
            .collect();
        hopped.sort_by(|a, b| a.finish.partial_cmp(&b.finish).unwrap());
        for (h, m) in hopped.iter().zip(done.iter()) {
            assert_eq!(h.request.id, m.request.id);
            assert_eq!(h.request.arrival.to_bits(), m.request.arrival.to_bits());
            assert_eq!(h.start.to_bits(), m.start.to_bits());
            assert_eq!(h.first_token.to_bits(), m.first_token.to_bits());
            assert_eq!(h.finish.to_bits(), m.finish.to_bits());
        }
    }
}

/// Invariant 4: a closed-loop source on a 1-prefill + 1-decode fleet.
/// Every turn is prefilled, hopped and decoded before its session's
/// next turn departs and every session runs out its turns.
#[test]
fn closed_loop_source_runs_every_session_to_completion_on_a_split_fleet() {
    let cfg = ClosedLoopConfig::new(5, 3)
        .think(0.3)
        .ramp(1.0)
        .shapes(vec![
            Workload::new(2048, 512, 3),
            Workload::new(1024, 256, 1),
        ])
        .seed(9);
    let mut source = cfg.source();
    let (report, _events) = split(1, 1, LinkSpec::infiniband(), RouterKind::LeastOutstanding)
        .run_source_traced(&mut source, &SloSpec::default());
    let remaining = source.remaining_hint();
    assert_eq!(report.completed, 15, "5 sessions × 3 turns");
    assert_eq!(report.rejected, 0);
    assert_eq!(remaining, Some(0), "every session ran out its turns");
    assert_eq!(report.handoffs.count, 15, "one hop per turn");
    assert!(report.handoffs.transfer_s > 0.0);
    assert!(report.replicas[0].report.completed.is_empty());
    // The decode side's delivery restamp is patched back to the turn's
    // departure, so the first token (produced on the prefill replica,
    // before delivery) still follows the reported arrival.
    let decoded = &report.replicas[1].report.completed;
    assert_eq!(decoded.len(), 15);
    assert!(decoded.iter().all(|c| c.request.arrival < c.first_token));
}
