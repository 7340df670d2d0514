//! Golden pins for the simulator's pricing and scheduling path.
//!
//! Recorded on the commit before the micro-step pass (hoisted
//! Algorithm 1, label-free step pricing, slot-vector scheduler), which
//! rewrote how a step is priced and how the scheduler walks its state
//! without being allowed to move one simulated bit. Every constant below
//! is an FNV-1a hash over exact bit patterns (floats through `to_bits`
//! or their round-trip-exact `Debug` text), so a hit means equal bits.
//! `golden_scheduler_reports` was re-recorded once, when the scheduler's
//! clock moved to integer ticks: its 18 runs kept every decision, and
//! their instants moved by at most 48 µs.

use spec_hwsim::{DeviceSpec, EngineProfile};
use spec_model::ModelConfig;
use spec_runtime::costs::CostModel;
use spec_runtime::dataflow::{step_timeline, DataflowKind, StepParams};
use spec_runtime::{
    FairConfig, PreemptionPolicy, QueueDiscipline, Request, Scheduler, SchedulerConfig, ServingSim,
    StepCache, SystemKind, Thresholds,
};
use spec_telemetry::seconds_to_ticks;
use spec_tensor::SimRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fold_bits(h: u64, x: f64) -> u64 {
    fnv1a(h, &x.to_bits().to_le_bytes())
}

const BUDGET: usize = 2048;

fn sim() -> ServingSim {
    ServingSim::new(
        ModelConfig::deepseek_distill_llama_8b(),
        DeviceSpec::a100_80g(),
        BUDGET,
    )
}

/// Sequence lengths for batch `r`: a fixed grid plus both sides of every
/// Algorithm-1 offload threshold (which is also where the predetermined
/// policies' all-GPU test flips).
fn length_grid(sim: &ServingSim, r: usize) -> Vec<usize> {
    let mut grid: Vec<usize> = vec![1, 17, 512, 2047, 2048, 2049, 8192, 40_000, 131_072];
    for &t in &Thresholds::compute(sim.memory_model(), r, BUDGET).values {
        if t > 1 {
            let t = t as usize;
            grid.extend([t - 1, t, t + 1]);
        }
    }
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// `ServingSim::step_time` for every system, batch size and length, at
/// the scheduler's prompt split (`prefill_len == s`) and at a half split.
/// The memoized path must return its ticks, first and second time.
#[test]
fn golden_step_time_bits() {
    let sim = sim();
    let expected: [u64; 7] = [
        4789742525527045613,
        16516271146028816969,
        8504689218048349473,
        8212767961312564764,
        12217602205416369113,
        17558205889159213381,
        10956128345575260657,
    ];
    let mut got = Vec::new();
    for system in SystemKind::all() {
        let mut cache = StepCache::new();
        let mut h = FNV_OFFSET;
        let mut points = 0usize;
        for r in [1usize, 2, 4, 8, 64] {
            for s in length_grid(&sim, r) {
                for prefill_len in [s, s / 2] {
                    let t = sim.step_time(system, r, s, prefill_len);
                    for _ in 0..2 {
                        let cached = sim.step_time_cached(&mut cache, system, r, s, prefill_len);
                        assert_eq!(
                            cached,
                            seconds_to_ticks(t),
                            "{system}: cached step differs at r={r} s={s} prefill={prefill_len}"
                        );
                    }
                    h = fold_bits(h, t);
                    points += 1;
                }
            }
        }
        assert!(points > 500, "{system}: grid collapsed to {points} points");
        got.push(h);
    }
    assert_eq!(got, expected, "step_time bits moved (table order)");
}

fn step_params(l_cpu: usize) -> StepParams {
    StepParams {
        r: 4,
        s_total: 32 * 1024,
        s_attended: 2048,
        candidates: 2048,
        candidate_bytes: 512.0,
        l_cpu,
        budget: BUDGET,
        reuse: 0.85,
    }
}

const DATAFLOWS: [DataflowKind; 5] = [
    DataflowKind::PrefetchFullKv,
    DataflowKind::FetchSparseKv,
    DataflowKind::PrefetchSparseKv,
    DataflowKind::PrefetchSparseV,
    DataflowKind::SpeContext,
];

/// Every `StepBreakdown` field of the five dataflows at four offload
/// depths.
#[test]
fn golden_step_breakdowns() {
    let cm = CostModel::new(ModelConfig::deepseek_distill_llama_8b());
    let (profile, dev) = (EngineProfile::flashinfer(), DeviceSpec::a100_80g());
    let expected: [u64; 5] = [
        6474557155347942800,
        4641301860162306416,
        2765874003431525423,
        14386145507966918019,
        6412532378956651664,
    ];
    let mut got = Vec::new();
    for kind in DATAFLOWS {
        let mut h = FNV_OFFSET;
        for l_cpu in [0usize, 1, 16, 32] {
            let (sim, bd) = step_timeline(kind, &cm, &profile, &dev, &step_params(l_cpu));
            assert_eq!(sim.makespan().to_bits(), bd.total.to_bits());
            for x in [
                bd.total,
                bd.retrieval,
                bd.transfer,
                bd.attention,
                bd.other_compute,
                bd.bytes_transferred,
            ] {
                h = fold_bits(h, x);
            }
        }
        got.push(h);
    }
    assert_eq!(got, expected, "breakdown bits moved (Fig. 7 order)");
}

/// The `(label, stream, start, end)` records of one SpeContext step: the
/// gantt, Perfetto and `fig07_dataflow` consumers read these, so the
/// label text is part of the contract.
#[test]
fn golden_specontext_step_records() {
    let cm = CostModel::new(ModelConfig::deepseek_distill_llama_8b());
    let (profile, dev) = (EngineProfile::flashinfer(), DeviceSpec::a100_80g());
    let (sim, _) = step_timeline(
        DataflowKind::SpeContext,
        &cm,
        &profile,
        &dev,
        &step_params(16),
    );
    let records = sim.records();
    let labels: Vec<String> = records.iter().map(|r| r.label.to_string()).collect();
    assert_eq!(records.len(), 1 + 32 + 3 * 32 + 1);
    assert_eq!(labels[0], "retrieval_head");
    assert_eq!(labels[1], "L0.kv_prefetch");
    assert_eq!(labels[32], "L31.kv_prefetch");
    assert_eq!(labels[33], "L0.proj");
    assert_eq!(labels[34], "L0.attn");
    assert_eq!(labels[labels.len() - 2], "L31.ffn");
    assert_eq!(labels[labels.len() - 1], "lm_head");
    let mut h = FNV_OFFSET;
    for (r, label) in records.iter().zip(&labels) {
        h = fnv1a(h, label.as_bytes());
        h = fnv1a(h, &(r.stream.0 as u64).to_le_bytes());
        h = fold_bits(h, r.start);
        h = fold_bits(h, r.end);
    }
    assert_eq!(h, 5140185611328443483, "SpeContext step records moved");
    // The span view renders the same text.
    let spans = sim.spans();
    assert_eq!(spans.len(), records.len());
    assert!(spans.iter().zip(&labels).all(|(s, l)| s.label == *l));
}

/// A three-tenant weighted trace that saturates a 4-deep batch: tenant 0
/// short and interactive, tenant 1 medium, tenant 2 long generations.
fn three_tenant_trace() -> Vec<Request> {
    let mut rng = SimRng::seed(0x5EED_0016);
    let mut t = 0.0f64;
    (0..60)
        .map(|id| {
            t += -(1.0 - rng.uniform() as f64).ln() / 6.0;
            let (tenant, input_len, output_len) = match rng.below(4) {
                0 | 1 => (0, 512, 96 + 32 * rng.below(4)),
                2 => (1, 2048, 700),
                _ => (2, 1024 + 512 * rng.below(3), 1500),
            };
            Request::new(id, tenant, input_len, output_len, t)
        })
        .collect()
}

/// `Scheduler::run` report fingerprints over discipline × preemption ×
/// admission stride.
#[test]
fn golden_scheduler_reports() {
    let trace = three_tenant_trace();
    let expected: [u64; 18] = [
        13068076523117839772,
        4540078714155406654,
        13105699663913325778,
        5163341462106556548,
        14987634643814313742,
        3596266117820950373,
        16742208532620814300,
        14668446522434637737,
        7880566444462089202,
        14811767808195273115,
        14953579894141803469,
        1300598298051531630,
        7024606788975183869,
        94208139566063607,
        12645044835099625619,
        3571618164907485860,
        8462611619417072097,
        15322239319694112284,
    ];
    let mut got = Vec::new();
    let mut preempted = 0usize;
    for discipline in [QueueDiscipline::Fifo, QueueDiscipline::DeficitRoundRobin] {
        for preemption in [
            PreemptionPolicy::None,
            PreemptionPolicy::LongestFirst,
            PreemptionPolicy::DeficitRoundRobin,
        ] {
            for admission_stride in [1usize, 4, 16] {
                let cfg = SchedulerConfig {
                    max_batch: 4,
                    admission_stride,
                    fair: FairConfig {
                        discipline,
                        weights: vec![(0, 4), (1, 1), (2, 3)],
                        preemption,
                        ..FairConfig::default()
                    },
                };
                let report = Scheduler::new(sim(), SystemKind::SpeContext, cfg).run(&trace);
                assert_eq!(report.completed.len() + report.rejected, trace.len());
                preempted += report.preemptions;
                got.push(fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes()));
            }
        }
    }
    assert!(preempted > 0, "the trace must exercise preemption");
    assert_eq!(got, expected, "ScheduleReport bits moved");
}
