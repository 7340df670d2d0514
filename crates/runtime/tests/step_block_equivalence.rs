//! A step-table miss prices a block of lengths as the lanes of one
//! timeline; each lane must be the price a one-step call computes, bit
//! for bit.
//!
//! `ServingSim::step_time` lays one step out on a one-lane timeline and is
//! what `goldens.rs` pins. A miss in `ServingSim::step_time_cached`
//! prices the aligned `STEP_BLOCK` of lengths around it on a
//! `STEP_BLOCK`-lane timeline — durations, transfer bytes and offload
//! depth per lane, a select where the scalar body branches on a lane's
//! bytes. Here every lane of a block is compared with `step_time` at its
//! own length, for every system and batch 1–8, at block starts where the
//! shape changes: the first block, either side of the budget, the last
//! block of a table page, a long length, and blocks straddling an
//! Algorithm 1 offload threshold, where `l_cpu` differs between lanes.

use spec_hwsim::{DeviceSpec, EngineProfile, EventSim};
use spec_model::ModelConfig;
use spec_runtime::costs::CostModel;
use spec_runtime::dataflow::{step_timeline, step_timeline_into, DataflowKind, StepParams};
use spec_runtime::{ServingSim, StepCache, SystemKind, Thresholds, STEP_BLOCK};

const BUDGET: usize = 2048;

/// Prices the block starting at `first` through one miss and checks every
/// lane against `step_time`, and the table's slice against the lookups.
fn check_block(sim: &ServingSim, system: SystemKind, r: usize, first: usize) {
    assert!(first.is_multiple_of(STEP_BLOCK), "block starts are aligned");
    let mut cache = StepCache::new();
    // The miss lands mid-block: the whole aligned block is priced.
    let mid = first + STEP_BLOCK / 2;
    sim.step_time_cached(&mut cache, system, r, mid, mid);
    assert_eq!(cache.len(), STEP_BLOCK, "{system} r={r}: one block priced");
    let walked: Vec<u64> = sim.step_prices(&mut cache, system, r, first)[..STEP_BLOCK]
        .iter()
        .map(|t| t.to_bits())
        .collect();
    for (lane, s) in (first..first + STEP_BLOCK).enumerate() {
        let single = sim.step_time(system, r, s, s).to_bits();
        let cached = sim.step_time_cached(&mut cache, system, r, s, s).to_bits();
        assert_eq!(
            cached, single,
            "{system}: lane {lane} of the block at {first} differs, r={r} s={s}"
        );
        assert_eq!(
            walked[lane], single,
            "{system}: the slice holds another price"
        );
    }
    assert_eq!(
        cache.len(),
        STEP_BLOCK,
        "{system} r={r}: the lanes were hits"
    );
    // Off the scheduler's split the baselines that retain generated
    // tokens price by the split: priced directly, never from the block.
    for s in [first, first + STEP_BLOCK - 1] {
        let split = s / 2;
        assert_eq!(
            sim.step_time_cached(&mut cache, system, r, s, split)
                .to_bits(),
            sim.step_time(system, r, s, split).to_bits(),
            "{system}: r={r} s={s} split at {split}"
        );
    }
    assert_eq!(cache.len(), STEP_BLOCK, "a split step is not memoized");
}

/// The block start containing `s`.
fn block_of(s: usize) -> usize {
    s - s % STEP_BLOCK
}

#[test]
fn every_lane_of_a_block_is_the_single_step_price() {
    let sim = ServingSim::new(
        ModelConfig::deepseek_distill_llama_8b(),
        DeviceSpec::a100_80g(),
        BUDGET,
    );
    let starts = [
        0,
        BUDGET - STEP_BLOCK,
        BUDGET,
        512 - STEP_BLOCK,
        block_of(120 * 1024 + 7),
    ];
    for system in SystemKind::all() {
        for r in 1..=8 {
            for first in starts {
                check_block(&sim, system, r, first);
            }
        }
    }
}

/// The edge device offloads early: Algorithm 1's depth changes inside a
/// block, so the lanes of one timeline run at different `l_cpu` — and
/// the all-GPU test of the predetermined policies flips inside one too.
#[test]
fn blocks_straddling_an_offload_threshold_keep_every_lane() {
    let sim = ServingSim::new(
        ModelConfig::reasoning_llama3_2_1b(),
        DeviceSpec::rtx4060_laptop(),
        BUDGET,
    );
    for r in 1..=8 {
        let thresholds = Thresholds::compute(sim.memory_model(), r, BUDGET);
        let depth = |s: usize| thresholds.required_offload(s);
        // The first length past S_T_0 and past two further thresholds,
        // each taken where the crossing falls inside its block.
        let straddling: Vec<usize> = thresholds
            .values
            .iter()
            .filter(|&&t| t > 0 && !(t as usize).is_multiple_of(STEP_BLOCK))
            .map(|&t| block_of(t as usize))
            .take(3)
            .collect();
        assert_eq!(
            straddling.len(),
            3,
            "r={r}: thresholds {:?}",
            thresholds.values
        );
        for first in straddling {
            assert_ne!(
                depth(first),
                depth(first + STEP_BLOCK - 1),
                "r={r}: the block at {first} must straddle a threshold"
            );
            for system in SystemKind::all() {
                check_block(&sim, system, r, first);
            }
        }
    }
}

/// Below `ServingSim`: the five dataflows with every per-lane input
/// varied at once — lengths, attended positions, candidates, offload
/// depths from none to all layers, a lane that moves no bytes — give each
/// lane the breakdown a one-lane timeline gives, every field, and lane 0
/// is the one a recording simulator draws.
#[test]
fn lanes_of_every_dataflow_match_one_lane_timelines() {
    let cm = CostModel::new(ModelConfig::llama3_1_8b());
    let (profile, dev) = (EngineProfile::flashinfer(), DeviceSpec::a100_80g());
    let layers = cm.config().layers;
    let steps: [StepParams; STEP_BLOCK] = std::array::from_fn(|i| StepParams {
        r: 3,
        s_total: 1000 + 977 * i,
        s_attended: if i == 1 { 0 } else { 200 * i },
        candidates: 64 * i,
        candidate_bytes: 128.0,
        l_cpu: (i * 5) % (layers + 1),
        budget: BUDGET,
        reuse: 0.85,
    });
    for kind in [
        DataflowKind::PrefetchFullKv,
        DataflowKind::FetchSparseKv,
        DataflowKind::PrefetchSparseKv,
        DataflowKind::PrefetchSparseV,
        DataflowKind::SpeContext,
    ] {
        let mut lanes = EventSim::<STEP_BLOCK>::default();
        let block = step_timeline_into(&mut lanes, kind, &cm, &profile, &dev, &steps);
        for (lane, (got, p)) in block.iter().zip(&steps).enumerate() {
            let (one, want) = step_timeline(kind, &cm, &profile, &dev, p);
            let bits = |b: &spec_runtime::StepBreakdown| {
                [
                    b.total,
                    b.retrieval,
                    b.transfer,
                    b.attention,
                    b.other_compute,
                    b.bytes_transferred,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(got), bits(&want), "{kind}: lane {lane}");
            if lane == 0 {
                assert_eq!(lanes.records(), one.records(), "{kind}: lane 0 is drawn");
            }
        }
    }
}
