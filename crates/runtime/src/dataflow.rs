//! The five per-step dataflow paradigms of paper Fig. 7, laid out on the
//! two-stream event simulator.
//!
//! Each builder produces the timeline of **one decode step** for a batch:
//! which ops run on the compute stream, which transfers run on the copy
//! stream, and which dependencies serialize them. The makespan of the
//! timeline is the step latency; the per-category busy times feed the
//! Fig. 2(a) overhead analysis and the Fig. 7 visualization.

use crate::costs::CostModel;
use serde::{Deserialize, Serialize};
use spec_hwsim::event::{EventSim, Lanes, OpHandle, OpLabel, COMPUTE, COPY};
use spec_hwsim::{DeviceSpec, EngineProfile, KernelCost};

/// Which dataflow the step uses (Fig. 7 (a)–(e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataflowKind {
    /// Fig. 7(a): full KV prefetched layer by layer (offloaded full attn).
    PrefetchFullKv,
    /// Fig. 7(b): per-layer retrieve → fetch → attend (Quest/ClusterKV
    /// with offloading; with `l_cpu == 0` the fetch is a no-op and this
    /// is the plain layer-wise retrieval paradigm).
    FetchSparseKv,
    /// Fig. 7(c): speculative per-layer prefetch (InfiniGen): layer
    /// `l+1`'s retrieval issued during layer `l`, its fetch overlapped.
    PrefetchSparseKv,
    /// Fig. 7(d): ShadowKV — retrieve on quantized keys, prefetch sparse
    /// V, reconstruct K on GPU.
    PrefetchSparseV,
    /// Fig. 7(e): SpeContext — selection known before the step; elastic
    /// transfers fully overlapped.
    SpeContext,
}

impl std::fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataflowKind::PrefetchFullKv => "Prefetch full KV (a)",
            DataflowKind::FetchSparseKv => "Fetch sparse KV (b)",
            DataflowKind::PrefetchSparseKv => "Prefetch sparse KV (c)",
            DataflowKind::PrefetchSparseV => "Prefetch sparse V (d)",
            DataflowKind::SpeContext => "SpeContext (e)",
        };
        f.write_str(s)
    }
}

/// Inputs for one step's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepParams {
    /// Batch size (requests).
    pub r: usize,
    /// Total cached positions per request (`S`).
    pub s_total: usize,
    /// Positions actually attended per request per layer.
    pub s_attended: usize,
    /// Retrieval candidate count per KV head (pages/centroids/keys).
    pub candidates: usize,
    /// Bytes of metadata per retrieval candidate.
    pub candidate_bytes: f64,
    /// Number of layers whose KV lives on the CPU.
    pub l_cpu: usize,
    /// Retrieval budget `B` (entries resident per offloaded layer).
    pub budget: usize,
    /// Elastic-loading reuse fraction (0 = refetch everything,
    /// 0.85 ≈ paper's measured adjacent-step overlap).
    pub reuse: f32,
}

/// Per-category busy time of one step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// Step latency (timeline makespan), seconds.
    pub total: f64,
    /// Retrieval scoring/top-k time (compute stream).
    pub retrieval: f64,
    /// CPU↔GPU transfer busy time (copy stream).
    pub transfer: f64,
    /// Attention time.
    pub attention: f64,
    /// Projections + FFN + LM head time.
    pub other_compute: f64,
    /// Bytes moved over PCIe this step.
    pub bytes_transferred: f64,
}

impl StepBreakdown {
    /// Fraction of the step spent on retrieval + (unoverlapped) loading,
    /// the quantity behind the paper's "up to 60% overhead" (Fig. 2(a)).
    pub fn retrieval_and_load_fraction(&self) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let compute = self.attention + self.other_compute;
        ((self.total - compute) / self.total).max(0.0)
    }
}

/// Builds one decode step's timeline.
pub fn step_timeline(
    kind: DataflowKind,
    cm: &CostModel,
    profile: &EngineProfile,
    dev: &DeviceSpec,
    p: &StepParams,
) -> (EventSim, StepBreakdown) {
    let mut sim = EventSim::default();
    let [bd] = step_timeline_into(&mut sim, kind, cm, profile, dev, &[*p]);
    (sim, bd)
}

/// `f` of every lane's step.
fn per_lane<const W: usize>(steps: &[StepParams; W], f: impl Fn(&StepParams) -> f64) -> Lanes<W> {
    Lanes::from_fn(|i| f(&steps[i]))
}

/// Per-category busy times of `W` steps, lane by lane.
#[derive(Default)]
struct LaneBreakdown<const W: usize> {
    retrieval: Lanes<W>,
    transfer: Lanes<W>,
    attention: Lanes<W>,
    other_compute: Lanes<W>,
    bytes_transferred: Lanes<W>,
}

/// [`step_timeline`] for `W` steps of one batch at once, laid out on a
/// caller-owned simulator (reset first): the body behind every step
/// price and every drawn timeline. Ops carry `Copy` labels and
/// dependencies are slices, so a caller that reuses `sim` prices steps
/// without allocating.
///
/// What depends on the batch only — `r`, `candidate_bytes`, `budget`,
/// `reuse`, read from `steps[0]` and equal in every lane — is priced
/// once; what depends on the length — `s_total`, `s_attended`,
/// `candidates`, `l_cpu` and the durations and bytes derived from them —
/// per lane, and a branch on a lane's bytes is a select. Lane `i` then
/// runs exactly the scalar operations of a one-lane call on `steps[i]`,
/// so breakdown `i` has its bits; lane 0 is the one a recording `sim`
/// draws.
pub fn step_timeline_into<const W: usize>(
    sim: &mut EventSim<W>,
    kind: DataflowKind,
    cm: &CostModel,
    profile: &EngineProfile,
    dev: &DeviceSpec,
    steps: &[StepParams; W],
) -> [StepBreakdown; W] {
    let p = &steps[0];
    debug_assert!(
        steps.iter().all(|q| (q.r, q.budget) == (p.r, p.budget)
            && q.candidate_bytes.to_bits() == p.candidate_bytes.to_bits()
            && q.reuse.to_bits() == p.reuse.to_bits()),
        "the lanes of one timeline are steps of one batch"
    );
    let layers = cm.config().layers;
    sim.reset(2);
    let mut bd = LaneBreakdown::<W>::default();
    let op = OpLabel::layer;

    let t = |c: KernelCost| profile.op_time(c, dev);
    let proj_t = t(cm.layer_projections(p.r));
    let attn_t = per_lane(steps, |q| {
        t(cm.layer_attention(p.r, q.s_attended, profile.attn_byte_multiplier))
    });
    let ffn_t = t(cm.layer_ffn(p.r));
    let retrieve_t = || {
        per_lane(steps, |q| {
            t(cm.retrieval_op(p.r, q.candidates, p.candidate_bytes))
        })
    };

    // Per-layer transfer bytes for an offloaded layer.
    let fetch_bytes = |entries: usize, fraction: f64| -> f64 {
        p.r as f64 * cm.kv_bytes_layer(entries) * fraction
    };
    // A transfer of `bytes`, or nothing when there are none.
    let pcie_if_any = |bytes: f64| {
        if bytes > 0.0 {
            dev.pcie_time(bytes)
        } else {
            0.0
        }
    };
    let first_cpu_layer: [usize; W] = std::array::from_fn(|i| layers - steps[i].l_cpu);
    let is_cpu_layer = |l: usize| -> [bool; W] { std::array::from_fn(|i| l >= first_cpu_layer[i]) };

    match kind {
        DataflowKind::PrefetchFullKv => {
            // An offloaded layer prefetches its whole cache; a resident
            // one still pays a transfer's latency for zero bytes.
            let full = per_lane(steps, |q| fetch_bytes(q.s_total, 1.0));
            let (full_t, empty_t) = (full.map(|b| dev.pcie_time(b)), dev.pcie_time(0.0));
            let mut prev_attn = None;
            for l in 0..layers {
                let cpu = is_cpu_layer(l);
                let fetch_t = Lanes::from_fn(|i| if cpu[i] { full_t[i] } else { empty_t });
                let fetch = sim.submit(op(l, "kv_prefetch"), COPY, fetch_t, &[]);
                bd.transfer += fetch_t;
                bd.bytes_transferred += full.or_zero(cpu);
                let pj = match prev_attn {
                    Some(prev) => sim.submit(op(l, "proj"), COMPUTE, proj_t, &[prev, fetch]),
                    None => sim.submit(op(l, "proj"), COMPUTE, proj_t, &[fetch]),
                };
                let at = sim.submit(op(l, "attn"), COMPUTE, attn_t, &[pj]);
                let ff = sim.submit(op(l, "ffn"), COMPUTE, ffn_t, &[at]);
                bd.attention += attn_t;
                bd.other_compute += proj_t + ffn_t;
                prev_attn = Some(ff);
            }
        }
        DataflowKind::FetchSparseKv => {
            let retrieve_t = retrieve_t();
            // Only the budgeted prefix selection crosses PCIe; newly
            // generated KV pairs are retained on the GPU (Challenge 2
            // costs attention growth, not transfer growth).
            let bytes = per_lane(steps, |q| fetch_bytes(p.budget.min(q.s_attended), 1.0));
            let fetch_t = bytes.map(pcie_if_any);
            let mut prev = None;
            for l in 0..layers {
                let pj = sim.submit(op(l, "proj"), COMPUTE, proj_t, prev.as_slice());
                let re = sim.submit(op(l, "retrieve"), COMPUTE, retrieve_t, &[pj]);
                bd.retrieval += retrieve_t;
                let cpu = is_cpu_layer(l);
                let ft = sim.submit(op(l, "kv_fetch"), COPY, fetch_t.or_zero(cpu), &[re]);
                bd.transfer += fetch_t.or_zero(cpu);
                bd.bytes_transferred += bytes.or_zero(cpu);
                let at = sim.submit(op(l, "attn"), COMPUTE, attn_t, &[ft]);
                let ff = sim.submit(op(l, "ffn"), COMPUTE, ffn_t, &[at]);
                bd.attention += attn_t;
                bd.other_compute += proj_t + ffn_t;
                prev = Some(ff);
            }
        }
        DataflowKind::PrefetchSparseKv => {
            // Layer l's retrieval is issued speculatively during layer
            // l-1's compute, so its fetch overlaps one layer of compute.
            let retrieve_t = retrieve_t();
            let bytes = per_lane(steps, |q| fetch_bytes(p.budget.min(q.s_attended), 1.0));
            let fetch_t = bytes.map(pcie_if_any);
            let mut prev: Option<OpHandle> = None;
            let mut pending_fetch: Option<OpHandle> = None;
            for l in 0..layers {
                let re = sim.submit(op(l, "retrieve"), COMPUTE, retrieve_t, prev.as_slice());
                bd.retrieval += retrieve_t;
                let cpu = is_cpu_layer(l);
                let next_fetch =
                    sim.submit(op(l, "kv_prefetch"), COPY, fetch_t.or_zero(cpu), &[re]);
                bd.transfer += fetch_t.or_zero(cpu);
                bd.bytes_transferred += bytes.or_zero(cpu);
                let pj = sim.submit(op(l, "proj"), COMPUTE, proj_t, &[re]);
                // Attention waits on the fetch issued in the *previous*
                // layer's shadow when available (speculative hit).
                let fetch_dep = pending_fetch.unwrap_or(next_fetch);
                let at = sim.submit(op(l, "attn"), COMPUTE, attn_t, &[pj, fetch_dep]);
                let ff = sim.submit(op(l, "ffn"), COMPUTE, ffn_t, &[at]);
                bd.attention += attn_t;
                bd.other_compute += proj_t + ffn_t;
                prev = Some(ff);
                pending_fetch = Some(next_fetch);
            }
        }
        DataflowKind::PrefetchSparseV => {
            let retrieve_t = retrieve_t();
            let recon_t = per_lane(steps, |q| t(cm.k_reconstruct(p.r, q.s_attended)));
            // V of the budgeted prefix selection only (half the KV
            // bytes); generated KV stays GPU-resident.
            let bytes = per_lane(steps, |q| fetch_bytes(p.budget.min(q.s_attended), 0.5));
            let fetch_t = bytes.map(pcie_if_any);
            let mut prev = None;
            for l in 0..layers {
                let pj = sim.submit(op(l, "proj"), COMPUTE, proj_t, prev.as_slice());
                let re = sim.submit(op(l, "retrieve"), COMPUTE, retrieve_t, &[pj]);
                bd.retrieval += retrieve_t;
                let cpu = is_cpu_layer(l);
                let vf = sim.submit(op(l, "v_fetch"), COPY, fetch_t.or_zero(cpu), &[re]);
                bd.transfer += fetch_t.or_zero(cpu);
                bd.bytes_transferred += bytes.or_zero(cpu);
                let kr = sim.submit(op(l, "k_recons"), COMPUTE, recon_t, &[re]);
                bd.other_compute += recon_t;
                let at = sim.submit(op(l, "attn"), COMPUTE, attn_t, &[vf, kr]);
                let ff = sim.submit(op(l, "ffn"), COMPUTE, ffn_t, &[at]);
                bd.attention += attn_t;
                bd.other_compute += proj_t + ffn_t;
                prev = Some(ff);
            }
        }
        DataflowKind::SpeContext => {
            // Retrieval head runs once, before the LLM step.
            let head_t = per_lane(steps, |q| t(cm.retrieval_head_step(p.r, q.s_total)));
            let head = sim.submit("retrieval_head", COMPUTE, head_t, &[]);
            bd.retrieval += head_t;
            // All fetches are known immediately; elastic loading moves
            // only the non-reused fraction of the budget — the same bytes
            // for every offloaded layer, so they are priced once.
            let reloaded = (1.0 - p.reuse as f64).max(0.0);
            let bytes = per_lane(steps, |q| fetch_bytes(p.budget.min(q.s_total), reloaded));
            let fetch_t = bytes.map(pcie_if_any);
            for l in 0..layers {
                let cpu = is_cpu_layer(l);
                sim.submit(op(l, "kv_prefetch"), COPY, fetch_t.or_zero(cpu), &[head]);
                bd.transfer += fetch_t.or_zero(cpu);
                bd.bytes_transferred += bytes.or_zero(cpu);
            }
            let mut prev = head;
            for l in 0..layers {
                // Layer l's fetch: the fetches were submitted back to
                // back right after the head, one per layer.
                let fetch = head.nth_after(1 + l);
                let pj = sim.submit(op(l, "proj"), COMPUTE, proj_t, &[prev]);
                let at = sim.submit(op(l, "attn"), COMPUTE, attn_t, &[pj, fetch]);
                let ff = sim.submit(op(l, "ffn"), COMPUTE, ffn_t, &[at]);
                bd.attention += attn_t;
                bd.other_compute += proj_t + ffn_t;
                prev = ff;
            }
        }
    }
    let lm_t = t(cm.lm_head(p.r));
    sim.submit("lm_head", COMPUTE, lm_t, &[]);
    bd.other_compute += lm_t;
    let total = sim.makespans();
    std::array::from_fn(|i| StepBreakdown {
        total: total[i],
        retrieval: bd.retrieval[i],
        transfer: bd.transfer[i],
        attention: bd.attention[i],
        other_compute: bd.other_compute[i],
        bytes_transferred: bd.bytes_transferred[i],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::ModelConfig;

    fn setup() -> (CostModel, EngineProfile, DeviceSpec) {
        (
            CostModel::new(ModelConfig::llama3_1_8b()),
            EngineProfile::flashinfer(),
            DeviceSpec::a100_80g(),
        )
    }

    fn params(l_cpu: usize) -> StepParams {
        StepParams {
            r: 1,
            s_total: 32 * 1024,
            s_attended: 2048,
            candidates: 2048,
            candidate_bytes: 512.0,
            l_cpu,
            budget: 2048,
            reuse: 0.85,
        }
    }

    #[test]
    fn specontext_beats_all_offloaded_paradigms() {
        let (cm, prof, dev) = setup();
        let p = params(32);
        let mut totals = std::collections::HashMap::new();
        for kind in [
            DataflowKind::PrefetchFullKv,
            DataflowKind::FetchSparseKv,
            DataflowKind::PrefetchSparseKv,
            DataflowKind::PrefetchSparseV,
            DataflowKind::SpeContext,
        ] {
            let (_, bd) = step_timeline(kind, &cm, &prof, &dev, &p);
            totals.insert(kind, bd.total);
        }
        let ours = totals[&DataflowKind::SpeContext];
        for (kind, t) in &totals {
            if *kind != DataflowKind::SpeContext {
                assert!(ours < *t, "{kind}: ours {ours} vs {t}");
            }
        }
        // Full-KV prefetch is the worst (it moves the entire cache).
        assert!(totals[&DataflowKind::PrefetchFullKv] > totals[&DataflowKind::FetchSparseKv]);
    }

    #[test]
    fn layerwise_retrieval_overhead_can_reach_paper_levels() {
        // Fig. 2(a): retrieval + load reaches tens of percent of latency
        // for layer-wise retrieval with offloading.
        let (cm, prof, dev) = setup();
        let p = params(32);
        let (_, bd) = step_timeline(DataflowKind::FetchSparseKv, &cm, &prof, &dev, &p);
        let frac = bd.retrieval_and_load_fraction();
        assert!(
            (0.3..0.95).contains(&frac),
            "retrieval+load fraction {frac}"
        );
    }

    #[test]
    fn specontext_overlap_hides_most_transfer() {
        let (cm, prof, dev) = setup();
        let p = params(32);
        let (sim, bd) = step_timeline(DataflowKind::SpeContext, &cm, &prof, &dev, &p);
        // Copy busy time is mostly hidden under compute.
        let compute_busy = sim.busy_time(COMPUTE);
        assert!(bd.total < compute_busy + bd.transfer * 0.5);
    }

    #[test]
    fn no_offload_means_no_transfer() {
        let (cm, prof, dev) = setup();
        let p = params(0);
        for kind in [
            DataflowKind::FetchSparseKv,
            DataflowKind::PrefetchSparseV,
            DataflowKind::SpeContext,
        ] {
            let (_, bd) = step_timeline(kind, &cm, &prof, &dev, &p);
            assert_eq!(bd.bytes_transferred, 0.0, "{kind}");
        }
    }

    #[test]
    fn elastic_reuse_reduces_transfer_linearly() {
        let (cm, prof, dev) = setup();
        let mut p = params(32);
        p.reuse = 0.0;
        let (_, full) = step_timeline(DataflowKind::SpeContext, &cm, &prof, &dev, &p);
        p.reuse = 0.9;
        let (_, tenth) = step_timeline(DataflowKind::SpeContext, &cm, &prof, &dev, &p);
        let ratio = tenth.bytes_transferred / full.bytes_transferred;
        assert!((ratio - 0.1).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn makespan_at_least_compute_critical_path() {
        let (cm, prof, dev) = setup();
        let p = params(16);
        for kind in [
            DataflowKind::PrefetchFullKv,
            DataflowKind::FetchSparseKv,
            DataflowKind::PrefetchSparseKv,
            DataflowKind::PrefetchSparseV,
            DataflowKind::SpeContext,
        ] {
            let (sim, bd) = step_timeline(kind, &cm, &prof, &dev, &p);
            assert!(bd.total >= sim.busy_time(COMPUTE) - 1e-9, "{kind}");
        }
    }
}
