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
use spec_hwsim::event::{EventSim, OpHandle, OpLabel, COMPUTE, COPY};
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
    let bd = step_timeline_into(&mut sim, kind, cm, profile, dev, p);
    (sim, bd)
}

/// [`step_timeline`] laid out on a caller-owned simulator (reset
/// first): the body behind every step price and every drawn timeline.
/// Ops carry `Copy` labels and dependencies are slices, so a caller that
/// reuses `sim` prices a step without allocating.
pub fn step_timeline_into(
    sim: &mut EventSim,
    kind: DataflowKind,
    cm: &CostModel,
    profile: &EngineProfile,
    dev: &DeviceSpec,
    p: &StepParams,
) -> StepBreakdown {
    let layers = cm.config().layers;
    sim.reset(2);
    let mut bd = StepBreakdown::default();
    let op = OpLabel::layer;

    let t = |c: KernelCost| profile.op_time(c, dev);
    let proj_t = t(cm.layer_projections(p.r));
    let attn_t = t(cm.layer_attention(p.r, p.s_attended, profile.attn_byte_multiplier));
    let ffn_t = t(cm.layer_ffn(p.r));
    let retrieve_t = t(cm.retrieval_op(p.r, p.candidates, p.candidate_bytes));

    // Per-layer transfer bytes for an offloaded layer.
    let fetch_bytes = |entries: usize, fraction: f64| -> f64 {
        p.r as f64 * cm.kv_bytes_layer(entries) * fraction
    };
    let is_cpu_layer = |l: usize| l >= layers - p.l_cpu;

    match kind {
        DataflowKind::PrefetchFullKv => {
            let mut prev_attn = None;
            for l in 0..layers {
                let bytes = if is_cpu_layer(l) {
                    fetch_bytes(p.s_total, 1.0)
                } else {
                    0.0
                };
                let fetch = sim.submit(op(l, "kv_prefetch"), COPY, dev.pcie_time(bytes), &[]);
                bd.transfer += dev.pcie_time(bytes);
                bd.bytes_transferred += bytes;
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
            let mut prev = None;
            for l in 0..layers {
                let pj = sim.submit(op(l, "proj"), COMPUTE, proj_t, prev.as_slice());
                let re = sim.submit(op(l, "retrieve"), COMPUTE, retrieve_t, &[pj]);
                bd.retrieval += retrieve_t;
                // Only the budgeted prefix selection crosses PCIe; newly
                // generated KV pairs are retained on the GPU (Challenge 2
                // costs attention growth, not transfer growth).
                let bytes = if is_cpu_layer(l) {
                    fetch_bytes(p.budget.min(p.s_attended), 1.0)
                } else {
                    0.0
                };
                let ft = sim.submit(
                    op(l, "kv_fetch"),
                    COPY,
                    if bytes > 0.0 {
                        dev.pcie_time(bytes)
                    } else {
                        0.0
                    },
                    &[re],
                );
                if bytes > 0.0 {
                    bd.transfer += dev.pcie_time(bytes);
                    bd.bytes_transferred += bytes;
                }
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
            let mut prev: Option<OpHandle> = None;
            let mut pending_fetch: Option<OpHandle> = None;
            for l in 0..layers {
                let re = sim.submit(op(l, "retrieve"), COMPUTE, retrieve_t, prev.as_slice());
                bd.retrieval += retrieve_t;
                let bytes = if is_cpu_layer(l) {
                    fetch_bytes(p.budget.min(p.s_attended), 1.0)
                } else {
                    0.0
                };
                let next_fetch = sim.submit(
                    op(l, "kv_prefetch"),
                    COPY,
                    if bytes > 0.0 {
                        dev.pcie_time(bytes)
                    } else {
                        0.0
                    },
                    &[re],
                );
                if bytes > 0.0 {
                    bd.transfer += dev.pcie_time(bytes);
                    bd.bytes_transferred += bytes;
                }
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
            let recon_t = t(cm.k_reconstruct(p.r, p.s_attended));
            let mut prev = None;
            for l in 0..layers {
                let pj = sim.submit(op(l, "proj"), COMPUTE, proj_t, prev.as_slice());
                let re = sim.submit(op(l, "retrieve"), COMPUTE, retrieve_t, &[pj]);
                bd.retrieval += retrieve_t;
                // V of the budgeted prefix selection only (half the KV
                // bytes); generated KV stays GPU-resident.
                let bytes = if is_cpu_layer(l) {
                    fetch_bytes(p.budget.min(p.s_attended), 0.5)
                } else {
                    0.0
                };
                let vf = sim.submit(
                    op(l, "v_fetch"),
                    COPY,
                    if bytes > 0.0 {
                        dev.pcie_time(bytes)
                    } else {
                        0.0
                    },
                    &[re],
                );
                if bytes > 0.0 {
                    bd.transfer += dev.pcie_time(bytes);
                    bd.bytes_transferred += bytes;
                }
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
            let head_t = t(cm.retrieval_head_step(p.r, p.s_total));
            let head = sim.submit("retrieval_head", COMPUTE, head_t, &[]);
            bd.retrieval += head_t;
            // All fetches are known immediately; elastic loading moves
            // only the non-reused fraction of the budget — the same bytes
            // for every offloaded layer, so they are priced once.
            let bytes = fetch_bytes(p.budget.min(p.s_total), (1.0 - p.reuse as f64).max(0.0));
            let fetch_t = if bytes > 0.0 {
                dev.pcie_time(bytes)
            } else {
                0.0
            };
            for l in 0..layers {
                let offloaded = is_cpu_layer(l) && bytes > 0.0;
                let fetch_t = if offloaded { fetch_t } else { 0.0 };
                sim.submit(op(l, "kv_prefetch"), COPY, fetch_t, &[head]);
                if offloaded {
                    bd.transfer += fetch_t;
                    bd.bytes_transferred += bytes;
                }
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
    bd.total = sim.makespan();
    bd
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
