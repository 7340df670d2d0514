//! End-to-end throughput estimation: Table 3, Fig. 10, Fig. 11.
//!
//! A [`ServingSim`] binds a model config, a device and a KV budget;
//! [`ServingSim::throughput`] then estimates tokens/second for one system
//! on one workload by composing the prefill cost, the per-system
//! preprocessing cost, and the per-step decode timelines of
//! [`crate::dataflow`], integrated over the growing sequence length with
//! the memory policy deciding layer placement at every point.
//!
//! The same step price is the scheduler's per-iteration cost:
//! [`ServingSim::step_time`] lays one step out on a price-only event
//! simulator (about a microsecond: op ends and a makespan, no labelled
//! records, one buffer), [`ServingSim::step_time_cached`] memoizes it in
//! a [`StepCache`] — a direct-indexed `[batch][seq_len]` table filled
//! [`STEP_BLOCK`] consecutive lengths per miss, laid out side by side on
//! one timeline — and [`ServingSim::step_prices`] hands out that table's
//! page as a slice for a batch whose length grows by one per iteration, so the
//! millions of decode iterations of a simulated trace each cost an
//! indexed load.

use crate::adaptive::Thresholds;
use crate::costs::{CostModel, PreprocessKind};
use crate::dataflow::{step_timeline_into, DataflowKind, StepBreakdown, StepParams};
use crate::memory::MemoryModel;
use serde::{Deserialize, Serialize};
use spec_hwsim::{DeviceSpec, EngineProfile, EventSim};
use spec_model::ModelConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// The systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// HuggingFace eager full attention.
    FullEager,
    /// Full attention on FlashAttention kernels.
    FullFlash,
    /// Full attention on FlashInfer kernels.
    FullFlashInfer,
    /// Quest (paged dynamic selection).
    Quest,
    /// ClusterKV (clustered dynamic selection).
    ClusterKv,
    /// ShadowKV (quantized-key selection, V offload).
    ShadowKv,
    /// SpeContext (this paper).
    SpeContext,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemKind::FullEager => "Full Attn (Eager)",
            SystemKind::FullFlash => "Full Attn (Flash Attn)",
            SystemKind::FullFlashInfer => "Full Attn (FlashInfer)",
            SystemKind::Quest => "Quest",
            SystemKind::ClusterKv => "ClusterKV",
            SystemKind::ShadowKv => "ShadowKV",
            SystemKind::SpeContext => "SpeContext (Ours)",
        };
        f.write_str(s)
    }
}

impl SystemKind {
    /// All systems, in the paper's table order.
    pub fn all() -> [SystemKind; 7] {
        [
            SystemKind::FullEager,
            SystemKind::FullFlash,
            SystemKind::FullFlashInfer,
            SystemKind::Quest,
            SystemKind::ClusterKv,
            SystemKind::ShadowKv,
            SystemKind::SpeContext,
        ]
    }

    /// The engine profile each system runs on (SpeContext is built on
    /// FlashInfer, Section 7.5.1).
    pub fn profile(&self) -> EngineProfile {
        match self {
            SystemKind::FullEager => EngineProfile::eager(),
            SystemKind::FullFlash => EngineProfile::flash_attention(),
            SystemKind::FullFlashInfer | SystemKind::SpeContext => EngineProfile::flashinfer(),
            _ => EngineProfile::flash_attention(),
        }
    }

    /// Whether the system keeps every generated token's KV attended on
    /// top of its budgeted prompt selection, so a step's price depends
    /// on where the prompt ended, not just on the total length.
    fn retains_generated(&self) -> bool {
        matches!(
            self,
            SystemKind::Quest | SystemKind::ClusterKv | SystemKind::ShadowKv
        )
    }

    /// Maximum batch the system's serving stack can schedule. HF eager
    /// has no paged KV allocator and preallocates max-context buffers,
    /// capping it at small batches (the paper's Table 3 runs it at 4).
    pub fn max_batch(&self) -> usize {
        match self {
            SystemKind::FullEager => 4,
            SystemKind::Quest | SystemKind::ClusterKv => 1,
            _ => usize::MAX,
        }
    }
}

/// How the system places KV between GPU and CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Everything on GPU; out-of-memory if it does not fit.
    AllGpuOrOom,
    /// Decided before inference from the final length: all GPU if it
    /// fits, otherwise the entire KV cache on CPU (Challenge 3).
    AllGpuOrFullOffload,
    /// SpeContext's per-layer progressive offloading (Section 6).
    Adaptive,
}

impl SystemKind {
    /// Default memory policy per system.
    fn default_policy(&self) -> MemoryPolicy {
        match self {
            SystemKind::SpeContext => MemoryPolicy::Adaptive,
            SystemKind::FullEager | SystemKind::FullFlash | SystemKind::FullFlashInfer => {
                MemoryPolicy::AllGpuOrOom
            }
            _ => MemoryPolicy::AllGpuOrFullOffload,
        }
    }
}

/// A `[input_len, output_len] × requests` workload (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// Prompt length per request.
    pub input_len: usize,
    /// Generated tokens per request.
    pub output_len: usize,
    /// Concurrent requests.
    pub requests: usize,
}

impl Workload {
    /// Convenience constructor.
    pub fn new(input_len: usize, output_len: usize, requests: usize) -> Self {
        Self {
            input_len,
            output_len,
            requests,
        }
    }
}

/// The result of a throughput simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Output tokens per second (all requests combined); 0 when OOM.
    pub tokens_per_s: f64,
    /// Whether the configuration ran out of GPU memory.
    pub oom: bool,
    /// Prefill + preprocessing seconds.
    pub prefill_s: f64,
    /// Total decode seconds.
    pub decode_s: f64,
    /// Bytes moved over PCIe during decode.
    pub transfer_bytes: f64,
    /// Mean per-step breakdown at the midpoint sequence length.
    pub mid_step: StepBreakdown,
    /// The batch size simulated.
    pub requests: usize,
}

impl ThroughputReport {
    fn oom(requests: usize) -> Self {
        Self {
            tokens_per_s: 0.0,
            oom: true,
            prefill_s: 0.0,
            decode_s: 0.0,
            transfer_bytes: 0.0,
            mid_step: StepBreakdown::default(),
            requests,
        }
    }
}

/// Sequence lengths per page of a [`StepCache`] table (4 KiB of `f64`).
const STEP_PAGE: usize = 512;

/// Consecutive sequence lengths a [`StepCache`] miss prices at once: the
/// aligned block `[s - s % STEP_BLOCK, s - s % STEP_BLOCK + STEP_BLOCK)`
/// around the missed length `s`, laid out as the lanes of one timeline.
/// A step price is one dependent chain of ~130 compare-and-adds, so
/// sixteen independent lengths side by side cost about two and a half
/// lengths, not sixteen; and a quiet run's mean length rises by one per
/// iteration, so the run reads the rest of the block. (8 / 16 / 32 were
/// measured; see `docs/perf/simulator.md`.)
pub const STEP_BLOCK: usize = 16;

/// Lengths and batch sizes from here up are priced without memoizing, so
/// a hostile request length cannot size a table.
const STEP_CACHE_MAX_LEN: usize = 1 << 26;
const STEP_CACHE_MAX_BATCH: usize = 1 << 16;

// A block never crosses a page, nor the table's last length, and a
// page's blocks fit its `u32` of priced bits.
const _: () = assert!(
    STEP_PAGE.is_multiple_of(STEP_BLOCK)
        && STEP_CACHE_MAX_LEN.is_multiple_of(STEP_BLOCK)
        && STEP_PAGE / STEP_BLOCK <= u32::BITS as usize
);

/// What one batch size has priced so far: Algorithm 1's thresholds (they
/// depend on the memory model, the batch size and the budget only) and
/// the step latency per sequence length, in lazily allocated pages.
#[derive(Debug, Clone, Default)]
struct BatchSteps {
    thresholds: Option<Thresholds>,
    pages: Vec<Option<Box<StepPage>>>,
}

/// [`STEP_PAGE`] consecutive lengths' step latencies and which of its
/// blocks are priced, bit `b` for the block at `b * STEP_BLOCK`: a miss
/// prices a block whole, so one bit tells for all its lengths, and the
/// priced stretch from a length on is a count of trailing ones.
#[derive(Debug, Clone)]
struct StepPage {
    prices: [f64; STEP_PAGE],
    priced: u32,
}

impl StepPage {
    /// How many lengths from `slot` on are priced without a gap, up to
    /// the page's edge (0 when `slot`'s block is not priced).
    fn priced_from(&self, slot: usize) -> usize {
        let block = slot / STEP_BLOCK;
        let blocks = (!(self.priced >> block)).trailing_zeros() as usize;
        (blocks * STEP_BLOCK).saturating_sub(slot % STEP_BLOCK)
    }
}

/// What a [`StepCache`] was filled under. Everything else a step price
/// depends on is fixed for a [`ServingSim`] instance.
#[derive(Debug, Clone, PartialEq)]
struct CacheStamp {
    sim: u64,
    system: SystemKind,
    reuse_bits: u32,
}

/// Memoized decode-step latencies for one `(simulator, system)` pair —
/// the per-iteration lookup of the continuous-batching scheduler and the
/// `spec_serve` replicas, which revisit the same batch compositions
/// constantly.
///
/// The table is direct-indexed by what varies between the scheduler's
/// iterations, `[batch][seq_len]`, and stores the 8-byte step latency
/// only; the offload depth is a function of the two under the default
/// memory policy. Entries are exact — the index fully determines the
/// timeline for a fixed simulator — so hits are bit-for-bit identical to
/// recomputation, and nothing is computed or allocated before the first
/// lookup. A miss prices the whole aligned [`STEP_BLOCK`] of lengths
/// around it, one lane each, on a price-only timeline scratch the cache
/// owns (op ends and a makespan, no labelled records) and allocates
/// nothing beyond the table's own pages. Because blocks are aligned, a
/// table's contents depend only on which blocks were visited, never on
/// the order of the visits.
///
/// A table belongs to whoever owns the simulators, not to an engine:
/// because entries are exact, every engine running a clone of one
/// simulator may fill and read the same table (`spec_serve`'s cluster
/// keeps one per group of identically pricing replicas and lends it to
/// each replica's advance), and a price one of them computed is a hit for
/// all the others.
///
/// The cache stamps itself with the simulator instance, the system and
/// `elastic_reuse` on first use and empties itself when a later call
/// arrives under a different stamp, so it can be neither shared between
/// differently pricing simulators by mistake nor left stale by a change
/// to [`ServingSim::elastic_reuse`]. Steps whose price depends on the
/// prompt split (the baselines that retain generated tokens) are
/// memoized at the scheduler's split (`prefill_len == s`) only; other
/// splits are priced directly.
#[derive(Debug, Clone)]
pub struct StepCache {
    filled_under: Option<(CacheStamp, EngineProfile)>,
    batches: Vec<BatchSteps>,
    priced: usize,
    timeline: EventSim<STEP_BLOCK>,
    /// The one price [`ServingSim::step_prices`] hands out for a step no
    /// table is sized for.
    direct: f64,
    /// Memoized prefill times by prompt length — the scheduler
    /// re-prefills identical prompt lengths on every admission.
    prefill: std::collections::HashMap<usize, f64>,
}

impl Default for StepCache {
    fn default() -> Self {
        Self {
            filled_under: None,
            batches: Vec::new(),
            priced: 0,
            timeline: EventSim::price_only(),
            direct: f64::NAN,
            prefill: std::collections::HashMap::new(),
        }
    }
}

impl StepCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of priced entries — distinct `(batch, length)` steps —
    /// since the cache was last emptied. A miss prices a whole block, so
    /// this counts whole blocks: a multiple of [`STEP_BLOCK`].
    pub fn len(&self) -> usize {
        self.priced
    }

    /// Whether no step has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.priced == 0
    }

    /// Whether a table may be sized for batch `r` at length `s`.
    fn indexes(r: usize, s: usize) -> bool {
        r < STEP_CACHE_MAX_BATCH && s < STEP_CACHE_MAX_LEN
    }

    /// The allocated page holding `(r, s)`, if any.
    fn page(&self, r: usize, s: usize) -> Option<&StepPage> {
        self.batches.get(r)?.pages.get(s / STEP_PAGE)?.as_deref()
    }

    /// Empties the cache unless it was filled under exactly this
    /// simulator, system and reuse fraction.
    fn restamp(&mut self, sim: &ServingSim, system: SystemKind) {
        let stamp = CacheStamp {
            sim: sim.id,
            system,
            reuse_bits: sim.elastic_reuse.to_bits(),
        };
        if self.filled_under.as_ref().is_some_and(|(s, _)| *s == stamp) {
            return;
        }
        self.batches.clear();
        self.prefill.clear();
        self.priced = 0;
        self.filled_under = Some((stamp, system.profile()));
    }
}

/// The serving simulator.
#[derive(Debug, Clone)]
pub struct ServingSim {
    /// Instance identity for [`StepCache`] stamps: unique per
    /// [`ServingSim::new`], shared by clones (whose private fields are
    /// equal by construction).
    id: u64,
    cm: CostModel,
    mm: MemoryModel,
    dev: DeviceSpec,
    budget: usize,
    /// Elastic-loading reuse fraction used for SpeContext steps.
    pub elastic_reuse: f32,
}

impl ServingSim {
    /// Creates a simulator for a model on a device with a KV budget.
    pub fn new(cfg: ModelConfig, dev: DeviceSpec, budget: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mm = MemoryModel::new(&cfg, &dev);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cm: CostModel::new(cfg),
            mm,
            dev,
            budget,
            elastic_reuse: 0.85,
        }
    }

    /// The memory model.
    pub fn memory_model(&self) -> &MemoryModel {
        &self.mm
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.dev
    }

    /// The KV budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether `other` prices every step and prefill exactly like `self`:
    /// equal model, device, budget and `elastic_reuse` — decided from
    /// what the two simulators are, not from how they were built.
    /// Engines on identically pricing simulators can run on clones of
    /// one of them and share its [`StepCache`].
    pub fn prices_like(&self, other: &ServingSim) -> bool {
        self.cm.config() == other.cm.config()
            && self.dev == other.dev
            && self.budget == other.budget
            && self.elastic_reuse.to_bits() == other.elastic_reuse.to_bits()
    }

    /// One decode-iteration latency for `system` at batch `r`, total
    /// sequence length `s`, with the prompt portion `prefill_len`
    /// (governs the baselines' retained-generation growth). Placement
    /// follows the system's default policy at this point.
    pub fn step_time(&self, system: SystemKind, r: usize, s: usize, prefill_len: usize) -> f64 {
        let l_cpu = self.policy_l_cpu(system.default_policy(), r, s, &mut None);
        let [bd] = self.step_breakdowns(
            &mut EventSim::price_only(),
            &system.profile(),
            system,
            r,
            [(s, prefill_len, l_cpu)],
        );
        bd.total
    }

    /// Memoized [`ServingSim::step_time`] — the per-iteration hook the
    /// continuous-batching scheduler and the `spec_serve` replica wrapper
    /// drive. A hit is a stamp compare and two indexed loads; a miss
    /// prices the aligned [`STEP_BLOCK`] of lengths around `s`, each at
    /// the scheduler's split (`prefill_len ==` its length). See
    /// [`StepCache`] for what is memoized and when the cache empties
    /// itself.
    pub fn step_time_cached(
        &self,
        cache: &mut StepCache,
        system: SystemKind,
        r: usize,
        s: usize,
        prefill_len: usize,
    ) -> f64 {
        let memoizable =
            StepCache::indexes(r, s) && (prefill_len == s || !system.retains_generated());
        if !memoizable {
            return self.step_time(system, r, s, prefill_len);
        }
        cache.restamp(self, system);
        let (page, slot) = (s / STEP_PAGE, s % STEP_PAGE);
        if let Some(p) = cache.page(r, s).filter(|p| p.priced_from(slot) > 0) {
            return p.prices[slot];
        }
        if cache.batches.len() <= r {
            cache.batches.resize_with(r + 1, BatchSteps::default);
        }
        let batch = &mut cache.batches[r];
        let first = s - s % STEP_BLOCK;
        let policy = system.default_policy();
        let lanes = std::array::from_fn(|i| {
            let s = first + i;
            (s, s, self.policy_l_cpu(policy, r, s, &mut batch.thresholds))
        });
        let (_, profile) = cache.filled_under.as_ref().expect("stamped above");
        let block = self.step_breakdowns(&mut cache.timeline, profile, system, r, lanes);
        if batch.pages.len() <= page {
            batch.pages.resize_with(page + 1, || None);
        }
        let page = batch.pages[page].get_or_insert_with(|| {
            Box::new(StepPage {
                prices: [f64::NAN; STEP_PAGE],
                priced: 0,
            })
        });
        let first_slot = first % STEP_PAGE;
        for (price, bd) in page.prices[first_slot..first_slot + STEP_BLOCK]
            .iter_mut()
            .zip(&block)
        {
            *price = bd.total;
        }
        page.priced |= 1 << (first_slot / STEP_BLOCK);
        cache.priced += STEP_BLOCK;
        page.prices[slot]
    }

    /// The prices of a batch of `r` from length `s` on — what
    /// `step_time_cached(cache, system, r, s', s')` returns at `s' = s`,
    /// `s + 1`, … — as one slice of the table page holding `s`, ending at
    /// the page's edge or at the first block not priced yet: a quiet run,
    /// whose mean length rises by one per iteration, reads it in place
    /// and asks again from where it stopped.
    ///
    /// The slice is never empty. A miss at `s` first prices its block
    /// through [`ServingSim::step_time_cached`], which stays the only
    /// path that prices anything; a batch or length no table is sized
    /// for yields its one step, priced directly.
    pub fn step_prices<'c>(
        &self,
        cache: &'c mut StepCache,
        system: SystemKind,
        r: usize,
        s: usize,
    ) -> &'c [f64] {
        if !StepCache::indexes(r, s) {
            cache.direct = self.step_time(system, r, s, s);
            return std::slice::from_ref(&cache.direct);
        }
        cache.restamp(self, system);
        let slot = s % STEP_PAGE;
        if cache.page(r, s).is_none_or(|p| p.priced_from(slot) == 0) {
            self.step_time_cached(cache, system, r, s, s);
        }
        let cache: &'c StepCache = cache;
        let page = cache.page(r, s).expect("priced above");
        &page.prices[slot..slot + page.priced_from(slot)]
    }

    /// Prefill latency for one prompt of `input_len` tokens, memoized in
    /// `cache` under the same stamp as its steps — admission re-prefills
    /// identical prompt lengths constantly.
    pub fn prefill_time_cached(
        &self,
        cache: &mut StepCache,
        system: SystemKind,
        input_len: usize,
    ) -> f64 {
        cache.restamp(self, system);
        if let Some(&t) = cache.prefill.get(&input_len) {
            return t;
        }
        let t = self
            .throughput(system, &Workload::new(input_len, 1, 1))
            .prefill_s;
        cache.prefill.insert(input_len, t);
        t
    }

    /// The offload depth `policy` dictates at batch `r`, length `s` when
    /// the decision is taken step-locally (the [`ServingSim::step_time`]
    /// contract; [`ServingSim::throughput_with_policy`] instead decides
    /// full offload once from the workload's final length). `thresholds`
    /// memoizes Algorithm 1 for this batch size across calls.
    fn policy_l_cpu(
        &self,
        policy: MemoryPolicy,
        r: usize,
        s: usize,
        thresholds: &mut Option<Thresholds>,
    ) -> usize {
        let cfg = self.cm.config();
        match policy {
            MemoryPolicy::AllGpuOrOom => 0,
            MemoryPolicy::AllGpuOrFullOffload => {
                if self.mm.fits_all(r, s) {
                    0
                } else {
                    cfg.layers
                }
            }
            MemoryPolicy::Adaptive => thresholds
                .get_or_insert_with(|| Thresholds::compute(&self.mm, r, self.budget))
                .required_offload(s)
                .unwrap_or(cfg.layers),
        }
    }

    /// The fully-determined timelines of `W` steps of batch `r`, one per
    /// `(s, prefill_len, l_cpu)` — length, prompt split and offload
    /// depth — laid out side by side on `timeline`.
    fn step_breakdowns<const W: usize>(
        &self,
        timeline: &mut EventSim<W>,
        profile: &EngineProfile,
        system: SystemKind,
        r: usize,
        lanes: [(usize, usize, usize); W],
    ) -> [StepBreakdown; W] {
        let steps = lanes.map(|(s, prefill_len, l_cpu)| {
            let (s_attended, candidates, candidate_bytes) =
                self.system_step_shape(system, s, prefill_len);
            StepParams {
                r,
                s_total: s,
                s_attended,
                candidates,
                candidate_bytes,
                l_cpu,
                budget: self.budget,
                reuse: self.elastic_reuse,
            }
        });
        let kind = match system {
            SystemKind::FullEager | SystemKind::FullFlash | SystemKind::FullFlashInfer => {
                DataflowKind::PrefetchFullKv
            }
            SystemKind::Quest | SystemKind::ClusterKv => DataflowKind::FetchSparseKv,
            SystemKind::ShadowKv => DataflowKind::PrefetchSparseV,
            SystemKind::SpeContext => DataflowKind::SpeContext,
        };
        step_timeline_into(timeline, kind, &self.cm, profile, &self.dev, &steps)
    }

    /// The per-system step shape at a point in the generation: positions
    /// attended, retrieval candidates, bytes per candidate.
    fn system_step_shape(
        &self,
        system: SystemKind,
        s: usize,
        prefill_len: usize,
    ) -> (usize, usize, f64) {
        let cfg = self.cm.config();
        let generated = s.saturating_sub(prefill_len);
        match system {
            SystemKind::FullEager | SystemKind::FullFlash | SystemKind::FullFlashInfer => {
                (s, 0, 0.0)
            }
            SystemKind::Quest => (
                (self.budget + generated).min(s),
                prefill_len / 16,
                4.0 * cfg.head_dim as f64,
            ),
            SystemKind::ClusterKv => (
                (self.budget + generated).min(s),
                prefill_len / 16,
                2.0 * cfg.head_dim as f64,
            ),
            SystemKind::ShadowKv => (
                (self.budget + generated).min(s),
                prefill_len,
                cfg.head_dim as f64 / 2.0 + 4.0,
            ),
            SystemKind::SpeContext => (self.budget.min(s), 0, 0.0),
        }
    }

    /// Estimates throughput for `system` with its default memory policy.
    pub fn throughput(&self, system: SystemKind, w: &Workload) -> ThroughputReport {
        self.throughput_with_policy(system, w, system.default_policy())
    }

    /// Estimates throughput under an explicit memory policy (used by the
    /// ablation of Fig. 11 and the Challenge-3 experiment of Fig. 2(a)).
    pub fn throughput_with_policy(
        &self,
        system: SystemKind,
        w: &Workload,
        policy: MemoryPolicy,
    ) -> ThroughputReport {
        let cfg = self.cm.config();
        let profile = system.profile();
        let s_end = w.input_len + w.output_len;
        let r = w.requests;

        // --- OOM checks -------------------------------------------------
        match policy {
            MemoryPolicy::AllGpuOrOom => {
                let mut needed = self.mm.m_all(r, s_end);
                if system == SystemKind::FullEager {
                    needed += self.mm.eager_prefill_scores_bytes(r, w.input_len);
                }
                if needed > self.mm.gpu_mem as f64 {
                    return ThroughputReport::oom(r);
                }
            }
            MemoryPolicy::AllGpuOrFullOffload | MemoryPolicy::Adaptive => {
                // Even full offload needs the model weights resident.
                if self.mm.static_bytes()
                    + 4.0 * (self.budget * r) as f64 * (self.mm.kv_heads * self.mm.head_dim) as f64
                    > self.mm.gpu_mem as f64
                {
                    return ThroughputReport::oom(r);
                }
            }
        }

        // --- prefill + preprocessing ------------------------------------
        let mut prefill_s = profile.op_time(self.cm.prefill(r, w.input_len), &self.dev);
        let preprocess = match system {
            SystemKind::Quest => PreprocessKind::Paging,
            SystemKind::ClusterKv => PreprocessKind::Clustering {
                iters: 15,
                tokens_per_cluster: 16,
            },
            SystemKind::ShadowKv => PreprocessKind::Quantization,
            _ => PreprocessKind::None,
        };
        prefill_s += profile.op_time(self.cm.preprocess(r, w.input_len, preprocess), &self.dev);
        if system == SystemKind::SpeContext {
            prefill_s += profile.op_time(self.cm.retrieval_head_prefill(r, w.input_len), &self.dev);
        }

        // --- decode integration ------------------------------------------
        let thresholds = Thresholds::compute(&self.mm, r, self.budget);
        let full_offload_decided =
            policy == MemoryPolicy::AllGpuOrFullOffload && !self.mm.fits_all(r, s_end);

        let l_cpu_at = |s: usize| -> Option<usize> {
            match policy {
                MemoryPolicy::AllGpuOrOom => Some(0),
                MemoryPolicy::AllGpuOrFullOffload => {
                    Some(if full_offload_decided { cfg.layers } else { 0 })
                }
                MemoryPolicy::Adaptive => thresholds.required_offload(s).or(Some(cfg.layers)),
            }
        };

        let mut timeline = EventSim::price_only();
        let mut step_at = |s: usize| -> StepBreakdown {
            let l_cpu = l_cpu_at(s).unwrap_or(cfg.layers);
            let [bd] = self.step_breakdowns(
                &mut timeline,
                &profile,
                system,
                r,
                [(s, w.input_len, l_cpu)],
            );
            bd
        };

        // Sample points: stride plus adaptive-threshold crossings.
        let mut samples: Vec<usize> = Vec::new();
        let stride = (w.output_len / 48).max(1);
        let mut s = w.input_len;
        while s < s_end {
            samples.push(s);
            s += stride;
        }
        samples.push(s_end);
        if policy == MemoryPolicy::Adaptive {
            for &t in &thresholds.values {
                let t = t.max(0) as usize;
                if t > w.input_len && t < s_end {
                    samples.push(t);
                    samples.push(t + 1);
                }
            }
        }
        samples.sort_unstable();
        samples.dedup();

        // Trapezoidal integration of step time over the token axis.
        let mut decode_s = 0.0;
        let mut transfer_bytes = 0.0;
        let mut prev: Option<(usize, StepBreakdown)> = None;
        for &sp in &samples {
            let bd = step_at(sp);
            if let Some((s0, bd0)) = prev {
                let n = (sp - s0) as f64;
                decode_s += 0.5 * (bd0.total + bd.total) * n;
                transfer_bytes += 0.5 * (bd0.bytes_transferred + bd.bytes_transferred) * n;
            }
            prev = Some((sp, bd));
        }
        let mid_step = step_at(w.input_len + w.output_len / 2);

        let total = prefill_s + decode_s;
        ThroughputReport {
            tokens_per_s: (r * w.output_len) as f64 / total,
            oom: false,
            prefill_s,
            decode_s,
            transfer_bytes,
            mid_step,
            requests: r,
        }
    }

    /// Finds the batch size maximizing throughput among `candidates`
    /// (single-request systems only consider 1).
    pub fn best_batch(
        &self,
        system: SystemKind,
        input_len: usize,
        output_len: usize,
        candidates: &[usize],
    ) -> ThroughputReport {
        let cap = system.max_batch();
        let mut cands: Vec<usize> = candidates.iter().copied().filter(|&r| r <= cap).collect();
        if cands.is_empty() {
            cands.push(cap.min(candidates.iter().copied().min().unwrap_or(1)));
        }
        cands.sort_unstable();
        cands.dedup();
        cands
            .iter()
            .map(|&r| self.throughput(system, &Workload::new(input_len, output_len, r)))
            .max_by(|a, b| {
                a.tokens_per_s
                    .partial_cmp(&b.tokens_per_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one candidate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud_sim() -> ServingSim {
        ServingSim::new(
            ModelConfig::deepseek_distill_llama_8b(),
            DeviceSpec::a100_80g(),
            2048,
        )
    }

    #[test]
    fn engine_profiles_rank_on_full_attention() {
        let sim = cloud_sim();
        let w = Workload::new(2048, 16 * 1024, 4);
        let eager = sim.throughput(SystemKind::FullEager, &w);
        let flash = sim.throughput(SystemKind::FullFlash, &w);
        let fi = sim.throughput(SystemKind::FullFlashInfer, &w);
        assert!(!eager.oom && !flash.oom && !fi.oom);
        assert!(eager.tokens_per_s < flash.tokens_per_s);
        assert!(flash.tokens_per_s < fi.tokens_per_s);
    }

    #[test]
    fn eager_ooms_at_16k_batch4_like_table3() {
        let sim = cloud_sim();
        let w = Workload::new(16 * 1024, 2048, 4);
        assert!(sim.throughput(SystemKind::FullEager, &w).oom);
    }

    #[test]
    fn specontext_beats_flashinfer_in_reasoning_scenario() {
        // Table 3 [2k,16k]/[2k,32k]: long generation favors SpeContext.
        let sim = cloud_sim();
        let w = Workload::new(2048, 32 * 1024, 8);
        let fi = sim.throughput(SystemKind::FullFlashInfer, &w);
        let ours = sim.throughput(SystemKind::SpeContext, &w);
        assert!(
            ours.tokens_per_s > fi.tokens_per_s,
            "ours {} vs flashinfer {}",
            ours.tokens_per_s,
            fi.tokens_per_s
        );
    }

    #[test]
    fn specontext_scales_to_larger_batches() {
        // The sparse budget frees memory: batch 32 fits for ours where
        // full attention cannot hold 32 requests of 34K tokens.
        let sim = cloud_sim();
        let w = Workload::new(2048, 32 * 1024, 32);
        let ours = sim.throughput(SystemKind::SpeContext, &w);
        assert!(!ours.oom);
        let fi = sim.throughput(SystemKind::FullFlashInfer, &w);
        assert!(fi.oom, "full attention at batch 32 x 34K must OOM");
    }

    #[test]
    fn best_batch_single_request_systems_stay_at_one() {
        let sim = cloud_sim();
        let rep = sim.best_batch(SystemKind::Quest, 2048, 4096, &[1, 4, 8]);
        assert_eq!(rep.requests, 1);
    }

    #[test]
    fn offload_cliff_matches_challenge3() {
        // Fig. 2(a): a predetermined policy collapses when the workload
        // no longer fits (120K -> 128K at batch 4), while adaptive
        // placement degrades gracefully.
        // With the 30% runtime buffer, 4 requests fit entirely on the
        // 80GB GPU up to ~107K tokens (Alg. 1's S_T_0); 96K fits, 112K
        // spills. The paper's 120K/128K anecdote ignores the runtime
        // buffer, shifting the boundary but not the cliff shape.
        let sim = cloud_sim();
        let fits = Workload::new(96 * 1024, 2048, 4);
        let spills = Workload::new(112 * 1024, 2048, 4);
        let pre_fits = sim.throughput_with_policy(
            SystemKind::FullFlashInfer,
            &fits,
            MemoryPolicy::AllGpuOrFullOffload,
        );
        let pre_spills = sim.throughput_with_policy(
            SystemKind::FullFlashInfer,
            &spills,
            MemoryPolicy::AllGpuOrFullOffload,
        );
        assert!(
            pre_spills.tokens_per_s < 0.35 * pre_fits.tokens_per_s,
            "cliff expected: {} -> {}",
            pre_fits.tokens_per_s,
            pre_spills.tokens_per_s
        );
        let ada_spills =
            sim.throughput_with_policy(SystemKind::SpeContext, &spills, MemoryPolicy::Adaptive);
        assert!(ada_spills.tokens_per_s > pre_spills.tokens_per_s);
    }

    #[test]
    fn edge_device_supports_specontext_generation() {
        let sim = ServingSim::new(
            ModelConfig::reasoning_llama3_2_1b(),
            DeviceSpec::rtx4060_laptop_4g(),
            2048,
        );
        let w = Workload::new(2048, 16 * 1024, 1);
        let ours = sim.throughput(SystemKind::SpeContext, &w);
        assert!(!ours.oom);
        assert!(ours.tokens_per_s > 1.0);
        // Eager with full offload is far slower (Fig. 10(b)).
        let eager = sim.throughput_with_policy(
            SystemKind::FullEager,
            &w,
            MemoryPolicy::AllGpuOrFullOffload,
        );
        assert!(ours.tokens_per_s > 2.0 * eager.tokens_per_s);
    }

    #[test]
    fn step_cache_empties_itself_when_its_stamp_changes() {
        // A point with offloaded layers, so the reuse fraction prices in.
        let (system, r, s) = (SystemKind::SpeContext, 16, 120 * 1024);
        let mut sim = cloud_sim();
        let mut cache = StepCache::new();
        let before = sim.step_time_cached(&mut cache, system, r, s, s);
        assert_eq!(before, sim.step_time(system, r, s, s));
        assert_eq!(cache.len(), STEP_BLOCK, "one block");
        // Flipping the public knob between two calls must not serve the
        // stale entry.
        sim.elastic_reuse = 0.0;
        let after = sim.step_time_cached(&mut cache, system, r, s, s);
        assert_eq!(after, sim.step_time(system, r, s, s));
        assert!(after > before, "refetching everything costs more");
        assert_eq!(
            cache.len(),
            STEP_BLOCK,
            "the stale block is gone, not kept beside"
        );
        // Nor may another simulator, or another system, inherit entries.
        let edge = ServingSim::new(
            ModelConfig::reasoning_llama3_2_1b(),
            DeviceSpec::rtx4060_laptop_4g(),
            2048,
        );
        for (sim, system) in [(&edge, system), (&sim, SystemKind::FullFlashInfer)] {
            let cached = sim.step_time_cached(&mut cache, system, 1, 4096, 4096);
            assert_eq!(cached, sim.step_time(system, 1, 4096, 4096));
            assert_eq!(cache.len(), STEP_BLOCK);
        }
        // A clone is the same simulator: it hits the block the original
        // priced and adds its own beside it.
        let clone = edge.clone();
        edge.step_time_cached(&mut cache, system, 1, 4096, 4096);
        clone.step_time_cached(&mut cache, system, 1, 4097, 4097);
        assert_eq!(cache.len(), STEP_BLOCK);
        clone.step_time_cached(&mut cache, system, 1, 4096 + STEP_BLOCK, 4096 + STEP_BLOCK);
        assert_eq!(cache.len(), 2 * STEP_BLOCK);
    }

    #[test]
    fn prompt_split_and_oversized_points_are_priced_directly() {
        let sim = cloud_sim();
        let mut cache = StepCache::new();
        // Quest's price depends on where the prompt ended: only the
        // scheduler's split is memoized.
        let split = sim.step_time_cached(&mut cache, SystemKind::Quest, 1, 8192, 2048);
        assert_eq!(split, sim.step_time(SystemKind::Quest, 1, 8192, 2048));
        assert!(cache.is_empty());
        let whole = sim.step_time_cached(&mut cache, SystemKind::Quest, 1, 8192, 8192);
        assert_ne!(split, whole);
        assert_eq!(cache.len(), STEP_BLOCK);
        // A length no table should be sized for.
        let huge = STEP_CACHE_MAX_LEN + 5;
        let t = sim.step_time_cached(&mut cache, SystemKind::SpeContext, 1, huge, huge);
        assert_eq!(t, sim.step_time(SystemKind::SpeContext, 1, huge, huge));
        assert_eq!(cache.len(), STEP_BLOCK, "not memoized");
    }

    /// `n` consecutive prices from `s` on, read the way a quiet run
    /// reads them: slice after slice of the table.
    fn walked(
        sim: &ServingSim,
        cache: &mut StepCache,
        sys: SystemKind,
        r: usize,
        s: usize,
        n: usize,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < n {
            let prices = sim.step_prices(cache, sys, r, s + out.len());
            assert!(!prices.is_empty(), "a slice is never empty");
            let take = prices.len().min(n - out.len());
            out.extend(prices[..take].iter().map(|t| t.to_bits()));
        }
        out
    }

    #[test]
    fn walk_feeds_the_lookups_prices_across_holes_and_page_edges() {
        let sim = cloud_sim();
        for system in [SystemKind::SpeContext, SystemKind::ShadowKv] {
            let (r, from, n) = (3, 2 * STEP_PAGE - 40, STEP_PAGE + 100);
            let mut looked = StepCache::new();
            let expect: Vec<u64> = (from..from + n)
                .map(|s| sim.step_time_cached(&mut looked, system, r, s, s).to_bits())
                .collect();
            // Cold table, a table with holes, a fully priced table: the
            // walk crosses two page edges each time. It starts and ends
            // inside a block, so it prices the blocks that cover it.
            let covered =
                (from + n).div_ceil(STEP_BLOCK) * STEP_BLOCK - from / STEP_BLOCK * STEP_BLOCK;
            let mut cache = StepCache::new();
            for s in (from..from + n).step_by(37) {
                sim.step_time_cached(&mut cache, system, r, s, s);
            }
            let holes = cache.len();
            assert_eq!(walked(&sim, &mut cache, system, r, from, n), expect);
            assert_eq!(cache.len(), covered, "the walk priced exactly the holes");
            assert!(holes < covered);
            assert_eq!(walked(&sim, &mut cache, system, r, from, n), expect);
            assert_eq!(cache.len(), covered, "a priced row is only read");
            assert_eq!(
                walked(&sim, &mut StepCache::new(), system, r, from, n),
                expect
            );
            // One visit is one step, wherever the walk stops.
            assert_eq!(walked(&sim, &mut cache, system, r, from, 1), expect[..1]);
        }
    }

    #[test]
    fn a_slice_ends_at_the_page_edge_or_the_first_unpriced_block() {
        let sim = cloud_sim();
        let (system, r) = (SystemKind::SpeContext, 2);
        let mut cache = StepCache::new();
        let mut slice = |s: usize| sim.step_prices(&mut cache, system, r, s).to_vec();
        let (page, s) = (STEP_PAGE, STEP_PAGE + 3);
        // A cold length prices its block and hands out the block's rest;
        // the block after next priced by a lookup leaves a hole between.
        assert_eq!(slice(s).len(), STEP_BLOCK - 3);
        let after_next = page + 2 * STEP_BLOCK;
        assert_eq!(slice(after_next).len(), STEP_BLOCK);
        assert_eq!(slice(s).len(), STEP_BLOCK - 3, "stops at the hole");
        // Filling the hole joins the three.
        let filled = slice(page + STEP_BLOCK);
        assert_eq!(filled.len(), 2 * STEP_BLOCK);
        assert_eq!(slice(s).len(), 3 * STEP_BLOCK - 3);
        // The page's last block ends at the page's edge.
        assert_eq!(slice(2 * page - 1).len(), 1);
        for (i, t) in filled.iter().enumerate() {
            let s = page + STEP_BLOCK + i;
            assert_eq!(t.to_bits(), sim.step_time(system, r, s, s).to_bits());
        }
    }

    #[test]
    fn walk_restamps_and_prices_oversized_steps_directly() {
        let mut sim = cloud_sim();
        let (system, r, s) = (SystemKind::SpeContext, 16, 120 * 1024);
        let mut cache = StepCache::new();
        let before = walked(&sim, &mut cache, system, r, s, 3);
        sim.elastic_reuse = 0.0;
        let after = walked(&sim, &mut cache, system, r, s, 3);
        assert_ne!(before, after, "a changed stamp must not serve stale pages");
        assert_eq!(after[0], sim.step_time(system, r, s, s).to_bits());
        assert_eq!(cache.len(), STEP_BLOCK, "three lengths of one block");
        // Past the table's bounds every step is priced directly.
        let huge = STEP_CACHE_MAX_LEN - 1;
        let edge = walked(&sim, &mut cache, system, 1, huge, 3);
        let direct: Vec<u64> = (huge..huge + 3)
            .map(|s| sim.step_time(system, 1, s, s).to_bits())
            .collect();
        assert_eq!(edge, direct);
        assert_eq!(
            cache.len(),
            2 * STEP_BLOCK,
            "only the last in-bounds length's block is memoized"
        );
    }

    #[test]
    fn identically_built_simulators_price_alike_and_changed_ones_do_not() {
        let a = cloud_sim();
        assert!(a.prices_like(&cloud_sim()), "content, not construction");
        assert!(a.prices_like(&a.clone()));
        let mut reuse = cloud_sim();
        reuse.elastic_reuse = 0.5;
        assert!(!a.prices_like(&reuse));
        let others = [
            ServingSim::new(
                ModelConfig::deepseek_distill_llama_8b(),
                DeviceSpec::a100_80g(),
                1024,
            ),
            ServingSim::new(
                ModelConfig::deepseek_distill_llama_8b(),
                DeviceSpec::rtx4090(),
                2048,
            ),
            ServingSim::new(
                ModelConfig::reasoning_llama3_2_1b(),
                DeviceSpec::a100_80g(),
                2048,
            ),
        ];
        for other in &others {
            assert!(!a.prices_like(other));
        }
    }

    #[test]
    fn transfer_bytes_track_elastic_reuse() {
        let mut sim = cloud_sim();
        let w = Workload::new(100 * 1024, 8 * 1024, 16); // forces offload
        sim.elastic_reuse = 0.0;
        let full = sim.throughput(SystemKind::SpeContext, &w);
        sim.elastic_reuse = 0.9;
        let elastic = sim.throughput(SystemKind::SpeContext, &w);
        assert!(elastic.transfer_bytes < 0.2 * full.transfer_bytes);
        assert!(elastic.tokens_per_s >= full.tokens_per_s);
    }
}
