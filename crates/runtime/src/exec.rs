//! The functional decode executor: couples the (simulated) model, a
//! retrieval strategy and the elastic-loading buffers.
//!
//! Where [`crate::serving`] estimates *time*, this module produces
//! *outputs*: logits, attention traces, selection overlap statistics and
//! transfer accounting from actually running the model — the accuracy
//! side of every experiment (Figs. 5, 6(b), 8, 9).
//!
//! There is one per-step loop (`DecodeState::run`); each step resolves the
//! strategy to a [`LayerSelector`] and calls [`Model::step`]. Teacher-forced
//! and free-running decode differ only in where a step's input comes from.

use spec_kvcache::budget::{BudgetBuffer, StepTransfer};
use spec_model::{LayerSelector, Model, ModelKv, SelectScratch, StepOutput, StepTrace};
use spec_retrieval::full::FullAttention;
use spec_retrieval::spec_head::{union_overlap_rate, SpecContextRetriever};
use spec_tensor::Matrix;

/// How decode attention is driven.
pub enum DecodeStrategy {
    /// Dense attention (the accuracy ceiling).
    Dense,
    /// SpeContext: speculative whole-model selection + elastic loading.
    SpeContext(Box<SpecContextRetriever>),
    /// A layer-wise query-aware baseline.
    LayerWise(Box<dyn LayerSelector>),
}

impl std::fmt::Debug for DecodeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeStrategy::Dense => "Dense",
            DecodeStrategy::SpeContext(_) => "SpeContext",
            DecodeStrategy::LayerWise(_) => "LayerWise",
        };
        write!(f, "DecodeStrategy::{s}")
    }
}

/// Result of a generation run.
#[derive(Debug, Default)]
pub struct GenerationResult {
    /// Step outputs in order.
    pub outputs: Vec<StepOutput>,
    /// Greedily decoded token ids (free-running mode).
    pub tokens: Vec<usize>,
    /// Attention traces (when requested).
    pub traces: Vec<StepTrace>,
    /// Aggregate elastic-loading transfer accounting (SpeContext only).
    pub transfer: Option<StepTransfer>,
    /// Per-step selection overlap with the previous step (SpeContext
    /// only; the Fig. 6(b) statistic).
    pub overlaps: Vec<f32>,
}

/// What the loop carries from one step to the next besides the KV cache
/// and the strategy: the elastic buffer's resident sets, the previous
/// step's union selection (and the buffer the next one is built in), both
/// as position bitmaps, and the selection workspace. A run that
/// continues an earlier one (a session's second `generate`) must reuse
/// the earlier run's state; [`generate_teacher_forced`] and
/// [`generate_free_running`] start from a fresh one.
#[derive(Debug, Default)]
pub struct DecodeState {
    /// Elastic-loading buffer, sized at the first SpeContext step.
    buffer: Option<BudgetBuffer>,
    /// The previous SpeContext step's union selection, once there was
    /// one, as a position bitmap.
    last_union: Option<Vec<u64>>,
    /// Where this step's union is built, then swapped with `last_union`.
    union: Vec<u64>,
    /// One selection workspace for the whole generation (the
    /// zero-allocation hot path: warm across steps and layers).
    scratch: SelectScratch,
}

/// Where a step's input embedding comes from.
#[derive(Clone, Copy)]
enum Feed<'a> {
    /// Row `i` at step `i`.
    TeacherForced(&'a Matrix),
    /// This embedding first, then the previous step's argmax token's.
    FreeRunning(&'a [f32]),
}

impl DecodeState {
    /// As [`generate_teacher_forced`], continuing from this state.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has fewer rows than `steps`.
    pub fn teacher_forced(
        &mut self,
        model: &Model,
        kv: &mut ModelKv,
        inputs: &Matrix,
        steps: usize,
        strategy: &mut DecodeStrategy,
        record_traces: bool,
    ) -> GenerationResult {
        assert!(inputs.rows() >= steps, "not enough teacher-forced inputs");
        let feed = Feed::TeacherForced(inputs);
        self.run(model, kv, feed, steps, strategy, record_traces)
    }

    /// As [`generate_free_running`], continuing from this state.
    pub fn free_running(
        &mut self,
        model: &Model,
        kv: &mut ModelKv,
        first: &[f32],
        steps: usize,
        strategy: &mut DecodeStrategy,
        record_traces: bool,
    ) -> GenerationResult {
        let feed = Feed::FreeRunning(first);
        self.run(model, kv, feed, steps, strategy, record_traces)
    }

    fn run(
        &mut self,
        model: &Model,
        kv: &mut ModelKv,
        feed: Feed,
        steps: usize,
        strategy: &mut DecodeStrategy,
        record_traces: bool,
    ) -> GenerationResult {
        let geom = model.geometry();
        let mut res = GenerationResult::default();
        let mut own = match feed {
            Feed::TeacherForced(_) => Vec::new(),
            Feed::FreeRunning(first) => first.to_vec(),
        };
        for i in 0..steps {
            let x = match feed {
                Feed::TeacherForced(inputs) => inputs.row(i),
                Feed::FreeRunning(_) => &own[..],
            };
            let mut selection;
            let selector: &mut dyn LayerSelector = match strategy {
                DecodeStrategy::Dense => &mut FullAttention,
                DecodeStrategy::LayerWise(selector) => selector.as_mut(),
                DecodeStrategy::SpeContext(retr) => {
                    // The retrieval head sees the token before the LLM does.
                    retr.observe(x);
                    selection = retr.select_scratch(x, geom, &mut self.scratch);
                    // Elastic loading accounting. Every layer is lent
                    // the same lists; the buffer plans its one set per
                    // KV head once and counts it per layer.
                    let cfg = retr.config();
                    let buffer = self.buffer.get_or_insert_with(|| {
                        let slots = cfg.budget.max(1) + cfg.recent + cfg.sinks + 1;
                        BudgetBuffer::new(geom.layers, geom.kv_heads, slots)
                    });
                    let moved = buffer.step(&vec![&selection.per_head[..]; geom.layers]);
                    let total = res.transfer.get_or_insert_with(StepTransfer::default);
                    total.fetched_entries += moved.fetched_entries;
                    total.reused_entries += moved.reused_entries;
                    selection.union_words_into(&mut self.union);
                    match &mut self.last_union {
                        Some(prev) => {
                            res.overlaps.push(union_overlap_rate(prev, &self.union));
                            std::mem::swap(prev, &mut self.union);
                        }
                        None => self.last_union = Some(std::mem::take(&mut self.union)),
                    }
                    &mut selection
                }
            };
            let mut trace = record_traces.then(StepTrace::default);
            let pos = kv.seq_len();
            let out = model.step(x, pos, kv, selector, &mut self.scratch, trace.as_mut());
            res.traces.extend(trace);
            let token = Model::argmax_token(&out.logits);
            res.tokens.push(token);
            res.outputs.push(out);
            if let Feed::FreeRunning(_) = feed {
                own.copy_from_slice(model.weights().embedding.row(token));
            }
        }
        res
    }
}

/// Runs `steps` decode iterations teacher-forced on the rows of `inputs`
/// (row `i` is the embedding fed at step `i`).
///
/// # Panics
///
/// Panics if `inputs` has fewer rows than `steps`.
pub fn generate_teacher_forced(
    model: &Model,
    kv: &mut ModelKv,
    inputs: &Matrix,
    steps: usize,
    strategy: &mut DecodeStrategy,
    record_traces: bool,
) -> GenerationResult {
    DecodeState::default().teacher_forced(model, kv, inputs, steps, strategy, record_traces)
}

/// Runs `steps` free-running decode iterations: each step feeds the
/// embedding of the previous step's argmax token, starting from `first`.
pub fn generate_free_running(
    model: &Model,
    kv: &mut ModelKv,
    first: &[f32],
    steps: usize,
    strategy: &mut DecodeStrategy,
    record_traces: bool,
) -> GenerationResult {
    DecodeState::default().free_running(model, kv, first, steps, strategy, record_traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, DistillOptions, Dlm, PrefillMode, SimGeometry};
    use spec_retrieval::common::SelectorConfig;
    use spec_retrieval::full::FullAttention;
    use spec_retrieval::quest::QuestSelector;
    use spec_retrieval::MappingLevel;

    fn setup() -> (Model, ModelKv, Matrix) {
        let m = Model::new(SimGeometry::tiny(AttentionKind::Gqa), 71);
        let tokens: Vec<usize> = (0..32).map(|i| (i * 3) % 60).collect();
        let emb = m.embed_tokens(&tokens);
        let (kv, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        (m, kv, emb)
    }

    #[test]
    fn dense_and_full_selector_agree() {
        let (m, kv, emb) = setup();
        let mut kv_a = kv.clone();
        let mut kv_b = kv.clone();
        let mut dense = DecodeStrategy::Dense;
        let mut full = DecodeStrategy::LayerWise(Box::new(FullAttention));
        let a = generate_teacher_forced(&m, &mut kv_a, &emb, 4, &mut dense, false);
        let b = generate_teacher_forced(&m, &mut kv_b, &emb, 4, &mut full, false);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn specontext_strategy_records_transfer_and_overlap() {
        let (m, mut kv, emb) = setup();
        let head = Dlm::distill(&m, DistillOptions::default()).to_retrieval_head();
        let mut retr = SpecContextRetriever::new(
            head,
            SelectorConfig {
                budget: 12,
                sinks: 2,
                recent: 2,
                ..SelectorConfig::with_budget(12)
            },
            MappingLevel::Head,
        );
        // The retrieval head must observe the prompt first.
        for r in 0..emb.rows() {
            retr.observe(emb.row(r));
        }
        let mut strat = DecodeStrategy::SpeContext(Box::new(retr));
        let res = generate_teacher_forced(&m, &mut kv, &emb, 6, &mut strat, false);
        let t = res.transfer.expect("transfer accounting");
        assert!(t.fetched_entries > 0);
        assert!(t.reused_entries > 0, "elastic reuse should occur");
        assert_eq!(res.overlaps.len(), 5);
        for o in &res.overlaps {
            assert!((0.0..=1.0).contains(o));
        }
    }

    #[test]
    fn layerwise_quest_runs_and_differs_from_dense() {
        let (m, kv, emb) = setup();
        let mut kv_a = kv.clone();
        let mut kv_b = kv.clone();
        let cfg = SelectorConfig {
            budget: 8,
            sinks: 1,
            recent: 2,
            ..SelectorConfig::with_budget(8)
        };
        let quest = QuestSelector::preprocess(&kv, cfg);
        let mut strat = DecodeStrategy::LayerWise(Box::new(quest));
        let sparse = generate_teacher_forced(&m, &mut kv_a, &emb, 4, &mut strat, false);
        let mut dense = DecodeStrategy::Dense;
        let dense_res = generate_teacher_forced(&m, &mut kv_b, &emb, 4, &mut dense, false);
        // Outputs are finite and the sparse run genuinely restricted
        // attention (logits differ).
        let diff: f32 = sparse.outputs[0]
            .logits
            .iter()
            .zip(&dense_res.outputs[0].logits)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn free_running_generates_tokens_in_vocab() {
        let (m, mut kv, emb) = setup();
        let mut dense = DecodeStrategy::Dense;
        let res = generate_free_running(&m, &mut kv, emb.row(0), 8, &mut dense, false);
        assert_eq!(res.tokens.len(), 8);
        assert!(res.tokens.iter().all(|&t| t < m.geometry().vocab));
        assert_eq!(kv.seq_len(), 32 + 8);
    }

    #[test]
    fn traces_recorded_when_requested() {
        let (m, mut kv, emb) = setup();
        let mut dense = DecodeStrategy::Dense;
        let res = generate_teacher_forced(&m, &mut kv, &emb, 3, &mut dense, true);
        assert_eq!(res.traces.len(), 3);
        assert_eq!(res.traces[0].attn.len(), m.geometry().layers);
    }
}
