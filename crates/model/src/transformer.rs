//! The simulated transformer decoder.
//!
//! A from-scratch, CPU-executable decoder-only transformer with RMSNorm,
//! RoPE, SiLU-gated FFN, and all four attention families (MHA/GQA/MQA/MLA).
//! Forward passes run on real `f32` arithmetic, so attention distributions
//! — the object every retrieval algorithm in this workspace studies — are
//! genuine, not scripted.
//!
//! Two ingredients make long-context simulation tractable on CPU:
//!
//! * [`PrefillMode::Windowed`] bounds prefill attention to a local window
//!   (plus attention sinks), reducing prefill from O(S²) to O(S·w). Decode
//!   attention — what the paper's retrieval operates on — remains exact.
//! * [`SparsePlan`] restricts decode attention to a selected position set
//!   per layer and KV head, which is exactly the contract every KV
//!   retrieval algorithm (ours and the baselines) produces.

use crate::config::{AttentionKind, SimGeometry};
use crate::kv::{LayerKv, ModelKv};
use crate::weights::{LayerWeights, ModelWeights};
use spec_tensor::topk::SelectScratch;
use spec_tensor::{ops, Matrix, SimRng};

/// How prefill attention is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillMode {
    /// Exact causal attention, O(S²). Use for short tests.
    Exact,
    /// Local window of the given width plus `sinks` initial positions
    /// (StreamingLLM-style). KV caches are identical to exact mode; only
    /// hidden-state mixing during prefill is windowed. Documented
    /// substitution: bounds CPU cost for 10k+ contexts.
    Windowed {
        /// Window width.
        window: usize,
        /// Number of always-visible initial positions.
        sinks: usize,
    },
}

impl Default for PrefillMode {
    fn default() -> Self {
        PrefillMode::Windowed {
            window: 128,
            sinks: 4,
        }
    }
}

/// A per-layer, per-KV-head selection of cache positions to attend to.
///
/// `None` for a layer means dense attention in that layer. Position lists
/// must be sorted ascending and in range; [`SparsePlan::validate`] checks.
#[derive(Debug, Clone, Default)]
pub struct SparsePlan {
    /// `layers[l][h]` = sorted positions KV head `h` of layer `l` attends to.
    pub layers: Vec<Option<Vec<Vec<usize>>>>,
}

impl SparsePlan {
    /// A dense plan (no sparsity) for `layers` layers.
    pub fn dense(layers: usize) -> Self {
        Self {
            layers: vec![None; layers],
        }
    }

    /// A plan applying the same position set to every layer and head.
    pub fn uniform(layers: usize, kv_heads: usize, positions: Vec<usize>) -> Self {
        Self {
            layers: vec![Some(vec![positions; kv_heads]); layers],
        }
    }

    /// Checks ordering and bounds against a cache length.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, seq_len: usize, kv_heads: usize) -> Result<(), String> {
        for (l, layer) in self.layers.iter().enumerate() {
            if let Some(heads) = layer {
                if heads.len() != kv_heads {
                    return Err(format!(
                        "layer {l}: expected {kv_heads} head lists, got {}",
                        heads.len()
                    ));
                }
                for (h, pos) in heads.iter().enumerate() {
                    if !pos.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!("layer {l} head {h}: positions not sorted/unique"));
                    }
                    if pos.last().is_some_and(|&p| p >= seq_len) {
                        return Err(format!("layer {l} head {h}: position out of range"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Layer-wise query-aware KV selection, the retrieval paradigm of the
/// dynamic-selection baselines (paper Section 2.2).
///
/// The model calls [`select`](Self::select) once per layer per decode
/// step, after computing that layer's query vectors, passing the layer's
/// KV state. Returning `None` requests dense attention for the layer;
/// otherwise the per-KV-head position lists (sorted ascending) define the
/// sparse attention set.
///
/// Queries arrive as one flat `q_heads x head_dim` [`Matrix`] (row `q` is
/// query head `q`, post-RoPE), and every call receives the decode loop's
/// [`SelectScratch`] so implementations can run allocation-free — the
/// zero-allocation contract of the selection hot path. Implementations
/// may leave the scratch in any state; callers must not rely on its
/// contents between calls.
pub trait LayerSelector {
    /// Chooses the positions KV head `h` of `layer` attends to.
    fn select(
        &mut self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
        scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>>;
}

/// A plan answers each layer from its table, whatever the queries: the
/// selection was made before the forward pass.
impl LayerSelector for &SparsePlan {
    fn select(
        &mut self,
        layer: usize,
        _queries: &Matrix,
        _kv: &LayerKv,
        _scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        self.layers.get(layer).and_then(|s| s.clone())
    }
}

/// Attention weights recorded during a traced decode step.
///
/// `attn[layer][q_head]` is the post-softmax distribution over the
/// *attended* positions (dense: every cache position; sparse: the
/// selected set, in the plan's order).
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// Recorded distributions.
    pub attn: Vec<Vec<Vec<f32>>>,
    /// The positions each distribution refers to (shared per layer/KV head,
    /// replicated per query head for uniform indexing).
    pub positions: Vec<Vec<Vec<usize>>>,
}

/// Output of a decode step.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Final-hidden-state logits over the vocabulary.
    pub logits: Vec<f32>,
    /// Final hidden state (post final norm).
    pub hidden: Vec<f32>,
}

/// The simulated model: geometry plus weights.
#[derive(Debug, Clone)]
pub struct Model {
    geom: SimGeometry,
    weights: ModelWeights,
    /// YaRN-style positional scale (1.0 = no extension).
    rope_scale: f32,
}

impl Model {
    /// Builds a model with random weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(geom: SimGeometry, seed: u64) -> Self {
        geom.validate().expect("invalid geometry");
        let mut rng = SimRng::seed(seed);
        let weights = ModelWeights::init(&geom, &mut rng);
        Self {
            geom,
            weights,
            rope_scale: 1.0,
        }
    }

    /// Builds a model from explicit weights (used by distillation).
    pub fn from_weights(geom: SimGeometry, weights: ModelWeights) -> Self {
        geom.validate().expect("invalid geometry");
        Self {
            geom,
            weights,
            rope_scale: 1.0,
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &SimGeometry {
        &self.geom
    }

    /// The weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Enables YaRN-style context extension: positions are compressed by
    /// `scale` so the model can address `scale * train_context` tokens.
    /// This mirrors the paper's training-free extension of the DLM's 2k
    /// window (Section 4.3).
    pub fn set_rope_scale(&mut self, scale: f32) {
        assert!(scale >= 1.0, "rope scale must be >= 1");
        self.rope_scale = scale;
    }

    /// Current RoPE position scale.
    pub fn rope_scale(&self) -> f32 {
        self.rope_scale
    }

    /// Embeds a token sequence into a `seq x hidden` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary.
    pub fn embed_tokens(&self, tokens: &[usize]) -> Matrix {
        self.weights.embedding.gather_rows(tokens)
    }

    /// The KV head that query head `q` reads (GQA group mapping).
    pub fn kv_head_of(&self, q: usize) -> usize {
        q / self.geom.group_size()
    }

    /// Runs prefill over pre-embedded inputs, returning the populated KV
    /// cache and the last position's step output.
    ///
    /// # Panics
    ///
    /// Panics if `emb` is empty or its width differs from `hidden`.
    pub fn prefill_embeddings(&self, emb: &Matrix, mode: PrefillMode) -> (ModelKv, StepOutput) {
        assert!(emb.rows() > 0, "prefill requires at least one token");
        assert_eq!(emb.cols(), self.geom.hidden, "embedding width mismatch");
        let mut kv = ModelKv::empty(&self.geom);
        let mut last = None;
        for pos in 0..emb.rows() {
            let plan = self.prefill_plan(pos, mode);
            last = Some(self.decode_step_sparse(emb.row(pos), pos, &mut kv, &plan));
        }
        (kv, last.expect("nonempty prefill"))
    }

    /// Token-level prefill convenience wrapper.
    pub fn prefill_tokens(&self, tokens: &[usize], mode: PrefillMode) -> (ModelKv, StepOutput) {
        let emb = self.embed_tokens(tokens);
        self.prefill_embeddings(&emb, mode)
    }

    fn prefill_plan(&self, pos: usize, mode: PrefillMode) -> SparsePlan {
        match mode {
            PrefillMode::Exact => SparsePlan::dense(self.geom.layers),
            PrefillMode::Windowed { window, sinks } => {
                // Positions [0,sinks) ∪ [pos-window, pos]. `pos` itself is
                // the entry being appended this step.
                let lo = pos.saturating_sub(window);
                let mut positions: Vec<usize> = (0..sinks.min(lo)).collect();
                positions.extend(lo..=pos);
                SparsePlan::uniform(self.geom.layers, self.geom.kv_heads, positions)
            }
        }
    }

    /// [`step`](Self::step) with dense attention.
    pub fn decode_step(&self, x: &[f32], pos: usize, kv: &mut ModelKv) -> StepOutput {
        self.decode_step_sparse(x, pos, kv, &SparsePlan::dense(self.geom.layers))
    }

    /// [`step`](Self::step) with a plan as the selector and a scratch of
    /// its own. A delegation kept for the frozen `bench_e2e`, which mirrors
    /// the session's loop through it.
    pub fn decode_step_sparse(
        &self,
        x: &[f32],
        pos: usize,
        kv: &mut ModelKv,
        mut plan: &SparsePlan,
    ) -> StepOutput {
        self.step(x, pos, kv, &mut plan, &mut SelectScratch::new(), None)
    }

    /// [`step`](Self::step) without a trace. A delegation kept for the
    /// frozen `bench_e2e`, which times the baseline selectors through it.
    pub fn decode_step_selected_scratch(
        &self,
        x: &[f32],
        pos: usize,
        kv: &mut ModelKv,
        selector: &mut dyn LayerSelector,
        scratch: &mut SelectScratch,
    ) -> StepOutput {
        self.step(x, pos, kv, selector, scratch, None)
    }

    /// [`step`](Self::step) under any selector, recording per-layer,
    /// per-query-head attention, with a scratch of its own (one-off
    /// evaluation steps; a decode loop passes its own to `step`).
    pub fn decode_step_traced(
        &self,
        x: &[f32],
        pos: usize,
        kv: &mut ModelKv,
        selector: &mut dyn LayerSelector,
    ) -> (StepOutput, StepTrace) {
        let mut trace = StepTrace::default();
        let mut scratch = SelectScratch::new();
        let out = self.step(x, pos, kv, selector, &mut scratch, Some(&mut trace));
        (out, trace)
    }

    /// Greedy sampling from logits.
    pub fn argmax_token(logits: &[f32]) -> usize {
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// One decode step — the full form every other entry delegates to.
    /// Appends the token at `pos` to the cache and returns its logits.
    ///
    /// At each layer, after that layer's queries are computed, `selector`
    /// answers which cached positions the layer attends (`None` = all).
    /// Three things can answer: a [`SparsePlan`] (a table fixed before
    /// the step), a speculative selection (one answer for every layer —
    /// SpeContext, paper Section 4.3), or a query-aware layer-wise
    /// selector (Quest/ClusterKV/ShadowKV, Fig. 2(a) — the per-layer
    /// retrieve-and-load dependency SpeContext eliminates). The new
    /// token's KV entry is always appended and the current position is
    /// always attended (a query must see itself); the selector only
    /// controls which *existing* positions participate.
    ///
    /// `scratch` is the decode loop's selection workspace, handed to every
    /// `select` call (the zero-allocation hot path). With `trace`, each
    /// layer's post-softmax attention and attended positions are pushed
    /// onto it; recording never changes the output.
    pub fn step(
        &self,
        x: &[f32],
        pos: usize,
        kv: &mut ModelKv,
        selector: &mut dyn LayerSelector,
        scratch: &mut SelectScratch,
        mut trace: Option<&mut StepTrace>,
    ) -> StepOutput {
        let mut h = x.to_vec();
        // One normalization buffer for the whole stack (two rmsnorms per
        // layer), refilled in place instead of allocated per call.
        let mut normed = Vec::with_capacity(h.len());
        // One flat query matrix for the whole stack, refilled per layer.
        let mut queries = Matrix::zeros(self.geom.q_heads, self.geom.head_dim);
        // One rotation table for the whole stack: the angles depend on the
        // position only, not on the layer or the head.
        let rope = ops::rope_table(
            self.geom.head_dim,
            pos,
            self.geom.rope_base,
            self.rope_scale,
        );
        for (l, lw) in self.weights.layers.iter().enumerate() {
            ops::rmsnorm_into(&mut normed, &h, &lw.norm_attn, 1e-6);
            self.append_kv(lw, &normed, &rope, &mut kv.layers[l]);
            // Compute this layer's queries (post-RoPE), then consult the
            // selector — the layer-wise retrieval point of Fig. 2(a).
            self.layer_queries_into(lw, &normed, &rope, &mut queries);
            let selection = selector.select(l, &queries, &kv.layers[l], scratch);
            let (attn_out, layer_attn, layer_pos) =
                self.attention(lw, &queries, pos, &kv.layers[l], selection, trace.is_some());
            if let Some(t) = trace.as_deref_mut() {
                t.attn.push(layer_attn);
                t.positions.push(layer_pos);
            }
            for (a, b) in h.iter_mut().zip(&attn_out) {
                *a += b;
            }
            ops::rmsnorm_into(&mut normed, &h, &lw.norm_ffn, 1e-6);
            let ffn = self.ffn(lw, &normed);
            for (a, b) in h.iter_mut().zip(&ffn) {
                *a += b;
            }
        }
        let hidden = ops::rmsnorm(&h, &self.weights.norm_final, 1e-6);
        let logits = self.weights.lm_head.vecmat(&hidden);
        StepOutput { logits, hidden }
    }

    /// Per-query-head query vectors for this step (post-RoPE except MLA),
    /// written into the rows of a reused `q_heads x head_dim` matrix.
    fn layer_queries_into(
        &self,
        lw: &LayerWeights,
        normed: &[f32],
        rope: &[(f32, f32)],
        out: &mut Matrix,
    ) {
        for q in 0..self.geom.q_heads {
            let row = out.row_mut(q);
            lw.wq[q].vecmat_into(normed, row);
            if self.geom.attention != AttentionKind::Mla {
                ops::rope_apply(row, rope);
            }
        }
    }

    fn append_kv(
        &self,
        lw: &LayerWeights,
        normed: &[f32],
        rope: &[(f32, f32)],
        layer: &mut LayerKv,
    ) {
        match layer {
            LayerKv::PerHead { keys, values } => {
                for hh in 0..self.geom.kv_heads {
                    let mut k = lw.wk[hh].vecmat(normed);
                    ops::rope_apply(&mut k, rope);
                    let v = lw.wv[hh].vecmat(normed);
                    keys[hh].push_row(&k);
                    values[hh].push_row(&v);
                }
            }
            LayerKv::Latent { latent } => {
                let c = lw
                    .w_down_latent
                    .as_ref()
                    .expect("MLA weights")
                    .vecmat(normed);
                latent.push_row(&c);
            }
        }
    }

    /// Attention for one step. Returns (output, per-q-head weights,
    /// per-q-head position lists); the weight/position vectors are empty
    /// unless `record` is true.
    #[allow(clippy::type_complexity)]
    fn attention(
        &self,
        lw: &LayerWeights,
        queries: &Matrix,
        pos: usize,
        layer: &LayerKv,
        mut selection: Option<Vec<Vec<usize>>>,
        record: bool,
    ) -> (Vec<f32>, Vec<Vec<f32>>, Vec<Vec<usize>>) {
        let geom = &self.geom;
        let d = geom.head_dim;
        let mut concat = vec![0.0; geom.q_heads * d];
        let mut rec_w = Vec::new();
        let mut rec_p = Vec::new();

        // Per KV head: resolve the attended position list and gather K/V.
        let seq_len = layer.seq_len();
        let mut per_head: Vec<(Vec<usize>, Matrix, Matrix)> = Vec::with_capacity(geom.kv_heads);
        for hh in 0..geom.kv_heads {
            let positions: Vec<usize> = match &mut selection {
                None => (0..seq_len).collect(),
                Some(heads) => {
                    let mut p = std::mem::take(&mut heads[hh]);
                    // The current position must always be attended; every
                    // cached position is below it, so the list stays sorted.
                    if p.binary_search(&pos).is_err() && pos < seq_len {
                        p.push(pos);
                    }
                    p
                }
            };
            let (k, v) = match layer {
                LayerKv::PerHead { keys, values } => (
                    keys[hh].gather_rows(&positions),
                    values[hh].gather_rows(&positions),
                ),
                LayerKv::Latent { latent } => {
                    let c = latent.gather_rows(&positions);
                    // Up-project only the selected latent rows (Fig. 5(e)).
                    (c.matmul(&lw.wk[hh]), c.matmul(&lw.wv[hh]))
                }
            };
            per_head.push((positions, k, v));
        }

        for q in 0..geom.q_heads {
            let qv = queries.row(q);
            let hh = self.kv_head_of(q);
            let (positions, keys, values) = &per_head[hh];
            let weights = ops::attention_weights(qv, keys);
            let out = ops::weighted_sum(&weights, values);
            concat[q * d..(q + 1) * d].copy_from_slice(&out);
            if record {
                rec_w.push(weights);
                rec_p.push(positions.clone());
            }
        }
        let out = lw.wo.vecmat(&concat);
        (out, rec_w, rec_p)
    }

    fn ffn(&self, lw: &LayerWeights, normed: &[f32]) -> Vec<f32> {
        let mut gate = lw.w_gate.vecmat(normed);
        ops::silu_inplace(&mut gate);
        let up = lw.w_up.vecmat(normed);
        for (g, u) in gate.iter_mut().zip(&up) {
            *g *= u;
        }
        lw.w_down.vecmat(&gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(kind: AttentionKind) -> Model {
        Model::new(SimGeometry::tiny(kind), 42)
    }

    fn seq_embeddings(model: &Model, n: usize) -> Matrix {
        let tokens: Vec<usize> = (0..n).map(|i| i % model.geometry().vocab).collect();
        model.embed_tokens(&tokens)
    }

    #[test]
    fn prefill_populates_cache_for_all_kinds() {
        for kind in [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ] {
            let m = tiny_model(kind);
            let emb = seq_embeddings(&m, 12);
            let (kv, out) = m.prefill_embeddings(&emb, PrefillMode::Exact);
            assert_eq!(kv.seq_len(), 12, "{kind}");
            assert_eq!(out.logits.len(), m.geometry().vocab);
            assert!(out.logits.iter().all(|v| v.is_finite()), "{kind}");
        }
    }

    #[test]
    fn dense_sparse_plan_matches_dense_attention() {
        // A sparse plan selecting every position must reproduce dense
        // attention bit-for-bit.
        for kind in [AttentionKind::Gqa, AttentionKind::Mla] {
            let m = tiny_model(kind);
            let emb = seq_embeddings(&m, 10);
            let (mut kv_a, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
            let mut kv_b = kv_a.clone();

            let x = emb.row(5).to_vec();
            let dense = m.decode_step(&x, 10, &mut kv_a);
            let all: Vec<usize> = (0..=10).collect();
            let plan = SparsePlan::uniform(m.geometry().layers, m.geometry().kv_heads, all);
            let sparse = m.decode_step_sparse(&x, 10, &mut kv_b, &plan);
            for (a, b) in dense.logits.iter().zip(&sparse.logits) {
                assert!((a - b).abs() < 1e-5, "{kind}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sparse_plan_changes_output_when_dropping_positions() {
        let m = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&m, 16);
        let (kv, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        let x = emb.row(3).to_vec();

        let mut kv_a = kv.clone();
        let dense = m.decode_step(&x, 16, &mut kv_a);

        let mut kv_b = kv.clone();
        let few = vec![0, 1, 16];
        let plan = SparsePlan::uniform(m.geometry().layers, m.geometry().kv_heads, few);
        let sparse = m.decode_step_sparse(&x, 16, &mut kv_b, &plan);
        let diff: f32 = dense
            .logits
            .iter()
            .zip(&sparse.logits)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "dropping most positions should perturb logits");
    }

    #[test]
    fn traced_attention_is_distribution_per_head() {
        let m = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&m, 8);
        let (mut kv, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        let x = emb.row(0).to_vec();
        let plan = SparsePlan::dense(m.geometry().layers);
        let (_, trace) = m.decode_step_traced(&x, 8, &mut kv, &mut &plan);
        assert_eq!(trace.attn.len(), m.geometry().layers);
        for layer in &trace.attn {
            assert_eq!(layer.len(), m.geometry().q_heads);
            for head in layer {
                let sum: f32 = head.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
                assert_eq!(head.len(), 9); // 8 prefill + current
            }
        }
    }

    #[test]
    fn windowed_prefill_matches_exact_for_short_sequences() {
        // When the window covers the whole sequence they must agree.
        let m = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&m, 10);
        let (_, exact) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        let (_, win) = m.prefill_embeddings(
            &emb,
            PrefillMode::Windowed {
                window: 64,
                sinks: 4,
            },
        );
        for (a, b) in exact.logits.iter().zip(&win.logits) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn windowed_prefill_diverges_for_long_sequences() {
        let m = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&m, 48);
        let (_, exact) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        let (_, win) = m.prefill_embeddings(
            &emb,
            PrefillMode::Windowed {
                window: 8,
                sinks: 2,
            },
        );
        let diff: f32 = exact
            .logits
            .iter()
            .zip(&win.logits)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn kv_cache_grows_one_entry_per_step() {
        let m = tiny_model(AttentionKind::Mqa);
        let emb = seq_embeddings(&m, 4);
        let (mut kv, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        assert_eq!(kv.seq_len(), 4);
        m.decode_step(emb.row(0), 4, &mut kv);
        assert_eq!(kv.seq_len(), 5);
    }

    #[test]
    fn plan_validation_catches_errors() {
        let plan = SparsePlan::uniform(2, 2, vec![3, 1]);
        assert!(plan.validate(10, 2).is_err(), "unsorted rejected");
        let plan = SparsePlan::uniform(2, 2, vec![1, 30]);
        assert!(plan.validate(10, 2).is_err(), "out of range rejected");
        let plan = SparsePlan::uniform(2, 2, vec![1, 3]);
        assert!(plan.validate(10, 2).is_ok());
        assert!(plan.validate(10, 3).is_err(), "head count mismatch");
    }

    #[test]
    fn rope_scale_extends_addressable_context() {
        let mut m = tiny_model(AttentionKind::Gqa);
        m.set_rope_scale(4.0);
        assert_eq!(m.rope_scale(), 4.0);
        let emb = seq_embeddings(&m, 6);
        let (_, out) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        assert!(out.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tiny_model(AttentionKind::Gqa);
        let b = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&a, 6);
        let (_, oa) = a.prefill_embeddings(&emb, PrefillMode::Exact);
        let (_, ob) = b.prefill_embeddings(&emb, PrefillMode::Exact);
        assert_eq!(oa.logits, ob.logits);
    }

    #[test]
    fn argmax_picks_maximum() {
        assert_eq!(Model::argmax_token(&[0.1, 0.9, 0.5]), 1);
    }
}
