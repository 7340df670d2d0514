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
use spec_tensor::ops::BlockAttention;
use spec_tensor::topk::{AttendScratch, ForwardScratch, SelectScratch};
use spec_tensor::{dispatch, ops, KeyBlocks, Matrix, SimRng};
use std::ops::Range;

/// How prefill attention is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillMode {
    /// Exact causal attention, O(S²). Use for short tests.
    Exact,
    /// Local window of the given width plus `sinks` initial positions
    /// (StreamingLLM-style). Only layer 0's K/V entries are those of
    /// exact mode: every deeper layer projects a hidden state that the
    /// windowed attention below it has already changed. Documented
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
///
/// [`ModelWeights`] is the public layout — one `hidden x head_dim`
/// projection per head, which is what distillation averages, the probe
/// reads and the tests' oracles multiply by. The forward passes do not
/// run on it: a layer's twelve 64 x 16 projections are twelve gemms a
/// prefill block and twelve `vecmat`s a decode step, each too small to
/// amortise its call. The model keeps a derived copy instead, built once
/// by both constructors — per layer, the heads' projections side by side
/// as one `hidden x (q_heads + 2 kv_heads) * head_dim` matrix, `Q | K |
/// V` (MLA: the queries only; its K and V come from the latent) — and
/// issues one gemm, or one `vecmat`, per layer. A product's column sums
/// the same terms in the same order whichever matrix it stands in, so
/// the copy changes no bit.
#[derive(Debug, Clone)]
pub struct Model {
    geom: SimGeometry,
    weights: ModelWeights,
    /// `fused[l]`: layer `l`'s per-head projections, side by side.
    fused: Vec<Matrix>,
    /// YaRN-style positional scale (1.0 = no extension).
    rope_scale: f32,
}

/// A layer's per-head projections as one matrix, `Q | K | V` (see
/// [`Model`]).
fn fuse_projections(geom: &SimGeometry, lw: &LayerWeights) -> Matrix {
    if geom.attention == AttentionKind::Mla {
        side_by_side(&lw.wq)
    } else {
        side_by_side(lw.wq.iter().chain(&lw.wk).chain(&lw.wv))
    }
}

/// Projections with the same input as one matrix, their columns side by
/// side in the order given: a product's column segments are the separate
/// products, bit for bit.
pub(crate) fn side_by_side<'a>(heads: impl IntoIterator<Item = &'a Matrix>) -> Matrix {
    let heads: Vec<&Matrix> = heads.into_iter().collect();
    let rows = heads.first().map_or(0, |m| m.rows());
    let cols = heads.iter().map(|m| m.cols()).sum();
    let mut fused = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for head in &heads {
            fused.extend_from_slice(head.row(r));
        }
    }
    Matrix::from_vec(rows, cols, fused)
}

impl Model {
    /// Builds a model with random weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(geom: SimGeometry, seed: u64) -> Self {
        geom.validate().expect("invalid geometry");
        let weights = ModelWeights::init(&geom, &mut SimRng::seed(seed));
        Self::from_weights(geom, weights)
    }

    /// Builds a model from explicit weights (used by distillation).
    pub fn from_weights(geom: SimGeometry, weights: ModelWeights) -> Self {
        geom.validate().expect("invalid geometry");
        let fused = weights
            .layers
            .iter()
            .map(|lw| fuse_projections(&geom, lw))
            .collect();
        Self {
            geom,
            weights,
            fused,
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

    /// Runs prefill over pre-embedded inputs, returning the populated KV
    /// cache and the last position's step output.
    ///
    /// The prompt is walked in blocks of `PREFILL_CHUNK` positions, and
    /// a block goes through the stack layer by layer: the fused `Q | K | V`
    /// projection and the FFN are one [`Matrix::matmul`] each over the
    /// block's rows, the block's K/V rows are appended to the cache from
    /// the projection's column segments, and attention is one kernel per
    /// KV head ([`ops::attend_block`], reading queries and cache in
    /// place).
    ///
    /// Two threads share a block where the process allows two, through
    /// [`dispatch::join`]: attention splits by KV head, and the row-wise
    /// work between two attentions — `wo`, the FFN, the next layer's norm,
    /// projection and RoPE — splits by block rows, one join a block and
    /// layer (`row_stretch_split`), each half
    /// with gemms of its own over weights its core's cache already holds.
    /// The caller appends the K/V rows after the join, in row order.
    ///
    /// A prefill's outputs are every layer's K/V and the final position's
    /// logits, so the last layer computes only what those read: every
    /// block still gets its projection, RoPE and K/V append, but its
    /// attention, `wo` and FFN — and then the final norm and `lm_head` —
    /// run for the prompt's final position alone, in the final block.
    ///
    /// Every float — the returned logits and hidden state, and each
    /// cached K/V (or latent) entry — has the bits that feeding the
    /// positions one at a time through [`step`](Self::step) produces
    /// (`tests/prefill_equivalence.rs` holds it to that loop): a `matmul`
    /// row is the `vecmat` of that row, `attend_block` keeps the addition
    /// order of `ops::attention_weights` / `ops::weighted_sum`, and what
    /// it computes for a row does not depend on the block's other rows.
    ///
    /// The block buffers are reused by every block and layer, reshaped
    /// only when a block's row count changes; under a window none of them
    /// is sized by the prompt.
    ///
    /// # Panics
    ///
    /// Panics if `emb` is empty or its width differs from `hidden`.
    pub fn prefill_embeddings(&self, emb: &Matrix, mode: PrefillMode) -> (ModelKv, StepOutput) {
        assert!(emb.rows() > 0, "prefill requires at least one token");
        assert_eq!(emb.cols(), self.geom.hidden, "embedding width mismatch");
        let geom = &self.geom;
        let (hidden, d) = (geom.hidden, geom.head_dim);
        // Exact causal attention is a window no prompt outgrows.
        let (window, sinks) = match mode {
            PrefillMode::Exact => (usize::MAX, 0),
            PrefillMode::Windowed { window, sinks } => (window, sinks),
        };
        let mut kv = ModelKv::empty(geom);
        // Block buffers, reused by every block and layer: the residual
        // stream, the projection block (MLA: and its latent rows), the
        // heads' attention outputs side by side, the per-position
        // rotations, attention's work space and each side's row buffers.
        let mut h: Vec<f32> = Vec::with_capacity(PREFILL_CHUNK * hidden);
        let mut proj = Matrix::default();
        let mut latent_rows = Matrix::default();
        let mut concat = Matrix::default();
        let mut rope = Vec::with_capacity(PREFILL_CHUNK);
        let mut work = AttendWork {
            halves: [AttendHalf::new(d), AttendHalf::new(d)],
            latent: Vec::new(),
            spare: Vec::new(),
        };
        let mut sides = [RowWork::default(), RowWork::default()];
        let proj_width = self.fused[0].cols();
        let latent_width = self.weights.layers[0]
            .w_down_latent
            .as_ref()
            .map_or(0, Matrix::cols);
        for b0 in (0..emb.rows()).step_by(PREFILL_CHUNK) {
            let b1 = (b0 + PREFILL_CHUNK).min(emb.rows());
            let rows = b1 - b0;
            h.clear();
            h.extend_from_slice(&emb.as_slice()[b0 * hidden..b1 * hidden]);
            fit_rows(&mut proj, rows, proj_width);
            fit_rows(&mut latent_rows, rows, latent_width);
            fit_rows(&mut concat, rows, geom.q_heads * d);
            rope.clear();
            rope.extend(
                (b0..b1).map(|pos| ops::rope_table(d, pos, geom.rope_base, self.rope_scale)),
            );
            let first = BlockRows {
                h: &mut h,
                attn: &[],
                rope: &rope,
                proj: proj.as_mut_slice(),
                latent: latent_rows.as_mut_slice(),
            };
            self.row_stretch_split(None, 0, first, &mut sides);
            for (l, (lw, layer)) in self.weights.layers.iter().zip(&mut kv.layers).enumerate() {
                match layer {
                    LayerKv::PerHead { keys, values } => {
                        for (hh, (keys, values)) in keys.iter_mut().zip(values).enumerate() {
                            let k = (geom.q_heads + hh) * d;
                            let v = k + geom.kv_heads * d;
                            keys.push_cols(&proj, k..k + d);
                            values.push_cols(&proj, v..v + d);
                        }
                    }
                    LayerKv::Latent { latent } => latent.push_rows(&latent_rows),
                }
                let reach = (window, sinks);
                if l + 1 < geom.layers {
                    let out = &mut concat;
                    self.attend_block(lw, layer, &proj, (b0, 0..rows), reach, &mut work, out);
                    let next = BlockRows {
                        h: &mut h,
                        attn: concat.as_slice(),
                        rope: &rope,
                        proj: proj.as_mut_slice(),
                        latent: latent_rows.as_mut_slice(),
                    };
                    self.row_stretch_split(Some(lw), l + 1, next, &mut sides);
                } else if b1 == emb.rows() {
                    // The prompt's final row of the last layer is the only
                    // one the logits read: its attention, `wo` and FFN run
                    // for that row alone, on the residual shrunk to it.
                    // Earlier blocks stop at the last layer's K/V append.
                    h.drain(..(rows - 1) * hidden);
                    fit_rows(&mut concat, 1, geom.q_heads * d);
                    let (live, out) = (rows - 1..rows, &mut concat);
                    self.attend_block(lw, layer, &proj, (b0, live), reach, &mut work, out);
                    let last = BlockRows {
                        h: &mut h,
                        attn: concat.as_slice(),
                        rope: &[],
                        proj: &mut [],
                        latent: &mut [],
                    };
                    self.row_stretch(Some(lw), None, last, &mut sides[0]);
                }
            }
        }
        let hidden = ops::rmsnorm(&h[h.len() - hidden..], &self.weights.norm_final, 1e-6);
        let logits = self.weights.lm_head.vecmat(&hidden);
        (kv, StepOutput { logits, hidden })
    }

    /// [`row_stretch`](Self::row_stretch) over a block's rows, split in
    /// two: rows `[0, half)` on the caller and `[half, rows)` through
    /// [`dispatch::join`], which may run them on the helper thread. Each
    /// side reads and writes only its own rows, and what a row gets does
    /// not depend on the others (see [`BlockRows`]), so the split moves no
    /// bit. A block under [`SPLIT_MIN_ROWS`] rows runs on the caller.
    fn row_stretch_split(
        &self,
        post: Option<&LayerWeights>,
        next: usize,
        block: BlockRows<'_>,
        [first, second]: &mut [RowWork; 2],
    ) {
        let rows = block.h.len() / self.geom.hidden;
        if rows < SPLIT_MIN_ROWS {
            return self.row_stretch(post, Some(next), block, first);
        }
        let (low, high) = block.split_at(rows, rows / 2);
        dispatch::join(
            || self.row_stretch(post, Some(next), high, second),
            || self.row_stretch(post, Some(next), low, first),
        );
    }

    /// The prefill's row-wise work from one layer's attention output to
    /// the next layer's attention input, for the rows `block` holds.
    /// `post` (the layer whose attention output is `block.attn`): `wo` and
    /// the residual, `norm_ffn`, the SiLU-gated FFN and the residual.
    /// `next` (a layer index): its `norm_attn` and fused `Q | K | V`
    /// projection into `block.proj`, queries and keys rotated (MLA: the
    /// queries unrotated, and the latent down-projection into
    /// `block.latent`).
    fn row_stretch(
        &self,
        post: Option<&LayerWeights>,
        next: Option<usize>,
        block: BlockRows<'_>,
        work: &mut RowWork,
    ) {
        let hidden = self.geom.hidden;
        let rows = block.h.len() / hidden;
        let RowWork { attn, normed } = work;
        fit_rows(normed, rows, hidden);
        let h = block.h;
        if let Some(lw) = post {
            fit_rows(attn, rows, block.attn.len() / rows);
            attn.as_mut_slice().copy_from_slice(block.attn);
            add_assign(h, attn.matmul(&lw.wo).as_slice());
            rmsnorm_rows(normed, h, &lw.norm_ffn);
            let mut gate = normed.matmul(&lw.w_gate);
            ops::silu_inplace(gate.as_mut_slice());
            let up = normed.matmul(&lw.w_up);
            for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                *g *= u;
            }
            add_assign(h, gate.matmul(&lw.w_down).as_slice());
        }
        let Some(l) = next else { return };
        let (lw, fused) = (&self.weights.layers[l], &self.fused[l]);
        rmsnorm_rows(normed, h, &lw.norm_attn);
        block.proj.copy_from_slice(normed.matmul(fused).as_slice());
        match &lw.w_down_latent {
            Some(down) => block.latent.copy_from_slice(normed.matmul(down).as_slice()),
            None => {
                // Queries and keys are the leading segments.
                let d = self.geom.head_dim;
                let roped = (self.geom.q_heads + self.geom.kv_heads) * d;
                for (row, table) in block.proj.chunks_exact_mut(fused.cols()).zip(block.rope) {
                    for head in row[..roped].chunks_exact_mut(d) {
                        ops::rope_apply(head, table);
                    }
                }
            }
        }
    }

    /// Prefill attention of one layer for rows `rows` of the block of
    /// positions starting at `b0` — row `r` reads row `r` of `proj` (whose
    /// leading columns are the heads' queries) in place and writes row
    /// `r - rows.start` of `out` — whose K/V rows `layer` already holds.
    /// Position `pos` attends cache rows `[0, min(sinks, lo))` and
    /// `[lo, pos]`, `lo = pos - window` clamped at 0.
    ///
    /// The KV heads split in two halves, each with its own work space, and
    /// [`dispatch::join`] may run the second on the helper thread. The
    /// first writes its columns of `out` in place; the second writes a
    /// block of its own, copied into its columns afterwards.
    #[allow(clippy::too_many_arguments)]
    fn attend_block(
        &self,
        lw: &LayerWeights,
        layer: &LayerKv,
        proj: &Matrix,
        (b0, rows): (usize, Range<usize>),
        (window, sinks): (usize, usize),
        work: &mut AttendWork,
        out: &mut Matrix,
    ) {
        let kv_heads = self.geom.kv_heads;
        let width = self.geom.group_size() * self.geom.head_dim;
        let out_stride = out.cols();
        assert_eq!(out.rows(), rows.len(), "one output row a block row");
        let start = b0 + rows.start;
        let queries = &proj.as_slice()[rows.start * proj.cols()..];
        let AttendWork {
            halves: [first, second],
            latent,
            spare,
        } = work;
        // The latent rows the block attends between them — the sinks
        // below every window, then everything from the first window's
        // start — which MLA up-projects per head for the whole block
        // (Fig. 5(e)); the other families attend their cache in place.
        let lo0 = start.saturating_sub(window);
        let kept = sinks.min(lo0);
        let c = match layer {
            LayerKv::PerHead { .. } => None,
            LayerKv::Latent { latent: cache } => {
                let latent_width = cache.cols();
                let mut c = std::mem::take(latent);
                c.clear();
                c.extend_from_slice(&cache.as_slice()[..kept * latent_width]);
                c.extend_from_slice(&cache.as_slice()[lo0 * latent_width..]);
                Some(Matrix::from_vec(c.len() / latent_width, latent_width, c))
            }
        };
        // KV heads `heads` into `out`, a row every `out_stride` floats,
        // the first head's columns first.
        let attend = |heads: Range<usize>, half: &mut AttendHalf, out: &mut [f32], out_stride| {
            for hh in heads.clone() {
                let up;
                let (keys, values, cut) = match (layer, &c) {
                    (LayerKv::PerHead { keys, values }, _) => (&keys[hh], &values[hh], 0),
                    (LayerKv::Latent { .. }, c) => {
                        let c = c.as_ref().expect("built above");
                        up = (c.matmul(&lw.wk[hh]), c.matmul(&lw.wv[hh]));
                        (&up.0, &up.1, lo0 - kept)
                    }
                };
                let block = BlockAttention {
                    queries: &queries[hh * width..],
                    q_stride: proj.cols(),
                    heads: self.geom.group_size(),
                    keys,
                    values,
                    cut,
                    start,
                    rows: rows.len(),
                    window,
                    sinks,
                };
                let out = &mut out[(hh - heads.start) * width..];
                ops::attend_block(&block, &mut half.span, &mut half.scores, out, out_stride);
            }
        };
        let mid = kv_heads.div_ceil(2);
        if mid == kv_heads {
            attend(0..kv_heads, first, out.as_mut_slice(), out_stride);
        } else {
            let spare_stride = (kv_heads - mid) * width;
            // Sized, not refilled: the kernel writes every element.
            spare.resize(rows.len() * spare_stride, 0.0);
            dispatch::join(
                || attend(mid..kv_heads, second, spare, spare_stride),
                || attend(0..mid, first, out.as_mut_slice(), out_stride),
            );
            let rows = out.as_mut_slice().chunks_exact_mut(out_stride);
            for (row, theirs) in rows.zip(spare.chunks_exact(spare_stride)) {
                row[mid * width..].copy_from_slice(theirs);
            }
        }
        if let Some(c) = c {
            *latent = c.into_vec();
        }
    }

    /// Token-level prefill convenience wrapper.
    pub fn prefill_tokens(&self, tokens: &[usize], mode: PrefillMode) -> (ModelKv, StepOutput) {
        let emb = self.embed_tokens(tokens);
        self.prefill_embeddings(&emb, mode)
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
    /// `scratch` is the decode loop's workspace: handed to every `select`
    /// call (the zero-allocation hot path), and the home of the step's own
    /// buffers ([`ForwardScratch`]), so a loop that keeps its scratch
    /// allocates per step only what the step returns and what the
    /// selector does. With `trace`, each layer's post-softmax attention
    /// and attended positions are pushed onto it; recording never changes
    /// the output.
    ///
    /// # Panics
    ///
    /// Panics if the selector lists a position the cache does not hold
    /// and, in debug builds, if a list is not strictly ascending (the
    /// [`LayerSelector`] contract, [`SparsePlan::validate`]'s rule).
    pub fn step(
        &self,
        x: &[f32],
        pos: usize,
        kv: &mut ModelKv,
        selector: &mut dyn LayerSelector,
        scratch: &mut SelectScratch,
        mut trace: Option<&mut StepTrace>,
    ) -> StepOutput {
        let geom = &self.geom;
        // The selector is handed the whole scratch at every layer, so the
        // step's own buffers leave it until the step is over.
        let mut fw = std::mem::take(&mut scratch.forward);
        fw.residual.clear();
        fw.residual.extend_from_slice(x);
        if fw.queries.shape() != (geom.q_heads, geom.head_dim) {
            fw.queries = Matrix::zeros(geom.q_heads, geom.head_dim);
        }
        // One rotation table for the whole stack: the angles depend on the
        // position only, not on the layer or the head.
        ops::rope_table_into(
            &mut fw.rope,
            geom.head_dim,
            pos,
            geom.rope_base,
            self.rope_scale,
        );
        fw.concat.resize(geom.q_heads * geom.head_dim, 0.0);
        fw.block_out.resize(geom.hidden, 0.0);
        fw.gate.resize(geom.ffn_dim, 0.0);
        fw.up.resize(geom.ffn_dim, 0.0);
        for (l, lw) in self.weights.layers.iter().enumerate() {
            ops::rmsnorm_into(&mut fw.normed, &fw.residual, &lw.norm_attn, 1e-6);
            // Append this position's K/V and compute this layer's queries
            // (post-RoPE), then consult the selector — the layer-wise
            // retrieval point of Fig. 2(a).
            self.project(l, &mut kv.layers[l], &mut fw);
            let selection = selector.select(l, &fw.queries, &kv.layers[l], scratch);
            let layer = &kv.layers[l];
            self.attention(lw, pos, layer, selection, &mut fw, trace.as_deref_mut());
            lw.wo.vecmat_into(&fw.concat, &mut fw.block_out);
            add_assign(&mut fw.residual, &fw.block_out);
            ops::rmsnorm_into(&mut fw.normed, &fw.residual, &lw.norm_ffn, 1e-6);
            lw.w_gate.vecmat_into(&fw.normed, &mut fw.gate);
            ops::silu_inplace(&mut fw.gate);
            lw.w_up.vecmat_into(&fw.normed, &mut fw.up);
            for (g, u) in fw.gate.iter_mut().zip(&fw.up) {
                *g *= u;
            }
            lw.w_down.vecmat_into(&fw.gate, &mut fw.block_out);
            add_assign(&mut fw.residual, &fw.block_out);
        }
        let hidden = ops::rmsnorm(&fw.residual, &self.weights.norm_final, 1e-6);
        let logits = self.weights.lm_head.vecmat(&hidden);
        scratch.forward = fw;
        StepOutput { logits, hidden }
    }

    /// Layer `l`'s projections of `fw.normed`, one `vecmat` over the fused
    /// matrix: this position's K/V rows (post-RoPE keys) are appended to
    /// the layer's cache and the per-head queries (post-RoPE) land in the
    /// rows of `fw.queries`. MLA appends its latent row and projects the
    /// queries, which it does not rotate, straight into place.
    fn project(&self, l: usize, layer: &mut LayerKv, fw: &mut ForwardScratch) {
        let (fused, d) = (&self.fused[l], self.geom.head_dim);
        let ForwardScratch {
            normed,
            rope,
            proj,
            queries,
            ..
        } = fw;
        match layer {
            LayerKv::PerHead { keys, values } => {
                proj.resize(fused.cols(), 0.0);
                fused.vecmat_into(normed, proj);
                let (q, kv) = proj.split_at_mut(queries.len());
                let (k, v) = kv.split_at_mut(keys.len() * d);
                for head in q.chunks_exact_mut(d).chain(k.chunks_exact_mut(d)) {
                    ops::rope_apply(head, rope);
                }
                queries.as_mut_slice().copy_from_slice(q);
                let rows = k.chunks_exact(d).zip(v.chunks_exact(d));
                for ((keys, values), (k, v)) in keys.iter_mut().zip(values).zip(rows) {
                    keys.push_row(k);
                    values.push_row(v);
                }
            }
            LayerKv::Latent { latent } => {
                let down = self.weights.layers[l].w_down_latent.as_ref();
                let down = down.expect("MLA weights");
                proj.resize(down.cols(), 0.0);
                down.vecmat_into(normed, proj);
                latent.push_row(proj);
                fused.vecmat_into(normed, queries.as_mut_slice());
            }
        }
    }

    /// Attention for one step: the heads' outputs side by side into
    /// `fw.concat`, from `fw.queries`. One path for sparse, dense and
    /// traced: per KV head, the attended positions (the selector's list
    /// plus `pos`, or every cached position) go into a reused list, and
    /// three kernels read the cache **in place** through it — the group's
    /// scores ([`ops::indexed_dots`]), one softmax call for the group's
    /// rows, and the value pass ([`ops::indexed_weighted_sums`]). Per head
    /// that is `ops::attention_weights` then `ops::weighted_sum` over the
    /// gathered rows, bit for bit. With `trace`, the weight rows and the
    /// list are copied out per query head.
    ///
    /// The KV heads split in two halves, each with its own
    /// `fw.attend` work space and its own span of `fw.concat`, and
    /// [`dispatch::join`] may run the second half on the helper thread.
    /// The halves write nothing in common, so the split moves no bit; the
    /// second half's trace entries are appended after the first's.
    fn attention(
        &self,
        lw: &LayerWeights,
        pos: usize,
        layer: &LayerKv,
        selection: Option<Vec<Vec<usize>>>,
        fw: &mut ForwardScratch,
        trace: Option<&mut StepTrace>,
    ) {
        let (d, group, kv_heads) = (
            self.geom.head_dim,
            self.geom.group_size(),
            self.geom.kv_heads,
        );
        let scale = 1.0 / (d as f32).sqrt();
        let seq_len = layer.seq_len();
        let ForwardScratch {
            queries,
            attend: [first, second],
            concat,
            ..
        } = fw;
        // This layer's entry of the trace, filled head by head.
        let mut recorded = trace.map(|t| {
            t.attn.push(Vec::new());
            t.positions.push(Vec::new());
            let entry = "pushed above";
            (
                t.attn.last_mut().expect(entry),
                t.positions.last_mut().expect(entry),
            )
        });
        // KV heads `heads` into `out`, their span of the concatenation.
        let half = |heads: Range<usize>,
                    work: &mut AttendScratch,
                    out: &mut [f32],
                    mut recorded: Option<LayerRecord<'_>>| {
            let AttendScratch {
                positions,
                scores,
                tile,
            } = work;
            if selection.is_none() {
                positions.clear();
                positions.extend(0..seq_len);
            }
            for hh in heads.clone() {
                if let Some(heads) = &selection {
                    positions.clear();
                    positions.extend_from_slice(&heads[hh]);
                    // The search below trusts the order; that the
                    // positions are cached is the kernels' check, in every
                    // build.
                    debug_assert!(
                        positions.windows(2).all(|w| w[0] < w[1]),
                        "layer selection for KV head {hh} is not strictly ascending"
                    );
                    // The current position must always be attended; every
                    // cached position is below it, so the list stays
                    // sorted.
                    if positions.binary_search(&pos).is_err() && pos < seq_len {
                        positions.push(pos);
                    }
                }
                let len = positions.len();
                // MLA up-projects only the attended latent rows (Fig.
                // 5(e)) and attends all of what that gives; the other
                // families attend the listed rows of the cache itself.
                let up;
                let (keys, values, rows): (&Matrix, &Matrix, &[usize]) = match layer {
                    LayerKv::PerHead { keys, values } => (&keys[hh], &values[hh], positions),
                    LayerKv::Latent { latent } => {
                        let c = latent.gather_rows(positions);
                        let all: Vec<usize> = (0..len).collect();
                        up = (c.matmul(&lw.wk[hh]), c.matmul(&lw.wv[hh]), all);
                        (&up.0, &up.1, &up.2)
                    }
                };
                let at = (hh - heads.start) * group * d;
                let span = &queries.as_slice()[hh * group * d..][..group * d];
                // Sized, not refilled: the scores kernel writes every
                // element.
                scores.resize(group * len, 0.0);
                ops::indexed_dots(span, keys, rows, tile, scores);
                ops::softmax_rows_inplace(scores, len, scale);
                ops::indexed_weighted_sums(scores, values, rows, &mut out[at..at + group * d]);
                if let Some((weights, attended)) = &mut recorded {
                    for q in 0..group {
                        weights.push(scores[q * len..(q + 1) * len].to_vec());
                        attended.push(positions.clone());
                    }
                }
            }
        };
        let mid = kv_heads.div_ceil(2);
        // A second half (none under MQA) records into lists of its own.
        let mut theirs = (mid < kv_heads && recorded.is_some()).then(|| (Vec::new(), Vec::new()));
        let mine = recorded.as_mut().map(|(w, p)| (&mut **w, &mut **p));
        if mid == kv_heads {
            half(0..kv_heads, first, concat, mine);
            return;
        }
        let (low, high) = concat.split_at_mut(mid * group * d);
        let record = theirs.as_mut().map(|(w, p)| (w, p));
        dispatch::join(
            || half(mid..kv_heads, second, high, record),
            || half(0..mid, first, low, mine),
        );
        if let (Some((weights, attended)), Some((w, p))) = (recorded, theirs) {
            weights.extend(w);
            attended.extend(p);
        }
    }
}

/// One layer's trace entry being filled: its weight rows and their
/// attended positions, a query head each.
type LayerRecord<'a> = (&'a mut Vec<Vec<f32>>, &'a mut Vec<Vec<usize>>);

/// Positions per prefill block. A 4096-token prefill measured flat within
/// noise from 32 to 512 (64 and 128 read best); at 64 the block buffers
/// stay under 150 KB.
const PREFILL_CHUNK: usize = 64;

/// Block rows below which [`Model::row_stretch_split`] runs on the caller
/// alone: a side of a few rows is too little work for a hand-off.
const SPLIT_MIN_ROWS: usize = 8;

/// Some rows of a prefill block, in every buffer the row-wise stretch
/// touches: the residual stream, the attention output (read), the
/// per-position rotations, the projection block and (MLA) its latent rows.
/// The stretch's every step — the norms, the gemms (a `matmul` row is the
/// `vecmat` of that row on every dispatch path), RoPE, SiLU and the
/// residual adds — is per row, so rows taken apart get the bits they get
/// together.
struct BlockRows<'a> {
    h: &'a mut [f32],
    attn: &'a [f32],
    rope: &'a [Vec<(f32, f32)>],
    proj: &'a mut [f32],
    latent: &'a mut [f32],
}

impl<'a> BlockRows<'a> {
    /// Rows `[0, at)` and `[at, rows)` of these `rows` rows.
    fn split_at(self, rows: usize, at: usize) -> (Self, Self) {
        let (h, h2) = self.h.split_at_mut(at * (self.h.len() / rows));
        let (attn, attn2) = self.attn.split_at(at * (self.attn.len() / rows));
        let (rope, rope2) = self.rope.split_at(at);
        let (proj, proj2) = self.proj.split_at_mut(at * (self.proj.len() / rows));
        let (latent, latent2) = self.latent.split_at_mut(at * (self.latent.len() / rows));
        (
            Self {
                h,
                attn,
                rope,
                proj,
                latent,
            },
            Self {
                h: h2,
                attn: attn2,
                rope: rope2,
                proj: proj2,
                latent: latent2,
            },
        )
    }
}

/// One side's buffers for the row-wise stretch: its rows of the attention
/// output, as the `wo` gemm's operand, and their normalization.
#[derive(Default)]
struct RowWork {
    attn: Matrix,
    normed: Matrix,
}

/// Makes `m` a `rows x cols` matrix, keeping it (and its contents) when it
/// already is one.
fn fit_rows(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        *m = Matrix::zeros(rows, cols);
    }
}

/// `out.row(i) = rmsnorm(row i of xs)` for a flat row-major `xs`.
fn rmsnorm_rows(out: &mut Matrix, xs: &[f32], weight: &[f32]) {
    let rows = out.as_mut_slice().chunks_exact_mut(weight.len());
    for (row, x) in rows.zip(xs.chunks_exact(weight.len())) {
        ops::rmsnorm_slice(row, x, weight, 1e-6);
    }
}

/// Attention's work space across a prefill's blocks: for each half of the
/// KV heads, one KV head's staged key span and a query group's score
/// rows; (MLA) the latent rows a block attends; and the second half's
/// output block.
struct AttendWork {
    halves: [AttendHalf; 2],
    latent: Vec<f32>,
    spare: Vec<f32>,
}

/// One half's share of [`AttendWork`].
struct AttendHalf {
    span: KeyBlocks,
    scores: Vec<f32>,
}

impl AttendHalf {
    fn new(head_dim: usize) -> Self {
        Self {
            span: KeyBlocks::new(head_dim),
            scores: Vec::new(),
        }
    }
}

fn add_assign(acc: &mut [f32], xs: &[f32]) {
    for (a, x) in acc.iter_mut().zip(xs) {
        *a += x;
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

    /// The forward passes multiply by the fused copy, the rest of the
    /// workspace reads `weights()`: for every family, from either
    /// constructor (`from_weights` through a distilled DLM), a fused
    /// product's column segments are the per-head products, bit for bit.
    #[test]
    fn fused_projection_is_the_per_head_projections_side_by_side() {
        use crate::dlm::{DistillOptions, Dlm};
        let mut rng = SimRng::seed(0xF05E);
        for kind in [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ] {
            let teacher = tiny_model(kind);
            let dlm = Dlm::distill(&teacher, DistillOptions::default());
            for model in [&teacher, dlm.model()] {
                let geom = model.geometry();
                assert_eq!(model.fused.len(), geom.layers);
                for (lw, fused) in model.weights().layers.iter().zip(&model.fused) {
                    let heads: Vec<&Matrix> = if geom.attention == AttentionKind::Mla {
                        lw.wq.iter().collect()
                    } else {
                        lw.wq.iter().chain(&lw.wk).chain(&lw.wv).collect()
                    };
                    assert_eq!(fused.shape(), (geom.hidden, heads.len() * geom.head_dim));
                    for _ in 0..4 {
                        let x = rng.normal_vec(geom.hidden, 1.0);
                        let got = fused.vecmat(&x);
                        let want: Vec<f32> = heads.iter().flat_map(|w| w.vecmat(&x)).collect();
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{kind}");
                    }
                }
            }
        }
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
    fn windowed_prefill_shares_only_layer_zero_kv_with_exact() {
        // Layer 0 projects the embeddings, whatever the attention mode; a
        // window shorter than the prompt changes what every later layer
        // projects.
        let m = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&m, 48);
        let (exact, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        let (win, _) = m.prefill_embeddings(
            &emb,
            PrefillMode::Windowed {
                window: 8,
                sinks: 2,
            },
        );
        let bits = |layer: &LayerKv| match layer {
            LayerKv::PerHead { keys, values } => keys
                .iter()
                .chain(values)
                .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<u32>>(),
            LayerKv::Latent { .. } => unreachable!("GQA stores per-head KV"),
        };
        assert_eq!(bits(&exact.layers[0]), bits(&win.layers[0]));
        let last = m.geometry().layers - 1;
        assert_ne!(bits(&exact.layers[last]), bits(&win.layers[last]));
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

    /// One traced step at `pos = 10` over a 10-token GQA prefill, every
    /// layer and KV head handed `list`.
    fn step_under(list: Vec<usize>) -> (StepOutput, StepTrace) {
        let m = tiny_model(AttentionKind::Gqa);
        let emb = seq_embeddings(&m, 10);
        let (mut kv, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
        let plan = SparsePlan::uniform(m.geometry().layers, m.geometry().kv_heads, list);
        m.decode_step_traced(emb.row(5), 10, &mut kv, &mut &plan)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_selection_is_rejected_in_debug_builds() {
        // The binary search for `pos` misses it in an unsorted list; left
        // unchecked, it would be appended and attended twice.
        step_under(vec![10, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_selection_is_rejected_in_every_build() {
        step_under(vec![1, 30]);
    }

    #[test]
    fn current_position_is_attended_once_whether_listed_or_not() {
        let (listed, listed_trace) = step_under(vec![0, 4, 10]);
        let (implied, implied_trace) = step_under(vec![0, 4]);
        assert_eq!(listed.logits, implied.logits);
        assert_eq!(listed_trace.positions, implied_trace.positions);
        for head in listed_trace.positions.iter().flatten() {
            assert_eq!(head, &[0, 4, 10]);
        }
    }

    #[test]
    fn empty_selection_attends_the_current_position_alone() {
        let (out, trace) = step_under(Vec::new());
        assert!(out.logits.iter().all(|v| v.is_finite()));
        for (positions, weights) in trace
            .positions
            .iter()
            .flatten()
            .zip(trace.attn.iter().flatten())
        {
            assert_eq!(positions, &[10]);
            assert_eq!(weights, &[1.0]);
        }
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
