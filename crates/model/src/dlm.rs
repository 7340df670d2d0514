//! Distilled language model (DLM) and the lightweight retrieval head.
//!
//! The paper adopts the EAGLE-3 recipe: a one-layer LM distilled from the
//! teacher, run *before* the LLM to predict which context tokens matter.
//! Section 4 then prunes the DLM down to its embedding and QK projections
//! (the **retrieval head**), a >90% reduction of non-embedding parameters,
//! because only attention *weights* are needed for retrieval.
//!
//! Our distillation is performed, not asserted: per query head we build the
//! teacher's layer-averaged query-key bilinear form and factor it to rank
//! `head_dim` by orthogonal (subspace) iteration — the closed-form optimum
//! of the attention-logit matching objective on whitened inputs. A noise
//! knob degrades fidelity so experiments can sweep alignment quality.

use crate::config::{AttentionKind, SimGeometry};
use crate::transformer::{side_by_side, Model};
use crate::weights::{LayerWeights, ModelWeights};
use spec_tensor::topk::ForwardScratch;
use spec_tensor::{ops, Matrix, QuantKeyBlocks, SimRng};

/// Options controlling distillation fidelity.
#[derive(Debug, Clone, Copy)]
pub struct DistillOptions {
    /// Relative Gaussian noise added to the fitted projections
    /// (0.0 = best achievable alignment, 1.0 = mostly noise).
    pub noise: f32,
}

impl Default for DistillOptions {
    fn default() -> Self {
        Self { noise: 0.05 }
    }
}

/// Subspace-iteration rounds for the rank factorization.
const DISTILL_ITERS: usize = 6;

/// RNG seed of the DLM's initial weights and of the distillation noise.
const DISTILL_SEED: u64 = 0xD15711;

/// The distilled LM: a complete one-layer LM (embedding, decoder layer,
/// LM head) in the teacher's hidden space.
#[derive(Debug, Clone)]
pub struct Dlm {
    model: Model,
}

impl Dlm {
    /// Distills a one-layer LM from the teacher.
    pub fn distill(teacher: &Model, options: DistillOptions) -> Self {
        let mut geom = *teacher.geometry();
        geom.layers = 1;
        // The DLM always uses MHA internally: one KV head per query head,
        // so its attention weights expose a full head-level signal that the
        // mapping stage can reduce per the teacher's grouping.
        geom.attention = AttentionKind::Mha;
        geom.kv_heads = geom.q_heads;
        geom.mla_latent = 0;

        let mut rng = SimRng::seed(DISTILL_SEED);
        let mut weights = ModelWeights::init(&geom, &mut rng.fork(1));
        // Share the teacher's embedding (EAGLE reuses the base embedding).
        weights.embedding = teacher.weights().embedding.clone();
        weights.norm_final = teacher.weights().norm_final.clone();
        weights.lm_head = teacher.weights().lm_head.clone();

        let layer = Self::fit_layer(teacher, &geom, options, &mut rng);
        weights.layers = vec![layer];

        Self {
            model: Model::from_weights(geom, weights),
        }
    }

    /// Fits the single decoder layer: QK by bilinear-form factorization,
    /// V/O/FFN by layer averaging (they are pruned away in the retrieval
    /// head but keep the DLM a complete LM).
    fn fit_layer(
        teacher: &Model,
        geom: &SimGeometry,
        options: DistillOptions,
        rng: &mut SimRng,
    ) -> LayerWeights {
        let tg = teacher.geometry();
        let h = tg.hidden;
        let d = tg.head_dim;
        // QK will be overwritten by the fit; the proto only seeds V/O/FFN,
        // so no semantic channel is imprinted here.
        let mut proto = LayerWeights::init(geom, &mut rng.fork(2), None);

        for q in 0..tg.q_heads {
            // Teacher's layer-averaged bilinear form for this query head.
            let mut m = Matrix::zeros(h, h);
            for lw in &teacher.weights().layers {
                let kvh = q / tg.group_size();
                let k_eff = match tg.attention {
                    AttentionKind::Mla => lw
                        .w_down_latent
                        .as_ref()
                        .expect("MLA weights")
                        .matmul(&lw.wk[kvh]),
                    _ => lw.wk[kvh].clone(),
                };
                m = m.add(&lw.wq[q].matmul(&k_eff.transposed()));
            }
            m.scale(1.0 / tg.layers as f32);

            let (mut a, mut b) = factor_rank_d(&m, d, DISTILL_ITERS, &mut rng.fork(10 + q as u64));
            if options.noise > 0.0 {
                perturb(&mut a, options.noise, &mut rng.fork(100 + q as u64));
                perturb(&mut b, options.noise, &mut rng.fork(200 + q as u64));
            }
            proto.wq[q] = a;
            proto.wk[q] = b;
        }

        // V/O/FFN: average the teacher layers (adequate for a draft LM;
        // irrelevant to retrieval, which uses QK only).
        let avg = |f: &dyn Fn(&LayerWeights) -> &Matrix| -> Matrix {
            let mut acc = f(&teacher.weights().layers[0]).clone();
            for lw in &teacher.weights().layers[1..] {
                acc = acc.add(f(lw));
            }
            acc.scale(1.0 / tg.layers as f32);
            acc
        };
        for v in 0..geom.kv_heads {
            let src = v % tg.kv_heads;
            proto.wv[v] = match tg.attention {
                // MLA teachers store V as latent->d; the DLM works in
                // hidden space, so compose with the down-projection.
                AttentionKind::Mla => {
                    let mut acc: Option<Matrix> = None;
                    for lw in &teacher.weights().layers {
                        let composed = lw
                            .w_down_latent
                            .as_ref()
                            .expect("MLA weights")
                            .matmul(&lw.wv[src]);
                        acc = Some(match acc {
                            None => composed,
                            Some(a) => a.add(&composed),
                        });
                    }
                    let mut a = acc.expect("teacher has layers");
                    a.scale(1.0 / tg.layers as f32);
                    a
                }
                _ => avg(&|lw| &lw.wv[src]),
            };
        }
        proto.wo = avg(&|lw| &lw.wo);
        proto.w_gate = avg(&|lw| &lw.w_gate);
        proto.w_up = avg(&|lw| &lw.w_up);
        proto.w_down = avg(&|lw| &lw.w_down);
        proto.w_down_latent = None;
        proto
    }

    /// The underlying one-layer model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Non-embedding parameter count (decoder layer + LM head), the
    /// quantity the paper's ">90% reduction" refers to.
    pub fn param_count_non_embedding(&self) -> usize {
        let w = self.model.weights();
        w.param_count() - w.embedding.len()
    }

    /// Prunes the DLM to the retrieval head: embedding + QK projections.
    pub fn to_retrieval_head(&self) -> RetrievalHead {
        let w = self.model.weights();
        let layer = &w.layers[0];
        RetrievalHead {
            geom: *self.model.geometry(),
            embedding: w.embedding.clone(),
            wq: side_by_side(&layer.wq),
            wk: side_by_side(&layer.wk),
            norm_attn: layer.norm_attn.clone(),
        }
    }
}

/// The pruned retrieval head: embedding + QK projections only.
///
/// During inference it maintains a full Key cache (keys only, int8 — no
/// values, no FFN, no LM head) and produces head-level attention weights
/// that the selection mapping (in `spec-retrieval`) converts to KV
/// indices.
///
/// Each projection is stored once, as one `hidden x q_heads * head_dim`
/// matrix with the heads' columns side by side (head `h` is columns
/// `h * head_dim..`), so a token's keys, or its queries, are one
/// `vecmat`: a head's own `hidden x head_dim` product is a single
/// `hidden`-deep dependent add chain per lane, latency-bound, where the
/// eight heads side by side keep the vector ports busy. A column sums the
/// same terms in the same order whichever matrix it stands in, so every
/// key and query has the per-head products' bits.
///
/// Scoring is content-only: the fitted projections live in an SVD basis
/// where the teacher's RoPE pairing does not apply, so queries and keys
/// are not rotated.
#[derive(Debug, Clone)]
pub struct RetrievalHead {
    geom: SimGeometry,
    embedding: Matrix,
    wq: Matrix,
    wk: Matrix,
    norm_attn: Vec<f32>,
}

/// Incremental key-cache state for the retrieval head: one int8
/// position-blocked key cache per head ([`QuantKeyBlocks`]: keys only,
/// stored once, quantized as they are appended — `head_dim` level bytes
/// and one `f32` scale a position — in the layout that scores with its
/// lanes across positions). The head only ranks what it scores, and the
/// sweep over every cached key is the largest stream of a decode step, so
/// the keys are kept at a quarter of their `f32` size; there is no `f32`
/// copy.
#[derive(Debug, Clone, Default)]
pub struct RetrievalHeadState {
    keys: Vec<QuantKeyBlocks>,
    /// [`RetrievalHead::append`]'s buffers, refilled by every call: the
    /// normalized embedding and the heads' key rows side by side.
    normed: Vec<f32>,
    key: Vec<f32>,
}

impl RetrievalHeadState {
    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.keys.first().map_or(0, QuantKeyBlocks::len)
    }

    /// Head `h`'s int8 key cache.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not a head.
    pub fn keys(&self, h: usize) -> &QuantKeyBlocks {
        &self.keys[h]
    }

    /// True when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Head `h`'s attention weights for its `query` (a row of
    /// [`RetrievalHead::queries_into`]) over every cached position —
    /// `softmax(q K^T / sqrt(dim))` over the quantized keys — into `out`,
    /// whose capacity is reused: the selection mapping passes its score
    /// arena's buffers.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not a head or `query` has the wrong length.
    pub fn scores_into(&self, h: usize, query: &[f32], out: &mut Vec<f32>) {
        self.keys[h].dots_into(query, out);
        let scale = 1.0 / (query.len() as f32).sqrt();
        ops::softmax_rows_inplace(out, self.len(), scale);
    }
}

impl RetrievalHead {
    /// Number of query heads (equals the teacher's query heads).
    pub fn num_heads(&self) -> usize {
        self.geom.q_heads
    }

    /// Parameter count of the head, excluding the (shared) embedding.
    pub fn param_count_non_embedding(&self) -> usize {
        self.wq.len() + self.wk.len() + self.norm_attn.len()
    }

    /// Embeds tokens through the shared embedding.
    pub fn embed_tokens(&self, tokens: &[usize]) -> Matrix {
        self.embedding.gather_rows(tokens)
    }

    /// Creates an empty incremental state.
    pub fn new_state(&self) -> RetrievalHeadState {
        RetrievalHeadState {
            keys: vec![QuantKeyBlocks::new(self.geom.head_dim); self.geom.q_heads],
            ..RetrievalHeadState::default()
        }
    }

    /// Appends one embedded token to the key cache. Allocates nothing but
    /// the cache's own (amortised) growth.
    pub fn append(&self, emb: &[f32], state: &mut RetrievalHeadState) {
        let RetrievalHeadState { keys, normed, key } = state;
        ops::rmsnorm_into(normed, emb, &self.norm_attn, 1e-6);
        key.resize(self.wk.cols(), 0.0);
        self.wk.vecmat_into(normed, key);
        for (key, keys) in key.chunks_exact(self.geom.head_dim).zip(keys) {
            keys.push(key);
        }
    }

    /// Appends a whole embedded context.
    pub fn append_all(&self, emb: &Matrix, state: &mut RetrievalHeadState) {
        for r in 0..emb.rows() {
            self.append(emb.row(r), state);
        }
    }

    /// The per-head query vectors of `query_emb`, asked at the last cached
    /// position, into `fw.queries`: row `h` is what head `h` scores its
    /// keys with ([`RetrievalHeadState::scores_into`]). The head's query
    /// projection is a forward pass of its own, ahead of the model's, so
    /// it runs in the same buffers (`fw.normed`, `fw.queries`)
    /// and a decode loop that keeps its scratch allocates nothing here.
    ///
    /// # Panics
    ///
    /// Panics if the state is empty.
    pub fn queries_into(
        &self,
        query_emb: &[f32],
        state: &RetrievalHeadState,
        fw: &mut ForwardScratch,
    ) {
        assert!(!state.is_empty(), "retrieval head has no cached keys");
        ops::rmsnorm_into(&mut fw.normed, query_emb, &self.norm_attn, 1e-6);
        if fw.queries.shape() != (self.geom.q_heads, self.geom.head_dim) {
            fw.queries = Matrix::zeros(self.geom.q_heads, self.geom.head_dim);
        }
        self.wq.vecmat_into(&fw.normed, fw.queries.as_mut_slice());
    }

    /// Head-level attention weights of the query embedding against the
    /// cached keys: one softmax distribution per head over all cached
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if the state is empty.
    pub fn head_scores(&self, query_emb: &[f32], state: &RetrievalHeadState) -> Vec<Vec<f32>> {
        let mut fw = ForwardScratch::default();
        self.queries_into(query_emb, state, &mut fw);
        (0..self.geom.q_heads)
            .map(|h| {
                let mut scores = Vec::new();
                state.scores_into(h, fw.queries.row(h), &mut scores);
                scores
            })
            .collect()
    }
}

/// Factors `m` (h x h) into `(a, b)` with `a b^T ≈ m`, rank `d`, via
/// orthogonal iteration (converges to the top-`d` singular subspaces).
fn factor_rank_d(m: &Matrix, d: usize, iters: usize, rng: &mut SimRng) -> (Matrix, Matrix) {
    let h = m.rows();
    let mut b = rng.normal_matrix(h, d, 1.0);
    orthonormalize_cols(&mut b);
    let mt = m.transposed();
    let mut a = m.matmul(&b);
    for _ in 0..iters {
        orthonormalize_cols(&mut a);
        b = mt.matmul(&a);
        orthonormalize_cols(&mut b);
        a = m.matmul(&b);
    }
    // a carries the singular values; split them evenly between the two
    // factors so q/k magnitudes stay balanced (as in real checkpoints).
    let (mut a_bal, mut b_bal) = (a, b);
    for c in 0..d {
        let norm: f32 = (0..h).map(|r| a_bal.get(r, c).powi(2)).sum::<f32>().sqrt();
        if norm > 1e-12 {
            let s = norm.sqrt();
            for r in 0..h {
                let va = a_bal.get(r, c);
                a_bal.set(r, c, va / s);
                let vb = b_bal.get(r, c);
                b_bal.set(r, c, vb * s);
            }
        }
    }
    (a_bal, b_bal)
}

/// Gram–Schmidt on columns.
fn orthonormalize_cols(m: &mut Matrix) {
    let (rows, cols) = m.shape();
    for c in 0..cols {
        for prev in 0..c {
            let dot: f32 = (0..rows).map(|r| m.get(r, c) * m.get(r, prev)).sum();
            for r in 0..rows {
                let v = m.get(r, c) - dot * m.get(r, prev);
                m.set(r, c, v);
            }
        }
        let norm: f32 = (0..rows).map(|r| m.get(r, c).powi(2)).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for r in 0..rows {
                let v = m.get(r, c) / norm;
                m.set(r, c, v);
            }
        }
    }
}

fn perturb(m: &mut Matrix, rel_noise: f32, rng: &mut SimRng) {
    let scale = m.frobenius_norm() / (m.len() as f32).sqrt();
    for v in m.as_mut_slice() {
        *v += rng.normal() * rel_noise * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimGeometry;
    use crate::transformer::PrefillMode;
    use spec_tensor::quant::{BitWidth, QuantVec};
    use spec_tensor::stats;
    use spec_tensor::topk::top_k_indices;

    /// Scores a full context in one call, using the last position as the
    /// query.
    fn score_context(head: &RetrievalHead, emb: &Matrix) -> Vec<Vec<f32>> {
        let mut state = head.new_state();
        head.append_all(emb, &mut state);
        head.head_scores(emb.row(emb.rows() - 1), &state)
    }

    fn teacher(kind: AttentionKind) -> Model {
        Model::new(SimGeometry::tiny(kind), 77)
    }

    #[test]
    fn factorization_approximates_low_rank_matrix() {
        let mut rng = SimRng::seed(3);
        // Build an exactly rank-4 matrix and recover it.
        let u = rng.normal_matrix(16, 4, 1.0);
        let v = rng.normal_matrix(16, 4, 1.0);
        let m = u.matmul(&v.transposed());
        let (a, b) = factor_rank_d(&m, 4, 12, &mut rng);
        let approx = a.matmul(&b.transposed());
        let err = m
            .as_slice()
            .iter()
            .zip(approx.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        let norm = m.frobenius_norm();
        assert!(err / norm < 0.05, "relative error {}", err / norm);
    }

    #[test]
    fn dlm_has_one_layer_and_shared_embedding() {
        let t = teacher(AttentionKind::Gqa);
        let dlm = Dlm::distill(&t, DistillOptions::default());
        assert_eq!(dlm.model().geometry().layers, 1);
        assert_eq!(dlm.model().weights().embedding, t.weights().embedding);
    }

    #[test]
    fn retrieval_head_prunes_most_parameters() {
        // In the tiny sim geometry the FFN/LM-head share is smaller than at
        // 8B scale, so the bound here is 75%; the >90% paper-scale claim is
        // asserted analytically in `config::tests`.
        let t = teacher(AttentionKind::Gqa);
        let dlm = Dlm::distill(&t, DistillOptions::default());
        let head = dlm.to_retrieval_head();
        let full = dlm.param_count_non_embedding() as f32;
        let pruned = head.param_count_non_embedding() as f32;
        let reduction = 1.0 - pruned / full;
        assert!(
            reduction > 0.75,
            "only {:.1}% reduction (head {pruned}, dlm {full})",
            reduction * 100.0
        );
    }

    #[test]
    fn head_scores_are_distributions() {
        let t = teacher(AttentionKind::Mha);
        let head = Dlm::distill(&t, DistillOptions::default()).to_retrieval_head();
        let tokens: Vec<usize> = (0..20).map(|i| i % 60).collect();
        let emb = head.embed_tokens(&tokens);
        let scores = score_context(&head, &emb);
        assert_eq!(scores.len(), head.num_heads());
        for s in &scores {
            assert_eq!(s.len(), 20);
            assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    /// The paper's core claim (Sec. 3.2): the DLM's information focus
    /// tracks the teacher's. On inputs with planted salient structure (the
    /// regime of real text, reproduced by the workload generator's probe
    /// planting), both the teacher and the distilled head must focus on
    /// the same evidence positions.
    #[test]
    fn distilled_head_aligns_with_teacher_focus_on_salient_inputs() {
        let t = teacher(AttentionKind::Gqa);
        let head = Dlm::distill(&t, DistillOptions { noise: 0.0 }).to_retrieval_head();
        let probe = crate::probe::probe_direction(&t, 30);

        let n = 64;
        let evidence = [10usize, 25, 40];
        let tokens: Vec<usize> = (0..n).map(|i| (i * 7) % 60).collect();
        let mut emb = t.embed_tokens(&tokens);
        let strength = 6.0;
        for &e in &evidence {
            for (x, m) in emb.row_mut(e).iter_mut().zip(&probe.direction) {
                *x += strength * m;
            }
        }
        // The question (last) token carries the probe too.
        for (x, m) in emb.row_mut(n - 1).iter_mut().zip(&probe.direction) {
            *x += strength * m;
        }

        // Teacher oracle: layer/head-averaged attention on the last step.
        let (mut kv, _) = t.prefill_embeddings(&emb, PrefillMode::Exact);
        let query = emb.row(n - 1).to_vec();
        let plan = crate::transformer::SparsePlan::dense(t.geometry().layers);
        let (_, trace) = t.decode_step_traced(&query, n, &mut kv, &mut &plan);
        let mut oracle = vec![0.0f32; n];
        for layer in &trace.attn {
            for headw in layer {
                for (i, w) in headw.iter().take(n).enumerate() {
                    oracle[i] += w;
                }
            }
        }
        let teacher_top = top_k_indices(&oracle, 8);
        let teacher_hits = stats::hit_rate(&evidence, &teacher_top);
        assert!(
            teacher_hits > 0.5,
            "teacher should focus on planted evidence (hits {teacher_hits})"
        );

        // Head: max over heads (head-level retrieval pools per head).
        let scores = score_context(&head, &emb);
        let mut pooled = vec![0.0f32; n];
        for s in &scores {
            for (p, w) in pooled.iter_mut().zip(s) {
                *p = p.max(*w);
            }
        }
        let head_top = top_k_indices(&pooled, 8);
        let head_hits = stats::hit_rate(&evidence, &head_top);
        assert!(
            head_hits > 0.5,
            "retrieval head should focus on planted evidence (hits {head_hits})"
        );
    }

    #[test]
    fn noise_degrades_alignment() {
        let t = teacher(AttentionKind::Gqa);
        let clean = Dlm::distill(&t, DistillOptions { noise: 0.0 }).to_retrieval_head();
        let noisy = Dlm::distill(&t, DistillOptions { noise: 3.0 }).to_retrieval_head();

        let tokens: Vec<usize> = (0..40).map(|i| (i * 11) % 60).collect();
        let emb = t.embed_tokens(&tokens);
        let sc = score_context(&clean, &emb);
        let sn = score_context(&noisy, &emb);
        // Across heads, the clean head should correlate with itself more
        // than the noisy head correlates with the clean one. Weak but
        // direction-checking assertion: distributions differ materially.
        let mut diff = 0.0;
        for (a, b) in sc.iter().zip(&sn) {
            diff += stats::kl_divergence(a, b, 1e-9);
        }
        assert!(diff > 0.01, "noise should change the focus ({diff})");
    }

    #[test]
    fn incremental_state_matches_batch_scoring() {
        let t = teacher(AttentionKind::Mqa);
        let dlm = Dlm::distill(&t, DistillOptions::default());
        let head = dlm.to_retrieval_head();
        let lw = &dlm.model().weights().layers[0];
        // A context inside one key block, and one whose appends cross a
        // block boundary with a query asked mid-block.
        for n in [12, spec_tensor::keyblocks::KEY_BLOCK + 7] {
            let tokens: Vec<usize> = (0..n).map(|i| i % 60).collect();
            let emb = head.embed_tokens(&tokens);

            let batch = score_context(&head, &emb);

            let mut state = head.new_state();
            for r in 0..emb.rows() {
                self::append_row(&head, &emb, r, &mut state);
            }
            assert_eq!(state.len(), n);
            let inc = head.head_scores(emb.row(n - 1), &state);
            for (a, b) in batch.iter().zip(&inc) {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-6);
                }
            }
            // Keys quantized one by one and scored one dot per position
            // give the same bits.
            let norm = |r: usize| ops::rmsnorm(emb.row(r), &head.norm_attn, 1e-6);
            for (h, got) in inc.iter().enumerate() {
                let q = lw.wq[h].vecmat(&norm(n - 1));
                let mut want: Vec<f32> = (0..n)
                    .map(|r| {
                        let key = QuantVec::quantize(&lw.wk[h].vecmat(&norm(r)), BitWidth::Int8);
                        let levels = (0..q.len()).map(|d| q[d] * f32::from(key.level(d)));
                        levels.fold(-0.0, |acc, x| acc + x) * key.scale()
                    })
                    .collect();
                ops::softmax_rows_inplace(&mut want, n, 1.0 / (q.len() as f32).sqrt());
                assert_eq!(got, &want, "head {h} of a {n}-token context");
            }
        }
    }

    /// The head keeps each projection once, the heads side by side. On the
    /// benchmark's geometry (eight heads of 16), every key `append` caches
    /// — its levels and scale — and every row of `queries_into` are the
    /// eight per-head `vecmat`s of the DLM's own weights, bit for bit, at
    /// every dispatch tier, over appends that cross a key block.
    #[test]
    fn fused_projections_are_the_per_head_vecmats_at_every_tier() {
        use spec_tensor::dispatch;
        use spec_tensor::keyblocks::KEY_BLOCK;
        let geom = crate::config::ModelConfig::deepseek_distill_llama_8b().sim_geometry();
        let dlm = Dlm::distill(&Model::new(geom, 0x5EED), DistillOptions::default());
        let lw = &dlm.model().weights().layers[0];
        let (heads, d) = (geom.q_heads, geom.head_dim);
        assert_eq!((lw.wq.len(), lw.wk.len()), (8, 8));
        let tokens: Vec<usize> = (0..KEY_BLOCK + 9)
            .map(|i| (i * 37 + 5) % geom.vocab)
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let head = dlm.to_retrieval_head();
        let emb = head.embed_tokens(&tokens);
        // Head `w`'s product of row `r`.
        let project =
            |w: &Matrix, r: usize| w.vecmat(&ops::rmsnorm(emb.row(r), &lw.norm_attn, 1e-6));
        for &tier in dispatch::available_tiers() {
            dispatch::with_tier(tier, || {
                let what = format!("tier {tier}");
                let mut state = head.new_state();
                let mut want = vec![QuantKeyBlocks::new(d); heads];
                let mut fw = ForwardScratch::default();
                for r in 0..emb.rows() {
                    head.append(emb.row(r), &mut state);
                    for (wk, want) in lw.wk.iter().zip(&mut want) {
                        want.push(&project(wk, r));
                    }
                    head.queries_into(emb.row(r), &state, &mut fw);
                    for (h, wq) in lw.wq.iter().enumerate() {
                        let got = bits(fw.queries.row(h));
                        assert_eq!(got, bits(&project(wq, r)), "{what}: query {h} at {r}");
                    }
                }
                for (h, want) in want.iter().enumerate() {
                    let got = state.keys(h);
                    assert_eq!(got.len(), want.len(), "{what}: head {h}");
                    for p in 0..want.len() {
                        let scales = (got.scale(p).to_bits(), want.scale(p).to_bits());
                        assert_eq!(scales.0, scales.1, "{what}: head {h} scale {p}");
                        let same = (0..d).all(|i| got.level(p, i) == want.level(p, i));
                        assert!(same, "{what}: head {h} levels {p}");
                    }
                }
            });
        }
    }

    /// What int8 keys cost in decisions, on the benchmark's geometry and
    /// budget: the per-KV-head selections of the head as shipped against
    /// selections from `f32` scores recomputed here (`matrix::dot` per
    /// position, the same softmax, the same group-max and top-k). Both
    /// prompt regimes — filler tokens throughout (`reason_2k_16k`: a
    /// short prompt, a long generation) and a long prompt with planted
    /// evidence the question points at (`prompt_32k_2k`) — three seeds
    /// each, asked at three lengths.
    #[test]
    fn int8_selections_agree_with_f32_scoring() {
        use spec_tensor::matrix::dot;
        let geom = crate::config::ModelConfig::deepseek_distill_llama_8b().sim_geometry();
        let t = Model::new(geom, 0x5EED);
        let dlm = Dlm::distill(&t, DistillOptions::default());
        let head = dlm.to_retrieval_head();
        let lw = &dlm.model().weights().layers[0];
        let probe = crate::probe::probe_direction(&t, 30).direction;
        let (group, budget) = (geom.group_size(), 256);
        let select = |scores: &[Vec<f32>]| -> Vec<Vec<usize>> {
            let pooled = scores.chunks(group).map(|members| {
                let n = members[0].len();
                (0..n).map(|p| members.iter().map(|s| s[p]).fold(f32::MIN, f32::max))
            });
            pooled
                .map(|pooled| {
                    let mut top = top_k_indices(&pooled.collect::<Vec<f32>>(), budget);
                    top.sort_unstable();
                    top
                })
                .collect()
        };

        let mut agreement = Vec::new();
        for planted in [false, true] {
            for seed in [1, 7, 14] {
                let mut rng = SimRng::seed(seed);
                let (prompt, asked) = if planted {
                    (4096, [4096, 4224, 4352])
                } else {
                    (256, [1280, 1792, 2304])
                };
                let tokens: Vec<usize> = (0..asked[2]).map(|_| rng.below(geom.vocab)).collect();
                let mut emb = head.embed_tokens(&tokens);
                if planted {
                    let starts = [400, 1300, 2200, 3100];
                    let evidence = starts.iter().flat_map(|&s| s..s + 4);
                    for r in evidence.chain([prompt - 1]) {
                        for (x, m) in emb.row_mut(r).iter_mut().zip(&probe) {
                            *x += 5.0 * m;
                        }
                    }
                }
                let normed: Vec<Vec<f32>> = (0..emb.rows())
                    .map(|r| ops::rmsnorm(emb.row(r), &head.norm_attn, 1e-6))
                    .collect();
                let keys: Vec<Vec<Vec<f32>>> = lw
                    .wk
                    .iter()
                    .map(|wk| normed.iter().map(|x| wk.vecmat(x)).collect())
                    .collect();
                let mut state = head.new_state();
                for n in asked {
                    while state.len() < n {
                        head.append(emb.row(state.len()), &mut state);
                    }
                    let int8 = head.head_scores(emb.row(n - 1), &state);
                    let f32_scores: Vec<Vec<f32>> = (0..geom.q_heads)
                        .map(|h| {
                            let q = lw.wq[h].vecmat(&normed[n - 1]);
                            let mut s: Vec<f32> = keys[h][..n].iter().map(|k| dot(&q, k)).collect();
                            ops::softmax_rows_inplace(&mut s, n, 1.0 / (q.len() as f32).sqrt());
                            s
                        })
                        .collect();
                    for (a, b) in select(&int8).iter().zip(&select(&f32_scores)) {
                        agreement.push(stats::jaccard(a, b));
                    }
                }
            }
        }
        let min = agreement.iter().copied().fold(1.0, f32::min);
        let mean = stats::mean(&agreement);
        // Measured: mean 0.989, min 0.925, 64 % of the lists identical.
        assert!(
            mean >= 0.98 && min >= 0.80,
            "Jaccard mean {mean}, min {min}: {agreement:?}"
        );
    }

    fn append_row(head: &RetrievalHead, emb: &Matrix, r: usize, state: &mut RetrievalHeadState) {
        head.append(emb.row(r), state);
    }

    #[test]
    fn works_for_all_teacher_attention_kinds() {
        for kind in [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ] {
            let t = teacher(kind);
            let head = Dlm::distill(&t, DistillOptions::default()).to_retrieval_head();
            let tokens: Vec<usize> = (0..10).collect();
            let emb = head.embed_tokens(&tokens);
            let scores = score_context(&head, &emb);
            assert_eq!(scores.len(), t.geometry().q_heads, "{kind}");
        }
    }
}
