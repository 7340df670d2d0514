//! The SpeContext selection: mapping retrieval-head attention weights to a
//! whole-model sparse plan *before* LLM inference (paper Section 4.3).
//!
//! Unlike the layer-wise baselines, SpeContext produces the complete
//! selection for every layer and KV head from a single retrieval-head
//! pass over the input, which is what removes the per-layer
//! retrieve-and-load data dependency (Section 5.1). The mapping depends
//! on the LLM's attention mechanism:
//!
//! * **MHA** (Fig. 5(b)): DLM head *i* selects for LLM KV head *i*.
//! * **GQA** (Fig. 5(c)): element-wise max over each group's DLM heads
//!   produces the group-level weights; top-k per KV head.
//! * **MQA** (Fig. 5(d)): a single group over all heads.
//! * **MLA** (Fig. 5(e)): per head like MHA; the selection gathers latent
//!   `c` rows, which are up-projected per head after the gather.
//!
//! [`SpecContextRetriever`] always maps at head level, the paper's
//! choice. A batch-level mapping (one shared selection for all heads) is
//! reachable only through [`SpecSelection::from_head_scores`] and its
//! `_scratch` / `_reference` twins, for the Fig. 5(a) comparison —
//! head-level wins.

use crate::common::{
    assemble_budgeted_selection, assemble_budgeted_selection_reference, group_max_scores,
    SelectorConfig,
};
use serde::{Deserialize, Serialize};
use spec_model::{
    AttentionKind, LayerKv, LayerSelector, RetrievalHead, RetrievalHeadState, SimGeometry,
    SparsePlan,
};
use spec_tensor::dispatch;
use spec_tensor::topk::{PosBitSet, RankScratch, ScoreArena, SelectHalf, SelectScratch};
use spec_tensor::Matrix;

/// Mapping granularity of retrieval-head weights onto the LLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingLevel {
    /// Per-head selection (the paper's choice).
    Head,
    /// One coarse selection shared by all heads (ablation of Fig. 5(a)).
    Batch,
}

/// A whole-model selection produced before LLM inference.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecSelection {
    /// Per-KV-head position lists (identical across layers).
    pub per_head: Vec<Vec<usize>>,
    /// Budget used.
    pub budget: usize,
}

impl SpecSelection {
    /// Builds the selection from head-level retrieval scores.
    ///
    /// `scores[h]` is the retrieval head's softmax distribution for DLM
    /// head `h` over all cache positions; `geom` is the **LLM's**
    /// geometry (the DLM always exposes one score vector per LLM query
    /// head).
    ///
    /// # Panics
    ///
    /// Panics if `scores.len()` differs from the LLM's query-head count.
    pub fn from_head_scores(
        scores: &[Vec<f32>],
        geom: &SimGeometry,
        cfg: &SelectorConfig,
        level: MappingLevel,
    ) -> Self {
        let mut scratch = SelectScratch::new();
        Self::from_head_scores_scratch(scores, geom, cfg, level, &mut scratch)
    }

    /// As [`from_head_scores`](Self::from_head_scores), pooling and
    /// assembling on a caller-owned [`SelectScratch`] (the
    /// zero-allocation hot path).
    pub fn from_head_scores_scratch(
        scores: &[Vec<f32>],
        geom: &SimGeometry,
        cfg: &SelectorConfig,
        level: MappingLevel,
        scratch: &mut SelectScratch,
    ) -> Self {
        assert_eq!(
            scores.len(),
            geom.q_heads,
            "expected one score vector per LLM query head"
        );
        let seq_len = scores[0].len();
        Self::map_scores(seq_len, geom, cfg, level, scratch, |q, buf| {
            buf.clear();
            buf.extend_from_slice(&scores[q]);
        })
    }

    /// The mapping itself. `score_into(q, buf)` fills `buf` with head
    /// `q`'s `seq_len` scores — straight into the score arena's buffers,
    /// so a scorer that computes them there (the retriever) never holds a
    /// score vector of its own.
    ///
    /// At [`MappingLevel::Head`] the KV heads split in two halves, each
    /// scoring its DLM heads, then pooling and assembling its KV heads'
    /// lists on its own buffers (the second on `scratch.second`), and
    /// [`dispatch::join`] may run the second half on the helper thread.
    /// Each list is what the serial loop computed, bit for bit.
    fn map_scores(
        seq_len: usize,
        geom: &SimGeometry,
        cfg: &SelectorConfig,
        level: MappingLevel,
        scratch: &mut SelectScratch,
        score_into: impl Fn(usize, &mut Vec<f32>) + Sync,
    ) -> Self {
        let SelectScratch {
            scores: arena,
            rank,
            marks,
            second,
            ..
        } = scratch;
        let per_head: Vec<Vec<usize>> = match level {
            MappingLevel::Head => {
                let group = match geom.attention {
                    AttentionKind::Mha | AttentionKind::Mla => 1,
                    AttentionKind::Gqa | AttentionKind::Mqa => geom.group_size(),
                };
                let kv_heads = geom.kv_heads;
                assert_eq!(geom.q_heads / group, kv_heads, "group mapping mismatch");
                // KV heads `first..` into `lists`, on one half's buffers.
                let select = |first: usize,
                              lists: &mut [Vec<usize>],
                              arena: &mut ScoreArena,
                              rank: &mut RankScratch,
                              marks: &mut PosBitSet| {
                    for (hh, list) in (first..).zip(lists) {
                        arena.pool_group_max(hh * group..(hh + 1) * group, &score_into);
                        *list =
                            assemble_budgeted_selection(&arena.pooled, seq_len, cfg, rank, marks).0;
                    }
                };
                let mut per_head = vec![Vec::new(); kv_heads];
                let mid = kv_heads.div_ceil(2);
                let (low, high) = per_head.split_at_mut(mid);
                if high.is_empty() {
                    select(0, low, arena, rank, marks);
                } else {
                    let SelectHalf {
                        scores: their_arena,
                        rank: their_rank,
                        marks: their_marks,
                    } = second;
                    dispatch::join(
                        || select(mid, high, their_arena, their_rank, their_marks),
                        || select(0, low, arena, rank, marks),
                    );
                }
                per_head
            }
            MappingLevel::Batch => {
                arena.pool_group_max(0..geom.q_heads, &score_into);
                let sel = assemble_budgeted_selection(&arena.pooled, seq_len, cfg, rank, marks).0;
                vec![sel; geom.kv_heads]
            }
        };
        Self {
            per_head,
            budget: cfg.budget,
        }
    }

    /// The original mapping path (allocating group-max + `BTreeSet`
    /// assembly, serial), kept as the property-test reference.
    pub fn from_head_scores_reference(
        scores: &[Vec<f32>],
        geom: &SimGeometry,
        cfg: &SelectorConfig,
        level: MappingLevel,
    ) -> Self {
        assert_eq!(
            scores.len(),
            geom.q_heads,
            "expected one score vector per LLM query head"
        );
        let seq_len = scores[0].len();
        let per_head: Vec<Vec<usize>> = match level {
            MappingLevel::Head => {
                let group = match geom.attention {
                    AttentionKind::Mha | AttentionKind::Mla => 1,
                    AttentionKind::Gqa | AttentionKind::Mqa => geom.group_size(),
                };
                let grouped = group_max_scores(scores, group);
                assert_eq!(grouped.len(), geom.kv_heads, "group mapping mismatch");
                grouped
                    .iter()
                    .map(|s| assemble_budgeted_selection_reference(s, seq_len, cfg).0)
                    .collect()
            }
            MappingLevel::Batch => {
                let pooled = group_max_scores(scores, scores.len());
                let sel = assemble_budgeted_selection_reference(&pooled[0], seq_len, cfg).0;
                vec![sel; geom.kv_heads]
            }
        };
        Self {
            per_head,
            budget: cfg.budget,
        }
    }

    /// Expands into a [`SparsePlan`] applying the selection to every layer.
    /// The selection is itself a [`LayerSelector`], so a decode step needs
    /// no plan; kept for the frozen `bench_e2e`, whose mirrored loop
    /// expands one per step.
    pub fn to_plan(&self, layers: usize) -> SparsePlan {
        SparsePlan {
            layers: vec![Some(self.per_head.clone()); layers],
        }
    }

    /// The union of all heads' positions (the set of KV entries that must
    /// be resident on the GPU; per-head slots alias into it), ascending.
    pub fn union_positions(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.union_positions_into(&mut out);
        out
    }

    /// [`union_positions`](Self::union_positions) into `out` (cleared
    /// first, its capacity reused). The heads' lists, strictly ascending
    /// by contract, are marked in a bitmap on the stack a window of 8 K
    /// positions at a time and read back a word at a time: no allocation
    /// once `out` has held a union.
    pub fn union_positions_into(&self, out: &mut Vec<usize>) {
        out.clear();
        // Heads agree on most positions; the longest list plus what the
        // others add rarely outgrows this, and never the sum.
        let longest = self.per_head.iter().map(Vec::len).max().unwrap_or(0);
        let total: usize = self.per_head.iter().map(Vec::len).sum();
        out.reserve(total.min(2 * longest));
        let end = self.end();
        let mut window = [0u64; 2 * WINDOW_WORDS];
        for lo in (0..end).step_by(WORD * WINDOW_WORDS) {
            let words = (end - lo).div_ceil(WORD).min(WINDOW_WORDS);
            let (union, head) = window.split_at_mut(WINDOW_WORDS);
            self.mark_window(lo, &mut union[..words], &mut head[..words]);
            for (i, word) in union[..words].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    out.push(lo + i * WORD + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// The union as a bitmap into `words` (cleared first, its capacity
    /// reused): bit `p % 64` of word `p / 64` is set when some head
    /// selected `p`, and the bitmap ends at the word of the largest such
    /// `p`. [`union_overlap_rate`] counts two of them against each other.
    pub fn union_words_into(&self, words: &mut Vec<u64>) {
        let n = self.end().div_ceil(WORD);
        words.clear();
        words.resize(2 * n, 0);
        let (union, head) = words.split_at_mut(n);
        self.mark_window(0, union, head);
        words.truncate(n);
    }

    /// One past the largest selected position (0 for none).
    fn end(&self) -> usize {
        let last = self.per_head.iter().filter_map(|head| head.last());
        last.max().map_or(0, |&p| p + 1)
    }

    /// ORs into `union` the selected positions in `lo..lo + 64 ×
    /// union.len()` (`lo` a multiple of 64), bit `(p - lo) % 64` of word
    /// `(p - lo) / 64`. A head is marked in `head` (as long as `union`)
    /// first, by one plain store a position: the OR of its word's
    /// positions so far, which an ascending list finishes before the next
    /// word begins, so no store waits on reading back the one before it.
    fn mark_window(&self, lo: usize, union: &mut [u64], head: &mut [u64]) {
        let hi = lo + WORD * union.len();
        for positions in &self.per_head {
            let from = positions.partition_point(|&p| p < lo);
            let to = from + positions[from..].partition_point(|&p| p < hi);
            head.fill(0);
            let (mut word, mut at) = (0u64, usize::MAX);
            for &p in &positions[from..to] {
                let (w, bit) = ((p - lo) / WORD, 1u64 << ((p - lo) % WORD));
                word = bit | word & u64::from(w == at).wrapping_neg();
                head[w] = word;
                at = w;
            }
            for (u, &h) in union.iter_mut().zip(head.iter()) {
                *u |= h;
            }
        }
    }
}

/// Positions a union bitmap word covers.
const WORD: usize = u64::BITS as usize;

/// Words of the window [`SpecSelection::union_positions_into`] marks at a
/// time: 8 K positions, one window up to that context.
const WINDOW_WORDS: usize = 128;

/// `|prev ∩ cur| / |prev|` of two union bitmaps (as
/// [`SpecSelection::union_words_into`] builds them) by popcount — the
/// overlap of adjacent selections (Fig. 6(b)). It is
/// `spec_tensor::stats::overlap_rate` of the positions the two hold, to
/// the bit: 1.0 when `prev` is empty.
pub fn union_overlap_rate(prev: &[u64], cur: &[u64]) -> f32 {
    let held: u32 = prev.iter().map(|w| w.count_ones()).sum();
    if held == 0 {
        return 1.0;
    }
    let shared: u32 = prev
        .iter()
        .zip(cur)
        .map(|(a, b)| (a & b).count_ones())
        .sum();
    shared as f32 / held as f32
}

/// A speculative selection answers every layer with the same per-head
/// lists, whatever the layer's queries: it was made before the forward
/// pass (paper Section 4.3), which is what lets its KV be prefetched.
impl LayerSelector for SpecSelection {
    fn select(
        &mut self,
        _layer: usize,
        _queries: &Matrix,
        _kv: &LayerKv,
        _scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        Some(self.per_head.clone())
    }
}

/// Drives a retrieval head across a decode session: appends each token
/// and produces the pre-inference selection for the next LLM step.
#[derive(Debug, Clone)]
pub struct SpecContextRetriever {
    head: RetrievalHead,
    state: RetrievalHeadState,
    cfg: SelectorConfig,
    /// Exponential moving average of observed embeddings — a stand-in for
    /// the DLM's hidden-state input (EAGLE-3 feeds hidden features), which
    /// varies slowly across adjacent tokens.
    ema: Vec<f32>,
}

/// EMA decay for the context average.
const EMA_DECAY: f32 = 0.9;

/// How much of the retrieval query is the context EMA's direction rather
/// than the token's (0 = raw token embedding, 1 = pure context EMA).
/// Models the DLM consuming the slowly-varying hidden state (EAGLE-3
/// feeds hidden features, not just the token), which is what makes
/// adjacent-step selections overlap strongly (Fig. 6(b)).
const QUERY_SMOOTHING: f32 = 0.5;

fn norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

impl SpecContextRetriever {
    /// Creates a retriever around a pruned retrieval head.
    pub fn new(head: RetrievalHead, cfg: SelectorConfig) -> Self {
        let state = head.new_state();
        Self {
            head,
            state,
            cfg,
            ema: Vec::new(),
        }
    }

    /// Appends an embedded token to the head's key cache (run for every
    /// prompt token during prefill and every generated token thereafter).
    pub fn observe(&mut self, emb: &[f32]) {
        if self.ema.is_empty() {
            self.ema = emb.to_vec();
        } else {
            for (e, x) in self.ema.iter_mut().zip(emb) {
                *e = EMA_DECAY * *e + (1.0 - EMA_DECAY) * x;
            }
        }
        self.head.append(emb, &mut self.state);
    }

    /// Number of observed positions.
    pub fn observed(&self) -> usize {
        self.state.len()
    }

    /// Produces the selection for the upcoming LLM step whose input
    /// embedding is `query_emb` (the token about to be fed to the LLM).
    ///
    /// The effective retrieval query blends the token embedding with the
    /// context EMA per `QUERY_SMOOTHING`.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been observed yet.
    pub fn select(&self, query_emb: &[f32], llm_geom: &SimGeometry) -> SpecSelection {
        let mut scratch = SelectScratch::new();
        self.select_scratch(query_emb, llm_geom, &mut scratch)
    }

    /// As [`select`](Self::select), assembling on a caller-owned
    /// [`SelectScratch`] so a decode loop reuses one warm workspace.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been observed yet.
    pub fn select_scratch(
        &self,
        query_emb: &[f32],
        llm_geom: &SimGeometry,
        scratch: &mut SelectScratch,
    ) -> SpecSelection {
        assert_eq!(
            self.head.num_heads(),
            llm_geom.q_heads,
            "expected one retrieval head per LLM query head"
        );
        // The head runs ahead of the model, in the buffers the model's
        // own pass refills afterwards: the blended query is its residual
        // stream.
        let fw = &mut scratch.forward;
        let mut blended = std::mem::take(&mut fw.residual);
        blended.clear();
        if !self.ema.is_empty() {
            // Blend unit directions: the head RMS-norms its query, so only
            // the direction matters, and the raw EMA norm is much smaller
            // than a token embedding's.
            let nq = norm(query_emb).max(1e-9);
            let ne = norm(&self.ema).max(1e-9);
            let pairs = query_emb.iter().zip(&self.ema);
            let lambda = QUERY_SMOOTHING;
            blended.extend(pairs.map(|(q, e)| (1.0 - lambda) * q / nq + lambda * e / ne));
        } else {
            blended.extend_from_slice(query_emb);
        }
        self.head.queries_into(&blended, &self.state, fw);
        fw.residual = blended;
        // Each head's weights are computed where the mapping pools them;
        // the queries leave the scratch while the mapping holds it.
        let queries = std::mem::take(&mut fw.queries);
        let selection = SpecSelection::map_scores(
            self.state.len(),
            llm_geom,
            &self.cfg,
            MappingLevel::Head,
            scratch,
            |q, buf| self.state.scores_into(q, queries.row(q), buf),
        );
        scratch.forward.queries = queries;
        selection
    }

    /// The selector configuration.
    pub fn config(&self) -> &SelectorConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{DistillOptions, Dlm, Model, PrefillMode};
    use spec_tensor::stats;

    fn head_and_model(kind: AttentionKind) -> (Model, RetrievalHead) {
        let geom = SimGeometry::tiny(kind);
        let m = Model::new(geom, 51);
        let head = Dlm::distill(&m, DistillOptions::default()).to_retrieval_head();
        (m, head)
    }

    fn fake_scores(heads: usize, n: usize, peak: usize) -> Vec<Vec<f32>> {
        (0..heads)
            .map(|h| {
                let mut s = vec![0.01; n];
                s[(peak + h) % n] = 0.9;
                s
            })
            .collect()
    }

    #[test]
    fn head_level_selection_differs_per_kv_head() {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let scores = fake_scores(geom.q_heads, 64, 10);
        let cfg = SelectorConfig {
            budget: 4,
            sinks: 1,
            recent: 1,
            ..SelectorConfig::with_budget(4)
        };
        let sel = SpecSelection::from_head_scores(&scores, &geom, &cfg, MappingLevel::Head);
        assert_eq!(sel.per_head.len(), geom.kv_heads);
        // Heads peak at different positions -> different selections.
        assert_ne!(sel.per_head[0], sel.per_head[1]);
    }

    #[test]
    fn batch_level_selection_is_shared() {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let scores = fake_scores(geom.q_heads, 64, 10);
        let cfg = SelectorConfig::with_budget(8);
        let sel = SpecSelection::from_head_scores(&scores, &geom, &cfg, MappingLevel::Batch);
        assert!(sel.per_head.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn gqa_group_max_pulls_in_each_members_peak() {
        let geom = SimGeometry::tiny(AttentionKind::Gqa); // 4 q heads, 2 kv heads
        let n = 32;
        let mut scores = vec![vec![0.0; n]; geom.q_heads];
        scores[0][5] = 0.9; // group 0 member
        scores[1][9] = 0.8; // group 0 member
        scores[2][20] = 0.7; // group 1
        scores[3][21] = 0.6; // group 1
        let cfg = SelectorConfig {
            budget: 4,
            sinks: 0,
            recent: 0,
            ..SelectorConfig::with_budget(4)
        };
        let sel = SpecSelection::from_head_scores(&scores, &geom, &cfg, MappingLevel::Head);
        assert!(sel.per_head[0].contains(&5) && sel.per_head[0].contains(&9));
        assert!(sel.per_head[1].contains(&20) && sel.per_head[1].contains(&21));
    }

    #[test]
    fn plan_covers_every_layer() {
        let geom = SimGeometry::tiny(AttentionKind::Mqa);
        let scores = fake_scores(geom.q_heads, 16, 3);
        let sel = SpecSelection::from_head_scores(
            &scores,
            &geom,
            &SelectorConfig::with_budget(4),
            MappingLevel::Head,
        );
        let plan = sel.to_plan(geom.layers);
        assert_eq!(plan.layers.len(), geom.layers);
        plan.validate(16, geom.kv_heads).unwrap();
    }

    #[test]
    fn retriever_end_to_end_for_all_kinds() {
        for kind in [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ] {
            let (m, head) = head_and_model(kind);
            let cfg = SelectorConfig {
                budget: 8,
                sinks: 2,
                recent: 2,
                ..SelectorConfig::with_budget(8)
            };
            let mut retr = SpecContextRetriever::new(head, cfg);
            let tokens: Vec<usize> = (0..24).collect();
            let emb = m.embed_tokens(&tokens);
            for r in 0..emb.rows() {
                retr.observe(emb.row(r));
            }
            let sel = retr.select(emb.row(23), m.geometry());
            let plan = sel.to_plan(m.geometry().layers);
            plan.validate(24, m.geometry().kv_heads)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));

            // The plan must run through the model.
            let (mut kv, _) = m.prefill_embeddings(&emb, PrefillMode::Exact);
            let out = m.decode_step_sparse(emb.row(0), 24, &mut kv, &plan);
            assert!(out.logits.iter().all(|v| v.is_finite()), "{kind}");
        }
    }

    #[test]
    fn scratch_mapping_matches_reference() {
        // A short context and one of 8 K positions per head (several
        // histogram buckets deep, ends forced inside the budget).
        for kind in [AttentionKind::Mha, AttentionKind::Gqa, AttentionKind::Mqa] {
            let geom = SimGeometry::tiny(kind);
            for n in [96, (1 << 13) + 5] {
                let scores: Vec<Vec<f32>> = (0..geom.q_heads)
                    .map(|h| {
                        (0..n)
                            .map(|i| ((i * 7 + h * 13) as f32 * 0.53).sin())
                            .collect()
                    })
                    .collect();
                let cfg = SelectorConfig {
                    budget: 24,
                    sinks: 2,
                    recent: 3,
                    ..SelectorConfig::with_budget(24)
                };
                for level in [MappingLevel::Head, MappingLevel::Batch] {
                    let want =
                        SpecSelection::from_head_scores_reference(&scores, &geom, &cfg, level);
                    let got = SpecSelection::from_head_scores(&scores, &geom, &cfg, level);
                    assert_eq!(got, want, "{kind} n={n}");
                }
            }
        }
    }

    #[test]
    fn adjacent_step_selections_overlap_strongly() {
        // Fig. 6(b): consecutive decode steps select similar positions.
        let (m, head) = head_and_model(AttentionKind::Gqa);
        let cfg = SelectorConfig::with_budget(16);
        let mut retr = SpecContextRetriever::new(head, cfg);
        let tokens: Vec<usize> = (0..48).map(|i| (i * 5) % 60).collect();
        let emb = m.embed_tokens(&tokens);
        for r in 0..emb.rows() {
            retr.observe(emb.row(r));
        }
        let s1 = retr.select(emb.row(46), m.geometry());
        let s2 = retr.select(emb.row(47), m.geometry());
        let overlap = stats::overlap_rate(&s1.per_head[0], &s2.per_head[0]);
        assert!(overlap > 0.5, "adjacent overlap {overlap}");
    }
}
