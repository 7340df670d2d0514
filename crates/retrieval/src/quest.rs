//! Quest: query-aware paged KV selection (Tang et al., 2024).
//!
//! Preprocessing (after prefill): partition each head's key cache into
//! pages and store per-page element-wise min/max vectors. At each decode
//! step and each layer, compute an upper bound of every page's attention
//! score from the current query, take the top pages within budget, and
//! load all KV entries of the selected pages. Newly generated KV pairs
//! are retained in full (the paradigm's Challenge-2 behaviour).
//!
//! The selection path is zero-allocation: page scores are pooled into the
//! [`SelectScratch`] score arena, the page walk runs over a partial
//! selection of the page ranking, and picked positions accumulate in the
//! scratch bitset. [`QuestSelector::select_reference`] keeps the original
//! `BTreeSet`-plus-argsort path for property pinning.

use crate::common::{group_max_scores, mark_budgeted_group_walk, SelectorConfig};
use spec_kvcache::PageTable;
use spec_model::{LayerKv, LayerSelector, ModelKv};
use spec_tensor::topk::{PosBitSet, RankScratch, SelectScratch};
use spec_tensor::Matrix;
use std::collections::BTreeSet;

/// The Quest selector. Build with [`QuestSelector::preprocess`].
#[derive(Debug, Clone)]
pub struct QuestSelector {
    cfg: SelectorConfig,
    /// `tables[layer][kv_head]`.
    tables: Vec<Vec<PageTable>>,
    prefill_len: usize,
}

impl QuestSelector {
    /// Builds page tables over the prefill KV cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache uses a latent (MLA) layout — Quest does not
    /// support MLA (the paper reports no MLA/Qwen support either).
    pub fn preprocess(kv: &ModelKv, cfg: SelectorConfig) -> Self {
        let prefill_len = kv.seq_len();
        let tables = kv
            .layers
            .iter()
            .map(|layer| match layer {
                LayerKv::PerHead { keys, .. } => keys
                    .iter()
                    .map(|k| PageTable::build(k, cfg.page_size))
                    .collect(),
                LayerKv::Latent { .. } => panic!("Quest does not support MLA layouts"),
            })
            .collect();
        Self {
            cfg,
            tables,
            prefill_len,
        }
    }

    /// Per-head page selection for one layer from pooled page scores.
    ///
    /// Pages are walked in descending score order; each page's positions
    /// are inserted until the *position* budget fills, so the last
    /// visited page is truncated mid-page (only its first
    /// `budget - already_picked` positions survive — Quest's wholesale
    /// page loading is budget-clipped, not rounded up to page
    /// granularity). Sinks are pre-marked as positions (always-kept
    /// initial tokens), and the shared
    /// [`mark_budgeted_group_walk`] handles the candidate-prefix ranking.
    fn select_head(
        &self,
        table: &PageTable,
        page_scores: &[f32],
        seq_len: usize,
        rank: &mut RankScratch,
        marks: &mut PosBitSet,
    ) -> Vec<usize> {
        let budget = self.cfg.budget.min(self.prefill_len);
        let ps = table.page_size().max(1);
        mark_budgeted_group_walk(
            page_scores,
            budget,
            budget.div_ceil(ps) + self.cfg.sinks.div_ceil(ps) + 1,
            seq_len.max(self.prefill_len),
            self.cfg.sinks.min(self.prefill_len),
            rank,
            marks,
            |page| table.page_range(page),
        );
        // Complete retention of newly generated KV.
        for pos in self.prefill_len..seq_len {
            marks.mark(pos);
        }
        marks.collect_sorted()
    }

    /// The original selection path (`BTreeSet` + full argsort + allocated
    /// group-max), kept as the reference for the bit-for-bit property
    /// tests. Mirrors [`select`](LayerSelector::select) exactly.
    pub fn select_reference(
        &self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
    ) -> Option<Vec<Vec<usize>>> {
        let tables = &self.tables[layer];
        let group = (queries.rows() / tables.len()).max(1);
        let seq_len = kv.seq_len();
        Some(
            tables
                .iter()
                .enumerate()
                .map(|(hh, t)| {
                    let per_q: Vec<Vec<f32>> = (hh * group..(hh + 1) * group)
                        .map(|q| t.scores_reference(queries.row(q)))
                        .collect();
                    let pooled = group_max_scores(&per_q, group)[0].clone();
                    self.select_head_reference(t, &pooled, seq_len)
                })
                .collect(),
        )
    }

    fn select_head_reference(
        &self,
        table: &PageTable,
        page_scores: &[f32],
        seq_len: usize,
    ) -> Vec<usize> {
        let order = spec_tensor::topk::argsort_desc(page_scores);
        let mut picked: BTreeSet<usize> = BTreeSet::new();
        // Sinks as positions.
        for p in 0..self.cfg.sinks.min(self.prefill_len) {
            picked.insert(p);
        }
        let budget = self.cfg.budget.min(self.prefill_len);
        for page in order {
            if picked.len() >= budget {
                break;
            }
            for pos in table.page_range(page) {
                if picked.len() >= budget {
                    break;
                }
                picked.insert(pos);
            }
        }
        for pos in self.prefill_len..seq_len {
            picked.insert(pos);
        }
        picked.into_iter().collect()
    }
}

impl LayerSelector for QuestSelector {
    fn select(
        &mut self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
        scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        let tables = &self.tables[layer];
        let group = (queries.rows() / tables.len()).max(1);
        let seq_len = kv.seq_len();
        let SelectScratch {
            scores,
            rank,
            marks,
            ..
        } = scratch;
        let this = &*self;
        Some(
            tables
                .iter()
                .enumerate()
                .map(|(hh, t)| {
                    // Score pages per query head, then group-max the
                    // *scores* in place (the GQA reduction of Fig. 5(c)).
                    scores.pool_group_max(hh * group..(hh + 1) * group, |q, buf| {
                        t.scores_into(queries.row(q), buf);
                    });
                    this.select_head(t, &scores.pooled, seq_len, rank, marks)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, Model, PrefillMode, SimGeometry};

    fn setup(n: usize) -> (Model, ModelKv) {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let m = Model::new(geom, 21);
        let toks: Vec<usize> = (0..n).map(|i| i % 60).collect();
        let (kv, _) = m.prefill_tokens(&toks, PrefillMode::Exact);
        (m, kv)
    }

    fn uniform_queries(m: &Model, v: f32) -> Matrix {
        let g = m.geometry();
        Matrix::from_vec(g.q_heads, g.head_dim, vec![v; g.q_heads * g.head_dim])
    }

    #[test]
    fn selection_respects_budget_over_prefix() {
        let (m, kv) = setup(64);
        let cfg = SelectorConfig {
            budget: 16,
            sinks: 2,
            ..SelectorConfig::with_budget(16)
        };
        let mut quest = QuestSelector::preprocess(&kv, cfg);
        let queries = uniform_queries(&m, 0.1);
        let mut scratch = SelectScratch::new();
        let sel = quest
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        assert_eq!(sel.len(), m.geometry().kv_heads);
        for head in &sel {
            assert!(head.len() <= 16, "selected {}", head.len());
            assert!(head.windows(2).all(|w| w[0] < w[1]));
            assert!(head.contains(&0) && head.contains(&1), "sinks kept");
        }
    }

    #[test]
    fn new_tokens_fully_retained() {
        let (m, mut kv) = setup(32);
        let cfg = SelectorConfig::with_budget(8);
        let mut quest = QuestSelector::preprocess(&kv, cfg);
        // Decode a few steps so the cache outgrows the prefill.
        let emb = m.embed_tokens(&[1, 2, 3]);
        for (i, r) in (0..3).enumerate() {
            m.decode_step(emb.row(r), 32 + i, &mut kv);
        }
        let queries = uniform_queries(&m, 0.0);
        let mut scratch = SelectScratch::new();
        let sel = quest
            .select(1, &queries, &kv.layers[1], &mut scratch)
            .unwrap();
        for head in &sel {
            for p in 32..35 {
                assert!(head.contains(&p), "generated {p} must be retained");
            }
        }
    }

    #[test]
    fn aligned_query_selects_matching_page() {
        // Score all keys of head 0 with a query aligned to one of them
        // (the key at position 50); the page containing the best-matching
        // key must be chosen. Quest's min/max page bound is intentionally
        // loose, so give the budget room for three pages; the
        // best-matching page must rank within.
        let (m, kv) = setup(64);
        let cfg = SelectorConfig {
            budget: 48,
            sinks: 0,
            recent: 0,
            ..SelectorConfig::with_budget(48)
        };
        let mut quest = QuestSelector::preprocess(&kv, cfg);
        // Use an actual key from position 50 as the query direction, and
        // find which position actually scores highest under it.
        let (query, best_pos) = match &kv.layers[0] {
            spec_model::LayerKv::PerHead { keys, .. } => {
                let q: Vec<f32> = keys[0].row(50).to_vec();
                let best = (0..keys[0].rows())
                    .max_by(|&a, &b| {
                        let dot = |r: usize| -> f32 {
                            q.iter().zip(keys[0].row(r)).map(|(x, y)| x * y).sum()
                        };
                        dot(a).total_cmp(&dot(b))
                    })
                    .unwrap();
                (q, best)
            }
            _ => unreachable!(),
        };
        let g = m.geometry();
        let rows: Vec<&[f32]> = (0..g.q_heads).map(|_| query.as_slice()).collect();
        let queries = Matrix::from_rows(&rows);
        let mut scratch = SelectScratch::new();
        let sel = quest
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        assert!(
            sel[0].contains(&best_pos),
            "page containing the best-matching key (position {best_pos}) must be selected"
        );
    }

    #[test]
    fn scratch_selection_matches_reference() {
        let (m, mut kv) = setup(48);
        for (budget, sinks) in [(4, 0), (12, 2), (31, 5), (64, 3)] {
            let cfg = SelectorConfig {
                budget,
                sinks,
                page_size: 5,
                ..SelectorConfig::with_budget(budget)
            };
            let mut quest = QuestSelector::preprocess(&kv, cfg);
            let g = m.geometry();
            let vals: Vec<f32> = (0..g.q_heads * g.head_dim)
                .map(|i| ((i * 13 + budget) as f32 * 0.29).sin())
                .collect();
            let queries = Matrix::from_vec(g.q_heads, g.head_dim, vals);
            let mut scratch = SelectScratch::new();
            for layer in 0..g.layers {
                let got = quest
                    .select(layer, &queries, &kv.layers[layer], &mut scratch)
                    .unwrap();
                let want = quest
                    .select_reference(layer, &queries, &kv.layers[layer])
                    .unwrap();
                assert_eq!(got, want, "budget={budget} layer={layer}");
            }
        }
        // And with generated tokens beyond the prefill.
        let emb = m.embed_tokens(&[7]);
        m.decode_step(emb.row(0), 48, &mut kv);
        let mut quest = QuestSelector::preprocess(&kv, SelectorConfig::with_budget(16));
        let queries = uniform_queries(&m, 0.2);
        let mut scratch = SelectScratch::new();
        assert_eq!(
            quest.select(0, &queries, &kv.layers[0], &mut scratch),
            quest.select_reference(0, &queries, &kv.layers[0])
        );
    }

    #[test]
    #[should_panic(expected = "does not support MLA")]
    fn rejects_mla_layout() {
        let geom = SimGeometry::tiny(AttentionKind::Mla);
        let m = Model::new(geom, 3);
        let (kv, _) = m.prefill_tokens(&[1, 2, 3, 4], PrefillMode::Exact);
        let _ = QuestSelector::preprocess(&kv, SelectorConfig::default());
    }
}
