//! InfiniGen-style speculative per-layer prefetch (paper Fig. 7(c)).
//!
//! InfiniGen (Lee et al., OSDI'24) hides part of the per-layer fetch
//! latency by *speculating* layer `l+1`'s selection from layer `l`'s
//! query: attention queries of adjacent layers are correlated, so the
//! prefetch issued one layer early usually covers what layer `l+1`
//! actually needs. The paper includes this paradigm in its Fig. 7
//! comparison; this module implements the selection side so accuracy
//! (speculation misses) can be measured, while `spec_runtime::dataflow`
//! models its timing.
//!
//! The previous step's queries are kept in a reused flat [`Matrix`]
//! (no per-call clone of `Vec<Vec<f32>>`), scoring pools into the
//! [`SelectScratch`] arena, and assembly runs on the scratch;
//! [`InfiniGenSelector::select_reference`] keeps the original allocating
//! path for property pinning (it maintains the same speculative state).

use crate::common::{
    assemble_baseline_selection, assemble_baseline_selection_reference, group_max_scores,
    SelectorConfig,
};
use spec_model::{LayerKv, LayerSelector, ModelKv};
use spec_tensor::topk::SelectScratch;
use spec_tensor::Matrix;

/// The InfiniGen selector: scores layer `l` with the query of layer
/// `l-1` (the speculative prefetch), falling back to the true query for
/// layer 0. Keys are scored directly (no preprocessing) against the
/// prefill cache, with full retention of generated KV.
#[derive(Debug, Clone)]
pub struct InfiniGenSelector {
    cfg: SelectorConfig,
    /// Prefill keys per layer per KV head (the speculation targets).
    keys: Vec<Vec<Matrix>>,
    prefill_len: usize,
    /// The previous layer's queries within the current step (empty until
    /// the first `select` call).
    last_queries: Matrix,
}

impl InfiniGenSelector {
    /// Captures the prefill key caches.
    ///
    /// # Panics
    ///
    /// Panics on latent (MLA) layouts.
    pub fn preprocess(kv: &ModelKv, cfg: SelectorConfig) -> Self {
        let prefill_len = kv.seq_len();
        let keys = kv
            .layers
            .iter()
            .map(|layer| match layer {
                LayerKv::PerHead { keys, .. } => keys.clone(),
                LayerKv::Latent { .. } => panic!("InfiniGen does not support MLA layouts"),
            })
            .collect();
        Self {
            cfg,
            keys,
            prefill_len,
            last_queries: Matrix::default(),
        }
    }

    fn score_layer(
        &self,
        layer: usize,
        queries: &Matrix,
        seq_len: usize,
        scratch: &mut SelectScratch,
    ) -> Vec<Vec<usize>> {
        let heads = &self.keys[layer];
        let group = (queries.rows() / heads.len()).max(1);
        let SelectScratch {
            scores,
            rank,
            marks,
            ..
        } = scratch;
        heads
            .iter()
            .enumerate()
            .map(|(hh, keys)| {
                scores.pool_group_max(hh * group..(hh + 1) * group, |q, buf| {
                    // Batched row kernel: the dispatch tier is resolved
                    // once per sweep, bit-identical to the reference's
                    // per-row `matrix::dot`.
                    keys.dot_rows_into(queries.row(q), buf);
                });
                assemble_baseline_selection(
                    &scores.pooled,
                    self.prefill_len,
                    seq_len,
                    &self.cfg,
                    rank,
                    marks,
                )
                .0
            })
            .collect()
    }

    fn score_layer_reference(
        &self,
        layer: usize,
        queries: &Matrix,
        seq_len: usize,
    ) -> Vec<Vec<usize>> {
        let heads = &self.keys[layer];
        let group = (queries.rows() / heads.len()).max(1);
        heads
            .iter()
            .enumerate()
            .map(|(hh, keys)| {
                let per_q: Vec<Vec<f32>> = (hh * group..(hh + 1) * group)
                    .map(|q| {
                        keys.iter_rows()
                            .map(|k| spec_tensor::matrix::dot(queries.row(q), k))
                            .collect()
                    })
                    .collect();
                let pooled = group_max_scores(&per_q, group)[0].clone();
                assemble_baseline_selection_reference(&pooled, self.prefill_len, seq_len, &self.cfg)
                    .0
            })
            .collect()
    }

    /// The original selection path (allocating group-max + `BTreeSet`
    /// assembly), kept as the property-test reference. Maintains the
    /// same speculative previous-queries state as the scratch path.
    pub fn select_reference(
        &mut self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
    ) -> Option<Vec<Vec<usize>>> {
        let seq_len = kv.seq_len();
        let sel = if layer > 0 && self.last_queries.rows() == queries.rows() {
            self.score_layer_reference(layer, &self.last_queries, seq_len)
        } else {
            self.score_layer_reference(layer, queries, seq_len)
        };
        self.last_queries.copy_from(queries);
        Some(sel)
    }
}

impl LayerSelector for InfiniGenSelector {
    fn select(
        &mut self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
        scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        let seq_len = kv.seq_len();
        // Speculative: use the previous layer's queries when available
        // (the prefetch was issued before this layer's queries existed).
        let sel = if layer > 0 && self.last_queries.rows() == queries.rows() {
            self.score_layer(layer, &self.last_queries, seq_len, scratch)
        } else {
            self.score_layer(layer, queries, seq_len, scratch)
        };
        self.last_queries.copy_from(queries);
        Some(sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, Model, PrefillMode, SimGeometry};
    use spec_tensor::stats;

    fn setup(n: usize) -> (Model, ModelKv) {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let m = Model::new(geom, 141);
        let toks: Vec<usize> = (0..n).map(|i| i % 60).collect();
        let (kv, _) = m.prefill_tokens(&toks, PrefillMode::Exact);
        (m, kv)
    }

    #[test]
    fn produces_valid_selections_through_the_model() {
        let (m, mut kv) = setup(48);
        let cfg = SelectorConfig::with_budget(12);
        let mut sel = InfiniGenSelector::preprocess(&kv, cfg);
        let emb = m.embed_tokens(&[3]);
        let mut scratch = SelectScratch::new();
        let out = m.step(emb.row(0), 48, &mut kv, &mut sel, &mut scratch, None);
        assert!(out.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn speculation_overlaps_true_selection() {
        // The speculative (previous-layer) selection must overlap what
        // the true query would select — the premise of Fig. 7(c).
        let (m, kv) = setup(64);
        let cfg = SelectorConfig {
            budget: 16,
            sinks: 2,
            recent: 2,
            ..SelectorConfig::with_budget(16)
        };
        let mut spec = InfiniGenSelector::preprocess(&kv, cfg);
        let g = m.geometry();
        // Two correlated query sets (adjacent layers of a real model).
        let q1_vals: Vec<f32> = (0..g.q_heads)
            .flat_map(|h| (0..g.head_dim).map(move |d| ((h * 7 + d) as f32 * 0.3).sin()))
            .collect();
        let q1 = Matrix::from_vec(g.q_heads, g.head_dim, q1_vals);
        let q2_vals: Vec<f32> = q1.as_slice().iter().map(|v| v * 0.9 + 0.05).collect();
        let q2 = Matrix::from_vec(g.q_heads, g.head_dim, q2_vals);
        let layer_kv = &kv.layers[0];
        let mut scratch = SelectScratch::new();
        let true_sel = spec.score_layer(1, &q2, 64, &mut scratch);
        // Simulate: layer 0 sees q1, layer 1 speculated from q1.
        let _ = spec.select(0, &q1, layer_kv, &mut scratch);
        let spec_sel = spec.select(1, &q2, layer_kv, &mut scratch).unwrap();
        // spec_sel was computed from q1 (speculative), not q2.
        let overlap = stats::overlap_rate(&true_sel[0], &spec_sel[0]);
        assert!(overlap > 0.5, "speculation overlap {overlap}");
    }

    #[test]
    fn retains_generated_kv() {
        let (m, mut kv) = setup(32);
        let mut sel = InfiniGenSelector::preprocess(&kv, SelectorConfig::with_budget(8));
        let emb = m.embed_tokens(&[1, 2]);
        m.decode_step(emb.row(0), 32, &mut kv);
        m.decode_step(emb.row(1), 33, &mut kv);
        let g = m.geometry();
        let queries = Matrix::from_vec(g.q_heads, g.head_dim, vec![0.2; g.q_heads * g.head_dim]);
        let mut scratch = SelectScratch::new();
        let s = sel
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        assert!(s[0].contains(&32) && s[0].contains(&33));
    }

    #[test]
    fn scratch_selection_matches_reference_across_layers() {
        // Run the same multi-layer call sequence on two clones so the
        // speculative previous-queries state evolves identically.
        let (m, kv) = setup(40);
        let cfg = SelectorConfig {
            budget: 14,
            sinks: 2,
            recent: 3,
            ..SelectorConfig::with_budget(14)
        };
        let mut fast = InfiniGenSelector::preprocess(&kv, cfg);
        let mut refr = fast.clone();
        let g = m.geometry();
        let mut scratch = SelectScratch::new();
        for step in 0..3 {
            for layer in 0..g.layers {
                let vals: Vec<f32> = (0..g.q_heads * g.head_dim)
                    .map(|i| ((i * 11 + step * 5 + layer) as f32 * 0.61).sin())
                    .collect();
                let queries = Matrix::from_vec(g.q_heads, g.head_dim, vals);
                assert_eq!(
                    fast.select(layer, &queries, &kv.layers[layer], &mut scratch),
                    refr.select_reference(layer, &queries, &kv.layers[layer]),
                    "step={step} layer={layer}"
                );
            }
        }
    }
}
