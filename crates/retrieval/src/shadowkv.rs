//! ShadowKV: quantized-key retrieval with offloaded values
//! (Sun et al., 2024).
//!
//! Preprocessing (after prefill): quantize each head's key cache to int4
//! (the "shadow" of the keys kept on GPU); the full-precision values are
//! offloaded. At decode time the query scores the quantized keys directly
//! (a cheap fused dot), the top positions are selected, and only those
//! values are fetched — plus a key reconstruction step that the dataflow
//! model (Fig. 7(d)) accounts for.
//!
//! Scoring pools into the [`SelectScratch`] arena and assembly runs on
//! the scratch-based `assemble_baseline_selection`;
//! [`ShadowKvSelector::select_reference`] keeps the original allocating
//! path for property pinning.

use crate::common::{
    assemble_baseline_selection, assemble_baseline_selection_reference, group_max_scores,
    SelectorConfig,
};
use spec_model::{LayerKv, LayerSelector, ModelKv};
use spec_tensor::lut::QueryLut;
use spec_tensor::quant::{BitWidth, QuantVec};
use spec_tensor::topk::SelectScratch;
use spec_tensor::Matrix;

/// The ShadowKV selector. Build with [`ShadowKvSelector::preprocess`].
#[derive(Debug, Clone)]
pub struct ShadowKvSelector {
    cfg: SelectorConfig,
    /// `shadow[layer][kv_head][pos]`: quantized key per position.
    shadow: Vec<Vec<Vec<QuantVec>>>,
    prefill_len: usize,
    /// Per-query int4 lookup table, rebuilt (allocation-free once warm)
    /// for each scored query head — see `spec_tensor::lut` for the cost
    /// model; the shadow holds thousands of keys per head, so the table
    /// build amortizes immediately.
    lut: QueryLut,
}

impl ShadowKvSelector {
    /// Quantizes the prefill key caches to int4.
    ///
    /// # Panics
    ///
    /// Panics on latent (MLA) layouts, which ShadowKV does not support.
    pub fn preprocess(kv: &ModelKv, cfg: SelectorConfig) -> Self {
        let prefill_len = kv.seq_len();
        let shadow = kv
            .layers
            .iter()
            .map(|layer| match layer {
                LayerKv::PerHead { keys, .. } => keys
                    .iter()
                    .map(|k| {
                        k.iter_rows()
                            .map(|row| QuantVec::quantize(row, BitWidth::Int4))
                            .collect()
                    })
                    .collect(),
                LayerKv::Latent { .. } => panic!("ShadowKV does not support MLA layouts"),
            })
            .collect();
        Self {
            cfg,
            shadow,
            prefill_len,
            lut: QueryLut::default(),
        }
    }

    /// The original selection path, kept as the property-test reference.
    pub fn select_reference(
        &self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
    ) -> Option<Vec<Vec<usize>>> {
        let heads = &self.shadow[layer];
        let group = (queries.rows() / heads.len()).max(1);
        let seq_len = kv.seq_len();
        Some(
            heads
                .iter()
                .enumerate()
                .map(|(hh, qkeys)| {
                    let per_q: Vec<Vec<f32>> = (hh * group..(hh + 1) * group)
                        .map(|q| {
                            qkeys
                                .iter()
                                .map(|k| k.dot_reference(queries.row(q)))
                                .collect()
                        })
                        .collect();
                    let pooled = group_max_scores(&per_q, group)[0].clone();
                    let (sel, _) = assemble_baseline_selection_reference(
                        &pooled,
                        self.prefill_len,
                        seq_len,
                        &self.cfg,
                    );
                    sel
                })
                .collect(),
        )
    }
}

impl LayerSelector for ShadowKvSelector {
    fn select(
        &mut self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
        scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        // Destructure for disjoint borrows: the shadow keys are read
        // while the LUT rebuilds per query head.
        let Self {
            cfg,
            shadow,
            prefill_len,
            lut,
        } = self;
        let heads = &shadow[layer];
        let group = (queries.rows() / heads.len()).max(1);
        let seq_len = kv.seq_len();
        let SelectScratch {
            scores,
            rank,
            marks,
            ..
        } = scratch;
        let prefill_len = *prefill_len;
        Some(
            heads
                .iter()
                .enumerate()
                .map(|(hh, qkeys)| {
                    // LUT-quantized scoring per query head, pooled in
                    // place: one table build per query, then a gather
                    // per (key, element) — bit-identical to the
                    // reference's per-key `dot_reference`.
                    scores.pool_group_max(hh * group..(hh + 1) * group, |q, buf| {
                        lut.rebuild(queries.row(q));
                        lut.scores_into(qkeys, buf);
                    });
                    let (sel, _) = assemble_baseline_selection(
                        &scores.pooled,
                        prefill_len,
                        seq_len,
                        cfg,
                        rank,
                        marks,
                    );
                    sel
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
        let m = Model::new(geom, 41);
        let toks: Vec<usize> = (0..n).map(|i| i % 60).collect();
        let (kv, _) = m.prefill_tokens(&toks, PrefillMode::Exact);
        (m, kv)
    }

    #[test]
    fn quantized_scores_track_exact_topk() {
        let (m, kv) = setup(48);
        let cfg = SelectorConfig {
            budget: 12,
            sinks: 0,
            recent: 0,
            ..SelectorConfig::with_budget(12)
        };
        let mut skv = ShadowKvSelector::preprocess(&kv, cfg);
        let (keys0, g) = match &kv.layers[0] {
            spec_model::LayerKv::PerHead { keys, .. } => (keys[0].clone(), m.geometry()),
            _ => unreachable!(),
        };
        let query = keys0.row(17).to_vec();
        let rows: Vec<&[f32]> = (0..g.q_heads).map(|_| query.as_slice()).collect();
        let queries = Matrix::from_rows(&rows);
        let mut scratch = SelectScratch::new();
        let sel = skv
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        // The exact top-1 position for this query is position 17 itself;
        // int4 scoring must keep it in the selection.
        assert!(sel[0].contains(&17));
    }

    #[test]
    fn budget_and_retention_semantics() {
        let (m, mut kv) = setup(32);
        let cfg = SelectorConfig::with_budget(10);
        let mut skv = ShadowKvSelector::preprocess(&kv, cfg);
        let emb = m.embed_tokens(&[2, 3, 4]);
        for i in 0..3 {
            m.decode_step(emb.row(i), 32 + i, &mut kv);
        }
        let g = m.geometry();
        let queries = Matrix::from_vec(g.q_heads, g.head_dim, vec![0.1; g.q_heads * g.head_dim]);
        let mut scratch = SelectScratch::new();
        let sel = skv
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        for head in &sel {
            assert!(head.contains(&32) && head.contains(&34));
            // Budget bounds the prefix part only.
            let prefix_count = head.iter().filter(|&&p| p < 32).count();
            assert!(prefix_count <= 10 + cfg.sinks + cfg.recent);
        }
    }

    #[test]
    fn scratch_selection_matches_reference() {
        let (m, kv) = setup(40);
        let mut grown = kv.clone();
        let emb = m.embed_tokens(&[2, 9]);
        m.decode_step(emb.row(0), 40, &mut grown);
        m.decode_step(emb.row(1), 41, &mut grown);
        for (budget, sinks, recent) in [(5, 0, 0), (12, 2, 3), (33, 4, 8), (64, 1, 2)] {
            let cfg = SelectorConfig {
                budget,
                sinks,
                recent,
                ..SelectorConfig::with_budget(budget)
            };
            let mut skv = ShadowKvSelector::preprocess(&kv, cfg);
            let g = m.geometry();
            let vals: Vec<f32> = (0..g.q_heads * g.head_dim)
                .map(|i| ((i * 23 + budget) as f32 * 0.37).sin())
                .collect();
            let queries = Matrix::from_vec(g.q_heads, g.head_dim, vals);
            let mut scratch = SelectScratch::new();
            for layer in 0..g.layers {
                assert_eq!(
                    skv.select(layer, &queries, &grown.layers[layer], &mut scratch),
                    skv.select_reference(layer, &queries, &grown.layers[layer]),
                    "budget={budget} layer={layer}"
                );
            }
        }
    }

    #[test]
    fn shadow_is_much_smaller_than_full_keys() {
        let (m, kv) = setup(64);
        let skv = ShadowKvSelector::preprocess(&kv, SelectorConfig::default());
        let g = m.geometry();
        // At the tiny head_dim (8) the per-vector scale dominates; at the
        // real head_dim (128) int4 shadows are ~7.5x smaller. Assert the
        // direction here and the real ratio arithmetically.
        let full_bytes = g.layers * g.kv_heads * 64 * g.head_dim * 4;
        let shadow_bytes: usize = skv
            .shadow
            .iter()
            .flatten()
            .flatten()
            .map(QuantVec::storage_bytes)
            .sum();
        assert!(
            shadow_bytes * 2 <= full_bytes,
            "shadow {shadow_bytes} vs full {full_bytes}"
        );
        let real_shadow = spec_tensor::quant::BitWidth::Int4.storage_bytes(128) + 4;
        assert!(real_shadow * 7 < 128 * 4);
    }
}
