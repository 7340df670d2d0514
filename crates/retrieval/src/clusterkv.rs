//! ClusterKV: retrieval over semantic clusters of keys (Liu et al., 2024).
//!
//! Preprocessing (after prefill): k-means cluster each head's key cache;
//! the cluster centroids act as retrieval representatives. At decode time
//! a query scores all centroids, clusters are ranked, and members of the
//! best clusters are selected until the budget fills. Finer-grained than
//! Quest's positional pages, hence its accuracy edge at small budgets
//! (paper Fig. 8), at the cost of a much heavier preprocessing step.
//!
//! The selection path runs on the [`SelectScratch`] arenas (pooled
//! centroid scores, partial cluster ranking, bitset accumulation);
//! [`ClusterKvSelector::select_reference`] keeps the original
//! `BTreeSet`-plus-argsort path for property pinning.

use crate::common::{group_max_scores, mark_budgeted_group_walk, SelectorConfig};
use spec_model::{LayerKv, LayerSelector, ModelKv};
use spec_tensor::kmeans::{kmeans, KMeans, KMeansConfig};
use spec_tensor::topk::{PosBitSet, RankScratch, SelectScratch};
use spec_tensor::{Matrix, SimRng};
use std::collections::BTreeSet;

/// The ClusterKV selector. Build with [`ClusterKvSelector::preprocess`].
#[derive(Debug, Clone)]
pub struct ClusterKvSelector {
    cfg: SelectorConfig,
    /// `clusters[layer][kv_head]`.
    clusters: Vec<Vec<KMeans>>,
    prefill_len: usize,
}

impl ClusterKvSelector {
    /// Clusters the prefill KV cache. Deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics on latent (MLA) layouts, which ClusterKV does not support.
    pub fn preprocess(kv: &ModelKv, cfg: SelectorConfig, seed: u64) -> Self {
        let prefill_len = kv.seq_len();
        let k = (prefill_len / cfg.tokens_per_cluster.max(1)).max(1);
        let mut rng = SimRng::seed(seed);
        let clusters = kv
            .layers
            .iter()
            .map(|layer| match layer {
                LayerKv::PerHead { keys, .. } => keys
                    .iter()
                    .map(|keys| {
                        kmeans(
                            keys,
                            KMeansConfig {
                                k,
                                max_iters: 15,
                                tol: 1e-3,
                            },
                            &mut rng,
                        )
                    })
                    .collect(),
                LayerKv::Latent { .. } => panic!("ClusterKV does not support MLA layouts"),
            })
            .collect();
        Self {
            cfg,
            clusters,
            prefill_len,
        }
    }

    /// Walks clusters in descending score order, inserting members until
    /// the position budget fills (the final cluster is truncated
    /// mid-member-list). The shared [`mark_budgeted_group_walk`] handles
    /// the candidate-prefix ranking, with the initial estimate sized by
    /// the average cluster population (uneven cluster sizes just trigger
    /// its doubling retry).
    fn select_head(
        &self,
        km: &KMeans,
        cluster_scores: &[f32],
        seq_len: usize,
        rank: &mut RankScratch,
        marks: &mut PosBitSet,
    ) -> Vec<usize> {
        let budget = self.cfg.budget.min(self.prefill_len);
        let per_cluster = self.cfg.tokens_per_cluster.max(1);
        mark_budgeted_group_walk(
            cluster_scores,
            budget,
            budget.div_ceil(per_cluster) + 2,
            seq_len.max(self.prefill_len),
            self.cfg.sinks.min(self.prefill_len),
            rank,
            marks,
            |cluster| km.clusters[cluster].iter().copied(),
        );
        for pos in self.prefill_len..seq_len {
            marks.mark(pos);
        }
        marks.collect_sorted()
    }

    /// The original selection path, kept as the property-test reference.
    pub fn select_reference(
        &self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
    ) -> Option<Vec<Vec<usize>>> {
        let heads = &self.clusters[layer];
        let group = (queries.rows() / heads.len()).max(1);
        let seq_len = kv.seq_len();
        Some(
            heads
                .iter()
                .enumerate()
                .map(|(hh, km)| {
                    let per_q: Vec<Vec<f32>> = (hh * group..(hh + 1) * group)
                        .map(|q| {
                            km.centroids
                                .iter_rows()
                                .map(|c| spec_tensor::matrix::dot(queries.row(q), c))
                                .collect()
                        })
                        .collect();
                    let pooled = group_max_scores(&per_q, group)[0].clone();
                    self.select_head_reference(km, &pooled, seq_len)
                })
                .collect(),
        )
    }

    fn select_head_reference(
        &self,
        km: &KMeans,
        cluster_scores: &[f32],
        seq_len: usize,
    ) -> Vec<usize> {
        let order = spec_tensor::topk::argsort_desc(cluster_scores);
        let mut picked: BTreeSet<usize> = BTreeSet::new();
        for p in 0..self.cfg.sinks.min(self.prefill_len) {
            picked.insert(p);
        }
        let budget = self.cfg.budget.min(self.prefill_len);
        'outer: for cluster in order {
            for &member in &km.clusters[cluster] {
                if picked.len() >= budget {
                    break 'outer;
                }
                picked.insert(member);
            }
        }
        for pos in self.prefill_len..seq_len {
            picked.insert(pos);
        }
        picked.into_iter().collect()
    }
}

impl LayerSelector for ClusterKvSelector {
    fn select(
        &mut self,
        layer: usize,
        queries: &Matrix,
        kv: &LayerKv,
        scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        let heads = &self.clusters[layer];
        let group = (queries.rows() / heads.len()).max(1);
        let seq_len = kv.seq_len();
        let SelectScratch {
            scores,
            rank,
            marks,
            ..
        } = scratch;
        let this = &*self;
        Some(
            heads
                .iter()
                .enumerate()
                .map(|(hh, km)| {
                    // Centroid scores per query head, pooled in place.
                    scores.pool_group_max(hh * group..(hh + 1) * group, |q, buf| {
                        let query = queries.row(q);
                        buf.clear();
                        buf.extend(
                            km.centroids
                                .iter_rows()
                                .map(|c| spec_tensor::matrix::dot(query, c)),
                        );
                    });
                    this.select_head(km, &scores.pooled, seq_len, rank, marks)
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
        let m = Model::new(geom, 31);
        let toks: Vec<usize> = (0..n).map(|i| i % 60).collect();
        let (kv, _) = m.prefill_tokens(&toks, PrefillMode::Exact);
        (m, kv)
    }

    fn uniform_queries(m: &Model, v: f32) -> Matrix {
        let g = m.geometry();
        Matrix::from_vec(g.q_heads, g.head_dim, vec![v; g.q_heads * g.head_dim])
    }

    #[test]
    fn budget_respected_and_sorted() {
        let (m, kv) = setup(64);
        let cfg = SelectorConfig::with_budget(12);
        let mut ckv = ClusterKvSelector::preprocess(&kv, cfg, 7);
        let queries = uniform_queries(&m, 0.3);
        let mut scratch = SelectScratch::new();
        let sel = ckv
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        for head in &sel {
            assert!(head.len() <= 12);
            assert!(head.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn whole_clusters_are_preferred() {
        // A query equal to a key should pull in that key's cluster first.
        let (m, kv) = setup(48);
        let cfg = SelectorConfig {
            budget: 24,
            sinks: 0,
            ..SelectorConfig::with_budget(24)
        };
        let mut ckv = ClusterKvSelector::preprocess(&kv, cfg, 7);
        let key7: Vec<f32> = match &kv.layers[0] {
            spec_model::LayerKv::PerHead { keys, .. } => keys[0].row(7).to_vec(),
            _ => unreachable!(),
        };
        let g = m.geometry();
        let rows: Vec<&[f32]> = (0..g.q_heads).map(|_| key7.as_slice()).collect();
        let queries = Matrix::from_rows(&rows);
        let mut scratch = SelectScratch::new();
        let sel = ckv
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        assert!(sel[0].contains(&7), "own cluster must be selected");
    }

    #[test]
    fn retains_generated_tokens() {
        let (m, mut kv) = setup(32);
        let mut ckv = ClusterKvSelector::preprocess(&kv, SelectorConfig::with_budget(8), 3);
        let emb = m.embed_tokens(&[5, 6]);
        m.decode_step(emb.row(0), 32, &mut kv);
        m.decode_step(emb.row(1), 33, &mut kv);
        let queries = uniform_queries(&m, 0.0);
        let mut scratch = SelectScratch::new();
        let sel = ckv
            .select(0, &queries, &kv.layers[0], &mut scratch)
            .unwrap();
        assert!(sel[0].contains(&32) && sel[0].contains(&33));
    }

    #[test]
    fn deterministic_given_seed() {
        let (m, kv) = setup(40);
        let a = ClusterKvSelector::preprocess(&kv, SelectorConfig::with_budget(8), 11);
        let b = ClusterKvSelector::preprocess(&kv, SelectorConfig::with_budget(8), 11);
        let queries = uniform_queries(&m, 0.5);
        let mut a = a;
        let mut b = b;
        let mut scratch = SelectScratch::new();
        assert_eq!(
            a.select(0, &queries, &kv.layers[0], &mut scratch),
            b.select(0, &queries, &kv.layers[0], &mut scratch)
        );
    }

    #[test]
    fn scratch_selection_matches_reference() {
        let (m, kv) = setup(56);
        // Grow a second cache beyond the prefill so the retained-new
        // region is exercised too.
        let mut grown = kv.clone();
        let emb = m.embed_tokens(&[9, 4]);
        m.decode_step(emb.row(0), 56, &mut grown);
        m.decode_step(emb.row(1), 57, &mut grown);
        for (budget, sinks, tpc) in [(6, 0, 4), (13, 2, 16), (40, 3, 7), (80, 1, 16)] {
            let cfg = SelectorConfig {
                budget,
                sinks,
                tokens_per_cluster: tpc,
                ..SelectorConfig::with_budget(budget)
            };
            let mut ckv = ClusterKvSelector::preprocess(&kv, cfg, 5);
            let g = m.geometry();
            let vals: Vec<f32> = (0..g.q_heads * g.head_dim)
                .map(|i| ((i * 17 + budget) as f32 * 0.43).cos())
                .collect();
            let queries = Matrix::from_vec(g.q_heads, g.head_dim, vals);
            let mut scratch = SelectScratch::new();
            for layer in 0..g.layers {
                assert_eq!(
                    ckv.select(layer, &queries, &grown.layers[layer], &mut scratch),
                    ckv.select_reference(layer, &queries, &grown.layers[layer]),
                    "budget={budget} tpc={tpc} layer={layer}"
                );
            }
        }
    }
}
