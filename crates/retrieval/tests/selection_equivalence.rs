//! Property tests pinning every migrated selector's zero-allocation
//! scratch path **bit-for-bit** against its kept reference implementation
//! (the `matmul`/`matmul_naive` contract of PR 3, applied to selection):
//! same positions, same order, across random geometries, budgets, page
//! and cluster sizes, GQA group sizes, and decode growth beyond the
//! prefill. The ShadowKV/InfiniGen cases additionally sweep every
//! available SIMD dispatch tier (via `spec_tensor::dispatch::with_tier`)
//! so the LUT/batched scoring paths stay pinned to their scalar
//! references. CI also runs this suite in a `SPEC_SIMD=scalar` lane. The
//! selection paths are serial, and ClusterKV's k-means here (under 64
//! points of dim 8) stays below its 2^17-multiply-add fan-out: only
//! `spec_tensor`'s `determinism.rs` sweeps reach that, via `with_threads`.

use proptest::prelude::*;
use spec_model::{AttentionKind, LayerSelector, Model, ModelKv, PrefillMode, SimGeometry};
use spec_retrieval::clusterkv::ClusterKvSelector;
use spec_retrieval::common::{
    assemble_baseline_selection, assemble_baseline_selection_reference,
    assemble_budgeted_selection, assemble_budgeted_selection_reference, group_max_scores,
    SelectorConfig,
};
use spec_retrieval::infinigen::InfiniGenSelector;
use spec_retrieval::quest::QuestSelector;
use spec_retrieval::shadowkv::ShadowKvSelector;
use spec_retrieval::spec_head::{union_overlap_rate, MappingLevel, SpecSelection};
use spec_tensor::topk::{RankScratch, ScoreArena, SelectScratch};
use spec_tensor::{stats, topk, Matrix};

/// Deterministic pseudo-random scores (plain code, no RNG plumbing).
fn synth_scores(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            ((i as u64).wrapping_mul(2654435761).wrapping_add(salt * 97) % 10_000) as f32
                * 0.01
                * if (i + salt as usize).is_multiple_of(3) {
                    -1.0
                } else {
                    1.0
                }
        })
        .collect()
}

fn synth_queries(geom: &SimGeometry, salt: u64) -> Matrix {
    let vals: Vec<f32> = (0..geom.q_heads * geom.head_dim)
        .map(|i| ((i as u64 * 31 + salt * 7) as f32 * 0.173).sin())
        .collect();
    Matrix::from_vec(geom.q_heads, geom.head_dim, vals)
}

fn prefilled(kind: AttentionKind, n: usize, seed: u64) -> (Model, ModelKv) {
    let model = Model::new(SimGeometry::tiny(kind), seed);
    let tokens: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % 60).collect();
    let (kv, _) = model.prefill_tokens(&tokens, PrefillMode::Exact);
    (model, kv)
}

/// Grows `kv` by `steps` decode steps so seq_len > prefill_len.
fn grow(model: &Model, kv: &mut ModelKv, steps: usize) {
    let emb = model.embed_tokens(&[1]);
    for i in 0..steps {
        let pos = kv.seq_len();
        let _ = i;
        model.decode_step(emb.row(0), pos, kv);
    }
}

fn kinds() -> [AttentionKind; 3] {
    // MLA is rejected by the layer-wise baselines (no page/cluster/shadow
    // support), matching the paper.
    [AttentionKind::Mha, AttentionKind::Gqa, AttentionKind::Mqa]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scratch-based top-k equals the argsort-prefix full-sort path.
    #[test]
    fn partial_select_matches_argsort_prefix(
        n in 1usize..400,
        k in 0usize..420,
        salt in 0u64..1000,
    ) {
        let scores = synth_scores(n, salt);
        let mut rank = RankScratch::default();
        let got = rank.top_k_desc(&scores, k).to_vec();
        let want: Vec<usize> = topk::argsort_desc(&scores)
            .into_iter()
            .take(k.min(n))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// In-place group pooling equals the allocating reference.
    #[test]
    fn pooling_matches_group_max_reference(
        heads in 1usize..9,
        group_ix in 0usize..3,
        n in 1usize..120,
        salt in 0u64..500,
    ) {
        // Pick a group size dividing the head count.
        let divisors: Vec<usize> = (1..=heads).filter(|g| heads % g == 0).collect();
        let group = divisors[group_ix % divisors.len()];
        let rows: Vec<Vec<f32>> = (0..heads)
            .map(|h| synth_scores(n, salt + h as u64))
            .collect();
        let want = group_max_scores(&rows, group);
        let mut arena = ScoreArena::default();
        for (g, pooled_want) in want.iter().enumerate() {
            arena.pool_group_max(g * group..(g + 1) * group, |m, buf| {
                buf.clear();
                buf.extend_from_slice(&rows[m]);
            });
            prop_assert_eq!(&arena.pooled, pooled_want, "group {}", g);
        }
    }

    /// Scratch assembly equals the BTreeSet reference, stats included.
    #[test]
    fn assembly_matches_reference(
        prefill in 1usize..160,
        extra in 0usize..24,
        budget in 0usize..200,
        sinks in 0usize..6,
        recent in 0usize..10,
        salt in 0u64..500,
    ) {
        let cfg = SelectorConfig {
            budget,
            sinks,
            recent,
            ..SelectorConfig::with_budget(budget.max(1))
        };
        let scores = synth_scores(prefill, salt);
        let mut scratch = SelectScratch::new();
        let got = assemble_baseline_selection(
            &scores, prefill, prefill + extra, &cfg, &mut scratch.rank, &mut scratch.marks,
        );
        let want =
            assemble_baseline_selection_reference(&scores, prefill, prefill + extra, &cfg);
        prop_assert_eq!(got, want, "baseline");

        let scores = synth_scores(prefill + extra, salt + 17);
        let got = assemble_budgeted_selection(
            &scores, prefill + extra, &cfg, &mut scratch.rank, &mut scratch.marks,
        );
        let want = assemble_budgeted_selection_reference(&scores, prefill + extra, &cfg);
        prop_assert_eq!(got, want, "budgeted");
    }

    /// `SpecSelection::union_positions` — heads OR-ed into a stack
    /// bitmap a 16 K-position window at a time — and `union_words_into`
    /// equal the k-way merge of the per-head lists they replaced: no
    /// head, one, up to 16 and beyond, empty heads and identical heads,
    /// dense (300 positions), engine-sized (~4.4 K) and several windows
    /// wide (40 K). The `_into` forms overwrite whatever their buffers
    /// held.
    #[test]
    fn union_words_match_merge(
        heads in prop::collection::vec(prop::collection::btree_set(0usize..40_000, 0..40), 0..20),
        repeat in 0usize..3,
        spread in 0usize..3,
    ) {
        let divisor = [133, 9, 1][spread];
        let mut per_head: Vec<Vec<usize>> = heads
            .into_iter()
            .map(|h| {
                let mut h: Vec<usize> = h.into_iter().map(|p| p / divisor).collect();
                h.dedup();
                h
            })
            .collect();
        if let Some(first) = per_head.first().cloned() {
            per_head.extend(vec![first; repeat]);
        }
        let want = union_merge(&per_head);
        let sel = SpecSelection { per_head, budget: 40 };
        prop_assert_eq!(&sel.union_positions(), &want);
        let mut out = vec![7; 500];
        sel.union_positions_into(&mut out);
        prop_assert_eq!(&out, &want);
        let mut words = vec![u64::MAX; 900];
        sel.union_words_into(&mut words);
        prop_assert_eq!(words.len(), want.last().map_or(0, |&p| p / 64 + 1));
        prop_assert_eq!(&positions_of(&words), &want);
    }

    /// The popcount overlap of two union bitmaps is `stats::overlap_rate`
    /// of the unions as lists, to the bits of the `f32`: adjacent
    /// selections sharing any part of their positions, a previous union
    /// longer or shorter than the current one, an empty current union
    /// (0.0) and an empty previous one (1.0).
    #[test]
    fn union_overlap_rate_matches_stats_overlap_rate(
        prev in prop::collection::vec(prop::collection::btree_set(0usize..5_000, 0..60), 0..5),
        cur in prop::collection::vec(prop::collection::btree_set(0usize..5_000, 0..60), 0..5),
        kept in 0usize..4,
    ) {
        let lists = |heads: Vec<std::collections::BTreeSet<usize>>| -> Vec<Vec<usize>> {
            heads.into_iter().map(|h| h.into_iter().collect()).collect()
        };
        let prev = SpecSelection { per_head: lists(prev), budget: 60 };
        let mut cur = SpecSelection { per_head: lists(cur), budget: 60 };
        // Carry some of the previous heads over, as adjacent steps do.
        cur.per_head.extend(prev.per_head.iter().take(kept).cloned());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        prev.union_words_into(&mut a);
        cur.union_words_into(&mut b);
        let want = stats::overlap_rate(&prev.union_positions(), &cur.union_positions());
        prop_assert_eq!(union_overlap_rate(&a, &b).to_bits(), want.to_bits());
        if a.is_empty() {
            prop_assert_eq!(union_overlap_rate(&a, &b), 1.0);
        }
    }
}

/// The union as `SpecSelection::union_positions` computed it until it
/// went to bitmaps: a k-way merge of the strictly ascending per-head
/// lists, one cursor per head.
fn union_merge(per_head: &[Vec<usize>]) -> Vec<usize> {
    let mut cursors = vec![0; per_head.len()];
    let mut out = Vec::new();
    loop {
        let heads = per_head.iter().zip(&cursors);
        let Some(next) = heads.filter_map(|(head, &c)| head.get(c)).min().copied() else {
            return out;
        };
        out.push(next);
        for (head, c) in per_head.iter().zip(cursors.iter_mut()) {
            *c += usize::from(head.get(*c) == Some(&next));
        }
    }
}

/// The positions set in a bitmap, ascending.
fn positions_of(words: &[u64]) -> Vec<usize> {
    (0..64 * words.len())
        .filter(|&p| words[p / 64] >> (p % 64) & 1 == 1)
        .collect()
}

proptest! {
    // Model-backed cases are heavier; fewer cases each, still a fresh
    // random geometry/budget/page mix every run of the env matrix.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quest: scratch selection == reference selection, bit for bit.
    #[test]
    fn quest_matches_reference(
        kind_ix in 0usize..3,
        n in 24usize..72,
        budget in 1usize..64,
        sinks in 0usize..4,
        page_size in 1usize..9,
        steps in 0usize..4,
        seed in 0u64..40,
    ) {
        let (model, mut kv) = prefilled(kinds()[kind_ix], n, seed);
        let cfg = SelectorConfig {
            budget,
            sinks,
            page_size,
            ..SelectorConfig::with_budget(budget)
        };
        let mut quest = QuestSelector::preprocess(&kv, cfg);
        grow(&model, &mut kv, steps);
        let queries = synth_queries(model.geometry(), seed);
        let mut scratch = SelectScratch::new();
        for layer in 0..model.geometry().layers {
            let got = quest.select(layer, &queries, &kv.layers[layer], &mut scratch);
            let want = quest.select_reference(layer, &queries, &kv.layers[layer]);
            prop_assert_eq!(got, want, "layer {}", layer);
        }
    }

    /// ClusterKV: scratch selection == reference selection.
    #[test]
    fn clusterkv_matches_reference(
        kind_ix in 0usize..3,
        n in 24usize..64,
        budget in 1usize..56,
        sinks in 0usize..4,
        tokens_per_cluster in 1usize..24,
        steps in 0usize..3,
        seed in 0u64..40,
    ) {
        let (model, mut kv) = prefilled(kinds()[kind_ix], n, seed);
        let cfg = SelectorConfig {
            budget,
            sinks,
            tokens_per_cluster,
            ..SelectorConfig::with_budget(budget)
        };
        let mut ckv = ClusterKvSelector::preprocess(&kv, cfg, seed);
        grow(&model, &mut kv, steps);
        let queries = synth_queries(model.geometry(), seed + 3);
        let mut scratch = SelectScratch::new();
        for layer in 0..model.geometry().layers {
            let got = ckv.select(layer, &queries, &kv.layers[layer], &mut scratch);
            let want = ckv.select_reference(layer, &queries, &kv.layers[layer]);
            prop_assert_eq!(got, want, "layer {}", layer);
        }
    }

    /// ShadowKV: scratch selection == reference selection.
    #[test]
    fn shadowkv_matches_reference(
        kind_ix in 0usize..3,
        n in 24usize..64,
        budget in 1usize..56,
        sinks in 0usize..4,
        recent in 0usize..8,
        steps in 0usize..3,
        seed in 0u64..40,
    ) {
        let (model, mut kv) = prefilled(kinds()[kind_ix], n, seed);
        let cfg = SelectorConfig {
            budget,
            sinks,
            recent,
            ..SelectorConfig::with_budget(budget)
        };
        let mut skv = ShadowKvSelector::preprocess(&kv, cfg);
        grow(&model, &mut kv, steps);
        let queries = synth_queries(model.geometry(), seed + 5);
        let mut scratch = SelectScratch::new();
        for layer in 0..model.geometry().layers {
            let want = skv.select_reference(layer, &queries, &kv.layers[layer]);
            // The LUT scoring path must agree at every SIMD tier, not
            // just the ambient one (select is stateless across calls).
            for &tier in spec_tensor::dispatch::available_tiers() {
                let got = spec_tensor::dispatch::with_tier(tier, || {
                    skv.select(layer, &queries, &kv.layers[layer], &mut scratch)
                });
                prop_assert_eq!(got, want.clone(), "layer {} tier {}", layer, tier);
            }
        }
    }

    /// InfiniGen: identical call sequences on two clones (the speculative
    /// previous-queries state must evolve identically) stay bit-equal.
    #[test]
    fn infinigen_matches_reference(
        kind_ix in 0usize..3,
        n in 24usize..64,
        budget in 1usize..48,
        steps in 1usize..4,
        seed in 0u64..40,
    ) {
        let (model, kv) = prefilled(kinds()[kind_ix], n, seed);
        let cfg = SelectorConfig {
            budget,
            sinks: 2,
            recent: 2,
            ..SelectorConfig::with_budget(budget)
        };
        let refr0 = InfiniGenSelector::preprocess(&kv, cfg);
        // One fast clone per SIMD tier: the speculative previous-queries
        // state is mutated by select, so each tier steps its own copy
        // through the identical call sequence.
        let mut lanes: Vec<_> = spec_tensor::dispatch::available_tiers()
            .iter()
            .map(|&tier| (tier, refr0.clone(), SelectScratch::new()))
            .collect();
        let mut refr = refr0;
        for step in 0..steps {
            for layer in 0..model.geometry().layers {
                let queries = synth_queries(model.geometry(), seed + (step * 11 + layer) as u64);
                let want = refr.select_reference(layer, &queries, &kv.layers[layer]);
                for (tier, fast, scratch) in &mut lanes {
                    let got = spec_tensor::dispatch::with_tier(*tier, || {
                        fast.select(layer, &queries, &kv.layers[layer], scratch)
                    });
                    prop_assert_eq!(
                        got, want.clone(),
                        "step {} layer {} tier {}", step, layer, tier
                    );
                }
            }
        }
    }

    /// SpeContext head mapping: scratch path == reference, for every
    /// attention kind and both mapping levels.
    #[test]
    fn spec_head_matches_reference(
        kind_ix in 0usize..4,
        n in 16usize..200,
        budget in 1usize..64,
        level_ix in 0usize..2,
        seed in 0u64..40,
    ) {
        let kind = [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ][kind_ix];
        let geom = SimGeometry::tiny(kind);
        let level = [MappingLevel::Head, MappingLevel::Batch][level_ix];
        let cfg = SelectorConfig {
            budget,
            sinks: 2,
            recent: 2,
            ..SelectorConfig::with_budget(budget)
        };
        let scores: Vec<Vec<f32>> = (0..geom.q_heads)
            .map(|h| synth_scores(n, seed + h as u64))
            .collect();
        let want = SpecSelection::from_head_scores_reference(&scores, &geom, &cfg, level);
        let got = SpecSelection::from_head_scores(&scores, &geom, &cfg, level);
        prop_assert_eq!(&got, &want);
    }
}
