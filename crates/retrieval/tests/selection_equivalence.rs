//! Property tests pinning every migrated selector's zero-allocation
//! scratch path **bit-for-bit** against its kept reference implementation
//! (the `matmul`/`matmul_naive` contract of PR 3, applied to selection):
//! same positions, same order, across random geometries, budgets, page
//! and cluster sizes, GQA group sizes, and decode growth beyond the
//! prefill. The ShadowKV/InfiniGen cases additionally sweep every
//! available SIMD dispatch tier (via `spec_tensor::dispatch::with_tier`)
//! so the LUT/batched scoring paths stay pinned to their scalar
//! references. CI runs this suite at `SPEC_THREADS=1` and in a
//! `SPEC_SIMD=scalar` lane; the selection paths are serial (the one
//! parallel path, `SpecSelection`'s per-head fan-out, was deleted, so the
//! `with_threads` sweep below compares a function with itself).

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
use spec_retrieval::spec_head::{MappingLevel, SpecSelection};
use spec_tensor::topk::{RankScratch, ScoreArena, SelectScratch};
use spec_tensor::{topk, Matrix};

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

    /// The k-way merge behind `SpecSelection::union_positions` equals the
    /// context-sized bitset it replaced — mark every head's positions,
    /// collect them ascending — over ascending per-head lists of any
    /// overlap: no head, one head, more heads than the merge keeps
    /// cursors for on the stack, empty heads and identical heads. The
    /// `_into` form overwrites whatever its buffer held.
    #[test]
    fn union_merge_matches_bitset(
        heads in prop::collection::vec(prop::collection::btree_set(0usize..300, 0..40), 0..20),
        repeat in 0usize..3,
    ) {
        let mut per_head: Vec<Vec<usize>> =
            heads.into_iter().map(|h| h.into_iter().collect()).collect();
        if let Some(first) = per_head.first().cloned() {
            per_head.extend(vec![first; repeat]);
        }
        let mut marks = topk::PosBitSet::default();
        marks.reset(300);
        per_head.iter().flatten().for_each(|&p| {
            marks.mark(p);
        });
        let want = marks.collect_sorted();
        let sel = SpecSelection { per_head, budget: 40 };
        prop_assert_eq!(&sel.union_positions(), &want);
        let mut out = vec![7; 500];
        sel.union_positions_into(&mut out);
        prop_assert_eq!(&out, &want);
    }
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

    /// SpeContext head mapping: scratch path == reference, at 1 and N
    /// worker threads, for every attention kind and both mapping levels.
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
        for threads in [1usize, 4] {
            let got = spec_parallel::with_threads(threads, || {
                SpecSelection::from_head_scores(&scores, &geom, &cfg, level)
            });
            prop_assert_eq!(&got, &want, "threads {}", threads);
        }
    }
}
