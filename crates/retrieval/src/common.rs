//! Shared selection plumbing: budgets, forced positions, assembly.
//!
//! The assembly functions are the inner loop of every selector: they run
//! per decode step, per layer, per KV head. They are written against the
//! [`SelectScratch`](spec_tensor::topk::SelectScratch) arenas and
//! allocate nothing but the returned position vector. A selection is a
//! *set*: the forced positions are the two ends of the scored range, so
//! the rest is "the best `k` of the contiguous middle", which
//! [`RankScratch::mark_top_k`] marks straight into the bitset from a
//! score threshold — no ranking, no sort. Only the page / cluster walk
//! ([`mark_budgeted_group_walk`]) needs its candidates in order.
//! The original tree-based implementations are kept as `*_reference`
//! functions (the `matmul`/`matmul_naive` contract of PR 3): property
//! tests pin the rewritten paths to them bit-for-bit.

use serde::{Deserialize, Serialize};
use spec_tensor::topk;
use spec_tensor::topk::{PosBitSet, RankScratch};
use std::collections::BTreeSet;

/// Configuration shared by all budgeted selectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// KV budget `B`: positions retrieved from the (preprocessed) prefix.
    pub budget: usize,
    /// Always-kept initial positions (attention sinks).
    pub sinks: usize,
    /// Always-kept most recent positions.
    pub recent: usize,
    /// Quest page size.
    pub page_size: usize,
    /// ClusterKV: average tokens per cluster.
    pub tokens_per_cluster: usize,
}

impl SelectorConfig {
    /// A config with the given budget and conventional defaults
    /// (4 sinks, 8 recent, 16-token pages, 16-token clusters).
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            sinks: 4,
            recent: 8,
            page_size: 16,
            tokens_per_cluster: 16,
        }
    }
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self::with_budget(1024)
    }
}

/// Statistics about a produced selection (for transfer accounting and
/// Fig. 6(b)-style overlap analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SelectionStats {
    /// Positions selected from the preprocessed prefix.
    pub from_prefix: usize,
    /// Retained newly generated positions.
    pub retained_new: usize,
    /// Forced sink/recent positions.
    pub forced: usize,
}

/// Assembles a baseline's per-head selection (dynamic-selection paradigm):
/// sinks ∪ top-(B − |forced|) of `prefix_scores` ∪ all generated positions
/// (`prefill_len..seq_len`) — the "complete retention of new KV" behaviour
/// the paper identifies as Challenge 2.
///
/// Runs on the caller's scratch arenas (`mark_forced_and_best`); the
/// sorted selection is assembled by one pass over the bitset words.
/// Output is bit-identical to [`assemble_baseline_selection_reference`].
///
/// `prefix_scores.len()` must equal `prefill_len`.
pub fn assemble_baseline_selection(
    prefix_scores: &[f32],
    prefill_len: usize,
    seq_len: usize,
    cfg: &SelectorConfig,
    rank: &mut RankScratch,
    marks: &mut PosBitSet,
) -> (Vec<usize>, SelectionStats) {
    assert_eq!(prefix_scores.len(), prefill_len, "score length mismatch");
    marks.reset(seq_len.max(prefill_len));
    // The recent prefix tail is only meaningful right after prefill.
    let (forced, from_prefix) = mark_forced_and_best(prefix_scores, cfg, rank, marks);
    // Complete retention of newly generated KV pairs.
    let retained_new = seq_len.saturating_sub(prefill_len);
    for p in prefill_len..seq_len {
        marks.mark(p);
    }
    (
        marks.collect_sorted(),
        SelectionStats {
            from_prefix,
            retained_new,
            forced,
        },
    )
}

/// Assembles SpeContext's selection: a *fixed total budget* over the whole
/// cache (prefix and generated alike — no unbounded retention), with sinks
/// and recency forced inside the budget. Scratch-based; bit-identical to
/// [`assemble_budgeted_selection_reference`].
pub fn assemble_budgeted_selection(
    scores: &[f32],
    seq_len: usize,
    cfg: &SelectorConfig,
    rank: &mut RankScratch,
    marks: &mut PosBitSet,
) -> (Vec<usize>, SelectionStats) {
    assert_eq!(scores.len(), seq_len, "score length mismatch");
    marks.reset(seq_len);
    let (forced, from_scores) = mark_forced_and_best(scores, cfg, rank, marks);
    (
        marks.collect_sorted(),
        SelectionStats {
            from_prefix: from_scores,
            retained_new: 0,
            forced,
        },
    )
}

/// Marks the forced ends of the scored range — `cfg.sinks` positions at
/// its start, `cfg.recent` at its end — then the best
/// `cfg.budget - forced` of the positions between them (larger score
/// first, ties toward the smaller index; all of them if there are fewer).
/// Returns `(forced, marked from the middle)`.
///
/// This is what walking the whole range in descending score order and
/// marking fresh positions until the budget fills selects: the forced
/// ends are already marked, so the walk's fresh positions are the middle's
/// in rank order.
fn mark_forced_and_best(
    scores: &[f32],
    cfg: &SelectorConfig,
    rank: &mut RankScratch,
    marks: &mut PosBitSet,
) -> (usize, usize) {
    let len = scores.len();
    let lo = cfg.sinks.min(len);
    let hi = (len - cfg.recent.min(len)).max(lo);
    for p in (0..lo).chain(hi..len) {
        marks.mark(p);
    }
    let forced = lo + (len - hi);
    let best = rank.mark_top_k(
        &scores[lo..hi],
        lo,
        cfg.budget.saturating_sub(forced),
        marks,
    );
    (forced, best)
}

/// Budgeted walk over ranked position *groups* (Quest pages, ClusterKV
/// clusters): after pre-marking the `sinks` initial positions, groups are
/// visited in descending score order and their member positions marked
/// until the position budget fills — the final group is truncated
/// mid-member-list, exactly like the `BTreeSet` references.
///
/// The walk ranks only a partial selection of the group scores, starting
/// from `initial_candidates` and doubling whenever already-marked members
/// or a short final group leave the budget unfilled. Re-walking a longer
/// prefix reproduces the shorter walk exactly (the ranking is a total
/// order), so the result is independent of the starting estimate.
///
/// `members(g)` yields group `g`'s positions; the caller collects the
/// marks (typically after also marking the retained-new tail).
#[allow(clippy::too_many_arguments)]
pub fn mark_budgeted_group_walk<I: Iterator<Item = usize>>(
    group_scores: &[f32],
    budget: usize,
    initial_candidates: usize,
    reset_len: usize,
    sinks: usize,
    rank: &mut RankScratch,
    marks: &mut PosBitSet,
    mut members: impl FnMut(usize) -> I,
) {
    let num_groups = group_scores.len();
    let mut candidates = initial_candidates.max(1).min(num_groups);
    loop {
        marks.reset(reset_len);
        for p in 0..sinks {
            marks.mark(p);
        }
        'walk: for &group in rank.top_k_desc(group_scores, candidates) {
            for pos in members(group) {
                if marks.count() >= budget {
                    break 'walk;
                }
                marks.mark(pos);
            }
        }
        if marks.count() >= budget || candidates >= num_groups {
            break;
        }
        candidates = (candidates * 2).min(num_groups);
    }
}

/// The original `BTreeSet`-plus-argsort baseline assembly, kept as the
/// reference the scratch path is property-pinned against.
pub fn assemble_baseline_selection_reference(
    prefix_scores: &[f32],
    prefill_len: usize,
    seq_len: usize,
    cfg: &SelectorConfig,
) -> (Vec<usize>, SelectionStats) {
    assert_eq!(prefix_scores.len(), prefill_len, "score length mismatch");
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    for p in 0..cfg.sinks.min(prefill_len) {
        picked.insert(p);
    }
    let recent_lo = prefill_len.saturating_sub(cfg.recent.min(prefill_len));
    for p in recent_lo..prefill_len {
        picked.insert(p);
    }
    let forced = picked.len();
    let remaining = cfg.budget.saturating_sub(forced);
    let mut from_prefix = 0;
    for idx in topk::argsort_desc(prefix_scores) {
        if from_prefix >= remaining {
            break;
        }
        if picked.insert(idx) {
            from_prefix += 1;
        }
    }
    let retained_new = seq_len.saturating_sub(prefill_len);
    for p in prefill_len..seq_len {
        picked.insert(p);
    }
    (
        picked.into_iter().collect(),
        SelectionStats {
            from_prefix,
            retained_new,
            forced,
        },
    )
}

/// The original `BTreeSet`-plus-argsort budgeted assembly (reference).
pub fn assemble_budgeted_selection_reference(
    scores: &[f32],
    seq_len: usize,
    cfg: &SelectorConfig,
) -> (Vec<usize>, SelectionStats) {
    assert_eq!(scores.len(), seq_len, "score length mismatch");
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    for p in 0..cfg.sinks.min(seq_len) {
        picked.insert(p);
    }
    let recent_lo = seq_len.saturating_sub(cfg.recent.min(seq_len));
    for p in recent_lo..seq_len {
        picked.insert(p);
    }
    let forced = picked.len();
    let mut from_scores = 0;
    for idx in topk::argsort_desc(scores) {
        if picked.len() >= cfg.budget.min(seq_len) {
            break;
        }
        if picked.insert(idx) {
            from_scores += 1;
        }
    }
    (
        picked.into_iter().collect(),
        SelectionStats {
            from_prefix: from_scores,
            retained_new: 0,
            forced,
        },
    )
}

/// Reduces per-query-head scores to per-KV-head scores by element-wise
/// maximum within each group (the GQA reduction of paper Fig. 5(c);
/// for MHA `group == 1` this is the identity, for MQA it pools all heads).
///
/// This is the allocating reference; the hot path pools in place via
/// [`ScoreArena::pool_group_max`](spec_tensor::topk::ScoreArena::pool_group_max),
/// which folds members in the same order and is pinned against this.
///
/// # Panics
///
/// Panics if `q_scores` is empty or not a multiple of `group`.
pub fn group_max_scores(q_scores: &[Vec<f32>], group: usize) -> Vec<Vec<f32>> {
    assert!(!q_scores.is_empty(), "need at least one head");
    assert_eq!(q_scores.len() % group, 0, "heads not divisible by group");
    q_scores
        .chunks(group)
        .map(|chunk| {
            let mut acc = chunk[0].clone();
            for s in &chunk[1..] {
                for (a, b) in acc.iter_mut().zip(s) {
                    *a = a.max(*b);
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_tensor::topk::SelectScratch;

    fn assemble_baseline(
        scores: &[f32],
        prefill: usize,
        seq: usize,
        cfg: &SelectorConfig,
    ) -> (Vec<usize>, SelectionStats) {
        let mut s = SelectScratch::new();
        assemble_baseline_selection(scores, prefill, seq, cfg, &mut s.rank, &mut s.marks)
    }

    fn assemble_budgeted(
        scores: &[f32],
        seq: usize,
        cfg: &SelectorConfig,
    ) -> (Vec<usize>, SelectionStats) {
        let mut s = SelectScratch::new();
        assemble_budgeted_selection(scores, seq, cfg, &mut s.rank, &mut s.marks)
    }

    #[test]
    fn baseline_keeps_sinks_topk_and_new() {
        let cfg = SelectorConfig {
            budget: 6,
            sinks: 2,
            recent: 0,
            ..SelectorConfig::with_budget(6)
        };
        let scores = vec![0.0, 0.0, 0.9, 0.1, 0.8, 0.2, 0.0, 0.0];
        let (sel, stats) = assemble_baseline(&scores, 8, 11, &cfg);
        // sinks {0,1}, top-4 {2,4,5,3}, new {8,9,10}
        assert!(sel.contains(&0) && sel.contains(&1));
        assert!(sel.contains(&2) && sel.contains(&4));
        assert!(sel.contains(&8) && sel.contains(&10));
        assert_eq!(stats.retained_new, 3);
        assert!(sel.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn baseline_selection_grows_with_generation() {
        let cfg = SelectorConfig::with_budget(4);
        let scores = vec![0.5; 16];
        let (short, _) = assemble_baseline(&scores, 16, 20, &cfg);
        let (long, _) = assemble_baseline(&scores, 16, 40, &cfg);
        assert_eq!(long.len() - short.len(), 20);
    }

    #[test]
    fn budgeted_selection_respects_fixed_budget() {
        let cfg = SelectorConfig {
            budget: 8,
            sinks: 2,
            recent: 2,
            ..SelectorConfig::with_budget(8)
        };
        let scores: Vec<f32> = (0..50).map(|i| (i % 7) as f32).collect();
        let (sel, _) = assemble_budgeted(&scores, 50, &cfg);
        assert_eq!(sel.len(), 8);
        assert!(sel.contains(&0) && sel.contains(&1), "sinks kept");
        assert!(sel.contains(&48) && sel.contains(&49), "recent kept");
    }

    #[test]
    fn budgeted_selection_caps_at_seq_len() {
        let cfg = SelectorConfig::with_budget(100);
        let scores = vec![1.0; 10];
        let (sel, _) = assemble_budgeted(&scores, 10, &cfg);
        assert_eq!(sel.len(), 10);
    }

    #[test]
    fn scratch_assembly_matches_reference_exactly() {
        // Deterministic pseudo-random scores; sweep budgets and splits.
        let scores: Vec<f32> = (0..96)
            .map(|i| ((i * 37 + 11) as f32 * 0.71).sin())
            .collect();
        let mut scratch = SelectScratch::new();
        for budget in [0, 1, 3, 8, 40, 96, 200] {
            for (sinks, recent) in [(0, 0), (2, 3), (6, 8)] {
                let cfg = SelectorConfig {
                    budget,
                    sinks,
                    recent,
                    ..SelectorConfig::with_budget(budget)
                };
                for seq in [96, 100, 130] {
                    let got = assemble_baseline_selection(
                        &scores,
                        96,
                        seq,
                        &cfg,
                        &mut scratch.rank,
                        &mut scratch.marks,
                    );
                    let want = assemble_baseline_selection_reference(&scores, 96, seq, &cfg);
                    assert_eq!(got, want, "baseline budget={budget} seq={seq}");
                }
                let got = assemble_budgeted_selection(
                    &scores,
                    96,
                    &cfg,
                    &mut scratch.rank,
                    &mut scratch.marks,
                );
                let want = assemble_budgeted_selection_reference(&scores, 96, &cfg);
                assert_eq!(got, want, "budgeted budget={budget}");
            }
        }
    }

    #[test]
    fn group_max_pools_within_groups() {
        let qs = vec![
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![5.0, 0.0],
            vec![0.0, 3.0],
        ];
        let pooled = group_max_scores(&qs, 2);
        assert_eq!(pooled.len(), 2);
        assert_eq!(pooled[0], vec![1.0, 2.0]);
        assert_eq!(pooled[1], vec![5.0, 3.0]);
    }

    #[test]
    fn group_max_identity_for_group_one() {
        let qs = vec![vec![1.0], vec![2.0]];
        assert_eq!(group_max_scores(&qs, 1), qs);
    }
}
