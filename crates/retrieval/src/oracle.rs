//! Oracle selection metrics: comparing any selection against the LLM's own
//! (dense) attention distribution.
//!
//! The oracle is what Fig. 5(a) calls "attention weight accumulation":
//! the fraction of true attention mass a budget-`k` selection captures,
//! and the hit rate of the selection against the model's top-`k` tokens.

use spec_model::StepTrace;
use spec_tensor::topk::PosBitSet;
use spec_tensor::{stats, topk};

/// Attention mass captured by an arbitrary per-head selection, averaged
/// over layers and heads. `selection[kv_head]` holds positions; query
/// head `q` uses `selection[q / group]`.
pub fn selection_mass(trace: &StepTrace, selection: &[Vec<usize>], group: usize) -> f32 {
    let mut total = 0.0;
    let mut count = 0;
    // One bitset reused across heads and layers (refilled only when the
    // KV-head selection changes) instead of a HashSet per query head.
    let mut sel_marks = PosBitSet::default();
    let mut filled_for: Option<usize> = None;
    for (layer_w, layer_p) in trace.attn.iter().zip(&trace.positions) {
        for (q, head) in layer_w.iter().enumerate() {
            let sel_idx = (q / group).min(selection.len() - 1);
            let sel = &selection[sel_idx];
            if filled_for != Some(sel_idx) {
                sel_marks.reset(sel.iter().max().map_or(0, |&p| p + 1));
                for &p in sel {
                    sel_marks.mark(p);
                }
                filled_for = Some(sel_idx);
            }
            let pos = &layer_p[q];
            // Positions in the trace may be a subset (sparse trace); map
            // selection membership through the recorded position list.
            let mass: f32 = head
                .iter()
                .zip(pos)
                .filter(|(_, p)| sel_marks.contains(**p))
                .map(|(w, _)| w)
                .sum();
            total += mass;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f32
    }
}

/// Hit rate of a selection against the oracle top-`k` of a dense trace,
/// averaged over layers and query heads.
pub fn selection_hit_rate(
    trace: &StepTrace,
    selection: &[Vec<usize>],
    group: usize,
    k: usize,
) -> f32 {
    let mut total = 0.0;
    let mut count = 0;
    for (layer_w, layer_p) in trace.attn.iter().zip(&trace.positions) {
        for (q, head) in layer_w.iter().enumerate() {
            let oracle_local = topk::top_k_indices(head, k);
            let pos = &layer_p[q];
            let oracle: Vec<usize> = oracle_local.iter().map(|&i| pos[i]).collect();
            let sel = &selection[(q / group).min(selection.len() - 1)];
            total += stats::hit_rate(&oracle, sel);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, Model, PrefillMode, SimGeometry, SparsePlan};

    /// Accumulated attention mass of an oracle top-`k` selection, averaged
    /// over all layers and query heads of a dense trace.
    fn oracle_mass_at(trace: &StepTrace, k: usize) -> f32 {
        let heads: Vec<&Vec<f32>> = trace.attn.iter().flatten().collect();
        let total: f32 = heads.iter().map(|head| topk::top_k_mass(head, k)).sum();
        total / heads.len() as f32
    }

    fn dense_trace(n: usize) -> (Model, StepTrace) {
        let m = Model::new(SimGeometry::tiny(AttentionKind::Gqa), 61);
        let tokens: Vec<usize> = (0..n).collect();
        let (mut kv, _) = m.prefill_tokens(&tokens, PrefillMode::Exact);
        let emb = m.embed_tokens(&[0]);
        let plan = SparsePlan::dense(m.geometry().layers);
        let (_, trace) = m.decode_step_traced(emb.row(0), n, &mut kv, &mut &plan);
        (m, trace)
    }

    #[test]
    fn oracle_mass_is_monotone_in_k() {
        let (_, trace) = dense_trace(24);
        let m4 = oracle_mass_at(&trace, 4);
        let m8 = oracle_mass_at(&trace, 8);
        let m25 = oracle_mass_at(&trace, 25);
        assert!(m4 <= m8 + 1e-6);
        assert!(m8 <= m25 + 1e-6);
        assert!((m25 - 1.0).abs() < 1e-4, "full budget captures all mass");
    }

    #[test]
    fn full_selection_has_unit_mass_and_hits() {
        let (m, trace) = dense_trace(16);
        let all: Vec<usize> = (0..17).collect();
        let sel = vec![all; m.geometry().kv_heads];
        let g = m.geometry().group_size();
        assert!((selection_mass(&trace, &sel, g) - 1.0).abs() < 1e-4);
        assert!((selection_hit_rate(&trace, &sel, g, 4) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_selection_has_zero_mass() {
        let (m, trace) = dense_trace(16);
        let sel = vec![Vec::new(); m.geometry().kv_heads];
        let g = m.geometry().group_size();
        assert_eq!(selection_mass(&trace, &sel, g), 0.0);
    }
}
