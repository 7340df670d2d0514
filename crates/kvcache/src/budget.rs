//! Budgeted per-head selection buffers.
//!
//! A [`BudgetBuffer`] bundles one [`ResidentSet`] per (layer, KV head):
//! the GPU-side slot arrays that hold the currently selected KV entries
//! for sparse attention. The runtime drives it once per decode step with
//! the retrieval head's selections and reads back aggregate transfer
//! volumes for the performance model.

use crate::elastic::{PlanScratch, ResidentSet};
use serde::{Deserialize, Serialize};

/// Aggregate transfer accounting for one step across all layers/heads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepTransfer {
    /// KV entries fetched from the lower tier.
    pub fetched_entries: u64,
    /// KV entries reused from residency.
    pub reused_entries: u64,
}

impl StepTransfer {
    /// Fraction of required entries served without transfer.
    pub fn reuse_fraction(&self) -> f32 {
        let total = self.fetched_entries + self.reused_entries;
        if total == 0 {
            1.0
        } else {
            self.reused_entries as f32 / total as f32
        }
    }
}

/// Per-(layer, head) resident sets under a shared per-head budget.
///
/// A speculative selection hands every layer the same lists, so the
/// layers' sets stay equal step after step. A layer whose sets equal the
/// layer's below it **follows** that layer: it keeps no sets of its own,
/// [`head`](Self::head) answers with its leader's, and its step is its
/// leader's — one plan per distinct (resident state, selection), nothing
/// copied. A follower handed lists of its own takes a copy of its
/// leader's sets at that step and plans for itself from then on, until
/// its sets equal the layer's below it again.
#[derive(Debug, Clone)]
pub struct BudgetBuffer {
    /// `sets[l]` are layer `l`'s while it leads; stale (allocation kept
    /// for the next divergence) while `follows[l]`.
    sets: Vec<Vec<ResidentSet>>,
    /// `follows[l]`: layer `l`'s sets are layer `l - 1`'s (never set for
    /// layer 0), which may follow in turn.
    follows: Vec<bool>,
    budget: usize,
    /// The buffers every set plans and applies in, so that
    /// [`step`](Self::step) allocates nothing while positions stay below
    /// `64 × budget` (the sets' and the scratch's bitmaps are reserved
    /// that long).
    scratch: PlanScratch,
}

impl BudgetBuffer {
    /// Creates empty buffers: `layers x kv_heads` resident sets of
    /// `budget` slots each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(layers: usize, kv_heads: usize, budget: usize) -> Self {
        assert!(layers > 0 && kv_heads > 0, "dimensions must be positive");
        Self {
            sets: (0..layers)
                .map(|_| (0..kv_heads).map(|_| ResidentSet::new(budget)).collect())
                .collect(),
            // Empty sets are equal sets.
            follows: (0..layers).map(|l| l > 0).collect(),
            budget,
            scratch: PlanScratch::new(budget),
        }
    }

    /// The per-head budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.sets.len()
    }

    /// Number of KV heads per layer.
    pub fn kv_heads(&self) -> usize {
        self.sets.first().map_or(0, Vec::len)
    }

    /// The layer whose sets `layer` reads: itself, or the nearest layer
    /// below it that follows no one.
    fn leader(&self, layer: usize) -> usize {
        let following = self.follows[..=layer].iter().rev();
        layer - following.take_while(|&&f| f).count()
    }

    /// Access one head's resident set.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn head(&self, layer: usize, kv_head: usize) -> &ResidentSet {
        &self.sets[self.leader(layer)][kv_head]
    }

    /// Plans and applies the selections for one decode step.
    /// `selections[layer][kv_head]` are the wanted positions; a layer's
    /// lists may be owned (`Vec<Vec<usize>>`) or borrowed
    /// (`&[Vec<usize>]`), so a caller whose layers share one selection
    /// lends it to every layer. Returns the aggregate transfer volume.
    ///
    /// One plan is made per distinct (resident state, selection) among
    /// neighbouring layers: a layer following the one before it and
    /// handed the same lists — every layer but the first under a
    /// speculative selection, which is identical across layers — shares
    /// that layer's new state and counts instead of planning them again.
    ///
    /// # Panics
    ///
    /// Panics if the selection shape does not match the buffer shape or a
    /// selection exceeds the budget.
    pub fn step<S: AsRef<[Vec<usize>]>>(&mut self, selections: &[S]) -> StepTransfer {
        assert_eq!(selections.len(), self.layers(), "layer count mismatch");
        // A follower handed lists of its own leads from here: it starts
        // from the state it shared, before any layer moves on.
        for layer in (1..self.layers()).rev() {
            let (own, below) = (selections[layer].as_ref(), selections[layer - 1].as_ref());
            if self.follows[layer] && !same_lists(own, below) {
                let leader = self.leader(layer - 1);
                let (below, own) = self.sets.split_at_mut(layer);
                own[0].clone_from(&below[leader]);
                self.follows[layer] = false;
            }
        }
        let mut agg = StepTransfer::default();
        // What the last layer that planned moved; its followers move the
        // same.
        let mut moved = StepTransfer::default();
        for (layer, heads) in selections.iter().enumerate() {
            let heads = heads.as_ref();
            assert_eq!(heads.len(), self.kv_heads(), "head count mismatch");
            if !self.follows[layer] {
                moved = StepTransfer::default();
                for (set, wanted) in self.sets[layer].iter_mut().zip(heads) {
                    set.advance(wanted, &mut self.scratch);
                    moved.fetched_entries += self.scratch.fetch.len() as u64;
                    moved.reused_entries += self.scratch.reused as u64;
                }
                self.follows[layer] =
                    layer > 0 && self.sets[layer] == self.sets[self.leader(layer - 1)];
            }
            agg.fetched_entries += moved.fetched_entries;
            agg.reused_entries += moved.reused_entries;
        }
        agg
    }
}

/// Whether two layers are handed the same lists: by address first, so
/// layers lent one selection cost no comparison, then by value.
fn same_lists(a: &[Vec<usize>], b: &[Vec<usize>]) -> bool {
    std::ptr::eq(a, b) || a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_fetches_everything() {
        let mut b = BudgetBuffer::new(2, 2, 4);
        let sel = vec![vec![vec![0, 1, 2, 3]; 2]; 2];
        let t = b.step(&sel);
        assert_eq!(t.fetched_entries, 2 * 2 * 4);
        assert_eq!(t.reused_entries, 0);
    }

    #[test]
    fn repeated_step_reuses_everything() {
        let mut b = BudgetBuffer::new(2, 2, 4);
        let sel = vec![vec![vec![0, 1, 2, 3]; 2]; 2];
        b.step(&sel);
        let t = b.step(&sel);
        assert_eq!(t.fetched_entries, 0);
        assert_eq!(t.reuse_fraction(), 1.0);
    }

    #[test]
    fn shifted_selection_transfers_difference() {
        let mut b = BudgetBuffer::new(1, 1, 4);
        b.step(&[vec![vec![0, 1, 2, 3]]]);
        let t = b.step(&[vec![vec![1, 2, 3, 4]]]);
        assert_eq!(t.fetched_entries, 1);
        assert_eq!(t.reused_entries, 3);
    }

    #[test]
    fn heads_are_independent() {
        let mut b = BudgetBuffer::new(1, 2, 2);
        b.step(&[vec![vec![0, 1], vec![5, 6]]]);
        assert!(b.head(0, 0).contains(0));
        assert!(!b.head(0, 0).contains(5));
        assert!(b.head(0, 1).contains(5));
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn wrong_shape_rejected() {
        let mut b = BudgetBuffer::new(2, 1, 2);
        b.step(&[vec![vec![0]]]);
    }
}
