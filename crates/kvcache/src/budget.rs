//! Budgeted per-head selection buffers.
//!
//! A [`BudgetBuffer`] holds one [`ResidentSet`] per KV head: the
//! GPU-side slot arrays that hold the currently selected KV entries for
//! sparse attention. Every layer reads the same speculative selection, so
//! every layer's sets are these. The runtime drives it once per decode
//! step with the retrieval head's selection and reads back aggregate
//! transfer volumes, over all layers, for the performance model.

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

/// Per-KV-head resident sets under a shared per-head budget, for every
/// layer at once.
///
/// A speculative selection is made once per step and hands every layer
/// the same lists (Section 5, Fig. 7), so the layers' sets are equal step
/// after step: the buffer keeps one set per KV head, plans it once a step,
/// and counts that plan's moves once per layer. [`step`](Self::step)
/// refuses a layer handed lists of its own.
#[derive(Debug, Clone)]
pub struct BudgetBuffer {
    /// One set per KV head, shared by every layer.
    sets: Vec<ResidentSet>,
    layers: usize,
    /// The buffers every set plans and applies in, so that
    /// [`step`](Self::step) allocates nothing while positions stay below
    /// `64 × budget` (the sets' and the scratch's bitmaps are reserved
    /// that long).
    scratch: PlanScratch,
}

impl BudgetBuffer {
    /// Creates empty buffers for `layers` layers of `kv_heads` resident
    /// sets of `budget` slots each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(layers: usize, kv_heads: usize, budget: usize) -> Self {
        assert!(layers > 0 && kv_heads > 0, "dimensions must be positive");
        Self {
            sets: (0..kv_heads).map(|_| ResidentSet::new(budget)).collect(),
            layers,
            scratch: PlanScratch::new(budget),
        }
    }

    /// Number of KV heads per layer.
    fn kv_heads(&self) -> usize {
        self.sets.len()
    }

    /// Access one head's resident set — the same set for every layer.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn head(&self, layer: usize, kv_head: usize) -> &ResidentSet {
        assert!(layer < self.layers, "layer {layer} out of range");
        &self.sets[kv_head]
    }

    /// Plans and applies the selections for one decode step.
    /// `selections[layer][kv_head]` are the wanted positions; a layer's
    /// lists may be owned (`Vec<Vec<usize>>`) or borrowed
    /// (`&[Vec<usize>]`), so a caller lends its one selection to every
    /// layer. Every layer must be handed the same lists; the sets are
    /// planned once and the transfer volume is that plan's times
    /// `layers`.
    ///
    /// # Panics
    ///
    /// Panics if the selection shape does not match the buffer shape, a
    /// layer is handed lists other than layer 0's, or a selection exceeds
    /// the budget.
    pub fn step<S: AsRef<[Vec<usize>]>>(&mut self, selections: &[S]) -> StepTransfer {
        assert_eq!(selections.len(), self.layers, "layer count mismatch");
        let heads = selections[0].as_ref();
        assert_eq!(heads.len(), self.kv_heads(), "head count mismatch");
        // By address first, so layers lent one selection cost no
        // comparison, then by value.
        assert!(
            selections[1..]
                .iter()
                .all(|s| std::ptr::eq(s.as_ref(), heads) || s.as_ref() == heads),
            "every layer must be handed the same lists"
        );
        let mut moved = StepTransfer::default();
        for (set, wanted) in self.sets.iter_mut().zip(heads) {
            set.advance(wanted, &mut self.scratch);
            moved.fetched_entries += self.scratch.fetch.len() as u64;
            moved.reused_entries += self.scratch.reused as u64;
        }
        let layers = self.layers as u64;
        StepTransfer {
            fetched_entries: moved.fetched_entries * layers,
            reused_entries: moved.reused_entries * layers,
        }
    }
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
