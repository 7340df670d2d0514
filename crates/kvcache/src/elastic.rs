//! Elastic loading: the set-difference transfer planner of Section 5.4.
//!
//! Adjacent decode steps select highly overlapping KV positions
//! (paper Fig. 6(b): >80% overlap). The elastic loader therefore keeps the
//! previous step's selection resident on the GPU and transfers only the
//! difference: positions in `S_now − S_last` are fetched, slots holding
//! `S_last − S_now` are overwritten in place (`Tensor.copy_()` in the
//! paper). Under a fixed budget `|S_last| == |S_now|` both differences
//! have equal cardinality, so the plan is a slot-for-slot replacement.

use serde::{Deserialize, Serialize};

/// A transfer plan produced by [`ResidentSet::plan`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffPlan {
    /// Positions to fetch from the lower tier (`S_now − S_last`), ascending.
    pub fetch: Vec<usize>,
    /// Resident slots to overwrite, parallel to `fetch` (slot `evict[i]`
    /// receives position `fetch[i]`).
    pub evict_slots: Vec<usize>,
    /// Positions that stay resident (`S_now ∩ S_last`), ascending.
    pub reused: Vec<usize>,
}

impl DiffPlan {
    /// Number of positions transferred.
    pub fn transfer_count(&self) -> usize {
        self.fetch.len()
    }

    /// Fraction of the new selection served from residency (0..=1);
    /// 1.0 when the selection is empty.
    pub fn reuse_fraction(&self) -> f32 {
        let total = self.fetch.len() + self.reused.len();
        if total == 0 {
            1.0
        } else {
            self.reused.len() as f32 / total as f32
        }
    }
}

/// The GPU-resident selection: budget slots holding KV positions.
///
/// Two arrays, both O(budget): the slot array, and the occupied
/// `(position, slot)` pairs kept in position order. Selections arrive
/// position-ordered too, so planning is one merge of the two lists plus a
/// walk over the slots, and applying a plan is one more merge — no
/// hashing and nothing sized by the context.
///
/// # Example
///
/// ```
/// use spec_kvcache::ResidentSet;
///
/// let mut rs = ResidentSet::new(4);
/// let p1 = rs.plan(&[1, 2, 3, 4]);
/// assert_eq!(p1.transfer_count(), 4); // cold start
/// rs.apply(&p1);
/// let p2 = rs.plan(&[2, 3, 4, 9]);
/// assert_eq!(p2.transfer_count(), 1); // only 9 is new
/// rs.apply(&p2);
/// assert!(rs.contains(9));
/// ```
#[derive(Debug, PartialEq)]
pub struct ResidentSet {
    /// slot -> position (usize::MAX = empty slot).
    slots: Vec<usize>,
    /// Occupied `(position, slot)` pairs, ascending by position.
    index: Vec<(usize, usize)>,
}

/// By hand for `clone_from`, which the derive would leave allocating:
/// [`BudgetBuffer`](crate::BudgetBuffer) copies one layer's sets over
/// another's every step.
impl Clone for ResidentSet {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            index: self.index.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.index.clone_from(&source.index);
    }
}

/// Sentinel for an unoccupied slot.
const EMPTY: usize = usize::MAX;

/// Buffers one plan/apply round works in. [`BudgetBuffer`] keeps one for
/// all its sets, so a decode step allocates nothing once they are warm.
///
/// [`BudgetBuffer`]: crate::BudgetBuffer
#[derive(Debug, Clone)]
pub(crate) struct PlanScratch {
    /// The plan's three lists (see [`DiffPlan`]).
    pub(crate) fetch: Vec<usize>,
    pub(crate) evict_slots: Vec<usize>,
    pub(crate) reused: Vec<usize>,
    /// `wanted`, sorted, when it did not arrive ascending.
    sorted: Vec<usize>,
    /// Per slot: reused (while planning), then evicted (while applying).
    flags: Vec<bool>,
    /// The pairs that stay resident, while the index is rebuilt.
    staying: Vec<(usize, usize)>,
}

/// Appends the `i` in `0..n` with `keep(i)` to `out`, ascending. Every
/// index is stored and only the cursor depends on `keep`: which slots a
/// step reuses is as good as random, and one mispredicted branch per slot
/// cost more than the rest of the planner.
fn push_where(out: &mut Vec<usize>, n: usize, keep: impl Fn(usize) -> bool) {
    let mut len = out.len();
    out.resize(len + n, 0);
    for i in 0..n {
        out[len] = i;
        len += usize::from(keep(i));
    }
    out.truncate(len);
}

impl PlanScratch {
    /// Buffers already sized for sets of `budget` slots (all but the one
    /// unsorted input needs).
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            fetch: Vec::with_capacity(budget),
            evict_slots: Vec::with_capacity(2 * budget),
            reused: Vec::with_capacity(budget),
            sorted: Vec::new(),
            flags: Vec::with_capacity(budget),
            staying: Vec::with_capacity(budget),
        }
    }
}

impl ResidentSet {
    /// Creates an empty resident set with `budget` slots.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(budget: usize) -> Self {
        assert!(budget > 0, "budget must be positive");
        Self {
            slots: vec![EMPTY; budget],
            index: Vec::with_capacity(budget),
        }
    }

    /// The slot budget.
    pub fn budget(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.index.len()
    }

    /// Whether `pos` is resident.
    pub fn contains(&self, pos: usize) -> bool {
        self.slot_of(pos).is_some()
    }

    /// Currently resident positions, ascending.
    pub fn positions(&self) -> Vec<usize> {
        self.index.iter().map(|&(pos, _)| pos).collect()
    }

    /// Computes the minimal transfer plan to make `wanted` resident.
    /// `wanted` need not be sorted, though selections normally are.
    ///
    /// # Panics
    ///
    /// Panics if `wanted` exceeds the budget or contains duplicates.
    pub fn plan(&self, wanted: &[usize]) -> DiffPlan {
        let mut scratch = PlanScratch::new(self.budget());
        self.plan_into(wanted, &mut scratch);
        DiffPlan {
            fetch: scratch.fetch,
            evict_slots: scratch.evict_slots,
            reused: scratch.reused,
        }
    }

    /// [`plan`](Self::plan) into `scratch`'s three lists.
    pub(crate) fn plan_into(&self, wanted: &[usize], scratch: &mut PlanScratch) {
        assert!(
            wanted.len() <= self.budget(),
            "selection {} exceeds budget {}",
            wanted.len(),
            self.budget()
        );
        let PlanScratch {
            fetch,
            evict_slots,
            reused,
            sorted,
            flags,
            ..
        } = scratch;
        let wanted = if wanted.windows(2).all(|w| w[0] < w[1]) {
            wanted
        } else {
            sorted.clear();
            sorted.extend_from_slice(wanted);
            sorted.sort_unstable();
            let distinct = 1 + sorted.windows(2).filter(|w| w[0] < w[1]).count();
            assert_eq!(distinct, wanted.len(), "duplicate positions");
            sorted
        };

        // Merge the two position-ordered lists: a wanted position is
        // either resident (reused, its slot kept) or to be fetched. Every
        // candidate is stored and only the cursors depend on the
        // comparison (see `push_where`).
        flags.clear();
        flags.resize(self.budget(), false);
        for list in [&mut *fetch, &mut *reused] {
            list.clear();
            list.resize(wanted.len(), 0);
        }
        let (mut w, mut r, mut fetched, mut kept) = (0, 0, 0, 0);
        while w < wanted.len() && r < self.index.len() {
            let pos = wanted[w];
            let (resident, slot) = self.index[r];
            fetch[fetched] = pos;
            reused[kept] = pos;
            fetched += usize::from(pos < resident);
            kept += usize::from(pos == resident);
            flags[slot] |= pos == resident;
            w += usize::from(pos <= resident);
            r += usize::from(pos >= resident);
        }
        // What is left of `wanted` lies beyond every resident position.
        let beyond = wanted.len() - w;
        fetch[fetched..fetched + beyond].copy_from_slice(&wanted[w..]);
        fetch.truncate(fetched + beyond);
        reused.truncate(kept);

        // Slots to overwrite: empty slots first, then slots holding
        // positions not in `wanted` (no needless eviction under budget),
        // each in slot order. There are always enough: empty + stale =
        // budget − reused ≥ wanted − reused = fetch.
        evict_slots.clear();
        let need = fetch.len();
        if self.occupied() < self.budget() {
            push_where(evict_slots, self.budget(), |s| self.slots[s] == EMPTY);
            evict_slots.truncate(need);
        }
        if evict_slots.len() < need {
            push_where(evict_slots, self.budget(), |s| {
                self.slots[s] != EMPTY && !flags[s]
            });
            evict_slots.truncate(need);
        }
        debug_assert_eq!(evict_slots.len(), need);
    }

    /// Applies a plan produced by [`plan`](Self::plan) on the current state.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a slot the set does not have, or fetches a
    /// position that stays resident in another slot — either means the
    /// plan was produced for another state.
    pub fn apply(&mut self, plan: &DiffPlan) {
        let (mut flags, mut staying) = (Vec::new(), Vec::with_capacity(self.budget()));
        if plan.fetch.windows(2).all(|w| w[0] < w[1]) {
            self.apply_pairs(&plan.fetch, &plan.evict_slots, &mut flags, &mut staying);
        } else {
            // Only a hand-built plan lists its fetches out of order.
            let mut pairs: Vec<(usize, usize)> = plan
                .fetch
                .iter()
                .copied()
                .zip(plan.evict_slots.iter().copied())
                .collect();
            pairs.sort_unstable();
            let (fetch, evict_slots): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
            self.apply_pairs(&fetch, &evict_slots, &mut flags, &mut staying);
        }
    }

    /// Plans and applies `wanted` in `scratch`; afterwards its three lists
    /// hold the plan that was applied.
    pub(crate) fn advance(&mut self, wanted: &[usize], scratch: &mut PlanScratch) {
        self.plan_into(wanted, scratch);
        let PlanScratch {
            fetch,
            evict_slots,
            flags,
            staying,
            ..
        } = scratch;
        self.apply_pairs(fetch, evict_slots, flags, staying);
    }

    /// Writes position `fetch[i]` (ascending) into slot `evict_slots[i]`
    /// and rebuilds the index in one merge: the pairs that stay and the
    /// fetched pairs are both in position order. `flags` and `staying` are
    /// work space.
    fn apply_pairs(
        &mut self,
        fetch: &[usize],
        evict_slots: &[usize],
        flags: &mut Vec<bool>,
        staying: &mut Vec<(usize, usize)>,
    ) {
        flags.clear();
        flags.resize(self.budget(), false);
        for (&pos, &slot) in fetch.iter().zip(evict_slots) {
            flags[slot] = true;
            self.slots[slot] = pos;
        }
        // As in `plan_into`, only cursors depend on the data.
        staying.clear();
        staying.resize(self.index.len(), (0, 0));
        let mut stay = 0;
        for &(pos, slot) in &self.index {
            staying[stay] = (pos, slot);
            stay += usize::from(!flags[slot]);
        }
        staying.truncate(stay);
        let index = &mut self.index;
        index.clear();
        index.resize(staying.len() + fetch.len(), (0, 0));
        let (mut s, mut f) = (0, 0);
        while s < staying.len() && f < fetch.len() {
            let fetched_first = usize::from(fetch[f] < staying[s].0);
            index[s + f] = [staying[s], (fetch[f], evict_slots[f])][fetched_first];
            s += 1 - fetched_first;
            f += fetched_first;
        }
        index.truncate(s + f);
        let fetched = fetch.iter().copied().zip(evict_slots.iter().copied());
        index.extend(staying[s..].iter().copied().chain(fetched.skip(f)));
        assert!(
            index.windows(2).all(|w| w[0].0 < w[1].0),
            "plan/state mismatch: a fetched position is already resident"
        );
    }

    /// The slot currently holding `pos`, if resident.
    pub fn slot_of(&self, pos: usize) -> Option<usize> {
        self.index
            .binary_search_by_key(&pos, |&(p, _)| p)
            .ok()
            .map(|i| self.index[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_fetches_everything() {
        let rs = ResidentSet::new(3);
        let plan = rs.plan(&[5, 1, 9]);
        assert_eq!(plan.fetch, vec![1, 5, 9]);
        assert_eq!(plan.reused, Vec::<usize>::new());
        assert_eq!(plan.reuse_fraction(), 0.0);
    }

    #[test]
    fn full_overlap_transfers_nothing() {
        let mut rs = ResidentSet::new(3);
        let p = rs.plan(&[1, 2, 3]);
        rs.apply(&p);
        let p2 = rs.plan(&[3, 2, 1]);
        assert_eq!(p2.transfer_count(), 0);
        assert_eq!(p2.reuse_fraction(), 1.0);
    }

    #[test]
    fn partial_overlap_fetches_difference_only() {
        let mut rs = ResidentSet::new(4);
        rs.apply(&rs.plan(&[10, 20, 30, 40]));
        let p = rs.plan(&[20, 30, 40, 50]);
        assert_eq!(p.fetch, vec![50]);
        assert_eq!(p.reused, vec![20, 30, 40]);
        // Fixed budget: |S_last − S_now| == |S_now − S_last|.
        assert_eq!(p.evict_slots.len(), p.fetch.len());
        rs.apply(&p);
        assert!(!rs.contains(10));
        assert!(rs.contains(50));
    }

    #[test]
    fn eviction_prefers_stale_slots() {
        let mut rs = ResidentSet::new(3);
        rs.apply(&rs.plan(&[1, 2, 3]));
        let p = rs.plan(&[2, 3, 7]);
        // The evicted slot must be the one holding 1.
        let slot_of_1 = rs.slot_of(1).unwrap();
        assert_eq!(p.evict_slots, vec![slot_of_1]);
    }

    #[test]
    fn smaller_selection_is_allowed() {
        let mut rs = ResidentSet::new(4);
        rs.apply(&rs.plan(&[1, 2]));
        assert_eq!(rs.occupied(), 2);
        let p = rs.plan(&[2, 3, 4]);
        assert_eq!(p.fetch, vec![3, 4]);
        rs.apply(&p);
        assert_eq!(rs.occupied(), 4); // 1 was never evicted: budget allows
    }

    #[test]
    #[should_panic(expected = "exceeds budget")]
    fn over_budget_selection_rejected() {
        let rs = ResidentSet::new(2);
        let _ = rs.plan(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_positions_rejected() {
        let rs = ResidentSet::new(3);
        let _ = rs.plan(&[1, 1, 2]);
    }

    #[test]
    fn apply_then_positions_equals_wanted_superset() {
        let mut rs = ResidentSet::new(4);
        rs.apply(&rs.plan(&[4, 8, 15, 16]));
        let wanted = vec![8, 15, 23, 42];
        let p = rs.plan(&wanted);
        rs.apply(&p);
        let resident = rs.positions();
        for w in &wanted {
            assert!(resident.contains(w));
        }
    }
}
