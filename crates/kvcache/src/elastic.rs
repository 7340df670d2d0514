//! Elastic loading: the set-difference transfer planner of Section 5.4.
//!
//! The elastic loader keeps the previous step's selection resident on the
//! GPU and transfers only the difference: positions in `S_now − S_last`
//! are fetched, slots holding `S_last − S_now` are overwritten in place
//! (`Tensor.copy_()` in the paper). Under a fixed budget
//! `|S_last| == |S_now|` both differences have equal cardinality, so the
//! plan is a slot-for-slot replacement.
//!
//! How much that saves is the overlap of adjacent selections. The paper
//! reports more than 80 % (Fig. 6(b)); the benchmark measures
//! `retrieval.overlap_rate_mean` 0.564 on `reason_2k_16k` and 0.339 on
//! `prompt_32k_2k` (`kvcache.reuse_fraction` 0.506 / 0.319), so a step
//! here fetches half to two thirds of its selection. Why the two differ
//! is ROADMAP item 6's question.

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
}

/// The GPU-resident selection: budget slots holding KV positions.
///
/// The slot array, and beside it a bitmap of the resident positions (bit
/// `p % 64` of word `p / 64`). A selection arrives ascending (an unsorted
/// one is sorted into a scratch buffer first), so planning is one pass
/// over it — each position tested against the resident bitmap and marked
/// in a wanted bitmap — and one walk of the slots for the ones to
/// overwrite; applying the plan writes the slots and ORs the wanted bitmap
/// into the resident one. A bitmap costs a word per 64 positions of
/// context (36 words at 2304 positions, 2048 at 128 K), less than the
/// sorted index it replaced cost to merge against.
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
#[derive(Debug, Clone)]
pub struct ResidentSet {
    /// slot -> position (usize::MAX = empty slot).
    slots: Vec<usize>,
    /// The positions in `slots`, as a bitmap; its length is whatever the
    /// largest position ever held needed.
    resident: Vec<u64>,
    /// Occupied slots.
    occupied: usize,
}

/// Two sets are equal when their slots hold the same positions; the
/// bitmap follows from the slots, whatever its length.
impl PartialEq for ResidentSet {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

/// Sentinel for an unoccupied slot.
const EMPTY: usize = usize::MAX;

/// Positions a bitmap word covers.
const WORD: usize = u64::BITS as usize;

/// Whether `pos` is set in `words` (positions past its end are not, and
/// neither is [`EMPTY`]).
fn has(words: &[u64], pos: usize) -> bool {
    words
        .get(pos / WORD)
        .is_some_and(|w| w >> (pos % WORD) & 1 != 0)
}

/// Appends the positions of bitmap word `i` that are set in `bits` to
/// `out`, ascending.
fn push_bits(out: &mut Vec<usize>, i: usize, mut bits: u64) {
    while bits != 0 {
        out.push(i * WORD + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Buffers one plan/apply round works in. [`BudgetBuffer`] keeps one for
/// all its sets, so a decode step allocates nothing once they are warm.
///
/// [`BudgetBuffer`]: crate::BudgetBuffer
#[derive(Debug, Clone)]
pub(crate) struct PlanScratch {
    /// The plan's fetches and slots (see [`DiffPlan`]).
    pub(crate) fetch: Vec<usize>,
    pub(crate) evict_slots: Vec<usize>,
    /// How many wanted positions were already resident.
    pub(crate) reused: usize,
    /// The wanted positions, as a bitmap.
    wanted: Vec<u64>,
    /// `wanted`, sorted, when it did not arrive ascending.
    sorted: Vec<usize>,
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
    /// unsorted input needs), the bitmap for positions below `64 ×
    /// budget` — any selection denser than one position in 64.
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            fetch: Vec::with_capacity(budget),
            evict_slots: Vec::with_capacity(2 * budget),
            reused: 0,
            wanted: Vec::with_capacity(budget),
            sorted: Vec::new(),
        }
    }
}

impl ResidentSet {
    /// Creates an empty resident set with `budget` slots, its bitmap
    /// reserved for positions below `64 × budget`.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(budget: usize) -> Self {
        assert!(budget > 0, "budget must be positive");
        Self {
            slots: vec![EMPTY; budget],
            resident: Vec::with_capacity(budget),
            occupied: 0,
        }
    }

    /// The slot budget.
    pub fn budget(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Whether `pos` is resident.
    pub fn contains(&self, pos: usize) -> bool {
        has(&self.resident, pos)
    }

    /// Currently resident positions, ascending.
    pub fn positions(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.occupied);
        for (i, &bits) in self.resident.iter().enumerate() {
            push_bits(&mut out, i, bits);
        }
        out
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
        let mut reused = Vec::with_capacity(scratch.reused);
        for (i, (&want, &held)) in scratch.wanted.iter().zip(&self.resident).enumerate() {
            push_bits(&mut reused, i, want & held);
        }
        DiffPlan {
            fetch: scratch.fetch,
            evict_slots: scratch.evict_slots,
            reused,
        }
    }

    /// [`plan`](Self::plan) into `scratch`: its fetches and slots, the
    /// reuse count in place of the reused list, and the wanted bitmap.
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
            wanted: bits,
            sorted,
        } = scratch;
        let wanted = if wanted.windows(2).all(|w| w[0] < w[1]) {
            wanted
        } else {
            sorted.clear();
            sorted.extend_from_slice(wanted);
            sorted.sort_unstable();
            assert!(
                sorted.windows(2).all(|w| w[0] < w[1]),
                "duplicate positions"
            );
            sorted
        };

        // One pass: a wanted position is either resident (reused, its
        // slot kept) or to be fetched. Every position is stored as a
        // fetch and only the cursor depends on the test (see
        // `push_where`). The bitmap takes a plain store a position — the
        // OR of its word's positions so far, which ascending input
        // finishes before the next word begins — and never reads back
        // what the store before it wrote.
        bits.clear();
        bits.resize(wanted.last().map_or(0, |&p| p / WORD + 1), 0);
        fetch.clear();
        fetch.resize(wanted.len(), 0);
        let (mut fetched, mut word, mut at) = (0, 0u64, usize::MAX);
        for &pos in wanted {
            let (w, bit) = (pos / WORD, 1u64 << (pos % WORD));
            word = bit | word & u64::from(w == at).wrapping_neg();
            bits[w] = word;
            at = w;
            fetch[fetched] = pos;
            let held = self.resident.get(w).is_some_and(|&r| r & bit != 0);
            fetched += usize::from(!held);
        }
        fetch.truncate(fetched);
        *reused = wanted.len() - fetched;

        // Slots to overwrite: empty slots first, then slots holding
        // positions not in `wanted` (no needless eviction under budget),
        // each in slot order. There are always enough: empty + stale =
        // budget − reused ≥ wanted − reused = fetch.
        evict_slots.clear();
        if self.occupied < self.budget() {
            push_where(evict_slots, self.budget(), |s| self.slots[s] == EMPTY);
            evict_slots.truncate(fetched);
        }
        if evict_slots.len() < fetched {
            push_where(evict_slots, self.budget(), |s| {
                let pos = self.slots[s];
                pos != EMPTY && !has(bits, pos)
            });
            evict_slots.truncate(fetched);
        }
        debug_assert_eq!(evict_slots.len(), fetched);
    }

    /// Applies a plan produced by [`plan`](Self::plan) on the current
    /// state, or a hand-built one in any order. The plan is checked whole
    /// before anything is written, so a rejected plan leaves the set as it
    /// was.
    ///
    /// # Panics
    ///
    /// Panics if `fetch` and `evict_slots` differ in length, if the plan
    /// names a slot the set does not have or names one twice, fetches a
    /// position twice, or fetches a position that stays resident in a slot
    /// the plan does not overwrite — each means the plan was produced for
    /// another state.
    pub fn apply(&mut self, plan: &DiffPlan) {
        let DiffPlan {
            fetch, evict_slots, ..
        } = plan;
        assert_eq!(
            fetch.len(),
            evict_slots.len(),
            "plan pairs {} fetches with {} slots",
            fetch.len(),
            evict_slots.len()
        );
        let mut overwritten = vec![false; self.budget()];
        for &slot in evict_slots {
            assert!(
                slot < self.budget(),
                "plan names slot {slot} of {}",
                self.budget()
            );
            assert!(!overwritten[slot], "plan names slot {slot} twice");
            overwritten[slot] = true;
        }
        let mut incoming = fetch.clone();
        incoming.sort_unstable();
        assert!(
            incoming.windows(2).all(|w| w[0] < w[1]),
            "plan fetches a position twice"
        );
        let mut held = self.slots.iter().zip(&overwritten);
        assert!(
            held.all(|(&pos, &gone)| gone || incoming.binary_search(&pos).is_err()),
            "plan/state mismatch: a fetched position is already resident"
        );
        self.replace(fetch, evict_slots);
        self.grow_to(incoming.last().map_or(0, |&p| p / WORD + 1));
        for &pos in fetch {
            self.resident[pos / WORD] |= 1 << (pos % WORD);
        }
    }

    /// Plans and applies `wanted` in `scratch`; afterwards it holds the
    /// plan that was applied. What is resident afterwards is what stayed
    /// plus `wanted`, so the wanted bitmap is OR-ed in whole.
    pub(crate) fn advance(&mut self, wanted: &[usize], scratch: &mut PlanScratch) {
        self.plan_into(wanted, scratch);
        self.replace(&scratch.fetch, &scratch.evict_slots);
        self.grow_to(scratch.wanted.len());
        for (held, &want) in self.resident.iter_mut().zip(&scratch.wanted) {
            *held |= want;
        }
    }

    /// Writes position `fetch[i]` into slot `evict_slots[i]` of a checked
    /// plan and drops the positions it overwrites from the bitmap; the
    /// caller marks the fetched ones, after every overwritten one has left
    /// (a plan may move a position between two of the slots it names).
    fn replace(&mut self, fetch: &[usize], evict_slots: &[usize]) {
        for (&pos, &slot) in fetch.iter().zip(evict_slots) {
            let old = std::mem::replace(&mut self.slots[slot], pos);
            if old != EMPTY {
                self.resident[old / WORD] &= !(1 << (old % WORD));
                self.occupied -= 1;
            }
        }
        self.occupied += fetch.len();
    }

    /// Lengthens the bitmap to at least `words` words.
    fn grow_to(&mut self, words: usize) {
        if self.resident.len() < words {
            self.resident.resize(words, 0);
        }
    }

    /// The slot currently holding `pos`, if resident (a walk of the
    /// slots).
    pub fn slot_of(&self, pos: usize) -> Option<usize> {
        if !self.contains(pos) {
            return None;
        }
        self.slots.iter().position(|&p| p == pos)
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
    }

    #[test]
    fn full_overlap_transfers_nothing() {
        let mut rs = ResidentSet::new(3);
        let p = rs.plan(&[1, 2, 3]);
        rs.apply(&p);
        let p2 = rs.plan(&[3, 2, 1]);
        assert_eq!(p2.transfer_count(), 0);
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

    #[test]
    fn a_plan_may_move_a_position_between_the_slots_it_names() {
        let mut rs = ResidentSet::new(2);
        rs.apply(&rs.plan(&[5, 70]));
        let (five, seventy) = (rs.slot_of(5).unwrap(), rs.slot_of(70).unwrap());
        rs.apply(&DiffPlan {
            fetch: vec![5, 64],
            evict_slots: vec![seventy, five],
            reused: vec![],
        });
        assert_eq!(rs.slot_of(5), Some(seventy));
        assert_eq!(rs.slot_of(64), Some(five));
        assert_eq!(rs.positions(), vec![5, 64]);
        assert_eq!(rs.occupied(), 2);
    }

    #[test]
    fn a_rejected_plan_leaves_the_set_as_it_was() {
        let mut rs = ResidentSet::new(3);
        rs.apply(&rs.plan(&[1, 2, 3]));
        let before = rs.clone();
        let stale = DiffPlan {
            fetch: vec![9, 2],
            evict_slots: vec![rs.slot_of(1).unwrap(), rs.slot_of(3).unwrap()],
            reused: vec![],
        };
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rs.apply(&stale)));
        assert!(applied.is_err(), "2 stays resident in its own slot");
        assert_eq!(rs, before);
        assert_eq!(rs.positions(), vec![1, 2, 3]);
        assert_eq!(rs.occupied(), 3);
    }

    #[test]
    #[should_panic(expected = "names slot 0 twice")]
    fn a_slot_named_twice_is_rejected() {
        let mut rs = ResidentSet::new(2);
        rs.apply(&DiffPlan {
            fetch: vec![1, 2],
            evict_slots: vec![0, 0],
            reused: vec![],
        });
    }
}
