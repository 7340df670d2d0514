//! Property-based tests for the KV cache subsystem, covering the elastic
//! loading invariants the paper's Section 5.4 relies on.

use proptest::prelude::*;
use spec_kvcache::{BudgetBuffer, DiffPlan, PageTable, ResidentSet};
use spec_tensor::Matrix;
use std::collections::{HashMap, HashSet};

fn selection(budget: usize, universe: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..universe, 0..=budget)
        .prop_map(|s| s.into_iter().collect::<Vec<usize>>())
}

/// The planner `ResidentSet` shipped with until it went hash-free: a
/// `HashSet` of the wanted positions, a position → slot `HashMap`, a scan
/// of every slot. The model the slot-array planner is held to.
struct OracleSet {
    slots: Vec<usize>,
    index: HashMap<usize, usize>,
}

const EMPTY: usize = usize::MAX;

impl OracleSet {
    fn new(budget: usize) -> Self {
        Self {
            slots: vec![EMPTY; budget],
            index: HashMap::new(),
        }
    }

    fn positions(&self) -> Vec<usize> {
        let mut p: Vec<usize> = self.index.keys().copied().collect();
        p.sort_unstable();
        p
    }

    fn plan(&self, wanted: &[usize]) -> DiffPlan {
        let wanted_set: HashSet<usize> = wanted.iter().copied().collect();
        let resident = |p: &usize| self.index.contains_key(p);
        let mut fetch: Vec<usize> = wanted.iter().copied().filter(|p| !resident(p)).collect();
        fetch.sort_unstable();
        let mut reused: Vec<usize> = wanted.iter().copied().filter(resident).collect();
        reused.sort_unstable();
        let slots = || self.slots.iter().enumerate();
        let evict_slots: Vec<usize> = slots()
            .filter(|(_, &pos)| pos == EMPTY)
            .chain(slots().filter(|(_, &pos)| pos != EMPTY && !wanted_set.contains(&pos)))
            .map(|(slot, _)| slot)
            .take(fetch.len())
            .collect();
        DiffPlan {
            fetch,
            evict_slots,
            reused,
        }
    }

    fn apply(&mut self, plan: &DiffPlan) {
        for (&pos, &slot) in plan.fetch.iter().zip(&plan.evict_slots) {
            let old = self.slots[slot];
            if old != EMPTY {
                self.index.remove(&old);
            }
            self.slots[slot] = pos;
            self.index.insert(pos, slot);
        }
    }
}

const MODEL_BUDGET: usize = 8;
const MODEL_UNIVERSE: usize = 40;

/// One step of a selection sequence: a fresh set and how to turn it and
/// the previous selection into this step's `wanted`.
fn model_step() -> impl Strategy<Value = (Vec<usize>, usize, u64)> {
    (
        selection(MODEL_BUDGET, MODEL_UNIVERSE),
        0usize..5,
        any::<u64>(),
    )
}

/// Fisher-Yates over a seeded LCG: `v` in an order `salt` picks.
fn shuffle<T>(v: &mut [T], salt: u64) {
    let mut x = salt | 1;
    for i in (1..v.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.swap(i, (x >> 33) as usize % (i + 1));
    }
}

/// `wanted` for a step: the fresh set as drawn (ascending, any size up
/// to the budget), shuffled, topped up to exactly the budget, or — from
/// the previous selection — repeated or shrunk.
fn next_wanted(prev: &[usize], fresh: Vec<usize>, mode: usize, salt: u64) -> Vec<usize> {
    match mode {
        0 => fresh,
        1 => {
            let mut v = fresh;
            shuffle(&mut v, salt);
            v
        }
        2 => {
            let mut v = fresh;
            let mut p = salt as usize % MODEL_UNIVERSE;
            while v.len() < MODEL_BUDGET {
                if !v.contains(&p) {
                    v.push(p);
                }
                p = (p + 1) % MODEL_UNIVERSE;
            }
            v
        }
        3 => prev.to_vec(),
        _ => prev[..prev.len() - prev.len().min(1 + salt as usize % 3)].to_vec(),
    }
}

/// Positions either side of the bitmaps' word edges and at the far end
/// of a 16 K context, drawn half the time; any position below 16 K the
/// other half.
const EDGES: [usize; 14] = [
    0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 16_320, 16_383,
];
const EDGE_BUDGET: usize = 12;

fn edge_selection() -> impl Strategy<Value = Vec<usize>> {
    let position =
        (any::<bool>(), 0..EDGES.len(), 0usize..16_384)
            .prop_map(|(edge, e, p)| if edge { EDGES[e] } else { p });
    prop::collection::btree_set(position, 0..=EDGE_BUDGET)
        .prop_map(|s| s.into_iter().collect::<Vec<usize>>())
}

/// `wanted` for a step of an edge sequence: the fresh set as drawn
/// (under budget), reversed (unsorted), the previous selection's first
/// half topped up from the fresh set to exactly the budget (a full set),
/// or the previous selection again.
fn next_edge_wanted(prev: &[usize], fresh: Vec<usize>, mode: usize) -> Vec<usize> {
    match mode {
        0 => fresh,
        1 => fresh.into_iter().rev().collect(),
        2 => {
            let mut v = prev[..prev.len() / 2].to_vec();
            for p in fresh.into_iter().chain(0..) {
                if v.len() == EDGE_BUDGET {
                    break;
                }
                if !v.contains(&p) {
                    v.push(p);
                }
            }
            v.sort_unstable();
            v
        }
        _ => prev.to_vec(),
    }
}

/// `rs` and `oracle` hold the same positions in the same slots.
fn assert_same_state(rs: &ResidentSet, oracle: &OracleSet, probes: &[usize]) {
    assert_eq!(rs.positions(), oracle.positions());
    assert_eq!(rs.occupied(), oracle.index.len());
    for &pos in oracle.index.keys().chain(probes).chain(&EDGES) {
        assert_eq!(
            rs.slot_of(pos),
            oracle.index.get(&pos).copied(),
            "position {pos}"
        );
        assert_eq!(
            rs.contains(pos),
            oracle.index.contains_key(&pos),
            "position {pos}"
        );
    }
}

proptest! {
    /// Applying a plan always makes exactly the wanted set resident
    /// (plus possibly stale entries when under budget — the wanted set
    /// itself must always be fully resident).
    #[test]
    fn plan_apply_reaches_wanted_state(
        sels in prop::collection::vec(selection(8, 64), 1..12)
    ) {
        let mut rs = ResidentSet::new(8);
        for wanted in &sels {
            let plan = rs.plan(wanted);
            // Fixed-budget symmetry: when the buffer is full and the
            // selection is at budget, fetch count equals eviction count.
            prop_assert_eq!(plan.fetch.len(), plan.evict_slots.len());
            rs.apply(&plan);
            for w in wanted {
                prop_assert!(rs.contains(*w), "position {} not resident", w);
            }
            prop_assert!(rs.occupied() <= rs.budget());
        }
    }

    /// Transfer volume is exactly the set difference size.
    #[test]
    fn transfer_is_set_difference(
        a in selection(8, 32),
        b in selection(8, 32),
    ) {
        let mut rs = ResidentSet::new(8);
        rs.apply(&rs.plan(&a));
        let plan = rs.plan(&b);
        let a_set: HashSet<_> = a.iter().collect();
        let expected: usize = b.iter().filter(|p| !a_set.contains(p)).count();
        prop_assert_eq!(plan.transfer_count(), expected);
    }

    /// Plans never fetch something already resident.
    #[test]
    fn no_redundant_fetches(
        a in selection(6, 24),
        b in selection(6, 24),
    ) {
        let mut rs = ResidentSet::new(6);
        rs.apply(&rs.plan(&a));
        let plan = rs.plan(&b);
        for f in &plan.fetch {
            prop_assert!(!a.contains(f));
        }
        for r in &plan.reused {
            prop_assert!(a.contains(r) && b.contains(r));
        }
    }

    /// The slot-array planner against the hashing one it replaced, over
    /// selection sequences with unsorted, under-budget, budget-filling,
    /// repeated and shrinking steps: identical plans (same `fetch` and
    /// `reused` order, same `evict_slots`) and identical state after each.
    #[test]
    fn planner_matches_hashing_oracle(
        steps in prop::collection::vec(model_step(), 1..16)
    ) {
        let mut rs = ResidentSet::new(MODEL_BUDGET);
        let mut oracle = OracleSet::new(MODEL_BUDGET);
        let mut wanted = Vec::new();
        for (fresh, mode, salt) in steps {
            wanted = next_wanted(&wanted, fresh, mode, salt);
            let plan = rs.plan(&wanted);
            prop_assert_eq!(&plan, &oracle.plan(&wanted), "wanted {:?}", &wanted);
            rs.apply(&plan);
            oracle.apply(&plan);
            prop_assert_eq!(rs.positions(), oracle.positions());
            prop_assert_eq!(rs.occupied(), oracle.index.len());
            for pos in 0..MODEL_UNIVERSE {
                prop_assert_eq!(rs.slot_of(pos), oracle.index.get(&pos).copied());
                prop_assert_eq!(rs.contains(pos), oracle.index.contains_key(&pos));
            }
        }
    }

    /// `BudgetBuffer::step` (plan and apply fused on reused buffers)
    /// reports the oracle's totals and leaves every head in its state.
    #[test]
    fn buffer_step_matches_hashing_oracle(
        steps in prop::collection::vec((model_step(), model_step()), 1..12)
    ) {
        const LAYERS: usize = 2;
        let mut buffer = BudgetBuffer::new(LAYERS, 2, MODEL_BUDGET);
        let mut oracles: Vec<OracleSet> =
            (0..LAYERS * 2).map(|_| OracleSet::new(MODEL_BUDGET)).collect();
        let mut wanted = [Vec::new(), Vec::new()];
        for (a, b) in steps {
            wanted[0] = next_wanted(&wanted[0], a.0, a.1, a.2);
            wanted[1] = next_wanted(&wanted[1], b.0, b.1, b.2);
            let moved = buffer.step(&vec![wanted.to_vec(); LAYERS]);
            let (mut fetched, mut reused) = (0, 0);
            for (i, oracle) in oracles.iter_mut().enumerate() {
                let plan = oracle.plan(&wanted[i % 2]);
                fetched += plan.fetch.len() as u64;
                reused += plan.reused.len() as u64;
                oracle.apply(&plan);
                prop_assert_eq!(buffer.head(i / 2, i % 2).positions(), oracle.positions());
            }
            prop_assert_eq!((moved.fetched_entries, moved.reused_entries), (fetched, reused));
        }
    }

    /// An L-layer `BudgetBuffer` plans one set per KV head and counts its
    /// moves once per layer: against a 1-layer buffer handed the same
    /// lists, exactly L times its `StepTransfer` every step, and
    /// `head(l, h)` — positions and slots — the 1-layer buffer's head for
    /// every `l`.
    #[test]
    fn buffer_step_counts_one_plan_per_layer(
        steps in prop::collection::vec((model_step(), model_step()), 1..16),
        layers in 1usize..6,
    ) {
        let mut buffer = BudgetBuffer::new(layers, 2, MODEL_BUDGET);
        let mut single = BudgetBuffer::new(1, 2, MODEL_BUDGET);
        let mut wanted = [Vec::new(), Vec::new()];
        for (i, (a, b)) in steps.into_iter().enumerate() {
            wanted[0] = next_wanted(&wanted[0], a.0, a.1, a.2);
            wanted[1] = next_wanted(&wanted[1], b.0, b.1, b.2);
            let moved = buffer.step(&vec![&wanted[..]; layers]);
            let one = single.step(&[&wanted[..]]);
            let l = layers as u64;
            prop_assert_eq!(
                (moved.fetched_entries, moved.reused_entries),
                (l * one.fetched_entries, l * one.reused_entries),
                "step {}", i
            );
            for l in 0..layers {
                for h in 0..2 {
                    let (got, want) = (buffer.head(l, h), single.head(0, h));
                    prop_assert_eq!(got, want, "step {} layer {} head {}", i, l, h);
                    prop_assert_eq!(got.positions(), want.positions());
                }
            }
        }
    }

    /// The bitmap planner against the hashing oracle where the bitmaps
    /// have their edges: positions at 63 / 64 / 127 / 128 and across a
    /// 16 K context, sets under budget, full, unsorted and repeated.
    /// Identical plans and identical state (positions, slots, occupancy)
    /// after each step.
    #[test]
    fn bitmap_planner_matches_hashing_oracle_at_word_edges(
        steps in prop::collection::vec((edge_selection(), 0usize..4), 1..16)
    ) {
        let mut rs = ResidentSet::new(EDGE_BUDGET);
        let mut oracle = OracleSet::new(EDGE_BUDGET);
        let mut wanted = Vec::new();
        for (fresh, mode) in steps {
            wanted = next_edge_wanted(&wanted, fresh, mode);
            let plan = rs.plan(&wanted);
            prop_assert_eq!(&plan, &oracle.plan(&wanted), "wanted {:?}", &wanted);
            rs.apply(&plan);
            oracle.apply(&plan);
            assert_same_state(&rs, &oracle, &wanted);
        }
    }

    /// Hand-built plans through `apply`: an oracle plan with its
    /// (position, slot) pairs in any order lands where the ordered plan
    /// does, and a plan fetching a position that stays resident in a slot
    /// it does not name is refused before anything is written.
    #[test]
    fn hand_built_plans_apply_in_any_order_or_not_at_all(
        steps in prop::collection::vec((edge_selection(), 0usize..4, any::<u64>()), 1..12)
    ) {
        let mut rs = ResidentSet::new(EDGE_BUDGET);
        let mut oracle = OracleSet::new(EDGE_BUDGET);
        let mut wanted = Vec::new();
        for (fresh, mode, salt) in steps {
            wanted = next_edge_wanted(&wanted, fresh, mode);
            let plan = oracle.plan(&wanted);
            let mut pairs: Vec<(usize, usize)> =
                plan.fetch.iter().copied().zip(plan.evict_slots.iter().copied()).collect();
            shuffle(&mut pairs, salt);
            let (fetch, evict_slots) = pairs.into_iter().unzip();
            let shuffled = DiffPlan { fetch, evict_slots, reused: plan.reused.clone() };

            // A stale copy: fetch a position that is resident and stays,
            // into a slot of its own.
            if let Some(&kept) = plan.reused.first() {
                let mut stale = shuffled.clone();
                let free = |s: &usize| oracle.slots[*s] != kept && !stale.evict_slots.contains(s);
                if let Some(slot) = (0..EDGE_BUDGET).find(free) {
                    stale.fetch.push(kept);
                    stale.evict_slots.push(slot);
                    let before = rs.clone();
                    let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        rs.apply(&stale)
                    }));
                    prop_assert!(applied.is_err(), "stale plan {:?} applied", &stale);
                    prop_assert_eq!(&rs, &before);
                    assert_same_state(&rs, &oracle, &wanted);
                }
            }

            rs.apply(&shuffled);
            oracle.apply(&plan);
            assert_same_state(&rs, &oracle, &wanted);
        }
    }

    /// `BudgetBuffer::step` over borrowed per-layer views — every layer
    /// lent one selection — reports what it reports over owned copies of
    /// the same lists, and leaves every head in the same state.
    #[test]
    fn buffer_step_over_borrowed_views_matches_owned_copies(
        steps in prop::collection::vec((model_step(), model_step()), 1..16),
    ) {
        const LAYERS: usize = 4;
        let mut lent = BudgetBuffer::new(LAYERS, 2, MODEL_BUDGET);
        let mut owning = BudgetBuffer::new(LAYERS, 2, MODEL_BUDGET);
        let mut shared = vec![Vec::new(), Vec::new()];
        for (i, (a, b)) in steps.into_iter().enumerate() {
            shared[0] = next_wanted(&shared[0], a.0, a.1, a.2);
            shared[1] = next_wanted(&shared[1], b.0, b.1, b.2);
            let views: Vec<&[Vec<usize>]> = vec![&shared; LAYERS];
            let owned: Vec<Vec<Vec<usize>>> = views.iter().map(|v| v.to_vec()).collect();
            let moved = lent.step(&views);
            let want = owning.step(&owned);
            prop_assert_eq!(moved, want, "step {}", i);
            for l in 0..LAYERS {
                for h in 0..2 {
                    let (got, want) = (lent.head(l, h), owning.head(l, h));
                    prop_assert_eq!(got, want, "step {} layer {} head {}", i, l, h);
                    prop_assert_eq!(got.positions(), want.positions());
                }
            }
        }
    }

    /// Quest page bound: the page score upper-bounds every member dot.
    #[test]
    fn page_score_upper_bound(
        rows in 1usize..40,
        page_size in 1usize..9,
        qseed in 0u64..1000,
    ) {
        let dim = 4;
        let data: Vec<f32> = (0..rows * dim)
            .map(|i| (((i as u64 + qseed) * 2654435761 % 2000) as f32 / 1000.0) - 1.0)
            .collect();
        let keys = Matrix::from_vec(rows, dim, data);
        let q: Vec<f32> = (0..dim)
            .map(|i| (((i as u64 + 3 * qseed) * 40503 % 2000) as f32 / 1000.0) - 1.0)
            .collect();
        let table = PageTable::build(&keys, page_size);
        for p in 0..table.num_pages() {
            let bound = table.page_score(p, &q);
            for r in table.page_range(p) {
                let dot: f32 = q.iter().zip(keys.row(r)).map(|(a, b)| a * b).sum();
                prop_assert!(bound >= dot - 1e-4);
            }
        }
    }

    /// Page expansion covers exactly the selected pages' tokens.
    #[test]
    fn expand_pages_is_exact_cover(
        rows in 1usize..40,
        page_size in 1usize..9,
    ) {
        let keys = Matrix::zeros(rows, 2);
        let table = PageTable::build(&keys, page_size);
        let all: Vec<usize> = (0..table.num_pages()).collect();
        let tokens = table.expand_pages(&all);
        prop_assert_eq!(tokens, (0..rows).collect::<Vec<_>>());
    }

    /// Incrementally extending a page table (in arbitrary chunk sizes)
    /// produces bit-identical min/max metadata to a full rebuild over the
    /// concatenated keys, and identical page scores for any query.
    #[test]
    fn page_table_extend_matches_rebuild(
        rows in 1usize..96,
        dim in 1usize..10,
        page_size in 1usize..20,
        split in 0usize..97,
        vals in prop::collection::vec(-4.0f32..4.0, 96 * 10),
        query in prop::collection::vec(-2.0f32..2.0, 10),
    ) {
        let data: Vec<f32> = vals[..rows * dim].to_vec();
        let keys = Matrix::from_vec(rows, dim, data);
        let split = split.min(rows);
        let prefix = Matrix::from_vec(
            split, dim, keys.as_slice()[..split * dim].to_vec(),
        );
        let suffix = Matrix::from_vec(
            rows - split, dim, keys.as_slice()[split * dim..].to_vec(),
        );
        let mut incremental = PageTable::build(&prefix, page_size);
        incremental.extend(&suffix);
        let rebuilt = PageTable::build(&keys, page_size);
        prop_assert_eq!(incremental.len(), rebuilt.len());
        prop_assert_eq!(incremental.num_pages(), rebuilt.num_pages());
        let q = &query[..dim];
        let a = incremental.scores(q);
        let b = rebuilt.scores(q);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
        // And the scoring kernel itself matches its kept reference.
        prop_assert_eq!(&a, &rebuilt.scores_reference(q));
    }

    /// The row-outer `build` is bit-identical to the retained
    /// column-outer `build_reference`, and page scoring matches the
    /// scalar reference at every SIMD dispatch tier.
    #[test]
    fn build_and_scores_match_references_at_every_tier(
        rows in 0usize..96,
        dim in 1usize..10,
        page_size in 1usize..20,
        vals in prop::collection::vec(-4.0f32..4.0, 96 * 10),
        query in prop::collection::vec(-2.0f32..2.0, 10),
    ) {
        let keys = Matrix::from_vec(rows, dim, vals[..rows * dim].to_vec());
        let table = PageTable::build(&keys, page_size);
        let reference = PageTable::build_reference(&keys, page_size);
        prop_assert_eq!(table.len(), reference.len());
        prop_assert_eq!(table.num_pages(), reference.num_pages());
        let q = &query[..dim];
        let want = reference.scores_reference(q);
        for (x, y) in table.scores(q).iter().zip(&want) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
        for &tier in spec_tensor::dispatch::available_tiers() {
            let got = spec_tensor::dispatch::with_tier(tier, || table.scores(q));
            for (p, (x, y)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "page {} tier {}: {} vs {}", p, tier, x, y
                );
            }
        }
    }
}

/// One speculative selection serves every layer; a layer handed lists of
/// its own is refused rather than planned apart.
#[test]
#[should_panic(expected = "every layer must be handed the same lists")]
fn buffer_step_refuses_a_layer_with_lists_of_its_own() {
    let mut buffer = BudgetBuffer::new(3, 2, 4);
    let shared = [vec![0, 1], vec![2, 3]];
    buffer.step(&[&shared[..], &shared[..], &shared[..]]);
    let own = [vec![0, 1], vec![2, 5]];
    buffer.step(&[&shared[..], &own[..], &shared[..]]);
}
