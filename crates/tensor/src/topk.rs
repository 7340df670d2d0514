//! Top-k selection and sorting helpers.
//!
//! Retrieval algorithms rank KV positions by an importance score and keep
//! the best `k`. These helpers centralize the tie-breaking convention used
//! throughout the workspace: **larger score wins; equal scores break toward
//! the smaller index**, which makes every algorithm deterministic and
//! directly comparable.

use crate::Matrix;

/// Returns the indices of the `k` largest values in `scores`,
/// ordered by descending score (ties toward the smaller index).
///
/// If `k >= scores.len()`, all indices are returned.
///
/// # Example
///
/// ```
/// use spec_tensor::topk::top_k_indices;
/// let idx = top_k_indices(&[0.1, 0.9, 0.5], 2);
/// assert_eq!(idx, vec![1, 2]);
/// ```
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    // One implementation of the selection contract: the allocating entry
    // point delegates to the scratch kernel.
    let mut rank = RankScratch::default();
    rank.top_k_desc(scores, k).to_vec()
}

/// Returns the indices of the `k` largest values, sorted ascending by
/// index rather than by score. This is the canonical form for KV position
/// sets (position order is what the GPU-resident cache layout uses).
///
/// A position set needs no ranking: this is [`RankScratch::mark_top_k`]
/// into a bitset, collected in position order.
pub fn top_k_positions(scores: &[f32], k: usize) -> Vec<usize> {
    let mut marks = PosBitSet::default();
    marks.reset(scores.len());
    RankScratch::default().mark_top_k(scores, 0, k, &mut marks);
    marks.collect_sorted()
}

fn cmp_desc(scores: &[f32], a: usize, b: usize) -> std::cmp::Ordering {
    scores[b]
        .partial_cmp(&scores[a])
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.cmp(&b))
}

/// Full argsort, descending by score with ties toward smaller index.
///
/// This is the *full-sort* path — O(n log n) however small the wanted
/// prefix is. The selection hot path uses [`RankScratch::top_k_desc`]
/// (partial selection, O(n + k log k)) instead; because the comparator is
/// a strict total order for finite scores, the partial result equals the
/// first `k` entries of this argsort, which is what the equivalence
/// property tests pin.
pub fn argsort_desc(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_unstable_by(|&a, &b| cmp_desc(scores, a, b));
    idx
}

// ---------------------------------------------------------------------------
// SelectScratch: the zero-allocation selection workspace
// ---------------------------------------------------------------------------

/// Reusable workspace for the KV-selection hot path.
///
/// Every `LayerSelector` runs per decode step, per layer, per KV head;
/// building that path from `BTreeSet` inserts and per-call `Vec`s made
/// allocation the dominant cost. `SelectScratch` bundles the three
/// arenas the rewritten path needs — pooled score buffers, a top-k
/// workspace, and a position bitset — so a decode
/// loop allocates once and every subsequent selection reuses warm,
/// cache-contiguous memory. The fields are public and independent
/// precisely so callers can destructure and borrow them disjointly:
///
/// ```
/// use spec_tensor::topk::SelectScratch;
/// let mut scratch = SelectScratch::new();
/// let SelectScratch { scores, rank, marks, .. } = &mut scratch;
/// scores.pool_group_max(0..2, |q, buf| {
///     buf.clear();
///     buf.extend([q as f32, 1.0 - q as f32]);
/// });
/// marks.reset(2);
/// rank.mark_top_k(&scores.pooled, 0, 1, marks);
/// assert_eq!(marks.collect_sorted(), vec![0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    /// Score arenas (pooled group-max scores plus a per-member temporary).
    pub scores: ScoreArena,
    /// Top-k workspace (ordered and set selection).
    pub rank: RankScratch,
    /// Bitset over cache positions.
    pub marks: PosBitSet,
    /// The same three for the second half of a selection split by KV
    /// head (`spec_parallel::join`), which may run on another thread.
    pub second: SelectHalf,
    /// The forward pass's own buffers. The scratch is the one workspace a
    /// decode loop threads through every step, so they ride in it;
    /// selectors leave them alone.
    pub forward: ForwardScratch,
}

impl SelectScratch {
    /// An empty scratch. No memory is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A score arena, top-k workspace and bitset: what one half of a
/// selection split by KV head pools, ranks and marks in.
#[derive(Debug, Clone, Default)]
pub struct SelectHalf {
    /// Pooled scores.
    pub scores: ScoreArena,
    /// Top-k workspace.
    pub rank: RankScratch,
    /// Bitset over cache positions.
    pub marks: PosBitSet,
}

/// Buffers of one decode step's forward pass (`spec_model`'s
/// `Model::step`), reused by every layer of the step and, when the caller
/// keeps its [`SelectScratch`], by every step. Each is refilled before it
/// is read; nothing is carried from one use to the next.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// The residual stream.
    pub residual: Vec<f32>,
    /// Its normalization, ahead of the attention and the FFN block.
    pub normed: Vec<f32>,
    /// The layer's queries, `q_heads x head_dim`.
    pub queries: Matrix,
    /// The position's rotary `(sin, cos)` pairs.
    pub rope: Vec<(f32, f32)>,
    /// The layer's fused Q|K|V projection row: the queries on their way
    /// into `queries`, the K and V rows on their way into the cache (MLA:
    /// the latent row).
    pub proj: Vec<f32>,
    /// Attention's work space, one for each half of the KV heads (the
    /// step splits them across two threads with `spec_parallel::join`).
    pub attend: [AttendScratch; 2],
    /// The heads' attention outputs side by side.
    pub concat: Vec<f32>,
    /// A block's output (`wo`, `w_down`) before it joins the residual.
    pub block_out: Vec<f32>,
    /// The FFN's gate activations.
    pub gate: Vec<f32>,
    /// The FFN's up projection.
    pub up: Vec<f32>,
}

/// One KV head's attention work space in a decode step, reused by every
/// head of its half of the step.
#[derive(Debug, Clone, Default)]
pub struct AttendScratch {
    /// The positions the KV head attends.
    pub positions: Vec<usize>,
    /// Its query group's attention scores, then weights, head-major.
    pub scores: Vec<f32>,
    /// `ops::indexed_dots`' key tile.
    pub tile: Vec<f32>,
}

/// Reusable score buffers for the GQA group-max reduction.
#[derive(Debug, Clone, Default)]
pub struct ScoreArena {
    /// The pooled (element-wise max over the group) scores of the last
    /// [`pool_group_max`](Self::pool_group_max) call.
    pub pooled: Vec<f32>,
    /// Per-member temporary.
    tmp: Vec<f32>,
}

impl ScoreArena {
    /// Fills [`pooled`](Self::pooled) with the element-wise maximum of the
    /// score vectors produced by `score_into` for each member of `members`
    /// (the GQA reduction of paper Fig. 5(c)), without allocating.
    ///
    /// `score_into(m, buf)` must clear `buf` and fill it with member `m`'s
    /// scores; every member must produce the same length. Members are
    /// folded in ascending order with the first as the base, which is the
    /// exact accumulation order of the reference `group_max_scores`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the lengths disagree.
    pub fn pool_group_max(
        &mut self,
        members: std::ops::Range<usize>,
        mut score_into: impl FnMut(usize, &mut Vec<f32>),
    ) {
        assert!(!members.is_empty(), "need at least one group member");
        let first = members.start;
        score_into(first, &mut self.pooled);
        for m in members.skip(1) {
            score_into(m, &mut self.tmp);
            assert_eq!(self.tmp.len(), self.pooled.len(), "score length mismatch");
            for (a, b) in self.pooled.iter_mut().zip(&self.tmp) {
                *a = a.max(*b);
            }
        }
    }
}

/// Reusable workspace for the two selection contracts: the *ordered*
/// top-k ([`top_k_desc`](Self::top_k_desc), for consumers that walk
/// candidates best-first) and the *set* top-k
/// ([`mark_top_k`](Self::mark_top_k), for consumers that only need to
/// know which positions made it).
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    idx: Vec<usize>,
    /// Order-preserving integer image of the scores being selected from.
    keys: Vec<u32>,
    /// Bucket counts over the keys' value range.
    hist: Vec<u32>,
    /// The keys of the one bucket the k-th largest falls in.
    boundary: Vec<u32>,
}

/// Buckets of [`RankScratch::mark_top_k`]'s histogram. The keys' own
/// `[min, max]` span is spread over them, so resolution follows the data:
/// a softmax row covering 20 binades gets ~100 buckets a binade and the
/// boundary bucket holds a handful of keys unless scores tie.
const HIST_BUCKETS: usize = 2048;

/// Bit `i` of the result is `pred(keys[i])`, for up to 64 keys: the
/// comparisons fill one byte a key (which vectorises), and a multiply
/// squeezes each eight 0/1 bytes into eight bits.
#[inline(always)]
fn mask64(keys: &[u32], pred: impl Fn(u32) -> bool) -> u64 {
    let mut bytes = [0u8; 64];
    for (b, &key) in bytes.iter_mut().zip(keys) {
        *b = u8::from(pred(key));
    }
    bytes.chunks_exact(8).rev().fold(0, |bits, b| {
        let b = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        bits << 8 | b.wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

// The three sweeps over the context. They are integer work — every tier
// returns the same result — dispatched only so the compares run at the
// machine's vector width.

crate::dispatch_kernel! {
    /// Maps each score to a `u32` whose unsigned order is `partial_cmp`'s
    /// order on the floats, and returns the smallest and largest key:
    /// `+ 0.0` folds `-0.0` onto `+0.0` (they compare equal), then a
    /// negative float has every bit flipped and any other the sign bit
    /// set. NaNs land beyond the infinities on the side of their sign.
    order_keys(scores: &[f32], keys: &mut [u32]) -> (u32, u32) {
        let (mut min, mut max) = (u32::MAX, 0);
        for (key, &x) in keys.iter_mut().zip(scores) {
            let bits = (x + 0.0).to_bits();
            // All ones for a negative float, the sign bit alone otherwise.
            *key = bits ^ (((bits as i32) >> 31) as u32 | 0x8000_0000);
            min = min.min(*key);
            max = max.max(*key);
        }
        (min, max)
    }
}

crate::dispatch_kernel! {
    /// Appends the keys within `lo..=hi` to `out`.
    keys_within(keys: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        for chunk in keys.chunks(64) {
            let mut within = mask64(chunk, |key| key.wrapping_sub(lo) <= hi - lo);
            while within != 0 {
                out.push(chunk[within.trailing_zeros() as usize]);
                within &= within - 1;
            }
        }
    }
}

crate::dispatch_kernel! {
    /// Marks `base + i` for every `keys[i] > t` and for the first `ties`
    /// of the `keys[i] == t`, a 64-position word at a time.
    mark_keys(keys: &[u32], t: u32, ties: usize, base: usize, marks: &mut PosBitSet) {
        let mut ties = ties;
        for (chunk, pos) in keys.chunks(64).zip((base..).step_by(64)) {
            let above = mask64(chunk, |key| key > t);
            let mut equal = mask64(chunk, |key| key == t);
            let tied = equal.count_ones() as usize;
            if ties == 0 {
                equal = 0;
            } else if tied > ties {
                // The last ties go to the smallest indices: the lowest bits.
                for _ in ties..tied {
                    equal &= !(1 << (63 - equal.leading_zeros()));
                }
            }
            ties -= tied.min(ties);
            marks.mark_word(pos, above | equal);
        }
    }
}

impl RankScratch {
    /// Marks `base + i` in `marks` for the `k` largest `scores[i]` (ties
    /// toward the smaller index) and returns how many that is,
    /// `k.min(scores.len())` — the set [`top_k_desc`](Self::top_k_desc)
    /// returns, without ranking it.
    ///
    /// The scores become order-preserving integer keys, one histogram
    /// over the keys' value range finds the bucket holding the k-th
    /// largest, a select over that bucket's few keys gives the k-th key
    /// `t` exactly, and one sweep sets `key > t` plus the first
    /// `k - #{key > t}` positions with `key == t`. No pass over the
    /// scores branches on a comparison, so the cost does not depend on how
    /// predictable the scores are. Order among NaNs is unspecified.
    ///
    /// # Panics
    ///
    /// Panics if a marked position would lie past `marks.len()`.
    pub fn mark_top_k(
        &mut self,
        scores: &[f32],
        base: usize,
        k: usize,
        marks: &mut PosBitSet,
    ) -> usize {
        let n = scores.len();
        let k = k.min(n);
        if k == 0 {
            return 0;
        }
        let tier = crate::dispatch::active_tier();
        self.keys.resize(n, 0);
        let (min, max) = order_keys::dispatch(tier, scores, &mut self.keys);
        // Selecting everything is the threshold "at least the smallest key".
        let (t, ties) = if k == n {
            (min, n)
        } else {
            self.kth_largest_key(k, min, max, tier)
        };
        mark_keys::dispatch(tier, &self.keys, t, ties, base, marks);
        k
    }

    /// The k-th largest of `self.keys` (`1 <= k < keys.len()`, all within
    /// `[min, max]`) and how many keys equal to it belong to the top k.
    fn kth_largest_key(
        &mut self,
        k: usize,
        min: u32,
        max: u32,
        tier: crate::dispatch::SimdTier,
    ) -> (u32, usize) {
        // `(key - min) >> shift < HIST_BUCKETS` for every key.
        let shift =
            (u32::BITS - (max - min).leading_zeros()).saturating_sub(HIST_BUCKETS.trailing_zeros());
        self.hist.clear();
        self.hist.resize(HIST_BUCKETS, 0);
        for &key in &self.keys {
            self.hist[((key - min) >> shift) as usize % HIST_BUCKETS] += 1;
        }
        // Walk down from the top bucket until k keys are covered.
        let mut bucket = ((max - min) >> shift) as usize;
        let mut above = 0;
        while above + (self.hist[bucket] as usize) < k {
            above += self.hist[bucket] as usize;
            bucket -= 1;
        }
        let lo = min + ((bucket as u32) << shift);
        let hi = lo + ((1u32 << shift) - 1).min(max - lo);
        self.boundary.clear();
        keys_within::dispatch(tier, &self.keys, lo, hi, &mut self.boundary);
        // `rank` keys of this bucket are in the top k, `1 <= rank <= len`.
        let rank = k - above;
        let at = self.boundary.len() - rank;
        let (_, &mut t, larger) = self.boundary.select_nth_unstable(at);
        let ties = rank - larger.iter().filter(|&&key| key > t).count();
        (t, ties)
    }

    /// The indices of the `k` largest values in `scores`, ordered by
    /// descending score (ties toward the smaller index) — the same
    /// contract as [`top_k_indices`], but into a reused buffer.
    ///
    /// Built on `select_nth_unstable`: O(n) partition plus an
    /// O(k log k) sort of the prefix, instead of the O(n log n) full
    /// [`argsort_desc`]. For finite scores the comparator is a strict
    /// total order, so the returned slice equals `argsort_desc(scores)`
    /// truncated to `k`.
    pub fn top_k_desc(&mut self, scores: &[f32], k: usize) -> &[usize] {
        let k = k.min(scores.len());
        self.idx.clear();
        self.idx.extend(0..scores.len());
        if k < scores.len() {
            self.idx
                .select_nth_unstable_by(k, |&a, &b| cmp_desc(scores, a, b));
            self.idx.truncate(k);
        }
        self.idx.sort_unstable_by(|&a, &b| cmp_desc(scores, a, b));
        &self.idx[..k]
    }
}

/// A growable bitset over cache positions with a running popcount.
///
/// Replaces the `BTreeSet<usize>` the selectors used to accumulate
/// picked positions in: `mark` is O(1) with no allocation (after the
/// words buffer warms up), and [`collect_sorted`](Self::collect_sorted)
/// walks the words once to emit the ascending position list — the same
/// order `BTreeSet` iteration produced.
#[derive(Debug, Clone, Default)]
pub struct PosBitSet {
    words: Vec<u64>,
    len: usize,
    marked: usize,
}

impl PosBitSet {
    /// Clears all marks and sizes the set for positions `< len`.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        self.marked = 0;
    }

    /// Marks `pos`; returns `true` if it was not already marked.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    pub fn mark(&mut self, pos: usize) -> bool {
        assert!(pos < self.len, "position {pos} out of range {}", self.len);
        let (w, bit) = (pos / 64, 1u64 << (pos % 64));
        if self.words[w] & bit != 0 {
            false
        } else {
            self.words[w] |= bit;
            self.marked += 1;
            true
        }
    }

    /// Marks `pos + b` for every set bit `b` of `bits` — 64 positions
    /// with one or two word writes.
    ///
    /// # Panics
    ///
    /// Panics if a set bit reaches past the set's length.
    #[inline]
    fn mark_word(&mut self, pos: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        let top = pos + (63 - bits.leading_zeros() as usize);
        assert!(top < self.len, "position {top} out of range {}", self.len);
        let (w, s) = (pos / 64, pos % 64);
        let fresh = (bits << s) & !self.words[w];
        self.words[w] |= fresh;
        self.marked += fresh.count_ones() as usize;
        if s != 0 && bits >> (64 - s) != 0 {
            let fresh = (bits >> (64 - s)) & !self.words[w + 1];
            self.words[w + 1] |= fresh;
            self.marked += fresh.count_ones() as usize;
        }
    }

    /// Whether `pos` is marked (out-of-range positions are not).
    #[inline]
    pub fn contains(&self, pos: usize) -> bool {
        pos < self.len && self.words[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Number of marked positions.
    pub fn count(&self) -> usize {
        self.marked
    }

    /// The marked positions, ascending, in an exact-size vector (the one
    /// unavoidable allocation: the selection the caller keeps).
    pub fn collect_sorted(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.marked);
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }
}

/// Sum of the `k` largest values (the "attention mass" captured by an
/// oracle top-k selection; used for Fig. 5(a)-style accumulation curves).
///
/// Selects the `k` largest with `select_nth_unstable` alone — no
/// O(k log k) sort of the prefix, since only the sum is needed. The
/// prefix is summed in partition order, which is deterministic for a
/// given input but unspecified (it is *not* the descending-score order
/// a sorted implementation would sum in).
pub fn top_k_mass(scores: &[f32], k: usize) -> f32 {
    let k = k.min(scores.len());
    if k == 0 {
        return 0.0;
    }
    if k == scores.len() {
        return scores.iter().sum();
    }
    let mut vals = scores.to_vec();
    vals.select_nth_unstable_by(k, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    });
    vals[..k].iter().sum()
}

/// The attention mass captured by an arbitrary selection of positions.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn selection_mass(scores: &[f32], selection: &[usize]) -> f32 {
    selection.iter().map(|&i| scores[i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_largest() {
        let idx = top_k_indices(&[1.0, 5.0, 3.0, 4.0], 2);
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn k_exceeding_len_returns_all() {
        let idx = top_k_indices(&[2.0, 1.0], 10);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        let idx = top_k_indices(&[1.0, 1.0, 1.0], 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn positions_are_sorted_ascending() {
        let pos = top_k_positions(&[0.0, 9.0, 0.0, 8.0, 7.0], 3);
        assert_eq!(pos, vec![1, 3, 4]);
    }

    #[test]
    fn argsort_desc_full_order() {
        let order = argsort_desc(&[0.5, 2.0, 1.0]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn top_k_mass_matches_manual_sum() {
        let scores = [0.1, 0.4, 0.2, 0.3];
        assert!((top_k_mass(&scores, 2) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn selection_mass_counts_selected_only() {
        let scores = [0.25, 0.5, 0.25];
        assert!((selection_mass(&scores, &[0, 2]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn handles_nan_without_panicking() {
        let idx = top_k_indices(&[f32::NAN, 1.0, 2.0], 2);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn rank_scratch_matches_argsort_prefix() {
        let scores = [0.3, -1.0, 0.3, 2.5, 0.0, 2.5, -0.7];
        let mut rank = RankScratch::default();
        let full = argsort_desc(&scores);
        for k in 0..=scores.len() + 2 {
            let got = rank.top_k_desc(&scores, k);
            assert_eq!(got, &full[..k.min(scores.len())], "k={k}");
        }
    }

    #[test]
    fn rank_scratch_reuses_buffer_across_calls() {
        let mut rank = RankScratch::default();
        assert_eq!(rank.top_k_desc(&[1.0, 3.0, 2.0], 2), &[1, 2]);
        assert_eq!(rank.top_k_desc(&[5.0, 4.0], 1), &[0]);
        assert_eq!(rank.top_k_desc(&[], 3), &[] as &[usize]);
    }

    #[test]
    fn mark_top_k_is_the_argsort_prefix_as_a_set() {
        // Ties at 2.5 and 0.3: the smaller index wins the last place.
        let scores = [0.3, -1.0, 0.3, 2.5, 0.0, 2.5, -0.7];
        let mut rank = RankScratch::default();
        let mut marks = PosBitSet::default();
        let full = argsort_desc(&scores);
        for k in 0..=scores.len() + 2 {
            marks.reset(100 + scores.len());
            marks.mark(3);
            assert_eq!(
                rank.mark_top_k(&scores, 100, k, &mut marks),
                k.min(scores.len())
            );
            let mut want: Vec<usize> = full.iter().take(k).map(|&i| 100 + i).collect();
            want.push(3);
            want.sort_unstable();
            assert_eq!(marks.collect_sorted(), want, "k={k}");
        }
    }

    #[test]
    fn mark_word_straddles_words_and_counts_fresh_bits() {
        let mut bs = PosBitSet::default();
        bs.reset(200);
        bs.mark(70);
        bs.mark_word(60, 0b1_0100_0100_0011); // 60, 61, 66, 70 (already set), 72
        assert_eq!(bs.collect_sorted(), vec![60, 61, 66, 70, 72]);
        assert_eq!(bs.count(), 5);
        bs.mark_word(136, 1 << 63);
        assert!(bs.contains(199));
        bs.mark_word(0, 0);
        assert_eq!(bs.count(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mark_word_rejects_bits_past_the_end() {
        let mut bs = PosBitSet::default();
        bs.reset(130);
        bs.mark_word(128, 0b100);
    }

    #[test]
    fn bitset_marks_and_collects_ascending() {
        let mut bs = PosBitSet::default();
        bs.reset(200);
        for p in [130, 3, 64, 3, 199, 0] {
            bs.mark(p);
        }
        assert_eq!(bs.count(), 5);
        assert!(bs.contains(64) && !bs.contains(65));
        assert!(!bs.contains(900), "out of range is simply unmarked");
        assert_eq!(bs.collect_sorted(), vec![0, 3, 64, 130, 199]);
    }

    #[test]
    fn bitset_reset_clears_previous_marks() {
        let mut bs = PosBitSet::default();
        bs.reset(70);
        bs.mark(69);
        bs.reset(10);
        assert_eq!(bs.count(), 0);
        assert!(!bs.contains(69));
        assert!(bs.mark(9), "fresh mark after reset");
    }

    #[test]
    fn mark_reports_freshness() {
        let mut bs = PosBitSet::default();
        bs.reset(8);
        assert!(bs.mark(5));
        assert!(!bs.mark(5));
        assert_eq!(bs.count(), 1);
    }

    #[test]
    fn score_arena_pools_like_group_max() {
        let rows = [vec![1.0f32, 0.0, 3.0], vec![0.0, 2.0, -1.0]];
        let mut arena = ScoreArena::default();
        arena.pool_group_max(0..2, |m, buf| {
            buf.clear();
            buf.extend_from_slice(&rows[m]);
        });
        assert_eq!(arena.pooled, vec![1.0, 2.0, 3.0]);
        // Single-member groups are the identity.
        arena.pool_group_max(1..2, |m, buf| {
            buf.clear();
            buf.extend_from_slice(&rows[m]);
        });
        assert_eq!(arena.pooled, rows[1]);
    }
}
