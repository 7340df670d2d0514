//! Statistics over selections and score vectors.
//!
//! These are the measurement tools behind the paper's similarity analyses:
//! overlap rate between adjacent-step selections (Fig. 6b), hit rate of
//! DLM-selected tokens against teacher-important tokens (Fig. 5a), and the
//! usual summary statistics.

use std::borrow::Cow;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Whether `xs` is strictly ascending — what a selection is by contract.
fn is_ascending_set(xs: &[usize]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// `xs` as a set, strictly ascending: borrowed when it already is, a
/// sorted and deduplicated copy otherwise.
fn sorted_set(xs: &[usize]) -> Cow<'_, [usize]> {
    if is_ascending_set(xs) {
        return Cow::Borrowed(xs);
    }
    let mut owned = xs.to_vec();
    owned.sort_unstable();
    owned.dedup();
    Cow::Owned(owned)
}

/// `|a ∩ b|` of two strictly ascending lists: one merge whose cursors
/// advance on comparison results rather than branches — which of two
/// selections runs ahead is as good as random.
fn merge_shared(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        shared += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    shared
}

/// Positions [`bitmap_hits`] marks on the stack: 8 K, one 1 KiB bitmap.
const BITMAP_POSITIONS: usize = 8192;

/// How many elements of `a` (repeats counted) appear in `b`, when `b` is
/// ascending and ends below [`BITMAP_POSITIONS`]: `b` is marked in a
/// bitmap on the stack — a word at a time in a register, stored as it
/// grows, the way `SpecSelection::union_words_into` marks a head — and
/// each element of `a` is one bit test. Unlike a merge, no step waits on
/// the comparison before it. `None` when `b` does not qualify.
fn bitmap_hits(a: &[usize], b: &[usize]) -> Option<usize> {
    let &last = b.last()?;
    if last >= BITMAP_POSITIONS {
        return None;
    }
    let mut bitmap = [0u64; BITMAP_POSITIONS / 64];
    let words = &mut bitmap[..=last / 64];
    let (mut word, mut at, mut prev, mut ascending) = (0u64, usize::MAX, 0, true);
    for &p in b {
        ascending &= p >= prev;
        prev = p;
        // Only an unsorted `b` can pass `last`; its marks are dropped.
        let p = p.min(last);
        let (w, bit) = (p / 64, 1u64 << (p % 64));
        word = bit | word & u64::from(w == at).wrapping_neg();
        words[w] = word;
        at = w;
    }
    ascending.then(|| {
        a.iter()
            .filter(|&&x| x <= last && words[x / 64] >> (x % 64) & 1 != 0)
            .count()
    })
}

/// `|a ∩ b| / |a|`: the fraction of `a` (repeats counted) that also
/// appears in `b`.
///
/// This is the paper's **hit rate** (Fig. 5a): the fraction of
/// teacher-important tokens that the retrieval head also selects.
/// Returns `1.0` when `a` is empty (nothing to hit). An ascending `b`
/// within the first 8 K positions — a selection over the contexts the
/// simulated models run — is marked in a bitmap and `a` looked up in it;
/// otherwise two ascending lists are counted by one merge, in place, and
/// an unsorted or repeating `b` is sorted into a set first, an unsorted
/// or repeating `a` (the evaluation code's top-k lists) looks each
/// element up in it. All count the same.
pub fn hit_rate(a: &[usize], b: &[usize]) -> f32 {
    if a.is_empty() {
        return 1.0;
    }
    let hits = bitmap_hits(a, b).unwrap_or_else(|| {
        let b = sorted_set(b);
        if is_ascending_set(a) {
            merge_shared(a, &b)
        } else {
            a.iter().filter(|x| b.binary_search(x).is_ok()).count()
        }
    });
    hits as f32 / a.len() as f32
}

/// Jaccard index `|a ∩ b| / |a ∪ b|` of the two lists as sets. Returns
/// `1.0` when both are empty. Counted by merge, as [`hit_rate`] is.
pub fn jaccard(a: &[usize], b: &[usize]) -> f32 {
    let (a, b) = (sorted_set(a), sorted_set(b));
    let shared = merge_shared(&a, &b);
    let union = a.len() + b.len() - shared;
    if union == 0 {
        return 1.0;
    }
    shared as f32 / union as f32
}

/// Overlap rate between two selections, `|a ∩ b| / |a|` (Fig. 6b's
/// adjacent-generation overlap): [`hit_rate`] under the name the
/// decode loop reads it by, whether or not the budgets are equal.
pub fn overlap_rate(a: &[usize], b: &[usize]) -> f32 {
    hit_rate(a, b)
}

/// KL divergence `D(p || q)` between two distributions given as
/// (not necessarily normalized) non-negative weight vectors.
/// Zero entries in `p` contribute nothing; zero entries in `q` where
/// `p > 0` are smoothed by `eps` to keep the result finite.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn kl_divergence(p: &[f32], q: &[f32], eps: f32) -> f32 {
    assert_eq!(p.len(), q.len(), "kl length mismatch");
    let sp: f32 = p.iter().sum();
    let sq: f32 = q.iter().sum();
    if sp <= 0.0 || sq <= 0.0 {
        return 0.0;
    }
    let mut kl = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        let pn = pi / sp;
        if pn <= 0.0 {
            continue;
        }
        let qn = (qi / sq).max(eps);
        kl += pn * (pn / qn).ln();
    }
    kl.max(0.0)
}

/// Nearest-rank percentile of an unsorted sample, `p` in `[0, 1]`.
/// `0.0` for an empty slice. The rank is `⌊n·p⌋` clamped to the last
/// element, matching the serving reports' historical p95 definition so
/// single-node and cluster latency numbers stay comparable.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    rank_sorted(&sorted, p)
}

/// Nearest-rank lookup in an ascending-sorted non-empty sample — the one
/// definition [`percentile`] and [`PercentileSummary`] share.
fn rank_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)]
}

/// The standard latency summary (mean + p50/p95/p99) every serving
/// report carries, for TTFT, TBT and end-to-end latency alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PercentileSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl PercentileSummary {
    /// Summarizes an unsorted sample; all zeros for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Self {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: rank_sorted(&sorted, 0.50),
            p95: rank_sorted(&sorted, 0.95),
            p99: rank_sorted(&sorted, 0.99),
        }
    }
}

/// Geometric mean of positive values; `0.0` if any value is non-positive
/// or the slice is empty. Used to aggregate normalized scores.
pub fn geometric_mean(xs: &[f32]) -> f32 {
    if xs.is_empty() || xs.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|v| v.ln()).sum::<f32>() / xs.len() as f32).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn hit_rate_counts_intersection() {
        assert!((hit_rate(&[1, 2, 3, 4], &[3, 4, 5, 6]) - 0.5).abs() < 1e-6);
        assert_eq!(hit_rate(&[], &[1]), 1.0);
        assert_eq!(hit_rate(&[1], &[]), 0.0);
        // Either side of the bitmap's last position.
        for last in [BITMAP_POSITIONS - 1, BITMAP_POSITIONS] {
            let b = [5, 64, 4096, last];
            assert_eq!(hit_rate(&[5, 63, last, last + 1], &b), 0.5);
        }
    }

    #[test]
    fn jaccard_extremes() {
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn kl_zero_for_identical() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p, 1e-9) < 1e-6);
    }

    #[test]
    fn kl_positive_for_different() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        assert!(kl_divergence(&p, &q, 1e-9) > 0.5);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.95), 5.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_matches_legacy_p95_indexing() {
        // The scheduler's historical p95: sorted[min(floor(n*0.95), n-1)].
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let idx = ((xs.len() as f64 * 0.95) as usize).min(xs.len() - 1);
        assert_eq!(percentile(&xs, 0.95), xs[idx]);
    }

    #[test]
    fn percentile_summary_orders_quantiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = PercentileSummary::from_samples(&xs);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert_eq!(s.p99, 100.0);
        assert_eq!(
            PercentileSummary::from_samples(&[]),
            PercentileSummary::default()
        );
    }

    #[test]
    fn geometric_mean_known() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-5);
        assert_eq!(geometric_mean(&[1.0, 0.0]), 0.0);
    }
}
