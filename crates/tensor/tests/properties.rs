//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use spec_tensor::quant::{max_roundtrip_error, BitWidth, QuantVec};
use spec_tensor::topk::{selection_mass, top_k_indices, top_k_positions};
use spec_tensor::{ops, Matrix};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

/// The hash-set `stats::{hit_rate, jaccard}` the merges replaced.
mod hashed {
    use std::collections::HashSet;

    pub fn hit_rate(a: &[usize], b: &[usize]) -> f32 {
        if a.is_empty() {
            return 1.0;
        }
        let set: HashSet<usize> = b.iter().copied().collect();
        a.iter().filter(|i| set.contains(i)).count() as f32 / a.len() as f32
    }

    pub fn jaccard(a: &[usize], b: &[usize]) -> f32 {
        let sa: HashSet<usize> = a.iter().copied().collect();
        let sb: HashSet<usize> = b.iter().copied().collect();
        let union = sa.union(&sb).count();
        if union == 0 {
            return 1.0;
        }
        sa.intersection(&sb).count() as f32 / union as f32
    }
}

/// A position list in one of the shapes callers pass: strictly ascending
/// (a selection), as drawn (unsorted, repeats likely — the evaluation
/// code's top-k lists), sorted with its repeats kept, or empty.
fn position_list() -> impl Strategy<Value = Vec<usize>> {
    (prop::collection::vec(0usize..60, 0..40), 0usize..4).prop_map(|(mut xs, shape)| {
        match shape {
            0 => {
                xs.sort_unstable();
                xs.dedup();
            }
            1 => {}
            2 => xs.sort_unstable(),
            _ => xs.clear(),
        }
        xs
    })
}

proptest! {
    #[test]
    fn softmax_is_a_distribution(xs in finite_vec(64)) {
        let mut v = xs.clone();
        ops::softmax_inplace(&mut v);
        let sum: f32 = v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    #[test]
    fn softmax_preserves_order(xs in finite_vec(32)) {
        let mut v = xs.clone();
        ops::softmax_inplace(&mut v);
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(v[i] >= v[j]);
                }
            }
        }
    }

    #[test]
    fn top_k_indices_unique_and_in_range(xs in finite_vec(128), k in 0usize..64) {
        let idx = top_k_indices(&xs, k);
        prop_assert_eq!(idx.len(), k.min(xs.len()));
        let mut seen = std::collections::HashSet::new();
        for &i in &idx {
            prop_assert!(i < xs.len());
            prop_assert!(seen.insert(i));
        }
    }

    #[test]
    fn top_k_is_optimal_subset(xs in finite_vec(64), k in 1usize..32) {
        // The mass captured by top-k must be >= the mass of any other
        // subset of exactly the same size (a rotation of the index range).
        let k = k.min(xs.len());
        let top = top_k_indices(&xs, k);
        let top_mass = selection_mass(&xs, &top);
        let other: Vec<usize> = (0..k).map(|i| (i + 3) % xs.len()).collect();
        let mut dedup = other;
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() == k {
            let other_mass = selection_mass(&xs, &dedup);
            let tol = 1e-3 * (1.0 + top_mass.abs().max(other_mass.abs()));
            prop_assert!(top_mass >= other_mass - tol);
        }
    }

    #[test]
    fn top_k_positions_sorted(xs in finite_vec(64), k in 0usize..64) {
        let pos = top_k_positions(&xs, k);
        prop_assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in prop::collection::vec(-10.0f32..10.0, 12),
        b in prop::collection::vec(-10.0f32..10.0, 12),
        c in prop::collection::vec(-10.0f32..10.0, 12),
    ) {
        let ma = Matrix::from_vec(3, 4, a);
        let mb = Matrix::from_vec(4, 3, b);
        let mc = Matrix::from_vec(4, 3, c);
        let left = ma.matmul(&mb.add(&mc));
        let right = ma.matmul(&mb).add(&ma.matmul(&mc));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn transpose_swaps_matmul(
        a in prop::collection::vec(-5.0f32..5.0, 6),
        b in prop::collection::vec(-5.0f32..5.0, 6),
    ) {
        // (A B)^T == B^T A^T
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let left = ma.matmul(&mb).transposed();
        let right = mb.transposed().matmul(&ma.transposed());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn int8_quant_error_bounded(xs in finite_vec(64)) {
        let q = QuantVec::quantize(&xs, BitWidth::Int8);
        let absmax = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bound = max_roundtrip_error(absmax, BitWidth::Int8) + 1e-5;
        for (orig, back) in xs.iter().zip(q.dequantize()) {
            prop_assert!((orig - back).abs() <= bound, "{} vs {}", orig, back);
        }
    }

    #[test]
    fn int4_quant_error_bounded(xs in finite_vec(64)) {
        let q = QuantVec::quantize(&xs, BitWidth::Int4);
        let absmax = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bound = max_roundtrip_error(absmax, BitWidth::Int4) + 1e-5;
        for (orig, back) in xs.iter().zip(q.dequantize()) {
            prop_assert!((orig - back).abs() <= bound);
        }
    }

    #[test]
    fn quant_dot_matches_dequant_dot(xs in finite_vec(32)) {
        let q = QuantVec::quantize(&xs, BitWidth::Int8);
        let query: Vec<f32> = (0..xs.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let fused = q.dot(&query);
        let manual: f32 = q.dequantize().iter().zip(&query).map(|(a, b)| a * b).sum();
        prop_assert!((fused - manual).abs() < 1e-3 * (1.0 + fused.abs()));
    }

    #[test]
    fn gather_rows_matches_manual(rows in 1usize..20, picks in prop::collection::vec(0usize..20, 0..10)) {
        let m = Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| i as f32).collect());
        let picks: Vec<usize> = picks.into_iter().map(|p| p % rows).collect();
        let g = m.gather_rows(&picks);
        for (dst, &src) in picks.iter().enumerate() {
            prop_assert_eq!(g.row(dst), m.row(src));
        }
    }

    #[test]
    fn hit_rate_bounds(a in prop::collection::vec(0usize..50, 0..30), b in prop::collection::vec(0usize..50, 0..30)) {
        let h = spec_tensor::stats::hit_rate(&a, &b);
        prop_assert!((0.0..=1.0).contains(&h));
    }

    /// The merge-counted overlap statistics return the hash-set ones'
    /// bits for every input, not only the ascending lists they are fast
    /// on — including lists `apart`, which share nothing, and lists
    /// moved onto the edge of `hit_rate`'s 8 K-position bitmap and past
    /// it, where it counts by merge instead.
    #[test]
    fn overlap_merges_match_hash_sets(
        a in position_list(),
        b in position_list(),
        apart in any::<bool>(),
        base in 0usize..3,
    ) {
        use spec_tensor::stats;
        let base = [0, 8192 - 30, 8192][base];
        let a: Vec<usize> = a.into_iter().map(|p| p + base).collect();
        let b: Vec<usize> = b.into_iter().map(|p| p + base + 100 * usize::from(apart)).collect();
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            prop_assert_eq!(stats::hit_rate(x, y).to_bits(), hashed::hit_rate(x, y).to_bits());
            prop_assert_eq!(stats::overlap_rate(x, y).to_bits(), hashed::hit_rate(x, y).to_bits());
            prop_assert_eq!(stats::jaccard(x, y).to_bits(), hashed::jaccard(x, y).to_bits());
        }
    }

    #[test]
    fn kl_nonnegative(p in finite_vec(16), q in finite_vec(16)) {
        let n = p.len().min(q.len());
        let p: Vec<f32> = p[..n].iter().map(|v| v.abs()).collect();
        let q: Vec<f32> = q[..n].iter().map(|v| v.abs()).collect();
        prop_assert!(spec_tensor::stats::kl_divergence(&p, &q, 1e-9) >= 0.0);
    }
}
