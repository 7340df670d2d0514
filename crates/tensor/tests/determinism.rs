//! The determinism contract of the sweep kernels: `matmul` and
//! `softmax_rows` (serial, one kernel call over all rows) must match their
//! serial references **bit-for-bit** across random shapes, and the k-means
//! assignment sweep — the one kernel that fans out — must do so at
//! `SPEC_THREADS ∈ {1, 2, 7}` as well (pinned per run via
//! `spec_parallel::with_threads`, which takes precedence over the env
//! var).

use proptest::prelude::*;
use spec_tensor::kmeans::{self, KMeansConfig};
use spec_tensor::{ops, SimRng};

/// The thread counts the k-means contract is checked at: serial, even,
/// and an odd count that splits into leaves of uneven size.
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs ({g} vs {w})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` equals the reference triple loop across shapes that
    /// straddle the naive/blocked dispatch boundary and every tile edge
    /// case.
    #[test]
    fn matmul_matches_reference_bitwise(
        shape in (1usize..48, 1usize..48, 1usize..48, any::<u64>())
    ) {
        let (m, k, n, seed) = shape;
        let mut rng = SimRng::seed(seed);
        let a = rng.normal_matrix(m, k, 1.0);
        let b = rng.normal_matrix(k, n, 1.0);
        assert_bits_eq(
            a.matmul(&b).as_slice(),
            a.matmul_naive(&b).as_slice(),
            &format!("matmul {m}x{k}x{n}"),
        );
    }

    /// `softmax_rows` — every row in one kernel call — equals softmaxing
    /// each row on its own (it has no fan-out: at ~1 ns an element, a
    /// fan-out broke even only at 2^20 elements).
    #[test]
    fn softmax_rows_matches_serial_bitwise(
        shape in (1usize..96, 1usize..300, any::<u64>())
    ) {
        let (rows, cols, seed) = shape;
        let m = SimRng::seed(seed).normal_matrix(rows, cols, 2.0);
        let mut reference = m.clone();
        for r in 0..reference.rows() {
            ops::softmax_inplace(reference.row_mut(r));
        }
        assert_bits_eq(
            ops::softmax_rows(&m).as_slice(),
            reference.as_slice(),
            &format!("softmax_rows {rows}x{cols}"),
        );
    }

    /// The k-means assignment sweep (`assign_all`) equals the serial
    /// per-point `nearest_centroid` loop at every thread count.
    #[test]
    fn nearest_centroid_sweep_matches_serial(
        shape in (1usize..200, 1usize..40, 1usize..24, any::<u64>())
    ) {
        let (points, dim, k, seed) = shape;
        let mut rng = SimRng::seed(seed);
        let pts = rng.normal_matrix(points, dim, 1.0);
        let cents = rng.normal_matrix(k, dim, 1.0);
        let reference: Vec<(usize, f32)> = (0..pts.rows())
            .map(|i| kmeans::nearest_centroid(pts.row(i), &cents))
            .collect();
        for t in THREAD_COUNTS {
            let got = spec_parallel::with_threads(t, || kmeans::assign_all(&pts, &cents));
            assert_eq!(got.len(), reference.len());
            for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.0, w.0, "assignment {i} threads={t}");
                assert_eq!(
                    g.1.to_bits(),
                    w.1.to_bits(),
                    "distance {i} threads={t} ({} vs {})",
                    g.1,
                    w.1
                );
            }
        }
    }
}

/// The premise of the chunked prefill: row `i` of `a.matmul(&b)` is
/// `b.vecmat(a.row(i))` bit for bit, so a block of positions can go
/// through one gemm where a decode step goes through one `vecmat` each.
/// It holds on every dispatch path — the single-row fast path, the
/// reference loop below the blocked threshold, the blocked tiles above it
/// (a 1-row tail tile and a second `k` panel included), at every SIMD
/// tier — and although `vecmat` skips inputs that are
/// exactly zero: an accumulator that started at `+0.0` is never `-0.0`, so
/// adding `±0.0 * w` leaves it as it was for any finite `w`.
#[test]
fn matmul_rows_match_vecmat_across_dispatch_paths() {
    for (m, k, n) in [
        (1usize, 64usize, 16usize), // vecmat_fast
        (15, 64, 16),               // reference loop, one short of blocked
        (16, 64, 16),               // blocked, whole tiles
        (64, 64, 128),
        (65, 128, 64), // blocked, 1-row tail tile
        (13, 300, 33), // two k panels, edge tiles both ways
    ] {
        let mut rng = SimRng::seed((m * 131 + k * 17 + n) as u64);
        let mut a = rng.normal_matrix(m, k, 1.0);
        let b = rng.normal_matrix(k, n, 1.0);
        // Exact zeros of both signs: scattered, leading a row, a whole row.
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            match i % 11 {
                3 => *v = 0.0,
                7 => *v = -0.0,
                _ => {}
            }
        }
        a.row_mut(m / 2)[..k / 2].fill(-0.0);
        a.row_mut(m - 1).fill(if m % 2 == 0 { 0.0 } else { -0.0 });
        for &tier in spec_tensor::dispatch::available_tiers() {
            let got = spec_tensor::dispatch::with_tier(tier, || a.matmul(&b));
            for i in 0..m {
                assert_bits_eq(
                    got.row(i),
                    &b.vecmat(a.row(i)),
                    &format!("{m}x{k}x{n} row {i} tier {tier}"),
                );
            }
        }
    }
}

/// A whole Lloyd run — seeding, assignment sweeps, centroid updates,
/// inertia — is identical at every thread count (same RNG seed per run).
#[test]
fn full_kmeans_is_thread_count_invariant() {
    let run = |threads: usize| {
        spec_parallel::with_threads(threads, || {
            let mut rng = SimRng::seed(0x1EAF);
            let pts = rng.normal_matrix(300, 24, 1.0);
            kmeans::kmeans(
                &pts,
                KMeansConfig {
                    k: 12,
                    ..KMeansConfig::default()
                },
                &mut rng,
            )
        })
    };
    let reference = run(1);
    for t in [2usize, 7] {
        let got = run(t);
        assert_eq!(got.assignments, reference.assignments, "threads={t}");
        assert_eq!(got.iterations, reference.iterations, "threads={t}");
        assert_eq!(
            got.inertia.to_bits(),
            reference.inertia.to_bits(),
            "threads={t}"
        );
        assert_bits_eq(
            got.centroids.as_slice(),
            reference.centroids.as_slice(),
            &format!("centroids threads={t}"),
        );
    }
}

/// `Matrix` equality on the empty/degenerate edges of the dispatch.
#[test]
fn degenerate_shapes_match() {
    for (m, k, n) in [(1usize, 1usize, 1usize), (1, 17, 1), (2, 0, 3), (1, 5, 40)] {
        let mut rng = SimRng::seed((m * 31 + k * 7 + n) as u64);
        let a = rng.normal_matrix(m, k, 1.0);
        let b = rng.normal_matrix(k, n, 1.0);
        assert_bits_eq(
            a.matmul(&b).as_slice(),
            a.matmul_naive(&b).as_slice(),
            &format!("{m}x{k}x{n}"),
        );
    }
}
