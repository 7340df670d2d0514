//! Cache-blocked, B-packed matrix-multiply kernel.
//!
//! Layout follows the classic GEBP decomposition: the `k` dimension is
//! processed in [`KC`]-deep panels; each panel of `B` is packed into
//! [`NR`]-column strips (contiguous per `k`, zero-padded at the right
//! edge) so the micro-kernel streams it linearly; rows of the output are
//! computed [`MR`] at a time with an `MR x NR` register-resident
//! accumulator tile, which cuts the `B`-panel traffic by `MR` and keeps
//! the output out of the inner loop entirely.
//!
//! # Determinism contract
//!
//! Every output element accumulates its `k` products in **ascending `k`
//! order** — panel by panel, then element by element inside the panel —
//! which is exactly the order of the reference triple loop
//! ([`Matrix::matmul_naive`]). Parallelism only partitions output rows
//! into disjoint contiguous bands (`spec_parallel::par_bands_mut`), and a
//! band's results do not depend on its boundaries, so the product is
//! bit-for-bit identical to the reference at any thread count, including
//! the serial path. The register tile runs on the workspace
//! [`dispatch`](crate::dispatch) registry (scalar/AVX2/AVX-512/NEON
//! variants of one body), so the same bits also hold at every SIMD tier
//! and under a forced `SPEC_SIMD=scalar`.

use crate::Matrix;

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile (and per packed strip).
const NR: usize = 16;
/// Depth of a packed `B` panel.
const KC: usize = 256;

/// Below this many multiply-adds the reference loop wins (no packing,
/// no tile setup).
const BLOCKED_MIN_MULADDS: usize = 16 * 1024;
/// Below this many multiply-adds the scoped-spawn overhead of going
/// parallel outweighs the work: a spawn costs ~100 µs and a million
/// multiply-adds ~60 µs. Measured break-even on two cores (`m x 64 x 128`,
/// two workers ÷ one, best of 200): 1.26–1.60 at 2^20, 1.33–1.67 at 2^21,
/// 0.96–1.08 at 2^22, 0.87–0.90 at 2^23, 0.77–0.81 at 2^24.
const PAR_MIN_MULADDS: usize = 1 << 23;

/// Shape-dispatched product; see [`Matrix::matmul`] for the contract.
pub(crate) fn matmul_dispatch(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    if n == 1 {
        return matvec_fast(a, b);
    }
    if m == 1 {
        return vecmat_fast(a, b);
    }
    let muladds = m * n * k;
    if muladds < BLOCKED_MIN_MULADDS {
        return a.matmul_naive(b);
    }
    let mut out = Matrix::zeros(m, n);
    let parallel = muladds >= PAR_MIN_MULADDS && spec_parallel::max_threads() > 1;
    blocked(a, b, &mut out, parallel);
    out
}

/// The blocked product: per KC-deep panel, `B` is packed **once** into a
/// shared read-only buffer, then the output rows are tiled — serially or
/// fanned out over disjoint row bands (workers read the same packed
/// panel, so no packing work is duplicated).
fn blocked(a: &Matrix, b: &Matrix, out: &mut Matrix, parallel: bool) {
    let n = b.cols();
    let k_total = a.cols();
    let strips = n.div_ceil(NR);
    let mut panel = vec![0.0f32; KC.min(k_total) * strips * NR];
    let mut kb = 0;
    while kb < k_total {
        let kc = KC.min(k_total - kb);
        pack_b(&mut panel, b, kb, kc);
        if parallel {
            let panel = &panel;
            spec_parallel::par_bands_mut(out.as_mut_slice(), n, |first_row, band| {
                tile_band(a, panel, kb, kc, first_row, band, n);
            });
        } else {
            tile_band(a, &panel, kb, kc, 0, out.as_mut_slice(), n);
        }
        kb += kc;
    }
}

/// `A * b` where `b` is a single column: one ascending-`k` dot product
/// per output row (the column of a `K x 1` matrix is already
/// contiguous).
fn matvec_fast(a: &Matrix, b: &Matrix) -> Matrix {
    let col = b.as_slice();
    let mut out = Matrix::zeros(a.rows(), 1);
    let run = |first: usize, band: &mut [f32]| {
        for (i, slot) in band.iter_mut().enumerate() {
            *slot = crate::matrix::dot(a.row(first + i), col);
        }
    };
    if a.rows() * a.cols() < PAR_MIN_MULADDS {
        run(0, out.as_mut_slice());
    } else {
        spec_parallel::par_bands_mut(out.as_mut_slice(), 1, run);
    }
    out
}

/// `a * B` where `a` is a single row: ascending-`k` axpy over the rows
/// of `B`. Workers own disjoint column segments; each segment still
/// walks `k` in ascending order.
fn vecmat_fast(a: &Matrix, b: &Matrix) -> Matrix {
    let x = a.row(0);
    let n = b.cols();
    let mut out = Matrix::zeros(1, n);
    let run = |first_chunk: usize, seg: &mut [f32]| {
        let first_col = first_chunk * NR;
        for (k, &xv) in x.iter().enumerate() {
            let brow = &b.as_slice()[k * n + first_col..k * n + first_col + seg.len()];
            for (o, &w) in seg.iter_mut().zip(brow) {
                *o += xv * w;
            }
        }
    };
    if a.cols() * n < PAR_MIN_MULADDS {
        run(0, out.as_mut_slice());
    } else {
        spec_parallel::par_bands_mut(out.as_mut_slice(), NR, run);
    }
    out
}

/// Tiles one contiguous band of output rows (starting at `first_row`)
/// against the packed `kc`-deep panel, MR x NR register tiles.
fn tile_band(
    a: &Matrix,
    panel: &[f32],
    kb: usize,
    kc: usize,
    first_row: usize,
    band: &mut [f32],
    n: usize,
) {
    let rows = band.len() / n;
    let strips = n.div_ceil(NR);
    let tier = crate::dispatch::active_tier();
    let mut i0 = 0;
    while i0 < rows {
        let mr = MR.min(rows - i0);
        for s in 0..strips {
            let j0 = s * NR;
            let nr = NR.min(n - j0);
            let strip = &panel[s * kc * NR..(s * kc + kc) * NR];
            if mr == MR && nr == NR {
                micro_full(
                    a,
                    first_row + i0,
                    kb,
                    kc,
                    strip,
                    &mut band[i0 * n..],
                    j0,
                    n,
                    tier,
                );
            } else {
                micro_edge(
                    a,
                    first_row + i0,
                    mr,
                    kb,
                    kc,
                    strip,
                    &mut band[i0 * n..],
                    j0,
                    nr,
                    n,
                );
            }
        }
        i0 += mr;
    }
}

/// Packs the `kc`-deep panel of `B` starting at row `kb` into NR-column
/// strips: strip-major, then `k`-major, zero-padded on the right edge.
fn pack_b(panel: &mut [f32], b: &Matrix, kb: usize, kc: usize) {
    let n = b.cols();
    let data = b.as_slice();
    for s in 0..n.div_ceil(NR) {
        let j0 = s * NR;
        let nr = NR.min(n - j0);
        let base = s * kc * NR;
        for k in 0..kc {
            let src = &data[(kb + k) * n + j0..(kb + k) * n + j0 + nr];
            let dst = &mut panel[base + k * NR..base + (k + 1) * NR];
            dst[..nr].copy_from_slice(src);
            dst[nr..].fill(0.0);
        }
    }
}

/// The full MR x NR register tile: `out[i0..i0+MR][j0..j0+NR] += A-rows *
/// packed strip`, `k` ascending.
///
/// `tier` (resolved once per band from the dispatch registry) selects a
/// variant of the *same* body compiled with that instruction set
/// enabled. Wider registers change only how many lanes one instruction
/// covers — each output element still receives the identical sequence of
/// `+= a*b` operations (no FMA contraction, no reassociation), so every
/// tier produces the same bits.
#[allow(clippy::too_many_arguments)]
fn micro_full(
    a: &Matrix,
    row0: usize,
    kb: usize,
    kc: usize,
    strip: &[f32],
    band: &mut [f32],
    j0: usize,
    n: usize,
    tier: crate::dispatch::SimdTier,
) {
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a.row(row0 + r)[kb..kb + kc]);
    micro_tile::dispatch(tier, &a_rows, kc, strip, band, j0, n);
}

crate::dispatch_kernel! {
    /// The register-tile body shared by every tier (see [`micro_full`]).
    micro_tile(a_rows: &[&[f32]; MR], kc: usize, strip: &[f32], band: &mut [f32], j0: usize, n: usize) {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&band[r * n + j0..r * n + j0 + NR]);
        }
        for k in 0..kc {
            let bk: &[f32; NR] = strip[k * NR..(k + 1) * NR].try_into().expect("strip row");
            let av: [f32; MR] = std::array::from_fn(|r| a_rows[r][k]);
            for (acc_r, &a) in acc.iter_mut().zip(&av) {
                for (o, &w) in acc_r.iter_mut().zip(bk) {
                    *o += a * w;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            band[r * n + j0..r * n + j0 + NR].copy_from_slice(acc_r);
        }
    }
}

/// Edge tile (fewer than MR rows and/or NR columns); identical `k`
/// ordering to [`micro_full`].
#[allow(clippy::too_many_arguments)]
fn micro_edge(
    a: &Matrix,
    row0: usize,
    mr: usize,
    kb: usize,
    kc: usize,
    strip: &[f32],
    band: &mut [f32],
    j0: usize,
    nr: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
        acc_r[..nr].copy_from_slice(&band[r * n + j0..r * n + j0 + nr]);
    }
    for k in 0..kc {
        let bk = &strip[k * NR..(k + 1) * NR];
        for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
            let av = a.row(row0 + r)[kb + k];
            for (o, &w) in acc_r.iter_mut().zip(bk) {
                *o += av * w;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(mr) {
        band[r * n + j0..r * n + j0 + nr].copy_from_slice(&acc_r[..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        let mut rng = SimRng::seed(0x6E44);
        // Shapes straddling every dispatch boundary and tile edge.
        for (m, k, n) in [
            (1, 7, 9),
            (3, 64, 1),
            (5, 3, 33),
            (4, 256, 16),
            (7, 300, 47),
            (33, 128, 65),
            (64, 64, 64),
            (130, 257, 50),
        ] {
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            assert_bitwise_eq(&a.matmul(&b), &a.matmul_naive(&b), &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_is_thread_count_invariant() {
        let mut rng = SimRng::seed(0x6E45);
        let a = rng.normal_matrix(37, 190, 1.0);
        let b = rng.normal_matrix(190, 53, 1.0);
        let reference = spec_parallel::with_threads(1, || a.matmul(&b));
        for t in [2usize, 3, 7] {
            let got = spec_parallel::with_threads(t, || a.matmul(&b));
            assert_bitwise_eq(&got, &reference, &format!("threads={t}"));
        }
    }

    #[test]
    fn forced_parallel_band_path_matches() {
        // The band path itself, whatever PAR_MIN_MULADDS says; `k` spans
        // two panels and five workers leave ragged bands.
        let mut rng = SimRng::seed(0x6E46);
        let a = rng.normal_matrix(128, 300, 1.0);
        let b = rng.normal_matrix(300, 70, 1.0);
        let mut got = Matrix::zeros(128, 70);
        spec_parallel::with_threads(5, || blocked(&a, &b, &mut got, true));
        assert_bitwise_eq(&got, &a.matmul_naive(&b), "forced parallel");
    }

    #[test]
    fn zero_k_dimension_gives_zeros() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (3, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_b_zero_pads_the_edge_strip() {
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut panel = vec![f32::NAN; 2 * NR];
        pack_b(&mut panel, &b, 0, 2);
        assert_eq!(&panel[..3], &[1.0, 2.0, 3.0]);
        assert!(panel[3..NR].iter().all(|&v| v == 0.0));
        assert_eq!(&panel[NR..NR + 3], &[4.0, 5.0, 6.0]);
        assert!(panel[NR + 3..].iter().all(|&v| v == 0.0));
    }
}
