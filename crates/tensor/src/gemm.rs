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
//! ([`Matrix::matmul_naive`]), so the product is bit-for-bit identical to
//! the reference. The tiling runs on the workspace
//! [`dispatch`](crate::dispatch) registry (scalar/AVX2/AVX-512/NEON
//! variants of one body, entered once per panel), so the same bits also
//! hold at every SIMD tier and under a forced `SPEC_SIMD=scalar`.
//!
//! The kernel is serial. The largest product the workspace issues is a
//! 64-row prefill block against a 64 x 384 weight, about 2^20.6
//! multiply-adds, below the ~2^22 at which two workers broke even when
//! each was a scoped spawn. Split over `spec_parallel::join`'s persistent
//! helpers, the break-even is unmeasured.

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
    if m * n * k < BLOCKED_MIN_MULADDS {
        return a.matmul_naive(b);
    }
    let mut out = Matrix::zeros(m, n);
    blocked(a, b, &mut out);
    out
}

/// The blocked product: per KC-deep panel, `B` is packed **once**, then
/// every output row is tiled against it.
fn blocked(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let n = b.cols();
    let k_total = a.cols();
    let strips = n.div_ceil(NR);
    let mut panel = vec![0.0f32; KC.min(k_total) * strips * NR];
    let tier = crate::dispatch::active_tier();
    let mut kb = 0;
    while kb < k_total {
        let kc = KC.min(k_total - kb);
        pack_b(&mut panel, b, kb, kc);
        let panel = &panel[..strips * kc * NR];
        let a = &a.as_slice()[kb..];
        panel_tiles::dispatch(tier, a, k_total, panel, kc, out.as_mut_slice(), n);
        kb += kc;
    }
}

/// `A * b` where `b` is a single column: one ascending-`k` dot product
/// per output row (the column of a `K x 1` matrix is already
/// contiguous).
fn matvec_fast(a: &Matrix, b: &Matrix) -> Matrix {
    let col = b.as_slice();
    let mut out = Matrix::zeros(a.rows(), 1);
    for (i, slot) in out.as_mut_slice().iter_mut().enumerate() {
        *slot = crate::matrix::dot(a.row(i), col);
    }
    out
}

/// `a * B` where `a` is a single row: ascending-`k` axpy over the rows
/// of `B`.
fn vecmat_fast(a: &Matrix, b: &Matrix) -> Matrix {
    let x = a.row(0);
    let n = b.cols();
    let mut out = Matrix::zeros(1, n);
    for (k, &xv) in x.iter().enumerate() {
        let brow = &b.as_slice()[k * n..(k + 1) * n];
        for (o, &w) in out.as_mut_slice().iter_mut().zip(brow) {
            *o += xv * w;
        }
    }
    out
}

crate::dispatch_kernel! {
    /// Tiles every output row in `rows_out` against the packed `kc`-deep
    /// `panel`, MR x NR register tiles. `a` starts at the first row and
    /// the panel's first `k`: row `r`'s factors are `a[r * lda..][..kc]`.
    ///
    /// The tier is resolved once per panel, not once per tile:
    /// the strip and row-tile loops run inside the dispatched body with
    /// [`micro_full`] / [`micro_edge`] inlined, so a 4 x 16 tile of ~256
    /// cycles no longer pays a `#[target_feature]` call of its own. Every
    /// tier compiles this same body — wider registers change only how many
    /// lanes one instruction covers, each output element still receives
    /// the identical sequence of `+= a*b` operations (no FMA contraction,
    /// no reassociation) — so every tier produces the same bits.
    panel_tiles(a: &[f32], lda: usize, panel: &[f32], kc: usize, rows_out: &mut [f32], n: usize) {
        let rows = rows_out.len() / n;
        for i0 in (0..rows).step_by(MR) {
            let mr = MR.min(rows - i0);
            // An edge tile repeats its last row to fill the array; only
            // the first `mr` are read.
            let a_rows: [&[f32]; MR] =
                std::array::from_fn(|r| &a[(i0 + r.min(mr - 1)) * lda..][..kc]);
            let out = &mut rows_out[i0 * n..(i0 + mr) * n];
            for (strip, j0) in panel.chunks_exact(kc * NR).zip((0..).step_by(NR)) {
                let nr = NR.min(n - j0);
                if mr == MR && nr == NR {
                    micro_full(&a_rows, strip, out, j0, n);
                } else {
                    micro_edge(&a_rows[..mr], strip, out, j0, nr, n);
                }
            }
        }
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

/// The full MR x NR register tile: `out[..MR][j0..j0+NR] += A-rows *
/// packed strip`, `k` ascending, the tile in registers over the whole walk
/// down the strip.
#[inline(always)]
fn micro_full(a_rows: &[&[f32]; MR], strip: &[f32], out: &mut [f32], j0: usize, n: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out[r * n + j0..r * n + j0 + NR]);
    }
    for (k, bk) in strip.chunks_exact(NR).enumerate() {
        let bk: &[f32; NR] = bk.try_into().expect("strip row");
        let av: [f32; MR] = std::array::from_fn(|r| a_rows[r][k]);
        for (acc_r, &a) in acc.iter_mut().zip(&av) {
            for (o, &w) in acc_r.iter_mut().zip(bk) {
                *o += a * w;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + NR].copy_from_slice(acc_r);
    }
}

/// Edge tile (fewer than MR rows and/or NR columns); identical `k`
/// ordering to [`micro_full`].
#[inline(always)]
fn micro_edge(a_rows: &[&[f32]], strip: &[f32], out: &mut [f32], j0: usize, nr: usize, n: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(a_rows.len()) {
        acc_r[..nr].copy_from_slice(&out[r * n + j0..r * n + j0 + nr]);
    }
    for (k, bk) in strip.chunks_exact(NR).enumerate() {
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let av = a_row[k];
            for (o, &w) in acc_r.iter_mut().zip(bk) {
                *o += av * w;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(a_rows.len()) {
        out[r * n + j0..r * n + j0 + nr].copy_from_slice(&acc_r[..nr]);
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
            (530, 128, 125),
        ] {
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            assert_bitwise_eq(&a.matmul(&b), &a.matmul_naive(&b), &format!("{m}x{k}x{n}"));
        }
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
