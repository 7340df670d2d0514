//! Neural-network kernels: softmax, RMSNorm, SiLU, rotary embeddings.

use crate::keyblocks::{block_acc, ranged_dots, KeyBlocks, KEY_BLOCK};
use crate::Matrix;
use std::ops::Range;

/// Numerically stable softmax over a single slice, in place.
///
/// An all-`-inf` row becomes the uniform distribution, which matches how a
/// fully masked attention row is conventionally handled; a `-inf` entry
/// beside finite ones gets exactly zero weight.
pub fn softmax_inplace(xs: &mut [f32]) {
    softmax_rows_inplace(xs, xs.len(), 1.0);
}

/// `softmax(scale * row)` for each `cols`-long row of `xs`, in place —
/// the attention form, with the `1 / sqrt(dim)` pass folded in
/// (`x * scale` is the same float wherever it is computed).
///
/// One dispatched kernel call covers every row, so the tier is resolved
/// once however short the rows are. `exp` is [`exp`]'s polynomial, the
/// maximum and the sum run over fixed-width lane accumulators, and the
/// normalisation multiplies by the reciprocal of the sum: every
/// `SPEC_SIMD` tier returns the same bits.
///
/// Rows are taken **four in step**: a row is one dependent chain (maximum
/// → fold → `exp` → fold → reciprocal → scale) and a ~100-long attention
/// row's few hundred µops fill most of the reorder window, so one row at
/// a time leaves the two vector ports idle across every fold. Four rows
/// go through the same sequence chunk by chunk, side by side — each row's
/// own operations and their order are those of the row alone, so a row's
/// bits do not depend on how many rows the call holds or where the row
/// sits among them. A group holding an all-`-inf` row, and the last one
/// to three rows, run one row at a time.
///
/// # Panics
///
/// Panics if `xs.len()` is not a multiple of a non-zero `cols`.
pub fn softmax_rows_inplace(xs: &mut [f32], cols: usize, scale: f32) {
    if xs.is_empty() {
        return;
    }
    assert!(
        cols != 0 && xs.len().is_multiple_of(cols),
        "softmax row length mismatch"
    );
    softmax_kernel::dispatch(crate::dispatch::active_tier(), xs, cols, scale);
}

/// Softmax applied independently to each row of a matrix.
///
/// # Example
///
/// ```
/// use spec_tensor::{Matrix, ops};
/// let m = Matrix::from_rows(&[&[0.0, 0.0]]);
/// let s = ops::softmax_rows(&m);
/// assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    let cols = out.cols();
    if cols != 0 {
        softmax_rows_inplace(out.as_mut_slice(), cols, 1.0);
    }
    out
}

/// Below this `exp` returns exactly `0.0`: `e^x` would drop under the
/// smallest normal `f32` (`ln(2^-126) = -87.34`), where scaling by
/// exponent-field addition stops being a multiplication.
const EXP_LO: f32 = -87.3;
/// Arguments above this are clamped to it (`e^88 = 1.65e38`, the last
/// binade before overflow).
const EXP_HI: f32 = 88.0;

/// `e^x` without libm: the Cephes `expf` scheme written so a loop over it
/// vectorises and every tier computes the same bits.
///
/// `n = round(x log2 e)` comes from adding and subtracting `1.5 * 2^23`
/// (the sum's low mantissa bits *are* `n`), `r = x - n ln 2` in two
/// Cody–Waite steps, `e^r` from a degree-5 polynomial on `|r| <= ln 2 / 2`,
/// and `2^n` by adding those low bits into the result's exponent field.
/// Two things are avoided on purpose: `as i32` (a saturating cast, which
/// the vectoriser expands into range checks) and `mul_add` (a libm call
/// without FMA hardware, different bits with it).
///
/// Relative error against `f64::exp` is under `2e-7` on
/// `[-87.3, 88]`; below that range the result is exactly `0.0` (so a
/// `-inf` mask yields zero weight), above it `e^88`; NaN stays NaN.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const ROUND: f32 = 12_582_912.0; // 1.5 * 2^23
    const LN2_HI: f32 = 0.693_359_4; // 0.693359375: 9 bits, so n * LN2_HI is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    // A select, not `f32::min`: NaN must pass through.
    let clamped = if x > EXP_HI { EXP_HI } else { x };
    let shifted = clamped * LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = clamped - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    p = p * (r * r) + r + 1.0;
    // `shifted`'s bits are 0x4B40_0000 + n: shifted left by the mantissa
    // width only `n` survives, landing on the exponent field.
    let scaled = f32::from_bits(p.to_bits().wrapping_add(shifted.to_bits() << 23));
    if x < EXP_LO {
        0.0
    } else {
        scaled
    }
}

/// Lane accumulators of the softmax kernel: one AVX-512 register, two
/// AVX2, four SSE/NEON. Fixed at every tier, which is what makes the
/// maximum's and the sum's operation order — hence the bits — identical.
const SOFTMAX_LANES: usize = 16;
type Lanes = [f32; SOFTMAX_LANES];

/// Rows the softmax kernel takes in step: four rows' lane accumulators
/// (maximum, then sum) are four AVX-512 / eight AVX2 registers.
const SOFTMAX_ROWS: usize = 4;

/// Folds the lane accumulators pairwise, halving the width each round:
/// four dependent operations instead of fifteen, in a fixed order.
#[inline(always)]
fn fold_lanes(mut lanes: Lanes, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut width = SOFTMAX_LANES / 2;
    while width > 0 {
        for i in 0..width {
            lanes[i] = f(lanes[i], lanes[i + width]);
        }
        width /= 2;
    }
    lanes[0]
}

/// One chunk of the maximum pass for `R` rows in step: row `r`'s lane `i`
/// takes in `chunks[r][i] * scale`.
///
/// The lane loop is the outer one, here and in [`exp_chunks`], on purpose:
/// its body is then all `R` rows' work, too much for the compiler to
/// unroll before it vectorises, so the loop becomes `R` independent
/// full-width vector operations per step. Rows outermost, each row's
/// sixteen lanes are unrolled into scalars first and re-vectorised from
/// the fold backwards, two lanes to a register.
#[inline(always)]
fn max_chunks<const R: usize>(lanes: &mut [Lanes; R], chunks: [&Lanes; R], scale: f32) {
    for i in 0..SOFTMAX_LANES {
        for r in 0..R {
            let x = chunks[r][i] * scale;
            let m = &mut lanes[r][i];
            *m = if x > *m { x } else { *m };
        }
    }
}

/// One chunk of the `exp` pass for `R` rows in step: every element becomes
/// `exp(x * scale - max[r])` and is added to its lane of row `r`.
#[inline(always)]
fn exp_chunks<const R: usize>(
    lanes: &mut [Lanes; R],
    chunks: [&mut Lanes; R],
    scale: f32,
    max: &[f32; R],
) {
    for i in 0..SOFTMAX_LANES {
        for r in 0..R {
            let e = exp(chunks[r][i] * scale - max[r]);
            chunks[r][i] = e;
            lanes[r][i] += e;
        }
    }
}

/// Softmax of the `R` `cols`-long rows of `xs`, in step. Full chunks run
/// all lanes. A row's tail runs the same code on a padded copy, scaled on
/// the way in (so it passes with `scale = 1`, which changes no float): the
/// padding is `-inf`, which never wins a maximum and whose `exp` is the
/// `+0.0` a masked lane would add (a scalar `exp` per leftover element
/// would cost more than the vector chunks of a ~100-long attention row).
/// Returns `false`, `xs` untouched, if some row's maximum is `-inf`.
#[inline(always)]
fn softmax_group<const R: usize>(xs: &mut [f32], cols: usize, scale: f32) -> bool {
    let chunk = |c: usize| c * SOFTMAX_LANES..(c + 1) * SOFTMAX_LANES;
    let chunks = cols / SOFTMAX_LANES;
    let body = chunks * SOFTMAX_LANES;
    let mut padded = [[f32::NEG_INFINITY; SOFTMAX_LANES]; R];
    for (padded, row) in padded.iter_mut().zip(xs.chunks_exact(cols)) {
        for (p, &x) in padded.iter_mut().zip(&row[body..]) {
            *p = x * scale;
        }
    }

    let mut lanes = [[f32::NEG_INFINITY; SOFTMAX_LANES]; R];
    for c in 0..chunks {
        let mut rows = xs.chunks_exact(cols);
        let chunks: [&Lanes; R] = std::array::from_fn(|_| {
            let row = rows.next().expect("a group is R rows");
            row[chunk(c)].try_into().expect("a chunk")
        });
        max_chunks(&mut lanes, chunks, scale);
    }
    max_chunks(&mut lanes, padded.each_ref(), 1.0);
    let max = lanes.map(|lanes| fold_lanes(lanes, |a, b| if b > a { b } else { a }));
    if max.contains(&f32::NEG_INFINITY) {
        return false;
    }

    let mut lanes = [[0.0f32; SOFTMAX_LANES]; R];
    for c in 0..chunks {
        let mut rows = xs.chunks_exact_mut(cols);
        let chunks: [&mut Lanes; R] = std::array::from_fn(|_| {
            let row = rows.next().expect("a group is R rows");
            (&mut row[chunk(c)]).try_into().expect("a chunk")
        });
        exp_chunks(&mut lanes, chunks, scale, &max);
    }
    exp_chunks(&mut lanes, padded.each_mut(), 1.0, &max);
    for ((row, lanes), padded) in xs.chunks_exact_mut(cols).zip(lanes).zip(&padded) {
        let inv = 1.0 / fold_lanes(lanes, |a, b| a + b);
        let (body, tail) = row.split_at_mut(body);
        for x in body {
            *x *= inv;
        }
        for (x, &e) in tail.iter_mut().zip(padded) {
            *x = e * inv;
        }
    }
    true
}

/// Softmax of each `cols`-long row of `xs` on its own, a fully masked row
/// becoming uniform.
#[inline(always)]
fn softmax_singly(xs: &mut [f32], cols: usize, scale: f32) {
    for row in xs.chunks_exact_mut(cols) {
        if !softmax_group::<1>(row, cols, scale) {
            row.fill(1.0 / cols as f32);
        }
    }
}

/// The softmax kernel's body, shared with the prefill's block attention:
/// whole groups of [`SOFTMAX_ROWS`] rows in step, then — a group that
/// holds a fully masked row, and the rows left over — one row at a time.
#[inline(always)]
fn softmax_each_row(xs: &mut [f32], cols: usize, scale: f32) {
    let mut groups = xs.chunks_exact_mut(SOFTMAX_ROWS * cols);
    for group in &mut groups {
        if !softmax_group::<SOFTMAX_ROWS>(group, cols, scale) {
            softmax_singly(group, cols, scale);
        }
    }
    softmax_singly(groups.into_remainder(), cols, scale);
}

crate::dispatch_kernel! {
    /// The body of [`softmax_rows_inplace`]: [`softmax_each_row`].
    softmax_kernel(xs: &mut [f32], cols: usize, scale: f32) {
        softmax_each_row(xs, cols, scale);
    }
}

/// Root-mean-square layer normalization (no bias), as used by Llama-family
/// models. `eps` guards against division by zero.
pub fn rmsnorm(xs: &[f32], weight: &[f32], eps: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(xs.len());
    rmsnorm_into(&mut out, xs, weight, eps);
    out
}

/// [`rmsnorm`] into a caller-owned buffer, so per-token forward passes
/// (one rmsnorm per attention block, FFN block and final norm) reuse one
/// allocation instead of growing the heap every call.
///
/// `out` is resized to `xs.len()` and overwritten; its capacity is reused.
///
/// # Panics
///
/// Panics if `xs.len() != weight.len()`.
pub fn rmsnorm_into(out: &mut Vec<f32>, xs: &[f32], weight: &[f32], eps: f32) {
    out.resize(xs.len(), 0.0);
    rmsnorm_slice(out, xs, weight, eps);
}

/// [`rmsnorm`] written over a slice of the same length — a row of the
/// prefill's block matrix, normalised where it is read.
///
/// # Panics
///
/// Panics if `xs`, `weight` and `out` are not all the same length.
pub fn rmsnorm_slice(out: &mut [f32], xs: &[f32], weight: &[f32], eps: f32) {
    assert_eq!(xs.len(), weight.len(), "rmsnorm length mismatch");
    assert_eq!(out.len(), xs.len(), "rmsnorm output length mismatch");
    let ms = xs.iter().map(|v| v * v).sum::<f32>() / xs.len().max(1) as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (o, (x, w)) in out.iter_mut().zip(xs.iter().zip(weight)) {
        *o = x * inv * w;
    }
}

/// SiLU (sigmoid-weighted linear unit) activation, over [`exp`].
#[inline(always)]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + exp(-x))
}

/// Applies SiLU element-wise, in place ([`silu`]'s bits at every tier).
pub fn silu_inplace(xs: &mut [f32]) {
    silu_kernel::dispatch(crate::dispatch::active_tier(), xs);
}

crate::dispatch_kernel! {
    /// The body of [`silu_inplace`].
    silu_kernel(xs: &mut [f32]) {
        for x in xs.iter_mut() {
            *x = silu(*x);
        }
    }
}

/// The `(sin, cos)` of each rotation rotary position embedding applies to
/// a `head_dim`-element head vector at `pos`. The angles depend on the
/// position and the pair index only, so a decode step computes them once
/// and [`rope_apply`]s them to every layer's queries and keys.
///
/// `theta_base` is the RoPE base (10 000 for Llama-family models);
/// `scale` is the YaRN-style context-extension factor applied to the
/// position (a scale of `s` lets a model trained to length `T` address
/// positions up to `s*T`). `scale = 1.0` is vanilla RoPE.
///
/// # Panics
///
/// Panics if `head_dim` is odd.
pub fn rope_table(head_dim: usize, pos: usize, theta_base: f32, scale: f32) -> Vec<(f32, f32)> {
    let mut table = Vec::with_capacity(head_dim / 2);
    rope_table_into(&mut table, head_dim, pos, theta_base, scale);
    table
}

/// [`rope_table`] into a caller-owned buffer (cleared first), so a decode
/// loop computes each step's rotations without growing the heap.
///
/// # Panics
///
/// Panics if `head_dim` is odd.
pub fn rope_table_into(
    table: &mut Vec<(f32, f32)>,
    head_dim: usize,
    pos: usize,
    theta_base: f32,
    scale: f32,
) {
    assert!(
        head_dim.is_multiple_of(2),
        "rope requires an even head dimension"
    );
    let p = pos as f32 / scale;
    table.clear();
    table.extend((0..head_dim / 2).map(|i| {
        let freq = theta_base.powf(-2.0 * i as f32 / head_dim as f32);
        (p * freq).sin_cos()
    }));
}

/// Rotates the pairs of `xs` by a [`rope_table`].
///
/// # Panics
///
/// Panics if `xs` is not twice as long as the table.
pub fn rope_apply(xs: &mut [f32], table: &[(f32, f32)]) {
    assert_eq!(xs.len(), 2 * table.len(), "rope table length mismatch");
    for (pair, &(sin, cos)) in xs.chunks_exact_mut(2).zip(table) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a * cos - b * sin;
        pair[1] = a * sin + b * cos;
    }
}

/// Scaled dot-product attention weights for a single query against a key
/// matrix (`keys` is `len x dim`): `softmax(q K^T / sqrt(dim))`.
///
/// With [`weighted_sum`], the scalar specification of attention: the
/// forward passes run [`indexed_dots`] / [`softmax_rows_inplace`] /
/// [`indexed_weighted_sums`] (decode) and [`attend_block`] (prefill),
/// which tests hold to these two functions bit for bit.
///
/// # Panics
///
/// Panics if `query.len() != keys.cols()`.
pub fn attention_weights(query: &[f32], keys: &Matrix) -> Vec<f32> {
    assert_eq!(query.len(), keys.cols(), "query/key dim mismatch");
    let scale = 1.0 / (query.len() as f32).sqrt();
    let mut scores: Vec<f32> = keys
        .iter_rows()
        .map(|k| crate::matrix::dot(query, k))
        .collect();
    softmax_rows_inplace(&mut scores, keys.rows(), scale);
    scores
}

/// Weighted sum of value rows: `sum_i w[i] * values.row(i)`.
///
/// # Panics
///
/// Panics if `weights.len() != values.rows()`.
pub fn weighted_sum(weights: &[f32], values: &Matrix) -> Vec<f32> {
    assert_eq!(weights.len(), values.rows(), "weights/values mismatch");
    let mut out = vec![0.0; values.cols()];
    for (w, row) in weights.iter().zip(values.iter_rows()) {
        if *w == 0.0 {
            continue;
        }
        for (o, v) in out.iter_mut().zip(row) {
            *o += w * v;
        }
    }
    out
}

/// Heads per [`weighted_tiles`] register tile.
const WS_HEADS: usize = 4;
/// Columns per [`weighted_tiles`] register tile.
const WS_COLS: usize = 16;

/// `out[j] += sum_i weights[j * stride + i] * rows[i]` for the `d`-wide
/// rows the iterator yields, in its order: the value tile,
/// the body of the prefill's and the decode step's value pass. A full
/// `WS_HEADS x WS_COLS` tile of `out` stays in registers across the whole
/// walk — one independent add chain per head and lane; an edge tile runs
/// [`weighted_sum`]'s loop on `out` itself. Same additions either way.
///
/// [`weighted_sum`] skips a weight that is exactly zero, and beside a
/// non-finite value row the skip is visible (`0 * inf` is `NaN`), so the
/// tile keeps it — but not per row: tested in the walk it costs, per head
/// and row, a bounds check, a scalar load, a compare, two jumps and a
/// register broadcast that takes one of the two vector ports, 2.7 cycles
/// per 16-lane multiply-add where the ports allow one. Softmax output
/// underflows to zero only 87 below its row's maximum, so a tile's
/// weights are scanned **once**: with no zero among them — the normal
/// case — the walk is `acc[j] += w[j][i] * v` with the four weights read
/// by broadcast-load and no branch, which is the skipping loop's sequence
/// when nothing is skipped; with one, the tile's heads take the edge
/// tile's loop, which is the specification's.
#[inline(always)]
fn weighted_tiles<'a>(
    weights: &[f32],
    stride: usize,
    rows: impl ExactSizeIterator<Item = &'a [f32]> + Clone,
    d: usize,
    out: &mut [f32],
) {
    let heads = out.len() / d;
    let len = rows.len();
    for h0 in (0..heads).step_by(WS_HEADS) {
        let tile = h0..heads.min(h0 + WS_HEADS);
        let full = tile.len() == WS_HEADS
            && !tile
                .clone()
                .any(|j| weights[j * stride..][..len].contains(&0.0));
        for c0 in (0..d).step_by(WS_COLS) {
            if !full || d - c0 < WS_COLS {
                for j in tile.clone() {
                    let o = &mut out[j * d + c0..j * d + d.min(c0 + WS_COLS)];
                    for (row, &w) in rows.clone().zip(&weights[j * stride..][..len]) {
                        if w == 0.0 {
                            continue;
                        }
                        for (o, &x) in o.iter_mut().zip(&row[c0..]) {
                            *o += w * x;
                        }
                    }
                }
                continue;
            }
            let w: [&[f32]; WS_HEADS] =
                std::array::from_fn(|j| &weights[(h0 + j) * stride..][..len]);
            let mut acc: [[f32; WS_COLS]; WS_HEADS] = std::array::from_fn(|j| {
                out[(h0 + j) * d + c0..][..WS_COLS]
                    .try_into()
                    .expect("tile row")
            });
            // The heads' weights in step with the rows, by iterator: indexed,
            // each costs the walk a bounds check and a reloaded slice.
            let [w0, w1, w2, w3] = w;
            let weights = w0.iter().zip(w1).zip(w2).zip(w3);
            for (row, (((&w0, &w1), &w2), &w3)) in rows.clone().zip(weights) {
                let v: &[f32; WS_COLS] = row[c0..c0 + WS_COLS].try_into().expect("tile row");
                for (a, w) in acc.iter_mut().zip([w0, w1, w2, w3]) {
                    for (a, &x) in a.iter_mut().zip(v) {
                        *a += w * x;
                    }
                }
            }
            for (j, a) in acc.iter().enumerate() {
                out[(h0 + j) * d + c0..][..WS_COLS].copy_from_slice(a);
            }
        }
    }
}

/// Scores of several query vectors against an **index list** of key rows:
/// with `d = keys.cols()` and `queries` holding `queries.len() / d`
/// vectors back to back (a GQA group's slice of the flat query matrix),
/// `out[j * positions.len() + i] = dot(query j, keys.row(positions[i]))`
/// — head-major, ready for one [`softmax_rows_inplace`] call.
///
/// The keys stay where the cache holds them, row-major, and are scored
/// lanes across positions — each score accumulated from `-0.0` with its
/// products in ascending dimension, so every score has
/// [`matrix::dot`](crate::matrix::dot)'s bits at every dispatch tier,
/// whatever order the list is in. How the listed rows reach the lanes
/// depends on what the call can observe:
///
/// - On the AVX-512 tier, with `keys.cols()` a multiple of 16, sixteen
///   listed rows at a time are loaded a 16-float slab each and transposed
///   in registers into sixteen dimension vectors, which the query heads
///   multiply and add straight into their scores. Staging the rows into a
///   tile instead compiles to two scatters a row there, ~4/5 of the
///   kernel's time.
/// - Everywhere else up to [`KEY_BLOCK`] listed rows at a time are staged
///   dimension-major in `tile` (the `KeyBlocks` chunk, built per call
///   instead of stored) and scored with that layout's loop.
///
/// `tile` is work space: resized as needed, contents meaningless
/// afterwards.
///
/// # Panics
///
/// Panics if `queries` is not a whole number of `d`-vectors, `out` is not
/// `positions.len()` scores per query, or a position is out of bounds.
pub fn indexed_dots(
    queries: &[f32],
    keys: &Matrix,
    positions: &[usize],
    tile: &mut Vec<f32>,
    out: &mut [f32],
) {
    let d = keys.cols();
    assert_in_bounds(positions, keys.rows());
    if positions.is_empty() {
        assert!(out.is_empty(), "score length mismatch");
        return;
    }
    assert!(queries.len().is_multiple_of(d), "query/key dim mismatch");
    assert_eq!(
        out.len(),
        queries.len() / d * positions.len(),
        "score length mismatch"
    );
    // Sized whichever body runs: a call allocates the same at every tier.
    tile.resize(d * KEY_BLOCK, 0.0);
    let tier = crate::dispatch::active_tier();
    #[cfg(target_arch = "x86_64")]
    if tier == crate::dispatch::SimdTier::Avx512 && d.is_multiple_of(transposed::LANES) {
        // SAFETY: `active_tier` is clamped to the tiers this CPU runs, so
        // it has AVX-512F, and `assert_in_bounds` above has checked that
        // every position names a row of `keys`.
        unsafe { transposed::indexed_dots(queries, keys.as_slice(), d, positions, out) };
        return;
    }
    indexed_block_dots::dispatch(tier, queries, keys.as_slice(), positions, tile, out);
}

/// [`indexed_dots`]' AVX-512 body: the listed key rows transposed sixteen
/// at a time in registers, the one kernel in the crate that moves its
/// data with explicit `core::arch` shuffles. Its arithmetic is
/// [`block_acc`]'s per lane — `acc = acc + q[d] * k[d]` from `-0.0`, `d`
/// ascending, a separate multiply and add — so it returns the tile
/// body's bits; only the staging differs. The portable staging stores
/// each key element into its lane of the tile, which the compiler turns
/// into scatters; a 16x16 transpose of the rows as loaded is 64 register
/// shuffles, and the dots never leave registers.
#[cfg(target_arch = "x86_64")]
mod transposed {
    use std::arch::x86_64::*;

    /// Rows per chunk and floats per slab: one `zmm`.
    pub(super) const LANES: usize = 16;

    /// Query heads scored per transpose: four accumulators, four
    /// independent add chains across the sixteen dimension vectors.
    const HEADS: usize = 4;

    /// `out[h * positions.len() + i] = dot(query h, key row positions[i])`
    /// of the row-major `d`-wide `keys`, `d` a multiple of [`LANES`]. A
    /// short last chunk fills its unused lanes with its own first row and
    /// drops them.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F, and every position must name a row of
    /// `keys` (`p < keys.len() / d`): the rows are loaded unchecked.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn indexed_dots(
        queries: &[f32],
        keys: &[f32],
        d: usize,
        positions: &[usize],
        out: &mut [f32],
    ) {
        let len = positions.len();
        let heads = queries.len() / d;
        for (chunk, at) in positions.chunks(LANES).zip((0..).step_by(LANES)) {
            let rows: [*const f32; LANES] = std::array::from_fn(|i| {
                let p = chunk.get(i).unwrap_or(&chunk[0]);
                // SAFETY: `p` names a row of `keys` (this function's
                // contract), so the offset stays inside the slice.
                unsafe { keys.as_ptr().add(p * d) }
            });
            // The listed lanes; `chunk.len() <= 16`, so the shift fits.
            let mask = ((1u32 << chunk.len()) - 1) as __mmask16;
            let mut h = 0;
            while h < heads {
                let (queries, out) = (&queries[h * d..], &mut out[h * len + at..]);
                // SAFETY: each of `rows` starts a `d`-float row of `keys`.
                unsafe {
                    if heads - h >= HEADS {
                        group_dots::<HEADS>(queries, d, &rows, len, mask, out);
                        h += HEADS;
                    } else {
                        group_dots::<1>(queries, d, &rows, len, mask, out);
                        h += 1;
                    }
                }
            }
        }
    }

    /// The scores of the first `H` query heads of `queries` against one
    /// chunk of key rows: head `j`'s go to `out[j * len..]`, the lanes
    /// `mask` sets.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F, and each of `rows` must point at `d`
    /// readable floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn group_dots<const H: usize>(
        queries: &[f32],
        d: usize,
        rows: &[*const f32; LANES],
        len: usize,
        mask: __mmask16,
        out: &mut [f32],
    ) {
        let mut acc = [_mm512_set1_ps(-0.0); H];
        for slab in (0..d).step_by(LANES) {
            // SAFETY: `slab + 16 <= d`, as `d` is a multiple of 16, and
            // each row holds `d` floats (this function's contract).
            let dims = transpose(rows.map(|row| unsafe { _mm512_loadu_ps(row.add(slab)) }));
            let q: [&[f32; LANES]; H] = std::array::from_fn(|j| {
                queries[j * d + slab..][..LANES]
                    .try_into()
                    .expect("a slab is 16 floats")
            });
            for (acc, q) in acc.iter_mut().zip(q) {
                for (dim, &q) in dims.iter().zip(q) {
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(_mm512_set1_ps(q), *dim));
                }
            }
        }
        for (j, acc) in acc.into_iter().enumerate() {
            let lanes = &mut out[j * len..][..mask.count_ones() as usize];
            // SAFETY: `mask` sets the low `lanes.len()` lanes only, and the
            // store touches no lane it clears.
            unsafe { _mm512_mask_storeu_ps(lanes.as_mut_ptr(), mask, acc) };
        }
    }

    /// The 16x16 transpose: `out[c]` lane `r` is `rows[r]` lane `c`.
    /// Interleave pairs of rows, then pairs of pairs (a 4x4 transpose in
    /// each 128-bit lane), then regroup the 128-bit lanes in two rounds.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512; LANES]) -> [__m512; LANES] {
        // Lane L of t[2i] is rows 2i, 2i+1 at columns 4L, 4L+1
        // interleaved; t[2i+1] at 4L+2, 4L+3.
        let t: [__m512; LANES] = std::array::from_fn(|k| {
            let (a, b) = (r[k & !1], r[k | 1]);
            if k % 2 == 0 {
                _mm512_unpacklo_ps(a, b)
            } else {
                _mm512_unpackhi_ps(a, b)
            }
        });
        // Lane L of u[4g+j] is column 4L+j of rows 4g..4g+4.
        let u: [__m512; LANES] = std::array::from_fn(|k| {
            let (g, j) = (k & !3, k & 3);
            let (a, b) = (t[g + (j >> 1)], t[g + 2 + (j >> 1)]);
            if j % 2 == 0 {
                _mm512_shuffle_ps::<0x44>(a, b)
            } else {
                _mm512_shuffle_ps::<0xEE>(a, b)
            }
        });
        // v[j] / v[4+j]: 128-bit lanes 0, 1 / 2, 3 of u[j] then u[4+j];
        // v[8+j] / v[12+j]: the same of u[8+j] then u[12+j].
        let v: [__m512; LANES] = std::array::from_fn(|k| {
            let (a, b) = (u[(k & 8) + (k & 3)], u[(k & 8) + 4 + (k & 3)]);
            if k & 4 == 0 {
                _mm512_shuffle_f32x4::<0x44>(a, b)
            } else {
                _mm512_shuffle_f32x4::<0xEE>(a, b)
            }
        });
        // Column 4L+j takes 128-bit lane L of u[j], u[4+j], u[8+j], u[12+j]:
        // even / odd lanes of v[j] and v[8+j] for L = 0 / 1, of v[4+j] and
        // v[12+j] for L = 2 / 3.
        std::array::from_fn(|c| {
            let (l, j) = (c >> 2, c & 3);
            let (a, b) = (v[(l & 2) * 2 + j], v[8 + (l & 2) * 2 + j]);
            if l % 2 == 0 {
                _mm512_shuffle_f32x4::<0x88>(a, b)
            } else {
                _mm512_shuffle_f32x4::<0xDD>(a, b)
            }
        })
    }
}

crate::dispatch_kernel! {
    /// The body of [`indexed_dots`], `tile.len() / KEY_BLOCK` being the
    /// key width. A short last chunk leaves its unused lanes holding the
    /// chunk before's keys; their dots are computed and dropped.
    indexed_block_dots(
        queries: &[f32],
        keys: &[f32],
        positions: &[usize],
        tile: &mut [f32],
        out: &mut [f32],
    ) {
        let d = tile.len() / KEY_BLOCK;
        let len = positions.len();
        for (chunk, at) in positions.chunks(KEY_BLOCK).zip((0..).step_by(KEY_BLOCK)) {
            for (lane, &p) in chunk.iter().enumerate() {
                let key = &keys[p * d..][..d];
                for (lanes, &k) in tile.chunks_exact_mut(KEY_BLOCK).zip(key) {
                    lanes[lane] = k;
                }
            }
            for (query, scores) in queries.chunks_exact(d).zip(out.chunks_exact_mut(len)) {
                let acc = block_acc(query, tile);
                scores[at..at + chunk.len()].copy_from_slice(&acc[..chunk.len()]);
            }
        }
    }
}

/// [`weighted_sum`] under several weight vectors at once over an **index
/// list** of value rows, read where the cache holds them: with
/// `heads = out.len() / values.cols()` and `len = positions.len()`,
/// `out[j] = sum_i weights[j * len + i] * values.row(positions[i])`.
/// This is the value pass of a GQA group over a sparse selection: the
/// listed rows are walked once, in list order, not once per head.
///
/// Each head's output takes its `w * v` terms in list order from zero and
/// skips zero weights — [`weighted_sum`]'s sequence over the gathered
/// rows, so head `j` gets that function's bits at every dispatch tier.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `values.cols()`, `weights`
/// is not `positions.len()` weights per head, or a position is out of
/// bounds.
pub fn indexed_weighted_sums(
    weights: &[f32],
    values: &Matrix,
    positions: &[usize],
    out: &mut [f32],
) {
    let d = values.cols();
    assert_in_bounds(positions, values.rows());
    out.fill(0.0);
    if positions.is_empty() || out.is_empty() {
        return;
    }
    assert!(out.len().is_multiple_of(d), "output/values width mismatch");
    assert_eq!(
        weights.len(),
        out.len() / d * positions.len(),
        "weights/values mismatch"
    );
    indexed_weighted_rows::dispatch(
        crate::dispatch::active_tier(),
        weights,
        values.as_slice(),
        d,
        positions,
        out,
    );
}

crate::dispatch_kernel! {
    /// The body of [`indexed_weighted_sums`]: [`weighted_tiles`] over the
    /// listed rows of `values`.
    indexed_weighted_rows(
        weights: &[f32],
        values: &[f32],
        d: usize,
        positions: &[usize],
        out: &mut [f32],
    ) {
        let rows = positions.iter().map(|&p| &values[p * d..][..d]);
        weighted_tiles(weights, positions.len(), rows, d, out);
    }
}

/// One prefill block's attention for the query heads that share a KV
/// head: what [`attend_block`] computes, as its read-only arguments.
///
/// The block is `rows` consecutive cache positions from `start`. Position
/// `pos` attends cache rows `[0, min(sinks, lo))` and `[lo, pos]`, where
/// `lo = pos - window` clamped at 0 (exact causal attention is
/// `window = usize::MAX`, `sinks = 0`).
#[derive(Debug, Clone, Copy)]
pub struct BlockAttention<'a> {
    /// The block's queries, read in place: row `r`'s `heads` query
    /// vectors start at `r * q_stride`, back to back.
    pub queries: &'a [f32],
    /// Floats from one block row's queries to the next's.
    pub q_stride: usize,
    /// Query heads in the group.
    pub heads: usize,
    /// The KV head's keys, a row per cache position — or, with `cut`, the
    /// rows the block can attend only.
    pub keys: &'a Matrix,
    /// Its values, the same rows as `keys`.
    pub values: &'a Matrix,
    /// Rows left out of `keys` and `values` between the sinks every
    /// position of the block attends and the first window's start: a
    /// cache row at or after that start
    /// is matrix row `position - cut`. Zero for a whole cache; MLA, which
    /// up-projects only what the block attends, cuts the whole gap.
    pub cut: usize,
    /// Cache position of the block's first row.
    pub start: usize,
    /// Positions in the block.
    pub rows: usize,
    /// Window width.
    pub window: usize,
    /// Always-visible initial positions.
    pub sinks: usize,
}

impl BlockAttention<'_> {
    /// The cache rows the block's positions attend between them: the
    /// sinks below every window, then everything from the first
    /// position's window start to the last position.
    fn attended(&self) -> [Range<usize>; 2] {
        let lo0 = self.start.saturating_sub(self.window);
        [0..self.sinks.min(lo0), lo0..self.start + self.rows]
    }
}

/// Attention of one prefill block for one KV head's query group — every
/// position's scores, softmax and value pass in **one** dispatched kernel.
/// Row `r`'s `heads` outputs are written side by side at
/// `out[r * out_stride..]`.
///
/// The key rows the block attends (`BlockAttention::attended`) are
/// staged dimension-major in `span` once; the kernel then walks the
/// positions: [`KeyBlocks`]' ranged scores for each head into dense rows
/// of `scores`, the grouped softmax over them, and the value tile over the
/// sink and window rows of `values`, read where they are. Per head and
/// position that is [`attention_weights`] then [`weighted_sum`] over the
/// gathered rows, bit for bit at every dispatch tier: a score is
/// `matrix::dot`'s sum, the softmax is [`softmax_rows_inplace`]'s, and
/// each head takes `weighted_sum`'s additions in ascending row order.
///
/// `span` and `scores` are work space, resized as needed (to the rows the
/// block attends and to the last position's score rows — neither grows
/// with the prompt under a window); their contents mean nothing
/// afterwards.
///
/// # Panics
///
/// Panics if the key and value widths differ from each other or from
/// `span`'s, the block reaches past the matrices or `cut` past the gap,
/// or `queries` or `out` is too short for `rows` rows at its stride.
pub fn attend_block(
    job: &BlockAttention<'_>,
    span: &mut KeyBlocks,
    scores: &mut Vec<f32>,
    out: &mut [f32],
    out_stride: usize,
) {
    let d = job.values.cols();
    if job.rows == 0 || job.heads == 0 {
        return;
    }
    let [kept, rest] = job.attended();
    assert_eq!(job.keys.cols(), d, "key/value width mismatch");
    assert!(job.cut <= rest.start - kept.end, "cut reaches past the gap");
    assert!(
        rest.end - job.cut <= job.keys.rows().min(job.values.rows()),
        "block reaches past the cached rows"
    );
    let width = job.heads * d;
    assert!(
        (job.rows - 1) * job.q_stride + width <= job.queries.len(),
        "queries too short for the block"
    );
    assert!(
        (job.rows - 1) * out_stride + width <= out.len(),
        "output too short for the block"
    );
    span.clear();
    for p in kept.chain(rest.start - job.cut..rest.end - job.cut) {
        span.push(job.keys.row(p));
    }
    // Score rows lengthen down the block: the last position's are longest.
    let last = rest.end - 1;
    let lo = last.saturating_sub(job.window);
    scores.resize(job.heads * (job.sinks.min(lo) + last - lo + 1), 0.0);
    block_attention::dispatch(
        crate::dispatch::active_tier(),
        job,
        span.blocks(),
        scores,
        out,
        out_stride,
    );
}

crate::dispatch_kernel! {
    /// The body of [`attend_block`], `blocks` being the staged key span:
    /// span position `i` is cache row `i` among the kept sinks and cache
    /// row `i - kept + lo0` after them.
    block_attention(
        job: &BlockAttention<'_>,
        blocks: &[f32],
        scores: &mut [f32],
        out: &mut [f32],
        out_stride: usize,
    ) {
        let d = job.values.cols();
        let values = job.values.as_slice();
        let scale = 1.0 / (d as f32).sqrt();
        let [kept, rest] = job.attended();
        let (kept, lo0) = (kept.end, rest.start);
        for r in 0..job.rows {
            let pos = job.start + r;
            let lo = pos.saturating_sub(job.window);
            let sinks = job.sinks.min(lo);
            let len = sinks + pos - lo + 1;
            let ranges = [0..sinks, kept + lo - lo0..kept + pos - lo0 + 1];
            let scores = &mut scores[..job.heads * len];
            let queries = &job.queries[r * job.q_stride..][..job.heads * d];
            for (query, row) in queries.chunks_exact(d).zip(scores.chunks_exact_mut(len)) {
                ranged_dots(query, blocks, &ranges, row);
            }
            softmax_each_row(scores, len, scale);
            let out = &mut out[r * out_stride..][..job.heads * d];
            out.fill(0.0);
            // Sinks, then window: two plain runs of rows (chained into one
            // iterator the walk is the same, but it tips the compiler into
            // scalarising the softmax inlined above it — 3.4x the block).
            // A sink past the kept ones exists only where nothing is cut.
            weighted_tiles(scores, len, values[..sinks * d].chunks_exact(d), d, out);
            let window = &values[(lo - job.cut) * d..(pos + 1 - job.cut) * d];
            weighted_tiles(&scores[sinks..], len, window.chunks_exact(d), d, out);
        }
    }
}

/// The always-on half of an index list's contract (ordering is the
/// caller's to hold): every position names a row.
fn assert_in_bounds(positions: &[usize], rows: usize) {
    if let Some(&p) = positions.iter().find(|&&p| p >= rows) {
        panic!("position {p} out of bounds for {rows} cached rows");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![101.0, 102.0, 103.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_all_masked_row() {
        let mut xs = vec![f32::NEG_INFINITY; 4];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut xs: Vec<f32> = vec![];
        softmax_inplace(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    fn rmsnorm_unit_weight_normalizes() {
        let xs = vec![3.0, 4.0];
        let w = vec![1.0, 1.0];
        let out = rmsnorm(&xs, &w, 1e-6);
        let rms = (out.iter().map(|v| v * v).sum::<f32>() / 2.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn silu_zero_is_zero() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.9);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        let norm_before: f32 = xs.iter().map(|v| v * v).sum();
        rope_apply(&mut xs, &rope_table(4, 17, 10_000.0, 1.0));
        let norm_after: f32 = xs.iter().map(|v| v * v).sum();
        assert!((norm_before - norm_after).abs() < 1e-3);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        let orig = xs.clone();
        rope_apply(&mut xs, &rope_table(4, 0, 10_000.0, 1.0));
        for (a, b) in xs.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_scale_stretches_positions() {
        // With scale s, position s*p should equal unscaled position p.
        let mut a = vec![1.0, 0.5, -0.25, 2.0];
        let mut b = a.clone();
        rope_apply(&mut a, &rope_table(4, 8, 10_000.0, 4.0));
        rope_apply(&mut b, &rope_table(4, 2, 10_000.0, 1.0));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_mask_zeroes_future() {
        // Positions after 2 masked to `-inf`, as a causal row is.
        let mut scores = vec![1.0, 1.0, 1.0, f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_inplace(&mut scores);
        assert_eq!(scores[3], 0.0);
        assert_eq!(scores[4], 0.0);
        assert!((scores[..3].iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn attention_weights_prefer_aligned_key() {
        let keys = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 0.0]]);
        let w = attention_weights(&[1.0, 0.0], &keys);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_sum_selects_row_with_unit_weight() {
        let values = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = weighted_sum(&[0.0, 1.0], &values);
        assert_eq!(out, vec![3.0, 4.0]);
    }
}
