//! Neural-network kernels: softmax, RMSNorm, SiLU, rotary embeddings.

use crate::keyblocks::{block_acc, KEY_BLOCK};
use crate::Matrix;

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

/// One chunk of the maximum pass: lane `i` takes in `chunk[i] * scale`
/// if `i < live`.
#[inline(always)]
fn max_chunk(lanes: &mut Lanes, chunk: &Lanes, live: usize, scale: f32) {
    for (i, (m, &x)) in lanes.iter_mut().zip(chunk).enumerate() {
        let x = if i < live {
            x * scale
        } else {
            f32::NEG_INFINITY
        };
        *m = if x > *m { x } else { *m };
    }
}

/// One chunk of the `exp` pass: every element becomes
/// `exp(x * scale - max)` and lane `i` adds its own if `i < live`.
#[inline(always)]
fn exp_chunk(lanes: &mut Lanes, chunk: &mut Lanes, live: usize, scale: f32, max: f32) {
    for (i, (acc, x)) in lanes.iter_mut().zip(chunk).enumerate() {
        *x = exp(*x * scale - max);
        *acc += if i < live { *x } else { 0.0 };
    }
}

crate::dispatch_kernel! {
    /// The body of [`softmax_rows_inplace`]. Full chunks run all lanes;
    /// the row's tail runs the same code on a zero-padded copy with the
    /// padding's lanes masked out of the maximum and the sum (a scalar
    /// `exp` per leftover element would cost more than the vector chunks
    /// of a ~100-long attention row).
    softmax_kernel(xs: &mut [f32], cols: usize, scale: f32) {
        for row in xs.chunks_exact_mut(cols) {
            let (body, tail) = row.as_chunks_mut::<SOFTMAX_LANES>();
            let live = tail.len();
            let mut padded = [0.0f32; SOFTMAX_LANES];
            for (p, &x) in padded.iter_mut().zip(tail.iter()) {
                *p = x;
            }

            let mut lanes = [f32::NEG_INFINITY; SOFTMAX_LANES];
            for chunk in body.iter() {
                max_chunk(&mut lanes, chunk, SOFTMAX_LANES, scale);
            }
            max_chunk(&mut lanes, &padded, live, scale);
            let max = fold_lanes(lanes, |a, b| if b > a { b } else { a });
            if max == f32::NEG_INFINITY {
                row.fill(1.0 / cols as f32);
                continue;
            }

            let mut lanes = [0.0f32; SOFTMAX_LANES];
            for chunk in body.iter_mut() {
                exp_chunk(&mut lanes, chunk, SOFTMAX_LANES, scale, max);
            }
            exp_chunk(&mut lanes, &mut padded, live, scale, max);
            let inv = 1.0 / fold_lanes(lanes, |a, b| a + b);
            for x in body.as_flattened_mut() {
                *x *= inv;
            }
            for (x, &e) in tail.iter_mut().zip(&padded) {
                *x = e * inv;
            }
        }
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
/// `out` is cleared and refilled; its capacity is reused.
///
/// # Panics
///
/// Panics if `xs.len() != weight.len()`.
pub fn rmsnorm_into(out: &mut Vec<f32>, xs: &[f32], weight: &[f32], eps: f32) {
    assert_eq!(xs.len(), weight.len(), "rmsnorm length mismatch");
    let ms = xs.iter().map(|v| v * v).sum::<f32>() / xs.len().max(1) as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    out.clear();
    out.extend(xs.iter().zip(weight).map(|(x, w)| x * inv * w));
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

/// Causal mask applied to a score row: positions greater than `pos` are set
/// to `-inf` so softmax assigns them zero probability.
pub fn causal_mask_row(scores: &mut [f32], pos: usize) {
    for (i, v) in scores.iter_mut().enumerate() {
        if i > pos {
            *v = f32::NEG_INFINITY;
        }
    }
}

/// Scaled dot-product attention weights for a single query against a key
/// matrix (`keys` is `len x dim`): `softmax(q K^T / sqrt(dim))`.
///
/// With [`weighted_sum`], the scalar specification of attention: the
/// forward passes run [`indexed_dots`] / [`softmax_rows_inplace`] /
/// [`indexed_weighted_sums`] (decode) and the `KeyBlocks` ranges /
/// [`weighted_sums_acc`] (prefill), which tests hold to these two
/// functions bit for bit.
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

/// [`weighted_sum`] under several weight vectors at once, over a run of
/// consecutive value rows, *added to* `out`: with `heads = out.len() /
/// values.cols()`,
/// `out[j] += sum_i weights[j * stride + i] * values.row(rows.start + i)`.
/// This is the value pass of a GQA group — its query heads weigh the same
/// rows — so the rows are walked once, not once per head.
///
/// Each head's output takes its `w * v` terms in ascending row order and
/// skips zero weights, which is [`weighted_sum`]'s sequence: from a zeroed
/// `out`, head `j` gets that function's bits at every dispatch tier, and
/// a second call continues the sum over further rows.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `values.cols()`, `rows`
/// reaches past `values`, or a head's weights reach past `weights`.
pub fn weighted_sums_acc(
    weights: &[f32],
    stride: usize,
    values: &Matrix,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    let d = values.cols();
    if rows.is_empty() || out.is_empty() {
        return;
    }
    assert!(out.len().is_multiple_of(d), "output/values width mismatch");
    assert!(
        (out.len() / d - 1) * stride + rows.len() <= weights.len(),
        "weights/values mismatch"
    );
    let values = &values.as_slice()[rows.start * d..rows.end * d];
    weighted_rows::dispatch(
        crate::dispatch::active_tier(),
        weights,
        stride,
        values,
        d,
        out,
    );
}

/// Heads per [`weighted_tiles`] register tile.
const WS_HEADS: usize = 4;
/// Columns per [`weighted_tiles`] register tile.
const WS_COLS: usize = 16;

/// `out[j] += sum_i weights[j * stride + i] * rows[i]` for the `d`-wide
/// rows the iterator yields, in its order: the body of both value passes.
/// A full `WS_HEADS x WS_COLS` tile of `out` stays in registers across the
/// whole walk — one independent add chain per head and lane; an edge tile
/// runs [`weighted_sum`]'s loop on `out` itself. Same additions either way.
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
        for c0 in (0..d).step_by(WS_COLS) {
            if heads - h0 < WS_HEADS || d - c0 < WS_COLS {
                for j in h0..heads.min(h0 + WS_HEADS) {
                    let o = &mut out[j * d + c0..j * d + d.min(c0 + WS_COLS)];
                    for (row, &w) in rows.clone().zip(&weights[j * stride..]) {
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
            for (row, i) in rows.clone().zip(0..len) {
                let v: &[f32; WS_COLS] = row[c0..c0 + WS_COLS].try_into().expect("tile row");
                for (a, w) in acc.iter_mut().zip(&w) {
                    if w[i] == 0.0 {
                        continue;
                    }
                    for (a, &x) in a.iter_mut().zip(v) {
                        *a += w[i] * x;
                    }
                }
            }
            for (j, a) in acc.iter().enumerate() {
                out[(h0 + j) * d + c0..][..WS_COLS].copy_from_slice(a);
            }
        }
    }
}

crate::dispatch_kernel! {
    /// The body of [`weighted_sums_acc`]: [`weighted_tiles`] over the
    /// consecutive rows of `values`.
    weighted_rows(weights: &[f32], stride: usize, values: &[f32], d: usize, out: &mut [f32]) {
        weighted_tiles(weights, stride, values.chunks_exact(d), d, out);
    }
}

/// Scores of several query vectors against an **index list** of key rows:
/// with `d = keys.cols()` and `queries` holding `queries.len() / d`
/// vectors back to back (a GQA group's slice of the flat query matrix),
/// `out[j * positions.len() + i] = dot(query j, keys.row(positions[i]))`
/// — head-major, ready for one [`softmax_rows_inplace`] call.
///
/// The keys stay where the cache holds them, row-major. Up to
/// [`KEY_BLOCK`] listed rows at a time are staged dimension-major in
/// `tile` (the `KeyBlocks` chunk, built per call instead of stored) and
/// scored with that layout's loop, lanes across positions, so every score
/// has [`matrix::dot`](crate::matrix::dot)'s bits at every dispatch tier,
/// whatever order the list is in. `tile` is work space: resized as
/// needed, contents meaningless afterwards.
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
    tile.resize(d * KEY_BLOCK, 0.0);
    indexed_block_dots::dispatch(
        crate::dispatch::active_tier(),
        queries,
        keys.as_slice(),
        positions,
        tile,
        out,
    );
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
        let mut scores = vec![1.0; 5];
        causal_mask_row(&mut scores, 2);
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
