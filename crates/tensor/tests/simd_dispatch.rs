//! The determinism contract of the SIMD dispatch registry: every kernel
//! behind `spec_tensor::dispatch` must match its retained scalar
//! reference **bit-for-bit at every available tier** (swept per run via
//! `dispatch::with_tier`, which takes precedence over `SPEC_SIMD`). CI
//! additionally runs the whole test suite under `SPEC_SIMD=scalar`,
//! exercising the env-var path end to end on wide machines.

use proptest::prelude::*;
use spec_tensor::dispatch::{self, SimdTier};
use spec_tensor::keyblocks::{KeyBlocks, QuantKeyBlocks, KEY_BLOCK};
use spec_tensor::lut::QueryLut;
use spec_tensor::quant::{BitWidth, QuantVec};
use spec_tensor::topk::{self, PosBitSet, RankScratch};
use spec_tensor::{matrix, ops, Matrix, SimRng};

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

/// Runs `f` once per available tier, labelled for failure messages.
fn for_each_tier(mut f: impl FnMut(SimdTier)) {
    for &tier in dispatch::available_tiers() {
        dispatch::with_tier(tier, || f(tier));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `QuantVec::dot` (both widths) equals the per-element reference at
    /// every tier; lengths straddle the staging chunk and stay odd often
    /// enough to exercise the int4 half-byte tail.
    #[test]
    fn quant_dot_matches_reference_at_every_tier(
        params in (0usize..200, any::<u64>())
    ) {
        let (n, seed) = params;
        let mut rng = SimRng::seed(seed);
        let xs = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
        let query = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
        for width in [BitWidth::Int4, BitWidth::Int8] {
            let key = QuantVec::quantize(&xs, width);
            let want = key.dot_reference(&query);
            for_each_tier(|tier| {
                let got = key.dot(&query);
                assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "{width:?} len {n} tier {tier}: {got} vs {want}"
                );
            });
        }
    }

    /// The int4 query LUT — single dots and the batched `scores_into`
    /// (key counts straddle the 8-lane blocking, leaving remainders) —
    /// equals `dot_reference` at every tier.
    #[test]
    fn lut_i4_matches_reference_at_every_tier(
        params in (0usize..150, 1usize..28, any::<u64>())
    ) {
        let (n, nkeys, seed) = params;
        let mut rng = SimRng::seed(seed);
        let query = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
        let keys: Vec<QuantVec> = (0..nkeys)
            .map(|_| {
                let xs = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
                QuantVec::quantize(&xs, BitWidth::Int4)
            })
            .collect();
        let lut = QueryLut::build(&query);
        let want: Vec<f32> = keys.iter().map(|k| k.dot_reference(&query)).collect();
        for_each_tier(|tier| {
            let mut out = vec![f32::NAN; 2];
            lut.scores_into(&keys, &mut out);
            assert_bits_eq(&out, &want, &format!("scores_into len {n} tier {tier}"));
            for (k, w) in keys.iter().zip(&want) {
                assert_eq!(lut.dot_i4(k).to_bits(), w.to_bits(), "tier {tier}");
            }
        });
    }

    /// The int8 batch path — the blocked widened multiply (key counts
    /// straddle the 8-lane blocking) — equals `dot_reference` at every
    /// tier.
    #[test]
    fn dot_i8_batch_matches_reference_at_every_tier(
        params in (0usize..150, 1usize..28, any::<u64>())
    ) {
        let (n, nkeys, seed) = params;
        let mut rng = SimRng::seed(seed);
        let query = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
        let keys: Vec<QuantVec> = (0..nkeys)
            .map(|_| {
                let xs = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
                QuantVec::quantize(&xs, BitWidth::Int8)
            })
            .collect();
        let want: Vec<f32> = keys.iter().map(|k| k.dot_reference(&query)).collect();
        for_each_tier(|tier| {
            let mut out = vec![f32::NAN; 2];
            spec_tensor::quant::dot_i8_batch_into(&query, &keys, &mut out);
            assert_bits_eq(&out, &want, &format!("batch len {n} tier {tier}"));
        });
    }

    /// The batched row-dot kernel behind the InfiniGen selector equals
    /// the reference `matrix::dot` per row at every tier.
    #[test]
    fn dot_rows_into_matches_reference_at_every_tier(
        params in (0usize..40, 1usize..150, any::<u64>())
    ) {
        let (rows, cols, seed) = params;
        let mut rng = SimRng::seed(seed);
        let keys = rng.normal_matrix(rows, cols, 1.0);
        let query = rng.normal_matrix(1, cols, 1.0).as_slice().to_vec();
        let want: Vec<f32> = keys.iter_rows().map(|k| matrix::dot(&query, k)).collect();
        for_each_tier(|tier| {
            let mut out = vec![f32::NAN; 3];
            keys.dot_rows_into(&query, &mut out);
            assert_bits_eq(&out, &want, &format!("{rows}x{cols} tier {tier}"));
        });
    }

    /// The blocked matmul (whose micro tile is now a dispatched kernel)
    /// equals the naive triple loop at every tier.
    #[test]
    fn matmul_matches_reference_at_every_tier(
        shape in (1usize..32, 1usize..32, 1usize..32, any::<u64>())
    ) {
        let (m, k, n, seed) = shape;
        let mut rng = SimRng::seed(seed);
        let a = rng.normal_matrix(m, k, 1.0);
        let b = rng.normal_matrix(k, n, 1.0);
        let want = a.matmul_naive(&b);
        for_each_tier(|tier| {
            let got = a.matmul(&b);
            assert_bits_eq(
                got.as_slice(),
                want.as_slice(),
                &format!("matmul {m}x{k}x{n} tier {tier}"),
            );
        });
    }

    /// The set top-k (`RankScratch::mark_top_k`: integer keys, a
    /// histogram threshold, word-at-a-time marking) selects exactly the
    /// prefix of `argsort_desc` — larger score first, ties toward the
    /// smaller index — at every tier, for every awkward `k` and a
    /// non-zero base, over score shapes chosen to break a threshold:
    /// tie-heavy, all equal, strictly monotone both ways, `±0.0`, `±inf`,
    /// denormals.
    #[test]
    fn mark_top_k_matches_argsort_prefix_at_every_tier(
        params in (0usize..300, 0usize..8, 0usize..70, any::<u64>())
    ) {
        let (n, shape, base, seed) = params;
        let scores = awkward_scores(n, shape, seed);
        let order = topk::argsort_desc(&scores);
        for k in [0, 1, n / 3, n.saturating_sub(1), n, n + 5] {
            let mut want: Vec<usize> = order.iter().take(k).map(|&i| base + i).collect();
            want.sort_unstable();
            for_each_tier(|tier| {
                let mut rank = RankScratch::default();
                let mut marks = PosBitSet::default();
                marks.reset(base + n);
                let marked = rank.mark_top_k(&scores, base, k, &mut marks);
                assert_eq!(marked, k.min(n), "shape {shape} n {n} k {k} tier {tier}");
                assert_eq!(
                    marks.collect_sorted(), want,
                    "shape {shape} n {n} k {k} base {base} tier {tier}"
                );
            });
        }
    }
}

/// Score vectors that stress a threshold selection, by `shape`.
fn awkward_scores(n: usize, shape: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed(seed);
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        1e-42,
        -1e-42,
        1.0,
    ];
    (0..n)
        .map(|i| match shape {
            // A softmax over a small vocabulary: few distinct values.
            0 => (-((rng.uniform() * 7.0) as i32 as f32)).exp(),
            1 => 0.25,
            2 => i as f32,
            3 => -(i as f32),
            4 => specials[(rng.uniform() * specials.len() as f32) as usize % specials.len()],
            // Denormals of both signs, many equal.
            5 => {
                f32::from_bits((rng.uniform() * 40.0) as u32) * if i % 2 == 0 { 1.0 } else { -1.0 }
            }
            6 => rng.normal(),
            // One binade apart at most: every key in one or two buckets.
            _ => 1.0 + rng.uniform() * 1e-4,
        })
        .collect()
}

/// Lengths pinned at the int4 staging edges: chunk boundary, one over,
/// and odd tails whose final byte carries a padding nibble.
#[test]
fn int4_edge_lengths_match_at_every_tier() {
    for n in [0usize, 1, 2, 3, 63, 64, 65, 127, 128, 129] {
        let mut rng = SimRng::seed(0xC0DE + n as u64);
        let xs = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
        let query = rng.normal_matrix(1, n, 1.0).as_slice().to_vec();
        let key = QuantVec::quantize(&xs, BitWidth::Int4);
        let lut = QueryLut::build(&query);
        let want = key.dot_reference(&query);
        for_each_tier(|tier| {
            assert_eq!(
                key.dot(&query).to_bits(),
                want.to_bits(),
                "dot len {n} tier {tier}"
            );
            assert_eq!(
                lut.dot_i4(&key).to_bits(),
                want.to_bits(),
                "lut len {n} tier {tier}"
            );
        });
    }
}

/// The position-parallel scoring kernel of the f32 key blocks (the
/// prefill's key span) equals `matrix::dot` per position at every tier: an empty cache,
/// one position, either side of a block boundary, and a tail that fills
/// part of a third block — including products that are all `-0.0`, where
/// only an accumulator started like `Iterator::sum`'s keeps the sign.
#[test]
fn key_block_dots_match_per_row_dot_at_every_tier() {
    for n in [
        0,
        1,
        KEY_BLOCK - 1,
        KEY_BLOCK,
        KEY_BLOCK + 1,
        2 * KEY_BLOCK + 37,
    ] {
        for dim in [1usize, 16, 23] {
            let mut rng = SimRng::seed(0xB10C + (n * 31 + dim) as u64);
            let mut keys = rng.normal_matrix(n, dim, 1.0);
            if n > 0 {
                keys.row_mut(n / 2).fill(-0.0);
            }
            let query: Vec<f32> = (0..dim).map(|_| rng.normal().abs()).collect();
            let mut blocks = KeyBlocks::new(dim);
            for key in keys.iter_rows() {
                blocks.push(key);
            }
            let want: Vec<f32> = keys.iter_rows().map(|k| matrix::dot(&query, k)).collect();
            for_each_tier(|tier| {
                let mut out = vec![f32::NAN; 3];
                blocks.dots_into(&query, &mut out);
                assert_bits_eq(&out, &want, &format!("{n} keys of dim {dim} tier {tier}"));
            });
        }
    }
}

/// Ranges of positions get the bits the full sweep gives them —
/// `matrix::dot` per row — wherever they start and end inside the blocks:
/// empty, one position, the prefill's window (97) from mid-block to
/// mid-block, block-aligned, everything, a row whose products are all
/// `-0.0`; and two ranges at once, in one block, in neighbouring blocks
/// and a block apart (the prefill's sinks + window).
#[test]
fn key_block_range_dots_match_per_row_dot_at_every_tier() {
    let (n, dim) = (2 * KEY_BLOCK + 37, 16);
    let mut rng = SimRng::seed(0xB10D);
    let mut keys = rng.normal_matrix(n, dim, 1.0);
    keys.row_mut(70).fill(-0.0);
    let query: Vec<f32> = (0..dim).map(|_| rng.normal().abs()).collect();
    let mut blocks = KeyBlocks::new(dim);
    for key in keys.iter_rows() {
        blocks.push(key);
    }
    let dots: Vec<f32> = keys.iter_rows().map(|k| matrix::dot(&query, k)).collect();
    assert_eq!(dots[70].to_bits(), (-0.0f32).to_bits());
    // One range alone is a pair with an empty partner, before or after.
    let cases = [
        [0..0, 70..70],
        [n..n, 0..1],
        [70..71, n - 1..n],
        [0..0, 5..5 + 97],
        [40..40 + 97, n..n],
        [0..0, KEY_BLOCK - 1..KEY_BLOCK + 1],
        [KEY_BLOCK..2 * KEY_BLOCK, 0..0],
        [0..0, 3..n - 2],
        [0..0, 0..n],
        [0..4, 9..9 + 97],
        [0..4, 60..60 + 97],
        [0..4, KEY_BLOCK + 3..n],
        [0..KEY_BLOCK, KEY_BLOCK..KEY_BLOCK + 1],
    ];
    for ranges in cases {
        let want: Vec<f32> = ranges
            .iter()
            .flat_map(|r| &dots[r.clone()])
            .copied()
            .collect();
        for_each_tier(|tier| {
            let mut out = vec![f32::NAN; want.len()];
            blocks.dots_ranges_into(&query, &ranges, &mut out);
            assert_bits_eq(&out, &want, &format!("{ranges:?} tier {tier}"));
        });
    }
}

/// The retrieval head's int8 key cache, as specified: a pushed key is
/// `QuantVec::quantize`'s levels and scale (so `|k - level * scale| <=
/// scale / 2` per element), and the block sweep gives each position
/// `scale * Σ q[d] * level[d]`, the sum taken from `-0.0` in ascending `d`
/// — the same bits at every tier. Lengths either side of a block
/// boundary, an empty cache and the benchmark's longest; dimensions that
/// are and are not a multiple of a vector; an all-zero key, which scores
/// exactly zero at scale one; a cleared cache starts over.
#[test]
fn quant_key_block_dots_match_the_per_position_reference_at_every_tier() {
    for n in [0, 1, 63, 64, 65, 129, 4224] {
        for dim in [16usize, 24, 64] {
            let mut rng = SimRng::seed(0x1B8 + (n * 31 + dim) as u64);
            let mut keys = rng.normal_matrix(n, dim, 1.0);
            // Norms spread like the head's: some keys several times others.
            for (p, row) in (0..n).zip(keys.as_mut_slice().chunks_mut(dim)) {
                row.iter_mut().for_each(|k| *k *= 1.0 + (p % 7) as f32);
            }
            if n > 0 {
                keys.row_mut(n / 2).fill(0.0);
            }
            let query = rng.normal_vec(dim, 1.0);
            let mut blocks = QuantKeyBlocks::new(dim);
            for key in keys.iter_rows() {
                blocks.push(key);
            }
            assert_eq!(blocks.len(), n);
            let mut want = Vec::with_capacity(n);
            for (p, key) in keys.iter_rows().enumerate() {
                let quantized = QuantVec::quantize(key, BitWidth::Int8);
                let scale = blocks.scale(p);
                assert_eq!(scale.to_bits(), quantized.scale().to_bits());
                for (d, &k) in key.iter().enumerate() {
                    let level = blocks.level(p, d);
                    assert_eq!(level, quantized.level(d), "key {p} element {d}");
                    let back = f32::from(level) * scale;
                    assert!((k - back).abs() <= scale / 2.0, "{k} came back as {back}");
                }
                let products = (0..dim).map(|d| query[d] * f32::from(blocks.level(p, d)));
                want.push(scale * products.fold(-0.0, |acc, x| acc + x));
            }
            if n > 0 {
                assert_eq!(blocks.scale(n / 2), 1.0);
                assert_eq!(want[n / 2], 0.0);
            }
            for_each_tier(|tier| {
                let mut out = vec![f32::NAN; 3];
                blocks.dots_into(&query, &mut out);
                assert_bits_eq(&out, &want, &format!("{n} keys of dim {dim} tier {tier}"));
            });
            blocks.clear();
            assert!(blocks.is_empty());
            let mut out = vec![f32::NAN; 3];
            blocks.dots_into(&query, &mut out);
            assert!(out.is_empty());
            if n > 0 {
                blocks.push(keys.row(0));
                blocks.dots_into(&query, &mut out);
                assert_bits_eq(&out, &want[..1], "the first key again, after clear");
            }
        }
    }
}

/// The value tile — the body of the decode step's and the prefill's value
/// pass — equals `ops::weighted_sum` per head at every tier, through
/// `ops::indexed_weighted_sums` over a contiguous list and over one with
/// gaps: no head (nothing written), one, three (edge tiles only), a whole
/// register tile of four, and five; value widths of one tile column, one
/// and a half, and four. The tile scans its weights for an exact zero
/// once and walks without the test when there is none, so each shape runs
/// with no zero anywhere, with zeros in one head only (the others' rows
/// must not be skipped with it), and with a zero beside an `inf` and a
/// `NaN` value row — where skipping shows: that head's output is the
/// skip's finite sum, not `NaN`.
#[test]
fn value_tile_matches_weighted_sum_at_every_tier() {
    for heads in [0usize, 1, 3, 4, 5] {
        for d in [16usize, 24, 64] {
            for zeros in ["none", "one head", "beside non-finite rows"] {
                let rows = 101;
                let mut rng = SimRng::seed(0x5A + (heads * 1000 + d * 10 + zeros.len()) as u64);
                let finite_values = rng.normal_matrix(2 * rows, d, 1.0);
                let mut weights = rng.normal_matrix(heads.max(1), rows, 1.0);
                for w in weights.as_mut_slice() {
                    *w = w.abs().max(1e-3);
                }
                let lists = [
                    (0..rows).collect::<Vec<usize>>(),
                    (0..rows).map(|i| 2 * i + i % 2).collect(),
                ];
                // The head that skips: the last one, in a full tile when
                // there is one.
                let skipper = heads.saturating_sub(1);
                if zeros != "none" {
                    for i in [7, 50, rows - 1] {
                        weights.row_mut(skipper)[i] = if i == 50 { -0.0 } else { 0.0 };
                    }
                }
                for list in &lists {
                    let mut values = finite_values.clone();
                    if zeros == "beside non-finite rows" {
                        values.row_mut(list[7]).fill(f32::INFINITY);
                        values.row_mut(list[50])[d / 2] = f32::NAN;
                    }
                    let gathered = values.gather_rows(list);
                    let want: Vec<f32> = weights
                        .iter_rows()
                        .take(heads)
                        .flat_map(|w| ops::weighted_sum(w, &gathered))
                        .collect();
                    if zeros == "beside non-finite rows" && heads > 0 {
                        let skipped = &want[skipper * d..][..d];
                        assert!(skipped.iter().all(|v| v.is_finite()), "the skip's sum");
                        if heads > 1 {
                            assert!(want[..d].iter().all(|v| !v.is_finite()), "a head that adds");
                        }
                    }
                    for_each_tier(|tier| {
                        let mut out = vec![f32::NAN; heads * d];
                        let w = &weights.as_slice()[..heads * rows];
                        ops::indexed_weighted_sums(w, &values, list, &mut out);
                        let what = format!("{heads}x{d}, zeros: {zeros}, tier {tier}");
                        assert_bits_eq(&out, &want, &what);
                    });
                }
            }
        }
    }
}

/// `softmax_rows_inplace` takes rows four in step; a row's bits must not
/// depend on the company it keeps. One to nine rows (whole groups, a
/// remainder of every size) of lengths either side of a lane chunk, the
/// prefill's 101 and 261 beyond it, equal the same rows taken one call
/// each — including a fully masked row (uniform, and its group falls back
/// to single rows) and a row holding a `NaN` inside a group of four.
#[test]
fn softmax_rows_in_step_match_rows_alone_at_every_tier() {
    for rows in 1usize..=9 {
        for cols in [1usize, 15, 16, 17, 101, 261] {
            let mut xs: Vec<f32> = (0..rows)
                .flat_map(|r| awkward_logits(cols, 0x50F7 + (rows * 1000 + cols * 10 + r) as u64))
                .collect();
            if rows > 1 {
                xs[cols..2 * cols].fill(f32::NEG_INFINITY);
            }
            if rows > 6 {
                xs[6 * cols + cols / 2] = f32::NAN;
            }
            for scale in [1.0f32, 0.25] {
                let mut want = xs.clone();
                for row in want.chunks_exact_mut(cols) {
                    dispatch::with_tier(SimdTier::Scalar, || {
                        ops::softmax_rows_inplace(row, cols, scale)
                    });
                }
                if rows > 1 {
                    assert!(want[cols..2 * cols].iter().all(|&p| p == 1.0 / cols as f32));
                }
                if rows > 6 {
                    // (A row that is one `NaN` has no maximum: it is masked.)
                    assert!(cols == 1 || want[6 * cols..7 * cols].iter().all(|p| p.is_nan()));
                    assert!(want[4 * cols..6 * cols].iter().all(|p| p.is_finite()));
                }
                for_each_tier(|tier| {
                    let mut got = xs.clone();
                    ops::softmax_rows_inplace(&mut got, cols, scale);
                    let what = format!("{rows} rows of {cols} x{scale} tier {tier}");
                    assert_bits_eq(&got, &want, &what);
                });
            }
        }
    }
}

/// The prefill's block attention kernel — one dispatched body per (KV
/// head, block): ranged scores over the staged key span, the grouped
/// softmax, the value tile over the sink and window rows in place —
/// equals, per position and head, `ops::attention_weights` then
/// `ops::weighted_sum` over the gathered rows, bit for bit at every tier.
/// Windows from none (a position alone) to exact attention, sinks from
/// none to more than a window ever leaves behind, blocks at the start of
/// the prompt, one block in and 63 blocks in, a short last block and a
/// prompt shorter than a block. Queries and outputs sit in wider rows, as
/// the model's fused projection and head concatenation hold them. Two key
/// rows score ~1000 below everything (weight exactly zero wherever
/// another row is attended with them) beside value rows of `inf`: the
/// tile's skip is the specification's. Where rows are cut out of the
/// matrices (MLA up-projects only what the block attends) the result is
/// the whole cache's.
#[test]
fn block_attention_matches_the_scalar_specification_at_every_tier() {
    let (heads, d, cached) = (4usize, 16usize, 4096usize);
    let (q_stride, out_stride) = (heads * d + 7, heads * d + 3);
    let mut rng = SimRng::seed(0xB10C_A77E);
    let mut keys = rng.normal_matrix(cached, d, 1.0);
    let mut values = rng.normal_matrix(cached, d, 1.0);
    for masked in [2, 4000] {
        keys.row_mut(masked).fill(-1000.0);
        values.row_mut(masked).fill(f32::INFINITY);
    }
    let queries: Vec<f32> = (0..64 * q_stride)
        .map(|_| rng.normal().abs() + 0.1)
        .collect();
    for (start, rows) in [(0usize, 64usize), (64, 64), (4032, 64), (4032, 37), (0, 5)] {
        for window in [0usize, 1, 17, 96, usize::MAX] {
            for sinks in [0usize, 1, 4, 300] {
                let what = format!("block {start}+{rows}, window {window}, sinks {sinks}");
                let mut want = vec![f32::NAN; rows * out_stride];
                for r in 0..rows {
                    let pos = start + r;
                    let lo = pos.saturating_sub(window);
                    let attended: Vec<usize> = (0..sinks.min(lo)).chain(lo..=pos).collect();
                    let (k, v) = (keys.gather_rows(&attended), values.gather_rows(&attended));
                    for j in 0..heads {
                        let query = &queries[r * q_stride + j * d..][..d];
                        let weights = ops::attention_weights(query, &k);
                        if let Some(i) = attended.iter().position(|&p| p == 2 || p == 4000) {
                            assert!(weights[i] == 0.0 || attended.len() == 1, "{what}");
                        }
                        want[r * out_stride + j * d..][..d]
                            .copy_from_slice(&ops::weighted_sum(&weights, &v));
                    }
                }
                let block = ops::BlockAttention {
                    queries: &queries,
                    q_stride,
                    heads,
                    keys: &keys,
                    values: &values,
                    cut: 0,
                    start,
                    rows,
                    window,
                    sinks,
                };
                // The same rows with the gap cut out of both matrices.
                let lo0 = start.saturating_sub(window);
                let kept = sinks.min(lo0);
                let span: Vec<usize> = (0..kept).chain(lo0..start + rows).collect();
                let (cut_keys, cut_values) = (keys.gather_rows(&span), values.gather_rows(&span));
                let cut_block = ops::BlockAttention {
                    keys: &cut_keys,
                    values: &cut_values,
                    cut: lo0 - kept,
                    ..block
                };
                for_each_tier(|tier| {
                    let mut span = KeyBlocks::new(d);
                    let mut scores = Vec::new();
                    for (job, form) in [(&block, "whole cache"), (&cut_block, "cut")] {
                        let mut out = vec![f32::NAN; rows * out_stride];
                        ops::attend_block(job, &mut span, &mut scores, &mut out, out_stride);
                        for r in 0..rows {
                            let at = r * out_stride..r * out_stride + heads * d;
                            let what = format!("{what}, row {r}, {form}, tier {tier}");
                            assert_bits_eq(&out[at.clone()], &want[at], &what);
                        }
                    }
                });
            }
        }
    }
}

/// List lengths either side of every chunk edge of the indexed kernels
/// (16 lanes, the AVX-512 QK's 16-row transpose — once and twice — and the
/// 64-row tile), a decode step's budget and a dense step over a 4 K
/// context.
const LIST_LENGTHS: [usize; 14] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129, 260, 4353];

/// Index lists of `n` positions into `rows >= 2 * n` cache rows: ascending
/// with gaps (a selection), contiguous (dense attention), descending, and
/// ascending with one position listed twice.
fn index_lists(n: usize, rows: usize, rng: &mut SimRng) -> Vec<(&'static str, Vec<usize>)> {
    let mut gaps: Vec<usize> = (0..n).map(|i| 2 * i + rng.below(2)).collect();
    if let Some(last) = gaps.last_mut() {
        *last = rows - 1;
    }
    let mut repeated = gaps.clone();
    if n > 1 {
        repeated[n / 2] = repeated[n / 2 - 1];
    }
    vec![
        ("gaps", gaps.clone()),
        ("contiguous", (0..n).collect()),
        ("descending", gaps.into_iter().rev().collect()),
        ("repeated", repeated),
    ]
}

/// `(query heads in the group, head_dim)`: the engine's group of 4 x 16,
/// MHA's single head, a group wider than the value tile's 4 heads, a
/// `head_dim` that leaves the value tile an edge, the paper's 64, MQA's
/// whole group at the engine's width, and two 16-wide slabs a key summed
/// across slabs (the AVX-512 QK takes widths that are multiples of 16, so
/// 24 runs the tile body at every tier).
const GROUP_SHAPES: [(usize, usize); 7] = [
    (4, 16),
    (1, 16),
    (8, 24),
    (4, 64),
    (1, 24),
    (8, 16),
    (2, 32),
];

/// The decode step's two indexed kernels read the cache in place through
/// an index list and must return the scalar specification's bits at every
/// tier: `indexed_dots` is `matrix::dot` per (head, listed row) — a row of
/// `-0.0` products included, where only `Iterator::sum`'s `-0.0` start
/// keeps the sign; the gapped list ends on that row, the cache's last, so
/// a short chunk that filled its spare lanes with a row it does not list
/// would read past the matrix or score wrong — and `indexed_weighted_sums`
/// is `ops::weighted_sum` per head over the gathered rows, with the weights
/// a masked softmax leaves: exact zeros where a score was `-inf`, and
/// exactly 1 on a list of one.
#[test]
fn indexed_attention_kernels_match_the_scalar_specification_at_every_tier() {
    for n in LIST_LENGTHS {
        for (heads, d) in GROUP_SHAPES {
            // The long list rides the engine's shape and the widest only.
            if n > 300 && !matches!((heads, d), (4, 16) | (4, 64)) {
                continue;
            }
            let rows = 2 * n + 3;
            let mut rng = SimRng::seed(0xA77E + (n * 97 + heads * 13 + d) as u64);
            let mut keys = rng.normal_matrix(rows, d, 1.0);
            keys.row_mut(rows - 1).fill(-0.0);
            let values = rng.normal_matrix(rows, d, 1.0);
            let queries: Vec<f32> = (0..heads * d).map(|_| rng.normal().abs()).collect();
            for (shape, list) in index_lists(n, rows, &mut rng) {
                let what = format!("{shape} list of {n}, {heads} heads x {d}");
                let want_scores: Vec<f32> = queries
                    .chunks_exact(d)
                    .flat_map(|q| list.iter().map(|&p| matrix::dot(q, keys.row(p))))
                    .collect();
                if shape == "gaps" && n > 0 {
                    assert_eq!(want_scores[n - 1].to_bits(), (-0.0f32).to_bits(), "{what}");
                }
                let mut weights = want_scores.clone();
                for w in weights.iter_mut().skip(1).step_by(7) {
                    *w = f32::NEG_INFINITY;
                }
                ops::softmax_rows_inplace(&mut weights, n, 0.25);
                if n > 8 {
                    assert_eq!(weights[1], 0.0, "{what}: a masked score gets zero weight");
                }
                let gathered = values.gather_rows(&list);
                let want_out: Vec<f32> = if n == 0 {
                    vec![0.0; heads * d]
                } else {
                    weights
                        .chunks_exact(n)
                        .flat_map(|w| ops::weighted_sum(w, &gathered))
                        .collect()
                };
                for_each_tier(|tier| {
                    let mut tile = Vec::new();
                    let mut scores = vec![f32::NAN; heads * n];
                    ops::indexed_dots(&queries, &keys, &list, &mut tile, &mut scores);
                    assert_bits_eq(&scores, &want_scores, &format!("QK {what} tier {tier}"));
                    let mut out = vec![f32::NAN; heads * d];
                    ops::indexed_weighted_sums(&weights, &values, &list, &mut out);
                    assert_bits_eq(&out, &want_out, &format!("value {what} tier {tier}"));
                });
            }
        }
    }
}

/// An index list may name any row in any order, but never a row the cache
/// does not hold: both kernels refuse it in every build profile.
#[test]
#[should_panic(expected = "position 5 out of bounds")]
fn indexed_dots_rejects_a_position_out_of_bounds() {
    let keys = Matrix::zeros(5, 4);
    ops::indexed_dots(&[0.0; 4], &keys, &[1, 5], &mut Vec::new(), &mut [0.0; 2]);
}

/// See [`indexed_dots_rejects_a_position_out_of_bounds`].
#[test]
#[should_panic(expected = "position 5 out of bounds")]
fn indexed_weighted_sums_rejects_a_position_out_of_bounds() {
    let values = Matrix::zeros(5, 4);
    ops::indexed_weighted_sums(&[0.5; 2], &values, &[5, 1], &mut [0.0; 4]);
}

/// `Matrix::vecmat_into` — every decode matvec — returns at every tier the
/// bits of the plain loop: each output column sums `x[i] * w[i][j]` over
/// `i` ascending from `+0.0`, skipping inputs that are exactly zero of
/// either sign, whichever of the kernel's column tiles (64 wide, 16 wide,
/// single) the column falls in.
#[test]
fn vecmat_matches_the_plain_loop_at_every_tier() {
    for rows in [1usize, 64, 130] {
        for cols in [1usize, 15, 16, 17, 63, 64, 65, 80, 129, 512] {
            let mut rng = SimRng::seed(0x7EC + (rows * 1000 + cols) as u64);
            let w = rng.normal_matrix(rows, cols, 1.0);
            let mut x: Vec<f32> = (0..rows).map(|_| rng.normal()).collect();
            for (i, v) in x.iter_mut().enumerate() {
                match i % 7 {
                    2 => *v = 0.0,
                    5 => *v = -0.0,
                    _ => {}
                }
            }
            let mut want = vec![0.0f32; cols];
            for (xi, row) in x.iter().zip(w.iter_rows()) {
                if *xi == 0.0 {
                    continue;
                }
                for (o, wij) in want.iter_mut().zip(row) {
                    *o += xi * wij;
                }
            }
            for_each_tier(|tier| {
                let mut out = vec![f32::NAN; cols];
                w.vecmat_into(&x, &mut out);
                assert_bits_eq(&out, &want, &format!("vecmat {rows}x{cols} tier {tier}"));
                assert_bits_eq(&w.vecmat(&x), &want, &format!("vecmat {rows}x{cols}"));
            });
        }
    }
}

/// NaN scores must not panic the set top-k at any tier (which NaNs are
/// selected is unspecified, as for `top_k_indices`), and it still marks
/// exactly `k` positions.
#[test]
fn mark_top_k_survives_nan_at_every_tier() {
    let scores = [f32::NAN, 1.0, -f32::NAN, 2.0, f32::NAN, 0.5, 2.0];
    for k in 0..=scores.len() + 1 {
        for_each_tier(|tier| {
            let mut marks = PosBitSet::default();
            marks.reset(scores.len());
            let marked = RankScratch::default().mark_top_k(&scores, 0, k, &mut marks);
            assert_eq!(marked, k.min(scores.len()), "k {k} tier {tier}");
            assert_eq!(marks.count(), marked, "k {k} tier {tier}");
        });
    }
}

/// Row lengths either side of every lane-chunk edge of the softmax kernel.
const EXP_LENGTHS: [usize; 10] = [0, 1, 15, 16, 17, 63, 64, 65, 257, 4224];

/// Softmax inputs of length `n` that reach the kernel's special paths:
/// a `-inf` mask, `±0.0`, denormals, and entries more than 104 below the
/// maximum (under the `exp` cut-off: exactly zero weight).
fn awkward_logits(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed(seed);
    let mut xs: Vec<f32> = (0..n).map(|_| rng.normal() * 4.0).collect();
    let specials = [f32::NEG_INFINITY, 0.0, -0.0, 1e-41, -1e-41, -120.0, -500.0];
    for (i, &special) in specials.iter().enumerate() {
        if let Some(x) = xs.get_mut(i * 5 + 2) {
            *x = special;
        }
    }
    xs
}

/// `softmax(scale * x)` in `f64` with libm's `exp` — the tolerance oracle
/// (the shipped crates hold no libm softmax).
fn softmax_oracle(xs: &[f32], scale: f32) -> Vec<f64> {
    let scaled: Vec<f64> = xs.iter().map(|&x| f64::from(x * scale)).collect();
    let max = scaled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scaled.iter().map(|x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// The polynomial `exp`, the softmax built on it and SiLU return the
/// scalar tier's bits at every tier, whatever the row length leaves for
/// the kernel's tail, and keep the conventions callers rely on: `-inf`
/// gets exactly zero weight, an all-`-inf` row is uniform, a row of many
/// rows is the row alone.
#[test]
fn exp_softmax_silu_match_scalar_bits_at_every_tier() {
    for n in EXP_LENGTHS {
        for scale in [1.0f32, 0.25] {
            let xs = awkward_logits(n, 0xE4B + n as u64);
            let softmax = || {
                let mut v = xs.clone();
                ops::softmax_rows_inplace(&mut v, n, scale);
                v
            };
            let want = dispatch::with_tier(SimdTier::Scalar, softmax);
            if n > 2 {
                assert_eq!(want[2], 0.0, "-inf must get zero weight");
                if let Some(i) = (0..n).find(|&i| xs[i] == -500.0) {
                    assert_eq!(want[i], 0.0, "below the cut-off is exactly zero");
                }
            }
            for_each_tier(|tier| {
                assert_bits_eq(
                    &softmax(),
                    &want,
                    &format!("softmax {n} x{scale} tier {tier}"),
                );
            });
            // Three such rows in one call: each is softmaxed alone.
            let mut rows = [xs.clone(), xs.clone(), xs.clone()].concat();
            if n > 0 {
                ops::softmax_rows_inplace(&mut rows, n, scale);
                for row in rows.chunks_exact(n) {
                    assert_bits_eq(row, &want, &format!("softmax row of {n}"));
                }
            }
        }

        let masked = vec![f32::NEG_INFINITY; n];
        for_each_tier(|tier| {
            let mut v = masked.clone();
            ops::softmax_inplace(&mut v);
            assert!(
                v.iter().all(|&p| p == 1.0 / n as f32),
                "uniform, {n} tier {tier}"
            );
        });

        let mut acts = awkward_logits(n, 0x51 + n as u64);
        for (x, special) in acts.iter_mut().zip([88.0, -88.0, 1e4, -1e4, 0.0, -0.0]) {
            *x = special;
        }
        let want: Vec<f32> = acts.iter().map(|&x| ops::silu(x)).collect();
        for_each_tier(|tier| {
            let mut v = acts.clone();
            ops::silu_inplace(&mut v);
            assert_bits_eq(&v, &want, &format!("silu {n} tier {tier}"));
        });
    }
}

/// Accuracy of the libm-free kernels against `f64` oracles: `exp` within
/// `2e-7` relative on `[-87.3, 88]` (a dense sweep plus the range ends),
/// exactly zero below, saturated above, NaN kept; softmax rows sum to one
/// within `1e-6`, sit within `1e-6` of the oracle and preserve order;
/// SiLU within `1e-6` absolute of libm's over ±30 (and finite at ±1e4,
/// where libm's overflowing `exp` gives `∓0.0`).
#[test]
fn exp_kernels_track_the_f64_oracle() {
    let rel = |x: f32| {
        let want = f64::from(x).exp();
        ((f64::from(ops::exp(x)) - want) / want).abs()
    };
    let mut worst: f64 = 0.0;
    for i in 0..=400_000 {
        let x = -87.3 + (88.0 + 87.3) * (i as f32 / 400_000.0);
        worst = worst.max(rel(x));
    }
    for x in [
        -87.3,
        88.0,
        0.0,
        -0.0,
        1e-30,
        -1e-30,
        std::f32::consts::LN_2 / 2.0,
    ] {
        worst = worst.max(rel(x));
    }
    assert!(worst <= 2e-7, "exp relative error {worst:e}");
    assert_eq!(ops::exp(-87.31), 0.0);
    assert_eq!(ops::exp(f32::NEG_INFINITY), 0.0);
    assert_eq!(ops::exp(1e4), ops::exp(88.0));
    assert!(ops::exp(f32::NAN).is_nan());

    for n in EXP_LENGTHS.into_iter().filter(|&n| n > 0) {
        for scale in [1.0f32, 0.25] {
            let xs = awkward_logits(n, 0xACC + n as u64);
            let mut got = xs.clone();
            ops::softmax_rows_inplace(&mut got, n, scale);
            let want = softmax_oracle(&xs, scale);
            let sum: f64 = got.iter().map(|&p| f64::from(p)).sum();
            assert!((sum - 1.0).abs() <= 1e-6, "softmax {n} sums to {sum}");
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (f64::from(g) - w).abs() <= 1e-6,
                    "softmax {n}[{i}]: {g} vs {w}"
                );
            }
            let mut by_logit: Vec<usize> = (0..n).collect();
            by_logit.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("no NaN"));
            for pair in by_logit.windows(2) {
                assert!(
                    got[pair[0]] <= got[pair[1]],
                    "softmax {n} reorders {pair:?}"
                );
            }
        }
    }

    for i in 0..=60_000 {
        let x = -30.0 + i as f32 * 1e-3;
        let libm = x / (1.0 + (-x).exp());
        assert!((ops::silu(x) - libm).abs() <= 1e-6, "silu({x})");
    }
    for x in [88.0f32, -88.0, 1e4, -1e4] {
        let libm = x / (1.0 + (-x).exp());
        let tolerance = 1e-6 * x.abs().max(1.0);
        assert!((ops::silu(x) - libm).abs() <= tolerance, "silu({x})");
    }
}

/// `exp` never decreases from one `f32` to the next over the whole range
/// a softmax feeds it, `[-87.3, 0]` — 1.1 billion arguments, ~40 s in
/// release — so the softmax is order-preserving, not just close.
#[test]
#[ignore = "exhaustive sweep; run with --release -- --ignored"]
fn exp_is_monotone_over_every_softmax_argument() {
    let mut prev = 0.0;
    for bits in ((-0.0f32).to_bits()..=(-87.3f32).to_bits()).rev() {
        let y = ops::exp(f32::from_bits(bits));
        assert!(y >= prev, "exp decreases at {:e}", f32::from_bits(bits));
        prev = y;
    }
}

/// The `SPEC_SIMD` regression gate: when CI (or a user) forces a tier
/// via the environment, `active_tier` must honor it — clamped to what
/// the CPU supports. With no override the active tier is the detected
/// hardware maximum. Either way it must be executable.
#[test]
fn spec_simd_env_forces_the_active_tier() {
    let active = dispatch::active_tier();
    match std::env::var("SPEC_SIMD")
        .ok()
        .and_then(|v| SimdTier::parse(&v))
    {
        Some(forced) => assert_eq!(
            active,
            dispatch::clamp(forced),
            "SPEC_SIMD={forced} must pin the active tier"
        ),
        None => assert_eq!(active, dispatch::detected_tier()),
    }
    assert!(dispatch::available_tiers().contains(&active));
}
