//! The determinism contract of the SIMD dispatch registry: every kernel
//! behind `spec_tensor::dispatch` must match its retained scalar
//! reference **bit-for-bit at every available tier** (swept per run via
//! `dispatch::with_tier`, which takes precedence over `SPEC_SIMD`). CI
//! additionally runs the whole test suite under `SPEC_SIMD=scalar`,
//! exercising the env-var path end to end on wide machines.

use proptest::prelude::*;
use spec_tensor::dispatch::{self, SimdTier};
use spec_tensor::keyblocks::{KeyBlocks, KEY_BLOCK};
use spec_tensor::lut::{I8Lut, QueryLut};
use spec_tensor::quant::{BitWidth, QuantVec};
use spec_tensor::{matrix, ops, SimRng};

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

    /// Both int8 batch paths — the true LUT and the blocked widened
    /// multiply (key counts straddle the 8-lane blocking) — equal
    /// `dot_reference` at every tier.
    #[test]
    fn lut_i8_matches_reference_at_every_tier(
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
        let lut = I8Lut::build(&query);
        let want: Vec<f32> = keys.iter().map(|k| k.dot_reference(&query)).collect();
        for_each_tier(|tier| {
            for (k, w) in keys.iter().zip(&want) {
                assert_eq!(lut.dot_i8(k).to_bits(), w.to_bits(), "table tier {tier}");
            }
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

/// The position-parallel scoring kernel of the retrieval head's key
/// cache equals `matrix::dot` per position at every tier: an empty cache,
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

/// The grouped value pass equals `ops::weighted_sum` per head at every
/// tier: whole register tiles (4 heads x 16 columns, the engine's GQA
/// group), edge tiles both ways, a single head, and the row run split in
/// two calls as the prefill splits it into sinks and window. Some weights
/// are exactly zero (skipped, as the reference skips them).
#[test]
fn weighted_sums_acc_matches_weighted_sum_at_every_tier() {
    for (heads, d, rows) in [
        (4usize, 16usize, 101usize),
        (8, 32, 7),
        (1, 16, 40),
        (5, 19, 23),
        (2, 8, 64),
    ] {
        let mut rng = SimRng::seed(0x5A + (heads * 1000 + d * 10 + rows) as u64);
        let values = rng.normal_matrix(rows, d, 1.0);
        let mut weights = rng.normal_matrix(heads, rows, 1.0);
        for (i, w) in weights.as_mut_slice().iter_mut().enumerate() {
            if i % 9 == 4 {
                *w = 0.0;
            }
        }
        let want: Vec<f32> = weights
            .iter_rows()
            .flat_map(|w| ops::weighted_sum(w, &values))
            .collect();
        let split = rows / 3;
        for_each_tier(|tier| {
            let mut out = vec![0.0; heads * d];
            let w = weights.as_slice();
            ops::weighted_sums_acc(w, rows, &values, 0..split, &mut out);
            ops::weighted_sums_acc(&w[split..], rows, &values, split..rows, &mut out);
            assert_bits_eq(&out, &want, &format!("{heads}x{d} over {rows} tier {tier}"));
        });
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
