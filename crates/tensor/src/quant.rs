//! Block quantization of key vectors.
//!
//! The ShadowKV baseline (Sun et al., 2024) quantizes the key cache to a
//! low bit width and scores queries against the quantized keys. This module
//! provides symmetric per-vector int8 and int4 quantization with an
//! absmax scale, plus a fused quantized dot product so retrieval can score
//! without materializing the dequantized vector.
//!
//! [`QuantVec::dot`] runs on the [`dispatch`](crate::dispatch) registry:
//! the int4 path unpacks a byte (two levels) at a time — no branchy
//! per-element bit-extract even on the scalar tier — and both widths
//! stage one chunk of products in a buffer (the element-wise phase the
//! wide tiers vectorize) before a sequential ascending-index reduction
//! consumes it, which is exactly the addition order of the original
//! per-element loop retained as [`QuantVec::dot_reference`]. Every tier
//! is bit-identical to that reference. For scoring *many* int4 vectors
//! against one query, see [`lut`](crate::lut): a per-query lookup table
//! replaces the multiplies with gathers.

use serde::{Deserialize, Serialize};

/// Elements staged per dispatch chunk. Even, so int4 bytes never
/// straddle a chunk boundary; 64 f32 products fit comfortably in
/// registers + L1 at every tier.
const QUANT_CHUNK: usize = 64;

/// Keys scored together by [`dot_i8_batch_into`]. One key's fold is a
/// single sequential addition chain (latency-bound); eight keys give
/// eight independent chains the core overlaps, without changing any
/// key's own addition order.
const QUANT_LANES: usize = 8;

crate::dispatch_kernel! {
    /// Fused int8 dot: stage `query[i] * level[i]` products chunk by
    /// chunk (element-wise, lane-parallel at the wide tiers), then fold
    /// each chunk in ascending index order — the reference's exact
    /// addition sequence. Returns the unscaled sum.
    quant_dot_i8(query: &[f32], packed: &[u8]) -> f32 {
        let mut buf = [0.0f32; QUANT_CHUNK];
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < query.len() {
            let c = QUANT_CHUNK.min(query.len() - i);
            for ((b, &q), &l) in buf[..c]
                .iter_mut()
                .zip(&query[i..i + c])
                .zip(&packed[i..i + c])
            {
                *b = q * (l as i8 as f32);
            }
            for &v in &buf[..c] {
                acc += v;
            }
            i += c;
        }
        acc
    }
}

crate::dispatch_kernel! {
    /// Fused int4 dot: unpack one byte — two sign-extended nibbles — per
    /// step (chunks start even, so bytes never straddle), multiply the
    /// staged levels by the query element-wise, then fold in ascending
    /// index order. Identical products, identical addition order, so
    /// bit-identical to the per-element reference. Returns the unscaled
    /// sum.
    quant_dot_i4(query: &[f32], packed: &[u8]) -> f32 {
        let mut buf = [0.0f32; QUANT_CHUNK];
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < query.len() {
            let c = QUANT_CHUNK.min(query.len() - i);
            for (j, &byte) in packed[i / 2..(i + c).div_ceil(2)].iter().enumerate() {
                // Low nibble: shift into the sign position, arithmetic
                // shift back; high nibble: arithmetic shift alone. Both
                // match `level()`'s sign-extension bit for bit. An odd
                // tail writes one extra staged level past `c`; the
                // `..c` slices below never read it.
                buf[2 * j] = (((byte << 4) as i8) >> 4) as f32;
                buf[2 * j + 1] = ((byte as i8) >> 4) as f32;
            }
            for (b, &q) in buf[..c].iter_mut().zip(&query[i..i + c]) {
                *b *= q;
            }
            for &v in &buf[..c] {
                acc += v;
            }
            i += c;
        }
        acc
    }
}

crate::dispatch_kernel! {
    /// The blocked int8 batch dot: widened multiply-accumulate for
    /// [`QUANT_LANES`] keys against one query simultaneously. Lane `k`
    /// receives exactly the reference's adds for key `k` — `query[i] *
    /// level[i]` in ascending element order — so results are
    /// bit-identical to [`QuantVec::dot_reference`]; only the chains
    /// interleave across lanes. Accumulators are unscaled.
    quant_dot_i8_block(
        query: &[f32],
        packed: &[&[u8]; QUANT_LANES],
        acc: &mut [f32; QUANT_LANES],
    ) {
        for a in acc.iter_mut() {
            *a = 0.0;
        }
        for (i, &q) in query.iter().enumerate() {
            for (a, p) in acc.iter_mut().zip(packed) {
                *a += q * (p[i] as i8 as f32);
            }
        }
    }
}

/// Scores one query against many int8 keys into a reused buffer
/// (cleared first): the production side of the int8 LUT-vs-arithmetic
/// trade (see [`lut`](crate::lut) for why the true 256-entry table
/// loses at cache-sized dims). The dispatch tier is resolved once, keys
/// run [`QUANT_LANES`] at a time, and each result is bit-identical to
/// `key.dot_reference(query)`.
///
/// # Panics
///
/// Panics if any key is not int8 or disagrees with `query` on length.
pub fn dot_i8_batch_into(query: &[f32], keys: &[QuantVec], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(keys.len());
    let tier = crate::dispatch::active_tier();
    let mut blocks = keys.chunks_exact(QUANT_LANES);
    for block in &mut blocks {
        let packed: [&[u8]; QUANT_LANES] = std::array::from_fn(|k| {
            let key = &block[k];
            assert_eq!(key.width(), BitWidth::Int8, "dot_i8_batch_into wants int8");
            assert_eq!(key.len(), query.len(), "quant dot length mismatch");
            key.packed()
        });
        let mut acc = [0.0f32; QUANT_LANES];
        quant_dot_i8_block::dispatch(tier, query, &packed, &mut acc);
        out.extend(acc.iter().zip(block).map(|(a, key)| a * key.scale()));
    }
    for key in blocks.remainder() {
        assert_eq!(key.width(), BitWidth::Int8, "dot_i8_batch_into wants int8");
        assert_eq!(key.len(), query.len(), "quant dot length mismatch");
        out.push(quant_dot_i8::dispatch(tier, query, key.packed()) * key.scale());
    }
}

/// Bit width of a quantized vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitWidth {
    /// Signed 8-bit, range [-127, 127].
    Int8,
    /// Signed 4-bit, range [-7, 7] packed two per byte.
    Int4,
}

impl BitWidth {
    /// Maximum representable magnitude.
    fn max_level(self) -> f32 {
        match self {
            BitWidth::Int8 => 127.0,
            BitWidth::Int4 => 7.0,
        }
    }

    /// Bytes required to store `len` quantized elements (excluding scale).
    pub fn storage_bytes(self, len: usize) -> usize {
        match self {
            BitWidth::Int8 => len,
            BitWidth::Int4 => len.div_ceil(2),
        }
    }
}

/// The symmetric absmax rule every quantized key in the workspace is made
/// by: `scale = absmax / max_level` (`1.0` for an all-zero vector, so no
/// level is ever divided by zero), `level[i] = round(xs[i] / scale)` —
/// half away from zero — clamped to `±max_level`. Hands each level to
/// `put(i, level)` and returns the scale, so that a caller with its own
/// layout ([`QuantVec`]'s packed bytes, the dimension-major blocks of
/// [`QuantKeyBlocks`](crate::keyblocks::QuantKeyBlocks)) stores it
/// directly. `|xs[i] - scale * level[i]| <= scale / 2`.
pub fn quantize_levels(xs: &[f32], width: BitWidth, mut put: impl FnMut(usize, i8)) -> f32 {
    let max_level = width.max_level();
    let absmax = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if absmax == 0.0 {
        1.0
    } else {
        absmax / max_level
    };
    let inv = 1.0 / scale;
    let max_level = max_level as i32;
    for (i, &v) in xs.iter().enumerate() {
        put(
            i,
            round_half_away(v * inv).clamp(-max_level, max_level) as i8,
        );
    }
    scale
}

/// `x.round() as i32` — half away from zero, saturating, NaN to 0 —
/// without the libm call that `f32::round` is on targets whose baseline
/// has no rounding instruction: adding the largest float below one half,
/// signed as `x`, carries exactly the values at or past a half over the
/// next integer, and the cast truncates. A key pushed into a quantized
/// cache rounds each of its elements, per head, per token.
#[inline(always)]
fn round_half_away(x: f32) -> i32 {
    (x + 0.499_999_97_f32.copysign(x)) as i32
}

/// A symmetrically quantized vector: `value[i] ≈ scale * level[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantVec {
    width: BitWidth,
    scale: f32,
    len: usize,
    packed: Vec<u8>,
}

impl QuantVec {
    /// Quantizes `xs` at the given bit width with an absmax scale
    /// ([`quantize_levels`]).
    pub fn quantize(xs: &[f32], width: BitWidth) -> Self {
        let mut levels = vec![0i8; xs.len()];
        let scale = quantize_levels(xs, width, |i, level| levels[i] = level);
        let packed = match width {
            BitWidth::Int8 => levels.iter().map(|&l| l as u8).collect(),
            BitWidth::Int4 => {
                let mut out = Vec::with_capacity(levels.len().div_ceil(2));
                for pair in levels.chunks(2) {
                    let lo = (pair[0] as u8) & 0x0F;
                    let hi = if pair.len() > 1 {
                        ((pair[1] as u8) & 0x0F) << 4
                    } else {
                        0
                    };
                    out.push(lo | hi);
                }
                out
            }
        };
        Self {
            width,
            scale,
            len: xs.len(),
            packed,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit width used.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Bytes consumed by the packed representation plus scale.
    pub fn storage_bytes(&self) -> usize {
        self.packed.len() + std::mem::size_of::<f32>()
    }

    /// Integer level at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn level(&self, i: usize) -> i8 {
        assert!(i < self.len, "quant index out of bounds");
        match self.width {
            BitWidth::Int8 => self.packed[i] as i8,
            BitWidth::Int4 => {
                let byte = self.packed[i / 2];
                let nib = if i.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                };
                // Sign-extend the 4-bit value.
                ((nib << 4) as i8) >> 4
            }
        }
    }

    /// Reconstructs the approximate f32 vector.
    pub fn dequantize(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| self.level(i) as f32 * self.scale)
            .collect()
    }

    /// The absmax scale (`value[i] ≈ scale * level[i]`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The packed level bytes (int8: one level per byte; int4: two
    /// nibbles per byte, low nibble first).
    pub(crate) fn packed(&self) -> &[u8] {
        &self.packed
    }

    /// Dot product of a float query against this quantized vector without
    /// materializing the dequantized values.
    ///
    /// Runs on the [`dispatch`](crate::dispatch) registry (byte-wise
    /// int4 unpacking even on the scalar tier); bit-identical to
    /// [`dot_reference`](Self::dot_reference) at every tier.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.len()`.
    pub fn dot(&self, query: &[f32]) -> f32 {
        assert_eq!(query.len(), self.len, "quant dot length mismatch");
        let tier = crate::dispatch::active_tier();
        let acc = match self.width {
            BitWidth::Int8 => quant_dot_i8::dispatch(tier, query, &self.packed),
            BitWidth::Int4 => quant_dot_i4::dispatch(tier, query, &self.packed),
        };
        acc * self.scale
    }

    /// The original per-element fused dot — one branchy `level(i)`
    /// unpack per element — retained as the pinning reference for
    /// [`dot`](Self::dot) and the `lut` kernels.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.len()`.
    pub fn dot_reference(&self, query: &[f32]) -> f32 {
        assert_eq!(query.len(), self.len, "quant dot length mismatch");
        let mut acc = 0.0;
        for (i, &q) in query.iter().enumerate() {
            acc += q * self.level(i) as f32;
        }
        acc * self.scale
    }
}

/// Maximum absolute round-trip error of absmax quantization for a vector
/// with the given absolute maximum: half a level.
pub fn max_roundtrip_error(absmax: f32, width: BitWidth) -> f32 {
    if absmax == 0.0 {
        0.0
    } else {
        0.5 * absmax / width.max_level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_roundtrip_is_tight() {
        let xs = vec![0.5, -1.0, 0.25, 0.99, -0.01];
        let q = QuantVec::quantize(&xs, BitWidth::Int8);
        let back = q.dequantize();
        let bound = max_roundtrip_error(1.0, BitWidth::Int8) + 1e-6;
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_roundtrip_within_bound() {
        let xs = vec![0.7, -0.7, 0.1, -0.35, 0.0, 0.349];
        let q = QuantVec::quantize(&xs, BitWidth::Int4);
        let back = q.dequantize();
        let bound = max_roundtrip_error(0.7, BitWidth::Int4) + 1e-6;
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_packs_two_per_byte() {
        let xs = vec![1.0; 8];
        let q = QuantVec::quantize(&xs, BitWidth::Int4);
        assert_eq!(q.storage_bytes(), 4 + 4);
        let q8 = QuantVec::quantize(&xs, BitWidth::Int8);
        assert_eq!(q8.storage_bytes(), 8 + 4);
    }

    #[test]
    fn odd_length_int4_roundtrips() {
        let xs = vec![0.3, -0.6, 0.9];
        let q = QuantVec::quantize(&xs, BitWidth::Int4);
        assert_eq!(q.dequantize().len(), 3);
        assert!(q.level(2) > 0);
    }

    #[test]
    fn negative_levels_sign_extend() {
        let xs = vec![-1.0, 1.0];
        let q = QuantVec::quantize(&xs, BitWidth::Int4);
        assert_eq!(q.level(0), -7);
        assert_eq!(q.level(1), 7);
    }

    #[test]
    fn quantized_dot_close_to_exact() {
        let xs: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 13) as f32 - 6.0) / 6.0)
            .collect();
        let query: Vec<f32> = (0..64).map(|i| ((i * 17 % 7) as f32 - 3.0) / 3.0).collect();
        let exact: f32 = xs.iter().zip(&query).map(|(a, b)| a * b).sum();
        let q = QuantVec::quantize(&xs, BitWidth::Int8);
        assert!((q.dot(&query) - exact).abs() < 0.15, "{}", q.dot(&query));
    }

    #[test]
    fn round_half_away_is_f32_round() {
        // Every float within 4 ulps of each half and whole number the
        // levels can round from, and a stride through the rest — both
        // signs of each.
        let mut cases = vec![f32::NAN, f32::INFINITY, 1e30, 0.0];
        for half_steps in 1u32..=300 {
            let centre = (half_steps as f32 * 0.5).to_bits();
            cases.extend((centre - 4..=centre + 4).map(f32::from_bits));
        }
        cases.extend((0..1 << 16).map(|i| i as f32 * 0.004_123));
        for x in cases.into_iter().flat_map(|x| [x, -x]) {
            assert_eq!(round_half_away(x), x.round() as i32, "{x:e}");
        }
    }

    #[test]
    fn zero_vector_quantizes_to_zero() {
        let q = QuantVec::quantize(&[0.0; 5], BitWidth::Int4);
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
        assert_eq!(q.dot(&[1.0; 5]), 0.0);
    }
}
