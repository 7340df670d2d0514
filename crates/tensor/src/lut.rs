//! LUT-quantized scoring: per-query lookup tables instead of arithmetic.
//!
//! pLUTo-style kernels (see PAPERS.md) for the quantized scoring hot
//! path. An int4 level can only take 16 values, so for a fixed query the
//! product `query[i] * level` can only take 16 values *per element*:
//! precompute them once into a [`QueryLut`] — a 16-entry table per query
//! element — and scoring a key degrades to nibble-indexed gathers plus
//! the same ascending-index reduction the scalar reference performs. No
//! sign-extension, no int→float conversion, no multiply per element.
//!
//! # Cost model
//!
//! Building the table costs `16 * dim` multiplies; scoring one key saves
//! roughly one unpack+convert+multiply per element. The table therefore
//! amortizes once a query scores on the order of **16 keys or more** —
//! and the retrieval selectors score thousands of keys per query
//! (ShadowKV scores the whole context), so the build cost vanishes.
//! [`QueryLut::scores_into`] is the batched entry point.
//!
//! # Determinism contract
//!
//! Table entries are the *same* f32 products the reference computes
//! (`query[i] * level as f32` — f32 multiplication is deterministic), the
//! fold consumes them in the same ascending element order, and the
//! per-vector scale multiplies the folded sum exactly as the reference
//! does. Every kernel here is therefore bit-identical to
//! [`QuantVec::dot_reference`] at every dispatch tier, pinned by the
//! `simd_dispatch` property suite.

use crate::quant::{BitWidth, QuantVec};

/// The signed value each int4 nibble encoding decodes to (two's
/// complement, matching `QuantVec::level`'s sign extension).
const NIBBLE_VALUES: [f32; 16] = [
    0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -8.0, -7.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0,
];

/// Elements staged per dispatch chunk (even: int4 bytes never straddle).
const LUT_CHUNK: usize = 64;

/// Keys scored together by the blocked batch kernel. A single key's
/// fold is one sequential f32 addition chain — latency-bound at the
/// add's pipeline depth, no matter how wide the registers are. Eight
/// keys give eight *independent* chains (each still folding its own
/// elements in ascending order, so per-key bits never change), which
/// the out-of-order core and the wide tiers overlap freely.
const LUT_LANES: usize = 8;

crate::dispatch_kernel! {
    /// Gathers one key's staged products out of the query table — low
    /// then high nibble per packed byte — and folds them in ascending
    /// element order. Returns the unscaled sum; `len` is the element
    /// count (the last byte holds only a low nibble when odd).
    lut_gather_i4(table: &[f32], packed: &[u8], len: usize) -> f32 {
        let mut buf = [0.0f32; LUT_CHUNK];
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < len {
            let c = LUT_CHUNK.min(len - i);
            let pairs = c / 2;
            for (j, &byte) in packed[i / 2..i / 2 + pairs].iter().enumerate() {
                let e = (i + 2 * j) * 16;
                buf[2 * j] = table[e + (byte & 0x0F) as usize];
                buf[2 * j + 1] = table[e + 16 + (byte >> 4) as usize];
            }
            if c % 2 == 1 {
                // Odd tail: the final element is the low nibble of the
                // last byte; its high nibble is padding and has no table
                // row, so it is never touched.
                let byte = packed[(i + c) / 2];
                buf[c - 1] = table[(i + c - 1) * 16 + (byte & 0x0F) as usize];
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
    /// The blocked batch gather: scores [`LUT_LANES`] keys against one
    /// query table simultaneously. Lane `k` receives exactly the adds
    /// `lut_gather_i4` would give key `k` — low then high nibble per
    /// byte, ascending element order — so results are bit-identical to
    /// the single-key kernel; only the chains interleave across lanes.
    lut_gather_i4_block(
        table: &[f32],
        packed: &[&[u8]; LUT_LANES],
        len: usize,
        acc: &mut [f32; LUT_LANES],
    ) {
        for a in acc.iter_mut() {
            *a = 0.0;
        }
        let pairs = len / 2;
        for i in 0..pairs {
            let e = 2 * i * 16;
            for (a, p) in acc.iter_mut().zip(packed) {
                *a += table[e + (p[i] & 0x0F) as usize];
            }
            for (a, p) in acc.iter_mut().zip(packed) {
                *a += table[e + 16 + (p[i] >> 4) as usize];
            }
        }
        if len % 2 == 1 {
            let e = (len - 1) * 16;
            for (a, p) in acc.iter_mut().zip(packed) {
                *a += table[e + (p[pairs] & 0x0F) as usize];
            }
        }
    }
}

/// A per-query int4 lookup table: entry `v` of row `i` holds
/// `query[i] * decode(v)` for each of the 16 nibble encodings.
///
/// Build (or [`rebuild`](Self::rebuild), allocation-free once warm) per
/// query, then score every int4 [`QuantVec`] against it — see the module
/// docs for when the build cost amortizes.
#[derive(Debug, Clone, Default)]
pub struct QueryLut {
    /// `len x 16` row-major.
    table: Vec<f32>,
    len: usize,
}

impl QueryLut {
    /// Builds the table for `query`.
    pub fn build(query: &[f32]) -> Self {
        let mut lut = Self::default();
        lut.rebuild(query);
        lut
    }

    /// Rebuilds the table for a new query, reusing the allocation.
    pub fn rebuild(&mut self, query: &[f32]) {
        self.len = query.len();
        self.table.clear();
        self.table.reserve(query.len() * 16);
        for &q in query {
            self.table.extend(NIBBLE_VALUES.iter().map(|&lvl| q * lvl));
        }
    }

    /// LUT dot of one int4 key against the table's query: gathers
    /// instead of multiplies, bit-identical to
    /// `key.dot_reference(query)`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not int4 or its length differs from the
    /// table's.
    pub fn dot_i4(&self, key: &QuantVec) -> f32 {
        self.dot_i4_at(crate::dispatch::active_tier(), key)
    }

    /// Scores many int4 keys against the table's query into a reused
    /// buffer (cleared first). The dispatch tier is resolved once for
    /// the whole batch, and keys are scored `LUT_LANES` at a time so
    /// their (per-key sequential, mutually independent) fold chains
    /// overlap; this is the hot entry point for the retrieval selectors.
    ///
    /// # Panics
    ///
    /// Panics if any key is not int4 or disagrees on length.
    pub fn scores_into(&self, keys: &[QuantVec], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(keys.len());
        let tier = crate::dispatch::active_tier();
        let mut blocks = keys.chunks_exact(LUT_LANES);
        for block in &mut blocks {
            let packed: [&[u8]; LUT_LANES] = std::array::from_fn(|k| {
                let key = &block[k];
                assert_eq!(key.width(), BitWidth::Int4, "QueryLut scores int4 keys");
                assert_eq!(key.len(), self.len, "lut dot length mismatch");
                key.packed()
            });
            let mut acc = [0.0f32; LUT_LANES];
            lut_gather_i4_block::dispatch(tier, &self.table, &packed, self.len, &mut acc);
            out.extend(acc.iter().zip(block).map(|(a, key)| a * key.scale()));
        }
        for key in blocks.remainder() {
            out.push(self.dot_i4_at(tier, key));
        }
    }

    fn dot_i4_at(&self, tier: crate::dispatch::SimdTier, key: &QuantVec) -> f32 {
        assert_eq!(key.width(), BitWidth::Int4, "QueryLut scores int4 keys");
        assert_eq!(key.len(), self.len, "lut dot length mismatch");
        lut_gather_i4::dispatch(tier, &self.table, key.packed(), self.len) * key.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 2000) as f32 / 1000.0)
                    - 1.0
            })
            .collect()
    }

    #[test]
    fn nibble_values_match_level_decoding() {
        // Encode every level the quantizer can produce and check the
        // table decodes its nibble exactly as `level()` does.
        for lvl in -8i8..=7 {
            let nib = (lvl as u8) & 0x0F;
            assert_eq!(NIBBLE_VALUES[nib as usize], lvl as f32, "nibble {nib}");
        }
    }

    #[test]
    fn lut_dot_matches_reference_bits_across_lengths() {
        for n in [0usize, 1, 2, 3, 7, 16, 63, 64, 65, 128, 129] {
            let xs = synth(n, 7);
            let query = synth(n, 1312);
            let key = QuantVec::quantize(&xs, BitWidth::Int4);
            let lut = QueryLut::build(&query);
            assert_eq!(
                lut.dot_i4(&key).to_bits(),
                key.dot_reference(&query).to_bits(),
                "len {n}"
            );
        }
    }

    #[test]
    fn batched_scores_match_per_key_dots() {
        let query = synth(33, 4);
        let keys: Vec<QuantVec> = (0..40)
            .map(|k| QuantVec::quantize(&synth(33, 100 + k), BitWidth::Int4))
            .collect();
        let lut = QueryLut::build(&query);
        let mut out = vec![1.0; 3];
        lut.scores_into(&keys, &mut out);
        let want: Vec<f32> = keys.iter().map(|k| k.dot_reference(&query)).collect();
        assert_eq!(out.len(), want.len());
        for (a, b) in out.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn rebuild_reuses_and_resizes() {
        let mut lut = QueryLut::default();
        lut.rebuild(&synth(16, 1));
        let key = QuantVec::quantize(&synth(5, 2), BitWidth::Int4);
        lut.rebuild(&synth(5, 3));
        let q = synth(5, 3);
        assert_eq!(lut.dot_i4(&key).to_bits(), key.dot_reference(&q).to_bits());
    }
}
