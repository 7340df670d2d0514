//! A key cache laid out for scoring one query against every position.
//!
//! A row-major cache (`positions x dim`) makes `q · k_p` a horizontal
//! reduction per position: `dim` dependent adds, one position at a time.
//! [`KeyBlocks`] stores the same keys in blocks of [`KEY_BLOCK`]
//! positions, **dimension-major inside a block** (the SELL-C-σ layout of
//! sparse matrix-vector kernels: a chunk is stored column-major so one
//! SIMD lane owns one row). The scoring loop then runs its lanes *across
//! positions* — `acc[p] += q[d] * k[d][p]` for `d` ascending — so no lane
//! ever reduces horizontally, and each position still receives exactly
//! the addition sequence of [`matrix::dot`](crate::matrix::dot): every
//! dispatch tier returns that function's bits. The model's prefill scores
//! position ranges of a per-block copy of its keys this way
//! (`ops::attend_block`, over [`KeyBlocks::dots_ranges_into`]'s loop), and
//! the decode step, whose keys stay row-major, stages the rows a selection
//! lists into one such block at a time and runs the same inner loop over
//! it (`ops::indexed_dots`).
//!
//! The retrieval head, which sweeps *every* cached key of every head
//! each step and only ranks what it scores, keeps its keys in the same
//! layout at a quarter of the bytes: [`QuantKeyBlocks`], `i8` levels and
//! one `f32` scale per position.

use crate::quant::{quantize_levels, BitWidth};
use std::ops::Range;

/// Positions per block. 64 lanes of `f32` are four AVX-512 / eight AVX2
/// accumulators: enough independent add chains to hide the add latency,
/// few enough to stay in registers.
pub const KEY_BLOCK: usize = 64;

/// An append-only key cache in position blocks (see the module docs).
#[derive(Debug, Clone)]
pub struct KeyBlocks {
    dim: usize,
    len: usize,
    /// `ceil(len / KEY_BLOCK)` blocks of `dim * KEY_BLOCK` floats; key
    /// `p`'s element `d` is at `(p / B) * dim * B + d * B + p % B`. The
    /// last block's unused lanes are zero.
    data: Vec<f32>,
}

impl KeyBlocks {
    /// An empty cache of `dim`-element keys.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "key dimension must be positive");
        Self {
            dim,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Appends one key as the next position.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != dim`.
    pub fn push(&mut self, key: &[f32]) {
        assert_eq!(key.len(), self.dim, "key length mismatch");
        let lane = self.len % KEY_BLOCK;
        if lane == 0 {
            self.data
                .resize(self.data.len() + self.dim * KEY_BLOCK, 0.0);
        }
        let block = self.data.len() - self.dim * KEY_BLOCK;
        for (d, &k) in key.iter().enumerate() {
            self.data[block + d * KEY_BLOCK + lane] = k;
        }
        self.len += 1;
    }

    /// Forgets every position; the allocation is kept.
    pub fn clear(&mut self) {
        self.len = 0;
        self.data.clear();
    }

    /// The blocks, back to back (the layout of the `data` field).
    pub(crate) fn blocks(&self) -> &[f32] {
        &self.data
    }

    /// Fills `out` with `query · key_p` for every cached position `p`,
    /// bit-identical to [`matrix::dot`](crate::matrix::dot) per position
    /// at every dispatch tier. `out` is cleared first; its capacity is
    /// reused.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn dots_into(&self, query: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.len, 0.0);
        self.dots_ranges_into(query, std::slice::from_ref(&(0..self.len)), out);
    }

    /// [`dots_into`](Self::dots_into) for the positions in `ranges` only,
    /// back to back in `out` — the same bits. A block is scored whole,
    /// once, for every run of consecutive ranges that reach into it, so
    /// ascending ranges cost what the blocks they touch cost.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`, a range reaches past `len`, or
    /// `out` is not as long as the ranges together.
    pub fn dots_ranges_into(&self, query: &[f32], ranges: &[Range<usize>], out: &mut [f32]) {
        assert_eq!(query.len(), self.dim, "query/key dim mismatch");
        assert!(
            ranges.iter().all(|r| r.end <= self.len),
            "position range out of bounds"
        );
        let wanted: usize = ranges.iter().map(Range::len).sum();
        assert_eq!(out.len(), wanted, "output length mismatch");
        block_dots::dispatch(
            crate::dispatch::active_tier(),
            query,
            &self.data,
            ranges,
            out,
        );
    }
}

/// The dots of `query` with the [`KEY_BLOCK`] keys of one dimension-major
/// `block`, lanes across positions: each is accumulated from `-0.0` with
/// its products in ascending `d`, as `Iterator::sum` does in
/// `matrix::dot`. The inner loop of every kernel that scores a block —
/// [`block_dots`] over a stored cache, `ops::indexed_dots` over a tile
/// staged per call — so it is inlined into each tier's variant.
#[inline(always)]
pub(crate) fn block_acc(query: &[f32], block: &[f32]) -> [f32; KEY_BLOCK] {
    let mut acc = [-0.0f32; KEY_BLOCK];
    for (&q, lanes) in query.iter().zip(block.chunks_exact(KEY_BLOCK)) {
        for (a, &k) in acc.iter_mut().zip(lanes) {
            *a += q * k;
        }
    }
    acc
}

/// `out = query · key_p` for `p` over `ranges`, back to back, over the
/// dimension-major `blocks` of a [`KeyBlocks`]. A block's 64 dots are
/// accumulated together ([`block_acc`]) and kept until a position of
/// another block is wanted. Inlined into each tier's variant of the
/// kernels that score ranges: [`block_dots`] and the prefill's
/// `ops::attend_block`.
#[inline(always)]
pub(crate) fn ranged_dots(query: &[f32], blocks: &[f32], ranges: &[Range<usize>], out: &mut [f32]) {
    let block_len = query.len() * KEY_BLOCK;
    let mut acc = [-0.0f32; KEY_BLOCK];
    let mut held = usize::MAX;
    let mut out = out;
    for range in ranges {
        let mut p = range.start;
        while p < range.end {
            let block = p / KEY_BLOCK;
            if block != held {
                acc = block_acc(query, &blocks[block * block_len..][..block_len]);
                held = block;
            }
            let n = range.end.min((block + 1) * KEY_BLOCK) - p;
            let (dots, rest) = std::mem::take(&mut out).split_at_mut(n);
            dots.copy_from_slice(&acc[p % KEY_BLOCK..][..n]);
            out = rest;
            p += n;
        }
    }
}

crate::dispatch_kernel! {
    /// The body of [`KeyBlocks::dots_ranges_into`]: [`ranged_dots`].
    block_dots(query: &[f32], blocks: &[f32], ranges: &[Range<usize>], out: &mut [f32]) {
        ranged_dots(query, blocks, ranges, out);
    }
}

/// An append-only **int8** key cache in position blocks: the layout of
/// [`KeyBlocks`] with each key quantized as it is pushed —
/// [`quantize_levels`]' absmax rule, one `f32` scale per position — so a
/// position costs `dim + 4` bytes instead of `4 * dim`.
///
/// The scale is per position, not per block or per cache: key norms
/// spread widely (a planted-evidence key is several times a filler
/// key's), a shared absmax would spend the small keys' levels on the
/// large ones' range, and the scale multiplies a finished dot — one
/// multiply a position, outside the accumulation.
///
/// A sweep streams a quarter of the f32 cache's bytes: the retrieval
/// head's eight caches at 4 K positions are 0.68 MB instead of 2.16 MB,
/// which is what keeps them from cycling the decode step's weights and
/// K/V rows out of a 2 MB L2.
#[derive(Debug, Clone)]
pub struct QuantKeyBlocks {
    dim: usize,
    len: usize,
    /// `ceil(len / KEY_BLOCK)` blocks of `dim * KEY_BLOCK` levels; key
    /// `p`'s level `d` is at `(p / B) * dim * B + d * B + p % B`. The
    /// last block's unused lanes are zero.
    levels: Vec<i8>,
    /// Key `p`'s scale at `p`, padded with zeros to whole blocks.
    scales: Vec<f32>,
}

impl QuantKeyBlocks {
    /// An empty cache of `dim`-element keys.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "key dimension must be positive");
        Self {
            dim,
            len: 0,
            levels: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Quantizes one key and appends it as the next position.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != dim`.
    pub fn push(&mut self, key: &[f32]) {
        assert_eq!(key.len(), self.dim, "key length mismatch");
        let lane = self.len % KEY_BLOCK;
        if lane == 0 {
            self.levels
                .resize(self.levels.len() + self.dim * KEY_BLOCK, 0);
            self.scales.resize(self.scales.len() + KEY_BLOCK, 0.0);
        }
        let block = &mut self.levels[self.len / KEY_BLOCK * self.dim * KEY_BLOCK..];
        self.scales[self.len] = quantize_levels(key, BitWidth::Int8, |d, level| {
            block[d * KEY_BLOCK + lane] = level;
        });
        self.len += 1;
    }

    /// Forgets every position; the allocation is kept.
    pub fn clear(&mut self) {
        self.len = 0;
        self.levels.clear();
        self.scales.clear();
    }

    /// Position `pos`'s scale: its key is `scale * level` per element, to
    /// within half a scale.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn scale(&self, pos: usize) -> f32 {
        assert!(pos < self.len, "position out of bounds");
        self.scales[pos]
    }

    /// Element `d` of position `pos`'s key, as its level.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len` or `d >= dim`.
    pub fn level(&self, pos: usize, d: usize) -> i8 {
        assert!(pos < self.len && d < self.dim, "key element out of bounds");
        self.levels[pos / KEY_BLOCK * self.dim * KEY_BLOCK + d * KEY_BLOCK + pos % KEY_BLOCK]
    }

    /// Fills `out` with `query · key_p` over the quantized keys, for every
    /// cached position `p`: `scale_p * Σ_d query[d] * level_p[d]`, the sum
    /// taken from `-0.0` in ascending `d` — the same bits at every
    /// dispatch tier. `out` is cleared first; its capacity is reused.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn dots_into(&self, query: &[f32], out: &mut Vec<f32>) {
        assert_eq!(query.len(), self.dim, "query/key dim mismatch");
        out.clear();
        out.resize(self.len, 0.0);
        quant_block_dots::dispatch(
            crate::dispatch::active_tier(),
            query,
            &self.levels,
            &self.scales,
            out,
        );
    }
}

crate::dispatch_kernel! {
    /// `out[p] = scales[p] * (query · levels_p)` block by block, lanes
    /// across positions exactly as [`block_acc`]'s: each position's sum
    /// starts at `-0.0` and takes its products in ascending `d`, a level
    /// widened to `f32` on the way in, and is scaled once at the end. The
    /// last block's output may be short; its unused lanes are computed
    /// and dropped.
    quant_block_dots(query: &[f32], levels: &[i8], scales: &[f32], out: &mut [f32]) {
        let blocks = levels.chunks_exact(query.len() * KEY_BLOCK);
        let per_block = blocks.zip(scales.chunks_exact(KEY_BLOCK)).zip(out.chunks_mut(KEY_BLOCK));
        for ((block, scales), out) in per_block {
            let mut acc = [-0.0f32; KEY_BLOCK];
            for (&q, lanes) in query.iter().zip(block.chunks_exact(KEY_BLOCK)) {
                for (a, &level) in acc.iter_mut().zip(lanes) {
                    *a += q * f32::from(level);
                }
            }
            for ((o, a), s) in out.iter_mut().zip(&acc).zip(scales) {
                *o = a * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    #[test]
    fn dots_match_row_major_dot() {
        let dim = 5;
        let keys: Vec<Vec<f32>> = (0..KEY_BLOCK + 3)
            .map(|p| {
                (0..dim)
                    .map(|d| ((p * 7 + d * 3) as f32 * 0.37).sin())
                    .collect()
            })
            .collect();
        let query: Vec<f32> = (0..dim).map(|d| (d as f32 * 1.3).cos()).collect();
        let mut blocks = KeyBlocks::new(dim);
        let mut out = vec![f32::NAN; 2];
        blocks.dots_into(&query, &mut out);
        assert!(out.is_empty());
        for (p, key) in keys.iter().enumerate() {
            blocks.push(key);
            assert_eq!(blocks.len, p + 1);
        }
        blocks.dots_into(&query, &mut out);
        let want: Vec<f32> = keys.iter().map(|k| dot(&query, k)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn ranges_are_slices_of_the_full_sweep_and_clear_forgets() {
        let dim = 3;
        let mut blocks = KeyBlocks::new(dim);
        for p in 0..2 * KEY_BLOCK + 9 {
            blocks.push(&[p as f32, 1.0, -(p as f32) * 0.5]);
        }
        let query = [0.25, -2.0, 1.5];
        let mut all = Vec::new();
        blocks.dots_into(&query, &mut all);
        for range in [0..0, 5..5, 0..1, 3..70, 64..128, 63..137, 130..137] {
            let mut out = vec![f32::NAN; range.len()];
            blocks.dots_ranges_into(&query, std::slice::from_ref(&range), &mut out);
            assert_eq!(out, all[range]);
        }
        // Two ranges sharing a block, back to back in the output.
        let mut out = vec![f32::NAN; 4 + 97];
        blocks.dots_ranges_into(&query, &[0..4, 30..127], &mut out);
        assert_eq!(out[..4], all[..4]);
        assert_eq!(out[4..], all[30..127]);
        blocks.clear();
        assert_eq!(blocks.len, 0);
        blocks.push(&[1.0, 2.0, 3.0]);
        blocks.dots_into(&query, &mut all);
        assert_eq!(all, [dot(&query, &[1.0, 2.0, 3.0])]);
    }

    #[test]
    fn quantized_push_follows_the_shared_rule_and_clear_keeps_the_allocation() {
        use crate::quant::QuantVec;
        let dim = 4;
        let mut blocks = QuantKeyBlocks::new(dim);
        let keys: Vec<[f32; 4]> = (0..KEY_BLOCK + 5)
            .map(|p| [p as f32 * 0.25, -1.5, 0.0, (p as f32).sin()])
            .collect();
        for key in &keys {
            blocks.push(key);
        }
        let query = [0.5, -1.0, 3.0, 0.125];
        let mut out = Vec::new();
        blocks.dots_into(&query, &mut out);
        for (p, key) in keys.iter().enumerate() {
            let quantized = QuantVec::quantize(key, BitWidth::Int8);
            assert_eq!(blocks.scale(p), quantized.scale());
            assert!((0..dim).all(|d| blocks.level(p, d) == quantized.level(d)));
            assert!((out[p] - dot(&query, key)).abs() <= 4.5 * 0.5 * blocks.scale(p));
        }
        let capacity = (blocks.levels.capacity(), blocks.scales.capacity());
        blocks.clear();
        assert!(blocks.is_empty());
        assert_eq!(
            (blocks.levels.capacity(), blocks.scales.capacity()),
            capacity
        );
        blocks.push(&[0.0; 4]);
        blocks.dots_into(&query, &mut out);
        assert_eq!(out, [0.0]);
    }

    #[test]
    #[should_panic(expected = "position range out of bounds")]
    fn a_range_past_the_end_is_rejected() {
        let mut blocks = KeyBlocks::new(1);
        blocks.push(&[1.0]);
        blocks.dots_ranges_into(&[1.0], &[0..1, 1..2], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn wrong_key_length_rejected() {
        KeyBlocks::new(4).push(&[1.0; 3]);
    }
}
