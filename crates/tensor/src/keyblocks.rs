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
//! dispatch tier returns that function's bits. The retrieval head scores
//! its whole cache this way ([`KeyBlocks::dots_into`]); the model's
//! prefill scores position ranges of a per-block copy of its keys
//! ([`KeyBlocks::dots_ranges_into`]) — one kernel body for both; and the
//! decode step, whose keys stay row-major, stages the rows a selection
//! lists into one such block at a time and runs the same inner loop over
//! it (`ops::indexed_dots`).

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

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

crate::dispatch_kernel! {
    /// `out = query · key_p` for `p` over `ranges`, back to back. A block's
    /// 64 dots are accumulated together ([`block_acc`]) and kept until a
    /// position of another block is wanted.
    block_dots(query: &[f32], blocks: &[f32], ranges: &[Range<usize>], out: &mut [f32]) {
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
            assert_eq!(blocks.len(), p + 1);
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
        assert!(blocks.is_empty());
        blocks.push(&[1.0, 2.0, 3.0]);
        blocks.dots_into(&query, &mut all);
        assert_eq!(all, [dot(&query, &[1.0, 2.0, 3.0])]);
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
