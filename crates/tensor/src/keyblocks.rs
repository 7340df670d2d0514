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
//! dispatch tier returns that function's bits.

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

    /// Fills `out` with `query · key_p` for every cached position `p`,
    /// bit-identical to [`matrix::dot`](crate::matrix::dot) per position
    /// at every dispatch tier. `out` is cleared first; its capacity is
    /// reused.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn dots_into(&self, query: &[f32], out: &mut Vec<f32>) {
        assert_eq!(query.len(), self.dim, "query/key dim mismatch");
        out.clear();
        out.resize(self.len, 0.0);
        block_dots::dispatch(crate::dispatch::active_tier(), query, &self.data, out);
    }
}

crate::dispatch_kernel! {
    /// `out[p] = query · key_p` over whole blocks; `out`'s length says how
    /// many lanes of the last block are positions. The accumulators start
    /// at `-0.0` and take the products in ascending `d`, as `Iterator::sum`
    /// does in `matrix::dot`.
    block_dots(query: &[f32], blocks: &[f32], out: &mut [f32]) {
        let block_len = query.len() * KEY_BLOCK;
        for (block, out) in blocks.chunks_exact(block_len).zip(out.chunks_mut(KEY_BLOCK)) {
            let mut acc = [-0.0f32; KEY_BLOCK];
            for (&q, lanes) in query.iter().zip(block.chunks_exact(KEY_BLOCK)) {
                for (a, &k) in acc.iter_mut().zip(lanes) {
                    *a += q * k;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
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
    #[should_panic(expected = "key length mismatch")]
    fn wrong_key_length_rejected() {
        KeyBlocks::new(4).push(&[1.0; 3]);
    }
}
