//! Paged KV layout and page metadata vectors (Quest's preprocessing).
//!
//! Quest (Tang et al., 2024) partitions the KV cache into fixed-size pages
//! and represents each page by the element-wise minimum and maximum of its
//! key vectors. At retrieval time an upper bound of the page's attention
//! score is computed from the query sign pattern against those two
//! vectors; the top pages are loaded wholesale.

use spec_tensor::Matrix;

/// Page metadata over a key matrix.
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: usize,
    /// Per page: element-wise max of member keys.
    max_vec: Matrix,
    /// Per page: element-wise min of member keys.
    min_vec: Matrix,
    len: usize,
}

impl PageTable {
    /// Builds the table over `keys` (`seq x dim`).
    ///
    /// Traverses the row-major key matrix **row-outer** — each member
    /// key is streamed once, in memory order, folded channel-wise into
    /// the page's min/max rows — instead of the column-outer sweep
    /// retained as [`build_reference`](Self::build_reference), which
    /// strides `dim` floats between consecutive reads and re-walks the
    /// page once per channel. Per `(page, channel)` slot the fold still
    /// visits member rows in the same ascending order from ±∞, so the
    /// result is bit-identical (it is also the exact fold
    /// [`extend`](Self::extend) continues from).
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub fn build(keys: &Matrix, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let n = keys.rows();
        let dim = keys.cols();
        let pages = n.div_ceil(page_size);
        let mut max_vec = Matrix::zeros(pages, dim);
        let mut min_vec = Matrix::zeros(pages, dim);
        for p in 0..pages {
            let start = p * page_size;
            let end = ((p + 1) * page_size).min(n);
            max_vec.row_mut(p).fill(f32::NEG_INFINITY);
            min_vec.row_mut(p).fill(f32::INFINITY);
            for r in start..end {
                let key = keys.row(r);
                for (m, &v) in max_vec.row_mut(p).iter_mut().zip(key) {
                    *m = m.max(v);
                }
                for (m, &v) in min_vec.row_mut(p).iter_mut().zip(key) {
                    *m = m.min(v);
                }
            }
        }
        Self {
            page_size,
            max_vec,
            min_vec,
            len: n,
        }
    }

    /// The original column-outer build, retained as the pinning
    /// reference for [`build`](Self::build) (and its `kernels` bench
    /// baseline).
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub fn build_reference(keys: &Matrix, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let n = keys.rows();
        let dim = keys.cols();
        let pages = n.div_ceil(page_size);
        let mut max_vec = Matrix::zeros(pages, dim);
        let mut min_vec = Matrix::zeros(pages, dim);
        for p in 0..pages {
            let start = p * page_size;
            let end = ((p + 1) * page_size).min(n);
            for c in 0..dim {
                let mut mx = f32::NEG_INFINITY;
                let mut mn = f32::INFINITY;
                for r in start..end {
                    let v = keys.get(r, c);
                    mx = mx.max(v);
                    mn = mn.min(v);
                }
                max_vec.set(p, c, mx);
                min_vec.set(p, c, mn);
            }
        }
        Self {
            page_size,
            max_vec,
            min_vec,
            len: n,
        }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.max_vec.rows()
    }

    /// Tokens per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tokens are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Token range of page `p` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn page_range(&self, p: usize) -> std::ops::Range<usize> {
        assert!(p < self.num_pages(), "page index out of range");
        let start = p * self.page_size;
        start..((p + 1) * self.page_size).min(self.len)
    }

    /// Appends `new_keys` (rows for tokens following the covered range),
    /// updating the last partial page's min/max in place and opening new
    /// pages as needed — instead of rebuilding the whole table.
    ///
    /// Bit-identical to `PageTable::build` over the concatenated keys:
    /// `build` folds each channel's min/max over member rows in ascending
    /// order from ±∞, and `extend` continues that fold from the stored
    /// partial result. To start an empty extendable table, build over a
    /// `0 x dim` matrix so the key dimension is known.
    ///
    /// # Panics
    ///
    /// Panics if `new_keys.cols()` differs from the table's key dimension.
    pub fn extend(&mut self, new_keys: &Matrix) {
        if new_keys.rows() == 0 {
            return;
        }
        let dim = self.max_vec.cols();
        assert_eq!(new_keys.cols(), dim, "key dim mismatch");
        for r in 0..new_keys.rows() {
            let page = self.len / self.page_size;
            if page == self.max_vec.rows() {
                self.max_vec.push_row(&vec![f32::NEG_INFINITY; dim]);
                self.min_vec.push_row(&vec![f32::INFINITY; dim]);
            }
            let key = new_keys.row(r);
            for (m, &v) in self.max_vec.row_mut(page).iter_mut().zip(key) {
                *m = m.max(v);
            }
            for (m, &v) in self.min_vec.row_mut(page).iter_mut().zip(key) {
                *m = m.min(v);
            }
            self.len += 1;
        }
    }

    /// Quest's upper-bound importance score of a page for a query:
    /// for each channel take `max(q_c * max_c, q_c * min_c)` and sum.
    /// This upper-bounds `q · k` for every key `k` in the page.
    ///
    /// Dispatches through the `spec_tensor::dispatch` registry (one
    /// shared body per tier, `SPEC_SIMD`-overridable): the element-wise
    /// `(q*hi).max(q*lo)` phase fills a small buffer (vectorizable, each
    /// element independent), and the final reduction walks that buffer in
    /// ascending channel order — the exact addition sequence of
    /// [`page_score_reference`](Self::page_score_reference), so every
    /// tier produces the same bits.
    pub fn page_score(&self, p: usize, query: &[f32]) -> f32 {
        assert_eq!(query.len(), self.max_vec.cols(), "query dim mismatch");
        page_score_kernel::dispatch(
            spec_tensor::dispatch::active_tier(),
            query,
            self.max_vec.row(p),
            self.min_vec.row(p),
        )
    }

    /// The reference page score: the plain sequential fold the table
    /// shipped with. [`page_score`](Self::page_score) is pinned
    /// bit-for-bit against this in the property tests.
    pub fn page_score_reference(&self, p: usize, query: &[f32]) -> f32 {
        assert_eq!(query.len(), self.max_vec.cols(), "query dim mismatch");
        let mx = self.max_vec.row(p);
        let mn = self.min_vec.row(p);
        query
            .iter()
            .zip(mx.iter().zip(mn))
            .map(|(q, (hi, lo))| (q * hi).max(q * lo))
            .sum()
    }

    /// Scores every page for a query.
    pub fn scores(&self, query: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.scores_into(query, &mut out);
        out
    }

    /// As [`scores`](Self::scores), into a reused buffer (cleared first).
    /// The dispatch tier is resolved once for the whole sweep.
    pub fn scores_into(&self, query: &[f32], out: &mut Vec<f32>) {
        assert_eq!(query.len(), self.max_vec.cols(), "query dim mismatch");
        out.clear();
        out.reserve(self.num_pages());
        let tier = spec_tensor::dispatch::active_tier();
        for p in 0..self.num_pages() {
            out.push(page_score_kernel::dispatch(
                tier,
                query,
                self.max_vec.row(p),
                self.min_vec.row(p),
            ));
        }
    }

    /// Scores every page with the reference kernel (for property pinning).
    pub fn scores_reference(&self, query: &[f32]) -> Vec<f32> {
        (0..self.num_pages())
            .map(|p| self.page_score_reference(p, query))
            .collect()
    }

    /// Expands a page selection into token positions, ascending.
    pub fn expand_pages(&self, pages: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = pages.iter().flat_map(|&p| self.page_range(p)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Channels processed per elementwise block. One block's contributions
/// are materialized before the sequential reduction consumes them, so
/// the multiply/max phase vectorizes while the addition order stays
/// exactly that of the reference fold.
const SCORE_CHUNK: usize = 64;

spec_tensor::dispatch_kernel! {
    /// Quest's page upper bound for one `(page, query)` pair: stages
    /// `(q*hi).max(q*lo)` per chunk, then folds the chunk in ascending
    /// channel order — the reference's exact addition sequence.
    page_score_kernel(query: &[f32], mx: &[f32], mn: &[f32]) -> f32 {
        let mut buf = [0.0f32; SCORE_CHUNK];
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < query.len() {
            let c = SCORE_CHUNK.min(query.len() - i);
            for (((b, q), hi), lo) in buf[..c]
                .iter_mut()
                .zip(&query[i..i + c])
                .zip(&mx[i..i + c])
                .zip(&mn[i..i + c])
            {
                *b = (q * hi).max(q * lo);
            }
            for &v in &buf[..c] {
                acc += v;
            }
            i += c;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, -1.0],
            &[2.0, 0.0],
            &[-1.0, 3.0],
            &[0.0, 1.0],
            &[5.0, 5.0],
        ])
    }

    #[test]
    fn builds_correct_page_count() {
        let t = PageTable::build(&keys(), 2);
        assert_eq!(t.num_pages(), 3);
        assert_eq!(t.page_range(2), 4..5);
    }

    #[test]
    fn minmax_vectors_bound_members() {
        let k = keys();
        let t = PageTable::build(&k, 2);
        // Page 0 covers rows 0..2: max = [2,0], min = [1,-1].
        assert_eq!(t.max_vec.row(0), &[2.0, 0.0]);
        assert_eq!(t.min_vec.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn page_score_upper_bounds_member_dots() {
        let k = keys();
        let t = PageTable::build(&k, 2);
        let q = [0.5, -2.0];
        for p in 0..t.num_pages() {
            let bound = t.page_score(p, &q);
            for r in t.page_range(p) {
                let dot: f32 = q.iter().zip(k.row(r)).map(|(a, b)| a * b).sum();
                assert!(bound >= dot - 1e-6, "page {p} row {r}: {bound} < {dot}");
            }
        }
    }

    #[test]
    fn expand_pages_returns_sorted_unique_positions() {
        let t = PageTable::build(&keys(), 2);
        let pos = t.expand_pages(&[2, 0]);
        assert_eq!(pos, vec![0, 1, 4]);
    }

    #[test]
    fn single_page_covers_everything() {
        let t = PageTable::build(&keys(), 100);
        assert_eq!(t.num_pages(), 1);
        assert_eq!(t.expand_pages(&[0]), vec![0, 1, 2, 3, 4]);
    }

    fn assert_tables_bit_equal(a: &PageTable, b: &PageTable) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_pages(), b.num_pages());
        for (x, y) in a
            .max_vec
            .as_slice()
            .iter()
            .zip(b.max_vec.as_slice())
            .chain(a.min_vec.as_slice().iter().zip(b.min_vec.as_slice()))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn extend_matches_full_rebuild() {
        let k = keys();
        for split in 0..=k.rows() {
            let prefix =
                Matrix::from_vec(split, k.cols(), k.as_slice()[..split * k.cols()].to_vec());
            let suffix = Matrix::from_vec(
                k.rows() - split,
                k.cols(),
                k.as_slice()[split * k.cols()..].to_vec(),
            );
            let mut t = PageTable::build(&prefix, 2);
            t.extend(&suffix);
            assert_tables_bit_equal(&t, &PageTable::build(&k, 2));
        }
    }

    #[test]
    fn extend_from_empty_table_matches_build() {
        let k = keys();
        let mut t = PageTable::build(&Matrix::zeros(0, k.cols()), 2);
        for r in 0..k.rows() {
            t.extend(&Matrix::from_rows(&[k.row(r)]));
        }
        assert_tables_bit_equal(&t, &PageTable::build(&k, 2));
        assert_eq!(t.page_range(2), 4..5);
    }

    #[test]
    fn extend_of_nothing_is_a_no_op() {
        let mut t = PageTable::build(&keys(), 2);
        t.extend(&Matrix::zeros(0, 2));
        assert_tables_bit_equal(&t, &PageTable::build(&keys(), 2));
    }

    #[test]
    fn row_outer_build_matches_reference_bits() {
        let k = keys();
        for page_size in [1, 2, 3, 5, 100] {
            assert_tables_bit_equal(
                &PageTable::build(&k, page_size),
                &PageTable::build_reference(&k, page_size),
            );
        }
        let empty = Matrix::zeros(0, 3);
        assert_tables_bit_equal(
            &PageTable::build(&empty, 4),
            &PageTable::build_reference(&empty, 4),
        );
    }

    #[test]
    fn page_score_matches_reference_bits() {
        let t = PageTable::build(&keys(), 2);
        let queries = [[0.5f32, -2.0], [1.0, 1.0], [-3.25, 0.0]];
        for q in &queries {
            for p in 0..t.num_pages() {
                assert_eq!(
                    t.page_score(p, q).to_bits(),
                    t.page_score_reference(p, q).to_bits()
                );
            }
            assert_eq!(t.scores(q), t.scores_reference(q));
        }
    }

    #[test]
    fn scores_into_reuses_buffer() {
        let t = PageTable::build(&keys(), 2);
        let mut buf = vec![9.0; 17];
        t.scores_into(&[1.0, -1.0], &mut buf);
        assert_eq!(buf, t.scores(&[1.0, -1.0]));
    }
}
