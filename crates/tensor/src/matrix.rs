//! Dense row-major `f32` matrix.
//!
//! [`Matrix`] is the only tensor type in the workspace. Higher-rank tensors
//! (per-head attention states, batched activations) are represented as
//! collections of matrices by the callers, which keeps every kernel easy to
//! audit.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use spec_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix shape overflows usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the `(rows, cols)` shape pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns a new matrix containing only the rows whose indices appear in
    /// `indices`, in the given order. This is the `torch.gather`-style
    /// primitive used to materialize a sparse KV selection.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather index {src} out of bounds");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Appends a row to the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols` (unless the matrix is empty, in which
    /// case the row defines the column count).
    pub fn push_row(&mut self, row: &[f32]) {
        self.append(row, row.len(), 1);
    }

    /// Appends every row of `rows`, in order: [`push_row`](Self::push_row)
    /// for a block of rows at once.
    ///
    /// # Panics
    ///
    /// Panics if `rows.cols() != cols` (unless the matrix is empty, in
    /// which case `rows` defines the column count).
    pub fn push_rows(&mut self, rows: &Matrix) {
        self.append(&rows.data, rows.cols, rows.rows);
    }

    /// Appends, as rows, columns `cols` of every row of `rows`, in order:
    /// [`push_rows`](Self::push_rows) for one head's segment of a fused
    /// projection.
    ///
    /// # Panics
    ///
    /// Panics if `cols` reaches past `rows`' width or `cols.len()` is not
    /// this matrix's width (unless the matrix is empty, in which case the
    /// segment defines the column count).
    pub fn push_cols(&mut self, rows: &Matrix, cols: std::ops::Range<usize>) {
        assert!(cols.end <= rows.cols, "column range out of bounds");
        self.data.reserve(rows.rows * cols.len());
        for row in rows.iter_rows() {
            self.push_row(&row[cols.clone()]);
        }
    }

    /// Appends `rows` rows of `cols` elements, row-major in `data`.
    #[inline]
    /// Keeps the first `rows` rows and drops the rest, keeping the
    /// capacity: undoes [`push_row`](Self::push_row)s.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the row count.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows, "cannot truncate to more rows");
        self.data.truncate(rows * self.cols);
        self.rows = rows;
    }

    fn append(&mut self, data: &[f32], cols: usize, rows: usize) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = cols;
        }
        assert_eq!(cols, self.cols, "row length mismatch");
        self.data.extend_from_slice(data);
        self.rows += rows;
    }

    /// Matrix product `self * other`.
    ///
    /// Dispatches between a matrix-vector fast path, the reference
    /// triple loop (tiny shapes), and the cache-blocked kernel in
    /// [`gemm`](crate::gemm) — all of which accumulate every output
    /// element over `k` in ascending order, so the result is bit-for-bit
    /// identical across dispatch choices. The blocked kernel resolves the
    /// SIMD tier once per call and enters its dispatched body once per `k`
    /// panel: the register tiles run inside it, so a gemm of the prefill's
    /// size (64 x 64 x 192) is one dispatch, not 192.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        crate::gemm::matmul_dispatch(self, other)
    }

    /// The reference matrix product: the plain `i, k, j` triple loop,
    /// accumulating each output element over `k` in ascending order.
    ///
    /// This is the kernel [`matmul`](Self::matmul) is property-tested
    /// against (bit-for-bit, at every SIMD tier) and the baseline the
    /// `kernels` bench reports speedups over. Prefer [`matmul`]
    /// everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Element-wise addition. Returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        self.iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Vector-matrix product `x * self` (treating `x` as a row vector):
    /// `out[j] = sum_i x[i] * self[i][j]`. Equivalent to
    /// `self.transposed().matvec(x)` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.vecmat_into(x, &mut out);
        out
    }

    /// As [`vecmat`](Self::vecmat), writing into a caller-provided buffer
    /// (overwritten) instead of allocating. Bit-identical to `vecmat`,
    /// at every [`dispatch`](crate::dispatch) tier: the lanes run across
    /// output columns, each column summing over `i` ascending.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn vecmat_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "vecmat shape mismatch");
        assert_eq!(out.len(), self.cols, "vecmat output length mismatch");
        vecmat_rows::dispatch(crate::dispatch::active_tier(), x, &self.data, out);
    }

    /// Scores the query against every row — `out[r] = dot(query, row r)`
    /// — into a reused buffer (cleared first), on the
    /// [`dispatch`](crate::dispatch) registry with the tier resolved once
    /// for the whole sweep. Bit-identical to calling [`dot`] per row
    /// (same products, same ascending-index addition order); this is the
    /// batched scoring kernel the InfiniGen selector runs on.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != cols`.
    pub fn dot_rows_into(&self, query: &[f32], out: &mut Vec<f32>) {
        assert_eq!(query.len(), self.cols, "dot_rows shape mismatch");
        out.clear();
        out.reserve(self.rows);
        let tier = crate::dispatch::active_tier();
        out.extend(
            self.iter_rows()
                .map(|row| row_dot::dispatch(tier, query, row)),
        );
    }

    /// Makes `self` a copy of `src`, reusing the existing data buffer
    /// when its capacity suffices (the derived `Clone` always
    /// reallocates).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Dot product of two equal-length slices (the sequential reference the
/// dispatched [`Matrix::dot_rows_into`] kernel is pinned against).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Output columns per wide register tile of [`vecmat_rows`]: four
/// AVX-512 / eight AVX2 accumulators, as many independent add chains.
const VECMAT_WIDE: usize = 64;
/// Output columns per narrow tile: the width of a head projection.
const VECMAT_NARROW: usize = 16;

/// `out[c0..c0 + T] = x * w[.., c0..c0 + T]` for the row-major
/// `x.len() x out.len()` matrix `w`, the `T` sums kept in registers over
/// the whole walk down the rows (accumulating in `out` itself puts a
/// store and a reload on every column's add chain).
#[inline(always)]
fn vecmat_tile<const T: usize>(x: &[f32], w: &[f32], c0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; T];
    for (&xi, row) in x.iter().zip(w.chunks_exact(out.len())) {
        if xi == 0.0 {
            continue;
        }
        let row: &[f32; T] = row[c0..c0 + T].try_into().expect("tile row");
        for (a, &wij) in acc.iter_mut().zip(row) {
            *a += xi * wij;
        }
    }
    out[c0..c0 + T].copy_from_slice(&acc);
}

crate::dispatch_kernel! {
    /// The body of [`Matrix::vecmat_into`]: `out = x * w` for the row-major
    /// `x.len() x out.len()` matrix `w`, in column tiles — wide, then
    /// narrow, then the last few columns one by one. Every column sums
    /// its products over the rows ascending, from `+0.0`, skipping rows
    /// whose input is exactly zero, whichever tile it falls in.
    vecmat_rows(x: &[f32], w: &[f32], out: &mut [f32]) {
        let cols = out.len();
        let mut c0 = 0;
        while cols - c0 >= VECMAT_WIDE {
            vecmat_tile::<VECMAT_WIDE>(x, w, c0, out);
            c0 += VECMAT_WIDE;
        }
        while cols - c0 >= VECMAT_NARROW {
            vecmat_tile::<VECMAT_NARROW>(x, w, c0, out);
            c0 += VECMAT_NARROW;
        }
        while c0 < cols {
            vecmat_tile::<1>(x, w, c0, out);
            c0 += 1;
        }
    }
}

/// Elements staged per [`row_dot`] chunk.
const DOT_CHUNK: usize = 64;

crate::dispatch_kernel! {
    /// One f32 dot: stage the products chunk by chunk (element-wise,
    /// lane-parallel at the wide tiers), fold each chunk in ascending
    /// index order — exactly [`dot`]'s addition sequence, so every tier
    /// returns its bits.
    row_dot(query: &[f32], row: &[f32]) -> f32 {
        let mut buf = [0.0f32; DOT_CHUNK];
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < query.len() {
            let c = DOT_CHUNK.min(query.len() - i);
            for ((b, &q), &w) in buf[..c]
                .iter_mut()
                .zip(&query[i..i + c])
                .zip(&row[i..i + c])
            {
                *b = q * w;
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

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent row length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_identity() {
        let id = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let m = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(id.matmul(&m), m);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0], &[5.0], &[6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c.get(0, 0), 32.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().get(2, 1), 6.0);
    }

    #[test]
    fn gather_rows_selects_and_orders() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[3.0]);
        assert_eq!(g.row(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_rejects_oob() {
        let m = Matrix::zeros(2, 1);
        let _ = m.gather_rows(&[2]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn push_rows_appends_a_block() {
        let block = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]);
        m.push_rows(&block);
        m.push_rows(&Matrix::zeros(0, 2));
        assert_eq!(
            m,
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
        );
        // An empty matrix takes its width from the first block, as it
        // does from the first `push_row`.
        let mut fresh = Matrix::default();
        fresh.push_rows(&block);
        assert_eq!(fresh, block);
    }

    #[test]
    fn push_cols_appends_a_column_segment_of_every_row() {
        let fused = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let mut m = Matrix::default();
        m.push_cols(&fused, 1..3);
        m.push_cols(&fused, 2..4);
        assert_eq!(
            m,
            Matrix::from_rows(&[&[2.0, 3.0], &[6.0, 7.0], &[3.0, 4.0], &[7.0, 8.0]])
        );
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_rows_rejects_a_width_mismatch() {
        let mut m = Matrix::zeros(1, 2);
        m.push_rows(&Matrix::zeros(2, 3));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = vec![5.0, 6.0];
        let got = m.matvec(&v);
        assert_eq!(got, vec![17.0, 39.0]);
    }

    #[test]
    fn vecmat_into_matches_vecmat() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let x = [0.5, -2.0];
        let mut out = vec![9.0; 3];
        m.vecmat_into(&x, &mut out);
        assert_eq!(out, m.vecmat(&x));
    }

    #[test]
    fn copy_from_replaces_contents_and_shape() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Matrix::zeros(5, 7);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn scale_multiplies_all() {
        let mut m = Matrix::from_rows(&[&[1.0, -2.0]]);
        m.scale(2.0);
        assert_eq!(m.row(0), &[2.0, -4.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
