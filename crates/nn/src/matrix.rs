//! Row-major `f32` matrix with the small set of BLAS-like kernels the MLP
//! needs. Kept dependency-free: the controller network is tiny (4→100→5),
//! so straightforward loops with preallocated outputs are fast enough and
//! faithful to a fixed-function hardware datapath.

use crate::align::AlignedVec;
use crate::simd;
use serde::{Deserialize, Serialize};

/// Dense row-major matrix.
///
/// Storage is an [`AlignedVec`], so the flat buffer (and with it every
/// `BatchScratch` matrix) starts on a 64-byte boundary. The batched
/// kernels (`matmul_into`, `matmul_transposed_into`, `add_outer_batch`)
/// dispatch through [`crate::simd`] to the backend selected at startup;
/// the per-sample methods (`matvec_into`, `matvec_transpose_into`,
/// `add_outer`) deliberately stay scalar — they are the reference
/// semantics the batched paths are measured and bit-checked against.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedVec,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: AlignedVec::zeroed(rows * cols),
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Build from a flat row-major slice.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self {
            rows,
            cols,
            data: AlignedVec::from_slice(&data),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = W x` (rows × cols times cols) into a preallocated `y`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (w, xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            *yr = acc;
        }
    }

    /// `y = Wᵀ x` (length-rows `x` to length-cols `y`), used by backprop.
    pub fn matvec_transpose_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length");
        assert_eq!(y.len(), self.cols, "matvec_t: y length");
        y.fill(0.0);
        for (r, &xv) in x.iter().enumerate() {
            // lint:allow(float-eq): exact-zero sparsity skip; activations are assigned 0.0 exactly, and a false negative only costs speed
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, w) in y.iter_mut().zip(row) {
                *yc += w * xv;
            }
        }
    }

    /// Rank-1 update `self += alpha * a bᵀ`, used to accumulate weight grads.
    pub fn add_outer(&mut self, alpha: f32, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.rows);
        assert_eq!(b.len(), self.cols);
        for (r, &av) in a.iter().enumerate() {
            // lint:allow(float-eq): exact-zero sparsity skip; ReLU outputs are assigned 0.0 exactly, and a false negative only costs speed
            if av == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let s = alpha * av;
            for (w, &bv) in row.iter_mut().zip(b) {
                *w += s * bv;
            }
        }
    }

    /// Reshape in place, reusing the existing allocation. New elements are
    /// zero; surviving elements are *not* preserved meaningfully (callers
    /// overwrite the whole matrix after a resize). Steady-state callers
    /// that resize to the same shape pay nothing.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Minibatch forward GEMM: `ys = xs · selfᵀ`, i.e. row `b` of `ys` is
    /// `self · xs_b` — one call replaces `B` [`Matrix::matvec_into`] calls.
    ///
    /// Every output element keeps one accumulator running the inner
    /// dimension `k` in ascending order, so the result is
    /// **bit-identical** to per-sample `matvec_into` (the determinism
    /// contract the DQN batched datapath relies on): SIMD across
    /// independent elements never reassociates a per-element sum, and
    /// Rust does not contract `a += w * x` into an FMA. Two
    /// shape-dependent strategies, both preserving that order:
    ///
    /// - **Wide output** (`rows ≥ 16`, e.g. the 4→100 layer): stage the
    ///   weights transposed once and sweep each sample output-major —
    ///   `y += x[k] · wtᵏ` — long contiguous axpy rows, no strided
    ///   scatter.
    /// - **Narrow output** (e.g. the 100→5 layer): stage the inputs
    ///   transposed in batch tiles and sweep batch-lane-major —
    ///   `acc[b] += w[k] · xt[k][b]` — the batch itself is the vector.
    ///   Tiles keep the stage and the output scatter L1-resident.
    pub fn matmul_into(&self, xs: &Matrix, ys: &mut Matrix) {
        assert_eq!(xs.cols, self.cols, "matmul: inner dimension");
        assert_eq!(ys.rows, xs.rows, "matmul: batch rows");
        assert_eq!(ys.cols, self.rows, "matmul: output cols");
        let (c, r_dim, batch) = (self.cols, self.rows, xs.rows);
        if batch == 0 || r_dim == 0 {
            return;
        }
        if c == 0 {
            ys.data.fill(0.0);
            return;
        }
        const TILE: usize = 64;
        const WIDE_OUT: usize = 16;
        let be = simd::active();
        thread_local! {
            static STAGE: std::cell::RefCell<(AlignedVec, AlignedVec)> =
                const { std::cell::RefCell::new((AlignedVec::new(), AlignedVec::new())) };
        }
        STAGE.with(|stage| {
            let (buf, acc) = &mut *stage.borrow_mut();
            // Steady-state callers pay no allocation.
            if r_dim >= WIDE_OUT {
                // wt[k][r] = self[r][k], staged once per call.
                buf.clear();
                buf.resize(c * r_dim, 0.0);
                for (r, row) in self.data.chunks_exact(c).enumerate() {
                    for (k, &v) in row.iter().enumerate() {
                        buf[k * r_dim + r] = v;
                    }
                }
                for (xrow, yrow) in xs.data.chunks_exact(c).zip(ys.data.chunks_exact_mut(r_dim)) {
                    simd::matvec_lanes(be, yrow, buf, xrow);
                }
                return;
            }
            acc.clear();
            acc.resize(TILE.min(batch), 0.0);
            let mut t0 = 0;
            while t0 < batch {
                let tl = TILE.min(batch - t0);
                // xt[k][b] = xs[t0 + b][k] within the tile.
                buf.clear();
                buf.resize(c * tl, 0.0);
                for b in 0..tl {
                    let row = &xs.data[(t0 + b) * c..(t0 + b + 1) * c];
                    for (k, &v) in row.iter().enumerate() {
                        buf[k * tl + b] = v;
                    }
                }
                for r in 0..r_dim {
                    let wrow = &self.data[r * c..(r + 1) * c];
                    let acc = &mut acc[..tl];
                    acc.fill(0.0);
                    simd::gemm_lanes(be, acc, wrow, &buf[..c * tl]);
                    for (b, &a) in acc.iter().enumerate() {
                        ys.data[(t0 + b) * r_dim + r] = a;
                    }
                }
                t0 += tl;
            }
        });
    }

    /// Minibatch transposed GEMM: row `b` of `ys` is `selfᵀ · xs_b` — the
    /// backprop delta propagation for a whole batch in one call.
    ///
    /// Runs the dispatched per-sample-row kernel
    /// (`simd::matvec_t_sample`), which keeps the exact-zero
    /// sparsity skip (backprop deltas are mostly zero after ReLU masking
    /// and single-action TD errors) and the per-element accumulation
    /// order identical to [`Matrix::matvec_transpose_into`] — the vector
    /// backends only spread each delta row's axpy across the independent
    /// output columns.
    pub fn matmul_transposed_into(&self, xs: &Matrix, ys: &mut Matrix) {
        assert_eq!(xs.cols, self.rows, "matmul_t: inner dimension");
        assert_eq!(ys.rows, xs.rows, "matmul_t: batch rows");
        assert_eq!(ys.cols, self.cols, "matmul_t: output cols");
        let (r_dim, c) = (self.rows, self.cols);
        let be = simd::active();
        for s in 0..xs.rows {
            let x = &xs.data[s * r_dim..(s + 1) * r_dim];
            let y = &mut ys.data[s * c..(s + 1) * c];
            simd::matvec_t_sample(be, y, &self.data, x);
        }
    }

    /// Batched gradient accumulation `self += alpha · aᵀ b`: the
    /// `deltaᵀ · acts` GEMM of a minibatch backward pass. Each element
    /// receives its contributions in ascending sample order, so the
    /// result is bit-identical to `B` sequential [`Matrix::add_outer`]
    /// calls. Two shape-dependent strategies:
    ///
    /// - **Wide rows** (`cols ≥ 16`, e.g. the 5×100 output-layer
    ///   gradient): per sample, sweep the delta entries row-major with
    ///   the exact-zero skip — identical traversal to `add_outer`.
    /// - **Narrow rows** (e.g. the 100×4 input-layer gradient):
    ///   accumulate into a transposed stage so each sample becomes a few
    ///   long axpy sweeps across the delta dimension instead of ~rows
    ///   tiny branch-mispredicting ones; see `simd::outer_lanes_sample`
    ///   for why the store layout and the moved sparsity skip are exact.
    pub fn add_outer_batch(&mut self, alpha: f32, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_outer_batch: batch rows");
        assert_eq!(a.cols, self.rows, "add_outer_batch: rows");
        assert_eq!(b.cols, self.cols, "add_outer_batch: cols");
        let (rows, cols, batch) = (self.rows, self.cols, a.rows);
        if batch == 0 || rows == 0 || cols == 0 {
            return;
        }
        const WIDE_ROW: usize = 16;
        let be = simd::active();
        if cols >= WIDE_ROW {
            for (a_row, b_row) in a.data.chunks_exact(rows).zip(b.data.chunks_exact(cols)) {
                simd::outer_rows_sample(be, &mut self.data, a_row, b_row, alpha);
            }
            return;
        }
        thread_local! {
            static STAGE: std::cell::RefCell<AlignedVec> =
                const { std::cell::RefCell::new(AlignedVec::new()) };
        }
        STAGE.with(|stage| {
            let dwt = &mut *stage.borrow_mut();
            dwt.clear();
            dwt.resize(rows * cols, 0.0);
            // dwt[c][r] = self[r][c]
            for (r, row) in self.data.chunks_exact(cols).enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    dwt[c * rows + r] = v;
                }
            }
            for (a_row, b_row) in a.data.chunks_exact(rows).zip(b.data.chunks_exact(cols)) {
                simd::outer_lanes_sample(be, dwt, a_row, b_row, alpha);
            }
            for (r, row) in self.data.chunks_exact_mut(cols).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = dwt[c * rows + r];
                }
            }
        });
    }

    /// Set all elements to zero.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_small() {
        let w = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [0.0; 2];
        w.matvec_into(&[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn matvec_transpose_small() {
        let w = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [0.0; 3];
        w.matvec_transpose_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_consistent_with_forward() {
        // <Wx, y> == <x, Wᵀy> for random-ish values.
        let w = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32 * 0.3 - 2.0);
        let x: Vec<f32> = (0..5).map(|i| i as f32 - 2.0).collect();
        let y: Vec<f32> = (0..4).map(|i| 0.5 * i as f32 + 1.0).collect();
        let mut wx = vec![0.0; 4];
        w.matvec_into(&x, &mut wx);
        let mut wty = vec![0.0; 5];
        w.matvec_transpose_into(&y, &mut wty);
        let lhs: f32 = wx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&wty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn add_outer_accumulates() {
        let mut g = Matrix::zeros(2, 2);
        g.add_outer(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(g.as_slice(), &[8.0, 10.0, 24.0, 30.0]);
        g.add_outer(1.0, &[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(g.as_slice(), &[9.0, 11.0, 24.0, 30.0]);
    }

    #[test]
    fn clear_zeroes_every_element() {
        let mut a = Matrix::from_rows(1, 3, vec![1.0, 2.0, 3.0]);
        a.clear();
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_rows_checks_shape() {
        let _ = Matrix::from_rows(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_per_sample_matvec_bitwise() {
        // 7 batch rows exercises both the 4-wide block and the remainder.
        let w = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32).sin());
        let xs = Matrix::from_fn(7, 3, |r, c| ((r * 7 + c) as f32 * 0.37).cos());
        let mut batched = Matrix::zeros(7, 5);
        w.matmul_into(&xs, &mut batched);
        let mut single = vec![0.0f32; 5];
        for b in 0..7 {
            w.matvec_into(xs.row(b), &mut single);
            for (a, e) in batched.row(b).iter().zip(&single) {
                assert_eq!(a.to_bits(), e.to_bits(), "row {b}");
            }
        }
    }

    #[test]
    fn matmul_transposed_matches_per_sample_bitwise() {
        let w = Matrix::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.21);
        // Include exact zeros to exercise the sparsity skip.
        let xs = Matrix::from_fn(5, 4, |r, c| if (r + c) % 3 == 0 { 0.0 } else { 0.3 });
        let mut batched = Matrix::zeros(5, 6);
        w.matmul_transposed_into(&xs, &mut batched);
        let mut single = vec![0.0f32; 6];
        for b in 0..5 {
            w.matvec_transpose_into(xs.row(b), &mut single);
            for (a, e) in batched.row(b).iter().zip(&single) {
                assert_eq!(a.to_bits(), e.to_bits(), "row {b}");
            }
        }
    }

    #[test]
    fn add_outer_batch_matches_sequential_bitwise() {
        let a = Matrix::from_fn(6, 3, |r, c| if c == r % 3 { 0.7 - r as f32 } else { 0.0 });
        let b = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32 * 0.11 - 1.0);
        let mut batched = Matrix::zeros(3, 4);
        batched.add_outer_batch(0.5, &a, &b);
        let mut seq = Matrix::zeros(3, 4);
        for s in 0..6 {
            seq.add_outer(0.5, a.row(s), b.row(s));
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched), bits(&seq));
    }

    #[test]
    fn matmul_handles_empty_batch() {
        let w = Matrix::from_rows(2, 3, vec![1.0; 6]);
        let xs = Matrix::zeros(0, 3);
        let mut ys = Matrix::zeros(0, 2);
        w.matmul_into(&xs, &mut ys);
        let mut yt = Matrix::zeros(0, 3);
        let xt = Matrix::zeros(0, 2);
        w.matmul_transposed_into(&xt, &mut yt);
        assert!(ys.is_empty() && yt.is_empty());
    }

    #[test]
    fn resize_reuses_and_rezeroes_len() {
        let mut m = Matrix::zeros(2, 2);
        *m.get_mut(1, 1) = 5.0;
        m.resize(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.len(), 6);
        m.resize(1, 2);
        assert_eq!(m.len(), 2);
    }
}
