use rand::Rng as _;
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` matrix. Small and allocation-friendly — policy
/// networks here are at most a few hundred units wide.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Register tile height shared by the GEMM kernels below.
const MR: usize = 4;
/// Register tile width shared by the GEMM kernels below.
const NR: usize = 8;
/// Columns of one row that [`gemm_nn_impl`]'s leftover-row path keeps in
/// registers across its whole k loop: eight AVX accumulators, enough
/// independent add chains to hide the add latency. The 1-row product the
/// LSTM backward runs once per step (`Matrix::vecmat_into`) goes through
/// this path.
const VW: usize = 64;

// --- SIMD multiversioning -------------------------------------------------
//
// Each GEMM kernel below exists once as an `#[inline(always)]` `*_impl`
// body and is compiled twice on x86_64: once for the baseline target
// (SSE2) and once inside an `#[target_feature(enable = "avx")]` wrapper,
// picked once at runtime. Wider lanes change neither the operations nor
// their per-element order — every output element still accumulates its
// `k` terms in ascending order with a separate IEEE mul and add (rustc
// does not contract to FMA under any target feature) — so both copies
// produce bit-identical results; the tiled-vs-naive `to_bits` proptests
// pin this.

/// Whether this CPU supports AVX, probed once and cached.
#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = absent, 1 = present, 2 = not probed yet.
    static AVX: AtomicU8 = AtomicU8::new(2);
    match AVX.load(Ordering::Relaxed) {
        2 => {
            let has = std::is_x86_feature_detected!("avx");
            AVX.store(has as u8, Ordering::Relaxed);
            has
        }
        v => v == 1,
    }
}

macro_rules! multiversioned {
    ($($entry:ident => $avx:ident / $impl_fn:ident;)+) => {
        $(
            fn $entry(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
                #[cfg(target_arch = "x86_64")]
                if avx_available() {
                    // SAFETY: AVX support was verified at runtime above.
                    return unsafe { $avx(a, ar, ac, b, bc, out) };
                }
                $impl_fn(a, ar, ac, b, bc, out)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx")]
            unsafe fn $avx(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
                $impl_fn(a, ar, ac, b, bc, out)
            }
        )+
    };
}

multiversioned! {
    gemm_nn => gemm_nn_avx / gemm_nn_impl;
    gemm_tn => gemm_tn_avx / gemm_tn_impl;
    gemm_nt => gemm_nt_avx / gemm_nt_impl;
}

/// `out = a · b` where `a` is `ar×ac`, `b` is `ac×bc`, all row-major and
/// `out` pre-zeroed. Register-tiled over `MR×NR` blocks with the `b`
/// column block packed contiguous once per block, so batched rows stream
/// the `b` weights through cache once per block instead of once per row
/// and the inner loop reads dense 32-byte lines instead of strided ones.
/// Every output element still accumulates its `k` terms in ascending
/// order with a separate mul and add (rustc does not contract to FMA), so
/// the result is bit-identical to the naive triple loop no matter how many
/// rows are batched — the invariant the batched-vs-serial `to_bits` tests
/// lock in. There is deliberately no zero-skip: `0.0 * NaN` and `0.0 * inf`
/// propagate as NaN in every GEMM variant (see `Matrix::matmul`).
#[inline(always)]
fn gemm_nn_impl(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
    let panels = ar / MR * MR;
    if panels > 0 {
        let mut bpack = vec![0.0f32; ac * NR];
        let mut j0 = 0;
        while j0 + NR <= bc {
            // Pack the `ac×NR` column block of `b` once; every row panel
            // below then reads it as dense rows.
            for k in 0..ac {
                bpack[k * NR..(k + 1) * NR].copy_from_slice(&b[k * bc + j0..k * bc + j0 + NR]);
            }
            let mut i0 = 0;
            while i0 < panels {
                let a0 = &a[i0 * ac..(i0 + 1) * ac];
                let a1 = &a[(i0 + 1) * ac..(i0 + 2) * ac];
                let a2 = &a[(i0 + 2) * ac..(i0 + 3) * ac];
                let a3 = &a[(i0 + 3) * ac..(i0 + 4) * ac];
                let mut acc0 = [0.0f32; NR];
                let mut acc1 = [0.0f32; NR];
                let mut acc2 = [0.0f32; NR];
                let mut acc3 = [0.0f32; NR];
                for (k, bk) in bpack.chunks_exact(NR).enumerate() {
                    let brow: &[f32; NR] = bk.try_into().expect("chunk is NR wide");
                    let (v0, v1, v2, v3) = (a0[k], a1[k], a2[k], a3[k]);
                    for j in 0..NR {
                        acc0[j] += v0 * brow[j];
                        acc1[j] += v1 * brow[j];
                        acc2[j] += v2 * brow[j];
                        acc3[j] += v3 * brow[j];
                    }
                }
                out[i0 * bc + j0..i0 * bc + j0 + NR].copy_from_slice(&acc0);
                out[(i0 + 1) * bc + j0..(i0 + 1) * bc + j0 + NR].copy_from_slice(&acc1);
                out[(i0 + 2) * bc + j0..(i0 + 2) * bc + j0 + NR].copy_from_slice(&acc2);
                out[(i0 + 3) * bc + j0..(i0 + 3) * bc + j0 + NR].copy_from_slice(&acc3);
                i0 += MR;
            }
            j0 += NR;
        }
        if j0 < bc {
            // Column tail of the full row panels: axpy order, same
            // ascending-k sums per element.
            for i0 in (0..panels).step_by(MR) {
                for k in 0..ac {
                    let brow = &b[k * bc + j0..k * bc + bc];
                    for r in 0..MR {
                        let av = a[(i0 + r) * ac + k];
                        let orow = &mut out[(i0 + r) * bc + j0..(i0 + r) * bc + bc];
                        for (o, bv) in orow.iter_mut().zip(brow) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
    // Leftover rows (< MR), including the 1-row serial case: one row at a
    // time, `VW` columns held in registers across the whole k loop, then
    // the column tail in axpy order.
    for i in panels..ar {
        let arow = &a[i * ac..(i + 1) * ac];
        let orow = &mut out[i * bc..(i + 1) * bc];
        let mut j0 = 0;
        while j0 + VW <= bc {
            let mut acc: [f32; VW] = orow[j0..j0 + VW].try_into().expect("VW wide");
            for (k, &av) in arow.iter().enumerate() {
                let brow: &[f32; VW] = b[k * bc + j0..k * bc + j0 + VW]
                    .try_into()
                    .expect("VW wide");
                for j in 0..VW {
                    acc[j] += av * brow[j];
                }
            }
            orow[j0..j0 + VW].copy_from_slice(&acc);
            j0 += VW;
        }
        if j0 < bc {
            for (k, &av) in arow.iter().enumerate() {
                let brow = &b[k * bc + j0..(k + 1) * bc];
                for (o, bv) in orow[j0..].iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `out += aᵀ · b` where `a` is `ar×ac`, `b` is `ar×bc`, `out` is `ac×bc`.
/// Every element starts from its current `out` value and adds its `ar`
/// terms in ascending `r`, so a pre-zeroed `out` gives the plain product
/// and a gradient accumulator gets the terms added one by one, in row
/// order. Same tiling as [`gemm_nn_impl`].
#[inline(always)]
fn gemm_tn_impl(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
    let mut i0 = 0;
    while i0 + MR <= ac {
        let mut j0 = 0;
        while j0 + NR <= bc {
            let mut acc = [[0.0f32; NR]; MR];
            for (ri, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&out[(i0 + ri) * bc + j0..(i0 + ri) * bc + j0 + NR]);
            }
            for r in 0..ar {
                let arow = &a[r * ac + i0..r * ac + i0 + MR];
                let brow = &b[r * bc + j0..r * bc + j0 + NR];
                for (av, accr) in arow.iter().zip(acc.iter_mut()) {
                    for (slot, bv) in accr.iter_mut().zip(brow) {
                        *slot += av * bv;
                    }
                }
            }
            for (ri, accr) in acc.iter().enumerate() {
                out[(i0 + ri) * bc + j0..(i0 + ri) * bc + j0 + NR].copy_from_slice(accr);
            }
            j0 += NR;
        }
        if j0 < bc {
            for r in 0..ar {
                let brow = &b[r * bc + j0..r * bc + bc];
                for ri in 0..MR {
                    let av = a[r * ac + i0 + ri];
                    let orow = &mut out[(i0 + ri) * bc + j0..(i0 + ri) * bc + bc];
                    for (o, bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        i0 += MR;
    }
    for i in i0..ac {
        for r in 0..ar {
            let av = a[r * ac + i];
            let brow = &b[r * bc..(r + 1) * bc];
            let orow = &mut out[i * bc..(i + 1) * bc];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a · bᵀ` where `a` is `ar×ac`, `b` is `br×ac`, `out` is `ar×br`
/// pre-zeroed. Same tiling and same ascending-k per-element accumulation
/// contract as [`gemm_nn_impl`].
#[inline(always)]
fn gemm_nt_impl(a: &[f32], ar: usize, ac: usize, b: &[f32], br: usize, out: &mut [f32]) {
    let mut i0 = 0;
    while i0 + MR <= ar {
        let mut j0 = 0;
        while j0 + NR <= br {
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..ac {
                let mut bv = [0.0f32; NR];
                for (c, v) in bv.iter_mut().enumerate() {
                    *v = b[(j0 + c) * ac + k];
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = a[(i0 + r) * ac + k];
                    for (slot, b) in accr.iter_mut().zip(&bv) {
                        *slot += av * b;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i0 + r) * br + j0..(i0 + r) * br + j0 + NR].copy_from_slice(accr);
            }
            j0 += NR;
        }
        for j in j0..br {
            for r in 0..MR {
                let arow = &a[(i0 + r) * ac..(i0 + r + 1) * ac];
                let brow = &b[j * ac..(j + 1) * ac];
                out[(i0 + r) * br + j] = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
            }
        }
        i0 += MR;
    }
    for i in i0..ar {
        let arow = &a[i * ac..(i + 1) * ac];
        for j in 0..br {
            let brow = &b[j * ac..(j + 1) * ac];
            out[i * br + j] = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
        }
    }
}

/// A borrowed row-major matrix view over caller-owned storage. The GEMM
/// entry points accept views so hot loops (policy forwards over stacked
/// observation buffers) can run without first copying rows into a `Matrix`.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatRef<'a> {
    /// A `rows × cols` view of a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape/data mismatch");
        MatRef { rows, cols, data }
    }

    /// A 1×n view of a slice.
    pub fn row(data: &'a [f32]) -> Self {
        MatRef::new(data, 1, data.len())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Owned copy.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }

    /// `self · other` (m×k by k×n). Same kernel and same bit-level results
    /// as [`Matrix::matmul`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into `out`, reusing `out`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        out.reset_to(self.rows, other.cols);
        gemm_nn(
            self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector from a slice.
    pub fn row_from_slice(data: &[f32]) -> Self {
        Matrix::from_vec(1, data.len(), data.to_vec())
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut crate::Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// View of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` reusing the existing allocation; contents
    /// are reset to zero. This is the scratch-arena primitive: hot loops
    /// call it instead of `Matrix::zeros` to avoid per-step allocations.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Fills every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Borrowed view of the whole matrix.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(&self.data, self.rows, self.cols)
    }

    /// `self · other` (m×k by k×n).
    ///
    /// Non-finite contract: there is no zero-skip anywhere in the GEMM
    /// family — `0.0 * NaN` and `0.0 * inf` contribute NaN, so a poisoned
    /// operand poisons the product in `matmul`, `matmul_tn` and `matmul_nt`
    /// alike (the repo-wide NaN-poisoning policy: bad numbers surface, they
    /// are never silently zeroed).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.view().matmul(other)
    }

    /// `self · other` written into `out`, reusing `out`'s allocation.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.view().matmul_into(other, out);
    }

    /// `selfᵀ · other` without materializing the transpose. Same non-finite
    /// contract as [`Matrix::matmul`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dims");
        let mut out = Matrix::zeros(self.cols, other.cols);
        gemm_tn(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `self += aᵀ · b` in place, without a temporary: each element adds
    /// the `a.rows()` terms `a[r][i] · b[r][j]` in ascending `r`. With `a`
    /// and `b` holding a sequence's rows in reverse time order, that is the
    /// order in which per-step `add_scaled(&a_t.matmul_tn(&b_t), 1.0)`
    /// calls walking backward in time would have added them.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add_matmul_tn(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_matmul_tn outer dims");
        assert_eq!(self.shape(), (a.cols, b.cols), "add_matmul_tn output shape");
        gemm_tn(&a.data, a.rows, a.cols, &b.data, b.cols, &mut self.data);
    }

    /// `out = x · self` for one row `x` (`1×rows` times `rows×cols`). Each
    /// element adds its terms in ascending `k` onto a `-0.0` seed, which is
    /// the fold `Iterator::sum` runs. So for `wt = w.transpose()`,
    /// `wt.vecmat_into(x, out)` equals the 1-row `x.matmul_nt(&w)` bit for
    /// bit, signed zeros included. It runs as `cols` independent chains in
    /// axpy order, where the 1-row `matmul_nt` runs one dependent dot
    /// product per output.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn vecmat_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "vecmat inner dims");
        assert_eq!(out.len(), self.cols, "vecmat output width");
        out.fill(-0.0);
        gemm_nn(x, 1, self.rows, &self.data, self.cols, out);
    }

    /// `self · otherᵀ` without materializing the transpose. Same non-finite
    /// contract as [`Matrix::matmul`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm_nt(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        for i0 in (0..rows).step_by(TILE) {
            let i1 = (i0 + TILE).min(rows);
            for j0 in (0..cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(cols);
                for i in i0..i1 {
                    let src = &self.data[i * cols + j0..i * cols + j1];
                    for (j, &v) in (j0..j1).zip(src) {
                        out.data[j * rows + i] = v;
                    }
                }
            }
        }
        out
    }

    /// Elementwise sum. Shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shapes");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. Shapes must match.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shapes");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Shapes must match.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shapes");
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other`.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place elementwise `self += other`. Shapes must match.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a 1×cols row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(row);
        out
    }

    /// In-place variant of [`Matrix::add_row_broadcast`] (bias add without
    /// allocating).
    pub fn add_row_broadcast_assign(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast row must be 1×n");
        assert_eq!(row.cols, self.cols, "broadcast width");
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[r * self.cols + c] += row.data[c];
            }
        }
    }

    /// Column-sum collapsed to a 1×cols row (bias-gradient reduction).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` elementwise in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut rng = crate::Rng::seed_from_u64(1);
        let a = Matrix::xavier(3, 4, &mut rng);
        let b = Matrix::xavier(3, 5, &mut rng);
        let via_t = a.transpose().matmul(&b);
        let direct = a.matmul_tn(&b);
        for (x, y) in via_t.data().iter().zip(direct.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Matrix::xavier(5, 4, &mut rng);
        let via_t2 = a.matmul(&c.transpose());
        let direct2 = a.matmul_nt(&c);
        for (x, y) in via_t2.data().iter().zip(direct2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_in_shape() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::row_from_slice(&[10.0, 20.0, 30.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.get(1, 2), 36.0);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Naive reference GEMMs the tiled kernels must match to the bit.
    fn naive_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn naive_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for r in 0..a.rows() {
                    s += a.get(r, i) * b.get(r, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn naive_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(j, k);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    /// Zero inputs must hit every tile/tail path without changing bits —
    /// the tiled kernels' accumulation order is the naive ascending-k order.
    #[test]
    fn tiled_kernels_match_naive_reference_to_the_bit() {
        let mut rng = crate::Rng::seed_from_u64(7);
        // Shapes chosen to exercise full tiles, column tails, and row tails
        // (the last two put leftover rows through whole register blocks).
        for &(m, k, n) in &[
            (1usize, 5usize, 3usize),
            (4, 8, 8),
            (5, 8, 9),
            (7, 13, 17),
            (12, 32, 24),
            (64, 10, 12),
            (1, 9, 130),
            (7, 17, 70),
        ] {
            let a = Matrix::xavier(m, k, &mut rng);
            let b = Matrix::xavier(k, n, &mut rng);
            assert_bits_eq(&a.matmul(&b), &naive_nn(&a, &b));
            let mut into = Matrix::zeros(1, 1);
            a.matmul_into(&b, &mut into);
            assert_bits_eq(&into, &naive_nn(&a, &b));

            let at = Matrix::xavier(k, m, &mut rng);
            let bt = Matrix::xavier(k, n, &mut rng);
            assert_bits_eq(&at.matmul_tn(&bt), &naive_tn(&at, &bt));

            let an = Matrix::xavier(m, k, &mut rng);
            let bn = Matrix::xavier(n, k, &mut rng);
            assert_bits_eq(&an.matmul_nt(&bn), &naive_nt(&an, &bn));
        }
    }

    /// The zero-skip hazard fix: `0.0 * NaN` / `0.0 * inf` must poison the
    /// product in every GEMM variant — no variant silently zeroes them.
    #[test]
    fn non_finite_operands_poison_all_gemm_variants() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Row of zeros against a poisoned operand: the old `a == 0.0`
            // skip used to return exact zeros here.
            let zero_row = Matrix::zeros(1, 3);
            let mut poisoned = Matrix::zeros(3, 2);
            poisoned.set(1, 0, bad);
            let out = zero_row.matmul(&poisoned);
            assert!(out.get(0, 0).is_nan(), "matmul must propagate {bad}");

            let zero_col = Matrix::zeros(3, 1);
            let mut poisoned_tn = Matrix::zeros(3, 2);
            poisoned_tn.set(1, 0, bad);
            let out_tn = zero_col.matmul_tn(&poisoned_tn);
            assert!(out_tn.get(0, 0).is_nan(), "matmul_tn must propagate {bad}");

            let zero_row_nt = Matrix::zeros(1, 3);
            let mut poisoned_nt = Matrix::zeros(2, 3);
            poisoned_nt.set(0, 1, bad);
            let out_nt = zero_row_nt.matmul_nt(&poisoned_nt);
            assert!(out_nt.get(0, 0).is_nan(), "matmul_nt must propagate {bad}");
        }
    }

    #[test]
    fn matref_row_matmul_matches_owned_row() {
        let mut rng = crate::Rng::seed_from_u64(11);
        let w = Matrix::xavier(6, 5, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.25 - 0.5).collect();
        let owned = Matrix::row_from_slice(&x).matmul(&w);
        let viewed = MatRef::row(&x).matmul(&w);
        assert_bits_eq(&owned, &viewed);
    }

    #[test]
    fn reset_to_reuses_allocation_and_zeroes() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0; 6]);
        m.reset_to(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_is_bounded() {
        let mut rng = crate::Rng::seed_from_u64(2);
        let m = Matrix::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound));
    }

    proptest! {
        #[test]
        fn add_is_commutative(v1 in proptest::collection::vec(-10.0f32..10.0, 6),
                              v2 in proptest::collection::vec(-10.0f32..10.0, 6)) {
            let a = Matrix::from_vec(2, 3, v1);
            let b = Matrix::from_vec(2, 3, v2);
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn transpose_is_involutive(v in proptest::collection::vec(-10.0f32..10.0, 12)) {
            let a = Matrix::from_vec(3, 4, v);
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn matmul_distributes_over_add(
            v1 in proptest::collection::vec(-2.0f32..2.0, 4),
            v2 in proptest::collection::vec(-2.0f32..2.0, 4),
            v3 in proptest::collection::vec(-2.0f32..2.0, 4),
        ) {
            let a = Matrix::from_vec(2, 2, v1);
            let b = Matrix::from_vec(2, 2, v2);
            let c = Matrix::from_vec(2, 2, v3);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
