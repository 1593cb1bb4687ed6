use crate::{MatRef, Matrix, Param, Rng};

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Gate pre-activation gradients of row `r` of one step: writes
/// `dL/d[i, f, g, o]` into `dgates` (`4H` wide) and the gradient carried to
/// the previous cell state into `dc_prev`. `dh` and `dc` are the gradients
/// reaching this step's outputs `h'` and `c'`. The one copy of the per-step
/// formula: the single-step and the whole-sequence backward both call it,
/// so they run the same float operations.
fn gate_grads(
    cache: &LstmCache,
    r: usize,
    dh: &[f32],
    dc: &[f32],
    dgates: &mut [f32],
    dc_prev: &mut [f32],
) {
    let h = dh.len();
    let (i, f, g, o) = (
        cache.i.row(r),
        cache.f.row(r),
        cache.g.row(r),
        cache.o.row(r),
    );
    let (tanh_c, c_prev) = (cache.tanh_c_new.row(r), cache.c_prev.row(r));
    for j in 0..h {
        let t = tanh_c[j];
        // dL/dc' includes the path through h' = o ∘ tanh(c').
        let dc_total = dh[j] * o[j] * (1.0 - t * t) + dc[j];
        let (iv, fv, gv, ov) = (i[j], f[j], g[j], o[j]);
        dgates[j] = dc_total * gv * iv * (1.0 - iv);
        dgates[h + j] = dc_total * c_prev[j] * fv * (1.0 - fv);
        dgates[2 * h + j] = dc_total * iv * (1.0 - gv * gv);
        dgates[3 * h + j] = dh[j] * t * ov * (1.0 - ov);
        dc_prev[j] = dc_total * fv;
    }
}

/// Hidden and cell state of an LSTM, each `batch × hidden`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Matrix,
    /// Cell state `c`.
    pub c: Matrix,
}

impl LstmState {
    /// All-zero initial state for `batch` sequences.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        LstmState {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// Everything the backward pass needs from one forward step *except* the
/// input `x` and the previous hidden state `h_prev`. The caller already
/// owns both (episode buffers store the observation, and `h_prev` is the
/// previous step's output) and passes them back to [`LstmCell::backward`];
/// keeping second copies here would only grow the rollout's per-step
/// storage.
#[derive(Debug, Clone)]
pub struct LstmCache {
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c_new: Matrix,
}

/// Reusable scratch for [`LstmCell::forward_batch_into`]: every intermediate
/// of a batched forward step lives here, so the rollout hot loop performs no
/// per-step allocations. After a forward step, [`LstmBatchScratch::h_new`] /
/// [`LstmBatchScratch::c_new`] hold the new `batch × hidden` state and
/// [`LstmBatchScratch::row_cache`] extracts a per-replica 1-row cache for
/// later BPTT.
#[derive(Debug, Default)]
pub struct LstmBatchScratch {
    gates: Matrix,
    hh: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    c_new: Matrix,
    tanh_c_new: Matrix,
    h_new: Matrix,
}

impl LstmBatchScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// New hidden state rows from the last forward step.
    pub fn h_new(&self) -> &Matrix {
        &self.h_new
    }

    /// New cell state rows from the last forward step.
    pub fn c_new(&self) -> &Matrix {
        &self.c_new
    }

    /// Extracts the 1-row BPTT cache for batch row `r`, given the pre-step
    /// state the forward ran from. Bit-identical to the cache a serial
    /// [`LstmCell::forward`] on that row alone would have produced.
    pub fn row_cache(&self, r: usize, prev: &LstmState) -> LstmCache {
        LstmCache {
            c_prev: Matrix::row_from_slice(prev.c.row(r)),
            i: Matrix::row_from_slice(self.i.row(r)),
            f: Matrix::row_from_slice(self.f.row(r)),
            g: Matrix::row_from_slice(self.g.row(r)),
            o: Matrix::row_from_slice(self.o.row(r)),
            tanh_c_new: Matrix::row_from_slice(self.tanh_c_new.row(r)),
        }
    }
}

/// A single-layer LSTM cell with gate order `[i, f, g, o]` packed into one
/// `4H`-wide affine transform, matching the classic formulation:
///
/// ```text
/// i = σ(x·Wxi + h·Whi + bi)      f = σ(x·Wxf + h·Whf + bf)
/// g = tanh(x·Wxg + h·Whg + bg)   o = σ(x·Wxo + h·Who + bo)
/// c' = f∘c + i∘g                 h' = o∘tanh(c')
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LstmCell {
    /// Input weights, `input × 4H`.
    pub wx: Param,
    /// Recurrent weights, `hidden × 4H`.
    pub wh: Param,
    /// Gate biases, `1 × 4H` (forget-gate bias initialized to 1).
    pub b: Param,
    hidden: usize,
}

impl LstmCell {
    /// Xavier-initialized cell; forget-gate bias starts at 1.0 for gradient
    /// flow early in training.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.set(0, j, 1.0);
        }
        LstmCell {
            wx: Param::new(Matrix::xavier(input, 4 * hidden, rng)),
            wh: Param::new(Matrix::xavier(hidden, 4 * hidden, rng)),
            b: Param::new(b),
            hidden,
        }
    }

    /// Hidden width `H`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.wx.w.rows()
    }

    /// One forward step. Returns the new state and the cache needed by
    /// [`LstmCell::backward`]. Rows are independent: an `N`-row `x` gives
    /// bit-identical results to `N` separate 1-row calls.
    pub fn forward(&self, x: &Matrix, state: &LstmState) -> (LstmState, LstmCache) {
        self.forward_batch(x.view(), state)
    }

    /// Borrowed-input forward over `N` stacked rows (the batched rollout
    /// entry point). Allocates fresh outputs; the rollout hot loop uses
    /// [`LstmCell::forward_batch_into`] instead.
    pub fn forward_batch(&self, x: MatRef<'_>, state: &LstmState) -> (LstmState, LstmCache) {
        let mut scratch = LstmBatchScratch::new();
        self.forward_batch_into(x, state, &mut scratch);
        let cache = LstmCache {
            c_prev: state.c.clone(),
            i: scratch.i,
            f: scratch.f,
            g: scratch.g,
            o: scratch.o,
            tanh_c_new: scratch.tanh_c_new,
        };
        (
            LstmState {
                h: scratch.h_new,
                c: scratch.c_new,
            },
            cache,
        )
    }

    /// Batched forward step writing every intermediate into `scratch` —
    /// zero allocations once the scratch has warmed up. The arithmetic is
    /// the serial forward's, element for element: gates accumulate as
    /// `(x·Wx + h·Wh) + b` in that order, so results are bit-identical to
    /// per-row serial calls.
    pub fn forward_batch_into(
        &self,
        x: MatRef<'_>,
        state: &LstmState,
        scratch: &mut LstmBatchScratch,
    ) {
        let batch = x.rows();
        let h = self.hidden;
        assert_eq!(state.h.rows(), batch, "state batch mismatch");
        x.matmul_into(&self.wx.w, &mut scratch.gates);
        state.h.matmul_into(&self.wh.w, &mut scratch.hh);
        scratch.gates.add_assign(&scratch.hh);
        scratch.gates.add_row_broadcast_assign(&self.b.w);
        scratch.i.reset_to(batch, h);
        scratch.f.reset_to(batch, h);
        scratch.g.reset_to(batch, h);
        scratch.o.reset_to(batch, h);
        scratch.c_new.reset_to(batch, h);
        scratch.tanh_c_new.reset_to(batch, h);
        scratch.h_new.reset_to(batch, h);
        for r in 0..batch {
            let grow = scratch.gates.row(r);
            let crow = state.c.row(r);
            for j in 0..h {
                let iv = sigmoid(grow[j]);
                let fv = sigmoid(grow[h + j]);
                let gv = grow[2 * h + j].tanh();
                let ov = sigmoid(grow[3 * h + j]);
                let cv = fv * crow[j] + iv * gv;
                let tv = cv.tanh();
                scratch.i.set(r, j, iv);
                scratch.f.set(r, j, fv);
                scratch.g.set(r, j, gv);
                scratch.o.set(r, j, ov);
                scratch.c_new.set(r, j, cv);
                scratch.tanh_c_new.set(r, j, tv);
                scratch.h_new.set(r, j, ov * tv);
            }
        }
    }

    /// One backward step (for BPTT, call in reverse time order threading
    /// `dh_prev`/`dc_prev` into the previous step). `x` and `h_prev` are the
    /// input and hidden state the forward step consumed (the cache stores
    /// neither). Accumulates parameter gradients and returns
    /// `(dx, dh_prev, dc_prev)`. A whole 1-row sequence runs faster, with
    /// the same float operations, through [`LstmCell::backward_sequence`].
    pub fn backward(
        &mut self,
        x: &Matrix,
        h_prev: &Matrix,
        cache: &LstmCache,
        dh: &Matrix,
        dc: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let batch = dh.rows();
        let h = self.hidden;
        let mut dgates = Matrix::zeros(batch, 4 * h);
        let mut dc_prev = Matrix::zeros(batch, h);
        for r in 0..batch {
            gate_grads(
                cache,
                r,
                dh.row(r),
                dc.row(r),
                dgates.row_mut(r),
                dc_prev.row_mut(r),
            );
        }
        self.wx.g.add_scaled(&x.matmul_tn(&dgates), 1.0);
        self.wh.g.add_scaled(&h_prev.matmul_tn(&dgates), 1.0);
        self.b.g.add_scaled(&dgates.sum_rows(), 1.0);
        let dx = dgates.matmul_nt(&self.wx.w);
        let dh_prev = dgates.matmul_nt(&self.wh.w);
        (dx, dh_prev, dc_prev)
    }

    /// Backpropagation through time over a whole 1-row sequence that
    /// started from the zero state. Step `t` consumed input `xs[t]` with
    /// forward cache `caches[t]` and produced hidden state `hs` row `t`;
    /// `dhs` row `t` is the loss gradient reaching that hidden state from
    /// outside the recurrence. Parameter gradients are accumulated, and
    /// nothing is returned: input gradients are not computed.
    ///
    /// With zeroed gradients on entry this is bit-identical to calling
    /// [`LstmCell::backward`] for `t = T-1, …, 0`, threading
    /// `dh = dh_prev + dhs[t]` and `dc = dc_prev` from zero:
    ///
    /// * the time loop runs only the per-step gate formula and the
    ///   `(dh, dc)` carry. The recurrent `dgates · whᵀ` is a row times the
    ///   transposed `wh` ([`Matrix::vecmat_into`]), the same ascending-k
    ///   chain per element as the 1-row `matmul_nt`;
    /// * the gate gradients are stacked in reverse time order, so the
    ///   weight gradients after the loop ([`Matrix::add_matmul_tn`] and a
    ///   row sum) add each element's `T` terms in the per-step loop's
    ///   descending-t order.
    ///
    /// # Panics
    ///
    /// Panics if the sequence lengths or widths disagree.
    pub fn backward_sequence(
        &mut self,
        xs: &[&[f32]],
        hs: &Matrix,
        caches: &[&LstmCache],
        dhs: &Matrix,
    ) {
        let t_len = caches.len();
        let h = self.hidden;
        assert_eq!(xs.len(), t_len, "one input per step");
        assert_eq!(hs.shape(), (t_len, h), "hs is T×hidden");
        assert_eq!(dhs.shape(), (t_len, h), "dhs is T×hidden");
        if t_len == 0 {
            return;
        }
        // Row `T-1-t` of each stack holds step `t`.
        let mut xs_rev = Matrix::zeros(t_len, self.input_dim());
        let mut h_prev_rev = Matrix::zeros(t_len, h);
        let mut dgates_rev = Matrix::zeros(t_len, 4 * h);
        // Only steps after the first carry a gradient back in time, so a
        // one-step episode (Layer-Sequential search) needs no transpose.
        let wh_t = (t_len > 1).then(|| self.wh.w.transpose());
        let mut dh_carry = vec![0.0f32; h];
        let mut dh = vec![0.0f32; h];
        let mut dc = vec![0.0f32; h];
        let mut dc_prev = vec![0.0f32; h];
        for t in (0..t_len).rev() {
            let r = t_len - 1 - t;
            for ((d, carry), ext) in dh.iter_mut().zip(&dh_carry).zip(dhs.row(t)) {
                *d = carry + ext;
            }
            gate_grads(caches[t], 0, &dh, &dc, dgates_rev.row_mut(r), &mut dc_prev);
            std::mem::swap(&mut dc, &mut dc_prev);
            xs_rev.row_mut(r).copy_from_slice(xs[t]);
            if t > 0 {
                let wh_t = wh_t.as_ref().expect("made for sequences of 2+ steps");
                h_prev_rev.row_mut(r).copy_from_slice(hs.row(t - 1));
                wh_t.vecmat_into(dgates_rev.row(r), &mut dh_carry);
            }
        }
        self.wx.g.add_matmul_tn(&xs_rev, &dgates_rev);
        self.wh.g.add_matmul_tn(&h_prev_rev, &dgates_rev);
        self.b.g.add_assign(&dgates_rev.sum_rows());
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.wx.zero_grad();
        self.wh.zero_grad();
        self.b.zero_grad();
    }

    /// Mutable references to the cell's parameters (for optimizers).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    fn scalar_loss(cell: &LstmCell, xs: &[Matrix]) -> f32 {
        // Sum of all hidden outputs over a short unrolled sequence.
        let mut state = LstmState::zeros(1, cell.hidden_dim());
        let mut total = 0.0;
        for x in xs {
            let (next, _) = cell.forward(x, &state);
            total += next.h.data().iter().sum::<f32>();
            state = next;
        }
        total
    }

    /// Full BPTT finite-difference gradient check over a 3-step sequence —
    /// validates the recurrent path through both h and c.
    #[test]
    fn bptt_gradient_check() {
        let mut rng = Rng::seed_from_u64(11);
        let mut cell = LstmCell::new(3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(1, 3, &mut rng)).collect();

        // Analytical grads via BPTT.
        cell.zero_grad();
        let mut state = LstmState::zeros(1, 4);
        let mut caches = Vec::new();
        let mut h_prevs = Vec::new();
        for x in &xs {
            let (next, cache) = cell.forward(x, &state);
            caches.push(cache);
            h_prevs.push(state.h.clone());
            state = next;
        }
        let mut dh = Matrix::from_vec(1, 4, vec![1.0; 4]);
        let mut dc = Matrix::zeros(1, 4);
        for t in (0..xs.len()).rev() {
            let (_dx, dh_prev, dc_prev) = cell.backward(&xs[t], &h_prevs[t], &caches[t], &dh, &dc);
            // Every step's h contributes 1.0 to the loss.
            dh = dh_prev.add(&Matrix::from_vec(1, 4, vec![1.0; 4]));
            dc = dc_prev;
        }

        let eps = 1e-2;
        let checks = [(0usize, 0usize), (1, 5), (2, 11)];
        for &(r, c) in &checks {
            let mut pert = cell.clone();
            let orig = pert.wx.w.get(r, c);
            pert.wx.w.set(r, c, orig + eps);
            let lp = scalar_loss(&pert, &xs);
            pert.wx.w.set(r, c, orig - eps);
            let lm = scalar_loss(&pert, &xs);
            let num = (lp - lm) / (2.0 * eps);
            let ana = cell.wx.g.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "dWx[{r},{c}]: numeric {num} vs analytic {ana}"
            );
        }
        for &(r, c) in &[(0usize, 0usize), (3, 7)] {
            let mut pert = cell.clone();
            let orig = pert.wh.w.get(r, c);
            pert.wh.w.set(r, c, orig + eps);
            let lp = scalar_loss(&pert, &xs);
            pert.wh.w.set(r, c, orig - eps);
            let lm = scalar_loss(&pert, &xs);
            let num = (lp - lm) / (2.0 * eps);
            let ana = cell.wh.g.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "dWh[{r},{c}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = Rng::seed_from_u64(12);
        let cell = LstmCell::new(5, 8, &mut rng);
        let x = Matrix::xavier(2, 5, &mut rng);
        let (state, _) = cell.forward(&x, &LstmState::zeros(2, 8));
        assert_eq!(state.h.shape(), (2, 8));
        assert_eq!(state.c.shape(), (2, 8));
        // h = o * tanh(c) is bounded by (-1, 1).
        assert!(state.h.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn forget_bias_is_one() {
        let mut rng = Rng::seed_from_u64(13);
        let cell = LstmCell::new(2, 3, &mut rng);
        for j in 3..6 {
            assert_eq!(cell.b.w.get(0, j), 1.0);
        }
        assert_eq!(cell.b.w.get(0, 0), 0.0);
    }

    #[test]
    fn state_persists_information() {
        // Feeding the same input twice from different states must give
        // different outputs (the recurrence actually matters).
        let mut rng = Rng::seed_from_u64(14);
        let cell = LstmCell::new(2, 4, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let (s1, _) = cell.forward(&x, &LstmState::zeros(1, 4));
        let (s2, _) = cell.forward(&x, &s1);
        assert_ne!(s1.h, s2.h);
    }
}
