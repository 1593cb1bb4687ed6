//! Finite-difference gradient checks for every tinynn layer.
//!
//! The RL results upstream are meaningless if backprop is wrong, so each
//! hand-written backward pass is verified against central differences:
//! for a scalar loss `L = Σ out∘T` (T a fixed random target matrix, so
//! `∂L/∂out = T`), every parameter *and* every input gradient must match
//! `(L(θ+ε) − L(θ−ε)) / 2ε`.
//!
//! Tolerances are set for `f32`: central differencing leaves ~`ε²`
//! truncation plus ~`ulp(L)/ε` rounding, so with `ε = 1e-2` a 2% relative
//! gate (with a small absolute floor for near-zero gradients) is tight
//! enough to catch a wrong term and loose enough to never flake.

use rand::Rng as _;
use tinynn::{Activation, Linear, LstmCell, LstmState, Matrix, Mlp, Rng, SeedableRng};

const EPS: f32 = 1e-2;
const REL_TOL: f32 = 2e-2;
const ABS_FLOOR: f32 = 1e-3;

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.0..1.0f32))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn weighted_sum(out: &Matrix, t: &Matrix) -> f32 {
    out.data().iter().zip(t.data()).map(|(o, w)| o * w).sum()
}

fn assert_grad_close(analytic: f32, numeric: f32, ctx: &str) {
    let denom = analytic.abs().max(numeric.abs()).max(ABS_FLOOR);
    let rel = (analytic - numeric).abs() / denom;
    assert!(
        rel < REL_TOL || (analytic - numeric).abs() < ABS_FLOOR,
        "{ctx}: analytic {analytic:.6} vs numeric {numeric:.6} (rel err {rel:.4})"
    );
}

// ---- Linear ----------------------------------------------------------------

#[test]
fn linear_param_and_input_gradients_match_finite_differences() {
    let mut rng = Rng::seed_from_u64(11);
    let mut layer = Linear::new(4, 3, &mut rng);
    let mut x = rand_matrix(2, 4, &mut rng);
    let t = rand_matrix(2, 3, &mut rng);

    layer.zero_grad();
    let dx = layer.backward(&x, &t);

    // Weight gradients.
    let analytic_w = layer.w.g.clone();
    for k in 0..analytic_w.data().len() {
        let num = {
            let orig = layer.w.w.data()[k];
            layer.w.w.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&layer.forward(&x), &t);
            layer.w.w.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&layer.forward(&x), &t);
            layer.w.w.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(analytic_w.data()[k], num, &format!("Linear w[{k}]"));
    }

    // Bias gradients.
    let analytic_b = layer.b.g.clone();
    for k in 0..analytic_b.data().len() {
        let num = {
            let orig = layer.b.w.data()[k];
            layer.b.w.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&layer.forward(&x), &t);
            layer.b.w.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&layer.forward(&x), &t);
            layer.b.w.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(analytic_b.data()[k], num, &format!("Linear b[{k}]"));
    }

    // Input gradients.
    for k in 0..x.data().len() {
        let num = {
            let orig = x.data()[k];
            x.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&layer.forward(&x), &t);
            x.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&layer.forward(&x), &t);
            x.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dx.data()[k], num, &format!("Linear dx[{k}]"));
    }
}

#[test]
fn linear_backward_accumulates_across_calls() {
    // The documented contract: backward *accumulates* into `g` until
    // `zero_grad`. Optimizer steps rely on this for multi-episode batches.
    let mut rng = Rng::seed_from_u64(12);
    let mut layer = Linear::new(3, 2, &mut rng);
    let x = rand_matrix(1, 3, &mut rng);
    let t = rand_matrix(1, 2, &mut rng);

    layer.zero_grad();
    layer.backward(&x, &t);
    let once = layer.w.g.clone();
    layer.backward(&x, &t);
    for k in 0..once.data().len() {
        assert!(
            (layer.w.g.data()[k] - 2.0 * once.data()[k]).abs() <= 1e-5,
            "gradient did not accumulate at slot {k}"
        );
    }
}

// ---- Mlp -------------------------------------------------------------------

#[test]
fn mlp_gradients_match_finite_differences() {
    // Tanh keeps the loss surface smooth; ReLU kinks would poison the
    // finite-difference estimate near activation boundaries.
    let mut rng = Rng::seed_from_u64(21);
    let mut mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng);
    let mut x = rand_matrix(2, 4, &mut rng);
    let t = rand_matrix(2, 3, &mut rng);

    mlp.zero_grad();
    let (_, cache) = mlp.forward(&x);
    let dx = mlp.backward(&cache, &t);

    let analytic: Vec<Matrix> = mlp.params_mut().iter().map(|p| p.g.clone()).collect();
    for (pi, grads) in analytic.iter().enumerate() {
        for k in 0..grads.data().len() {
            let num = {
                let orig = mlp.params_mut()[pi].w.data()[k];
                mlp.params_mut()[pi].w.data_mut()[k] = orig + EPS;
                let plus = weighted_sum(&mlp.infer(&x), &t);
                mlp.params_mut()[pi].w.data_mut()[k] = orig - EPS;
                let minus = weighted_sum(&mlp.infer(&x), &t);
                mlp.params_mut()[pi].w.data_mut()[k] = orig;
                (plus - minus) / (2.0 * EPS)
            };
            assert_grad_close(grads.data()[k], num, &format!("Mlp param {pi}[{k}]"));
        }
    }

    for k in 0..x.data().len() {
        let num = {
            let orig = x.data()[k];
            x.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&mlp.infer(&x), &t);
            x.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&mlp.infer(&x), &t);
            x.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dx.data()[k], num, &format!("Mlp dx[{k}]"));
    }
}

// ---- LstmCell --------------------------------------------------------------

/// Loss over one LSTM step touching both outputs: `Σ h'∘Th + Σ c'∘Tc`.
fn lstm_step_loss(cell: &LstmCell, x: &Matrix, state: &LstmState, th: &Matrix, tc: &Matrix) -> f32 {
    let (next, _) = cell.forward(x, state);
    weighted_sum(&next.h, th) + weighted_sum(&next.c, tc)
}

#[test]
fn lstm_cell_gradients_match_finite_differences() {
    let mut rng = Rng::seed_from_u64(31);
    let (input, hidden, batch) = (3, 4, 2);
    let mut cell = LstmCell::new(input, hidden, &mut rng);
    let mut x = rand_matrix(batch, input, &mut rng);
    let mut state = LstmState {
        h: rand_matrix(batch, hidden, &mut rng),
        c: rand_matrix(batch, hidden, &mut rng),
    };
    let th = rand_matrix(batch, hidden, &mut rng);
    let tc = rand_matrix(batch, hidden, &mut rng);

    cell.zero_grad();
    let (_, cache) = cell.forward(&x, &state);
    let (dx, dh_prev, dc_prev) = cell.backward(&x, &state.h, &cache, &th, &tc);

    // Parameter gradients (wx, wh, b), via the data_mut on the public fields.
    macro_rules! check_param {
        ($field:ident) => {
            let analytic = cell.$field.g.clone();
            for k in 0..analytic.data().len() {
                let num = {
                    let orig = cell.$field.w.data()[k];
                    cell.$field.w.data_mut()[k] = orig + EPS;
                    let plus = lstm_step_loss(&cell, &x, &state, &th, &tc);
                    cell.$field.w.data_mut()[k] = orig - EPS;
                    let minus = lstm_step_loss(&cell, &x, &state, &th, &tc);
                    cell.$field.w.data_mut()[k] = orig;
                    (plus - minus) / (2.0 * EPS)
                };
                assert_grad_close(
                    analytic.data()[k],
                    num,
                    &format!("LstmCell {}[{k}]", stringify!($field)),
                );
            }
        };
    }
    check_param!(wx);
    check_param!(wh);
    check_param!(b);

    // Input and carried-state gradients.
    for k in 0..x.data().len() {
        let num = {
            let orig = x.data()[k];
            x.data_mut()[k] = orig + EPS;
            let plus = lstm_step_loss(&cell, &x, &state, &th, &tc);
            x.data_mut()[k] = orig - EPS;
            let minus = lstm_step_loss(&cell, &x, &state, &th, &tc);
            x.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dx.data()[k], num, &format!("LstmCell dx[{k}]"));
    }
    for k in 0..state.h.data().len() {
        let num = {
            let orig = state.h.data()[k];
            state.h.data_mut()[k] = orig + EPS;
            let plus = lstm_step_loss(&cell, &x, &state, &th, &tc);
            state.h.data_mut()[k] = orig - EPS;
            let minus = lstm_step_loss(&cell, &x, &state, &th, &tc);
            state.h.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dh_prev.data()[k], num, &format!("LstmCell dh_prev[{k}]"));
    }
    for k in 0..state.c.data().len() {
        let num = {
            let orig = state.c.data()[k];
            state.c.data_mut()[k] = orig + EPS;
            let plus = lstm_step_loss(&cell, &x, &state, &th, &tc);
            state.c.data_mut()[k] = orig - EPS;
            let minus = lstm_step_loss(&cell, &x, &state, &th, &tc);
            state.c.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dc_prev.data()[k], num, &format!("LstmCell dc_prev[{k}]"));
    }
}

#[test]
fn lstm_bptt_over_two_steps_matches_finite_differences() {
    // The crate's contract is caller-owned BPTT: run backward in reverse
    // time order, threading (dh_prev, dc_prev) into the earlier step, with
    // parameter gradients accumulating across steps. Verify the *summed*
    // wx gradient against finite differences of the unrolled loss.
    let mut rng = Rng::seed_from_u64(41);
    let (input, hidden, batch) = (3, 4, 2);
    let mut cell = LstmCell::new(input, hidden, &mut rng);
    let x1 = rand_matrix(batch, input, &mut rng);
    let x2 = rand_matrix(batch, input, &mut rng);
    let th = rand_matrix(batch, hidden, &mut rng);

    let unrolled_loss = |cell: &LstmCell| -> f32 {
        let s0 = LstmState::zeros(batch, hidden);
        let (s1, _) = cell.forward(&x1, &s0);
        let (s2, _) = cell.forward(&x2, &s1);
        weighted_sum(&s2.h, &th)
    };

    cell.zero_grad();
    let s0 = LstmState::zeros(batch, hidden);
    let (s1, cache1) = cell.forward(&x1, &s0);
    let (_s2, cache2) = cell.forward(&x2, &s1);
    let zero_dc = Matrix::zeros(batch, hidden);
    let (_dx2, dh1, dc1) = cell.backward(&x2, &s1.h, &cache2, &th, &zero_dc);
    let (_dx1, _dh0, _dc0) = cell.backward(&x1, &s0.h, &cache1, &dh1, &dc1);

    let analytic = cell.wx.g.clone();
    for k in 0..analytic.data().len() {
        let num = {
            let orig = cell.wx.w.data()[k];
            cell.wx.w.data_mut()[k] = orig + EPS;
            let plus = unrolled_loss(&cell);
            cell.wx.w.data_mut()[k] = orig - EPS;
            let minus = unrolled_loss(&cell);
            cell.wx.w.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(analytic.data()[k], num, &format!("BPTT wx[{k}]"));
    }
}
