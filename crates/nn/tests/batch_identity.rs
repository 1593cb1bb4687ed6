//! Batched-vs-serial bit-identity: the contract the vectorized RL rollout
//! and the learner update rest on. A batched forward over `N` stacked rows
//! must equal `N` separate 1-row forwards on every element, and the
//! whole-sequence LSTM backward and the zipped Adam step must equal the
//! per-step and indexed loops they replace, compared by `to_bits` — not
//! approximately, exactly. The per-element accumulation order does not
//! depend on how rows are batched, so any divergence here is a kernel bug,
//! not float noise. Inputs mix in `+0.0` and `-0.0` so signed-zero
//! handling is pinned too.

use proptest::prelude::*;
use rand::Rng as _;
use tinynn::{
    Activation, Adam, LstmBatchScratch, LstmCache, LstmCell, LstmState, MatRef, Matrix, Mlp,
    MlpScratch, Param, Rng, SeedableRng,
};

/// `n` values in `(-scale, scale)`, about a quarter of them `+0.0` or
/// `-0.0`.
fn with_signed_zeros(rng: &mut Rng, n: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-scale..scale),
        })
        .collect()
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (k, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: {x} vs {y}");
    }
}

/// The Adam step as an indexed loop over each parameter: the reference
/// the zipped [`Adam::step`] must match bit for bit. `t` is the step count
/// after this update.
fn adam_step_indexed(opt: &Adam, t: u64, params: &mut [&mut Param]) {
    let bc1 = 1.0 - opt.beta1.powi(t as i32);
    let bc2 = 1.0 - opt.beta2.powi(t as i32);
    for p in params.iter_mut() {
        let n = p.w.data().len();
        for i in 0..n {
            let g = p.g.data()[i];
            let m = opt.beta1 * p.m.data()[i] + (1.0 - opt.beta1) * g;
            let v = opt.beta2 * p.v.data()[i] + (1.0 - opt.beta2) * g * g;
            p.m.data_mut()[i] = m;
            p.v.data_mut()[i] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            p.w.data_mut()[i] -= opt.lr * m_hat / (v_hat.sqrt() + opt.eps);
        }
    }
}

fn assert_rows_bits_eq(batched: &Matrix, row: &Matrix, r: usize, what: &str) {
    assert_eq!(row.rows(), 1);
    for (c, (x, y)) in batched.row(r).iter().zip(row.row(0)).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: row {r} col {c}: batched {x} vs serial {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mlp::forward over a stacked batch == per-row serial forwards, bitwise.
    #[test]
    fn mlp_batched_forward_matches_serial_rows(
        seed in 0u64..1_000,
        batch in 1usize..9,
        data in proptest::collection::vec(-3.0f32..3.0, 8 * 6),
    ) {
        let mut rng = tinynn::Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&[6, 13, 5], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(8, 6, data);
        let stacked = Matrix::from_vec(batch, 6, x.data()[..batch * 6].to_vec());

        let (batched, _) = mlp.forward(&stacked);
        let mut scratch = MlpScratch::new();
        let via_scratch = mlp.infer_batch_into(stacked.view(), &mut scratch).clone();

        for r in 0..batch {
            let row = Matrix::row_from_slice(stacked.row(r));
            let (serial, _) = mlp.forward(&row);
            assert_rows_bits_eq(&batched, &serial, r, "Mlp::forward");
            assert_rows_bits_eq(&via_scratch, &serial, r, "Mlp::infer_batch_into");
        }
    }

    /// LstmCell batched step == per-row serial steps, bitwise, for h and c,
    /// through both the allocating and the scratch-reuse entry points.
    #[test]
    fn lstm_batched_forward_matches_serial_rows(
        seed in 0u64..1_000,
        batch in 1usize..9,
        xdata in proptest::collection::vec(-3.0f32..3.0, 8 * 5),
        hdata in proptest::collection::vec(-1.0f32..1.0, 8 * 4),
        cdata in proptest::collection::vec(-2.0f32..2.0, 8 * 4),
    ) {
        let mut rng = tinynn::Rng::seed_from_u64(seed);
        let cell = LstmCell::new(5, 4, &mut rng);
        let x = Matrix::from_vec(batch, 5, xdata[..batch * 5].to_vec());
        let state = LstmState {
            h: Matrix::from_vec(batch, 4, hdata[..batch * 4].to_vec()),
            c: Matrix::from_vec(batch, 4, cdata[..batch * 4].to_vec()),
        };

        let (next, _) = cell.forward(&x, &state);
        let mut scratch = LstmBatchScratch::new();
        cell.forward_batch_into(x.view(), &state, &mut scratch);

        for r in 0..batch {
            let xr = Matrix::row_from_slice(x.row(r));
            let sr = LstmState {
                h: Matrix::row_from_slice(state.h.row(r)),
                c: Matrix::row_from_slice(state.c.row(r)),
            };
            let (serial, _) = cell.forward(&xr, &sr);
            assert_rows_bits_eq(&next.h, &serial.h, r, "LstmCell h");
            assert_rows_bits_eq(&next.c, &serial.c, r, "LstmCell c");
            assert_rows_bits_eq(scratch.h_new(), &serial.h, r, "LstmBatchScratch h");
            assert_rows_bits_eq(scratch.c_new(), &serial.c, r, "LstmBatchScratch c");
        }
    }

    /// Whole-sequence BPTT == `T` single-step backwards walked in reverse
    /// time order, threading `dh = dh_prev + dhs[t]` and `dc = dc_prev` from
    /// zero, on zeroed gradients: `wx.g`, `wh.g` and `b.g` agree bitwise.
    /// Shapes vary so every tile and tail of the GEMM kernels is hit.
    #[test]
    fn lstm_sequence_backward_matches_per_step_backward(
        seed in 0u64..1_000,
        t_len in 1usize..64,
        input in 1usize..8,
        hidden in 1usize..10,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let cell = LstmCell::new(input, hidden, &mut rng);
        let xs: Vec<Matrix> = (0..t_len)
            .map(|_| Matrix::from_vec(1, input, with_signed_zeros(&mut rng, input, 3.0)))
            .collect();
        let dhs = Matrix::from_vec(t_len, hidden, with_signed_zeros(&mut rng, t_len * hidden, 1.0));

        let mut state = LstmState::zeros(1, hidden);
        let mut h_prevs = Vec::with_capacity(t_len);
        let mut caches = Vec::with_capacity(t_len);
        let mut hs = Matrix::zeros(t_len, hidden);
        for (t, x) in xs.iter().enumerate() {
            let (next, cache) = cell.forward(x, &state);
            h_prevs.push(state.h.clone());
            caches.push(cache);
            hs.row_mut(t).copy_from_slice(next.h.row(0));
            state = next;
        }

        let mut whole = cell.clone();
        whole.zero_grad();
        let x_rows: Vec<&[f32]> = xs.iter().map(|x| x.row(0)).collect();
        let cache_refs: Vec<&LstmCache> = caches.iter().collect();
        whole.backward_sequence(&x_rows, &hs, &cache_refs, &dhs);

        let mut stepwise = cell.clone();
        stepwise.zero_grad();
        let mut dh = Matrix::zeros(1, hidden);
        let mut dc = Matrix::zeros(1, hidden);
        for t in (0..t_len).rev() {
            let dh_total = dh.add(&Matrix::row_from_slice(dhs.row(t)));
            let (_dx, dh_prev, dc_prev) =
                stepwise.backward(&xs[t], &h_prevs[t], &caches[t], &dh_total, &dc);
            dh = dh_prev;
            dc = dc_prev;
        }

        assert_bits_eq(&whole.wx.g, &stepwise.wx.g, "wx.g");
        assert_bits_eq(&whole.wh.g, &stepwise.wh.g, "wh.g");
        assert_bits_eq(&whole.b.g, &stepwise.b.g, "b.g");
    }

    /// A row times the transposed copy of `w` == the 1-row `matmul_nt`
    /// against `w`, bitwise, signed zeros included (both fold each element
    /// from `-0.0` in ascending k).
    #[test]
    fn row_times_transpose_matches_one_row_matmul_nt(
        seed in 0u64..1_000,
        k in 1usize..40,
        n in 1usize..150,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let w = Matrix::from_vec(n, k, with_signed_zeros(&mut rng, n * k, 2.0));
        let x = Matrix::from_vec(1, k, with_signed_zeros(&mut rng, k, 2.0));
        let mut out = vec![f32::NAN; n];
        w.transpose().vecmat_into(x.row(0), &mut out);
        assert_bits_eq(&Matrix::from_vec(1, n, out), &x.matmul_nt(&w), "vecmat");
    }

    /// The zipped `Adam::step` == the indexed per-element loop, bitwise, on
    /// weights and both moments over several updates.
    #[test]
    fn zipped_adam_step_matches_indexed_loop(
        seed in 0u64..1_000,
        rows in 1usize..9,
        cols in 1usize..17,
        updates in 1usize..6,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut params: Vec<Param> = [(rows, cols), (1, cols), (cols, rows)]
            .iter()
            .map(|&(r, c)| {
                let w = with_signed_zeros(&mut rng, r * c, 1.0);
                Param::new(Matrix::from_vec(r, c, w))
            })
            .collect();
        let mut reference = params.clone();
        let mut opt = Adam::new(1e-2);
        let ref_opt = opt.clone();
        for t in 1..=updates as u64 {
            for (p, q) in params.iter_mut().zip(&mut reference) {
                let (r, c) = p.g.shape();
                p.g = Matrix::from_vec(r, c, with_signed_zeros(&mut rng, r * c, 4.0));
                q.g = p.g.clone();
            }
            opt.step(&mut params.iter_mut().collect::<Vec<_>>());
            adam_step_indexed(&ref_opt, t, &mut reference.iter_mut().collect::<Vec<_>>());
            assert_eq!(opt.steps(), t);
            for (p, q) in params.iter().zip(&reference) {
                assert_bits_eq(&p.w, &q.w, "w");
                assert_bits_eq(&p.m, &q.m, "m");
                assert_bits_eq(&p.v, &q.v, "v");
            }
        }
    }

    /// MatRef-borrowed rows give the same bits as owned-Matrix rows.
    #[test]
    fn borrowed_row_forward_matches_owned(
        seed in 0u64..1_000,
        data in proptest::collection::vec(-3.0f32..3.0, 7),
    ) {
        let mut rng = tinynn::Rng::seed_from_u64(seed);
        let layer = tinynn::Linear::new(7, 11, &mut rng);
        let owned = layer.forward(&Matrix::row_from_slice(&data));
        let borrowed = layer.forward_batch(MatRef::row(&data));
        assert_rows_bits_eq(&owned, &borrowed, 0, "Linear borrowed row");
    }
}

/// Products that are all `-0.0` sum to `-0.0` only from a `-0.0` seed, the
/// fold `Iterator::sum` uses: the row-times-transpose keeps that sign in
/// both its register-block and column-tail paths.
#[test]
fn row_times_transpose_keeps_negative_zero_sums() {
    for n in [1usize, 64, 130] {
        let w = Matrix::from_vec(n, 3, vec![-0.0; n * 3]);
        let x = Matrix::row_from_slice(&[1.0, 2.0, 0.5]);
        let mut out = vec![f32::NAN; n];
        w.transpose().vecmat_into(x.row(0), &mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_bits_eq(&Matrix::from_vec(1, n, out), &x.matmul_nt(&w), "vecmat");
    }
}
