use serde::{Deserialize, Serialize};

use crate::Param;

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// One `Adam` instance owns a shared step counter; call [`Adam::step`] once
/// per update with every parameter of the network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Number of updates performed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to every parameter, consuming the
    /// accumulated gradients (gradients are *not* cleared — call
    /// `zero_grad` on the layers before the next accumulation).
    ///
    /// One zipped pass per parameter over `(w, g, m, v)`, with the
    /// per-update constants hoisted; the per-element expression is the
    /// textbook one, evaluated in the same order for every element.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (one_minus_beta1, one_minus_beta2) = (1.0 - beta1, 1.0 - beta2);
        for p in params.iter_mut() {
            let Param { w, g, m, v } = &mut **p;
            let n = w.data().len();
            assert!(
                g.data().len() == n && m.data().len() == n && v.data().len() == n,
                "parameter buffers disagree in size"
            );
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            for ((w, &g), (m, v)) in w.data_mut().iter_mut().zip(g.data()).zip(moments) {
                *m = beta1 * *m + one_minus_beta1 * g;
                *v = beta2 * *v + one_minus_beta2 * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Adam on a 1-D quadratic must converge to the minimum.
    #[test]
    fn minimizes_quadratic() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.w.get(0, 0);
            p.g.set(0, 0, 2.0 * (x - 3.0)); // d/dx (x-3)^2
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        assert!((p.w.get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn first_step_moves_by_roughly_lr() {
        // With bias correction, the first Adam step has magnitude ~lr.
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.01);
        p.g.set(0, 0, 123.0);
        opt.step(&mut [&mut p]);
        assert!((p.w.get(0, 0).abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn zero_grad_means_no_movement_after_warmup() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        let mut opt = Adam::new(0.1);
        // No gradient at all: moments stay zero, update is exactly zero.
        opt.step(&mut [&mut p]);
        assert_eq!(p.w.get(0, 0), 1.0);
    }

    #[test]
    fn step_counter_advances() {
        let mut p = Param::new(Matrix::zeros(1, 1));
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut [&mut p]);
        opt.step(&mut [&mut p]);
        assert_eq!(opt.steps(), 2);
    }
}
