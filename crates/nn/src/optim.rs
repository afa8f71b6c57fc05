//! The optimizer: Adam at a constant learning rate with global-norm
//! gradient clipping.

use crate::{Binding, ParamStore};
use ema_autodiff::Grads;
use ema_tensor::Tensor;

/// Global-norm gradient clip: a gradient set whose global L2 norm
/// exceeds this is scaled down to it before the Adam update.
const GRAD_CLIP: f64 = 5.0;

/// Global L2 norm over every bound parameter's gradient — the quantity
/// global-norm clipping compares against, exposed so the training loop
/// can report it per epoch (obs telemetry, divergence diagnosis).
/// Absent gradients contribute zero without materializing zero tensors.
#[must_use]
pub fn global_grad_norm(binding: &Binding, grads: &Grads) -> f64 {
    let mut sq = 0.0;
    for (_, var) in binding.iter() {
        sq += grads.get(var).map_or(0.0, Tensor::sq_sum);
    }
    sq.sqrt()
}

/// Computes the global clip factor (`<= 1`) for a gradient set.
fn clip_factor(binding: &Binding, grads: &Grads) -> f64 {
    let norm = global_grad_norm(binding, grads);
    if norm > GRAD_CLIP {
        GRAD_CLIP / norm
    } else {
        1.0
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction, at a constant
/// learning rate, clipping gradients at a global norm of `GRAD_CLIP`.
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    step: usize,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate (the
    /// paper uses `0.01`) and standard betas (0.9, 0.999).
    #[must_use]
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            let i = self.m.len();
            let dims = store.value(crate::params::param_id_from_index(i)).dims().to_vec();
            self.m.push(Tensor::zeros(&dims));
            self.v.push(Tensor::zeros(&dims));
        }
    }

    /// Applies one update to every parameter in `store` using the
    /// gradients from the latest backward pass.
    pub fn step(&mut self, store: &mut ParamStore, binding: &Binding, grads: &Grads) {
        self.ensure_state(store);
        self.step += 1;
        let lr = self.learning_rate;
        let factor = clip_factor(binding, grads);
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        for (id, var) in binding.iter() {
            // The clip factor folds into the per-element gradient read:
            // no scaled gradient tensor is ever materialized. The
            // `factor < 1.0` guard keeps the arithmetic (and signed
            // zeros) bit-identical to the unclipped path.
            let grad = grads.get(var);
            let i = id.index();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let param = store.value_mut(id);
            for j in 0..param.len() {
                let mut gj = grad.map_or(0.0, |g| g.data()[j]);
                if factor < 1.0 {
                    gj *= factor;
                }
                m.data_mut()[j] = self.beta1 * m.data()[j] + (1.0 - self.beta1) * gj;
                v.data_mut()[j] = self.beta2 * v.data()[j] + (1.0 - self.beta2) * gj * gj;
                let mhat = m.data()[j] / bc1;
                let vhat = v.data()[j] / bc2;
                param.data_mut()[j] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_autodiff::Tape;

    /// Minimises `(w - 3)²` and checks convergence.
    fn optimise(opt: &mut Adam, iters: usize) -> f64 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec1(vec![0.0]));
        for _ in 0..iters {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let target = tape.leaf(Tensor::from_vec1(vec![3.0]));
            let diff = tape.sub(binding.var(w), target);
            let loss = {
                let sq = tape.square(diff);
                tape.sum_all(sq)
            };
            let grads = tape.backward(loss);
            opt.step(&mut store, &binding, &grads);
        }
        store.value(w).data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let w = optimise(&mut adam, 300);
        assert!((w - 3.0).abs() < 0.01, "Adam ended at {w}");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn grad_clip_bounds_update() {
        // One step on a gradient of global norm ≫ c across two
        // parameters: the clipped gradient has norm exactly c, so the
        // first moment (1−β₁)·g has global norm (1−β₁)·c.
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::from_vec1(vec![0.0, 0.0]));
        let b = store.register("b", Tensor::from_vec1(vec![0.0]));
        let mut adam = Adam::new(0.01);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let ta = tape.leaf(Tensor::from_vec1(vec![1000.0, -2000.0]));
        let tb = tape.leaf(Tensor::from_vec1(vec![500.0]));
        let da = tape.sub(binding.var(a), ta);
        let db = tape.sub(binding.var(b), tb);
        let (sa, sb) = (tape.square(da), tape.square(db));
        let loss = tape.add(tape.sum_all(sa), tape.sum_all(sb));
        let grads = tape.backward(loss);
        assert!(global_grad_norm(&binding, &grads) > 100.0 * GRAD_CLIP);
        adam.step(&mut store, &binding, &grads);
        let m_norm = adam.m.iter().map(Tensor::sq_sum).sum::<f64>().sqrt();
        let expected = (1.0 - adam.beta1) * GRAD_CLIP;
        assert!(
            (m_norm - expected).abs() < 1e-12,
            "first-moment norm {m_norm}, expected {expected}"
        );
    }
}
