//! The SGD optimizer.
//!
//! [`Sgd`] is stateful and identifies parameters by their stable visit
//! order in [`crate::Network::for_each_param`], so the same optimizer
//! instance must be used with the same network throughout a run.

use forms_tensor::Tensor;

use crate::{Network, Param};

/// Stochastic gradient descent with momentum and decoupled weight decay.
///
/// # Example
///
/// ```
/// use forms_dnn::{Layer, Network, Sgd};
/// use forms_rng::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Network::new(vec![Layer::linear(&mut rng, 4, 2)]);
/// let mut opt = Sgd::new(0.1).momentum(0.9);
/// opt.step(&mut net); // zero gradients: no-op update
/// ```
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not a positive finite number.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is outside `[0, 1)`.
    pub fn momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// Sets decoupled weight decay (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay` is negative.
    pub fn weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the network's parameters, then leaves gradients untouched (call
    /// [`Network::zero_grad`] before the next accumulation).
    pub fn step(&mut self, net: &mut Network) {
        let mut idx = 0;
        let velocity = &mut self.velocity;
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        net.for_each_param(&mut |p: &mut Param| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.dims()));
            }
            let v = &mut velocity[idx];
            if mu > 0.0 {
                v.scale(mu);
                v.axpy(1.0, &p.grad);
                p.value.axpy(-lr, v);
            } else {
                p.value.axpy(-lr, &p.grad);
            }
            if wd > 0.0 {
                p.value.scale(1.0 - lr * wd);
            }
            idx += 1;
        });
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use forms_rng::StdRng;
    use forms_tensor::Tensor;

    /// Minimize ||Wx - y||² on a fixed (x, y) pair and check the loss drops.
    fn fit_linear(opt: &mut Sgd, steps: usize) -> (f32, f32) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(vec![Layer::linear(&mut rng, 3, 2)]);
        let x = Tensor::from_vec(vec![1.0, -0.5, 0.25], &[1, 3]);
        let target = Tensor::from_vec(vec![0.7, -0.3], &[1, 2]);
        let loss_of = |net: &mut Network| {
            let y = net.forward(&x);
            (&y - &target).norm_sq()
        };
        let initial = loss_of(&mut net);
        for _ in 0..steps {
            net.zero_grad();
            let y = net.forward_train(&x);
            let grad = (&y - &target).map(|v| 2.0 * v);
            net.backward(&grad);
            opt.step(&mut net);
        }
        (initial, loss_of(&mut net))
    }

    #[test]
    fn sgd_reduces_loss() {
        let (initial, fin) = fit_linear(&mut Sgd::new(0.05), 100);
        assert!(fin < initial * 0.01, "loss {initial} → {fin}");
    }

    #[test]
    fn sgd_with_momentum_reduces_loss() {
        let (initial, fin) = fit_linear(&mut Sgd::new(0.02).momentum(0.9), 100);
        assert!(fin < initial * 0.01, "loss {initial} → {fin}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(vec![Layer::linear(&mut rng, 4, 4)]);
        let before: f32 = net.param_values().iter().map(Tensor::norm_sq).sum();
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        for _ in 0..10 {
            net.zero_grad(); // zero gradients: only decay acts
            opt.step(&mut net);
        }
        let after: f32 = net.param_values().iter().map(Tensor::norm_sq).sum();
        assert!(
            after < before * 0.7,
            "decay had no effect: {before} → {after}"
        );
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
