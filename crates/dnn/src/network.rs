//! Feed-forward networks.

use forms_tensor::Tensor;

use crate::layer::WeightLayerMut;
use crate::{Layer, Param};

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// Residual topologies are expressed with [`Layer::Residual`] blocks inside
/// the stack, so one `Network` type covers the whole model zoo.
///
/// # Example
///
/// ```
/// use forms_dnn::{Layer, Network};
/// use forms_tensor::Tensor;
/// use forms_rng::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Layer::conv2d(&mut rng, 1, 2, 3, 1, 1),
///     Layer::relu(),
///     Layer::flatten(),
///     Layer::linear(&mut rng, 2 * 4 * 4, 3),
/// ]);
/// let y = net.forward(&Tensor::ones(&[1, 1, 4, 4]));
/// assert_eq!(y.dims(), &[1, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from a layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Consumes the network, returning its layer stack.
    pub fn into_layers(self) -> Vec<Layer> {
        self.layers
    }

    /// Inference-mode forward pass (no caches, running batch-norm stats).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_mode(x, false)
    }

    /// Training-mode forward pass (caches retained for `backward`).
    pub fn forward_train(&mut self, x: &Tensor) -> Tensor {
        self.forward_mode(x, true)
    }

    fn forward_mode(&mut self, x: &Tensor, training: bool) -> Tensor {
        let mut y = x.clone();
        for layer in &mut self.layers {
            y = layer.forward(&y, training);
        }
        y
    }

    /// Backward pass through the whole stack; accumulates parameter
    /// gradients and returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if [`forward_train`](Self::forward_train) was not called first.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Visits every trainable parameter in a stable depth-first order.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
    }

    /// Visits every weight-bearing (conv/linear) layer in a stable
    /// depth-first order.
    pub fn for_each_weight_layer(&mut self, f: &mut dyn FnMut(WeightLayerMut<'_>)) {
        for layer in &mut self.layers {
            layer.for_each_weight_layer(f);
        }
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_param(&mut Param::zero_grad);
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.len());
        n
    }

    /// Number of weight-bearing (conv/linear) layers, including those nested
    /// in residual blocks. Takes `&self` so callers never have to clone the
    /// network just to count.
    pub fn weight_layer_count(&self) -> usize {
        self.layers.iter().map(Layer::weight_layer_count).sum()
    }

    /// Snapshot of all parameter values in visit order (for checkpointing
    /// and the ADMM auxiliary variables).
    pub fn param_values(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.for_each_param(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores parameter values from a snapshot taken by
    /// [`param_values`](Self::param_values).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has the wrong number or shapes of tensors.
    pub fn set_param_values(&mut self, values: &[Tensor]) {
        let mut it = values.iter();
        self.for_each_param(&mut |p| {
            let v = it.next().expect("snapshot too short");
            assert_eq!(v.dims(), p.value.dims(), "snapshot shape mismatch");
            p.value = v.clone();
        });
        assert!(it.next().is_none(), "snapshot too long");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_rng::StdRng;

    fn small_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::conv2d(&mut rng, 1, 2, 3, 1, 1),
            Layer::relu(),
            Layer::max_pool(2),
            Layer::flatten(),
            Layer::linear(&mut rng, 2 * 2 * 2, 3),
        ])
    }

    #[test]
    fn forward_shapes() {
        let mut net = small_net(0);
        let y = net.forward(&Tensor::ones(&[4, 1, 4, 4]));
        assert_eq!(y.dims(), &[4, 3]);
    }

    #[test]
    fn end_to_end_grad_check() {
        let mut net = small_net(9);
        let mut rng = StdRng::seed_from_u64(5);
        let x = forms_tensor::uniform(&mut rng, &[2, 1, 4, 4], 1.0);
        let y = net.forward_train(&x);
        net.zero_grad();
        let gx = {
            let y2 = net.forward_train(&x);
            assert_eq!(y2, y);
            net.backward(&Tensor::ones(y.dims()))
        };
        let eps = 1e-2;
        for i in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (net.forward(&xp).sum() - net.forward(&xm).sum()) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "input grad mismatch at {i}: {num} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn param_snapshot_round_trip() {
        let mut net = small_net(3);
        let snap = net.param_values();
        let mut other = small_net(4);
        other.set_param_values(&snap);
        assert_eq!(other.param_values(), snap);
        // Same params → same outputs.
        let x = Tensor::ones(&[1, 1, 4, 4]);
        assert_eq!(net.forward(&x), other.forward(&x));
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = small_net(0);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = net.forward_train(&x);
        net.backward(&Tensor::ones(y.dims()));
        let mut nonzero = 0;
        net.for_each_param(&mut |p| nonzero += p.grad.count_nonzero());
        assert!(nonzero > 0);
        net.zero_grad();
        let mut after = 0;
        net.for_each_param(&mut |p| after += p.grad.count_nonzero());
        assert_eq!(after, 0);
    }

    #[test]
    fn weight_layer_count_sees_nested() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = crate::ResidualBlock::new(
            vec![
                Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
                Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
            ],
            Some(Layer::conv2d(&mut rng, 2, 2, 1, 1, 0)),
        );
        let net = Network::new(vec![
            Layer::conv2d(&mut rng, 1, 2, 3, 1, 1),
            Layer::Residual(block),
            Layer::flatten(),
            Layer::linear(&mut rng, 8, 2),
        ]);
        assert_eq!(net.weight_layer_count(), 5);
    }
}
