//! Trainable parameters.

use forms_tensor::Tensor;

/// A trainable parameter: a value tensor plus its accumulated gradient.
///
/// Layers own their `Param`s; the optimizer and the ADMM regularizer visit them
/// through [`crate::Network::for_each_param`].
///
/// # Example
///
/// ```
/// use forms_dnn::Param;
/// use forms_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2]));
/// p.grad.data_mut()[0] = 0.5;
/// p.apply_grad(0.1);
/// assert_eq!(p.value.data(), &[0.95, 1.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// The parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value`, accumulated by
    /// `backward` passes and cleared by [`zero_grad`](Self::zero_grad).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Self { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.dims());
    }

    /// Plain gradient-descent step: `value -= lr * grad`.
    pub fn apply_grad(&mut self, lr: f32) {
        self.value.axpy(-lr, &self.grad);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[3]));
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::full(&[2], 5.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn apply_grad_descends() {
        let mut p = Param::new(Tensor::zeros(&[1]));
        p.grad = Tensor::full(&[1], 2.0);
        p.apply_grad(0.5);
        assert_eq!(p.value.data(), &[-1.0]);
    }
}
