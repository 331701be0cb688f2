//! Training and evaluation loops.

use forms_rng::Rng;

use crate::data::Dataset;
use crate::{accuracy, softmax_cross_entropy, top_k_accuracy, Network, Sgd};

/// Configuration for a training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Multiply the learning rate by this factor after each epoch
    /// (1.0 = constant).
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 16,
            lr_decay: 1.0,
        }
    }
}

/// Summary of one epoch (or one full run) of training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainReport {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub train_accuracy: f32,
}

/// Runs one epoch of SGD over a shuffled dataset.
///
/// Returns the mean loss and accuracy observed during the epoch.
///
/// # Panics
///
/// Panics if `batch_size` is zero or the dataset is empty.
pub fn train_epoch<R: Rng + ?Sized>(
    net: &mut Network,
    opt: &mut Sgd,
    data: &mut Dataset,
    batch_size: usize,
    rng: &mut R,
) -> TrainReport {
    assert!(batch_size > 0, "batch size must be positive");
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    data.shuffle(rng);
    let mut total_loss = 0.0;
    let mut total_correct = 0.0;
    let mut batches = 0.0;
    let mut cursor = 0;
    while cursor < data.len() {
        let len = batch_size.min(data.len() - cursor);
        let (x, labels) = data.batch(cursor, len);
        cursor += len;
        net.zero_grad();
        let logits = net.forward_train(&x);
        let out = softmax_cross_entropy(&logits, labels);
        net.backward(&out.grad);
        opt.step(net);
        total_loss += out.loss;
        total_correct += accuracy(&logits, labels);
        batches += 1.0;
    }
    TrainReport {
        loss: total_loss / batches,
        train_accuracy: total_correct / batches,
    }
}

/// Evaluates classification accuracy on a dataset (inference mode).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn evaluate(net: &mut Network, data: &Dataset, batch_size: usize) -> f32 {
    assert!(batch_size > 0, "batch size must be positive");
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0.0;
    for (x, labels) in data.batches(batch_size) {
        let logits = net.forward(&x);
        correct += accuracy(&logits, labels) * labels.len() as f32;
    }
    correct / data.len() as f32
}

/// Top-k classification accuracy on a dataset (inference mode) — the
/// paper's metric for ImageNet is top-5.
///
/// # Panics
///
/// Panics if `batch_size` or `k` is zero.
pub fn evaluate_topk(net: &mut Network, data: &Dataset, batch_size: usize, k: usize) -> f32 {
    assert!(batch_size > 0, "batch size must be positive");
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0.0;
    for (x, labels) in data.batches(batch_size) {
        let logits = net.forward(&x);
        correct += top_k_accuracy(&logits, labels, k) * labels.len() as f32;
    }
    correct / data.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::{models, Sgd};
    use forms_rng::StdRng;

    #[test]
    fn training_learns_synthetic_task() {
        let mut rng = StdRng::seed_from_u64(21);
        let spec = SyntheticSpec {
            classes: 4,
            channels: 1,
            height: 8,
            width: 8,
            train_per_class: 20,
            test_per_class: 8,
            noise: 0.15,
        };
        let (mut train, test) = spec.generate(&mut rng);
        let mut net = models::mlp(&mut rng, 64, &[32], 4);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let before = evaluate(&mut net, &test, 16);
        for _ in 0..15 {
            train_epoch(&mut net, &mut opt, &mut train, 16, &mut rng);
        }
        let after = evaluate(&mut net, &test, 16);
        assert!(
            after > before + 0.3 || after > 0.9,
            "no learning: {before} → {after}"
        );
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = models::mlp(&mut rng, 4, &[4], 2);
        let ds = crate::data::Dataset::new(forms_tensor::Tensor::zeros(&[0, 1, 2, 2]), vec![], 2);
        assert_eq!(evaluate(&mut net, &ds, 4), 0.0);
    }

    #[test]
    fn lr_decay_config_defaults() {
        let c = TrainConfig::default();
        assert_eq!(c.lr_decay, 1.0);
        assert!(c.epochs > 0 && c.batch_size > 0);
    }
}
