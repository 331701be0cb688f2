//! Model zoo: scaled-down versions of the paper's benchmark networks.
//!
//! The paper evaluates LeNet-5, VGG-16 and ResNet-18/50. We keep every
//! topology (layer kinds, depths, stage structure, residual wiring) but
//! scale channel widths down so the networks train in seconds on a CPU; the
//! compression experiments only depend on the *structure* of the weight
//! tensors, which is preserved. Each constructor documents its stand-in
//! scale.

use forms_rng::Rng;

use crate::{Layer, Network, ResidualBlock};

/// LeNet-5 (MNIST-class model): two 5×5 conv+pool stages and three
/// fully-connected layers. Channel widths follow the original (6, 16); the
/// FC widths are scaled to the 16×16 stand-in input.
///
/// `input_hw` must be divisible by 4 (two 2×2 pools).
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 4.
pub fn lenet5<R: Rng + ?Sized>(
    rng: &mut R,
    in_channels: usize,
    input_hw: usize,
    classes: usize,
) -> Network {
    assert!(
        input_hw.is_multiple_of(4),
        "input size must be divisible by 4"
    );
    let final_hw = input_hw / 4;
    Network::new(vec![
        Layer::conv2d(rng, in_channels, 6, 5, 1, 2),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::conv2d(rng, 6, 16, 5, 1, 2),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(rng, 16 * final_hw * final_hw, 120),
        Layer::relu(),
        Layer::linear(rng, 120, 84),
        Layer::relu(),
        Layer::linear(rng, 84, classes),
    ])
}

/// VGG-16-style network: the original 13-conv/5-pool/3-FC topology with
/// channel widths scaled by `width / 64` relative to the original
/// (64→`width`, 128→`2·width`, …), with batch normalization after every
/// convolution (the standard VGG-BN variant — the plain network does not
/// train from scratch at these widths).
///
/// `input_hw` must be divisible by 16; the last pool stage of the original
/// (which would take the stand-in input below 1×1) is replaced by keeping
/// the final feature map at `input_hw/16`.
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 16 or `width` is zero.
pub fn vgg16<R: Rng + ?Sized>(
    rng: &mut R,
    in_channels: usize,
    input_hw: usize,
    classes: usize,
    width: usize,
) -> Network {
    assert!(
        input_hw.is_multiple_of(16),
        "input size must be divisible by 16"
    );
    assert!(width > 0, "width must be positive");
    let w = width;
    let mut layers = Vec::new();
    let stages: [(usize, usize); 5] = [(2, w), (2, 2 * w), (3, 4 * w), (3, 8 * w), (3, 8 * w)];
    let mut in_ch = in_channels;
    for (stage, &(convs, ch)) in stages.iter().enumerate() {
        for _ in 0..convs {
            layers.push(Layer::conv2d(rng, in_ch, ch, 3, 1, 1));
            layers.push(Layer::batch_norm(ch));
            layers.push(Layer::relu());
            in_ch = ch;
        }
        // Four pools take hw/16; the original fifth pool is skipped for the
        // small stand-in input.
        if stage < 4 {
            layers.push(Layer::max_pool(2));
        }
    }
    let final_hw = input_hw / 16;
    layers.push(Layer::flatten());
    layers.push(Layer::linear(rng, 8 * w * final_hw * final_hw, 16 * w));
    layers.push(Layer::relu());
    layers.push(Layer::linear(rng, 16 * w, 16 * w));
    layers.push(Layer::relu());
    layers.push(Layer::linear(rng, 16 * w, classes));
    Network::new(layers)
}

/// A ResNet basic block (two 3×3 convs with batch norm) with an optional
/// strided 1×1 projection when the shape changes.
fn basic_block<R: Rng + ?Sized>(rng: &mut R, in_ch: usize, out_ch: usize, stride: usize) -> Layer {
    let body = vec![
        Layer::conv2d(rng, in_ch, out_ch, 3, stride, 1),
        Layer::batch_norm(out_ch),
        Layer::relu(),
        Layer::conv2d(rng, out_ch, out_ch, 3, 1, 1),
        Layer::batch_norm(out_ch),
    ];
    let projection =
        (stride != 1 || in_ch != out_ch).then(|| Layer::conv2d(rng, in_ch, out_ch, 1, stride, 0));
    Layer::Residual(ResidualBlock::new(body, projection))
}

/// A ResNet bottleneck block (1×1 reduce → 3×3 → 1×1 expand), the building
/// block of ResNet-50.
fn bottleneck_block<R: Rng + ?Sized>(
    rng: &mut R,
    in_ch: usize,
    mid_ch: usize,
    out_ch: usize,
    stride: usize,
) -> Layer {
    let body = vec![
        Layer::conv2d(rng, in_ch, mid_ch, 1, 1, 0),
        Layer::batch_norm(mid_ch),
        Layer::relu(),
        Layer::conv2d(rng, mid_ch, mid_ch, 3, stride, 1),
        Layer::batch_norm(mid_ch),
        Layer::relu(),
        Layer::conv2d(rng, mid_ch, out_ch, 1, 1, 0),
        Layer::batch_norm(out_ch),
    ];
    let projection =
        (stride != 1 || in_ch != out_ch).then(|| Layer::conv2d(rng, in_ch, out_ch, 1, stride, 0));
    Layer::Residual(ResidualBlock::new(body, projection))
}

/// ResNet-18-style network: conv stem + 4 stages of 2 basic blocks with
/// channel widths `width, 2·width, 4·width, 8·width` (the original uses
/// `width = 64`), global average pool, FC classifier.
///
/// `input_hw` must be divisible by 8 (three strided stages).
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 8 or `width` is zero.
pub fn resnet18<R: Rng + ?Sized>(
    rng: &mut R,
    in_channels: usize,
    input_hw: usize,
    classes: usize,
    width: usize,
) -> Network {
    assert!(
        input_hw.is_multiple_of(8),
        "input size must be divisible by 8"
    );
    assert!(width > 0, "width must be positive");
    let w = width;
    let mut layers = vec![
        Layer::conv2d(rng, in_channels, w, 3, 1, 1),
        Layer::batch_norm(w),
        Layer::relu(),
    ];
    let stages = [(w, 1), (2 * w, 2), (4 * w, 2), (8 * w, 2)];
    let mut in_ch = w;
    for &(ch, stride) in &stages {
        layers.push(basic_block(rng, in_ch, ch, stride));
        layers.push(basic_block(rng, ch, ch, 1));
        in_ch = ch;
    }
    let final_hw = input_hw / 8;
    layers.push(Layer::avg_pool(final_hw));
    layers.push(Layer::flatten());
    layers.push(Layer::linear(rng, 8 * w, classes));
    Network::new(layers)
}

/// ResNet-50-style network: conv stem + 4 stages of `[3, 4, 6, 3]`
/// bottleneck blocks (the original stage plan) with base width `width`
/// (original: 64) and 4× expansion.
///
/// `input_hw` must be divisible by 8.
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 8 or `width` is zero.
pub fn resnet50<R: Rng + ?Sized>(
    rng: &mut R,
    in_channels: usize,
    input_hw: usize,
    classes: usize,
    width: usize,
) -> Network {
    assert!(
        input_hw.is_multiple_of(8),
        "input size must be divisible by 8"
    );
    assert!(width > 0, "width must be positive");
    let w = width;
    let mut layers = vec![
        Layer::conv2d(rng, in_channels, w, 3, 1, 1),
        Layer::batch_norm(w),
        Layer::relu(),
    ];
    let plan: [(usize, usize, usize); 4] = [(w, 3, 1), (2 * w, 4, 2), (4 * w, 6, 2), (8 * w, 3, 2)];
    let mut in_ch = w;
    for &(mid, blocks, stride) in &plan {
        let out = mid * 4;
        layers.push(bottleneck_block(rng, in_ch, mid, out, stride));
        for _ in 1..blocks {
            layers.push(bottleneck_block(rng, out, mid, out, 1));
        }
        in_ch = out;
    }
    let final_hw = input_hw / 8;
    layers.push(Layer::avg_pool(final_hw));
    layers.push(Layer::flatten());
    layers.push(Layer::linear(rng, 32 * w, classes));
    Network::new(layers)
}

/// A small multi-layer perceptron, handy for fast unit tests and the
/// quickstart example.
///
/// # Panics
///
/// Panics if `hidden` is empty-dimensional (any zero width).
pub fn mlp<R: Rng + ?Sized>(
    rng: &mut R,
    in_features: usize,
    hidden: &[usize],
    classes: usize,
) -> Network {
    let mut layers = vec![Layer::flatten()];
    let mut prev = in_features;
    for &h in hidden {
        layers.push(Layer::linear(rng, prev, h));
        layers.push(Layer::relu());
        prev = h;
    }
    layers.push(Layer::linear(rng, prev, classes));
    Network::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_rng::StdRng;
    use forms_tensor::Tensor;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn lenet5_output_shape() {
        let mut net = lenet5(&mut rng(), 1, 16, 10);
        let y = net.forward(&Tensor::ones(&[2, 1, 16, 16]));
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn vgg16_output_shape_and_depth() {
        let mut net = vgg16(&mut rng(), 3, 16, 10, 2);
        let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]));
        assert_eq!(y.dims(), &[1, 10]);
        // 13 convs + 3 linears = 16 weight layers, the VGG-16 signature.
        assert_eq!(net.weight_layer_count(), 16);
    }

    #[test]
    fn resnet18_output_shape_and_depth() {
        let mut net = resnet18(&mut rng(), 3, 16, 10, 4);
        let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]));
        assert_eq!(y.dims(), &[1, 10]);
        // stem + 8 blocks × 2 convs + 3 projections + fc = 1 + 16 + 3 + 1.
        assert_eq!(net.weight_layer_count(), 21);
    }

    #[test]
    fn resnet50_output_shape_and_depth() {
        let mut net = resnet50(&mut rng(), 3, 16, 10, 2);
        let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]));
        assert_eq!(y.dims(), &[1, 10]);
        // stem + 16 blocks × 3 convs + 4 projections + fc.
        assert_eq!(net.weight_layer_count(), 1 + 48 + 4 + 1);
    }

    #[test]
    fn mlp_trains_on_trivial_task() {
        use crate::{softmax_cross_entropy, Sgd};
        let mut rng = rng();
        let mut net = mlp(&mut rng, 4, &[8], 2);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], &[2, 1, 2, 2]);
        let labels = [0usize, 1];
        let mut opt = Sgd::new(0.5);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            net.zero_grad();
            let y = net.forward_train(&x);
            let out = softmax_cross_entropy(&y, &labels);
            net.backward(&out.grad);
            opt.step(&mut net);
            last = out.loss;
        }
        assert!(last < 0.1, "failed to fit trivial task: loss {last}");
    }

    #[test]
    fn resnet18_backward_runs() {
        let mut net = resnet18(&mut rng(), 3, 8, 4, 2);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = net.forward_train(&x);
        net.backward(&Tensor::ones(y.dims()));
    }
}
