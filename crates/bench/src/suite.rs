//! Shared model/dataset suite for the experiments.
//!
//! Every experiment binary is standalone, so the common work — generating
//! the synthetic stand-in datasets, training baselines, running the ADMM
//! compression stack, measuring EIC — lives here. Model and dataset scales
//! follow `DESIGN.md` §2 (topologies preserved, widths reduced for CPU
//! training).

use forms_admm::{
    AdmmConfig, AdmmReport, AdmmTrainer, CompressionSummary, LayerConstraints, PolarizationPolicy,
    PolarizeSpec, PruneSpec, QuantSpec,
};
use forms_dnn::data::{Dataset, SyntheticSpec};
use forms_dnn::{evaluate, models, train_epoch, Network, Sgd};
use forms_rng::StdRng;
use forms_tensor::{FixedSpec, QuantizedTensor};
use forms_workloads::capture_weight_layer_inputs;

/// The paper's benchmark datasets (synthetic stand-ins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MNIST stand-in (1×16×16, 10 classes).
    Mnist,
    /// CIFAR-10 stand-in (3×16×16, 10 classes).
    Cifar10,
    /// CIFAR-100 stand-in (3×16×16, 40 classes).
    Cifar100,
    /// ImageNet stand-in (3×24×24, 50 classes).
    ImageNet,
}

impl DatasetKind {
    /// Dataset label as the paper writes it.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Mnist => "MNIST",
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::Cifar100 => "CIFAR-100",
            DatasetKind::ImageNet => "ImageNet",
        }
    }

    /// Generation spec.
    pub fn spec(&self) -> SyntheticSpec {
        match self {
            DatasetKind::Mnist => SyntheticSpec::mnist_like(),
            DatasetKind::Cifar10 => SyntheticSpec::cifar10_like(),
            DatasetKind::Cifar100 => SyntheticSpec::cifar100_like(),
            DatasetKind::ImageNet => SyntheticSpec::imagenet_like(),
        }
    }
}

/// The paper's benchmark networks (scaled stand-ins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// LeNet-5.
    LeNet5,
    /// VGG-16 (width 2).
    Vgg16,
    /// ResNet-18 (width 4).
    ResNet18,
    /// ResNet-50 (width 2).
    ResNet50,
}

impl ModelKind {
    /// Model label.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::LeNet5 => "LeNet5",
            ModelKind::Vgg16 => "VGG16",
            ModelKind::ResNet18 => "ResNet18",
            ModelKind::ResNet50 => "ResNet50",
        }
    }

    /// Builds the network for a dataset.
    pub fn build(&self, dataset: DatasetKind, rng: &mut StdRng) -> Network {
        let spec = dataset.spec();
        let (c, hw, classes) = (spec.channels, spec.height, spec.classes);
        match self {
            ModelKind::LeNet5 => models::lenet5(rng, c, hw, classes),
            ModelKind::Vgg16 => models::vgg16(rng, c, hw, classes, 2),
            ModelKind::ResNet18 => models::resnet18(rng, c, hw, classes, 4),
            ModelKind::ResNet50 => models::resnet50(rng, c, hw, classes, 2),
        }
    }

    /// Baseline training epochs (deeper nets get fewer to bound runtime).
    fn baseline_epochs(&self) -> usize {
        match self {
            ModelKind::LeNet5 => 12,
            ModelKind::Vgg16 => 14,
            ModelKind::ResNet18 => 8,
            ModelKind::ResNet50 => 12,
        }
    }

    /// Stable baseline learning rate per model (probed; higher rates kill
    /// the plain-conv nets' ReLUs).
    pub fn baseline_lr(&self) -> f32 {
        match self {
            ModelKind::Vgg16 => 0.01,
            _ => 0.02,
        }
    }
}

/// A trained baseline model with its data.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// The trained network (32-bit weights, uncompressed).
    pub net: Network,
    /// Training set.
    pub train: Dataset,
    /// Test set.
    pub test: Dataset,
    /// Test accuracy of the baseline.
    pub accuracy: f32,
    /// Which dataset this is.
    pub dataset: DatasetKind,
    /// Which model this is.
    pub model: ModelKind,
}

/// Trains a baseline model on a synthetic stand-in dataset.
pub fn train_baseline(model: ModelKind, dataset: DatasetKind, seed: u64) -> Baseline {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut train, test) = dataset.spec().generate(&mut rng);
    let mut net = model.build(dataset, &mut rng);
    let mut opt = Sgd::new(model.baseline_lr()).momentum(0.9);
    for epoch in 0..model.baseline_epochs() {
        train_epoch(&mut net, &mut opt, &mut train, 16, &mut rng);
        if epoch == model.baseline_epochs() * 2 / 3 {
            let lr = opt.learning_rate();
            opt.set_learning_rate(lr * 0.3);
        }
    }
    let accuracy = evaluate(&mut net, &test, 32);
    Baseline {
        net,
        train,
        test,
        accuracy,
        dataset,
        model,
    }
}

/// Which parts of the FORMS optimization stack to apply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressionRecipe {
    /// Fraction of filter-shape rows kept (`None` = no pruning).
    pub prune_keep: Option<(f32, f32)>,
    /// Fragment size for polarization (`None` = no polarization).
    pub fragment: Option<usize>,
    /// Polarization policy.
    pub policy: PolarizationPolicy,
    /// Weight bits after quantization (`None` = no quantization).
    pub quant_bits: Option<u32>,
    /// ADMM epochs.
    pub epochs: usize,
}

impl CompressionRecipe {
    /// The paper's full stack at a fragment size with moderate pruning.
    pub fn full(fragment: usize, shape_keep: f32, filter_keep: f32) -> Self {
        Self {
            prune_keep: Some((shape_keep, filter_keep)),
            fragment: Some(fragment),
            policy: PolarizationPolicy::CMajor,
            quant_bits: Some(8),
            epochs: 10,
        }
    }

    /// Polarization only (no pruning, no quantization).
    pub fn polarization_only(fragment: usize) -> Self {
        Self {
            prune_keep: None,
            fragment: Some(fragment),
            policy: PolarizationPolicy::CMajor,
            quant_bits: None,
            epochs: 8,
        }
    }

    /// Pruning + quantization only (the "Pruned/Quantized-ISAAC" stack).
    pub fn prune_quant_only(shape_keep: f32, filter_keep: f32) -> Self {
        Self {
            prune_keep: Some((shape_keep, filter_keep)),
            fragment: None,
            policy: PolarizationPolicy::WMajor,
            quant_bits: Some(8),
            epochs: 10,
        }
    }
}

/// A compressed model with its reports.
#[derive(Clone, Debug)]
pub struct Compressed {
    /// The compressed (constraint-satisfying) network.
    pub net: Network,
    /// ADMM training report.
    pub report: AdmmReport,
    /// Structural compression summary.
    pub summary: CompressionSummary,
    /// The recipe used.
    pub recipe: CompressionRecipe,
}

/// Runs the ADMM compression stack on a trained baseline, using the
/// paper's multi-step flow (Fig. 1): structured pruning first, then
/// fragment polarization on the pruned structure, then quantization — each
/// as its own ADMM phase with masked retraining. (Projecting all three
/// constraints in one shot loses far more accuracy; the staging is what
/// makes the co-design work.)
pub fn compress(baseline: &Baseline, recipe: CompressionRecipe, seed: u64) -> Compressed {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = baseline.net.clone();
    let mut train = baseline.train.clone();
    let count = net.weight_layer_count();
    let prune_spec = |i: usize| {
        recipe.prune_keep.map(|(shape, filter)| PruneSpec {
            shape_keep: shape,
            // Never filter-prune the classifier head.
            filter_keep: if i + 1 == count { 1.0 } else { filter },
        })
    };
    let polarize_spec = recipe.fragment.map(|fragment_size| PolarizeSpec {
        fragment_size,
        policy: recipe.policy,
    });
    let quant_spec = recipe.quant_bits.map(|bits| QuantSpec { bits });

    // Phase plan. The batch-normed residual nets (and LeNet) converge best
    // with all constraints trained jointly, like ADMM-NN; the deep plain
    // VGG stack needs the gradual multi-step flow of paper Fig. 1
    // (prune → +polarize → +quantize), each phase keeping the earlier
    // constraints active so the structure cannot regress.
    let staged = baseline.model == ModelKind::Vgg16;
    let full_constraints: Vec<LayerConstraints> = (0..count)
        .map(|i| LayerConstraints {
            prune: prune_spec(i),
            polarize: polarize_spec,
            quantize: quant_spec,
        })
        .collect();
    let mut phases: Vec<(Vec<LayerConstraints>, usize, f32, usize)> = Vec::new();
    if staged {
        if recipe.prune_keep.is_some() {
            let cs = (0..count)
                .map(|i| LayerConstraints {
                    prune: prune_spec(i),
                    ..Default::default()
                })
                .collect();
            phases.push((cs, recipe.epochs.max(2) / 2 + 2, 1.15, 4));
        }
        if polarize_spec.is_some() {
            let cs = (0..count)
                .map(|i| LayerConstraints {
                    prune: prune_spec(i),
                    polarize: polarize_spec,
                    ..Default::default()
                })
                .collect();
            phases.push((cs, recipe.epochs + 2, 1.15, 4));
        }
        if quant_spec.is_some() {
            phases.push((full_constraints.clone(), recipe.epochs.max(2) / 2, 1.15, 4));
        }
        if phases.is_empty() {
            phases.push((full_constraints, recipe.epochs, 1.15, 4));
        }
    } else {
        phases.push((full_constraints, recipe.epochs, 1.0, 2));
    }

    let mut report = AdmmReport {
        final_loss: 0.0,
        test_accuracy: baseline.accuracy,
        pre_projection_accuracy: baseline.accuracy,
        violations_before_finalize: 0,
    };
    for (constraints, epochs, rho_growth, sign_update_interval) in phases {
        let config = AdmmConfig {
            epochs,
            lr: baseline.model.baseline_lr(),
            rho: 1e-2,
            rho_growth,
            sign_update_interval,
            retrain_epochs: 5,
            ..Default::default()
        };
        let mut trainer = AdmmTrainer::new(&mut net, constraints, config);
        report = trainer.train(&mut net, &mut train, &baseline.test, &mut rng);
    }
    let bits = recipe.quant_bits.unwrap_or(32);
    // The stand-in models are width-scaled, so the crossbar dimension is
    // scaled with them (32 instead of 128) — otherwise array granularity
    // (one crossbar minimum per layer) swamps the reduction ratios that the
    // full-width models show against 128-wide arrays.
    let summary = CompressionSummary::measure(&mut net, 32, bits, 2, 32);
    Compressed {
        net,
        report,
        summary,
        recipe,
    }
}

/// Measures the mean effective input cycles of a model's real activations
/// at a fragment size, quantizing each weight layer's inputs to
/// `input_bits` with a per-layer scale (as the accelerator does).
pub fn measured_eic(net: &Network, data: &Dataset, fragment: usize, input_bits: u32) -> f64 {
    measured_eic_with_headroom(net, data, fragment, input_bits, 0)
}

/// Like [`measured_eic`], with `headroom_bits` of fixed-point margin above
/// the observed maximum. Real fixed-point pipelines calibrate activation
/// scales for the worst case over the whole dataset plus design margin, so
/// typical values sit below full scale — every headroom bit is one extra
/// guaranteed leading zero, which is where much of the paper's Fig. 8
/// skipping opportunity comes from. Headroom 0 (the default elsewhere) is
/// the conservative bound.
pub fn measured_eic_with_headroom(
    net: &Network,
    data: &Dataset,
    fragment: usize,
    input_bits: u32,
    headroom_bits: u32,
) -> f64 {
    let samples = data.len().min(8);
    let (x, _) = data.batch(0, samples);
    let captured = capture_weight_layer_inputs(net, &x);
    let mut total = 0.0;
    let mut fragments = 0usize;
    let margin = (1u32 << headroom_bits) as f32;
    for layer_input in &captured {
        let spec = FixedSpec::for_max_value(input_bits, layer_input.max() * margin);
        let q = QuantizedTensor::quantize_with(layer_input, spec);
        let stats = forms_arch::eic_stats(q.codes(), fragment, input_bits);
        total += stats.mean * stats.fragments as f64;
        fragments += stats.fragments;
    }
    if fragments == 0 {
        0.0
    } else {
        total / fragments as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_learns_above_chance() {
        let b = train_baseline(ModelKind::LeNet5, DatasetKind::Mnist, 7);
        assert!(
            b.accuracy > 0.3,
            "LeNet baseline failed to learn: {}",
            b.accuracy
        );
    }

    #[test]
    fn compression_enforces_constraints_and_reports() {
        let b = train_baseline(ModelKind::LeNet5, DatasetKind::Mnist, 8);
        let mut recipe = CompressionRecipe::full(8, 0.6, 0.6);
        recipe.epochs = 6;
        let c = compress(&b, recipe, 9);
        assert!(
            c.summary.prune_ratio() > 1.5,
            "prune ratio {}",
            c.summary.prune_ratio()
        );
        assert!(
            c.summary.crossbar_reduction() > 2.0,
            "crossbar reduction {}",
            c.summary.crossbar_reduction()
        );
        assert!(c.report.test_accuracy > 0.2);
    }

    #[test]
    fn eic_grows_with_fragment_size() {
        let b = train_baseline(ModelKind::LeNet5, DatasetKind::Mnist, 10);
        let e4 = measured_eic(&b.net, &b.test, 4, 16);
        let e64 = measured_eic(&b.net, &b.test, 64, 16);
        assert!(e4 > 0.0 && e4 <= 16.0);
        assert!(e64 >= e4, "EIC must be monotone in fragment size");
    }
}
