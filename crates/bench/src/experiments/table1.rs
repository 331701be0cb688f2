//! Table I: compression results on small/medium datasets (MNIST LeNet-5;
//! CIFAR-10 VGG-16 and ResNet-18) — prune ratio, accuracy drop per fragment
//! size, crossbar reduction.

use forms_dnn::{evaluate, evaluate_topk};

use crate::report::{pct, times, yes_no, Experiment};
use crate::suite::{compress, train_baseline, CompressionRecipe, DatasetKind, ModelKind};

/// One benchmark row spec: model, dataset, pruning keeps, paper reference
/// values (prune ratio, crossbar reduction).
pub struct Case {
    /// Model under test.
    pub model: ModelKind,
    /// Dataset stand-in.
    pub dataset: DatasetKind,
    /// (shape_keep, filter_keep) for the ADMM pruning constraint.
    pub keeps: (f32, f32),
    /// The paper's prune ratio for this row.
    pub paper_prune: f32,
    /// The paper's crossbar reduction for this row.
    pub paper_reduction: f32,
    /// Whether accuracy is measured top-5, as the paper does for ImageNet.
    pub top5: bool,
}

/// The Table I cases. The keep fractions are chosen so the *scaled* models
/// prune at rates their reduced redundancy can absorb (the paper's 23–52×
/// ratios rely on full-width nets; see the emitted notes).
pub fn cases() -> Vec<Case> {
    vec![
        Case {
            model: ModelKind::LeNet5,
            dataset: DatasetKind::Mnist,
            keeps: (0.35, 0.5),
            paper_prune: 23.18,
            paper_reduction: 185.44,
            top5: false,
        },
        Case {
            model: ModelKind::Vgg16,
            dataset: DatasetKind::Cifar10,
            // The width-2 VGG stand-in has as few as 2 channels per early
            // layer, so it cannot absorb the deep cuts the 64-wide original
            // takes; keeps are raised accordingly.
            keeps: (0.7, 0.7),
            paper_prune: 41.2,
            paper_reduction: 329.6,
            top5: false,
        },
        Case {
            model: ModelKind::ResNet18,
            dataset: DatasetKind::Cifar10,
            keeps: (0.4, 0.4),
            paper_prune: 50.85,
            paper_reduction: 406.8,
            top5: false,
        },
    ]
}

/// Fragment sizes per row, as in the paper.
pub const FRAGMENT_SIZES: [usize; 3] = [4, 8, 16];

/// Runs the experiment over `cases()`.
pub fn run() -> Experiment {
    run_cases(
        &cases(),
        "Table I",
        "compression on MNIST & CIFAR-10 stand-ins",
    )
}

/// Shared driver for Tables I and II.
pub fn run_cases(cases: &[Case], id: &str, title: &str) -> Experiment {
    let mut e = Experiment::new(
        id,
        title,
        &[
            "model / dataset",
            "baseline acc",
            "fragment",
            "acc drop (8-bit)",
            "prune ratio",
            "crossbar reduction",
            "paper (prune, reduction)",
        ],
    );
    // Per model: its label and its accuracy drop per fragment size.
    let mut drops_by_model: Vec<(String, Vec<f32>)> = Vec::new();
    // Crossbar reduction over prune ratio, per row.
    let mut ratios = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        let baseline = train_baseline(case.model, case.dataset, 100 + ci as u64);
        // Top-5 for ImageNet rows, top-1 elsewhere — the paper's metrics.
        let metric = |net: &forms_dnn::Network| {
            let mut net = net.clone();
            if case.top5 {
                evaluate_topk(&mut net, &baseline.test, 32, 5)
            } else {
                evaluate(&mut net, &baseline.test, 32)
            }
        };
        let base_acc = metric(&baseline.net);
        let label = if case.top5 { " (top-5)" } else { "" };
        let label = format!("{} / {}{label}", case.model.label(), case.dataset.label());
        let mut drops = Vec::new();
        for (fi, &fragment) in FRAGMENT_SIZES.iter().enumerate() {
            let recipe = CompressionRecipe::full(fragment, case.keeps.0, case.keeps.1);
            let c = compress(&baseline, recipe, 150 + (ci * 3 + fi) as u64);
            let drop = base_acc - metric(&c.net);
            e.row(&[
                label.clone(),
                pct(base_acc as f64),
                fragment.to_string(),
                pct(drop as f64),
                times(c.summary.prune_ratio() as f64),
                times(c.summary.crossbar_reduction() as f64),
                format!("{}×, {}×", case.paper_prune, case.paper_reduction),
            ]);
            drops.push(drop);
            ratios.push(c.summary.crossbar_reduction() / c.summary.prune_ratio());
        }
        drops_by_model.push((label, drops));
    }
    e.note(
        "scaled stand-in models have far less redundancy than the full-width originals, so \
         prune ratios are set lower",
    );
    // FRAGMENT_SIZES is [4, 8, 16]: drops[0] and drops[1] are fragments 4
    // and 8, drops[2] is fragment 16.
    let mut claim = |claim: &str, holds: fn(&[f32]) -> bool| {
        let outcomes = drops_by_model
            .iter()
            .map(|(label, d)| (label.as_str(), holds(d)));
        e.note(&format!(
            "paper: {claim}; measured, per model: {}",
            yes_no(outcomes)
        ));
    };
    claim("fragment 4/8 ≈ lossless (drops within 1%)", |d| {
        d[0] <= 0.01 && d[1] <= 0.01
    });
    claim(
        "fragment 16 slightly worse (drop above fragments 4 and 8)",
        |d| d[2] > d[0].max(d[1]),
    );
    let (lo, hi) = ratios
        .iter()
        .fold((f32::MAX, f32::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    e.note(&format!(
        "paper: crossbar reduction = prune ratio × 4 (quant 32→8 bit) × 2 (polarization); \
         measured reduction / prune ratio: {} to {}",
        times(lo as f64),
        times(hi as f64)
    ));
    e
}
