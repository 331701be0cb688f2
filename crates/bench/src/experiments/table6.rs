//! Table VI: accuracy degradation under log-normal device variation
//! (σ = 0.1), ResNet-18 on the three datasets, four model variants.
//!
//! As in the paper (which injects variation into the weight tensors of its
//! PyTorch models), the perturbation is applied at the weight level —
//! `w ← w · exp(N(0, σ))` per ReRAM-mapped weight — and accuracy is
//! averaged over repeated draws.

use forms_dnn::{evaluate, Network};
use forms_reram::LogNormalVariation;
use forms_rng::StdRng;

use crate::report::{pct, yes_no, Experiment};
use crate::suite::{compress, train_baseline, Baseline, CompressionRecipe, DatasetKind, ModelKind};

/// Runs averaged over this many variation draws (the paper uses 50; 12
/// keeps the harness fast while the mean is already stable).
pub const RUNS: usize = 12;

/// Mean accuracy over `RUNS` perturbed copies of a network.
fn perturbed_accuracy(
    net: &Network,
    baseline: &Baseline,
    variation: &LogNormalVariation,
    seed: u64,
) -> f32 {
    let mut total = 0.0;
    for run in 0..RUNS {
        let mut rng = StdRng::seed_from_u64(seed + run as u64);
        let mut noisy = net.clone();
        noisy.for_each_param(&mut |p| {
            // Only weights live on ReRAM; biases and batch-norm parameters
            // stay digital.
            if p.value.shape().rank() >= 2 {
                for v in p.value.data_mut() {
                    *v = variation.perturb_weight(*v, &mut rng);
                }
            }
        });
        total += evaluate(&mut noisy, &baseline.test, 32);
    }
    total / RUNS as f32
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "Table VI",
        "accuracy degradation under log-normal device variation (σ = 0.1), ResNet-18",
        &[
            "dataset",
            "original",
            "polarization only",
            "pruning only",
            "full optimization",
            "paper (orig/pol/prune/full)",
        ],
    );
    let variation = LogNormalVariation::paper();
    let paper: [(DatasetKind, &str); 3] = [
        (DatasetKind::Cifar10, "0.35 / 0.37 / 1.82 / 1.80 %"),
        (DatasetKind::Cifar100, "0.72 / 0.68 / 1.86 / 1.89 %"),
        (DatasetKind::ImageNet, "2.87 / 2.86 / 4.24 / 4.21 %"),
    ];
    // Per dataset: its label and the drops of the four variants, in
    // column order (original, polarization, pruning, full).
    let mut drops_by_dataset: Vec<(&str, [f32; 4])> = Vec::new();
    for (di, (dataset, paper_row)) in paper.into_iter().enumerate() {
        let baseline = train_baseline(ModelKind::ResNet18, dataset, 1600 + di as u64);
        let pol = compress(
            &baseline,
            CompressionRecipe::polarization_only(8),
            1610 + di as u64,
        );
        let pruned = compress(
            &baseline,
            CompressionRecipe {
                prune_keep: Some((0.7, 0.7)),
                fragment: None,
                quant_bits: None,
                ..CompressionRecipe::polarization_only(8)
            },
            1620 + di as u64,
        );
        let full = compress(
            &baseline,
            CompressionRecipe::full(8, 0.7, 0.7),
            1630 + di as u64,
        );

        let mut drops = [0.0f32; 4];
        for (drop, (net, clean)) in drops.iter_mut().zip([
            (&baseline.net, baseline.accuracy),
            (&pol.net, pol.report.test_accuracy),
            (&pruned.net, pruned.report.test_accuracy),
            (&full.net, full.report.test_accuracy),
        ]) {
            let noisy = perturbed_accuracy(net, &baseline, &variation, 1700 + di as u64);
            *drop = (clean - noisy).max(0.0);
        }
        e.row(&[
            dataset.label().to_string(),
            pct(drops[0] as f64),
            pct(drops[1] as f64),
            pct(drops[2] as f64),
            pct(drops[3] as f64),
            paper_row.to_string(),
        ]);
        drops_by_dataset.push((dataset.label(), drops));
    }
    e.note(&format!("averaged over {RUNS} variation draws (paper: 50)"));
    let mut claim = |claim: &str, holds: fn(&[f32; 4]) -> bool| {
        let outcomes = drops_by_dataset.iter().map(|(label, d)| (*label, holds(d)));
        e.note(&format!(
            "paper: {claim}; measured, per dataset: {}",
            yes_no(outcomes)
        ));
    };
    claim("the original model is the most robust", |d| {
        d[1..].iter().all(|&v| d[0] <= v)
    });
    claim("the fully optimized model is the least robust", |d| {
        d[..3].iter().all(|&v| d[3] >= v)
    });
    claim(
        "polarization alone costs no robustness (within 0.1%)",
        |d| d[1] - d[0] <= 0.001,
    );
    let variants = e.headers[1..5].to_vec();
    let rising = (0..4).map(|v| {
        let up = drops_by_dataset.windows(2).all(|p| p[0].1[v] < p[1].1[v]);
        (variants[v].as_str(), up)
    });
    e.note(&format!(
        "paper: harder datasets degrade more; measured drop rising over the rows, per \
         column: {}",
        yes_no(rising)
    ));
    e
}
