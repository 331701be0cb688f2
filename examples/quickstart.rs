//! Quickstart: train a tiny CNN, polarize it with ADMM, map it onto
//! FORMS crossbars and run mixed-signal inference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use forms::admm::{AdmmConfig, AdmmTrainer, LayerConstraints, PolarizationPolicy, PolarizeSpec};
use forms::arch::{Executor, MappedLayer, MappingConfig};
use forms::dnn::data::SyntheticSpec;
use forms::dnn::{evaluate, train_epoch, Layer, Network, Sgd};
use forms::reram::CellSpec;
use forms::rng::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);

    // 1. A small synthetic classification task and a small CNN.
    let spec = SyntheticSpec {
        classes: 4,
        channels: 1,
        height: 8,
        width: 8,
        train_per_class: 24,
        test_per_class: 10,
        noise: 0.15,
    };
    let (mut train, test) = spec.generate(&mut rng);
    let mut net = Network::new(vec![
        Layer::conv2d(&mut rng, 1, 6, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(&mut rng, 6 * 4 * 4, 4),
    ]);

    // 2. Ordinary training.
    let mut opt = Sgd::new(0.05).momentum(0.9);
    for _ in 0..10 {
        train_epoch(&mut net, &mut opt, &mut train, 16, &mut rng);
    }
    println!(
        "baseline accuracy: {:.1}%",
        100.0 * evaluate(&mut net, &test, 16)
    );

    // 3. ADMM fragment polarization (the paper's key constraint): every
    //    4-weight fragment ends up single-signed.
    let constraints = vec![
        LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        };
        net.weight_layer_count()
    ];
    let mut trainer = AdmmTrainer::new(&mut net, constraints, AdmmConfig::default());
    let report = trainer.train(&mut net, &mut train, &test, &mut rng);
    println!(
        "polarized accuracy: {:.1}% (violations before hard projection: {})",
        100.0 * report.test_accuracy,
        report.violations_before_finalize
    );

    // 4. Map onto polarized crossbars and run the analog path.
    let config = MappingConfig {
        crossbar_dim: 16,
        fragment_size: 4,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    };
    let mut accel =
        Executor::<MappedLayer>::map_network(&net, &config).expect("polarized model maps");
    let analog_acc = accel.evaluate(&test, 8);
    let stats = accel.stats();
    println!(
        "mixed-signal accuracy: {:.1}% on {} crossbars",
        100.0 * analog_acc,
        accel.total_crossbars()
    );
    println!(
        "zero-skipping saved {:.1}% of input cycles ({} of {} fragments fully skipped)",
        100.0 * stats.cycles_saved_fraction(),
        stats.fragments_skipped,
        stats.fragments_total
    );
}
