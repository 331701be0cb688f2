//! Fragment-size design sweep on the mixed-signal simulator: map the same
//! polarized model at several fragment sizes and compare accuracy, cycle
//! savings and the frame-rate estimate — the trade-off at the heart of the
//! paper (§IV-B/C).
//!
//! ```text
//! cargo run --release --example accelerator_sim
//! ```

use forms::admm::{AdmmConfig, AdmmTrainer, LayerConstraints, PolarizationPolicy, PolarizeSpec};
use forms::arch::{Executor, FpsModel, MappedLayer, MappingConfig};
use forms::dnn::data::SyntheticSpec;
use forms::dnn::{evaluate, train_epoch, Layer, Network, Sgd};
use forms::hwmodel::McuConfig;
use forms::reram::{CellSpec, LogNormalVariation};
use forms::rng::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let spec = SyntheticSpec {
        classes: 4,
        channels: 1,
        height: 8,
        width: 8,
        train_per_class: 24,
        test_per_class: 12,
        noise: 0.2,
    };
    let (mut train, test) = spec.generate(&mut rng);
    let mut base = Network::new(vec![
        Layer::conv2d(&mut rng, 1, 8, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(&mut rng, 8 * 4 * 4, 4),
    ]);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    for _ in 0..10 {
        train_epoch(&mut base, &mut opt, &mut train, 16, &mut rng);
    }
    println!(
        "baseline accuracy {:.1}%",
        100.0 * evaluate(&mut base, &test, 16)
    );
    println!();
    println!("fragment | accuracy | cycles saved | crossbars | est. fps (scaled chip)");

    // Batches are spread over worker threads through the shared execution
    // core; results are bitwise identical to the serial path.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));

    for fragment in [4usize, 8, 16] {
        // Re-polarize at this fragment size.
        let mut net = base.clone();
        let constraints = vec![
            LayerConstraints {
                polarize: Some(PolarizeSpec {
                    fragment_size: fragment,
                    policy: PolarizationPolicy::WMajor,
                }),
                ..Default::default()
            };
            net.weight_layer_count()
        ];
        let config = AdmmConfig {
            epochs: 8,
            lr: 0.02,
            ..Default::default()
        };
        let mut trainer = AdmmTrainer::new(&mut net, constraints, config);
        trainer.train(&mut net, &mut train, &test, &mut rng);

        let mapping = MappingConfig {
            crossbar_dim: 16,
            fragment_size: fragment,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 12,
            zero_skipping: true,
        };
        let mut accel = Executor::<MappedLayer>::map_network(&net, &mapping).expect("maps");
        let acc = accel.evaluate_parallel(&test, 8, workers);
        let stats = accel.stats();

        // Frame-rate estimate on a paper-scale MCU, driven by the measured
        // per-layer EICs and crossbar footprints of the real inferences.
        let perfs = accel.layer_perfs(test.len());
        let fps = FpsModel::new(
            McuConfig::forms(if fragment <= 4 { 4 } else { fragment.min(16) }),
            perfs,
        )
        .fps();

        println!(
            "{fragment:8} | {:7.1}% | {:11.1}% | {:9} | {:.0}",
            100.0 * acc,
            100.0 * stats.cycles_saved_fraction(),
            accel.total_crossbars(),
            fps
        );
    }

    // Device variation at the paper's σ = 0.1 on the fragment-8 design.
    println!();
    let mut net = base.clone();
    let constraints = vec![
        LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 8,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        };
        net.weight_layer_count()
    ];
    let mut trainer = AdmmTrainer::new(
        &mut net,
        constraints,
        AdmmConfig {
            epochs: 8,
            lr: 0.02,
            ..Default::default()
        },
    );
    trainer.train(&mut net, &mut train, &test, &mut rng);
    let mapping = MappingConfig {
        crossbar_dim: 16,
        fragment_size: 8,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    };
    let mut accel = Executor::<MappedLayer>::map_network(&net, &mapping).expect("maps");
    let clean = accel.evaluate_parallel(&test, 8, workers);
    let variation = LogNormalVariation::paper();
    for layer in accel.engines_mut() {
        for xbar in layer.crossbars_mut() {
            variation.apply(xbar, &mut rng);
        }
    }
    let noisy = accel.evaluate_parallel(&test, 8, workers);
    println!(
        "device variation σ=0.1: accuracy {:.1}% → {:.1}%",
        100.0 * clean,
        100.0 * noisy
    );
}
