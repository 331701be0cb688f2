//! Non-ideality exploration: device variation, stuck-at faults, read noise
//! and IR drop on a mapped model — the robustness side of the paper's
//! evaluation (§V-E and the §II-C fine-grained argument).
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use forms::admm::{AdmmConfig, AdmmTrainer, LayerConstraints, PolarizationPolicy, PolarizeSpec};
use forms::arch::{Executor, MappedLayer, MappingConfig};
use forms::dnn::data::SyntheticSpec;
use forms::dnn::{train_epoch, Layer, Network, Sgd};
use forms::exec::FaultCampaign;
use forms::reram::{CellSpec, IrDropModel, LogNormalVariation};
use forms::rng::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(13);
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
    let mut net = Network::new(vec![
        Layer::conv2d(&mut rng, 1, 6, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(&mut rng, 6 * 4 * 4, 4),
    ]);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    for _ in 0..10 {
        train_epoch(&mut net, &mut opt, &mut train, 16, &mut rng);
    }
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
    let mut trainer = AdmmTrainer::new(
        &mut net,
        constraints,
        AdmmConfig {
            epochs: 10,
            lr: 0.02,
            ..Default::default()
        },
    );
    trainer.train(&mut net, &mut train, &test, &mut rng);

    let config = MappingConfig {
        crossbar_dim: 16,
        fragment_size: 4,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    };
    let clean = Executor::<MappedLayer>::map_network(&net, &config).expect("polarized model maps");
    let baseline = clean.clone().evaluate(&test, 8);
    println!("clean mixed-signal accuracy: {:.1}%", 100.0 * baseline);
    println!();
    println!("fault model                    | accuracy");

    // 1. Log-normal device variation at increasing sigma.
    for sigma in [0.05, 0.1, 0.3] {
        let mut acc = clean.clone();
        let variation = LogNormalVariation::new(0.0, sigma);
        for layer in acc.engines_mut() {
            for xbar in layer.crossbars_mut() {
                variation.apply(xbar, &mut rng);
            }
        }
        println!(
            "variation σ={sigma:<4}               | {:7.1}%",
            100.0 * acc.evaluate(&test, 8)
        );
    }

    // 2. Seeded stuck-at campaigns at increasing rates: one campaign
    //    value describes the whole experiment, and the same seed replays
    //    the exact same faulty silicon.
    for rate in [0.001, 0.01, 0.05] {
        for (label, low, high) in [("low ", rate, 0.0), ("high", 0.0, rate)] {
            let mut acc = clean.clone();
            let report = acc.inject_faults(&FaultCampaign::stuck_at(21, low, high), 0);
            println!(
                "stuck-at-{label} rate {rate:<5} ({:4} cells) | {:7.1}%",
                report.stuck(),
                100.0 * acc.evaluate(&test, 8)
            );
        }
    }

    // 3. Conductance drift as a campaign, for the same replayability.
    for sigma in [0.05, 0.2] {
        let mut acc = clean.clone();
        let report = acc.inject_faults(&FaultCampaign::drift(34, sigma), 0);
        println!(
            "drift campaign σ={sigma:<4} ({:4} cells) | {:7.1}%",
            report.drifted,
            100.0 * acc.evaluate(&test, 8)
        );
    }

    // 4. IR-drop bound as an analytic sanity check.
    println!();
    let ir = IrDropModel::typical();
    println!(
        "IR-drop worst-case relative error: fragment 4 = {:.3}%, fragment 128 = {:.3}% — the \
         fine-grained window bounds what the wire can corrupt.",
        100.0 * ir.worst_case_relative_error(4, 61.0),
        100.0 * ir.worst_case_relative_error(128, 61.0)
    );
}
