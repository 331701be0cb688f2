//! End-to-end integration: ADMM-compressed model → polarized crossbar
//! mapping → mixed-signal inference, checked against the digital reference.

use forms::admm::{
    AdmmConfig, AdmmTrainer, LayerConstraints, PolarizationPolicy, PolarizeSpec, PruneSpec,
    QuantSpec,
};
use forms::arch::{Executor, MappedLayer, MappingConfig};
use forms::dnn::data::SyntheticSpec;
use forms::dnn::{evaluate, train_epoch, Network, Sgd};
use forms::exec::ExecError;
use forms::reram::CellSpec;
use forms::rng::StdRng;

fn small_mapping(fragment: usize) -> MappingConfig {
    MappingConfig {
        crossbar_dim: 16,
        fragment_size: fragment,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    }
}

/// Trains a small conv net, compresses it with the full FORMS stack, maps
/// it, and verifies the whole chain.
#[test]
fn admm_to_accelerator_pipeline() {
    let mut rng = StdRng::seed_from_u64(42);
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
        forms::dnn::Layer::conv2d(&mut rng, 1, 6, 3, 1, 1),
        forms::dnn::Layer::relu(),
        forms::dnn::Layer::max_pool(2),
        forms::dnn::Layer::flatten(),
        forms::dnn::Layer::linear(&mut rng, 6 * 4 * 4, 4),
    ]);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    for _ in 0..10 {
        train_epoch(&mut net, &mut opt, &mut train, 16, &mut rng);
    }
    let baseline_acc = evaluate(&mut net, &test, 16);
    assert!(
        baseline_acc > 0.5,
        "baseline failed to train: {baseline_acc}"
    );

    // An unpolarized net must be rejected by the mapper.
    assert!(matches!(
        Executor::<MappedLayer>::map_network(&net, &small_mapping(4)),
        Err(ExecError::NotPolarized { .. })
    ));

    // Compress with the full FORMS stack.
    let count = net.weight_layer_count();
    let constraints: Vec<LayerConstraints> = (0..count)
        .map(|i| LayerConstraints {
            prune: Some(PruneSpec {
                shape_keep: 0.75,
                filter_keep: if i + 1 == count { 1.0 } else { 0.75 },
            }),
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            quantize: Some(QuantSpec { bits: 8 }),
        })
        .collect();
    let config = AdmmConfig {
        epochs: 12,
        lr: 0.02,
        ..Default::default()
    };
    let mut trainer = AdmmTrainer::new(&mut net, constraints, config);
    let report = trainer.train(&mut net, &mut train, &test, &mut rng);
    assert_eq!(
        trainer.constraint_violations(&mut net),
        0,
        "finalized model must satisfy every constraint"
    );

    // Map and run through the analog path.
    let mut accel = Executor::<MappedLayer>::map_network(&net, &small_mapping(4))
        .expect("polarized net must map");
    let analog_acc = accel.evaluate(&test, 8);
    assert!(
        (analog_acc - report.test_accuracy).abs() <= 0.15,
        "analog accuracy {analog_acc} diverges from digital {}",
        report.test_accuracy
    );

    // Zero-skipping must have saved cycles on real activations.
    let stats = accel.stats();
    assert!(stats.cycles > 0);
    assert!(
        stats.cycles < stats.cycles_without_skip,
        "no cycles saved: {stats:?}"
    );
}

/// The same compressed network maps at every paper fragment size and the
/// crossbar count shrinks as structure is pruned away.
#[test]
fn fragment_sizes_all_map() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Network::new(vec![
        forms::dnn::Layer::conv2d(&mut rng, 2, 4, 3, 1, 1),
        forms::dnn::Layer::relu(),
        forms::dnn::Layer::flatten(),
        forms::dnn::Layer::linear(&mut rng, 4 * 16, 3),
    ]);
    let count = net.weight_layer_count();
    let constraints: Vec<LayerConstraints> = (0..count)
        .map(|_| LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        })
        .collect();
    let mut trainer = AdmmTrainer::new(&mut net, constraints, AdmmConfig::default());
    trainer.finalize(&mut net);
    for fragment in [4usize, 8, 16] {
        // Fragments of 8/16 coarsen the 4-polarized pattern only if every
        // sub-fragment agrees; re-polarize at the target size first.
        let cs: Vec<LayerConstraints> = (0..count)
            .map(|_| LayerConstraints {
                polarize: Some(PolarizeSpec {
                    fragment_size: fragment,
                    policy: PolarizationPolicy::WMajor,
                }),
                ..Default::default()
            })
            .collect();
        let mut t = AdmmTrainer::new(&mut net.clone(), cs, AdmmConfig::default());
        let mut n = net.clone();
        t.finalize(&mut n);
        let accel = Executor::<MappedLayer>::map_network(&n, &small_mapping(fragment))
            .expect("re-polarized net must map");
        assert!(accel.total_crossbars() > 0);
    }
}
