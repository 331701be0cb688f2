//! Whole-network tests of the FORMS engine: a polarized DNN mapped onto
//! `MappedLayer` crossbars through the shared `Executor` and run end to
//! end through the analog path.

use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{ExecError, Executor};
use forms_rng::StdRng;
use forms_tensor::Tensor;

use forms_arch::{FpsModel, MappedLayer, MappingConfig, MvmStats};

/// Polarizes a network in place with the ADMM projection (iterated to a
/// fixed point, since zeroing can retire rows and shift fragments) so
/// it can be mapped.
fn polarize_net(net: &mut Network, fragment: usize) {
    net.for_each_weight_layer(&mut |wl| {
        let mut z = match &wl {
            WeightLayerMut::Conv(c) => c.weight_matrix(),
            WeightLayerMut::Linear(l) => l.weight_matrix(),
        };
        while forms_admm::polarization_violations(&z, fragment) > 0 {
            let signs = forms_admm::fragment_signs(&z, fragment);
            z = forms_admm::project_polarization(&z, fragment, &signs);
        }
        match wl {
            WeightLayerMut::Conv(c) => c.set_weight_matrix(&z),
            WeightLayerMut::Linear(l) => l.set_weight_matrix(&z),
        }
    });
}

fn small_config(fragment: usize) -> MappingConfig {
    MappingConfig {
        crossbar_dim: 16,
        fragment_size: fragment,
        weight_bits: 8,
        cell: forms_reram::CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    }
}

fn small_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(vec![
        Layer::conv2d(&mut rng, 1, 4, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(&mut rng, 4 * 4 * 4, 3),
    ])
}

#[test]
fn unpolarized_network_is_rejected() {
    let net = small_net(0);
    let err = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap_err();
    assert!(matches!(err, ExecError::NotPolarized { .. }));
}

#[test]
fn mapped_network_tracks_digital_reference() {
    let mut net = small_net(1);
    polarize_net(&mut net, 4);
    let mut exec = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let x = forms_tensor::uniform(&mut rng, &[2, 1, 8, 8], 0.5).map(f32::abs);
    let digital = net.clone().forward(&x);
    let analog = exec.forward(&x);
    assert_eq!(analog.dims(), digital.dims());
    let err = analog.max_abs_diff(&digital);
    let scale = digital.abs_max().max(1e-6);
    assert!(
        err / scale < 0.05,
        "analog diverges from digital: {err} (scale {scale})"
    );
}

#[test]
fn residual_network_maps_and_runs() {
    let mut rng = StdRng::seed_from_u64(3);
    let block = forms_dnn::ResidualBlock::new(
        vec![
            Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
            Layer::relu(),
            Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
        ],
        Some(Layer::conv2d(&mut rng, 2, 2, 1, 1, 0)),
    );
    let mut net = Network::new(vec![
        Layer::conv2d(&mut rng, 1, 2, 3, 1, 1),
        Layer::relu(),
        Layer::Residual(block),
        Layer::flatten(),
        Layer::linear(&mut rng, 2 * 4 * 4, 2),
    ]);
    polarize_net(&mut net, 4);
    let mut exec = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32 / 16.0);
    let digital = net.clone().forward(&x);
    let analog = exec.forward(&x);
    let err = analog.max_abs_diff(&digital) / digital.abs_max().max(1e-6);
    assert!(err < 0.08, "relative error {err}");
}

#[test]
fn layer_perfs_feed_the_fps_model() {
    let mut net = small_net(12);
    polarize_net(&mut net, 4);
    let mut exec = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let images = 2;
    let x = Tensor::from_fn(&[images, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
    exec.forward(&x);
    let perfs = exec.layer_perfs(images);
    assert_eq!(perfs.len(), 2); // conv + linear
                                // Conv layer: 64 output positions per image; linear: 1.
    assert_eq!(perfs[0].positions, 64);
    assert_eq!(perfs[1].positions, 1);
    assert!(perfs
        .iter()
        .all(|p| p.input_cycles >= 1.0 && p.crossbars > 0));
    // The perfs drive the FPS model directly.
    let fps = FpsModel::new(forms_hwmodel::McuConfig::forms(4), perfs).fps();
    assert!(fps > 0.0);
}

#[test]
fn parallel_forward_matches_serial() {
    let mut net = small_net(11);
    polarize_net(&mut net, 4);
    let mut serial = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let mut parallel = serial.clone();
    let x = Tensor::from_fn(&[5, 1, 8, 8], |i| (i % 9) as f32 / 9.0);
    let ys = serial.forward(&x);
    let yp = parallel.forward_parallel(&x, 3);
    assert_eq!(ys, yp);
    assert_eq!(serial.stats(), parallel.stats());
    assert_eq!(serial.layer_stats(), parallel.layer_stats());
    assert_eq!(serial.layer_mvms(), parallel.layer_mvms());
}

#[test]
fn parallel_evaluate_matches_serial() {
    let mut rng = StdRng::seed_from_u64(13);
    let spec = forms_dnn::data::SyntheticSpec {
        classes: 3,
        channels: 1,
        height: 8,
        width: 8,
        train_per_class: 2,
        test_per_class: 4,
        noise: 0.1,
    };
    let (_, test) = spec.generate(&mut rng);
    let mut net = small_net(14);
    polarize_net(&mut net, 4);
    let mut serial = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let mut parallel = serial.clone();
    let a = serial.evaluate(&test, 4);
    let b = parallel.evaluate_parallel(&test, 4, 3);
    assert_eq!(a, b);
    assert_eq!(serial.stats(), parallel.stats());
}

#[test]
fn stats_accumulate_and_reset() {
    let mut net = small_net(4);
    polarize_net(&mut net, 4);
    let mut exec = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
    exec.forward(&x);
    let s = exec.stats();
    assert!(s.cycles > 0 && s.adc_conversions > 0);
    assert!(s.cycles <= s.cycles_without_skip);
    exec.reset_stats();
    assert_eq!(exec.stats(), MvmStats::default());
}

#[test]
fn variation_perturbs_outputs() {
    let mut net = small_net(5);
    polarize_net(&mut net, 4);
    let mut exec = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 7) as f32 / 8.0);
    let clean = exec.forward(&x);
    let mut rng = StdRng::seed_from_u64(6);
    let variation = forms_reram::LogNormalVariation::new(0.0, 0.3);
    for layer in exec.engines_mut() {
        for xbar in layer.crossbars_mut() {
            variation.apply(xbar, &mut rng);
        }
    }
    let noisy = exec.forward(&x);
    assert!(
        clean.max_abs_diff(&noisy) > 0.0,
        "variation had no effect at sigma 0.3"
    );
}

/// Overwrites every weight layer with a fully dense polarized pattern
/// (no zero rows, so fragment structure is permutation-stable).
fn dense_polarize_net(net: &mut Network, fragment: usize) {
    net.for_each_weight_layer(&mut |wl| {
        let m = match &wl {
            WeightLayerMut::Conv(c) => c.weight_matrix(),
            WeightLayerMut::Linear(l) => l.weight_matrix(),
        };
        let (rows, cols) = (m.dims()[0], m.dims()[1]);
        let dense = Tensor::from_fn(&[rows, cols], |i| {
            let (r, c) = (i / cols, i % cols);
            let sign = if ((r / fragment) + c).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            sign * (0.1 + ((r * 31 + c * 17) % 7) as f32 * 0.1)
        });
        match wl {
            WeightLayerMut::Conv(c) => c.set_weight_matrix(&dense),
            WeightLayerMut::Linear(l) => l.set_weight_matrix(&dense),
        }
    });
}

#[test]
fn permuted_mapping_matches_identity_results() {
    // Mapping with a row permutation and permuting inputs must give the
    // same results as identity mapping (the paper's "re-order weights
    // with their corresponding inputs" invariant).
    let mut net = small_net(7);
    dense_polarize_net(&mut net, 4); // dense, polarized in natural order
    let count = net.weight_layer_count();
    let identity = Executor::<MappedLayer>::map_network(&net, &small_config(4)).unwrap();
    // An involutive permutation that preserves fragments: swap adjacent
    // pairs within each fragment of 4.
    let mut perms = Vec::new();
    {
        let mut n = net.clone();
        n.for_each_weight_layer(&mut |wl| {
            let rows = match wl {
                WeightLayerMut::Conv(c) => c.weight_matrix().dims()[0],
                WeightLayerMut::Linear(l) => l.weight_matrix().dims()[0],
            };
            // Swap adjacent pairs; an odd trailing row maps to itself.
            let perm: Vec<usize> = (0..rows)
                .map(|i| {
                    if i % 2 == 0 && i + 1 < rows {
                        i + 1
                    } else if i % 2 == 1 {
                        i - 1
                    } else {
                        i
                    }
                })
                .collect();
            perms.push(Some(perm));
        });
    }
    assert_eq!(perms.len(), count);
    let permuted =
        Executor::<MappedLayer>::with_permutations(&net, &small_config(4), perms).unwrap();
    let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 3) as f32 / 4.0);
    let mut a = identity;
    let mut b = permuted;
    let ya = a.forward(&x);
    let yb = b.forward(&x);
    assert!(ya.allclose(&yb, 1e-4), "permutation changed results");
}

#[test]
fn non_permutation_row_orders_are_rejected() {
    let mut net = small_net(7);
    dense_polarize_net(&mut net, 4);
    // The 3×3 single-channel conv lowers to 9 rows: a repeated index
    // and an out-of-range one.
    for bad in [vec![0; 9], (1..=9).collect()] {
        let perms = vec![Some(bad), None];
        let err =
            Executor::<MappedLayer>::with_permutations(&net, &small_config(4), perms).unwrap_err();
        assert!(
            matches!(err, ExecError::UnsupportedConfig { .. }),
            "got {err:?}"
        );
    }
}
