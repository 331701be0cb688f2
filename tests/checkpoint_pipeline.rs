//! Integration: a compressed model survives a checkpoint round trip with
//! its constraints intact and maps identically afterwards — the deployment
//! path a real user of the library would take.

use forms::admm::{
    polarization_violations, AdmmConfig, AdmmTrainer, LayerConstraints, PolarizationPolicy,
    PolarizeSpec, QuantSpec,
};
use forms::arch::{Executor, MappedLayer, MappingConfig};
use forms::dnn::{checkpoint, Layer, Network, WeightLayerMut};
use forms::reram::CellSpec;
use forms::rng::StdRng;
use forms::tensor::Tensor;

fn build_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(vec![
        Layer::conv2d(&mut rng, 1, 4, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(&mut rng, 4 * 4 * 4, 3),
    ])
}

fn config() -> MappingConfig {
    MappingConfig {
        crossbar_dim: 16,
        fragment_size: 4,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    }
}

#[test]
fn compressed_model_round_trips_through_checkpoint() {
    let mut net = build_net(77);
    let constraints = vec![
        LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            quantize: Some(QuantSpec { bits: 8 }),
            ..Default::default()
        };
        net.weight_layer_count()
    ];
    let mut trainer = AdmmTrainer::new(&mut net, constraints, AdmmConfig::default());
    trainer.finalize(&mut net);

    // Serialize, load into a fresh (differently initialized) topology.
    let bytes = checkpoint::to_bytes(&mut net);
    let mut restored = build_net(78);
    checkpoint::from_bytes(&mut restored, &bytes).expect("same topology loads");

    // The constraints survive byte-exactly …
    restored.for_each_weight_layer(&mut |wl| {
        let m = match wl {
            WeightLayerMut::Conv(c) => c.weight_matrix(),
            WeightLayerMut::Linear(l) => l.weight_matrix(),
        };
        assert_eq!(polarization_violations(&m, 4), 0);
    });

    // … and both copies map to bit-identical accelerators.
    let mut a = Executor::<MappedLayer>::map_network(&net, &config()).expect("original maps");
    let mut b = Executor::<MappedLayer>::map_network(&restored, &config()).expect("restored maps");
    let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
    assert_eq!(a.forward(&x), b.forward(&x));
    assert_eq!(a.total_crossbars(), b.total_crossbars());
}

#[test]
fn checkpoint_rejects_wrong_topology() {
    let mut net = build_net(80);
    let bytes = checkpoint::to_bytes(&mut net);
    let mut rng = StdRng::seed_from_u64(81);
    let mut other = Network::new(vec![Layer::linear(&mut rng, 8, 3)]);
    assert!(checkpoint::from_bytes(&mut other, &bytes).is_err());
}
