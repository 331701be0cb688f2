//! Determinism regression: the executor's batched (`matmul_into`) and
//! work-stealing parallel paths must be bitwise identical to a per-sample
//! walk, for both the FORMS design and the ISAAC baseline, on a pruned
//! multi-crossbar network.
//!
//! The reference is built here from the public API: walk the layers,
//! im2col and quantize each sample on its own, and run every (sample,
//! position) column through a one-column `matmul_into`. This pins the
//! property the serving layer is built on: lowering a whole batch through
//! one blocked kernel call, or distributing samples across workers (or
//! replicas) with an atomic work-stealing cursor, can never change a
//! result, because activation quantization is per-sample, kernel columns
//! are independent, and the engines are immutable during inference. Any
//! future change that introduces batch-global state into the hot path
//! fails here first.

use forms::admm::{
    fragment_signs, polarization_violations, project_polarization, project_structured_pruning,
};
use forms::arch::{MappedLayer, MappingConfig, MATMUL_TILE};
use forms::baselines::{IsaacConfig, IsaacLayer};
use forms::dnn::{Layer, Network, WeightLayerMut};
use forms::exec::{CrossbarEngine, Executor, FaultCampaign, LayerPrecision, Merge, PrecisionPlan};
use forms::reram::CellSpec;
use forms::rng::StdRng;
use forms::tensor::{im2col, Conv2dGeometry, FixedSpec, QuantizedTensor, Tensor};

const FRAGMENT: usize = 4;

/// The executor's output-range sentinel slack (a hair above 1 so f32
/// rounding never trips a clean array), mirrored by the oracle.
const SENTINEL_SLACK: f64 = 1.0 + 1e-4;

/// A CNN whose linear layer spans several 16×16 crossbars, with weights
/// structured-pruned (25% of rows dropped) and then fragment-polarized so
/// FORMS can map them.
fn pruned_polarized_net() -> Network {
    polarized_under(|rows| (0..rows).collect()).0
}

/// [`pruned_polarized_net`] with each weight layer polarized in the row
/// order `order(rows)` instead of the natural one, as a network trained
/// under a row-permutation policy is; returns the orders alongside.
fn polarized_under(order: fn(usize) -> Vec<usize>) -> (Network, Vec<Option<Vec<usize>>>) {
    let mut rng = StdRng::seed_from_u64(0xDE7);
    let mut net = Network::new(vec![
        Layer::conv2d(&mut rng, 1, 8, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(&mut rng, 8 * 4 * 4, 10),
    ]);
    let mut perms = Vec::new();
    net.for_each_weight_layer(&mut |wl| {
        let z = match &wl {
            WeightLayerMut::Conv(c) => c.weight_matrix(),
            WeightLayerMut::Linear(l) => l.weight_matrix(),
        };
        let (rows, cols) = (z.dims()[0], z.dims()[1]);
        let z = project_structured_pruning(&z, rows * 3 / 4, cols);
        let perm = order(rows);
        let mut pz = Tensor::from_fn(&[rows, cols], |i| {
            z.data()[perm[i / cols] * cols + i % cols]
        });
        while polarization_violations(&pz, FRAGMENT) > 0 {
            let signs = fragment_signs(&pz, FRAGMENT);
            pz = project_polarization(&pz, FRAGMENT, &signs);
        }
        let mut z = Tensor::zeros(&[rows, cols]);
        for (i, &r) in perm.iter().enumerate() {
            z.data_mut()[r * cols..(r + 1) * cols]
                .copy_from_slice(&pz.data()[i * cols..(i + 1) * cols]);
        }
        match wl {
            WeightLayerMut::Conv(c) => c.set_weight_matrix(&z),
            WeightLayerMut::Linear(l) => l.set_weight_matrix(&z),
        }
        perms.push(Some(perm));
    });
    (net, perms)
}

fn forms_config() -> MappingConfig {
    MappingConfig {
        crossbar_dim: 16,
        fragment_size: FRAGMENT,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 8,
        zero_skipping: true,
    }
}

fn isaac_config() -> IsaacConfig {
    IsaacConfig {
        crossbar_dim: 16,
        cell: CellSpec::paper_2bit(),
        weight_bits: 8,
        input_bits: 8,
    }
}

/// Batches of one sample, a ragged few, and more samples than one engine
/// tile holds (so the linear layer's kernel call spans several tiles).
fn batches() -> Vec<Tensor> {
    [1, 5, MATMUL_TILE + 3]
        .into_iter()
        .map(|n| Tensor::from_fn(&[n, 1, 8, 8], |i| ((i * 13) % 23) as f32 / 23.0))
        .collect()
}

/// What the per-sample walk produces and counts.
struct Oracle<S> {
    out: Tensor,
    stats: S,
    layer_stats: Vec<S>,
    layer_mvms: Vec<u64>,
    sentinels: u64,
}

/// The per-sample reference walk over `net` on `exec`'s engines: each
/// weight layer quantizes every sample on its own (im2col first for a
/// conv) and runs one one-column `matmul_into` per (sample, position),
/// gathering the column's codes through the layer's row order.
fn per_sample<E: CrossbarEngine>(
    exec: &Executor<E>,
    net: &Network,
    perms: &[Option<Vec<usize>>],
    x: &Tensor,
) -> Oracle<E::Stats> {
    let layers = exec.engines().len();
    let mut o = Oracle {
        out: x.clone(),
        stats: E::Stats::default(),
        layer_stats: vec![E::Stats::default(); layers],
        layer_mvms: vec![0; layers],
        sentinels: 0,
    };
    let mut scratch = E::Scratch::default();
    let mut widx = 0;
    for mut layer in net.clone().into_layers() {
        let y = &o.out;
        let (geom, bias) = match &layer {
            Layer::Conv2d(conv) => (
                Some(Conv2dGeometry::new(
                    conv.in_channels(),
                    y.dims()[2],
                    y.dims()[3],
                    conv.kernel(),
                    conv.kernel(),
                    conv.stride(),
                    conv.padding(),
                )),
                conv.bias().value.clone(),
            ),
            Layer::Linear(lin) => (None, lin.bias().value.clone()),
            Layer::Residual(_) => panic!("the oracle walks plain stacks only"),
            _ => {
                o.out = layer.forward(y, false);
                continue;
            }
        };
        let (idx, engine) = (widx, &exec.engines()[widx]);
        widx += 1;
        let n = y.dims()[0];
        let f = bias.len();
        let (positions, mut out) = match &geom {
            Some(g) => (g.out_positions(), Tensor::zeros(&[n, f, g.out_h, g.out_w])),
            None => (1, Tensor::zeros(&[n, f])),
        };
        let sample_len = y.len() / n;
        let mut column = vec![0.0f32; engine.output_len()];
        for s in 0..n {
            let sample = Tensor::from_vec(
                y.data()[s * sample_len..(s + 1) * sample_len].to_vec(),
                &y.dims()[1..],
            );
            let unfolded = match &geom {
                Some(g) => im2col(&sample, g),
                None => sample,
            };
            let spec = FixedSpec::for_max_value(exec.layer_input_bits()[idx], unfolded.max());
            let q = QuantizedTensor::quantize_with(&unfolded, spec);
            let scale = q.spec().scale();
            let patch = q.codes().len() / positions;
            for p in 0..positions {
                let natural: Vec<u32> = (0..patch).map(|r| q.codes()[r * positions + p]).collect();
                let codes = match &perms[idx] {
                    Some(perm) => perm.iter().map(|&r| natural[r]).collect(),
                    None => natural,
                };
                let stats = engine.matmul_into(&codes, &[scale], &mut scratch, &mut column);
                o.stats.merge(stats);
                o.layer_stats[idx].merge(stats);
                o.layer_mvms[idx] += 1;
                if let Some(ceiling) = engine.output_ceiling() {
                    let bound = ceiling * f64::from(scale) * SENTINEL_SLACK;
                    o.sentinels += column
                        .iter()
                        .filter(|v| !v.is_finite() || f64::from(**v).abs() > bound)
                        .count() as u64;
                }
                for (fi, &v) in column.iter().enumerate() {
                    out.data_mut()[(s * f + fi) * positions + p] = v + bias.data()[fi];
                }
            }
        }
        o.out = out;
    }
    o
}

/// `forward` and `forward_parallel` at 1, 2 and 4 workers must match the
/// per-sample walk bit for bit on every batch: outputs, merged stats,
/// per-layer stats, per-layer MVM counts and sentinel trips. Returns the
/// oracle's total sentinel trips.
fn assert_matches_per_sample<E: CrossbarEngine>(
    exec: &Executor<E>,
    net: &Network,
    perms: &[Option<Vec<usize>>],
    design: &str,
) -> u64
where
    E::Stats: PartialEq + std::fmt::Debug,
{
    let mut trips = 0;
    for x in batches() {
        let n = x.dims()[0];
        let want = per_sample(exec, net, perms, &x);
        trips += want.sentinels;
        for workers in [0, 1, 2, 4] {
            let mut run = exec.clone();
            let got = if workers == 0 {
                run.forward(&x)
            } else {
                run.forward_parallel(&x, workers)
            };
            let at = format!("{design}, batch {n}, workers {workers} (0 = forward)");
            assert_eq!(got.dims(), want.out.dims(), "{at}: dims");
            assert_eq!(got.data(), want.out.data(), "{at}: outputs");
            assert_eq!(run.stats(), want.stats, "{at}: stats");
            assert_eq!(
                run.layer_stats(),
                &want.layer_stats[..],
                "{at}: layer stats"
            );
            assert_eq!(run.layer_mvms(), &want.layer_mvms[..], "{at}: layer MVMs");
            assert_eq!(run.sentinel_violations(), want.sentinels, "{at}: sentinels");
        }
    }
    trips
}

#[test]
fn forms_parallel_forward_is_bitwise_deterministic() {
    let net = pruned_polarized_net();
    let exec = Executor::<MappedLayer>::map_network(&net, &forms_config()).expect("maps on FORMS");
    assert!(
        exec.total_crossbars() > 4,
        "the regression must cover a multi-crossbar mapping, got {}",
        exec.total_crossbars()
    );
    let perms = vec![None; exec.engines().len()];
    assert_matches_per_sample(&exec, &net, &perms, "FORMS");
}

#[test]
fn isaac_parallel_forward_is_bitwise_deterministic() {
    let net = pruned_polarized_net();
    let exec = Executor::<IsaacLayer>::map_network(&net, &isaac_config()).expect("maps on ISAAC");
    assert!(exec.total_crossbars() > 4);
    let perms = vec![None; exec.engines().len()];
    assert_matches_per_sample(&exec, &net, &perms, "ISAAC");
}

#[test]
fn permuted_rows_are_bitwise_deterministic() {
    // Reversed rows cross every fragment boundary, so FORMS maps this
    // network only through the permutation it was polarized under.
    let (net, perms) = polarized_under(|rows| (0..rows).rev().collect());
    assert!(Executor::<MappedLayer>::map_network(&net, &forms_config()).is_err());
    let forms = Executor::<MappedLayer>::with_permutations(&net, &forms_config(), perms.clone())
        .expect("maps on FORMS under its row order");
    assert_matches_per_sample(&forms, &net, &perms, "FORMS(permuted)");
    let isaac = Executor::<IsaacLayer>::with_permutations(&net, &isaac_config(), perms.clone())
        .expect("maps on ISAAC");
    assert_matches_per_sample(&isaac, &net, &perms, "ISAAC(permuted)");
}

#[test]
fn faulted_engines_are_bitwise_deterministic() {
    // Stuck cells take the kernels off their pristine fast paths and can
    // trip the output sentinels; both must still agree column for column.
    let net = pruned_polarized_net();
    let campaign = FaultCampaign::stuck_at(3, 0.0, 0.9);
    let mut forms = Executor::<MappedLayer>::map_network(&net, &forms_config()).unwrap();
    forms.inject_faults(&campaign, 1);
    let mut isaac = Executor::<IsaacLayer>::map_network(&net, &isaac_config()).unwrap();
    isaac.inject_faults(&campaign, 1);
    let perms = vec![None; forms.engines().len()];
    let trips = assert_matches_per_sample(&forms, &net, &perms, "FORMS(faulted)")
        + assert_matches_per_sample(&isaac, &net, &perms, "ISAAC(faulted)");
    assert!(trips > 0, "stuck-high cells must trip some sentinel");
}

/// The mixed-precision plan used by the plan-aware determinism pins:
/// conv at full 8/8, linear narrowed to 4/6 — each layer runs a
/// genuinely different quantization, so batch-global state sneaking into
/// either path fails here too.
fn mixed_plan() -> PrecisionPlan {
    PrecisionPlan::per_layer(vec![LayerPrecision::new(8, 8), LayerPrecision::new(4, 6)])
}

#[test]
fn forms_mixed_plan_parallel_forward_is_bitwise_deterministic() {
    let net = pruned_polarized_net();
    let exec = Executor::<MappedLayer>::with_plan(&net, &forms_config(), mixed_plan())
        .expect("maps on FORMS under a mixed plan");
    assert!(!exec.plan().is_uniform());
    assert_eq!(exec.layer_configs()[1].weight_bits, 4);
    assert_eq!(exec.layer_input_bits(), &[8, 6]);
    let perms = vec![None; exec.engines().len()];
    assert_matches_per_sample(&exec, &net, &perms, "FORMS(mixed)");
}

#[test]
fn isaac_mixed_plan_parallel_forward_is_bitwise_deterministic() {
    let net = pruned_polarized_net();
    let exec = Executor::<IsaacLayer>::with_plan(&net, &isaac_config(), mixed_plan())
        .expect("maps on ISAAC under a mixed plan");
    assert!(!exec.plan().is_uniform());
    let perms = vec![None; exec.engines().len()];
    assert_matches_per_sample(&exec, &net, &perms, "ISAAC(mixed)");
}

/// A uniform plan at the base configuration's own widths must reproduce
/// the legacy `map_network` path bit for bit — outputs AND statistics —
/// on both designs.
#[test]
fn uniform_plan_is_bitwise_identical_to_legacy_mapping() {
    let net = pruned_polarized_net();
    let x = &batches()[1];

    let fconfig = forms_config();
    let mut legacy = Executor::<MappedLayer>::map_network(&net, &fconfig).unwrap();
    let mut planned =
        Executor::<MappedLayer>::with_plan(&net, &fconfig, PrecisionPlan::uniform(8, 8)).unwrap();
    assert_eq!(legacy.forward(x).data(), planned.forward(x).data());
    assert_eq!(legacy.stats(), planned.stats(), "FORMS stats diverge");

    let iconfig = isaac_config();
    let mut legacy = Executor::<IsaacLayer>::map_network(&net, &iconfig).unwrap();
    let mut planned =
        Executor::<IsaacLayer>::with_plan(&net, &iconfig, PrecisionPlan::uniform(8, 8)).unwrap();
    assert_eq!(legacy.forward(x).data(), planned.forward(x).data());
    assert_eq!(legacy.stats(), planned.stats(), "ISAAC stats diverge");
}
