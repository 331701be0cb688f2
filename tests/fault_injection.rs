//! Integration: post-map fault injection through the packed bit-plane
//! kernel (`matmul_into`, which `matvec` calls with one column),
//! executor-level campaigns, and the output-range sentinels — the
//! invariants the graceful-degradation layer stands on (paper §V-E).
//!
//! The load-bearing property: mutating cells *after* mapping (stuck-at
//! campaigns, direct conductance writes) must be observed by the packed
//! kernel exactly as by the reference kernel, because the serving
//! layer's health checks read outputs produced by the packed kernel.

use forms::arch::{MappedLayer, MappingConfig};
use forms::baselines::{IsaacConfig, IsaacLayer};
use forms::dnn::{Layer, Network, WeightLayerMut};
use forms::exec::{CrossbarEngine, Executor, FaultCampaign, FaultableEngine};
use forms::reram::{CellSpec, Crossbar};
use forms::rng::StdRng;
use forms::tensor::Tensor;

fn polarized_matrix() -> Tensor {
    Tensor::from_fn(&[16, 4], |i| {
        let (r, c) = (i / 4, i % 4);
        let sign = if ((r / 4) + c) % 2 == 0 { 1.0 } else { -1.0 };
        sign * (0.1 + (i % 5) as f32 * 0.1)
    })
}

fn config() -> MappingConfig {
    MappingConfig {
        crossbar_dim: 16,
        fragment_size: 4,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 8,
        zero_skipping: true,
    }
}

fn input_codes() -> Vec<u32> {
    (0..16).map(|i| (i * 13 % 256) as u32).collect()
}

#[test]
fn forms_and_isaac_fault_the_same_cells() {
    // One polarized matrix on a 3×2 grid of 16×16 crossbars in both
    // designs: the same campaign and salt must stick the same cells, since
    // the per-cell draws depend on the grid shape only, not on the codes.
    let w = Tensor::from_fn(&[40, 6], |i| {
        let (r, c) = (i / 6, i % 6);
        let sign = if ((r / 4) + c) % 2 == 0 { 1.0 } else { -1.0 };
        sign * (0.1 + (i % 5) as f32 * 0.1)
    });
    let isaac_config = IsaacConfig {
        crossbar_dim: 16,
        cell: CellSpec::paper_2bit(),
        weight_bits: 8,
        input_bits: 8,
    };
    let mut forms = MappedLayer::map(&w, config()).unwrap();
    let mut isaac = IsaacLayer::map(&w, isaac_config).unwrap();
    assert_eq!(forms.crossbar_count(), 6);
    assert_eq!(isaac.crossbar_count(), 6);
    // Drift moves every cell that does not stick (g_min is 1 µS, not 0),
    // so after the campaign the stuck cells are exactly those on a rail.
    let campaign = FaultCampaign::mixed(21, 0.05, 0.05, 0.1);
    let forms_report = forms.inject_faults(&campaign, 3);
    let isaac_report = isaac.inject_faults(&campaign, 3);
    assert_eq!(forms_report, isaac_report);
    assert!(forms_report.stuck_low > 0 && forms_report.stuck_high > 0);
    assert_eq!(forms.health(), isaac.health());
    assert_eq!(forms.health().faulted_cells, forms_report.stuck() as u64);
    let stuck_cells = |xbars: &[Crossbar]| -> Vec<(usize, usize)> {
        let spec = xbars[0].spec();
        let rail = |g: f64| g == spec.g_min() || g == spec.g_max();
        xbars
            .iter()
            .enumerate()
            .flat_map(|(x, xb)| {
                let gs = xb.conductances();
                (0..gs.len())
                    .filter(move |&i| rail(gs[i]))
                    .map(move |i| (x, i))
            })
            .collect()
    };
    let stuck = stuck_cells(forms.crossbars_mut());
    assert_eq!(stuck.len(), forms_report.stuck());
    assert_eq!(stuck, stuck_cells(isaac.crossbars_mut()));
}

#[test]
fn forms_post_map_writes_flow_through_packed_path() {
    let mut mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    let (clean, _) = mapped.matvec(&input_codes(), 1.0);
    // Pin a handful of cells high by hand, exactly as a fault model does.
    for xb in mapped.crossbars_mut() {
        let g_max = xb.spec().g_max();
        for g in xb.conductances_mut().iter_mut().step_by(7) {
            *g = g_max;
        }
        xb.commit_writes();
    }
    let (packed, _) = mapped.matvec(&input_codes(), 1.0);
    let (reference, _) = mapped.matvec_reference(&input_codes(), 1.0);
    assert_eq!(
        packed, reference,
        "packed path must see post-map writes bitwise like the reference"
    );
    assert_ne!(packed, clean, "the writes must actually move the outputs");
}

#[test]
fn isaac_post_map_writes_flow_through_packed_path() {
    let mut mapped = IsaacLayer::map(
        &polarized_matrix(),
        IsaacConfig {
            crossbar_dim: 16,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 8,
        },
    )
    .unwrap();
    let (clean, _) = mapped.matvec(&input_codes(), 1.0);
    for xb in mapped.crossbars_mut() {
        let g_max = xb.spec().g_max();
        for g in xb.conductances_mut().iter_mut().step_by(5) {
            *g = g_max;
        }
        xb.commit_writes();
    }
    let (packed, _) = mapped.matvec(&input_codes(), 1.0);
    let (reference, _) = mapped.matvec_reference(&input_codes(), 1.0);
    assert_eq!(packed, reference);
    assert_ne!(packed, clean);
}

#[test]
#[should_panic(expected = "stale packed read")]
fn uncommitted_writes_poison_the_packed_path() {
    let mut mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    // Mutate without commit_writes(): the hoisted dequant table is stale,
    // so the kernel's integral-path audit must refuse rather than silently
    // serve old cells.
    mapped.crossbars_mut()[0].conductances_mut()[0] = 0.0;
    let _ = mapped.matvec(&input_codes(), 1.0);
}

fn mapped_executor(weights: &Tensor) -> Executor<MappedLayer> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, 16, 4)]);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(weights);
        }
    });
    Executor::map_network(&net, &config()).unwrap()
}

#[test]
fn executor_campaigns_update_health_and_replay_deterministically() {
    let pristine = mapped_executor(&polarized_matrix());
    let x = Tensor::from_fn(&[1, 16], |i| 0.1 + (i % 7) as f32 * 0.1);
    let clean = pristine.clone().forward(&x).into_vec();
    assert_eq!(pristine.health().faulted_cells, 0);

    let campaign = FaultCampaign::stuck_at(42, 0.2, 0.2);
    let mut faulty = pristine.clone();
    let report = faulty.inject_faults(&campaign, 7);
    assert!(report.stuck() > 0, "heavy campaign must hit cells");
    let health = faulty.health();
    assert_eq!(health.faulted_cells, report.stuck() as u64);
    assert!(health.fault_density() > 0.0);
    let out = faulty.forward(&x).into_vec();
    assert_ne!(out, clean, "injected faults must corrupt outputs");

    // Same campaign + salt on a fresh clone reproduces the same silicon.
    let mut replay = pristine.clone();
    replay.inject_faults(&campaign, 7);
    assert_eq!(replay.forward(&x).into_vec(), out);
    // A different salt draws different faulty cells.
    let mut other = pristine.clone();
    other.inject_faults(&campaign, 8);
    assert_ne!(other.forward(&x).into_vec(), out);
}

#[test]
fn stuck_high_campaign_trips_the_output_sentinels() {
    // Single-polarity weights: stuck-high can only inflate column
    // currents past the pristine ceiling, which clean silicon can never
    // exceed — exactly what the sentinel is specified to catch.
    let positive = Tensor::from_fn(&[16, 4], |i| 0.1 + (i % 5) as f32 * 0.1);
    let pristine = mapped_executor(&positive);
    let x = Tensor::from_vec(vec![1.0; 16], &[1, 16]);
    let mut clean = pristine.clone();
    clean.forward(&x);
    assert_eq!(clean.sentinel_violations(), 0, "clean run must not trip");

    let mut faulty = pristine.clone();
    faulty.inject_faults(&FaultCampaign::stuck_at(3, 0.0, 0.9), 0);
    faulty.forward(&x);
    assert!(
        faulty.sentinel_violations() > 0,
        "saturated array must push outputs past the nominal ceiling"
    );
}
