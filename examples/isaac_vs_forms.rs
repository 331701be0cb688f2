//! Head-to-head: the same trained model executed on the FORMS polarized
//! accelerator and on the ISAAC offset-encoded baseline — accuracy, cycle
//! and correction-work comparison on the same `forms-reram` substrate.
//!
//! ```text
//! cargo run --release --example isaac_vs_forms
//! ```

use forms::admm::{AdmmConfig, AdmmTrainer, LayerConstraints, PolarizationPolicy, PolarizeSpec};
use forms::arch::{Executor, MappedLayer, MappingConfig};
use forms::baselines::{IsaacConfig, IsaacLayer};
use forms::dnn::data::SyntheticSpec;
use forms::dnn::{evaluate, train_epoch, Layer, Network, Sgd};
use forms::reram::CellSpec;
use forms::rng::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
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
    let digital = evaluate(&mut net, &test, 16);
    println!("digital accuracy: {:.1}%", 100.0 * digital);

    // ISAAC maps the signed model directly.
    let isaac_cfg = IsaacConfig {
        crossbar_dim: 16,
        cell: CellSpec::paper_2bit(),
        weight_bits: 8,
        input_bits: 12,
    };
    let mut isaac =
        Executor::<IsaacLayer>::map_network(&net, &isaac_cfg).expect("any trained model maps");
    let isaac_acc = isaac.evaluate(&test, 8);
    let istats = isaac.stats();

    // FORMS needs polarization first.
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
    let forms_cfg = MappingConfig {
        crossbar_dim: 16,
        fragment_size: 4,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 12,
        zero_skipping: true,
    };
    let mut forms =
        Executor::<MappedLayer>::map_network(&net, &forms_cfg).expect("polarized model maps");
    let forms_acc = forms.evaluate(&test, 8);
    let fstats = forms.stats();

    println!();
    println!("                     |     ISAAC |     FORMS");
    println!(
        "accuracy             | {:8.1}% | {:8.1}%",
        100.0 * isaac_acc,
        100.0 * forms_acc
    );
    println!(
        "crossbars            | {:9} | {:9}",
        isaac.total_crossbars(),
        forms.total_crossbars()
    );
    println!(
        "input cycles         | {:9} | {:9}",
        istats.cycles, fstats.cycles
    );
    println!(
        "offset subtractions  | {:9} | {:9}",
        istats.offset_subtractions, 0
    );
    println!(
        "sign-indicator bits  | {:9} | {:9}",
        0,
        forms.engines().iter().map(|l| l.sign_bits()).sum::<usize>()
    );
    println!(
        "cycles saved by skip | {:>9} | {:8.1}%",
        "—",
        100.0 * fstats.cycles_saved_fraction()
    );
    println!();
    println!(
        "FORMS trades ISAAC's per-input-bit correction work ({} subtractions here) for one \
         sign bit per fragment, and skips {:.1}% of its input cycles outright.",
        istats.offset_subtractions,
        100.0 * fstats.cycles_saved_fraction()
    );
}
