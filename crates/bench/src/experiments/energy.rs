//! Extension experiment: dynamic energy of mixed-signal inference with and
//! without zero-skipping, from the activity-based energy model.
//!
//! The paper notes zero-skipping "saves dynamic power consumption by
//! feeding fewer input bits (useless 0s) to the crossbar" (§V-B); this
//! experiment quantifies the saving on a real trained model's activations
//! and compares the per-inference energy of FORMS and ISAAC executions.

use forms_arch::{Executor, MappedLayer, MappingConfig};
use forms_baselines::{IsaacActivity, IsaacConfig, IsaacLayer};
use forms_hwmodel::{DynamicActivity, McuConfig};
use forms_reram::CellSpec;

use crate::report::{f2, pct, Experiment};
use crate::suite::{compress, train_baseline, CompressionRecipe, DatasetKind, ModelKind};
use forms_admm::PolarizationPolicy;

fn mapping_config(fragment: usize, zero_skipping: bool) -> MappingConfig {
    MappingConfig {
        crossbar_dim: 32,
        fragment_size: fragment,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 16,
        zero_skipping,
    }
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "Energy (ext.)",
        "per-inference dynamic energy on LeNet-5/MNIST stand-in (8 test images)",
        &[
            "configuration",
            "input cycles",
            "ADC conversions",
            "energy (µJ)",
            "vs no-skip",
        ],
    );
    let baseline = train_baseline(ModelKind::LeNet5, DatasetKind::Mnist, 2001);
    // W-major policy keeps the mapping's row order at identity so the
    // accelerator can map without per-layer permutations.
    let recipe = CompressionRecipe {
        policy: PolarizationPolicy::WMajor,
        ..CompressionRecipe::full(8, 0.4, 0.5)
    };
    let compressed = compress(&baseline, recipe, 2002);
    let (x, _) = baseline.test.batch(0, 8);

    // FORMS with and without zero-skipping.
    let mut rows = Vec::new();
    for (label, skip) in [
        ("FORMS (zero-skip on)", true),
        ("FORMS (zero-skip off)", false),
    ] {
        let mut accel =
            Executor::<MappedLayer>::map_network(&compressed.net, &mapping_config(8, skip))
                .expect("maps");
        accel.forward(&x);
        let stats = accel.stats();
        let energy = stats.energy_pj(accel.engine_config(), &McuConfig::forms(8)) * 1e-6;
        rows.push((
            label.to_string(),
            stats.cycles,
            stats.adc_conversions,
            energy,
        ));
    }
    // ISAAC on the same (pruned/quantized) model.
    {
        let isaac_cfg = IsaacConfig {
            crossbar_dim: 32,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 16,
        };
        let mut isaac =
            Executor::<IsaacLayer>::map_network(&compressed.net, &isaac_cfg).expect("maps");
        isaac.forward(&x);
        let stats = isaac.stats();
        let energy = IsaacActivity {
            stats,
            config: isaac_cfg,
        }
        .energy_uj(&McuConfig::isaac());
        rows.push((
            "ISAAC (offset-encoded)".to_string(),
            stats.cycles,
            stats.adc_conversions,
            energy,
        ));
    }

    let no_skip_energy = rows[1].3;
    for (label, cycles, conversions, energy) in &rows {
        e.row(&[
            label.clone(),
            cycles.to_string(),
            conversions.to_string(),
            f2(*energy),
            pct(1.0 - energy / no_skip_energy).to_string(),
        ]);
    }
    e.note(
        "zero-skipping saves the cycle-proportional part of the energy (DAC drives, crossbar \
         reads, conversions); the saved fraction tracks the measured EIC",
    );
    e.note(
        "the shallow LeNet stand-in is dominated by its first conv layer, whose inputs are \
         raw image pixels with few leading zeros — deeper nets, whose cycles are dominated by \
         sparse post-ReLU layers, skip far more (cf. Fig. 8b)",
    );
    e.note(
        "ISAAC pays ~3× the energy per inference here: each of its 8-bit conversions costs \
         ~4.6× a 4-bit one, and the offset subtractions add digital work",
    );
    e
}
