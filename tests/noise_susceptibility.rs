//! Integration: the paper's §II-C claim 3 — fine-grained sub-arrays are
//! less susceptible to analog noise than coarse-grained columns — pinned as
//! a test over the full mapping + converter stack.

use forms::arch::{CrossbarEngine, MappedLayer, MappingConfig};
use forms::reram::{CellSpec, CurrentNoise, IrDropModel};
use forms::rng::StdRng;
use forms::tensor::Tensor;

/// All-positive magnitudes: polarized at every fragment size, so the same
/// matrix serves the whole sweep.
fn positive_matrix(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| 0.05 + ((i * 13) % 11) as f32 / 16.0)
}

fn config(fragment: usize) -> MappingConfig {
    MappingConfig {
        crossbar_dim: 128,
        fragment_size: fragment,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 8,
        zero_skipping: true,
    }
}

fn mean_noise_error(fragment: usize, runs: u64) -> f64 {
    let w = positive_matrix(128, 4);
    let mapped = MappedLayer::map(&w, config(fragment)).unwrap();
    let codes: Vec<u32> = (0..128).map(|i| ((i * 37) % 256) as u32).collect();
    let (clean, _) = mapped.matvec(&codes, 1.0);
    let scale = clean.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
    let noise = CurrentNoise::typical();
    let mut total = 0.0f64;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(4000 + run);
        let (noisy, _) = mapped.matvec_noisy(&codes, 1.0, &noise, &mut rng);
        let err: f32 = noisy
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / clean.len() as f32;
        total += (err / scale) as f64;
    }
    total / runs as f64
}

#[test]
fn fine_grained_fragments_suffer_less_read_noise() {
    let fine = mean_noise_error(8, 12);
    let coarse = mean_noise_error(128, 12);
    // The fine fragment's per-unit ADC levels round typical read noise away
    // almost entirely; the coarse column's wide full-scale cannot.
    assert!(
        fine < 5e-4,
        "fine-grained error should be near zero, got {fine:.5}"
    );
    assert!(
        coarse > fine + 1e-4,
        "coarse ({coarse:.5}) should be noisier than fine ({fine:.5})"
    );
}

#[test]
fn fine_grained_fragments_suffer_less_ir_drop() {
    let ir = IrDropModel::typical();
    let fine = ir.worst_case_relative_error(8, 61.0);
    let coarse = ir.worst_case_relative_error(128, 61.0);
    assert!(
        coarse > 4.0 * fine,
        "IR drop: coarse {coarse} vs fine {fine}"
    );
}

#[test]
fn sufficient_adc_resolution_rejects_small_noise_entirely() {
    // The ideal fragment ADC has one level per code unit; sub-half-unit
    // noise rounds away — exactly why small full-scales are robust.
    let w = positive_matrix(32, 2);
    let mapped = MappedLayer::map(
        &w,
        MappingConfig {
            crossbar_dim: 32,
            fragment_size: 4,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 8,
            zero_skipping: true,
        },
    )
    .unwrap();
    let codes: Vec<u32> = (0..32).map(|i| (i % 16) as u32).collect();
    let (clean, _) = mapped.matvec(&codes, 1.0);
    let mut rng = StdRng::seed_from_u64(99);
    // σ = 0.1 code units: rounds to the programmed level almost surely.
    let noise = CurrentNoise::new(0.1, 0.0);
    let (noisy, _) = mapped.matvec_noisy(&codes, 1.0, &noise, &mut rng);
    assert_eq!(clean, noisy, "sub-LSB noise must be fully rejected");
}
