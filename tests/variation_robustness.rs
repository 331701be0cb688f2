//! Integration: device-variation and fault injection through the full
//! mixed-signal path (paper §V-E at the crossbar level).

use forms::arch::{CrossbarEngine, MappedLayer, MappingConfig};
use forms::reram::{CellSpec, LogNormalVariation, StuckAtFault, StuckAtKind};
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

fn output_error(mapped: &MappedLayer, clean: &[f32]) -> f32 {
    let codes: Vec<u32> = (0..16).map(|i| (i * 13 % 256) as u32).collect();
    let (noisy, _) = mapped.matvec(&codes, 1.0);
    noisy
        .iter()
        .zip(clean)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

#[test]
fn zero_sigma_variation_is_exact() {
    let mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    let codes: Vec<u32> = (0..16).map(|i| (i * 13 % 256) as u32).collect();
    let (clean, _) = mapped.matvec(&codes, 1.0);
    let mut perturbed = mapped.clone();
    let mut rng = StdRng::seed_from_u64(0);
    let v = LogNormalVariation::new(0.0, 0.0);
    for xb in perturbed.crossbars_mut() {
        v.apply(xb, &mut rng);
    }
    assert_eq!(output_error(&perturbed, &clean), 0.0);
}

#[test]
fn error_grows_with_sigma_on_average() {
    let mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    let codes: Vec<u32> = (0..16).map(|i| (i * 13 % 256) as u32).collect();
    let (clean, _) = mapped.matvec(&codes, 1.0);
    let mean_error = |sigma: f64| -> f32 {
        let mut total = 0.0;
        for run in 0..8 {
            let mut rng = StdRng::seed_from_u64(100 + run);
            let mut p = mapped.clone();
            let v = LogNormalVariation::new(0.0, sigma);
            for xb in p.crossbars_mut() {
                v.apply(xb, &mut rng);
            }
            total += output_error(&p, &clean);
        }
        total / 8.0
    };
    let small = mean_error(0.05);
    let large = mean_error(0.5);
    assert!(
        large > small,
        "error should grow with sigma: {small} vs {large}"
    );
}

#[test]
fn paper_sigma_causes_bounded_disturbance() {
    // At the paper's σ = 0.1 most cells still round to their programmed
    // code, so outputs move but stay close.
    let mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    let codes: Vec<u32> = (0..16).map(|i| (i * 13 % 256) as u32).collect();
    let (clean, _) = mapped.matvec(&codes, 1.0);
    let scale = clean.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
    let mut rng = StdRng::seed_from_u64(3);
    let mut p = mapped.clone();
    let v = LogNormalVariation::paper();
    for xb in p.crossbars_mut() {
        v.apply(xb, &mut rng);
    }
    let err = output_error(&p, &clean);
    assert!(
        err / scale < 0.5,
        "σ=0.1 disturbance too large: {}",
        err / scale
    );
}

#[test]
fn stuck_at_low_faults_only_shrink_magnitudes() {
    let mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    let mut faulty = mapped.clone();
    let mut rng = StdRng::seed_from_u64(9);
    let fault = StuckAtFault::new(1.0, StuckAtKind::Low);
    let mut hits = 0;
    for xb in faulty.crossbars_mut() {
        hits += fault.apply(xb, &mut rng);
    }
    assert!(hits > 0);
    // Every weight magnitude collapses to zero → all outputs zero.
    let codes = vec![7u32; 16];
    let (out, _) = faulty.matvec(&codes, 1.0);
    assert!(out.iter().all(|&v| v == 0.0));
}

#[test]
fn stuck_at_high_faults_saturate_magnitudes() {
    let mapped = MappedLayer::map(&polarized_matrix(), config()).unwrap();
    let mut faulty = mapped.clone();
    let mut rng = StdRng::seed_from_u64(10);
    let fault = StuckAtFault::new(1.0, StuckAtKind::High);
    for xb in faulty.crossbars_mut() {
        fault.apply(xb, &mut rng);
    }
    // Dequantized magnitudes all hit the top of the grid.
    let back = faulty.dequantized_matrix();
    let step = faulty.step();
    let max_mag = 255.0 * step;
    for &v in back.data() {
        assert!(
            (v.abs() - max_mag).abs() < 1e-4,
            "expected saturated magnitude, got {v}"
        );
    }
}
