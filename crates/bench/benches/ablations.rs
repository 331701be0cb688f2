//! Ablation benches over the paper's design choices (DESIGN.md §5): each
//! group sweeps one axis the paper calls out — fragment size, cell bits,
//! ADC sharing, zero-skipping, ADMM sign-update period — timing the real
//! simulator at that design point and printing the derived design metric
//! once per point.
//!
//! Gated behind the off-by-default `bench` feature; run with
//! `cargo bench -p forms-bench --features bench`.

use forms_arch::{MappedLayer, MappingConfig};
use forms_bench::timing::Bencher;
use forms_exec::CrossbarEngine;
use forms_hwmodel::{McuConfig, ThroughputModel};
use forms_reram::CellSpec;
use forms_tensor::Tensor;

fn polarized_matrix(rows: usize, cols: usize, fragment: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        let (r, c) = (i / cols, i % cols);
        let sign = if ((r / fragment) + c).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        sign * (0.05 + ((i * 13) % 11) as f32 / 16.0)
    })
}

fn sparse_codes(n: usize) -> Vec<u32> {
    // Post-ReLU-like: half zero, the rest small.
    (0..n)
        .map(|i| if i % 2 == 0 { 0 } else { ((i * 7) % 64) as u32 })
        .collect()
}

/// Fragment-size ablation: smaller fragments → more row groups but lower
/// EIC. The printed metric is the cycles actually spent.
fn ablation_fragment(b: &mut Bencher) {
    for fragment in [4usize, 8, 16, 32] {
        let w = polarized_matrix(128, 8, fragment);
        let config = MappingConfig {
            crossbar_dim: 128,
            fragment_size: fragment,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 16,
            zero_skipping: true,
        };
        let mapped = MappedLayer::map(&w, config).unwrap();
        let codes = sparse_codes(128);
        let (_, stats) = mapped.matvec(&codes, 1.0);
        eprintln!(
            "[ablation_fragment {fragment}] cycles {} / {} (saved {:.1}%), adc bits {}",
            stats.cycles,
            stats.cycles_without_skip,
            100.0 * stats.cycles_saved_fraction(),
            McuConfig::forms(fragment.min(16)).adc_bits
        );
        b.bench(&format!("ablation_fragment/{fragment}"), || {
            mapped.matvec(&codes, 1.0)
        });
    }
}

/// Bits-per-cell ablation: the paper settles on 2-bit cells.
fn ablation_cell_bits(b: &mut Bencher) {
    for cell_bits in [1u32, 2, 4] {
        let cell = CellSpec::new(cell_bits, 1.0, 61.0);
        let w = polarized_matrix(64, 8, 8);
        let config = MappingConfig {
            crossbar_dim: 64,
            fragment_size: 8,
            weight_bits: 8,
            cell,
            input_bits: 16,
            zero_skipping: true,
        };
        let mapped = MappedLayer::map(&w, config).unwrap();
        let codes = sparse_codes(64);
        eprintln!(
            "[ablation_cell_bits {cell_bits}] cells/weight {} crossbars {}",
            config.cells_per_weight(),
            mapped.crossbar_count()
        );
        b.bench(&format!("ablation_cell_bits/{cell_bits}"), || {
            mapped.matvec(&codes, 1.0)
        });
    }
}

/// ADC-sharing ablation: 1–8 ADCs per crossbar (iso-area cycle-time trade).
fn ablation_adc_share(b: &mut Bencher) {
    let isaac = ThroughputModel::baseline(McuConfig::isaac()).peak_gops();
    for adcs in [1usize, 2, 4, 8] {
        let mcu = McuConfig {
            adcs_per_crossbar: adcs,
            ..McuConfig::forms(8)
        };
        let model = ThroughputModel::baseline(mcu);
        eprintln!(
            "[ablation_adc_share {adcs}] cycle {:.2} ns, rel. peak {:.2}, MCU {:.2} mW",
            mcu.conversion_cycle_ns(),
            model.peak_gops() / isaac,
            mcu.cost().power_mw
        );
        b.bench(&format!("ablation_adc_share/{adcs}"), || {
            ThroughputModel::baseline(mcu).throughput()
        });
    }
}

/// Zero-skipping on/off at sparse inputs — the wall-clock of the simulated
/// MVM tracks the simulated cycles.
fn ablation_zeroskip(b: &mut Bencher) {
    for skip in [false, true] {
        let w = polarized_matrix(128, 8, 8);
        let config = MappingConfig {
            crossbar_dim: 128,
            fragment_size: 8,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 16,
            zero_skipping: skip,
        };
        let mapped = MappedLayer::map(&w, config).unwrap();
        let codes = sparse_codes(128);
        let (_, stats) = mapped.matvec(&codes, 1.0);
        eprintln!("[ablation_zeroskip {skip}] cycles {}", stats.cycles);
        b.bench(&format!("ablation_zeroskip/{skip}"), || {
            mapped.matvec(&codes, 1.0)
        });
    }
}

/// ADMM sign-update period (the paper's `M`): projection work per epoch at
/// different cadences.
fn ablation_sign_update(b: &mut Bencher) {
    let w = Tensor::from_fn(&[128, 32], |i| ((i * 31 % 97) as f32 / 48.0) - 1.0);
    for period in [1usize, 2, 4] {
        let p = period;
        let w = w.clone();
        b.bench(&format!("ablation_sign_update/{period}"), move || {
            // Simulate 8 "epochs": signs refresh every p, projection
            // every epoch.
            let mut z = w.clone();
            let mut signs = forms_admm::fragment_signs(&z, 8);
            for epoch in 0..8 {
                if epoch % p == 0 {
                    signs = forms_admm::fragment_signs(&z, 8);
                }
                if signs.len() == z.dims()[1] * forms_admm::active_rows(&z).len().div_ceil(8).max(1)
                {
                    z = forms_admm::project_polarization(&z, 8, &signs);
                } else {
                    signs = forms_admm::fragment_signs(&z, 8);
                    z = forms_admm::project_polarization(&z, 8, &signs);
                }
            }
            z
        });
    }
}

fn main() {
    let mut b = Bencher::new();
    ablation_fragment(&mut b);
    ablation_cell_bits(&mut b);
    ablation_adc_share(&mut b);
    ablation_zeroskip(&mut b);
    ablation_sign_update(&mut b);
}
