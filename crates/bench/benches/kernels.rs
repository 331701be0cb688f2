//! Timing benches over the simulator kernels: the inner loops every
//! experiment binary exercises.
//!
//! Gated behind the off-by-default `bench` feature; run with
//! `cargo bench -p forms-bench --features bench` (set `FORMS_BENCH_FAST=1`
//! for a quick smoke pass).

use forms_arch::{eic_stats, MappedLayer, MappingConfig, ShiftRegisterBank};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_bench::timing::Bencher;
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

fn mapping_config(fragment: usize) -> MappingConfig {
    MappingConfig {
        crossbar_dim: 128,
        fragment_size: fragment,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 16,
        zero_skipping: true,
    }
}

fn input_codes(n: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * 37) % 1024) as u32).collect()
}

fn main() {
    let mut b = Bencher::new();

    let w = polarized_matrix(128, 16, 8);
    let mapped = MappedLayer::map(&w, mapping_config(8)).unwrap();
    let codes = input_codes(128);
    b.bench("forms_matvec_128x16_frag8", || mapped.matvec(&codes, 1.0));

    let isaac = IsaacLayer::map(&w, IsaacConfig::paper()).unwrap();
    b.bench("isaac_matvec_128x16", || isaac.matvec(&codes, 1.0));

    let w_map = polarized_matrix(128, 64, 8);
    b.bench("map_layer_128x64", || {
        MappedLayer::map(&w_map, mapping_config(8)).unwrap()
    });

    b.bench("shift_bank_drain_128", || {
        ShiftRegisterBank::load(&codes).drain()
    });

    let many_codes = input_codes(1 << 14);
    b.bench("eic_stats_16k_frag8", || eic_stats(&many_codes, 8, 16));

    let w_proj = Tensor::from_fn(&[256, 64], |i| ((i * 31 % 97) as f32 / 48.0) - 1.0);
    let constraints =
        forms_admm::LayerConstraints::full(0.5, 0.5, 8, forms_admm::PolarizationPolicy::WMajor, 8);
    b.bench("project_all_256x64", || {
        forms_admm::project_all(&w_proj, &constraints, None)
    });

    let p = forms_arch::Pipeline::new(16, true);
    let ops: Vec<forms_arch::PipelineOp> = (0..1000)
        .map(|i| forms_arch::PipelineOp {
            shift_cycles: (i % 16) as u32 + 1,
        })
        .collect();
    b.bench("pipeline_run_1000_ops", || p.run(&ops));
}
