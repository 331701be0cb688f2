//! Integration: the FPS model, pipeline model and MVM statistics must tell
//! one consistent timing story.

use forms::arch::{
    CrossbarEngine, FpsModel, LayerPerf, MappedLayer, MappingConfig, Pipeline, PipelineOp,
};
use forms::hwmodel::{McuConfig, ThroughputModel};
use forms::reram::CellSpec;
use forms::tensor::Tensor;

fn polarized_matrix(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        let (r, c) = (i / cols, i % cols);
        let sign = if ((r / 4) + c) % 2 == 0 { 1.0 } else { -1.0 };
        sign * (0.1 + (i % 3) as f32 * 0.2)
    })
}

#[test]
fn fps_model_and_throughput_model_agree_on_relative_speed() {
    // Both models must rank ISAAC vs FORMS-fragment-8 identically for an
    // uncompressed dense layer.
    let layer = |_mcu: &McuConfig| LayerPerf {
        positions: 1024,
        crossbars: 64,
        input_cycles: 16.0,
    };
    let isaac_fps = FpsModel::new(McuConfig::isaac(), vec![layer(&McuConfig::isaac())]).fps();
    let forms_fps = FpsModel::new(McuConfig::forms(8), vec![layer(&McuConfig::forms(8))]).fps();
    let isaac_thr = ThroughputModel::baseline(McuConfig::isaac()).peak_gops();
    let forms_thr = ThroughputModel::baseline(McuConfig::forms(8)).peak_gops();
    let fps_ratio = forms_fps / isaac_fps;
    let thr_ratio = forms_thr / isaac_thr;
    assert!(
        (fps_ratio - thr_ratio).abs() / thr_ratio < 0.05,
        "FPS ratio {fps_ratio} vs throughput ratio {thr_ratio}"
    );
}

#[test]
fn measured_cycles_drive_the_fps_model_consistently() {
    // Run a real MVM, extract the average input cycles, and check that the
    // FPS model with that EIC is faster than with the full bit width by
    // exactly the cycle ratio.
    let config = MappingConfig {
        crossbar_dim: 16,
        fragment_size: 4,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 8,
        zero_skipping: true,
    };
    let mapped = MappedLayer::map(&polarized_matrix(16, 4), config).unwrap();
    let codes: Vec<u32> = (0..16).map(|i| (i % 4) as u32).collect();
    let (_, stats) = mapped.matvec(&codes, 1.0);
    let mean_eic = stats.cycles as f64 / stats.fragments_total as f64;
    assert!(
        mean_eic < 8.0,
        "tiny inputs must have low EIC, got {mean_eic}"
    );

    let mk = |cycles: f64| {
        FpsModel::new(
            McuConfig::forms(8),
            vec![LayerPerf {
                positions: 64,
                crossbars: 8,
                input_cycles: cycles,
            }],
        )
        .fps()
    };
    let speedup = mk(mean_eic) / mk(8.0);
    assert!((speedup - 8.0 / mean_eic).abs() < 1e-9);
}

#[test]
fn pipeline_and_fps_model_agree_on_zero_skip_scaling() {
    // Long streams: pipeline total time ratio ≈ shift-cycle ratio, the same
    // factor the FPS model applies.
    let p = Pipeline::new(16, false);
    let n = 500;
    let full = p.run(&vec![PipelineOp { shift_cycles: 16 }; n]) as f64;
    let skipped = p.run(&vec![PipelineOp { shift_cycles: 10 }; n]) as f64;
    let pipeline_ratio = full / skipped;
    let fps_ratio = 16.0 / 10.0;
    assert!(
        (pipeline_ratio - fps_ratio).abs() < 0.05,
        "pipeline {pipeline_ratio} vs fps {fps_ratio}"
    );
}

#[test]
fn degenerate_forms_at_fragment_128_approaches_isaac_structure() {
    // With fragment = crossbar dim, FORMS activates whole columns like
    // ISAAC; one row group, so per-MVM time differs only by the ADC cycle.
    let forms128 = McuConfig {
        fragment_size: 128,
        ..McuConfig::forms(8)
    };
    let t_forms = ThroughputModel::baseline(forms128).mvm_time_ns();
    let t_isaac = ThroughputModel::baseline(McuConfig::isaac()).mvm_time_ns();
    let cycle_ratio = forms128.conversion_cycle_ns() / McuConfig::isaac().conversion_cycle_ns();
    assert!(((t_forms / t_isaac) - cycle_ratio).abs() < 1e-9);
}
