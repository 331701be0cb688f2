//! Property-based tests over the core invariants of the reproduction.
//!
//! Formerly `proptest`-based; now deterministic seeded property loops over
//! the in-tree generator, so every run explores exactly the same cases and
//! a failure reproduces bit-identically from the printed case index.

use forms::admm::{
    fragment_signs, polarization_violations, project_polarization, project_quantization,
    project_structured_pruning, quantization_step,
};
use forms::arch::{
    effective_bits, fragment_eic, CrossbarEngine, MappedLayer, MappingConfig, Pipeline, PipelineOp,
    ShiftRegisterBank,
};
use forms::hwmodel::{Activity, EnergyModel, McuConfig};
use forms::reram::{BitSlicer, CellSpec, CurrentNoise, IrDropModel};
use forms::rng::{Rng, StdRng};
use forms::tensor::{FixedSpec, QuantizedTensor, Shape, Tensor};

/// Runs `body` over `n` deterministic random cases. The case index is in
/// scope for failure messages.
fn cases(n: usize, seed: u64, mut body: impl FnMut(usize, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..n {
        body(case, &mut rng);
    }
}

fn random_vec_f32(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn random_vec_u32(rng: &mut StdRng, len: usize, below: u32) -> Vec<u32> {
    (0..len).map(|_| rng.gen_range(0..below)).collect()
}

/// A random small matrix with entries in `[-1, 1)`.
fn small_matrix(rng: &mut StdRng) -> Tensor {
    let rows = rng.gen_range(1..6usize);
    let cols = rng.gen_range(1..5usize);
    let data = random_vec_f32(rng, rows * cols, -1.0, 1.0);
    Tensor::from_vec(data, &[rows, cols])
}

#[test]
fn shape_offset_index_round_trip() {
    cases(128, 0x5A01, |case, rng| {
        let rank = rng.gen_range(1..4usize);
        let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..5usize)).collect();
        let shape = Shape::new(&dims);
        for off in 0..shape.len() {
            assert_eq!(
                shape.offset(&shape.index(off)),
                off,
                "case {case}: dims {dims:?} offset {off}"
            );
        }
    });
}

#[test]
fn quantizer_error_bounded() {
    cases(128, 0x5A02, |case, rng| {
        let len = rng.gen_range(1..64usize);
        let values = random_vec_f32(rng, len, 0.0, 10.0);
        let bits = rng.gen_range(4..16u32);
        let t = Tensor::from_vec(values, &[len]);
        let q = QuantizedTensor::quantize(&t, bits);
        let err = t.max_abs_diff(&q.dequantize());
        assert!(
            err <= q.spec().scale() / 2.0 + 1e-5,
            "case {case}: err {err} at {bits} bits"
        );
    });
}

#[test]
fn fixed_spec_quantize_saturates() {
    cases(256, 0x5A03, |case, rng| {
        let v = rng.gen_range(-100.0f32..100.0);
        let bits = rng.gen_range(2..16u32);
        let spec = FixedSpec::new(bits, 0.01);
        let code = spec.quantize(v);
        assert!(code <= spec.max_code(), "case {case}: {v} at {bits} bits");
    });
}

#[test]
fn polarization_projection_feasible_and_idempotent() {
    cases(96, 0x5A04, |case, rng| {
        let m = small_matrix(rng);
        let frag = rng.gen_range(1..6usize);
        let signs = fragment_signs(&m, frag);
        let z = project_polarization(&m, frag, &signs);
        // Feasible after a fixed-point iteration (zeroing can retire rows):
        let mut zz = z;
        for _ in 0..16 {
            if polarization_violations(&zz, frag) == 0 {
                break;
            }
            let s = fragment_signs(&zz, frag);
            zz = project_polarization(&zz, frag, &s);
        }
        assert_eq!(
            polarization_violations(&zz, frag),
            0,
            "case {case}: fragment {frag}"
        );
        // Idempotent at the fixed point:
        let s = fragment_signs(&zz, frag);
        let z2 = project_polarization(&zz, frag, &s);
        assert_eq!(z2, zz, "case {case}: projection not idempotent");
    });
}

#[test]
fn pruning_projection_structure() {
    cases(96, 0x5A05, |case, rng| {
        let m = small_matrix(rng);
        let rows = m.dims()[0];
        let cols = m.dims()[1];
        let keep_r = rows.div_ceil(2);
        let keep_c = cols.div_ceil(2);
        let z = project_structured_pruning(&m, keep_r, keep_c);
        let nz_rows = (0..rows)
            .filter(|&r| (0..cols).any(|c| z.get(&[r, c]) != 0.0))
            .count();
        let nz_cols = (0..cols)
            .filter(|&c| (0..rows).any(|r| z.get(&[r, c]) != 0.0))
            .count();
        assert!(nz_rows <= keep_r, "case {case}");
        assert!(nz_cols <= keep_c, "case {case}");
        // Projection never changes a surviving entry.
        for i in 0..z.len() {
            let zv = z.data()[i];
            assert!(zv == 0.0 || zv == m.data()[i], "case {case} entry {i}");
        }
    });
}

#[test]
fn quantization_projection_on_grid() {
    cases(96, 0x5A06, |case, rng| {
        let m = small_matrix(rng);
        let bits = rng.gen_range(3..9u32);
        let step = quantization_step(&m, bits);
        let z = project_quantization(&m, step, bits);
        for &v in z.data() {
            let code = v / step;
            assert!(
                (code - code.round()).abs() < 1e-4,
                "case {case}: {v} off-grid at step {step}"
            );
        }
        assert_eq!(
            project_quantization(&z, step, bits),
            z.clone(),
            "case {case}: not idempotent"
        );
    });
}

#[test]
fn effective_bits_bounds() {
    cases(2048, 0x5A07, |case, rng| {
        let code = rng.gen_range(0..65536u32);
        let e = effective_bits(code);
        assert!(e <= 16, "case {case}");
        if code > 0 {
            assert!(code >= 1 << (e - 1), "case {case}: code {code} bits {e}");
            assert!(
                u64::from(code) < 1u64 << e,
                "case {case}: code {code} bits {e}"
            );
        }
    });
}

#[test]
fn eic_is_max_and_monotone() {
    cases(256, 0x5A08, |case, rng| {
        let len = rng.gen_range(1..32usize);
        let codes = random_vec_u32(rng, len, 65536);
        let eic = fragment_eic(&codes);
        assert_eq!(
            eic,
            codes.iter().map(|&c| effective_bits(c)).max().unwrap(),
            "case {case}"
        );
        // Monotone under extension.
        let mut extended = codes.clone();
        extended.push(0);
        assert_eq!(fragment_eic(&extended), eic, "case {case}");
    });
}

#[test]
fn shift_bank_reconstructs_and_stops_at_eic() {
    cases(256, 0x5A09, |case, rng| {
        let len = rng.gen_range(1..16usize);
        let codes = random_vec_u32(rng, len, 65536);
        let planes = ShiftRegisterBank::load(&codes).drain();
        assert_eq!(planes.len() as u32, fragment_eic(&codes), "case {case}");
        let mut rebuilt = vec![0u32; codes.len()];
        for (cycle, bits) in planes.iter().enumerate() {
            for (r, &b) in rebuilt.iter_mut().zip(bits) {
                *r |= (b as u32) << cycle;
            }
        }
        assert_eq!(rebuilt, codes, "case {case}");
    });
}

#[test]
fn bit_slicer_round_trip() {
    cases(512, 0x5A0A, |case, rng| {
        let magnitude = rng.gen_range(0..65536u32);
        let cell_bits = rng.gen_range(1..5u32);
        let slicer = BitSlicer::new(16, cell_bits);
        let slices = slicer.slice(magnitude);
        let results: Vec<u64> = slices.iter().map(|&s| u64::from(s)).collect();
        assert_eq!(
            slicer.recombine(&results),
            u64::from(magnitude),
            "case {case}: {magnitude} at {cell_bits} bits/cell"
        );
        let max_cell = (1u32 << cell_bits) - 1;
        assert!(slices.iter().all(|&s| s <= max_cell), "case {case}");
    });
}

#[test]
fn bit_slicer_round_trip_at_32_bit_boundary() {
    // `weight_bits = 32` is the boundary where `(1 << weight_bits) - 1`
    // would overflow a u32: `max_magnitude` special-cases it, and slicing
    // must still round-trip values all the way up to `u32::MAX`.
    cases(512, 0x5A11, |case, rng| {
        let cell_bits = rng.gen_range(1..6u32);
        let slicer = BitSlicer::new(32, cell_bits);
        assert_eq!(slicer.max_magnitude(), u64::from(u32::MAX), "case {case}");
        // Mix uniform draws with near-boundary values.
        let magnitude = match case % 4 {
            0 => u32::MAX,
            1 => u32::MAX - rng.gen_range(0..1024u32),
            _ => rng.gen_range(0..=u32::MAX),
        };
        let slices = slicer.slice(magnitude);
        assert_eq!(slices.len(), slicer.cells_per_weight(), "case {case}");
        let max_cell = (1u32 << cell_bits) - 1;
        assert!(slices.iter().all(|&s| s <= max_cell), "case {case}");
        let results: Vec<u64> = slices.iter().map(|&s| u64::from(s)).collect();
        assert_eq!(
            slicer.recombine(&results),
            u64::from(magnitude),
            "case {case}: {magnitude} at {cell_bits} bits/cell"
        );
    });
}

#[test]
fn bit_slicer_round_trip_non_divisible_widths() {
    // 7-bit weights on 2-bit cells: the top slice holds a single odd bit,
    // so four cells cover the magnitude with one padded bit. Round-trip
    // must hold for every representable magnitude, and every slice must
    // still fit its cell.
    let slicer = BitSlicer::new(7, 2);
    assert_eq!(slicer.cells_per_weight(), 4);
    for magnitude in 0..=127u32 {
        let slices = slicer.slice(magnitude);
        assert!(slices[0] <= 0b01, "top slice holds only the odd bit");
        assert!(slices.iter().all(|&s| s <= 0b11));
        let results: Vec<u64> = slices.iter().map(|&s| u64::from(s)).collect();
        assert_eq!(slicer.recombine(&results), u64::from(magnitude));
    }
    // Same property for random non-divisible (weight_bits, cell_bits).
    cases(256, 0x5A12, |case, rng| {
        let cell_bits = rng.gen_range(2..6u32);
        // Pick a width that does NOT divide evenly into cells.
        let weight_bits = loop {
            let w = rng.gen_range(2..32u32);
            if w % cell_bits != 0 {
                break w;
            }
        };
        let slicer = BitSlicer::new(weight_bits, cell_bits);
        let magnitude = (rng.gen_range(0..=u32::MAX) as u64 % (slicer.max_magnitude() + 1)) as u32;
        let results: Vec<u64> = slicer
            .slice(magnitude)
            .iter()
            .map(|&s| u64::from(s))
            .collect();
        assert_eq!(
            slicer.recombine(&results),
            u64::from(magnitude),
            "case {case}: {magnitude} as w{weight_bits} on {cell_bits}-bit cells"
        );
    });
}

#[test]
fn adc_for_fragment_resolution_clamps_and_stays_lossless_inside() {
    use forms::reram::Adc;
    cases(256, 0x5A13, |case, rng| {
        let cell_bits = rng.gen_range(1..5u32);
        let spec = CellSpec::new(cell_bits, 1.0, 61.0);
        let rows = 1usize << rng.gen_range(0..24u32);
        let adc = Adc::for_fragment(rows, &spec);
        assert!(
            (1..=16).contains(&adc.bits()),
            "case {case}: {rows} rows of {cell_bits}-bit cells sized {} bits",
            adc.bits()
        );
        let needed = 64
            - (rows as u64 * u64::from(spec.max_code()))
                .max(1)
                .leading_zeros();
        if needed <= 16 {
            // Unclamped: conversion is lossless over the fragment range.
            assert_eq!(adc.bits(), needed.max(1), "case {case}");
            let probe = rng.gen_range(0..=(rows as u64 * u64::from(spec.max_code())).max(1));
            assert_eq!(adc.convert(probe as f64), probe as u32, "case {case}");
        } else {
            assert_eq!(adc.bits(), 16, "case {case}: clamped at the ceiling");
        }
    });
    // The exact clamp endpoints.
    let spec = forms::reram::CellSpec::paper_2bit();
    assert_eq!(Adc::for_fragment(1, &CellSpec::new(1, 1.0, 2.0)).bits(), 1);
    assert_eq!(Adc::for_fragment(1 << 30, &spec).bits(), 16);
}

#[test]
fn mapped_matvec_matches_digital_reference() {
    cases(48, 0x5A0B, |case, rng| {
        let seed_vals = random_vec_f32(rng, 8, 0.01, 1.0);
        let inputs = random_vec_u32(rng, 8, 256);
        // Build a polarized 8×2 matrix from positive magnitudes.
        let m = Tensor::from_fn(&[8, 2], |i| {
            let (r, c) = (i / 2, i % 2);
            let sign = if ((r / 4) + c) % 2 == 0 { 1.0 } else { -1.0 };
            sign * seed_vals[r]
        });
        let config = MappingConfig {
            crossbar_dim: 8,
            fragment_size: 4,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 8,
            zero_skipping: true,
        };
        let mapped = MappedLayer::map(&m, config).expect("polarized by construction");
        let (analog, stats) = mapped.matvec(&inputs, 1.0);
        let reference = mapped
            .dequantized_matrix()
            .transpose()
            .matvec(&inputs.iter().map(|&v| v as f32).collect::<Vec<_>>());
        for (a, r) in analog.iter().zip(&reference) {
            assert!(
                (a - r).abs() < 1e-2 * r.abs().max(1.0),
                "case {case}: {a} vs {r}"
            );
        }
        assert!(stats.cycles <= stats.cycles_without_skip, "case {case}");
    });
}

#[test]
fn noise_sigma_is_monotone_in_signal() {
    cases(512, 0x5A0C, |case, rng| {
        let floor = rng.gen_range(0.0f64..2.0);
        let per_unit = rng.gen_range(0.0f64..0.5);
        let a = rng.gen_range(0.0f64..100.0);
        let b = rng.gen_range(0.0f64..100.0);
        let n = CurrentNoise::new(floor, per_unit);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            n.sigma_at(lo) <= n.sigma_at(hi) + 1e-12,
            "case {case}: sigma not monotone at ({lo}, {hi})"
        );
    });
}

#[test]
fn ir_drop_error_monotone_in_window() {
    cases(256, 0x5A0D, |case, rng| {
        let w1 = rng.gen_range(1..64usize);
        let extra = rng.gen_range(1..64usize);
        let m = IrDropModel::typical();
        let e1 = m.worst_case_relative_error(w1, 61.0);
        let e2 = m.worst_case_relative_error(w1 + extra, 61.0);
        assert!(e2 >= e1, "case {case}: window {w1}+{extra}");
        assert!((0.0..1.0).contains(&e1), "case {case}");
    });
}

#[test]
fn energy_is_monotone_in_activity() {
    cases(256, 0x5A0E, |case, rng| {
        let cycles = rng.gen_range(0..10_000u64);
        let conversions = rng.gen_range(0..10_000u64);
        let model = EnergyModel::from_mcu(&McuConfig::forms(8));
        let base = Activity {
            shift_cycles: cycles,
            adc_conversions: conversions,
            rows_per_cycle: 8,
            cells_per_conversion: 4,
            shift_add_ops: conversions,
        };
        let more = Activity {
            shift_cycles: cycles + 1,
            adc_conversions: conversions + 1,
            shift_add_ops: conversions + 1,
            ..base
        };
        assert!(
            model.energy_pj(&more) > model.energy_pj(&base),
            "case {case}"
        );
        assert!(model.energy_pj(&base) >= 0.0, "case {case}");
    });
}

#[test]
fn pipeline_total_bounded_by_serial_and_parallel() {
    cases(256, 0x5A10, |case, rng| {
        let len = rng.gen_range(1..40usize);
        let shifts: Vec<u32> = (0..len).map(|_| rng.gen_range(0..17u32)).collect();
        let p = Pipeline::new(16, false);
        let ops: Vec<PipelineOp> = shifts
            .iter()
            .map(|&s| PipelineOp { shift_cycles: s })
            .collect();
        let total = p.run(&ops);
        // Lower bound: the bottleneck section's total work; upper bound:
        // fully serial execution.
        let work: u64 = shifts.iter().map(|&s| u64::from(s.clamp(1, 16))).sum();
        let serial: u64 = shifts.iter().map(|&s| 6 + u64::from(s.clamp(1, 16))).sum();
        assert!(total >= work, "case {case}: {total} < {work}");
        assert!(total <= serial, "case {case}: {total} > {serial}");
    });
}
