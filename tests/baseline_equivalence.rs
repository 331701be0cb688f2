//! Cross-crate integration: the FORMS polarized mapping, ISAAC offset
//! encoding and PRIME-style splitting all compute the same products on the
//! same `forms-reram` substrate — with exactly the cost differences the
//! paper describes.

use forms::arch::{MappedLayer, MappingConfig, MATMUL_TILE};
use forms::baselines::{IsaacConfig, IsaacLayer, SplitLayer};
use forms::exec::{CrossbarEngine, Merge};
use forms::reram::{CellSpec, SweepScratch};
use forms::tensor::{QuantizedTensor, Tensor};

/// A fragment-polarized matrix (columns alternate fragment signs).
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
        crossbar_dim: 16,
        fragment_size: fragment,
        weight_bits: 8,
        cell: CellSpec::paper_2bit(),
        input_bits: 8,
        zero_skipping: true,
    }
}

#[test]
fn all_three_mappings_agree_on_polarized_weights() {
    let w = polarized_matrix(16, 4, 4);
    let x = Tensor::from_fn(&[16], |i| (i as f32 * 0.19).fract());
    let q = QuantizedTensor::quantize(&x, 8);

    let forms = MappedLayer::map(&w, mapping_config(4)).expect("polarized");
    let (forms_out, _) = forms.matvec(q.codes(), q.spec().scale());

    let isaac = IsaacLayer::map(
        &w,
        IsaacConfig {
            crossbar_dim: 16,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 8,
        },
    )
    .expect("map");
    let (isaac_out, _) = isaac.matvec(q.codes(), q.spec().scale());

    let split = SplitLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit());
    let split_out = split.matvec(q.codes(), q.spec().scale());

    // All three compute W^T x up to their (slightly different) weight
    // quantization grids.
    let reference = w.transpose().matvec(q.dequantize().data());
    for c in 0..4 {
        let tol = 0.06 * reference[c].abs().max(1.0);
        assert!(
            (forms_out[c] - reference[c]).abs() < tol,
            "FORMS col {c}: {} vs {}",
            forms_out[c],
            reference[c]
        );
        assert!(
            (isaac_out[c] - reference[c]).abs() < tol,
            "ISAAC col {c}: {} vs {}",
            isaac_out[c],
            reference[c]
        );
        assert!(
            (split_out[c] - reference[c]).abs() < tol,
            "Split col {c}: {} vs {}",
            split_out[c],
            reference[c]
        );
    }
}

#[test]
fn isaac_handles_arbitrary_signs_that_forms_rejects() {
    // Row-alternating signs violate every fragment of 4.
    let w = Tensor::from_fn(&[8, 2], |i| if (i / 2) % 2 == 0 { 0.5 } else { -0.5 });
    assert!(MappedLayer::map(&w, mapping_config(4)).is_err());
    let isaac = IsaacLayer::map(
        &w,
        IsaacConfig {
            crossbar_dim: 8,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 8,
        },
    )
    .expect("map");
    let (out, _) = isaac.matvec(&[1; 8], 1.0);
    let reference = w.transpose().matvec(&[1.0; 8]);
    for c in 0..2 {
        assert!(
            (out[c] - reference[c]).abs() < 0.05,
            "{} vs {}",
            out[c],
            reference[c]
        );
    }
}

#[test]
fn cost_ordering_matches_the_paper() {
    // Same dense polarized matrix: split pays 2× crossbars; FORMS pays sign
    // bits instead; ISAAC pays offset subtractions.
    let w = polarized_matrix(16, 4, 4);
    let forms = MappedLayer::map(&w, mapping_config(4)).expect("polarized");
    let split = SplitLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit());
    let isaac = IsaacLayer::map(
        &w,
        IsaacConfig {
            crossbar_dim: 16,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 8,
        },
    )
    .expect("map");

    assert_eq!(
        split.crossbar_count(),
        2 * forms.crossbar_count(),
        "split mapping must double the arrays"
    );
    assert_eq!(isaac.crossbar_count(), forms.crossbar_count());

    // ISAAC's correction work exists and scales with input ones; FORMS has
    // none (sign indicator is applied for free during accumulation).
    let x = Tensor::from_fn(&[16], |i| (i % 3) as f32);
    let q = QuantizedTensor::quantize(&x, 8);
    let (_, isaac_stats) = isaac.matvec(q.codes(), q.spec().scale());
    assert!(isaac_stats.offset_subtractions > 0);

    // FORMS sign bits: one per fragment per column.
    assert_eq!(forms.sign_bits(), (16 / 4) * 4);
}

#[test]
fn zero_skipping_advantage_is_unique_to_forms() {
    let w = polarized_matrix(16, 2, 4);
    // Inputs with tiny magnitudes: FORMS skips, ISAAC cannot.
    let codes: Vec<u32> = (0..16).map(|i| (i % 2) as u32).collect();
    let forms = MappedLayer::map(&w, mapping_config(4)).expect("polarized");
    let (_, fs) = forms.matvec(&codes, 1.0);
    let isaac = IsaacLayer::map(
        &w,
        IsaacConfig {
            crossbar_dim: 16,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 8,
        },
    )
    .expect("map");
    let (_, is) = isaac.matvec(&codes, 1.0);
    assert!(fs.cycles < fs.cycles_without_skip, "FORMS saved nothing");
    assert_eq!(is.cycles, 8, "ISAAC always pays the full bit width");
}

/// Runs one batch through `engine` on the shared `scratch` and checks it
/// bitwise against the per-sample `reference` kernel (outputs and merged
/// stats).
fn assert_batch_matches_reference<E>(
    engine: &E,
    reference: impl Fn(&[u32], f32) -> (Vec<f32>, E::Stats),
    rows: usize,
    input_bits: u32,
    scratch: &mut SweepScratch,
    tag: &str,
) where
    E: CrossbarEngine<Scratch = SweepScratch>,
    E::Stats: PartialEq,
{
    let samples = MATMUL_TILE + 3;
    // Full-width codes with whole zero fragments and small codes mixed in,
    // so zero-skipping, skipped planes and the top planes are all driven.
    let codes: Vec<u32> = (0..samples * rows)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            match (i % rows / 4 + i / rows) % 4 {
                0 => 0,
                1 => (h % 8) as u32,
                _ => (h % (1 << input_bits)) as u32,
            }
        })
        .collect();
    let scales: Vec<f32> = (0..samples).map(|s| 0.002 + 0.0005 * s as f32).collect();
    let mut outs = vec![0.0f32; samples * engine.output_len()];
    let stats = engine.matmul_into(&codes, &scales, scratch, &mut outs);

    let mut want = Vec::with_capacity(outs.len());
    let mut want_stats = E::Stats::default();
    for (sample, &scale) in codes.chunks_exact(rows).zip(&scales) {
        let (out, s) = reference(sample, scale);
        want.extend(out);
        want_stats.merge(s);
    }
    assert_eq!(outs, want, "{tag}");
    assert_eq!(stats, want_stats, "{tag}");
}

#[test]
fn one_scratch_serves_both_engines_at_both_partial_sum_widths() {
    // Both engines run the same sub-array sweep on the same scratch type,
    // so one warm scratch must carry over between them in any order. FORMS
    // fragments of 4 w8 codes sum in i32 up to 21 input bits (4 × 255 ×
    // (2^21 − 1) ≤ i32::MAX) and in i64 from 22; ISAAC's 16-row blocks up
    // to 19 and from 20. A drifted layer of each design adds the f64 path,
    // and the designs' layers differ in width.
    let rows = 40;
    let forms = |input_bits: u32, drift: bool| {
        let config = MappingConfig {
            input_bits,
            ..mapping_config(4)
        };
        let mut layer = MappedLayer::map(&polarized_matrix(rows, 6, 4), config).expect("map");
        if drift {
            layer.crossbars_mut()[1].conductances_mut()[7] += 5.5;
            layer.crossbars_mut()[1].commit_writes();
        }
        assert_eq!(layer.grid().integer_path(), !drift);
        layer
    };
    let isaac = |input_bits: u32, drift: bool| {
        let w = Tensor::from_fn(&[rows, 9], |i| ((i * 37 % 17) as f32 - 8.0) / 8.0 + 0.05);
        let mut layer = IsaacLayer::map(
            &w,
            IsaacConfig {
                crossbar_dim: 16,
                cell: CellSpec::paper_2bit(),
                weight_bits: 8,
                input_bits,
            },
        )
        .expect("map");
        if drift {
            layer.crossbars_mut()[2].conductances_mut()[3] += 2.25;
            layer.crossbars_mut()[2].commit_writes();
        }
        assert_eq!(layer.grid().integer_path(), !drift);
        layer
    };
    let forms_layers = [
        (forms(21, false), 21),
        (forms(22, false), 22),
        (forms(16, true), 16),
    ];
    let isaac_layers = [
        (isaac(20, false), 20),
        (isaac(19, false), 19),
        (isaac(16, true), 16),
    ];

    let mut scratch = SweepScratch::default();
    // FORMS i32 → ISAAC i64, FORMS i64 → ISAAC i32, FORMS f64 → ISAAC f64,
    // then the same pairs with ISAAC first.
    for isaac_first in [false, true] {
        for ((f, f_bits), (i, i_bits)) in forms_layers.iter().zip(&isaac_layers) {
            for run_isaac in [isaac_first, !isaac_first] {
                if run_isaac {
                    let tag = format!("ISAAC a{i_bits}, isaac_first={isaac_first}");
                    let reference = |c: &[u32], s: f32| i.matvec_reference(c, s);
                    assert_batch_matches_reference(i, reference, rows, *i_bits, &mut scratch, &tag);
                } else {
                    let tag = format!("FORMS a{f_bits}, isaac_first={isaac_first}");
                    let reference = |c: &[u32], s: f32| f.matvec_reference(c, s);
                    assert_batch_matches_reference(f, reference, rows, *f_bits, &mut scratch, &tag);
                }
            }
        }
    }
}
