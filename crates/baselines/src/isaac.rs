//! The ISAAC offset-encoding crossbar model (paper §II-B and ref. \[18\]).

use forms_exec::{ExecError, Merge};
use forms_reram::{plane_ones, Crossbar, CrossbarGrid, GridShape, PartialSum, SweepEngine};
use forms_tensor::Tensor;

use crate::IsaacConfig;

/// Statistics of one ISAAC matrix-vector multiplication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IsaacStats {
    /// Input shift cycles spent (always `input_bits` per row block — ISAAC
    /// has no zero-skipping).
    pub cycles: u64,
    /// ADC conversions performed.
    pub adc_conversions: u64,
    /// Input `1`s counted by the offset-correction circuitry.
    pub ones_counted: u64,
    /// Offset subtractions performed (one per counted `1`, as the paper
    /// describes the overhead).
    pub offset_subtractions: u64,
    /// Row-block activations (denominator of the mean-cycles-per-block
    /// figure the frame-rate model consumes).
    pub row_blocks: u64,
}

impl Merge for IsaacStats {
    fn merge(&mut self, other: Self) {
        self.cycles += other.cycles;
        self.adc_conversions += other.adc_conversions;
        self.ones_counted += other.ones_counted;
        self.offset_subtractions += other.offset_subtractions;
        self.row_blocks += other.row_blocks;
    }
}

/// A signed weight matrix mapped with ISAAC's offset encoding.
///
/// Every quantized weight code `k ∈ [−(2^(b−1)−1), 2^(b−1)−1]` is stored as
/// the non-negative `k + 2^(b−1)`; the analog result is corrected digitally
/// by subtracting `2^(b−1) × (number of 1 input bits)` per bit plane.
#[derive(Clone, Debug)]
pub struct IsaacLayer {
    /// The compacted, offset-encoded weights on the crossbar grid.
    pub(crate) grid: CrossbarGrid,
    /// The offset `2^(b−1)` added to every stored code.
    bias: u64,
}

impl IsaacLayer {
    /// Maps a signed matrix with the offset encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedConfig`] if `weight_bits` is outside
    /// `2..=32` (the offset encoding needs a sign bit's worth of bias), and
    /// otherwise the errors of [`CrossbarGrid::new`] (a non-matrix, an
    /// all-zero matrix, an out-of-range input width, or overflowing
    /// accumulators).
    pub fn map(matrix: &Tensor, config: IsaacConfig) -> Result<Self, ExecError> {
        if !(2..=32).contains(&config.weight_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "offset encoding needs weight bits in 2..=32",
            });
        }
        let (row_index, col_index) = CrossbarGrid::compact(matrix)?;
        let shape = GridShape {
            crossbar_dim: config.crossbar_dim,
            subarray_rows: config.crossbar_dim,
            cell: config.cell,
            weight_bits: config.weight_bits,
            input_bits: config.input_bits,
        };
        let bias = 1u64 << (config.weight_bits - 1);
        let grid = CrossbarGrid::new(matrix, row_index, col_index, shape, bias, |k| {
            (k + bias as i64) as u32
        })?;
        Ok(Self { grid, bias })
    }

    /// Weight quantization step.
    pub fn step(&self) -> f32 {
        self.grid.step()
    }

    /// The crossbar grid the encoded weights are programmed on.
    pub fn grid(&self) -> &CrossbarGrid {
        &self.grid
    }

    /// Mutable access to the crossbars (variation injection).
    pub fn crossbars_mut(&mut self) -> &mut [Crossbar] {
        self.grid.crossbars_mut()
    }

    /// Reconstructs the (quantized, signed) weight matrix this mapping
    /// represents, in original indexing.
    pub fn dequantized_matrix(&self) -> Tensor {
        self.grid
            .dequantized(|_, _, code| (code as i64 - self.bias as i64) as f32)
    }

    /// The reference kernel, kept as the bitwise oracle for
    /// [`matmul_into`](forms_exec::CrossbarEngine::matmul_into) and as the
    /// in-binary control of the MVM benchmark: all rows of each crossbar
    /// block activate together, every input bit plane is driven through
    /// [`CrossbarGrid::reference_read`] (no zero-skipping), and the
    /// counted-ones offset is subtracted digitally. Results are bitwise
    /// identical to [`matvec`](forms_exec::CrossbarEngine::matvec).
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the original row count or
    /// any code exceeds `input_bits`.
    pub fn matvec_reference(
        &self,
        input_codes: &[u32],
        input_scale: f32,
    ) -> (Vec<f32>, IsaacStats) {
        let grid = &self.grid;
        grid.validate_input_codes(input_codes);
        let dim = grid.crossbar_dim();
        let mut stats = IsaacStats::default();
        let mut accs = vec![0i64; grid.col_index().len()];

        for (block, rows) in grid.row_index().chunks(dim).enumerate() {
            let codes: Vec<u32> = rows.iter().map(|&r| input_codes[r]).collect();
            let planes = grid.bit_planes(&codes);
            stats.cycles += planes.len() as u64;
            stats.row_blocks += 1;
            stats.adc_conversions += planes.len() as u64 * grid.cell_cols() as u64;

            // Offset term shared by every column of the block:
            // bias × Σ_planes ones(plane) << plane.
            let mut offset = 0u64;
            for (plane, bits) in planes.iter().enumerate() {
                let ones = bits.iter().filter(|&&b| b).count() as u64;
                stats.ones_counted += ones;
                stats.offset_subtractions += ones;
                offset += (self.bias * ones) << plane;
            }

            let totals = grid.reference_read(block * dim, &planes, |c| c);
            for (acc, total) in accs.iter_mut().zip(totals) {
                *acc += total as i64 - offset as i64;
            }
        }

        let mut out = vec![0.0f32; grid.output_len()];
        grid.scatter(&accs, input_scale, &mut out);
        (out, stats)
    }
}

/// ISAAC's part of the sweep: whole-block sub-arrays, every input plane
/// paid, and the offset subtraction as the digital step.
impl SweepEngine for IsaacLayer {
    type Stats = IsaacStats;

    fn subarray_rows(&self) -> usize {
        self.grid.crossbar_dim()
    }

    fn sample_planes(&self, _codes: &[u32], stats: &mut IsaacStats) -> u32 {
        // No zero-skipping: every sample pays all input bit planes, and
        // every column converts every slice each plane.
        let input_bits = self.grid.input_bits();
        stats.cycles += u64::from(input_bits);
        stats.row_blocks += 1;
        stats.adc_conversions += u64::from(input_bits) * self.grid.cell_cols() as u64;
        input_bits
    }

    fn digital_step<T: PartialSum>(
        &self,
        _block: usize,
        planes: &[u64],
        words: usize,
        sums: &[T],
        accs: &mut [i64],
        stats: &mut IsaacStats,
    ) {
        // Offset term shared by every column of the block:
        // bias × Σ_planes ones(plane) << plane.
        let mut offset = 0u64;
        for (plane, mask) in planes.chunks_exact(words).enumerate() {
            let ones = plane_ones(mask);
            stats.ones_counted += ones;
            stats.offset_subtractions += ones;
            offset += (self.bias * ones) << plane;
        }
        for (acc, &sum) in accs.iter_mut().zip(sums) {
            *acc += sum.into() - offset as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_exec::{CrossbarEngine, EngineHealth, FaultCampaign, FaultableEngine};
    use forms_reram::{CellSpec, SweepScratch, MATMUL_TILE};
    use forms_tensor::QuantizedTensor;

    fn config(weight_bits: u32, input_bits: u32, crossbar_dim: usize) -> IsaacConfig {
        IsaacConfig {
            crossbar_dim,
            cell: CellSpec::paper_2bit(),
            weight_bits,
            input_bits,
        }
    }

    fn signed_matrix(rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(&[rows, cols], |i| {
            let v = ((i * 37 % 17) as f32 / 8.0) - 1.0;
            if v.abs() < 0.05 {
                0.1
            } else {
                v
            }
        })
    }

    #[test]
    fn matvec_matches_signed_reference() {
        let w = signed_matrix(12, 3);
        let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        let x = Tensor::from_fn(&[12], |i| (i as f32 * 0.21).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let (got, _) = layer.matvec(q.codes(), q.spec().scale());
        let reference = layer
            .dequantized_matrix()
            .transpose()
            .matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 1e-3, "offset-encoded {g} vs signed {r}");
        }
    }

    #[test]
    fn encoding_stores_only_nonnegative_codes() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map(&w, config(8, 8, 8)).expect("map");
        // All conductances are valid by construction; decode a negative
        // weight and verify the stored code was biased.
        let back = layer.dequantized_matrix();
        assert!(back.min() < 0.0, "test matrix should have negatives");
    }

    #[test]
    fn dequantized_round_trip_within_step() {
        let w = signed_matrix(16, 4);
        let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        let err = w.max_abs_diff(&layer.dequantized_matrix());
        assert!(err <= layer.step() / 2.0 + 1e-6, "error {err}");
    }

    #[test]
    fn no_zero_skipping_means_full_cycles() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map(&w, config(8, 8, 8)).expect("map");
        // Tiny inputs whose effective bits are 1 — ISAAC still pays 8
        // cycles.
        let (_, stats) = layer.matvec(&[1; 8], 1.0);
        assert_eq!(stats.cycles, 8);
    }

    #[test]
    fn offset_work_scales_with_input_ones() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map(&w, config(8, 8, 8)).expect("map");
        let (_, sparse) = layer.matvec(&[1; 8], 1.0); // 8 ones total
        let (_, dense) = layer.matvec(&[255; 8], 1.0); // 64 ones total
        assert_eq!(sparse.ones_counted, 8);
        assert_eq!(dense.ones_counted, 64);
        assert!(dense.offset_subtractions > sparse.offset_subtractions);
    }

    #[test]
    fn multi_block_layers_accumulate_correctly() {
        // More rows than the crossbar dimension → several blocks.
        let w = signed_matrix(40, 2);
        let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        assert!(layer.crossbar_count() >= 3);
        let x = Tensor::from_fn(&[40], |i| (i as f32 * 0.037).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let (got, _) = layer.matvec(q.codes(), q.spec().scale());
        let reference = layer
            .dequantized_matrix()
            .transpose()
            .matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 2e-3, "{g} vs {r}");
        }
    }

    #[test]
    fn matvec_is_bitwise_identical_to_reference() {
        // Mirror of the FORMS equivalence gate: the one-column kernel call
        // must match the legacy allocating path bit-for-bit, including on
        // multi-block and pruned layers.
        for &(rows, cols) in &[(12usize, 3usize), (40, 5), (8, 2)] {
            let mut w = signed_matrix(rows, cols);
            for r in 0..rows {
                w.data_mut()[r * cols + 1] = 0.0; // prune a column
            }
            let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
            for seed in 0..4u64 {
                let codes: Vec<u32> = (0..rows)
                    .map(|i| ((i as u64 * 29 + seed * 67) % 256) as u32)
                    .collect();
                let (reference, ref_stats) = layer.matvec_reference(&codes, 0.017);
                let (got, stats) = layer.matvec(&codes, 0.017);
                assert_eq!(reference, got);
                assert_eq!(ref_stats, stats);
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_blocks_and_inputs() {
        let w = signed_matrix(40, 4);
        let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        let mut scratch = SweepScratch::default();
        let mut out = vec![0.0f32; layer.output_len()];
        for seed in 0..3u32 {
            let codes: Vec<u32> = (0..40).map(|i| (i as u32 * 7 + seed) % 256).collect();
            let stats = layer.matmul_into(&codes, &[1.0], &mut scratch, &mut out);
            let (reference, ref_stats) = layer.matvec_reference(&codes, 1.0);
            assert_eq!(reference, out);
            assert_eq!(ref_stats, stats);
        }
    }

    #[test]
    fn clean_outputs_stay_under_the_ceiling() {
        let w = signed_matrix(16, 4);
        let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        let ceiling = CrossbarEngine::output_ceiling(&layer).unwrap();
        assert!(ceiling > 0.0);
        let (out, _) = layer.matvec(&[255u32; 16], 1.0);
        for v in out {
            assert!(
                f64::from(v.abs()) <= ceiling * (1.0 + 1e-9),
                "clean output {v} exceeds ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn injected_faults_flow_through_the_kernel() {
        let w = signed_matrix(16, 4);
        let mut layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        let report = layer.inject_faults(&FaultCampaign::stuck_at(3, 0.15, 0.1), 7);
        assert!(report.stuck() > 0);
        let EngineHealth {
            faulted_cells: faulted,
            total_cells: total,
            ..
        } = CrossbarEngine::health(&layer);
        assert_eq!(faulted, report.stuck() as u64);
        assert!(total >= 16 * 16);
        let codes: Vec<u32> = (0..16).map(|i| (i * 13) as u32 % 251).collect();
        let (got, _) = layer.matvec(&codes, 0.5);
        let (reference, _) = layer.matvec_reference(&codes, 0.5);
        assert_eq!(got, reference);
    }

    /// Per-sample oracle: N× the independent `matvec_reference` kernel.
    fn matmul_oracle(
        layer: &IsaacLayer,
        batch_codes: &[u32],
        scales: &[f32],
    ) -> (Vec<f32>, IsaacStats) {
        let mut outs = Vec::with_capacity(scales.len() * layer.grid.output_len());
        let mut stats = IsaacStats::default();
        for (codes, &scale) in batch_codes.chunks_exact(layer.grid.input_len()).zip(scales) {
            let (out, s) = layer.matvec_reference(codes, scale);
            outs.extend(out);
            stats.merge(s);
        }
        (outs, stats)
    }

    fn batch_codes_for(layer: &IsaacLayer, samples: usize, seed: u64) -> (Vec<u32>, Vec<f32>) {
        let codes: Vec<u32> = (0..samples * layer.grid.input_len())
            .map(|i| ((i as u64 * 29 + seed * 67) % 256) as u32)
            .collect();
        let scales: Vec<f32> = (0..samples).map(|s| 0.015 + 0.002 * s as f32).collect();
        (codes, scales)
    }

    #[test]
    fn batched_matmul_is_bitwise_identical_to_per_sample_reference() {
        // The batch-kernel invariant over pruned and multi-block layers,
        // covering the empty batch, a single sample and a ragged tail past
        // one tile.
        for &(rows, cols) in &[(12usize, 3usize), (40, 5), (8, 2)] {
            let mut w = signed_matrix(rows, cols);
            for r in 0..rows {
                w.data_mut()[r * cols + 1] = 0.0; // prune a column
            }
            let layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
            assert!(layer.grid().integer_path(), "pristine map must be fast");
            let mut scratch = SweepScratch::default();
            for samples in [0usize, 1, 5, MATMUL_TILE + 1] {
                let (codes, scales) = batch_codes_for(&layer, samples, 5);
                let mut outs = vec![0.0f32; samples * cols];
                let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
                let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
                assert_eq!(outs, want, "samples={samples}");
                assert_eq!(stats, want_stats, "samples={samples}");
            }
        }
    }

    #[test]
    fn batched_matmul_on_drifted_array_falls_back_bitwise() {
        let w = signed_matrix(40, 5);
        let mut layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        // Warm the integer path first, so a read image that survived the
        // drift would serve the old cells.
        let mut scratch = SweepScratch::default();
        let (codes, scales) = batch_codes_for(&layer, MATMUL_TILE + 2, 9);
        let mut clean = vec![0.0f32; scales.len() * 5];
        layer.matmul_into(&codes, &scales, &mut scratch, &mut clean);
        assert!(layer.grid().integer_path());
        layer.crossbars_mut()[0].conductances_mut()[5] += 23.77;
        layer.crossbars_mut()[0].commit_writes();
        assert!(!layer.grid().integer_path(), "drift must disable fast path");
        let mut outs = vec![0.0f32; scales.len() * 5];
        let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
        assert_ne!(outs, clean, "the drift must move the outputs");
    }

    #[test]
    fn batched_matmul_survives_post_map_fault_injection() {
        let w = signed_matrix(16, 4);
        let mut layer = IsaacLayer::map(&w, config(8, 8, 16)).expect("map");
        // Warm the read image first: the campaign must reset it.
        let mut scratch = SweepScratch::default();
        let (codes, scales) = batch_codes_for(&layer, 11, 2);
        let mut clean = vec![0.0f32; 11 * 4];
        layer.matmul_into(&codes, &scales, &mut scratch, &mut clean);
        let report = layer.inject_faults(&FaultCampaign::stuck_at(3, 0.15, 0.1), 7);
        assert!(report.stuck() > 0);
        let mut outs = vec![0.0f32; 11 * 4];
        let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
        assert_ne!(outs, clean, "the faults must move the outputs");
    }

    #[test]
    fn partial_sum_width_switches_at_the_i32_bound() {
        // A 16-row block of w8 encoded codes (at most 255): 16 × 255 ×
        // (2^19 − 1) fits an i32, 16 × 255 × (2^20 − 1) does not.
        let top = Tensor::from_vec(vec![1.0; 32 * 4], &[32, 4]);
        let mut layers = Vec::new();
        for (input_bits, narrow) in [(19, true), (20, false)] {
            let map = |w: &Tensor| IsaacLayer::map(w, config(8, input_bits, 16)).unwrap();
            // Every weight at the top encoded code: full-scale inputs
            // drive each block's partial sums to the worst case.
            let top_codes = map(&top);
            // Stuck-high cells raise codes to the top rail after mapping.
            let mut faulted = map(&signed_matrix(32, 4));
            let report = faulted.inject_faults(&FaultCampaign::stuck_at(5, 0.05, 0.3), 17);
            assert!(report.stuck_high > 0);
            for layer in [top_codes, faulted] {
                assert_eq!(layer.grid.i32_sums(), narrow, "a{input_bits}");
                assert!(layer.grid().integer_path());
                layers.push(layer);
            }
        }
        // One scratch threaded narrow → wide → narrow pins its reuse
        // across partial-sum widths.
        let mut scratch = SweepScratch::default();
        for layer in layers.iter().chain(&layers[..2]) {
            let full_scale = (1u32 << layer.grid.input_bits()) - 1;
            let mut codes = vec![full_scale; 3 * 32];
            codes[32..40].fill(0);
            let scales = [1.0, 0.5, 0.25];
            let mut outs = vec![0.0f32; 3 * 4];
            let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
            let (want, want_stats) = matmul_oracle(layer, &codes, &scales);
            assert_eq!(outs, want, "a{}", layer.grid.input_bits());
            assert_eq!(stats, want_stats, "a{}", layer.grid.input_bits());
        }
    }

    #[test]
    fn rejects_configs_whose_accumulators_could_overflow() {
        // 4 rows × ((2^32 − 1) + 2^31) × (2^31 − 1) overflows i64; the
        // same matrix at 16-bit inputs fits and computes the exact product.
        let w = Tensor::from_vec(vec![1.0; 8], &[4, 2]);
        let err = IsaacLayer::map(&w, config(32, 31, 16)).unwrap_err();
        assert!(matches!(err, ExecError::UnsupportedConfig { .. }));
        let layer = IsaacLayer::map(&w, config(32, 16, 16)).unwrap();
        let (out, _) = layer.matvec(&[0xFFFF; 4], 1.0);
        assert_eq!(out, vec![4.0 * 65535.0; 2]);
    }

    #[test]
    fn all_zero_matrix_rejected() {
        let err = IsaacLayer::map(&Tensor::zeros(&[4, 4]), config(8, 8, 128)).unwrap_err();
        assert!(matches!(err, ExecError::AllZero));
    }

    #[test]
    fn out_of_range_widths_rejected() {
        let w = signed_matrix(4, 4);
        for (weight_bits, input_bits) in [(1, 8), (33, 8), (40, 8), (8, 0), (8, 32), (8, 40)] {
            let err = IsaacLayer::map(&w, config(weight_bits, input_bits, 128)).unwrap_err();
            assert!(
                matches!(err, ExecError::UnsupportedConfig { .. }),
                "w{weight_bits} a{input_bits} must be rejected"
            );
        }
    }

    #[test]
    fn non_matrix_rejected() {
        let err = IsaacLayer::map(&Tensor::ones(&[2, 2, 2]), config(8, 8, 128)).unwrap_err();
        assert!(matches!(err, ExecError::NotMatrix { rank: 3 }));
    }
}
