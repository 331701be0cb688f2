//! The ISAAC offset-encoding crossbar model (paper §II-B and ref. \[18\]).

use forms_exec::{ExecError, Merge};
use forms_reram::{
    matmul_sweep, partial_sums_fit_i32, plane_ones, Adc, BitSlicer, CellSpec, Crossbar,
    FaultCampaign, FaultReport, PartialSum, SweepEngine, SweepLayout, SweepScratch,
};
use forms_tensor::Tensor;

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
    crossbar_dim: usize,
    input_bits: u32,
    bias: u64,
    step: f32,
    row_index: Vec<usize>,
    col_index: Vec<usize>,
    orig_rows: usize,
    orig_cols: usize,
    crossbars: Vec<Crossbar>,
    xb_cols: usize,
    adc: Adc,
    slicer: BitSlicer,
    /// Whether one row block's worst-case partial sum (before the offset
    /// subtraction) fits an `i32`, so the integer fast path sums blocks in
    /// `i32` (see [`partial_sums_fit_i32`]).
    i32_sums: bool,
    /// Pristine nominal output ceiling: `max_col Σ|k| × max_input × step`
    /// — the offset correction cancels the bias exactly on clean arrays,
    /// so no clean output can exceed this (per unit input scale).
    ceiling: f64,
    /// Cumulative stuck cells injected through fault campaigns.
    faulted_cells: u64,
    /// Cumulative drifted cells injected likewise.
    drifted_cells: u64,
}

impl IsaacLayer {
    /// Maps a signed matrix with the paper's 128×128 / 2-bit-cell
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if `matrix` is not rank-2 or entirely zero.
    pub fn map(matrix: &Tensor, weight_bits: u32, input_bits: u32) -> Result<Self, ExecError> {
        Self::map_with(matrix, weight_bits, input_bits, 128, CellSpec::paper_2bit())
    }

    /// Maps with explicit crossbar dimension and cell spec (small arrays
    /// for tests).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if `matrix` is not rank-2 or entirely
    /// zero, if `weight_bits` is outside `2..=32` (the offset encoding
    /// needs a sign bit's worth of bias), if `input_bits` is outside
    /// `1..=31`, or if a column's worst-case accumulation would overflow
    /// the `i64` digital accumulators.
    pub fn map_with(
        matrix: &Tensor,
        weight_bits: u32,
        input_bits: u32,
        crossbar_dim: usize,
        cell: CellSpec,
    ) -> Result<Self, ExecError> {
        if matrix.shape().rank() != 2 {
            return Err(ExecError::NotMatrix {
                rank: matrix.shape().rank(),
            });
        }
        if !(2..=32).contains(&weight_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "offset encoding needs weight bits in 2..=32",
            });
        }
        if !(1..=31).contains(&input_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "input bits must be in 1..=31",
            });
        }
        let (rows, cols) = (matrix.dims()[0], matrix.dims()[1]);
        let nz = |r: usize, c: usize| matrix.data()[r * cols + c] != 0.0;
        let row_index: Vec<usize> = (0..rows).filter(|&r| (0..cols).any(|c| nz(r, c))).collect();
        let col_index: Vec<usize> = (0..cols).filter(|&c| (0..rows).any(|r| nz(r, c))).collect();
        if row_index.is_empty() || col_index.is_empty() {
            return Err(ExecError::AllZero);
        }

        // Clamp in integers: above 24 weight bits the f32 image of the top
        // level rounds up past it, and its encoding would wrap.
        let max_k = (1i64 << (weight_bits - 1)) - 1;
        let levels = max_k as f32;
        let abs_max = matrix.abs_max();
        let step = if abs_max > 0.0 { abs_max / levels } else { 1.0 };
        let bias = 1u64 << (weight_bits - 1);
        let slicer = BitSlicer::new(weight_bits, cell.bits());
        let cpw = slicer.cells_per_weight();

        // Worst case of one column's signed accumulator: every row holds
        // the largest code its cells can store (a stuck-at fault may exceed
        // the encoder's), every input is at full scale, and the offset
        // correction subtracts the bias for every input `1`.
        let max_stored_code = (1u128 << (cpw as u32 * cell.bits())) - 1;
        let max_input_code = (1u128 << input_bits) - 1;
        let worst = row_index.len() as u128 * (max_stored_code + u128::from(bias)) * max_input_code;
        if worst > i64::MAX as u128 {
            return Err(ExecError::UnsupportedConfig {
                reason: "worst-case column accumulation overflows the i64 accumulators",
            });
        }
        let i32_sums = partial_sums_fit_i32(crossbar_dim, max_stored_code, max_input_code);

        let xb_rows = row_index.len().div_ceil(crossbar_dim);
        let xb_cols = (col_index.len() * cpw).div_ceil(crossbar_dim);
        let mut crossbars =
            vec![Crossbar::new(crossbar_dim, crossbar_dim, cell); xb_rows * xb_cols];

        let mut col_abs_sums = vec![0u64; col_index.len()];
        for (ci, &c) in col_index.iter().enumerate() {
            for (ri, &r) in row_index.iter().enumerate() {
                let w = matrix.data()[r * cols + c];
                let k = ((w / step).round() as i64).clamp(-max_k, max_k);
                col_abs_sums[ci] += k.unsigned_abs();
                let encoded = (k + bias as i64) as u32;
                let (xr, row_in_xb) = (ri / crossbar_dim, ri % crossbar_dim);
                for (slice, &s) in slicer.slice(encoded).iter().enumerate() {
                    let cell_col = ci * cpw + slice;
                    let (xc, col_in_xb) = (cell_col / crossbar_dim, cell_col % crossbar_dim);
                    crossbars[xr * xb_cols + xc].program_cell(row_in_xb, col_in_xb, s);
                }
            }
        }

        let max_input = ((1u64 << input_bits) - 1) as f64;
        let ceiling = col_abs_sums
            .iter()
            .map(|&s| s as f64 * max_input * f64::from(step))
            .fold(0.0f64, f64::max);

        let adc = Adc::for_fragment(crossbar_dim, &cell);
        Ok(Self {
            crossbar_dim,
            input_bits,
            bias,
            step,
            row_index,
            col_index,
            orig_rows: rows,
            orig_cols: cols,
            crossbars,
            xb_cols,
            adc,
            slicer,
            i32_sums,
            ceiling,
            faulted_cells: 0,
            drifted_cells: 0,
        })
    }

    /// Applies a fault campaign to every crossbar of this layer (the same
    /// per-crossbar salting as the FORMS engine, so FORMS-vs-ISAAC fault
    /// sweeps are apples-to-apples).
    pub fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        let total = campaign.apply_all(&mut self.crossbars, salt);
        self.faulted_cells += total.stuck() as u64;
        self.drifted_cells += total.drifted as u64;
        total
    }

    /// Aggregate fault counters: (faulted cells, drifted cells, total
    /// mapped cells).
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        let dim = self.crossbar_dim as u64;
        (
            self.faulted_cells,
            self.drifted_cells,
            self.crossbars.len() as u64 * dim * dim,
        )
    }

    /// Pristine nominal output ceiling (per unit input scale).
    pub fn nominal_ceiling(&self) -> f64 {
        self.ceiling
    }

    /// Weight quantization step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Length of the layer's output vector (= original weight columns).
    pub fn output_len(&self) -> usize {
        self.orig_cols
    }

    /// Physical crossbars used.
    pub fn crossbar_count(&self) -> usize {
        self.crossbars.len()
    }

    /// Mutable access to the crossbars (variation injection).
    pub fn crossbars_mut(&mut self) -> &mut [Crossbar] {
        &mut self.crossbars
    }

    /// Reconstructs the (quantized, signed) weight matrix this mapping
    /// represents, in original indexing.
    pub fn dequantized_matrix(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.orig_rows, self.orig_cols]);
        let cpw = self.slicer.cells_per_weight();
        let dim = self.crossbar_dim;
        for (ci, &c) in self.col_index.iter().enumerate() {
            for (ri, &r) in self.row_index.iter().enumerate() {
                let (xr, row_in_xb) = (ri / dim, ri % dim);
                let slices: Vec<u64> = (0..cpw)
                    .map(|k| {
                        let cell_col = ci * cpw + k;
                        let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                        self.crossbars[xr * self.xb_cols + xc].read_cell(row_in_xb, col_in_xb)
                            as u64
                    })
                    .collect();
                let encoded = self.slicer.recombine(&slices) as i64;
                let k = encoded - self.bias as i64;
                out.data_mut()[r * self.orig_cols + c] = k as f32 * self.step;
            }
        }
        out
    }

    /// Executes the coarse-grained offset-encoded MVM: all rows of each
    /// crossbar block activate together, every input bit plane is fed (no
    /// zero-skipping), and the counted-ones offset is subtracted digitally.
    /// A one-column [`matmul_into`](Self::matmul_into) on a fresh
    /// [`SweepScratch`].
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the original row count or
    /// any code exceeds `input_bits`.
    pub fn matvec(&self, input_codes: &[u32], input_scale: f32) -> (Vec<f32>, IsaacStats) {
        let mut out = vec![0.0f32; self.orig_cols];
        let stats = self.matmul_into(
            input_codes,
            &[input_scale],
            &mut SweepScratch::default(),
            &mut out,
        );
        (out, stats)
    }

    /// Whether [`matmul_into`](Self::matmul_into) runs its integer path
    /// (see [`SweepLayout::integer_path`]): every mapped cell dequantizes to
    /// an exact integer code and the ADC is lossless over a full block's
    /// current range.
    pub fn integer_matmul_path(&self) -> bool {
        self.layout().integer_path(self.crossbar_dim)
    }

    /// The blocked weight-stationary batch kernel: executes
    /// `scales.len()` offset-encoded matrix-vector products in one
    /// [`matmul_sweep`] over the row blocks, bitwise identical to calling
    /// [`matvec_reference`](Self::matvec_reference) once per sample
    /// (outputs *and* merged stats).
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths are inconsistent with `scales.len()`
    /// or any input code exceeds `input_bits`.
    pub fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut SweepScratch,
        outs: &mut [f32],
    ) -> IsaacStats {
        matmul_sweep(self, &self.layout(), batch_codes, scales, scratch, outs)
    }

    /// The layer as the sweep reads it.
    fn layout(&self) -> SweepLayout<'_> {
        SweepLayout {
            row_index: &self.row_index,
            col_index: &self.col_index,
            orig_rows: self.orig_rows,
            orig_cols: self.orig_cols,
            crossbars: &self.crossbars,
            xb_cols: self.xb_cols,
            crossbar_dim: self.crossbar_dim,
            slicer: self.slicer,
            adc: &self.adc,
            input_bits: self.input_bits,
            step: self.step,
            i32_sums: self.i32_sums,
        }
    }

    /// The legacy allocating kernel, kept as the bitwise oracle for
    /// [`matmul_into`](Self::matmul_into) and as the pre-optimization
    /// baseline for the MVM benchmark. Results are bitwise identical to
    /// [`matvec`](Self::matvec).
    ///
    /// # Panics
    ///
    /// Panics as [`matvec`](Self::matvec) does.
    pub fn matvec_reference(
        &self,
        input_codes: &[u32],
        input_scale: f32,
    ) -> (Vec<f32>, IsaacStats) {
        self.layout().validate_input_codes(input_codes);
        let dim = self.crossbar_dim;
        let cpw = self.slicer.cells_per_weight();
        let cell_bits = self.slicer.cell_bits();
        let mut stats = IsaacStats::default();
        let mut accs = vec![0i64; self.col_index.len()];

        for (block, rows) in self.row_index.chunks(dim).enumerate() {
            let codes: Vec<u32> = rows.iter().map(|&r| input_codes[r]).collect();
            stats.cycles += u64::from(self.input_bits);
            stats.row_blocks += 1;
            let window = 0..codes.len();

            // Offset term shared by every column of the block:
            // bias × Σ_planes ones(plane) << plane.
            let mut offset = 0u64;
            for plane in 0..self.input_bits {
                let ones = codes.iter().filter(|&&c| (c >> plane) & 1 == 1).count() as u64;
                stats.ones_counted += ones;
                stats.offset_subtractions += ones;
                offset += (self.bias * ones) << plane;
            }

            for (ci, acc) in accs.iter_mut().enumerate() {
                let mut slice_acc = vec![0u64; cpw];
                for plane in 0..self.input_bits {
                    let drives: Vec<f64> = codes
                        .iter()
                        .map(|&c| if (c >> plane) & 1 == 1 { 1.0 } else { 0.0 })
                        .collect();
                    for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                        let cell_col = ci * cpw + k;
                        let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                        let current = self.crossbars[block * self.xb_cols + xc].column_current(
                            col_in_xb,
                            &drives,
                            window.clone(),
                        );
                        let code = self.adc.convert(current);
                        stats.adc_conversions += 1;
                        *acc_k += u64::from(code) << plane;
                    }
                }
                let mut encoded_total = 0u64;
                for &s in &slice_acc {
                    encoded_total = (encoded_total << cell_bits) + s;
                }
                *acc += encoded_total as i64 - offset as i64;
            }
        }

        let mut out = vec![0.0f32; self.orig_cols];
        for (ci, &c) in self.col_index.iter().enumerate() {
            out[c] = accs[ci] as f32 * self.step * input_scale;
        }
        (out, stats)
    }
}

/// ISAAC's part of the sweep: whole-block sub-arrays, every input plane
/// paid, and the offset subtraction as the digital step.
impl SweepEngine for IsaacLayer {
    type Stats = IsaacStats;

    fn subarray_rows(&self) -> usize {
        self.crossbar_dim
    }

    fn sample_planes(&self, _codes: &[u32], stats: &mut IsaacStats) -> u32 {
        // No zero-skipping: every sample pays all input bit planes, and
        // every column converts every slice each plane.
        stats.cycles += u64::from(self.input_bits);
        stats.row_blocks += 1;
        let cell_cols = self.col_index.len() * self.slicer.cells_per_weight();
        stats.adc_conversions += u64::from(self.input_bits) * cell_cols as u64;
        self.input_bits
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
    use forms_reram::MATMUL_TILE;
    use forms_tensor::QuantizedTensor;

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
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
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
        let layer = IsaacLayer::map_with(&w, 8, 8, 8, CellSpec::paper_2bit()).expect("map");
        // All conductances are valid by construction; decode a negative
        // weight and verify the stored code was biased.
        let back = layer.dequantized_matrix();
        assert!(back.min() < 0.0, "test matrix should have negatives");
    }

    #[test]
    fn dequantized_round_trip_within_step() {
        let w = signed_matrix(16, 4);
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let err = w.max_abs_diff(&layer.dequantized_matrix());
        assert!(err <= layer.step() / 2.0 + 1e-6, "error {err}");
    }

    #[test]
    fn no_zero_skipping_means_full_cycles() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map_with(&w, 8, 8, 8, CellSpec::paper_2bit()).expect("map");
        // Tiny inputs whose effective bits are 1 — ISAAC still pays 8
        // cycles.
        let (_, stats) = layer.matvec(&[1; 8], 1.0);
        assert_eq!(stats.cycles, 8);
    }

    #[test]
    fn offset_work_scales_with_input_ones() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map_with(&w, 8, 8, 8, CellSpec::paper_2bit()).expect("map");
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
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
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
            let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
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
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
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
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let ceiling = layer.nominal_ceiling();
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
        let mut layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let report = layer.inject_faults(&FaultCampaign::stuck_at(3, 0.15, 0.1), 7);
        assert!(report.stuck() > 0);
        let (faulted, _, total) = layer.fault_counts();
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
        let mut outs = Vec::with_capacity(scales.len() * layer.orig_cols);
        let mut stats = IsaacStats::default();
        for (codes, &scale) in batch_codes.chunks_exact(layer.orig_rows).zip(scales) {
            let (out, s) = layer.matvec_reference(codes, scale);
            outs.extend(out);
            stats.merge(s);
        }
        (outs, stats)
    }

    fn batch_codes_for(layer: &IsaacLayer, samples: usize, seed: u64) -> (Vec<u32>, Vec<f32>) {
        let codes: Vec<u32> = (0..samples * layer.orig_rows)
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
            let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
            assert!(layer.integer_matmul_path(), "pristine map must be fast");
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
        let mut layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        layer.crossbars_mut()[0].conductances_mut()[5] += 3.77;
        layer.crossbars_mut()[0].commit_writes();
        assert!(!layer.integer_matmul_path(), "drift must disable fast path");
        let mut scratch = SweepScratch::default();
        let (codes, scales) = batch_codes_for(&layer, MATMUL_TILE + 2, 9);
        let mut outs = vec![0.0f32; scales.len() * 5];
        let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn batched_matmul_survives_post_map_fault_injection() {
        let w = signed_matrix(16, 4);
        let mut layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let report = layer.inject_faults(&FaultCampaign::stuck_at(3, 0.15, 0.1), 7);
        assert!(report.stuck() > 0);
        let mut scratch = SweepScratch::default();
        let (codes, scales) = batch_codes_for(&layer, 11, 2);
        let mut outs = vec![0.0f32; 11 * 4];
        let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn partial_sum_width_switches_at_the_i32_bound() {
        // A 16-row block of w8 encoded codes (at most 255): 16 × 255 ×
        // (2^19 − 1) fits an i32, 16 × 255 × (2^20 − 1) does not.
        let top = Tensor::from_vec(vec![1.0; 32 * 4], &[32, 4]);
        let mut layers = Vec::new();
        for (input_bits, narrow) in [(19, true), (20, false)] {
            let map = |w: &Tensor| {
                IsaacLayer::map_with(w, 8, input_bits, 16, CellSpec::paper_2bit()).unwrap()
            };
            // Every weight at the top encoded code: full-scale inputs
            // drive each block's partial sums to the worst case.
            let top_codes = map(&top);
            // Stuck-high cells raise codes to the top rail after mapping.
            let mut faulted = map(&signed_matrix(32, 4));
            let report = faulted.inject_faults(&FaultCampaign::stuck_at(5, 0.05, 0.3), 17);
            assert!(report.stuck_high > 0);
            for layer in [top_codes, faulted] {
                assert_eq!(layer.i32_sums, narrow, "a{input_bits}");
                assert!(layer.integer_matmul_path());
                layers.push(layer);
            }
        }
        // One scratch threaded narrow → wide → narrow pins its reuse
        // across partial-sum widths.
        let mut scratch = SweepScratch::default();
        for layer in layers.iter().chain(&layers[..2]) {
            let full_scale = (1u32 << layer.input_bits) - 1;
            let mut codes = vec![full_scale; 3 * 32];
            codes[32..40].fill(0);
            let scales = [1.0, 0.5, 0.25];
            let mut outs = vec![0.0f32; 3 * 4];
            let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
            let (want, want_stats) = matmul_oracle(layer, &codes, &scales);
            assert_eq!(outs, want, "a{}", layer.input_bits);
            assert_eq!(stats, want_stats, "a{}", layer.input_bits);
        }
    }

    #[test]
    fn rejects_configs_whose_accumulators_could_overflow() {
        // 4 rows × ((2^32 − 1) + 2^31) × (2^31 − 1) overflows i64; the
        // same matrix at 16-bit inputs fits and computes the exact product.
        let w = Tensor::from_vec(vec![1.0; 8], &[4, 2]);
        let err = IsaacLayer::map_with(&w, 32, 31, 16, CellSpec::paper_2bit()).unwrap_err();
        assert!(matches!(err, ExecError::UnsupportedConfig { .. }));
        let layer = IsaacLayer::map_with(&w, 32, 16, 16, CellSpec::paper_2bit()).unwrap();
        let (out, _) = layer.matvec(&[0xFFFF; 4], 1.0);
        assert_eq!(out, vec![4.0 * 65535.0; 2]);
    }

    #[test]
    fn all_zero_matrix_rejected() {
        let err = IsaacLayer::map(&Tensor::zeros(&[4, 4]), 8, 8).unwrap_err();
        assert!(matches!(err, ExecError::AllZero));
    }

    #[test]
    fn out_of_range_widths_rejected() {
        let w = signed_matrix(4, 4);
        for (weight_bits, input_bits) in [(1, 8), (33, 8), (40, 8), (8, 0), (8, 32), (8, 40)] {
            let err = IsaacLayer::map(&w, weight_bits, input_bits).unwrap_err();
            assert!(
                matches!(err, ExecError::UnsupportedConfig { .. }),
                "w{weight_bits} a{input_bits} must be rejected"
            );
        }
    }

    #[test]
    fn non_matrix_rejected() {
        let err = IsaacLayer::map(&Tensor::ones(&[2, 2, 2]), 8, 8).unwrap_err();
        assert!(matches!(err, ExecError::NotMatrix { rank: 3 }));
    }
}
