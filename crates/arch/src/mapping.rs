//! The polarized crossbar mapping scheme (paper §IV-A, Fig. 5).
//!
//! A structurally pruned, polarized, quantized weight matrix is compacted
//! (zero rows/columns dropped), its magnitudes quantized to sign-magnitude
//! codes, bit-sliced over multi-bit cells and programmed onto 128×128
//! physical crossbars partitioned into `fragment_size`-row logical
//! sub-arrays. Each fragment's single sign bit lives in the 1R *sign
//! indicator* and is applied during digital accumulation.

use forms_exec::{CrossbarEngine, EngineHealth, ExecError, FaultableEngine, Merge};
use forms_reram::{
    matmul_sweep, CellSpec, Crossbar, CrossbarGrid, CurrentNoise, FaultCampaign, FaultReport,
    GridShape, PartialSum, SweepEngine, SweepScratch,
};
use forms_rng::Rng;
use forms_tensor::Tensor;

use crate::zero_skip::{fragment_eic, ShiftRegisterBank};

/// Configuration of the mapping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MappingConfig {
    /// Physical crossbar dimension (128 in the paper).
    pub crossbar_dim: usize,
    /// Sub-array rows = weights per fragment (4/8/16).
    pub fragment_size: usize,
    /// Magnitude bits stored per weight (8 in the paper's evaluation).
    pub weight_bits: u32,
    /// The ReRAM cell specification (2-bit cells in the paper).
    pub cell: CellSpec,
    /// Input (activation) bits (16 in the paper's evaluation).
    pub input_bits: u32,
    /// Whether the zero-skipping logic is active.
    pub zero_skipping: bool,
}

impl MappingConfig {
    /// The paper's evaluation point at a given fragment size: 128×128
    /// crossbars, 2-bit cells, 8-bit weights, 16-bit inputs, zero-skipping
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if `fragment_size` does not divide 128.
    pub fn paper(fragment_size: usize) -> Self {
        assert!(
            fragment_size > 0 && 128 % fragment_size == 0,
            "fragment size must divide the crossbar dimension"
        );
        Self {
            crossbar_dim: 128,
            fragment_size,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 16,
            zero_skipping: true,
        }
    }

    /// Cells per weight.
    pub fn cells_per_weight(&self) -> usize {
        self.weight_bits.div_ceil(self.cell.bits()) as usize
    }
}

/// Statistics of one mapped matrix-vector multiplication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvmStats {
    /// Input shift cycles actually spent.
    pub cycles: u64,
    /// Cycles a non-skipping design would have spent.
    pub cycles_without_skip: u64,
    /// ADC conversions performed.
    pub adc_conversions: u64,
    /// Fragments whose inputs were entirely zero (skipped outright).
    pub fragments_skipped: u64,
    /// Fragment activations processed.
    pub fragments_total: u64,
}

impl Merge for MvmStats {
    fn merge(&mut self, other: MvmStats) {
        self.cycles += other.cycles;
        self.cycles_without_skip += other.cycles_without_skip;
        self.adc_conversions += other.adc_conversions;
        self.fragments_skipped += other.fragments_skipped;
        self.fragments_total += other.fragments_total;
    }
}

impl MvmStats {
    /// Fraction of input cycles saved by zero-skipping.
    pub fn cycles_saved_fraction(&self) -> f64 {
        if self.cycles_without_skip == 0 {
            0.0
        } else {
            1.0 - self.cycles as f64 / self.cycles_without_skip as f64
        }
    }

    /// Converts the statistics into a [`forms_hwmodel::Activity`] record
    /// for energy accounting under a mapping configuration.
    pub fn activity(&self, config: &MappingConfig) -> forms_hwmodel::Activity {
        forms_hwmodel::Activity {
            shift_cycles: self.cycles,
            adc_conversions: self.adc_conversions,
            rows_per_cycle: config.fragment_size as u64,
            cells_per_conversion: config.cells_per_weight() as u64,
            shift_add_ops: self.adc_conversions,
        }
    }

    /// Dynamic energy of this activity on an MCU configuration, in pJ.
    pub fn energy_pj(&self, config: &MappingConfig, mcu: &forms_hwmodel::McuConfig) -> f64 {
        use forms_hwmodel::DynamicActivity;
        FormsActivity {
            stats: *self,
            config: *config,
        }
        .energy_pj(mcu)
    }
}

/// FORMS statistics bound to their mapping configuration — the
/// [`forms_hwmodel::DynamicActivity`] record through which FORMS costs
/// reach the shared energy model (ISAAC's counterpart is
/// `forms_baselines::IsaacActivity`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FormsActivity {
    /// The accumulated MVM statistics.
    pub stats: MvmStats,
    /// The mapping configuration the statistics were produced under.
    pub config: MappingConfig,
}

impl forms_hwmodel::DynamicActivity for FormsActivity {
    fn activity(&self) -> forms_hwmodel::Activity {
        self.stats.activity(&self.config)
    }
}

/// A weight matrix mapped onto polarized physical crossbars.
///
/// Constructed from a *fragment-polarized* `[rows, cols]` matrix (rows in
/// policy order); [`matvec`](Self::matvec) then executes the full
/// mixed-signal path — shift registers, 1-bit DACs, fragment-windowed
/// column currents, per-slice ADC conversion, shift-&-add recombination and
/// sign-indicator-controlled digital accumulation.
#[derive(Clone, Debug)]
pub struct MappedLayer {
    config: MappingConfig,
    /// The compacted weight magnitudes on the crossbar grid.
    grid: CrossbarGrid,
    /// Sign per (fragment, compact column), fragment-major: `true` =
    /// positive.
    signs: Vec<bool>,
}

impl MappedLayer {
    /// Maps a polarized weight matrix: each weight stores its magnitude
    /// code, and each fragment's sign goes to its sign indicator.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotPolarized`] if any fragment mixes signs,
    /// and otherwise the errors of [`CrossbarGrid::new`] (a non-matrix, an
    /// all-zero matrix, a fragment size that does not divide the crossbar
    /// dimension, out-of-range widths, or overflowing accumulators).
    pub fn map(matrix: &Tensor, config: MappingConfig) -> Result<Self, ExecError> {
        let (row_index, col_index) = CrossbarGrid::compact(matrix)?;
        let shape = GridShape {
            crossbar_dim: config.crossbar_dim,
            subarray_rows: config.fragment_size,
            cell: config.cell,
            weight_bits: config.weight_bits,
            input_bits: config.input_bits,
        };
        let grid = CrossbarGrid::new(matrix, row_index, col_index, shape, 0, |k| {
            k.unsigned_abs() as u32
        })?;

        // Polarization check + sign extraction on the compact matrix.
        let cols = matrix.dims()[1];
        let (rows, ncols) = (grid.row_index(), grid.col_index().len());
        let mut signs = vec![true; rows.len().div_ceil(config.fragment_size) * ncols];
        let mut violations = 0usize;
        for (ci, &c) in grid.col_index().iter().enumerate() {
            for (frag, frag_rows) in rows.chunks(config.fragment_size).enumerate() {
                let vals: Vec<f32> = frag_rows
                    .iter()
                    .map(|&r| matrix.data()[r * cols + c])
                    .collect();
                let sum: f32 = vals.iter().sum();
                let positive = sum >= 0.0;
                violations += vals
                    .iter()
                    .filter(|&&v| if positive { v < 0.0 } else { v > 0.0 })
                    .count();
                signs[frag * ncols + ci] = positive;
            }
        }
        if violations > 0 {
            return Err(ExecError::NotPolarized { violations });
        }
        Ok(Self {
            config,
            grid,
            signs,
        })
    }

    /// The mapping configuration.
    pub fn config(&self) -> &MappingConfig {
        &self.config
    }

    /// The weight quantization step.
    pub fn step(&self) -> f32 {
        self.grid.step()
    }

    /// Number of sign-indicator bits (one per fragment per column).
    pub fn sign_bits(&self) -> usize {
        self.signs.len()
    }

    /// Mutable access to the physical crossbars, for variation and fault
    /// injection.
    pub fn crossbars_mut(&mut self) -> &mut [Crossbar] {
        self.grid.crossbars_mut()
    }

    /// The crossbar grid the weight magnitudes are programmed on.
    pub fn grid(&self) -> &CrossbarGrid {
        &self.grid
    }

    /// Read access to the physical crossbars.
    pub fn crossbars(&self) -> &[Crossbar] {
        self.grid.crossbars()
    }

    /// The sign indicator of fragment `frag` of compact column `ci`.
    fn positive(&self, frag: usize, ci: usize) -> bool {
        self.signs[frag * self.grid.col_index().len() + ci]
    }

    /// Reconstructs the (quantized) weight matrix this mapping represents,
    /// in original `[rows, cols]` indexing — the digital reference for the
    /// analog path.
    pub fn dequantized_matrix(&self) -> Tensor {
        self.grid.dequantized(|ri, ci, code| {
            let sign = if self.positive(ri / self.config.fragment_size, ci) {
                1.0
            } else {
                -1.0
            };
            sign * code as f32
        })
    }

    /// Executes the mixed-signal matrix-vector product on quantized input
    /// codes (length = original rows; codes of pruned rows are ignored):
    /// a one-column [`matmul_into`](Self::matmul_into) on a fresh
    /// [`SweepScratch`].
    ///
    /// `input_scale` is the value of input code 1; the result is in real
    /// units (`scale × step × integer dot product`), length = original
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the original row count or
    /// any code exceeds `input_bits`.
    pub fn matvec(&self, input_codes: &[u32], input_scale: f32) -> (Vec<f32>, MvmStats) {
        let mut out = vec![0.0f32; self.grid.output_len()];
        let stats = self.matmul_into(
            input_codes,
            &[input_scale],
            &mut SweepScratch::default(),
            &mut out,
        );
        (out, stats)
    }

    /// Like [`matvec`](Self::matvec) but with additive read noise on every
    /// column current before ADC conversion (paper refs. \[31, 32\]; the
    /// fine-vs-coarse susceptibility argument of §II-C). Runs the
    /// reference kernel, which draws the noise column → cycle → slice.
    ///
    /// # Panics
    ///
    /// Panics as [`matvec`](Self::matvec) does.
    pub fn matvec_noisy<R: Rng + ?Sized>(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        noise: &CurrentNoise,
        rng: &mut R,
    ) -> (Vec<f32>, MvmStats) {
        self.matvec_impl(input_codes, input_scale, |c| noise.perturb(c, rng))
    }

    /// The legacy allocating kernel, kept as the bitwise oracle for
    /// [`matmul_into`](Self::matmul_into) and as the pre-optimization
    /// baseline for the MVM benchmark. Results are bitwise identical to
    /// [`matvec`](Self::matvec).
    ///
    /// # Panics
    ///
    /// Panics as [`matvec`](Self::matvec) does.
    pub fn matvec_reference(&self, input_codes: &[u32], input_scale: f32) -> (Vec<f32>, MvmStats) {
        self.matvec_impl(input_codes, input_scale, |c| c)
    }

    /// Whether [`matmul_into`](Self::matmul_into) runs its integer path
    /// (see [`CrossbarGrid::integer_path`]): every mapped cell dequantizes
    /// to an exact integer code and the ADC is lossless over a fragment's
    /// current range.
    pub fn integer_matmul_path(&self) -> bool {
        self.grid.integer_path()
    }

    /// The blocked weight-stationary batch kernel: executes
    /// `scales.len()` matrix-vector products in one [`matmul_sweep`] over
    /// the fragments, bitwise identical to calling
    /// [`matvec_reference`](Self::matvec_reference) once per sample
    /// (outputs *and* merged stats). `batch_codes` holds the samples' input
    /// codes sample-major; `outs` receives the concatenated outputs
    /// (overwritten).
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
    ) -> MvmStats {
        matmul_sweep(self, &self.grid, batch_codes, scales, scratch, outs)
    }

    fn matvec_impl(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        mut perturb: impl FnMut(f64) -> f64,
    ) -> (Vec<f32>, MvmStats) {
        let grid = &self.grid;
        grid.validate_input_codes(input_codes);
        let m = self.config.fragment_size;
        let cpw = self.config.cells_per_weight();
        let cell_bits = self.config.cell.bits();
        let mut stats = MvmStats::default();
        let mut out = vec![0.0f32; grid.output_len()];
        let mut accs = vec![0i64; grid.col_index().len()];

        // Fragment-major order mirrors the hardware: one shift-register
        // bank feeds every column of the sub-array simultaneously, so input
        // cycles are paid once per fragment, not once per column.
        for (frag, rows) in grid.row_index().chunks(m).enumerate() {
            let codes: Vec<u32> = rows.iter().map(|&r| input_codes[r]).collect();
            stats.fragments_total += 1;
            stats.cycles_without_skip += u64::from(self.config.input_bits);

            // Bit planes driven this fragment (LSB first).
            let planes: Vec<Vec<bool>> = if self.config.zero_skipping {
                ShiftRegisterBank::load(&codes).drain()
            } else {
                (0..self.config.input_bits)
                    .map(|cycle| codes.iter().map(|&c| (c >> cycle) & 1 == 1).collect())
                    .collect()
            };
            stats.cycles += planes.len() as u64;
            if planes.is_empty() {
                stats.fragments_skipped += 1;
                continue;
            }
            let drives: Vec<Vec<f64>> = planes
                .iter()
                .map(|bits| bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
                .collect();

            for (ci, acc) in accs.iter_mut().enumerate() {
                // Per-slice accumulation over bit planes, then shift-&-add
                // across slices (MSB slice first).
                let mut slice_acc = vec![0u64; cpw];
                for (cycle, drive) in drives.iter().enumerate() {
                    for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                        let current = perturb(grid.column_current(frag * m, ci, k, drive));
                        let code = grid.adc().convert(current);
                        stats.adc_conversions += 1;
                        *acc_k += u64::from(code) << cycle;
                    }
                }
                let mut frag_total = 0u64;
                for &s in &slice_acc {
                    frag_total = (frag_total << cell_bits) + s;
                }
                // The sign indicator steers the accumulator add/subtract.
                *acc += if self.positive(frag, ci) {
                    frag_total as i64
                } else {
                    -(frag_total as i64)
                };
            }
        }
        grid.scatter(&accs, input_scale, &mut out);
        (out, stats)
    }
}

/// FORMS' part of the sweep: fragment-high sub-arrays, zero-skipped input
/// cycles, and the sign indicator as the digital step.
impl SweepEngine for MappedLayer {
    type Stats = MvmStats;

    fn subarray_rows(&self) -> usize {
        self.config.fragment_size
    }

    fn sample_planes(&self, codes: &[u32], stats: &mut MvmStats) -> u32 {
        // The shift-register bank drains after the fragment's effective
        // input cycles; an all-zero fragment is skipped outright.
        let paid = if self.config.zero_skipping {
            fragment_eic(codes)
        } else {
            self.config.input_bits
        };
        stats.fragments_total += 1;
        stats.cycles_without_skip += u64::from(self.config.input_bits);
        stats.cycles += u64::from(paid);
        stats.fragments_skipped += u64::from(paid == 0);
        // Every column converts every slice each shift cycle.
        stats.adc_conversions += u64::from(paid) * self.grid.cell_cols() as u64;
        paid
    }

    fn digital_step<T: PartialSum>(
        &self,
        fragment: usize,
        _planes: &[u64],
        _words: usize,
        sums: &[T],
        accs: &mut [i64],
        _stats: &mut MvmStats,
    ) {
        // The sign indicator steers the one add/subtract per column.
        let signs = &self.signs[fragment * accs.len()..][..accs.len()];
        for ((acc, &sum), &positive) in accs.iter_mut().zip(sums).zip(signs) {
            let sum: i64 = sum.into();
            *acc += if positive { sum } else { -sum };
        }
    }
}

impl CrossbarEngine for MappedLayer {
    type Config = MappingConfig;
    type Stats = MvmStats;
    type Scratch = SweepScratch;

    fn map_matrix(matrix: &Tensor, config: &MappingConfig) -> Result<Self, ExecError> {
        MappedLayer::map(matrix, *config)
    }

    fn output_len(&self) -> usize {
        self.grid.output_len()
    }

    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut SweepScratch,
        outs: &mut [f32],
    ) -> MvmStats {
        MappedLayer::matmul_into(self, batch_codes, scales, scratch, outs)
    }

    fn crossbar_count(&self) -> usize {
        self.grid.crossbars().len()
    }

    fn mean_input_cycles(stats: &MvmStats) -> Option<f64> {
        (stats.fragments_total > 0)
            .then(|| (stats.cycles as f64 / stats.fragments_total as f64).max(1.0))
    }

    fn max_input_cycles(config: &MappingConfig) -> f64 {
        f64::from(config.input_bits)
    }

    fn precision_of(config: &MappingConfig) -> forms_exec::LayerPrecision {
        forms_exec::LayerPrecision::new(config.weight_bits, config.input_bits)
    }

    fn with_precision(
        config: &MappingConfig,
        precision: forms_exec::LayerPrecision,
    ) -> MappingConfig {
        MappingConfig {
            weight_bits: precision.weight_bits,
            input_bits: precision.input_bits,
            ..*config
        }
    }

    fn health(&self) -> EngineHealth {
        self.grid.health()
    }

    fn output_ceiling(&self) -> Option<f64> {
        Some(self.grid.ceiling())
    }
}

impl FaultableEngine for MappedLayer {
    fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        self.grid.inject_faults(campaign, salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_reram::MATMUL_TILE;
    use forms_tensor::QuantizedTensor;

    /// A small polarized matrix: fragments of 4 rows, alternating sign per
    /// column fragment.
    fn polarized_matrix(rows: usize, cols: usize, m: usize) -> Tensor {
        Tensor::from_fn(&[rows, cols], |i| {
            let (r, c) = (i / cols, i % cols);
            let frag = r / m;
            let sign = if (frag + c).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            sign * ((i % 7) as f32 + 1.0) / 8.0
        })
    }

    fn small_config(m: usize) -> MappingConfig {
        MappingConfig {
            crossbar_dim: 16,
            fragment_size: m,
            weight_bits: 8,
            cell: CellSpec::paper_2bit(),
            input_bits: 8,
            zero_skipping: true,
        }
    }

    /// `Executor::map_network` maps every layer with
    /// `with_precision(config, precision_of(config))`, so that must give
    /// the configuration back unchanged.
    #[test]
    fn precision_round_trip_is_identity() {
        for config in [small_config(4), MappingConfig::paper(8)] {
            let p = MappedLayer::precision_of(&config);
            assert_eq!(MappedLayer::with_precision(&config, p), config);
        }
    }

    #[test]
    fn rejects_unpolarized_matrix() {
        let w = Tensor::from_vec(vec![1.0, -1.0, 2.0, 1.0], &[4, 1]);
        let err = MappedLayer::map(&w, small_config(4)).unwrap_err();
        assert!(matches!(err, ExecError::NotPolarized { violations: 1 }));
    }

    #[test]
    fn rejects_out_of_range_widths() {
        let w = polarized_matrix(16, 4, 4);
        for (weight_bits, input_bits) in [(0, 8), (33, 8), (40, 8), (8, 0), (8, 32), (8, 40)] {
            let cfg = MappingConfig {
                weight_bits,
                input_bits,
                ..small_config(4)
            };
            assert!(
                matches!(
                    MappedLayer::map(&w, cfg).unwrap_err(),
                    ExecError::UnsupportedConfig { .. }
                ),
                "w{weight_bits} a{input_bits} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_all_zero_matrix() {
        let w = Tensor::zeros(&[4, 2]);
        assert_eq!(
            MappedLayer::map(&w, small_config(4)).unwrap_err(),
            ExecError::AllZero
        );
    }

    #[test]
    fn dequantized_matrix_round_trips_within_step() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let back = mapped.dequantized_matrix();
        assert!(
            w.max_abs_diff(&back) <= mapped.step() / 2.0 + 1e-6,
            "round-trip error {} vs step {}",
            w.max_abs_diff(&back),
            mapped.step()
        );
    }

    #[test]
    fn matvec_matches_digital_reference_exactly() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let x = Tensor::from_fn(&[16], |i| (i as f32 * 0.13).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let (got, _) = mapped.matvec(q.codes(), q.spec().scale());
        // Digital reference: dequantized weights × dequantized inputs.
        let reference = mapped
            .dequantized_matrix()
            .transpose()
            .matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 1e-3, "analog {g} vs digital {r}");
        }
    }

    #[test]
    fn zero_skipping_does_not_change_results() {
        let w = polarized_matrix(16, 4, 4);
        let mut cfg = small_config(4);
        let x = Tensor::from_fn(&[16], |i| if i % 3 == 0 { 0.0 } else { 0.01 * i as f32 });
        let q = QuantizedTensor::quantize(&x, 8);

        cfg.zero_skipping = true;
        let skipping = MappedLayer::map(&w, cfg).unwrap();
        let (with_skip, s1) = skipping.matvec(q.codes(), q.spec().scale());

        cfg.zero_skipping = false;
        let plain = MappedLayer::map(&w, cfg).unwrap();
        let (without, s2) = plain.matvec(q.codes(), q.spec().scale());

        assert_eq!(with_skip, without);
        assert!(s1.cycles < s2.cycles, "no cycles saved: {s1:?} vs {s2:?}");
        assert_eq!(s2.cycles, s2.cycles_without_skip);
    }

    #[test]
    fn pruned_rows_and_cols_are_compacted() {
        // Zero out half the rows and one column.
        let mut w = polarized_matrix(16, 4, 4);
        let cols = 4;
        for r in 8..16 {
            for c in 0..cols {
                w.data_mut()[r * cols + c] = 0.0;
            }
        }
        for r in 0..16 {
            w.data_mut()[r * cols + 2] = 0.0;
        }
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        // 8 surviving rows × 3 surviving cols × 4 cells = 12 cell columns →
        // one 16×16 crossbar.
        assert_eq!(mapped.crossbar_count(), 1);
        // Output for the pruned column must be exactly zero.
        let q_codes = vec![5u32; 16];
        let (out, _) = mapped.matvec(&q_codes, 1.0);
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn all_zero_input_fragments_are_skipped() {
        let w = polarized_matrix(8, 2, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let codes = vec![0u32; 8];
        let (out, stats) = mapped.matvec(&codes, 1.0);
        assert!(out.iter().all(|&v| v == 0.0));
        assert_eq!(stats.fragments_skipped, stats.fragments_total);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn sign_bits_count_matches_fragments() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        // 16 rows in fragments of 4, for each of 4 columns.
        assert_eq!(mapped.sign_bits(), (16 / 4) * 4);
    }

    #[test]
    fn stats_cycle_accounting_is_consistent() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let x = Tensor::from_fn(&[16], |i| 0.002 * (i as f32 + 1.0));
        let q = QuantizedTensor::quantize(&x, 8);
        let (_, stats) = mapped.matvec(q.codes(), q.spec().scale());
        assert!(stats.cycles <= stats.cycles_without_skip);
        assert!(stats.cycles_saved_fraction() >= 0.0);
        // Conversions = cycles × slices × active columns (every column
        // converts every slice each shift cycle).
        assert_eq!(
            stats.adc_conversions,
            stats.cycles * mapped.config().cells_per_weight() as u64 * 4
        );
    }

    #[test]
    fn zero_skipping_saves_energy_not_just_cycles() {
        let w = polarized_matrix(16, 4, 4);
        let mut cfg = small_config(4);
        // Fragment 0 holds the large values; fragments 1–3 are tiny and
        // skip most of their bits.
        let x = Tensor::from_fn(&[16], |i| if i < 4 { 0.2 } else { 0.001 });
        let q = QuantizedTensor::quantize(&x, 8);
        cfg.zero_skipping = true;
        let (_, s_on) = MappedLayer::map(&w, cfg)
            .unwrap()
            .matvec(q.codes(), q.spec().scale());
        cfg.zero_skipping = false;
        let (_, s_off) = MappedLayer::map(&w, cfg)
            .unwrap()
            .matvec(q.codes(), q.spec().scale());
        let mcu = forms_hwmodel::McuConfig::forms(4);
        assert!(
            s_on.energy_pj(&cfg, &mcu) < s_off.energy_pj(&cfg, &mcu),
            "zero-skipping must reduce dynamic energy"
        );
    }

    #[test]
    fn noiseless_noise_model_is_exact() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let codes = vec![9u32; 16];
        let (clean, _) = mapped.matvec(&codes, 1.0);
        let mut rng = forms_rng::StdRng::seed_from_u64(0);
        let (noisy, _) =
            mapped.matvec_noisy(&codes, 1.0, &forms_reram::CurrentNoise::none(), &mut rng);
        assert_eq!(clean, noisy);
    }

    #[test]
    fn read_noise_perturbs_results() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let codes = vec![9u32; 16];
        let (clean, _) = mapped.matvec(&codes, 1.0);
        let mut rng = forms_rng::StdRng::seed_from_u64(1);
        let noise = forms_reram::CurrentNoise::new(1.0, 0.0);
        let (noisy, _) = mapped.matvec_noisy(&codes, 1.0, &noise, &mut rng);
        assert_ne!(clean, noisy, "strong noise must move some outputs");
    }

    #[test]
    fn matvec_is_bitwise_identical_to_reference() {
        // The one-column kernel call == legacy bit-for-bit, zero-skip on
        // and off, over matrices that exercise pruning, partial tail
        // fragments and multiple crossbar columns.
        for &(rows, cols, m) in &[(16usize, 4usize, 4usize), (10, 3, 4), (40, 5, 8)] {
            let mut w = polarized_matrix(rows, cols, m);
            // Prune one whole fragment of rows (keeps the remaining rows
            // fragment-aligned) and one column to exercise compaction.
            for r in m..(2 * m).min(rows) {
                for c in 0..cols {
                    w.data_mut()[r * cols + c] = 0.0;
                }
            }
            for r in 0..rows {
                w.data_mut()[r * cols + 1] = 0.0;
            }
            for zero_skipping in [true, false] {
                let cfg = MappingConfig {
                    fragment_size: m,
                    zero_skipping,
                    ..small_config(m)
                };
                let mapped = MappedLayer::map(&w, cfg).unwrap();
                for seed in 0..4u64 {
                    let codes: Vec<u32> = (0..rows)
                        .map(|i| ((i as u64 * 37 + seed * 101) % 251) as u32)
                        .collect();
                    let (reference, ref_stats) = mapped.matvec_reference(&codes, 0.031);
                    let (got, stats) = mapped.matvec(&codes, 0.031);
                    assert_eq!(reference, got, "zero_skipping={zero_skipping}");
                    assert_eq!(ref_stats, stats);
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_layers_and_inputs() {
        // One warm scratch threaded through one-column MVMs of different
        // shapes must keep producing bitwise-reference results.
        let mut scratch = SweepScratch::default();
        for &(rows, cols, m) in &[(40usize, 5usize, 8usize), (16, 4, 4), (8, 2, 4)] {
            let w = polarized_matrix(rows, cols, m);
            let cfg = MappingConfig {
                fragment_size: m,
                ..small_config(m)
            };
            let mapped = MappedLayer::map(&w, cfg).unwrap();
            let mut out = vec![0.0f32; cols];
            for seed in 0..3u32 {
                let codes: Vec<u32> = (0..rows).map(|i| (i as u32 * 13 + seed) % 256).collect();
                let stats = mapped.matmul_into(&codes, &[1.0], &mut scratch, &mut out);
                let (reference, ref_stats) = mapped.matvec_reference(&codes, 1.0);
                assert_eq!(reference, out);
                assert_eq!(ref_stats, stats);
            }
        }
    }

    #[test]
    fn invalid_input_codes_are_rejected_up_front() {
        let w = polarized_matrix(8, 2, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let codes = vec![256u32; 8]; // exceeds the 8-bit input width
        let result = std::panic::catch_unwind(|| mapped.matvec(&codes, 1.0));
        assert!(result.is_err(), "out-of-range codes must panic");
    }

    #[test]
    fn large_fragment_spanning_multiple_crossbars() {
        // 40 rows at crossbar dim 16 → 3 crossbar rows.
        let w = polarized_matrix(40, 2, 8);
        let cfg = MappingConfig {
            fragment_size: 8,
            ..small_config(8)
        };
        let mapped = MappedLayer::map(&w, cfg).unwrap();
        assert!(mapped.crossbar_count() >= 3);
        let x = Tensor::from_fn(&[40], |i| (i as f32 * 0.07).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let (got, _) = mapped.matvec(q.codes(), q.spec().scale());
        let reference = mapped
            .dequantized_matrix()
            .transpose()
            .matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 1e-3, "analog {g} vs digital {r}");
        }
    }

    #[test]
    fn clean_outputs_stay_under_the_ceiling() {
        let w = polarized_matrix(16, 4, 4);
        let mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let ceiling = CrossbarEngine::output_ceiling(&mapped).unwrap();
        assert!(ceiling > 0.0);
        // Worst-case inputs: every code at full scale.
        let codes = vec![255u32; 16];
        let (out, _) = mapped.matvec(&codes, 1.0);
        for v in out {
            assert!(
                f64::from(v.abs()) <= ceiling * (1.0 + 1e-9),
                "clean output {v} exceeds ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn injected_faults_update_health_and_outputs() {
        let w = polarized_matrix(16, 4, 4);
        let mut mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let pristine = CrossbarEngine::health(&mapped);
        assert_eq!(pristine.faulted_cells, 0);
        assert_eq!(pristine.drifted_cells, 0);
        assert_eq!(pristine.fault_density(), 0.0);

        let campaign = FaultCampaign::stuck_at(7, 0.2, 0.1);
        let report = mapped.inject_faults(&campaign, 99);
        assert!(report.stuck() > 0, "20%+10% over 1024 cells must hit");

        let health = CrossbarEngine::health(&mapped);
        assert_eq!(health.faulted_cells, report.stuck() as u64);
        assert_eq!(health.total_cells, mapped.crossbar_count() as u64 * 16 * 16);
        assert!(health.fault_density() > 0.0);

        // The faulted state must flow through the kernel exactly as
        // through the reference path.
        let codes: Vec<u32> = (0..16).map(|i| (i * 13) as u32 % 251).collect();
        let (got, _) = mapped.matvec(&codes, 0.5);
        let (reference, _) = mapped.matvec_reference(&codes, 0.5);
        assert_eq!(got, reference);
    }

    /// Per-sample oracle: N× the independent `matvec_reference` kernel.
    fn matmul_oracle(
        mapped: &MappedLayer,
        batch_codes: &[u32],
        scales: &[f32],
    ) -> (Vec<f32>, MvmStats) {
        let mut outs = Vec::with_capacity(scales.len() * mapped.grid.output_len());
        let mut stats = MvmStats::default();
        for (codes, &scale) in batch_codes
            .chunks_exact(mapped.grid.input_len())
            .zip(scales)
        {
            let (out, s) = mapped.matvec_reference(codes, scale);
            outs.extend(out);
            stats.merge(s);
        }
        (outs, stats)
    }

    fn batch_codes_for(mapped: &MappedLayer, samples: usize, seed: u64) -> (Vec<u32>, Vec<f32>) {
        let rows = mapped.grid.input_len();
        let codes: Vec<u32> = (0..samples * rows)
            .map(|i| ((i as u64 * 37 + seed * 101) % 251) as u32)
            .collect();
        let scales: Vec<f32> = (0..samples).map(|s| 0.01 + 0.003 * s as f32).collect();
        (codes, scales)
    }

    #[test]
    fn batched_matmul_is_bitwise_identical_to_per_sample_reference() {
        // The batch-kernel invariant, over matrices that exercise pruning,
        // partial tail fragments and multiple crossbar columns, with
        // zero-skipping on and off, and over batch sizes that cover the
        // empty batch, a single sample and a ragged tail past one tile.
        for &(rows, cols, m) in &[(16usize, 4usize, 4usize), (10, 3, 4), (40, 5, 8)] {
            let mut w = polarized_matrix(rows, cols, m);
            for r in m..(2 * m).min(rows) {
                for c in 0..cols {
                    w.data_mut()[r * cols + c] = 0.0;
                }
            }
            for r in 0..rows {
                w.data_mut()[r * cols + 1] = 0.0;
            }
            for zero_skipping in [true, false] {
                let cfg = MappingConfig {
                    fragment_size: m,
                    zero_skipping,
                    ..small_config(m)
                };
                let mapped = MappedLayer::map(&w, cfg).unwrap();
                assert!(mapped.integer_matmul_path(), "pristine map must be fast");
                let mut scratch = SweepScratch::default();
                for samples in [0usize, 1, 5, MATMUL_TILE + 1] {
                    let (codes, scales) = batch_codes_for(&mapped, samples, 7);
                    let mut outs = vec![0.0f32; samples * cols];
                    let stats = mapped.matmul_into(&codes, &scales, &mut scratch, &mut outs);
                    let (want, want_stats) = matmul_oracle(&mapped, &codes, &scales);
                    assert_eq!(outs, want, "samples={samples} skip={zero_skipping}");
                    assert_eq!(stats, want_stats, "samples={samples} skip={zero_skipping}");
                }
            }
        }
    }

    #[test]
    fn batched_matmul_on_drifted_array_falls_back_bitwise() {
        // Knock one cell off the integer grid: the whole layer must fall
        // back to the f64 path and still match the per-sample reference
        // bit-for-bit.
        let w = polarized_matrix(40, 5, 8);
        let cfg = MappingConfig {
            fragment_size: 8,
            ..small_config(8)
        };
        let mut mapped = MappedLayer::map(&w, cfg).unwrap();
        // Warm the integer path first, so a read image that survived the
        // drift would serve the old cells.
        let mut scratch = SweepScratch::default();
        let (codes, scales) = batch_codes_for(&mapped, MATMUL_TILE + 3, 11);
        let mut clean = vec![0.0f32; scales.len() * 5];
        mapped.matmul_into(&codes, &scales, &mut scratch, &mut clean);
        assert!(mapped.integer_matmul_path());
        mapped.crossbars_mut()[0].conductances_mut()[3] += 27.31;
        mapped.crossbars_mut()[0].commit_writes();
        assert!(
            !mapped.integer_matmul_path(),
            "drift must disable fast path"
        );
        let mut outs = vec![0.0f32; scales.len() * 5];
        let stats = mapped.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&mapped, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
        assert_ne!(outs, clean, "the drift must move the outputs");
    }

    #[test]
    fn batched_matmul_survives_post_map_fault_injection() {
        // Stuck-at faults rewrite cells to rail codes (still integral);
        // the fast path must read the *faulted* table, matching the
        // reference kernel on the same mutated layer.
        let w = polarized_matrix(16, 4, 4);
        let mut mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        // Warm the read image first: the campaign must reset it.
        let mut scratch = SweepScratch::default();
        let (codes, scales) = batch_codes_for(&mapped, 9, 3);
        let mut clean = vec![0.0f32; 9 * 4];
        mapped.matmul_into(&codes, &scales, &mut scratch, &mut clean);
        let report = mapped.inject_faults(&FaultCampaign::stuck_at(7, 0.2, 0.1), 99);
        assert!(report.stuck() > 0);
        let mut outs = vec![0.0f32; 9 * 4];
        let stats = mapped.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&mapped, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
        assert_ne!(outs, clean, "the faults must move the outputs");
    }

    /// A fragment-polarized matrix whose fragment signs mix along each
    /// column and whose magnitudes cover the full weight-code range.
    fn mixed_sign_matrix(rows: usize, cols: usize, m: usize) -> Tensor {
        Tensor::from_fn(&[rows, cols], |i| {
            let (r, c) = (i / cols, i % cols);
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let sign = if ((r / m) * 7 + c * 3) % 5 < 2 {
                -1.0
            } else {
                1.0
            };
            let magnitude = if i == 0 { 255 } else { h % 256 };
            sign * magnitude as f32 / 255.0
        })
    }

    /// Full-range 16-bit codes with all-zero and low-magnitude fragments
    /// mixed in, so both the skipped and the high planes are driven.
    fn full_range_codes(rows: usize, samples: usize, m: usize) -> (Vec<u32>, Vec<f32>) {
        let codes: Vec<u32> = (0..samples * rows)
            .map(|i| {
                let (s, r) = (i / rows, i % rows);
                let h = (i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32;
                match (r / m + s) % 5 {
                    0 => 0,
                    1 => (h % 16) as u32,
                    _ if i % 97 == 0 => 0xFFFF,
                    _ => (h % 0x1_0000) as u32,
                }
            })
            .collect();
        let scales: Vec<f32> = (0..samples).map(|s| 0.001 + 0.0007 * s as f32).collect();
        (codes, scales)
    }

    #[test]
    fn batched_matmul_is_bitwise_at_the_benchmark_shape() {
        // The paper's 128×128 / w8 / a16 point: a window spanning three
        // crossbar rows and several crossbar columns, full-range input
        // codes (planes 8–15 shift the codes furthest), and 1-, 2- and
        // 4-bit cells, so the fast path folds 8, 4 and 2 slices per weight.
        let (rows, cols) = (300usize, 70usize);
        let w = mixed_sign_matrix(rows, cols, 8);
        for cell_bits in [1u32, 2, 4] {
            for zero_skipping in [true, false] {
                let cfg = MappingConfig {
                    cell: CellSpec::new(cell_bits, 1.0, 61.0),
                    zero_skipping,
                    ..MappingConfig::paper(8)
                };
                let mapped = MappedLayer::map(&w, cfg).unwrap();
                assert!(mapped.integer_matmul_path(), "pristine map must be fast");
                assert!(mapped.crossbar_count() >= 6, "window must span crossbars");
                let mut scratch = SweepScratch::default();
                for samples in [1usize, 16, MATMUL_TILE + 1] {
                    let (codes, scales) = full_range_codes(rows, samples, 8);
                    let mut outs = vec![0.0f32; samples * cols];
                    let stats = mapped.matmul_into(&codes, &scales, &mut scratch, &mut outs);
                    let (want, want_stats) = matmul_oracle(&mapped, &codes, &scales);
                    let tag = format!("cell={cell_bits} skip={zero_skipping} n={samples}");
                    assert_eq!(outs, want, "{tag}");
                    assert_eq!(stats, want_stats, "{tag}");
                    if zero_skipping {
                        assert!(stats.fragments_skipped > 0, "{tag}: no fragment skipped");
                    }
                }
            }
        }
    }

    #[test]
    fn partial_sum_width_switches_at_the_i32_bound() {
        // Fragment 4 of w8 codes (at most 255): 4 × 255 × (2^21 − 1) fits
        // an i32, 4 × 255 × (2^22 − 1) does not.
        // Every weight at the top code; fragment 1 of the even columns is
        // negative, so no column's fragments cancel.
        let top = Tensor::from_fn(
            &[16, 4],
            |i| {
                if i / 16 == 1 && i % 2 == 0 {
                    -1.0
                } else {
                    1.0
                }
            },
        );
        let mut layers = Vec::new();
        for (input_bits, narrow) in [(21, true), (22, false)] {
            let cfg = MappingConfig {
                input_bits,
                ..small_config(4)
            };
            // Full-scale inputs drive each fragment's partial sums of the
            // top codes to the worst case.
            let top_codes = MappedLayer::map(&top, cfg).unwrap();
            // Stuck-high cells raise codes to the top rail after mapping.
            let mut faulted = MappedLayer::map(&polarized_matrix(16, 4, 4), cfg).unwrap();
            let report = faulted.inject_faults(&FaultCampaign::stuck_at(5, 0.05, 0.3), 17);
            assert!(report.stuck_high > 0);
            for layer in [top_codes, faulted] {
                assert_eq!(layer.grid.i32_sums(), narrow, "a{input_bits}");
                assert!(layer.integer_matmul_path());
                layers.push(layer);
            }
        }
        // One scratch threaded narrow → wide → narrow pins its reuse
        // across partial-sum widths.
        let mut scratch = SweepScratch::default();
        for layer in layers.iter().chain(&layers[..2]) {
            let full_scale = (1u32 << layer.config.input_bits) - 1;
            let mut codes = vec![full_scale; 3 * 16];
            codes[16..24].fill(0);
            let scales = [1.0, 0.5, 0.25];
            let mut outs = vec![0.0f32; 3 * 4];
            let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
            let (want, want_stats) = matmul_oracle(layer, &codes, &scales);
            assert_eq!(outs, want, "a{}", layer.config.input_bits);
            assert_eq!(stats, want_stats, "a{}", layer.config.input_bits);
        }
    }

    #[test]
    fn wide_weights_store_their_top_code() {
        // Above 24 bits the f32 image of 2^wb − 1 rounds up to 2^wb, one
        // past the widest code the slicer takes; the quantizer clamps in
        // integers, so the weight at abs_max stores exactly 2^wb − 1.
        let w = polarized_matrix(16, 4, 4);
        let top = (0..w.len())
            .max_by(|&a, &b| w.data()[a].abs().total_cmp(&w.data()[b].abs()))
            .unwrap();
        let codes: Vec<u32> = (0..16).map(|i| (i * 37 % 256) as u32).collect();
        for weight_bits in [25, 28, 31] {
            let cfg = MappingConfig {
                weight_bits,
                ..small_config(4)
            };
            let mapped = MappedLayer::map(&w, cfg).unwrap();
            assert_eq!(
                mapped.grid.stored_code(top / 4, top % 4),
                (1 << weight_bits) - 1,
                "w{weight_bits}"
            );
            let (got, stats) = mapped.matvec(&codes, 0.01);
            let (want, want_stats) = mapped.matvec_reference(&codes, 0.01);
            assert_eq!(got, want, "w{weight_bits}");
            assert_eq!(stats, want_stats, "w{weight_bits}");
        }
    }

    #[test]
    fn rejects_configs_whose_accumulators_could_overflow() {
        // 4 rows × (2^32 − 1) × (2^31 − 1) ≈ 2^65 overflows i64; the same
        // matrix at 16-bit inputs fits and computes the exact product.
        let w = Tensor::from_vec(vec![1.0; 8], &[4, 2]);
        let wide = MappingConfig {
            weight_bits: 32,
            input_bits: 31,
            ..small_config(4)
        };
        assert!(matches!(
            MappedLayer::map(&w, wide).unwrap_err(),
            ExecError::UnsupportedConfig { .. }
        ));
        let fits = MappingConfig {
            input_bits: 16,
            ..wide
        };
        let mapped = MappedLayer::map(&w, fits).unwrap();
        let (out, _) = mapped.matvec(&[0xFFFF; 4], 1.0);
        assert_eq!(out, vec![4.0 * 65535.0; 2]);
    }

    #[test]
    fn fault_injection_is_replayable_and_salt_sensitive() {
        let w = polarized_matrix(16, 4, 4);
        let campaign = FaultCampaign::stuck_at(11, 0.3, 0.0);
        let mut a = MappedLayer::map(&w, small_config(4)).unwrap();
        let mut b = MappedLayer::map(&w, small_config(4)).unwrap();
        let mut c = MappedLayer::map(&w, small_config(4)).unwrap();
        let ra = a.inject_faults(&campaign, 1);
        let rb = b.inject_faults(&campaign, 1);
        let rc = c.inject_faults(&campaign, 2);
        assert_eq!(ra, rb);
        assert_eq!(a.crossbars(), b.crossbars());
        assert!(
            a.crossbars() != c.crossbars() || ra != rc,
            "different salts must decorrelate"
        );
    }
}
