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
    for_each_set_bit, pack_tile_bit_planes, plane_is_zero, Adc, BitSlicer, CellSpec, Crossbar,
    CurrentNoise, FaultCampaign, FaultReport,
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

    /// Weight columns per physical crossbar.
    pub fn weights_per_crossbar_row(&self) -> usize {
        self.crossbar_dim / self.cells_per_weight()
    }

    /// Fragments stacked per physical crossbar column.
    pub fn fragments_per_crossbar_col(&self) -> usize {
        self.crossbar_dim / self.fragment_size
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

/// Samples per tile of the blocked [`MappedLayer::matmul_into`] kernel.
///
/// Each fragment's weight window is rebuilt once per tile and swept over
/// all of the tile's samples, so the tile size trades window-build
/// amortization against working-set residency. At the paper's full shape
/// (fragment 8, 128 weight columns) the integer fast path holds an 8×128
/// window of signed `i64` weight codes (8 KiB: each weight's four 2-bit
/// cell slices folded back into its code and negated by the fragment's
/// sign indicator), 32 packed plane sets (4 KiB at 16 planes) and 32×128
/// `i64` accumulators (32 KiB) — around 44 KiB, inside L2 — while paying
/// each window build only once per 32 samples.
pub const MATMUL_TILE: usize = 32;

/// Reusable working memory of one [`MappedLayer`] MVM.
///
/// Owned by the caller (one per inference worker) and grown on first use;
/// with a warm scratch [`MappedLayer::matmul_into`] performs no heap
/// allocation. The default value is an empty scratch that fits any layer.
#[derive(Clone, Debug, Default)]
pub struct MvmScratch {
    /// f64 path: raw pre-ADC column currents of one sample, plane-major:
    /// plane `cycle` covers `cycle * cell_cols ..` over all mapped cell
    /// columns.
    currents: Vec<f64>,
    /// f64 path: per-slice shift-&-add accumulators of the current weight
    /// column.
    slice_acc: Vec<u64>,
    /// Signed digital accumulators, one per (tile sample, compact weight
    /// column).
    accs: Vec<i64>,
    /// f64 path: dequantized cell values of the current fragment window,
    /// row-major over all mapped cell columns — the division by the
    /// conductance step is paid once per cell instead of once per cell per
    /// input cycle.
    cell_vals: Vec<f64>,
    /// Gathered fragment codes of one tile of samples, sample-major.
    tile_codes: Vec<u32>,
    /// Effective input cycles per sample of the tile.
    tile_eic: Vec<u32>,
    /// Packed bit planes of the whole tile (see [`pack_tile_bit_planes`]).
    tile_planes: Vec<u64>,
    /// Integer fast path: integer cell codes of one window row (see
    /// [`Crossbar::integral_dequant_codes`]).
    icell: Vec<u16>,
    /// Integer fast path: signed weight codes of the fragment window,
    /// row-major over the compact weight columns.
    wcodes: Vec<i64>,
}

/// Adds one active window row of signed weight codes, weighted by its
/// bit plane `2^cycle`, into one sample's digital accumulators.
#[inline]
fn add_row_shifted(accs: &mut [i64], wcodes: &[i64], cycle: usize) {
    for (acc, &w) in accs.iter_mut().zip(wcodes) {
        *acc += w << cycle;
    }
}

/// Accumulates one active window row into the f64 column currents.
#[inline]
fn add_row_f64(currents: &mut [f64], vals: &[f64]) {
    for (acc, &v) in currents.iter_mut().zip(vals) {
        *acc += v;
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
    /// Map compact row index → original row index.
    row_index: Vec<usize>,
    /// Map compact column index → original column index.
    col_index: Vec<usize>,
    /// Original matrix dimensions.
    orig_rows: usize,
    orig_cols: usize,
    /// Weight quantization step (value of magnitude code 1).
    step: f32,
    /// Sign per (compact column, fragment): `true` = positive.
    signs: Vec<bool>,
    fragments_per_col: usize,
    /// Physical crossbar grid, row-major `[xb_rows × xb_cols]`.
    crossbars: Vec<Crossbar>,
    xb_cols: usize,
    adc: Adc,
    slicer: BitSlicer,
    /// Pristine nominal output ceiling: `max_col Σ|code| × max_input ×
    /// step` — what no clean MVM output can exceed (per unit input scale).
    ceiling: f64,
    /// Cumulative stuck cells injected through [`inject_faults`](FaultableEngine::inject_faults).
    faulted_cells: u64,
    /// Cumulative drifted cells injected likewise.
    drifted_cells: u64,
}

impl MappedLayer {
    /// Maps a polarized weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotPolarized`] if any fragment mixes signs,
    /// [`ExecError::AllZero`] for an all-zero matrix,
    /// [`ExecError::NotMatrix`] when `matrix` is not rank-2 and
    /// [`ExecError::UnsupportedConfig`] when the fragment size does not
    /// divide the crossbar dimension, the weight width is outside `1..=32`,
    /// the input width is outside `1..=31`, or a column's worst-case
    /// accumulation would overflow the `i64` digital accumulators.
    pub fn map(matrix: &Tensor, config: MappingConfig) -> Result<Self, ExecError> {
        if matrix.shape().rank() != 2 {
            return Err(ExecError::NotMatrix {
                rank: matrix.shape().rank(),
            });
        }
        if config.fragment_size == 0 || !config.crossbar_dim.is_multiple_of(config.fragment_size) {
            return Err(ExecError::UnsupportedConfig {
                reason: "fragment size must divide the crossbar dimension",
            });
        }
        if !(1..=32).contains(&config.weight_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "weight bits must be in 1..=32",
            });
        }
        if !(1..=31).contains(&config.input_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "input bits must be in 1..=31",
            });
        }
        let (rows, cols) = (matrix.dims()[0], matrix.dims()[1]);
        let m = config.fragment_size;

        // Structural compaction: drop all-zero rows and columns.
        let nz = |r: usize, c: usize| matrix.data()[r * cols + c] != 0.0;
        let row_index: Vec<usize> = (0..rows).filter(|&r| (0..cols).any(|c| nz(r, c))).collect();
        let col_index: Vec<usize> = (0..cols).filter(|&c| (0..rows).any(|r| nz(r, c))).collect();
        if row_index.is_empty() || col_index.is_empty() {
            return Err(ExecError::AllZero);
        }

        let compact_rows = row_index.len();
        let compact_cols = col_index.len();
        let fragments_per_col = compact_rows.div_ceil(m);
        // Worst case of one column's signed accumulator: every compact row
        // holds the largest code its cells can store (a stuck-at fault may
        // exceed the quantizer's) and every input is at full scale.
        let slicer = BitSlicer::new(config.weight_bits, config.cell.bits());
        let max_stored_code =
            (1u128 << (config.cells_per_weight() as u32 * config.cell.bits())) - 1;
        let max_input_code = (1u128 << config.input_bits) - 1;
        if compact_rows as u128 * max_stored_code * max_input_code > i64::MAX as u128 {
            return Err(ExecError::UnsupportedConfig {
                reason: "worst-case column accumulation overflows the i64 accumulators",
            });
        }

        // Polarization check + sign extraction on the compact matrix.
        let mut signs = Vec::with_capacity(compact_cols * fragments_per_col);
        let mut violations = 0usize;
        for &c in &col_index {
            for frag in 0..fragments_per_col {
                let lo = frag * m;
                let hi = (lo + m).min(compact_rows);
                let vals: Vec<f32> = (lo..hi)
                    .map(|i| matrix.data()[row_index[i] * cols + c])
                    .collect();
                let sum: f32 = vals.iter().sum();
                let positive = sum >= 0.0;
                violations += vals
                    .iter()
                    .filter(|&&v| if positive { v < 0.0 } else { v > 0.0 })
                    .count();
                signs.push(positive);
            }
        }
        if violations > 0 {
            return Err(ExecError::NotPolarized { violations });
        }

        // Magnitude quantization.
        let abs_max = matrix.abs_max();
        let max_code = ((1u64 << config.weight_bits) - 1) as f32;
        let step = if abs_max > 0.0 {
            abs_max / max_code
        } else {
            1.0
        };
        let cpw = config.cells_per_weight();

        // Physical crossbar grid.
        let dim = config.crossbar_dim;
        let padded_rows = fragments_per_col * m;
        let xb_rows = padded_rows.div_ceil(dim);
        let xb_cols = (compact_cols * cpw).div_ceil(dim);
        let mut crossbars = vec![Crossbar::new(dim, dim, config.cell); xb_rows * xb_cols];

        let mut col_code_sums = vec![0u64; compact_cols];
        for (ci, &c) in col_index.iter().enumerate() {
            for (ri, &r) in row_index.iter().enumerate() {
                let w = matrix.data()[r * cols + c];
                if w == 0.0 {
                    continue;
                }
                let code = ((w.abs() / step).round() as u32).min(max_code as u32);
                col_code_sums[ci] += u64::from(code);
                let slices = slicer.slice(code);
                let (xr, row_in_xb) = (ri / dim, ri % dim);
                for (k, &s) in slices.iter().enumerate() {
                    let cell_col = ci * cpw + k;
                    let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                    crossbars[xr * xb_cols + xc].program_cell(row_in_xb, col_in_xb, s);
                }
            }
        }

        // Pristine output ceiling: every fragment of a column contributes
        // with one sign, so |Σ ±frag| ≤ Σ|code|, and inputs are at most the
        // full-scale code. A clean MVM can never exceed this bound; a
        // stuck-high or sign-corrupted array can.
        let max_input = ((1u64 << config.input_bits) - 1) as f64;
        let ceiling = col_code_sums
            .iter()
            .map(|&s| s as f64 * max_input * f64::from(step))
            .fold(0.0f64, f64::max);

        let adc = Adc::for_fragment(m, &config.cell);
        Ok(Self {
            config,
            row_index,
            col_index,
            orig_rows: rows,
            orig_cols: cols,
            step,
            signs,
            fragments_per_col,
            crossbars,
            xb_cols,
            adc,
            slicer,
            ceiling,
            faulted_cells: 0,
            drifted_cells: 0,
        })
    }

    /// The mapping configuration.
    pub fn config(&self) -> &MappingConfig {
        &self.config
    }

    /// The weight quantization step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Number of physical crossbars used.
    pub fn crossbar_count(&self) -> usize {
        self.crossbars.len()
    }

    /// Number of fragments per weight column.
    pub fn fragments_per_col(&self) -> usize {
        self.fragments_per_col
    }

    /// Number of sign-indicator bits (one per fragment per column).
    pub fn sign_bits(&self) -> usize {
        self.signs.len()
    }

    /// Mutable access to the physical crossbars, for variation and fault
    /// injection.
    pub fn crossbars_mut(&mut self) -> &mut [Crossbar] {
        &mut self.crossbars
    }

    /// Read access to the physical crossbars.
    pub fn crossbars(&self) -> &[Crossbar] {
        &self.crossbars
    }

    /// Reconstructs the (quantized) weight matrix this mapping represents,
    /// in original `[rows, cols]` indexing — the digital reference for the
    /// analog path.
    pub fn dequantized_matrix(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.orig_rows, self.orig_cols]);
        let cpw = self.config.cells_per_weight();
        let dim = self.config.crossbar_dim;
        for (ci, &c) in self.col_index.iter().enumerate() {
            for (ri, &r) in self.row_index.iter().enumerate() {
                let (xr, row_in_xb) = (ri / dim, ri % dim);
                let mut slices = Vec::with_capacity(cpw);
                for k in 0..cpw {
                    let cell_col = ci * cpw + k;
                    let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                    slices.push(
                        self.crossbars[xr * self.xb_cols + xc].read_cell(row_in_xb, col_in_xb)
                            as u64,
                    );
                }
                let code = self.slicer.recombine(&slices);
                let frag = ri / self.config.fragment_size;
                let sign = if self.signs[ci * self.fragments_per_col + frag] {
                    1.0
                } else {
                    -1.0
                };
                out.data_mut()[r * self.orig_cols + c] = sign * code as f32 * self.step;
            }
        }
        out
    }

    /// Executes the mixed-signal matrix-vector product on quantized input
    /// codes (length = original rows; codes of pruned rows are ignored):
    /// a one-column [`matmul_into`](Self::matmul_into) on a fresh
    /// [`MvmScratch`].
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
        let mut out = vec![0.0f32; self.orig_cols];
        let stats = self.matmul_into(
            input_codes,
            &[input_scale],
            &mut MvmScratch::default(),
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

    /// Whether the batched kernel may run its integer fast path: every
    /// mapped cell dequantizes to an exact integer code (no conductance
    /// drift) *and* the ADC is lossless over the fragment's current range
    /// (full scale on the top code, range covering `fragment_size ×
    /// max_cell_code`). Under those conditions ADC conversion is the
    /// identity on every current the array can produce, so integer
    /// accumulation is bitwise identical to the f64 path.
    pub fn integer_matmul_path(&self) -> bool {
        let max_window = self.config.fragment_size as u64 * u64::from(self.config.cell.max_code());
        self.adc.full_scale() == f64::from(self.adc.levels() - 1)
            && max_window as f64 <= self.adc.full_scale()
            && self
                .crossbars
                .iter()
                .all(|x| x.integral_dequant_codes().is_some())
    }

    /// The blocked weight-stationary batch kernel: executes
    /// `scales.len()` matrix-vector products in one sweep, bitwise
    /// identical to calling [`matvec_reference`](Self::matvec_reference)
    /// once per sample (outputs *and* merged stats).
    ///
    /// `batch_codes` holds the samples' input codes sample-major
    /// (`scales.len() × original rows`); `outs` receives the concatenated
    /// outputs (`scales.len() × original columns`, overwritten).
    ///
    /// Samples are processed in tiles of [`MATMUL_TILE`]; per fragment the
    /// weight window is materialized once per tile and swept over every
    /// sample. Pristine arrays additionally take an integer fast path (see
    /// [`integer_matmul_path`](Self::integer_matmul_path)) that folds each
    /// weight's cell slices and its fragment's sign into one signed code,
    /// adds `±code << plane` per set input bit straight into the output
    /// accumulators and skips planes whose packed input bits are all
    /// zero; drifted arrays fall back to an f64 path that preserves the
    /// reference kernel's ascending-row summation order, keeping results
    /// bitwise identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths are inconsistent with `scales.len()`
    /// or any input code exceeds `input_bits`.
    pub fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut MvmScratch,
        outs: &mut [f32],
    ) -> MvmStats {
        let mut stats = MvmStats::default();
        if scales.is_empty() {
            assert!(batch_codes.is_empty(), "codes without scales");
            assert!(outs.is_empty(), "outputs without scales");
            return stats;
        }
        let nsamples = scales.len();
        assert_eq!(
            batch_codes.len(),
            nsamples * self.orig_rows,
            "need one whole input vector per batched sample"
        );
        assert_eq!(
            outs.len(),
            nsamples * self.orig_cols,
            "need one whole output vector per batched sample"
        );
        for sample in batch_codes.chunks_exact(self.orig_rows) {
            self.validate_input_codes(sample);
        }
        let m = self.config.fragment_size;
        let dim = self.config.crossbar_dim;
        let cpw = self.config.cells_per_weight();
        let cell_bits = self.config.cell.bits();
        let ncols = self.col_index.len();
        let cell_cols = ncols * cpw;
        let fast = self.integer_matmul_path();
        outs.fill(0.0);

        for tile_lo in (0..nsamples).step_by(MATMUL_TILE) {
            let tile = tile_lo..(tile_lo + MATMUL_TILE).min(nsamples);
            let t = tile.len();
            scratch.accs.clear();
            scratch.accs.resize(t * ncols, 0);

            for frag in 0..self.fragments_per_col {
                let lo = frag * m;
                let hi = ((frag + 1) * m).min(self.row_index.len());
                let frag_rows = hi - lo;

                // Gather the tile's fragment codes (sample-major) and each
                // sample's effective input cycles, accounting stats exactly
                // as the reference kernel does.
                scratch.tile_codes.clear();
                scratch.tile_eic.clear();
                let mut max_planes = 0u32;
                for s in tile.clone() {
                    let codes = &batch_codes[s * self.orig_rows..(s + 1) * self.orig_rows];
                    let start = scratch.tile_codes.len();
                    scratch
                        .tile_codes
                        .extend((lo..hi).map(|i| codes[self.row_index[i]]));
                    let n_planes = if self.config.zero_skipping {
                        fragment_eic(&scratch.tile_codes[start..])
                    } else {
                        self.config.input_bits
                    };
                    scratch.tile_eic.push(n_planes);
                    max_planes = max_planes.max(n_planes);
                    stats.fragments_total += 1;
                    stats.cycles_without_skip += u64::from(self.config.input_bits);
                    stats.cycles += u64::from(n_planes);
                    if n_planes == 0 {
                        stats.fragments_skipped += 1;
                    }
                }
                if max_planes == 0 {
                    continue;
                }
                let words = pack_tile_bit_planes(
                    &scratch.tile_codes,
                    t,
                    max_planes,
                    &mut scratch.tile_planes,
                );
                let stride = max_planes as usize * words;
                let (xr, row_lo) = (lo / dim, lo % dim);

                if fast {
                    let MvmScratch {
                        tile_eic,
                        tile_planes,
                        icell,
                        wcodes,
                        accs,
                        ..
                    } = scratch;
                    // Signed weight-code window, once per (fragment,
                    // tile). Lossless conversion is the identity and
                    // shift-&-add is linear, so each weight's cell slices
                    // fold back into its code and the sign indicator into
                    // its sign: every set input bit then adds `±code <<
                    // cycle` straight into the sample's accumulators.
                    wcodes.clear();
                    wcodes.resize(frag_rows * ncols, 0);
                    icell.resize(cell_cols, 0);
                    for r in 0..frag_rows {
                        for xc in 0..self.xb_cols {
                            let col_lo = xc * dim;
                            if col_lo >= cell_cols {
                                break;
                            }
                            let col_hi = (col_lo + dim).min(cell_cols);
                            self.crossbars[xr * self.xb_cols + xc]
                                .integral_row_into(row_lo + r, &mut icell[col_lo..col_hi]);
                        }
                        let row = &mut wcodes[r * ncols..(r + 1) * ncols];
                        for ((ci, w), slices) in
                            row.iter_mut().enumerate().zip(icell.chunks_exact(cpw))
                        {
                            let code = slices
                                .iter()
                                .fold(0i64, |code, &s| (code << cell_bits) + i64::from(s));
                            let positive = self.signs[ci * self.fragments_per_col + frag];
                            *w = if positive { code } else { -code };
                        }
                    }
                    for (si, &eic) in tile_eic.iter().enumerate() {
                        if eic == 0 {
                            continue;
                        }
                        let sample_accs = &mut accs[si * ncols..][..ncols];
                        let planes = &tile_planes[si * stride..][..eic as usize * words];
                        for (cycle, plane) in planes.chunks_exact(words).enumerate() {
                            if plane_is_zero(plane) {
                                continue;
                            }
                            for_each_set_bit(plane, |i| {
                                if i < frag_rows {
                                    add_row_shifted(
                                        sample_accs,
                                        &wcodes[i * ncols..(i + 1) * ncols],
                                        cycle,
                                    );
                                }
                            });
                        }
                        // Lossless conversion is the identity, so the
                        // conversions are counted arithmetically: every
                        // column converts every slice each shift cycle.
                        stats.adc_conversions += u64::from(eic) * (cell_cols as u64);
                    }
                } else {
                    let MvmScratch {
                        tile_eic,
                        tile_planes,
                        cell_vals,
                        currents,
                        slice_acc,
                        accs,
                        ..
                    } = scratch;
                    // f64 window, once per (fragment, tile).
                    cell_vals.clear();
                    cell_vals.resize(frag_rows * cell_cols, 0.0);
                    for r in 0..frag_rows {
                        let row = &mut cell_vals[r * cell_cols..(r + 1) * cell_cols];
                        for xc in 0..self.xb_cols {
                            let col_lo = xc * dim;
                            if col_lo >= cell_cols {
                                break;
                            }
                            let col_hi = (col_lo + dim).min(cell_cols);
                            self.crossbars[xr * self.xb_cols + xc]
                                .dequant_row_into(row_lo + r, &mut row[col_lo..col_hi]);
                        }
                    }
                    for (si, &eic) in tile_eic.iter().enumerate() {
                        if eic == 0 {
                            continue;
                        }
                        let n_planes = eic as usize;
                        // Currents accumulate active rows in ascending
                        // order, matching the reference summation order
                        // bitwise.
                        currents.clear();
                        currents.resize(n_planes * cell_cols, 0.0);
                        let planes = &tile_planes[si * stride..][..n_planes * words];
                        for (cycle, plane) in planes.chunks_exact(words).enumerate() {
                            let row = &mut currents[cycle * cell_cols..(cycle + 1) * cell_cols];
                            for_each_set_bit(plane, |i| {
                                if i < frag_rows {
                                    add_row_f64(
                                        row,
                                        &cell_vals[i * cell_cols..(i + 1) * cell_cols],
                                    );
                                }
                            });
                        }
                        let sample_accs = &mut accs[si * ncols..][..ncols];
                        for (ci, acc) in sample_accs.iter_mut().enumerate() {
                            slice_acc.clear();
                            slice_acc.resize(cpw, 0);
                            for cycle in 0..n_planes {
                                let cur = &currents[cycle * cell_cols..];
                                for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                                    let code =
                                        self.adc.convert(cur[ci * cpw + k], &self.config.cell);
                                    stats.adc_conversions += 1;
                                    *acc_k += u64::from(code) << cycle;
                                }
                            }
                            let mut frag_total = 0u64;
                            for &s in slice_acc.iter() {
                                frag_total = (frag_total << cell_bits) + s;
                            }
                            let positive = self.signs[ci * self.fragments_per_col + frag];
                            *acc += if positive {
                                frag_total as i64
                            } else {
                                -(frag_total as i64)
                            };
                        }
                    }
                }
            }

            for (si, s) in tile.enumerate() {
                let out = &mut outs[s * self.orig_cols..][..self.orig_cols];
                for (ci, &c) in self.col_index.iter().enumerate() {
                    out[c] = scratch.accs[si * ncols + ci] as f32 * self.step * scales[s];
                }
            }
        }
        stats
    }

    /// Validates the whole input vector in one pass (length + range), so
    /// the per-fragment gather loops stay assert-free.
    fn validate_input_codes(&self, input_codes: &[u32]) {
        assert_eq!(
            input_codes.len(),
            self.orig_rows,
            "need one input code per original row"
        );
        let limit = 1u64 << self.config.input_bits;
        assert!(
            self.row_index
                .iter()
                .all(|&r| u64::from(input_codes[r]) < limit),
            "input code exceeds {} bits",
            self.config.input_bits
        );
    }

    fn matvec_impl(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        mut perturb: impl FnMut(f64) -> f64,
    ) -> (Vec<f32>, MvmStats) {
        self.validate_input_codes(input_codes);
        let m = self.config.fragment_size;
        let dim = self.config.crossbar_dim;
        let cpw = self.config.cells_per_weight();
        let cell_bits = self.config.cell.bits();
        let mut stats = MvmStats::default();
        let mut out = vec![0.0f32; self.orig_cols];
        let mut accs = vec![0i64; self.col_index.len()];

        // Fragment-major order mirrors the hardware: one shift-register
        // bank feeds every column of the sub-array simultaneously, so input
        // cycles are paid once per fragment, not once per column.
        for frag in 0..self.fragments_per_col {
            let lo = frag * m;
            let hi = ((frag + 1) * m).min(self.row_index.len());
            let codes: Vec<u32> = (lo..hi).map(|i| input_codes[self.row_index[i]]).collect();
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
            let (xr, row_lo) = (lo / dim, lo % dim);
            let window = row_lo..row_lo + codes.len();

            for (ci, acc) in accs.iter_mut().enumerate() {
                // Per-slice accumulation over bit planes, then shift-&-add
                // across slices (MSB slice first).
                let mut slice_acc = vec![0u64; cpw];
                for (cycle, drive) in drives.iter().enumerate() {
                    for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                        let cell_col = ci * cpw + k;
                        let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                        let current =
                            perturb(self.crossbars[xr * self.xb_cols + xc].column_current(
                                col_in_xb,
                                drive,
                                window.clone(),
                            ));
                        let code = self.adc.convert(current, &self.config.cell);
                        stats.adc_conversions += 1;
                        *acc_k += u64::from(code) << cycle;
                    }
                }
                let mut frag_total = 0u64;
                for &s in &slice_acc {
                    frag_total = (frag_total << cell_bits) + s;
                }
                // The sign indicator steers the accumulator add/subtract.
                let positive = self.signs[ci * self.fragments_per_col + frag];
                *acc += if positive {
                    frag_total as i64
                } else {
                    -(frag_total as i64)
                };
            }
        }
        for (ci, &c) in self.col_index.iter().enumerate() {
            out[c] = accs[ci] as f32 * self.step * input_scale;
        }
        (out, stats)
    }
}

impl CrossbarEngine for MappedLayer {
    type Config = MappingConfig;
    type Stats = MvmStats;
    type Scratch = MvmScratch;

    fn map_matrix(matrix: &Tensor, config: &MappingConfig) -> Result<Self, ExecError> {
        MappedLayer::map(matrix, *config)
    }

    fn output_len(&self) -> usize {
        self.orig_cols
    }

    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut MvmScratch,
        outs: &mut [f32],
    ) -> MvmStats {
        MappedLayer::matmul_into(self, batch_codes, scales, scratch, outs)
    }

    fn crossbar_count(&self) -> usize {
        MappedLayer::crossbar_count(self)
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
        let dim = self.config.crossbar_dim as u64;
        EngineHealth {
            faulted_cells: self.faulted_cells,
            drifted_cells: self.drifted_cells,
            total_cells: self.crossbars.len() as u64 * dim * dim,
        }
    }

    fn output_ceiling(&self) -> Option<f64> {
        Some(self.ceiling)
    }
}

impl FaultableEngine for MappedLayer {
    fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        let mut total = FaultReport::default();
        for (i, xbar) in self.crossbars.iter_mut().enumerate() {
            // Decorrelate crossbars within the layer; the caller's salt
            // already decorrelates layers and replicas.
            let xb_salt = salt ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            total.merge(&campaign.apply(xbar, xb_salt));
        }
        self.faulted_cells += total.stuck() as u64;
        self.drifted_cells += total.drifted as u64;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(mapped.fragments_per_col(), 4);
        assert_eq!(mapped.sign_bits(), 16);
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
        let mut scratch = MvmScratch::default();
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
        let mut outs = Vec::with_capacity(scales.len() * mapped.orig_cols);
        let mut stats = MvmStats::default();
        for (codes, &scale) in batch_codes.chunks_exact(mapped.orig_rows).zip(scales) {
            let (out, s) = mapped.matvec_reference(codes, scale);
            outs.extend(out);
            stats.merge(s);
        }
        (outs, stats)
    }

    fn batch_codes_for(mapped: &MappedLayer, samples: usize, seed: u64) -> (Vec<u32>, Vec<f32>) {
        let rows = mapped.orig_rows;
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
                let mut scratch = MvmScratch::default();
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
        mapped.crossbars_mut()[0].conductances_mut()[3] += 7.31;
        mapped.crossbars_mut()[0].commit_writes();
        assert!(
            !mapped.integer_matmul_path(),
            "drift must disable fast path"
        );
        let mut scratch = MvmScratch::default();
        let (codes, scales) = batch_codes_for(&mapped, MATMUL_TILE + 3, 11);
        let mut outs = vec![0.0f32; scales.len() * 5];
        let stats = mapped.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&mapped, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn batched_matmul_survives_post_map_fault_injection() {
        // Stuck-at faults rewrite cells to rail codes (still integral);
        // the fast path must read the *faulted* table, matching the
        // reference kernel on the same mutated layer.
        let w = polarized_matrix(16, 4, 4);
        let mut mapped = MappedLayer::map(&w, small_config(4)).unwrap();
        let report = mapped.inject_faults(&FaultCampaign::stuck_at(7, 0.2, 0.1), 99);
        assert!(report.stuck() > 0);
        let mut scratch = MvmScratch::default();
        let (codes, scales) = batch_codes_for(&mapped, 9, 3);
        let mut outs = vec![0.0f32; 9 * 4];
        let stats = mapped.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&mapped, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
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
                let mut scratch = MvmScratch::default();
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
