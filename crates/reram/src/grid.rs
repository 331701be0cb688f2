//! One compacted, bit-sliced weight matrix on a grid of crossbars.
//!
//! FORMS and ISAAC store a weight matrix the same way (paper §IV-A): the
//! all-zero rows and columns are dropped, each remaining weight is
//! quantized to a signed level, turned into a non-negative stored code,
//! sliced over adjacent multi-bit cells (most significant slice first) and
//! programmed onto a row-major grid of `dim × dim` crossbars. The designs
//! differ only in that encoding: FORMS stores the level's magnitude and
//! keeps the sign in the 1R indicator of its fragment, ISAAC stores the
//! level plus a bias of `2^(b−1)`. [`CrossbarGrid`] is everything else —
//! compaction, the accumulator bounds, programming, read-back, the output
//! ceiling and the fault counters — and the layout that
//! [`matmul_sweep`](crate::matmul_sweep) reads.
//! Like the conductances, the sweep's read image of the grid is weight
//! stationary: built on first use and kept until a `&mut` path resets it.

use std::sync::OnceLock;

use forms_tensor::Tensor;

use crate::window::{partial_sums_fit_i32, PartialSum};
use crate::{Adc, BitSlicer, CellSpec, Crossbar, ExecError, FaultCampaign, FaultReport};

/// Aggregate device-health counters an engine reports about its mapped
/// crossbars: how many cells are known-faulted or drifted out of how many
/// total. The serving layer's quarantine policy thresholds on
/// [`fault_density`](Self::fault_density).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineHealth {
    /// Cells known stuck at a conductance rail.
    pub faulted_cells: u64,
    /// Cells whose conductance drifted off its programmed value.
    pub drifted_cells: u64,
    /// Total mapped cells (0 when the engine does not track health).
    pub total_cells: u64,
}

impl EngineHealth {
    /// Fraction of mapped cells known stuck (0 when untracked).
    pub fn fault_density(&self) -> f64 {
        if self.total_cells == 0 {
            0.0
        } else {
            self.faulted_cells as f64 / self.total_cells as f64
        }
    }

    /// Folds another engine's counters into this one.
    pub fn merge(&mut self, other: &EngineHealth) {
        self.faulted_cells += other.faulted_cells;
        self.drifted_cells += other.drifted_cells;
        self.total_cells += other.total_cells;
    }
}

/// The physical parameters a [`CrossbarGrid`] is built with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridShape {
    /// Rows (and columns) of one crossbar.
    pub crossbar_dim: usize,
    /// Compact weight rows one input plane drives together: a FORMS
    /// fragment, or a whole ISAAC crossbar. Sizes the column ADC and the
    /// partial-sum width.
    pub subarray_rows: usize,
    /// The ReRAM cell.
    pub cell: CellSpec,
    /// Bits of one stored code.
    pub weight_bits: u32,
    /// Input (activation) code bits.
    pub input_bits: u32,
}

/// A weight matrix programmed onto a row-major grid of crossbars.
///
/// Compact row `ri` sits on crossbar row `ri / dim`; the `cpw` cells of
/// compact column `ci` are cell columns `ci × cpw ..` of the grid, so a
/// weight may straddle two crossbars of one grid row.
#[derive(Clone, Debug)]
pub struct CrossbarGrid {
    /// Compact row → original row (all-zero weight rows are dropped).
    pub(crate) row_index: Vec<usize>,
    /// Compact weight column → original column.
    pub(crate) col_index: Vec<usize>,
    /// Original input length (weight rows).
    pub(crate) orig_rows: usize,
    /// Original output length (weight columns).
    pub(crate) orig_cols: usize,
    /// The physical crossbars, row-major, `xb_cols` arrays per grid row.
    pub(crate) crossbars: Vec<Crossbar>,
    /// Crossbars per grid row.
    pub(crate) xb_cols: usize,
    /// Rows (and columns) of one crossbar.
    pub(crate) crossbar_dim: usize,
    /// The bit slicer the stored codes were sliced with.
    pub(crate) slicer: BitSlicer,
    /// The column ADC of one sub-array.
    pub(crate) adc: Adc,
    /// Input code width.
    pub(crate) input_bits: u32,
    /// Weight quantization step (value of weight level 1).
    pub(crate) step: f32,
    /// Whether one sub-array's worst-case partial sum fits an `i32` (see
    /// [`partial_sums_fit_i32`]).
    pub(crate) i32_sums: bool,
    /// Whether the ADC's range covers a sub-array's largest integral
    /// current, `subarray_rows × max_cell_code` (its full scale sits on
    /// the top code, so conversion is then the identity).
    lossless_adc: bool,
    /// The sweep's read image, built on first use.
    read_image: OnceLock<ReadImage>,
    /// Pristine nominal output ceiling: `max_col Σ|level| × max_input ×
    /// step` — what no clean MVM output can exceed (per unit input scale).
    ceiling: f64,
    /// Cumulative stuck cells injected through [`inject_faults`](Self::inject_faults).
    faulted_cells: u64,
    /// Cumulative drifted cells injected likewise.
    drifted_cells: u64,
}

/// What [`matmul_sweep`](crate::matmul_sweep) reads of a grid.
#[derive(Clone, Debug)]
pub(crate) enum ReadImage {
    /// Integer path, `i32` partial sums: every weight's folded code,
    /// `rows × cols` row-major over the compact matrix.
    Narrow(Vec<i32>),
    /// Integer path, `i64` partial sums: the same matrix.
    Wide(Vec<i64>),
    /// f64 path: a drifted cell or a lossy ADC.
    Analog,
}

/// The `(rows, cols)` of a rank-2 matrix.
fn matrix_dims(matrix: &Tensor) -> Result<(usize, usize), ExecError> {
    match matrix.dims() {
        &[rows, cols] => Ok((rows, cols)),
        dims => Err(ExecError::NotMatrix { rank: dims.len() }),
    }
}

impl CrossbarGrid {
    /// The structural compaction: the rows and the columns of `matrix`
    /// that hold a nonzero weight, in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotMatrix`] when `matrix` is not rank-2.
    pub fn compact(matrix: &Tensor) -> Result<(Vec<usize>, Vec<usize>), ExecError> {
        let (rows, cols) = matrix_dims(matrix)?;
        let nz = |r: usize, c: usize| matrix.data()[r * cols + c] != 0.0;
        let row_index = (0..rows).filter(|&r| (0..cols).any(|c| nz(r, c))).collect();
        let col_index = (0..cols).filter(|&c| (0..rows).any(|r| nz(r, c))).collect();
        Ok((row_index, col_index))
    }

    /// Quantizes the weights of `matrix` at rows `row_index` × columns
    /// `col_index` and programs their stored codes onto a fresh grid.
    ///
    /// A stored code spans `weight_bits`, of which `bias` is the design's
    /// offset: each weight quantizes to a signed level `k` in `±levels`,
    /// `levels = 2^weight_bits − 1 − bias`, at step `abs_max / levels`, and
    /// `encode(k)` returns its stored code in `0..2^weight_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotMatrix`] when `matrix` is not rank-2,
    /// [`ExecError::AllZero`] when an index list is empty, and
    /// [`ExecError::UnsupportedConfig`] when the sub-array height does not
    /// divide the crossbar dimension, the weight width is outside `1..=32`,
    /// the input width is outside `1..=31`, or a column's worst-case
    /// accumulation (every cell at its top code, plus `bias`, times a
    /// full-scale input on every row) would overflow the `i64` digital
    /// accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `bias` leaves no level (`bias ≥ 2^weight_bits − 1`) or
    /// `encode` returns a code wider than `weight_bits`.
    pub fn new(
        matrix: &Tensor,
        row_index: Vec<usize>,
        col_index: Vec<usize>,
        shape: GridShape,
        bias: u64,
        encode: impl Fn(i64) -> u32,
    ) -> Result<Self, ExecError> {
        let (orig_rows, orig_cols) = matrix_dims(matrix)?;
        let dim = shape.crossbar_dim;
        if shape.subarray_rows == 0 || !dim.is_multiple_of(shape.subarray_rows) {
            return Err(ExecError::UnsupportedConfig {
                reason: "sub-array rows must divide the crossbar dimension",
            });
        }
        if !(1..=32).contains(&shape.weight_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "weight bits must be in 1..=32",
            });
        }
        if !(1..=31).contains(&shape.input_bits) {
            return Err(ExecError::UnsupportedConfig {
                reason: "input bits must be in 1..=31",
            });
        }
        if row_index.is_empty() || col_index.is_empty() {
            return Err(ExecError::AllZero);
        }
        let slicer = BitSlicer::new(shape.weight_bits, shape.cell.bits());
        let cpw = slicer.cells_per_weight();
        // Worst case of one column's signed accumulator: every row holds
        // the largest code its cells can store (a stuck-at fault may exceed
        // the encoder's) plus the bias, and every input is at full scale.
        let max_cell_code = (1u128 << (cpw as u32 * shape.cell.bits())) - 1;
        let max_input_code = (1u128 << shape.input_bits) - 1;
        let worst = row_index.len() as u128 * (max_cell_code + u128::from(bias)) * max_input_code;
        if worst > i64::MAX as u128 {
            return Err(ExecError::UnsupportedConfig {
                reason: "worst-case column accumulation overflows the i64 accumulators",
            });
        }

        let max_code = slicer.max_magnitude();
        assert!(bias < max_code, "the bias leaves no weight level");
        let levels = (max_code - bias) as i64;
        let abs_max = matrix.abs_max();
        let step = if abs_max > 0.0 {
            abs_max / levels as f32
        } else {
            1.0
        };
        let xb_rows = row_index.len().div_ceil(dim);
        let xb_cols = (col_index.len() * cpw).div_ceil(dim);
        let adc = Adc::for_fragment(shape.subarray_rows, &shape.cell);
        let max_current = shape.subarray_rows as u64 * u64::from(shape.cell.max_code());
        let mut grid = Self {
            orig_rows,
            orig_cols,
            crossbars: vec![Crossbar::new(dim, dim, shape.cell); xb_rows * xb_cols],
            xb_cols,
            crossbar_dim: dim,
            slicer,
            lossless_adc: max_current as f64 <= adc.full_scale(),
            adc,
            input_bits: shape.input_bits,
            step,
            i32_sums: partial_sums_fit_i32(shape.subarray_rows, max_cell_code, max_input_code),
            read_image: OnceLock::new(),
            ceiling: 0.0,
            faulted_cells: 0,
            drifted_cells: 0,
            row_index,
            col_index,
        };

        let mut col_level_sums = vec![0u64; grid.col_index.len()];
        for (ci, &c) in grid.col_index.iter().enumerate() {
            for (ri, &r) in grid.row_index.iter().enumerate() {
                let w = matrix.data()[r * orig_cols + c];
                // Clamp in integers: above 24 weight bits the f32 image of
                // `levels` rounds up past it.
                let k = ((w / step).round() as i64).clamp(-levels, levels);
                col_level_sums[ci] += k.unsigned_abs();
                // Code 0 is the fresh cell state.
                let code = encode(k);
                if code == 0 {
                    continue;
                }
                for (slice, &s) in slicer.slice(code).iter().enumerate() {
                    let (x, row, col) = grid.locate(ri, ci, slice);
                    grid.crossbars[x].program_cell(row, col, s);
                }
            }
        }

        // Pristine output ceiling: a clean column sums at most Σ|level|
        // times the full-scale input. A stuck-high or sign-corrupted array
        // can exceed it.
        let max_input = max_input_code as f64;
        grid.ceiling = col_level_sums
            .iter()
            .map(|&s| s as f64 * max_input * f64::from(step))
            .fold(0.0f64, f64::max);
        Ok(grid)
    }

    /// The crossbar, row and column of cell slice `slice` of the weight at
    /// compact row `ri`, compact column `ci`.
    fn locate(&self, ri: usize, ci: usize, slice: usize) -> (usize, usize, usize) {
        let dim = self.crossbar_dim;
        let cell_col = ci * self.slicer.cells_per_weight() + slice;
        (
            (ri / dim) * self.xb_cols + cell_col / dim,
            ri % dim,
            cell_col % dim,
        )
    }

    /// The code stored for the weight at compact row `ri`, compact column
    /// `ci`, read back from its cells.
    pub fn stored_code(&self, ri: usize, ci: usize) -> u64 {
        (0..self.slicer.cells_per_weight()).fold(0, |code, slice| {
            let (x, row, col) = self.locate(ri, ci, slice);
            (code << self.slicer.cell_bits()) + u64::from(self.crossbars[x].read_cell(row, col))
        })
    }

    /// The quantized matrix the grid represents, in original `[rows, cols]`
    /// indexing: `level(ri, ci, stored_code) × step` at every mapped
    /// weight, zero elsewhere.
    pub fn dequantized(&self, level: impl Fn(usize, usize, u64) -> f32) -> Tensor {
        let mut out = Tensor::zeros(&[self.orig_rows, self.orig_cols]);
        for (ci, &c) in self.col_index.iter().enumerate() {
            for (ri, &r) in self.row_index.iter().enumerate() {
                out.data_mut()[r * self.orig_cols + c] =
                    level(ri, ci, self.stored_code(ri, ci)) * self.step;
            }
        }
        out
    }

    /// The column current of cell slice `slice` of compact column `ci` when
    /// `drive` (one read voltage per row) drives compact rows `lo..lo +
    /// drive.len()`, which must lie on one crossbar row.
    pub fn column_current(&self, lo: usize, ci: usize, slice: usize, drive: &[f64]) -> f64 {
        let (x, row, col) = self.locate(lo, ci, slice);
        self.crossbars[x].column_current(col, drive, row..row + drive.len())
    }

    /// Scatters compact column accumulators into an output vector of
    /// original length: `acc × step × scale` at each mapped column. Other
    /// entries are left as they are.
    #[inline]
    pub fn scatter(&self, accs: &[i64], scale: f32, out: &mut [f32]) {
        for (&c, &acc) in self.col_index.iter().zip(accs) {
            out[c] = acc as f32 * self.step * scale;
        }
    }

    /// Checks one input vector in one pass (length + range), so the
    /// per-sub-array gather loops stay assert-free.
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the original row count or
    /// a mapped row's code exceeds `input_bits`.
    pub fn validate_input_codes(&self, input_codes: &[u32]) {
        assert_eq!(
            input_codes.len(),
            self.orig_rows,
            "need one input code per original row"
        );
        let limit = 1u64 << self.input_bits;
        assert!(
            self.row_index
                .iter()
                .all(|&r| u64::from(input_codes[r]) < limit),
            "input code exceeds {} bits",
            self.input_bits
        );
    }

    /// Whether the sweep runs its integer path: every mapped cell
    /// dequantizes to an exact integer code (no conductance drift) *and*
    /// the ADC is lossless over a sub-array's current range. ADC conversion
    /// is then the identity on every current the array can produce, so
    /// integer accumulation is bitwise identical to the f64 path.
    ///
    /// # Panics
    ///
    /// Panics if it builds the read image while direct conductance writes
    /// are pending a [`Crossbar::commit_writes`].
    pub fn integer_path(&self) -> bool {
        !matches!(self.read_image(), ReadImage::Analog)
    }

    /// The sweep's read image, built on first use: on the integer path,
    /// every weight's folded code at the `i32_sums` width.
    ///
    /// # Panics
    ///
    /// Panics if it is built while direct conductance writes are pending a
    /// [`Crossbar::commit_writes`].
    pub(crate) fn read_image(&self) -> &ReadImage {
        self.read_image.get_or_init(|| {
            let tables = self.crossbars.iter().map(Crossbar::integral_dequant_codes);
            let tables: Option<Vec<_>> = tables.collect();
            match tables.filter(|_| self.lossless_adc) {
                Some(tables) if self.i32_sums => ReadImage::Narrow(self.folded_codes(&tables)),
                Some(tables) => ReadImage::Wide(self.folded_codes(&tables)),
                None => ReadImage::Analog,
            }
        })
    }

    /// Every weight's code, `rows × cols` row-major over the compact
    /// matrix: its cell slices, most significant first, read from the
    /// crossbars' integral `tables` and folded into `Σ slice_k << (cell_bits
    /// × (cpw − 1 − k))`.
    fn folded_codes<T: PartialSum>(&self, tables: &[&[u16]]) -> Vec<T> {
        let cols = self.col_index.len();
        let fold = |i: usize| {
            (0..self.slicer.cells_per_weight()).fold(T::default(), |code, slice| {
                let (x, row, col) = self.locate(i / cols, i % cols, slice);
                let cell = tables[x][row * self.crossbar_dim + col];
                (code << self.slicer.cell_bits()) + T::from(cell)
            })
        };
        (0..self.row_index.len() * cols).map(fold).collect()
    }

    /// Bytes of folded weight codes the read image holds: 4 (`i32` sums)
    /// or 8 per weight once the integer path has run, else 0.
    pub fn code_cache_bytes(&self) -> usize {
        match self.read_image.get() {
            Some(ReadImage::Narrow(codes)) => size_of_val(codes.as_slice()),
            Some(ReadImage::Wide(codes)) => size_of_val(codes.as_slice()),
            Some(ReadImage::Analog) | None => 0,
        }
    }

    /// Injects a fault campaign into every crossbar, in order, and returns
    /// the merged report. Array `i` is salted with `salt ^ i ×
    /// 0xD1B5_4A32_D192_ED03`, decorrelating the arrays within the grid;
    /// the caller's salt decorrelates layers and replicas. Grids of equal
    /// shape therefore fault the same cells, whatever they store.
    pub fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        self.read_image.take();
        let mut total = FaultReport::default();
        for (i, xbar) in self.crossbars.iter_mut().enumerate() {
            total.merge(
                &campaign.apply(xbar, salt ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
            );
        }
        self.faulted_cells += total.stuck() as u64;
        self.drifted_cells += total.drifted as u64;
        total
    }

    /// The cumulative fault counters over every cell of the grid.
    pub fn health(&self) -> EngineHealth {
        let dim = self.crossbar_dim as u64;
        EngineHealth {
            faulted_cells: self.faulted_cells,
            drifted_cells: self.drifted_cells,
            total_cells: self.crossbars.len() as u64 * dim * dim,
        }
    }

    /// The pristine nominal output ceiling (per unit input scale).
    pub fn ceiling(&self) -> f64 {
        self.ceiling
    }

    /// The weight quantization step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Compact row → original row.
    pub fn row_index(&self) -> &[usize] {
        &self.row_index
    }

    /// Compact column → original column.
    pub fn col_index(&self) -> &[usize] {
        &self.col_index
    }

    /// Mapped cell columns: compact columns × cells per weight.
    pub fn cell_cols(&self) -> usize {
        self.col_index.len() * self.slicer.cells_per_weight()
    }

    /// Original input length (weight rows).
    pub fn input_len(&self) -> usize {
        self.orig_rows
    }

    /// Original output length (weight columns).
    pub fn output_len(&self) -> usize {
        self.orig_cols
    }

    /// Whether one sub-array's partial sums are summed in `i32` (else
    /// `i64`).
    pub fn i32_sums(&self) -> bool {
        self.i32_sums
    }

    /// Rows (and columns) of one crossbar.
    pub fn crossbar_dim(&self) -> usize {
        self.crossbar_dim
    }

    /// Input code width.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// The bit slicer of the stored codes.
    pub fn slicer(&self) -> BitSlicer {
        self.slicer
    }

    /// The column ADC of one sub-array.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// The physical crossbars, row-major.
    pub fn crossbars(&self) -> &[Crossbar] {
        &self.crossbars
    }

    /// Mutable access to the physical crossbars, for variation injection.
    /// Writes made here bypass the fault counters. Resets the read image.
    pub fn crossbars_mut(&mut self) -> &mut [Crossbar] {
        self.read_image.take();
        &mut self.crossbars
    }
}
