//! Multi-bit ReRAM cells and analog crossbar arrays.

use std::ops::Range;

/// Specification of a multi-bit ReRAM cell: `2^bits` linearly spaced
/// conductance states between `g_min` (code 0) and `g_max` (top code),
/// in microsiemens.
///
/// The unit conductance step `(g_max - g_min) / (2^bits - 1)` is what one
/// least-significant code contributes to a column current at unit read
/// voltage; the crossbar and ADC work in these units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellSpec {
    bits: u32,
    g_min: f64,
    g_max: f64,
}

impl CellSpec {
    /// Creates a cell spec.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 8, or `g_max <= g_min`, or `g_min < 0`.
    pub fn new(bits: u32, g_min: f64, g_max: f64) -> Self {
        assert!((1..=8).contains(&bits), "cell bits must be in 1..=8");
        assert!(g_min >= 0.0, "conductance cannot be negative");
        assert!(g_max > g_min, "g_max must exceed g_min");
        Self { bits, g_min, g_max }
    }

    /// The paper's design point: 2-bit cells. Conductance range follows the
    /// commonly used 1–61 µS window of HfO₂ devices.
    pub fn paper_2bit() -> Self {
        Self::new(2, 1.0, 61.0)
    }

    /// Bits per cell.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of programmable states.
    pub fn states(&self) -> u32 {
        1 << self.bits
    }

    /// Largest storable code.
    pub fn max_code(&self) -> u32 {
        self.states() - 1
    }

    /// Minimum (code 0) conductance in µS.
    #[inline]
    pub fn g_min(&self) -> f64 {
        self.g_min
    }

    /// Maximum (top code) conductance in µS.
    pub fn g_max(&self) -> f64 {
        self.g_max
    }

    /// Conductance step per code in µS.
    #[inline]
    pub fn g_step(&self) -> f64 {
        (self.g_max - self.g_min) / self.max_code() as f64
    }

    /// Conductance for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the largest storable code.
    pub fn conductance(&self, code: u32) -> f64 {
        assert!(
            code <= self.max_code(),
            "code {code} exceeds cell capacity {}",
            self.max_code()
        );
        self.g_min + code as f64 * self.g_step()
    }

    /// Nearest code for a (possibly perturbed) conductance, saturating at
    /// the cell's range.
    pub fn code_for(&self, conductance: f64) -> u32 {
        let code = ((conductance - self.g_min) / self.g_step()).round();
        code.clamp(0.0, self.max_code() as f64) as u32
    }
}

/// An analog ReRAM crossbar array.
///
/// Conductances are stored per cell; [`column_currents`](Self::column_currents)
/// implements the in-situ multiply-accumulate `i_o = Gᵀ·v` over a row window
/// so that fine-grained (fragment) activation can be simulated directly.
///
/// Currents are reported in *code units*: the common-mode term contributed
/// by `g_min` is subtracted and the result divided by the conductance step,
/// so an ideal array yields exactly the integer dot product of codes and
/// binary inputs. (Real designs cancel the common mode with a reference
/// column; modelling it as a subtraction is equivalent and keeps the ADC
/// interface in integer units.)
///
/// # Write visibility
///
/// The packed read paths ([`dequant_row_into`](Self::dequant_row_into),
/// [`integral_dequant_codes`](Self::integral_dequant_codes)) serve from a hoisted
/// dequantized-cell table. Programming through [`program_codes`](Self::program_codes)
/// / [`program_cell`](Self::program_cell) keeps that table in sync, but
/// *direct* conductance mutation via
/// [`conductances_mut`](Self::conductances_mut) (variation / fault
/// injection) marks the array dirty and the packed paths panic until
/// [`commit_writes`](Self::commit_writes) rebuilds the table — stale reads
/// are a bug, never a silent wrong answer.
#[derive(Clone, Debug)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    spec: CellSpec,
    conductances: Vec<f64>,
    /// Hoisted `(g - g_min) / step` per cell, bitwise the terms the raw
    /// read paths compute on the fly.
    dequant: Vec<f64>,
    /// Integer image of `dequant`, valid only while `integral` holds: the
    /// batched MVM kernels accumulate these as machine integers instead of
    /// f64, which is exact (and therefore bitwise identical) because every
    /// partial sum is an integer well below 2^53.
    dequant_codes: Vec<u16>,
    /// Whether every dequantized cell value is *exactly* an in-range
    /// integer (`0 ..= max_code`). True for any array programmed through
    /// code paths (including stuck-at faults, which land on conductance
    /// rails); conductance drift breaks it and routes readers back to the
    /// f64 path.
    integral: bool,
    /// Set by `conductances_mut`, cleared by `commit_writes`.
    dirty: bool,
}

/// Equality is over the physical state (dimensions, cell spec, raw
/// conductances); the derived dequant table and dirty flag are excluded.
impl PartialEq for Crossbar {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.spec == other.spec
            && self.conductances == other.conductances
    }
}

impl Crossbar {
    /// Creates an array with every cell at `g_min` (code 0).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, spec: CellSpec) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        Self {
            rows,
            cols,
            spec,
            conductances: vec![spec.g_min(); rows * cols],
            // Code 0 dequantizes to exactly 0.0.
            dequant: vec![0.0; rows * cols],
            dequant_codes: vec![0; rows * cols],
            integral: true,
            dirty: false,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cell specification.
    pub fn spec(&self) -> &CellSpec {
        &self.spec
    }

    /// Raw conductances in row-major order (µS).
    pub fn conductances(&self) -> &[f64] {
        &self.conductances
    }

    /// Mutable raw conductances (for variation/fault injection).
    ///
    /// Marks the array dirty: the hoisted dequant table no longer matches
    /// the cells, so the packed read paths refuse to run until
    /// [`commit_writes`](Self::commit_writes) is called.
    pub fn conductances_mut(&mut self) -> &mut [f64] {
        self.dirty = true;
        &mut self.conductances
    }

    /// Whether direct conductance writes are pending a
    /// [`commit_writes`](Self::commit_writes).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Rebuilds the hoisted dequantized-cell table from the raw
    /// conductances and clears the dirty flag. Must be called after any
    /// mutation through [`conductances_mut`](Self::conductances_mut)
    /// before the packed read paths are used again.
    pub fn commit_writes(&mut self) {
        let step = self.spec.g_step();
        let g_min = self.spec.g_min();
        let max = f64::from(self.spec.max_code());
        self.integral = true;
        for ((d, code), &g) in self
            .dequant
            .iter_mut()
            .zip(&mut self.dequant_codes)
            .zip(&self.conductances)
        {
            let v = (g - g_min) / step;
            *d = v;
            if v >= 0.0 && v <= max && v.fract() == 0.0 {
                *code = v as u16;
            } else {
                self.integral = false;
            }
        }
        self.dirty = false;
    }

    /// Programs every cell from row-major codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows * cols` or any code overflows the
    /// cell.
    pub fn program_codes(&mut self, codes: &[u32]) {
        assert_eq!(
            codes.len(),
            self.rows * self.cols,
            "expected {} codes, got {}",
            self.rows * self.cols,
            codes.len()
        );
        for (g, &code) in self.conductances.iter_mut().zip(codes) {
            *g = self.spec.conductance(code);
        }
        // Every cell was rewritten, so the rebuilt table covers any prior
        // direct mutation too.
        self.commit_writes();
    }

    /// Programs one cell.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds or the code overflows.
    pub fn program_cell(&mut self, row: usize, col: usize, code: u32) {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        let idx = row * self.cols + col;
        let g = self.spec.conductance(code);
        self.conductances[idx] = g;
        let v = (g - self.spec.g_min()) / self.spec.g_step();
        self.dequant[idx] = v;
        // Keep the integer image in lockstep. A programmed code usually
        // dequantizes exactly (conductance() and the division round-trip
        // through small integers), but an awkward `g_min`/`g_step` pair can
        // leave float residue — then the whole array conservatively drops
        // to the f64 path until a full `commit_writes` re-audit.
        if v >= 0.0 && v <= f64::from(self.spec.max_code()) && v.fract() == 0.0 {
            self.dequant_codes[idx] = v as u16;
        } else {
            self.integral = false;
        }
    }

    /// Reads back the nearest code of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn read_cell(&self, row: usize, col: usize) -> u32 {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        self.spec.code_for(self.conductances[row * self.cols + col])
    }

    /// In-situ analog MVM over a row window: for each column, the summed
    /// current of `conductance × input`, converted to code units (see type
    /// docs). `inputs` supplies one read voltage per row in the window,
    /// normally 0.0 or 1.0 from the 1-bit DACs.
    ///
    /// # Panics
    ///
    /// Panics if the window is out of bounds or `inputs.len()` differs from
    /// the window length.
    pub fn column_currents(&self, inputs: &[f64], rows: Range<usize>) -> Vec<f64> {
        assert!(rows.end <= self.rows, "row window out of bounds");
        assert_eq!(
            inputs.len(),
            rows.len(),
            "need one input per active row ({} vs {})",
            inputs.len(),
            rows.len()
        );
        let step = self.spec.g_step();
        let g_min = self.spec.g_min();
        let mut currents = vec![0.0f64; self.cols];
        for (i, r) in rows.enumerate() {
            let v = inputs[i];
            if v == 0.0 {
                continue;
            }
            let row = &self.conductances[r * self.cols..(r + 1) * self.cols];
            for (c, &g) in row.iter().enumerate() {
                currents[c] += (g - g_min) / step * v;
            }
        }
        currents
    }

    /// Writes the dequantized cell values `(g - g_min) / step` of one row's
    /// leading `out.len()` columns into `out` — the per-cell terms every
    /// current read sums. Hoisting them out of the bit-serial drive loop
    /// lets an MVM kernel pay the division once per cell instead of once
    /// per cell *per cycle*; the cached values are bitwise the terms
    /// [`column_currents`](Self::column_currents) computes.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of bounds, `out.len()` exceeds the column
    /// count, or direct conductance writes are pending a
    /// [`commit_writes`](Self::commit_writes).
    pub fn dequant_row_into(&self, row: usize, out: &mut [f64]) {
        assert!(row < self.rows, "row out of bounds");
        assert!(out.len() <= self.cols, "output wider than the crossbar");
        assert!(
            !self.dirty,
            "stale packed read: commit_writes() after conductances_mut()"
        );
        out.copy_from_slice(&self.dequant[row * self.cols..row * self.cols + out.len()]);
    }

    /// The integer image of the dequantized cell table, row-major, when —
    /// and only when — every cell dequantizes to an *exact* integer in
    /// `0 ..= max_code`. `None` otherwise (e.g. after conductance drift).
    ///
    /// While `Some`, `table[i] as f64 == dequant(i)` bitwise for every
    /// cell, so a kernel may accumulate these as machine integers and get
    /// results identical to the f64 current path: all partial sums are
    /// exact integers far below 2^53, and a lossless ADC (full scale on
    /// the top code, range covering the window's maximum current) converts
    /// such integers to themselves.
    ///
    /// # Panics
    ///
    /// Panics if direct conductance writes are pending a
    /// [`commit_writes`](Self::commit_writes).
    pub fn integral_dequant_codes(&self) -> Option<&[u16]> {
        assert!(
            !self.dirty,
            "stale packed read: commit_writes() after conductances_mut()"
        );
        self.integral.then_some(self.dequant_codes.as_slice())
    }

    /// Current of a single column over a row window, in code units — the
    /// per-fragment read the FORMS mapping performs.
    ///
    /// # Panics
    ///
    /// Panics if the window or column is out of bounds, or input length
    /// mismatches.
    pub fn column_current(&self, col: usize, inputs: &[f64], rows: Range<usize>) -> f64 {
        assert!(col < self.cols, "column out of bounds");
        assert!(rows.end <= self.rows, "row window out of bounds");
        assert_eq!(
            inputs.len(),
            rows.len(),
            "need one input per active row ({} vs {})",
            inputs.len(),
            rows.len()
        );
        let step = self.spec.g_step();
        let g_min = self.spec.g_min();
        rows.enumerate()
            .map(|(i, r)| {
                let v = inputs[i];
                if v == 0.0 {
                    0.0
                } else {
                    (self.conductances[r * self.cols + col] - g_min) / step * v
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_code_conductance_round_trip() {
        let spec = CellSpec::paper_2bit();
        for code in 0..=spec.max_code() {
            assert_eq!(spec.code_for(spec.conductance(code)), code);
        }
    }

    #[test]
    fn spec_code_for_saturates() {
        let spec = CellSpec::paper_2bit();
        assert_eq!(spec.code_for(-5.0), 0);
        assert_eq!(spec.code_for(1000.0), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds cell capacity")]
    fn overflowing_code_rejected() {
        CellSpec::paper_2bit().conductance(4);
    }

    #[test]
    fn program_and_read_back() {
        let mut xb = Crossbar::new(2, 3, CellSpec::paper_2bit());
        xb.program_codes(&[0, 1, 2, 3, 2, 1]);
        assert_eq!(xb.read_cell(0, 0), 0);
        assert_eq!(xb.read_cell(1, 0), 3);
        assert_eq!(xb.read_cell(1, 2), 1);
    }

    #[test]
    fn currents_equal_integer_dot_products() {
        let mut xb = Crossbar::new(4, 2, CellSpec::paper_2bit());
        xb.program_codes(&[3, 1, 2, 0, 1, 3, 0, 2]);
        let inputs = [1.0, 0.0, 1.0, 1.0];
        let currents = xb.column_currents(&inputs, 0..4);
        let bits = [1u32, 0, 1, 1];
        for (c, got) in currents.iter().enumerate() {
            let want = (0..4).map(|r| xb.read_cell(r, c) * bits[r]).sum::<u32>() as f64;
            assert!((got - want).abs() < 1e-9, "col {c}: {got} vs {want}");
        }
    }

    #[test]
    fn fragment_window_activates_subset() {
        let mut xb = Crossbar::new(8, 1, CellSpec::paper_2bit());
        xb.program_codes(&[3; 8]);
        let all = xb.column_currents(&[1.0; 8], 0..8);
        let frag = xb.column_currents(&[1.0; 4], 4..8);
        assert!((all[0] - 24.0).abs() < 1e-9);
        assert!((frag[0] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn zero_inputs_draw_no_signal_current() {
        let mut xb = Crossbar::new(4, 4, CellSpec::paper_2bit());
        xb.program_codes(&[3; 16]);
        let currents = xb.column_currents(&[0.0; 4], 0..4);
        assert!(currents.iter().all(|&c| c == 0.0));
    }

    #[test]
    #[should_panic(expected = "one input per active row")]
    fn wrong_input_length_rejected() {
        let xb = Crossbar::new(4, 4, CellSpec::paper_2bit());
        xb.column_currents(&[1.0; 3], 0..4);
    }

    #[test]
    fn dequant_row_matches_current_terms() {
        let mut xb = Crossbar::new(4, 3, CellSpec::paper_2bit());
        xb.program_codes(&[3, 1, 2, 0, 1, 3, 0, 2, 1, 2, 0, 3]);
        for row in 0..4 {
            let mut vals = [0.0f64; 3];
            xb.dequant_row_into(row, &mut vals);
            // Driving only this row reads back exactly the cached terms.
            assert_eq!(vals.as_slice(), xb.column_currents(&[1.0], row..row + 1));
        }
        // Prefix output covers only the leading columns.
        let mut prefix = [9.0f64; 2];
        xb.dequant_row_into(1, &mut prefix);
        assert_eq!(prefix.as_slice(), &xb.column_currents(&[1.0], 1..2)[..2]);
    }

    #[test]
    fn direct_mutation_requires_commit_before_packed_reads() {
        let mut xb = Crossbar::new(4, 2, CellSpec::paper_2bit());
        xb.program_codes(&[3, 1, 2, 0, 1, 3, 0, 2]);
        assert!(!xb.is_dirty());
        xb.conductances_mut()[0] = xb.spec().g_max();
        assert!(xb.is_dirty());
        xb.commit_writes();
        assert!(!xb.is_dirty());
        // After commit the packed read sees the mutation, bitwise equal to
        // the raw (uncached) read path.
        let mut row = [0.0; 2];
        for r in 0..4 {
            xb.dequant_row_into(r, &mut row);
            assert_eq!(row.as_slice(), xb.column_currents(&[1.0], r..r + 1));
        }
        xb.dequant_row_into(0, &mut row);
        assert_eq!(
            row[0],
            (xb.spec().g_max() - xb.spec().g_min()) / xb.spec().g_step()
        );
    }

    #[test]
    #[should_panic(expected = "stale packed read")]
    fn uncommitted_mutation_panics_on_integral_codes_read() {
        let mut xb = Crossbar::new(2, 2, CellSpec::paper_2bit());
        xb.program_codes(&[1; 4]);
        xb.conductances_mut()[3] = xb.spec().g_max();
        let _ = xb.integral_dequant_codes();
    }

    #[test]
    #[should_panic(expected = "stale packed read")]
    fn uncommitted_mutation_panics_on_dequant_read() {
        let mut xb = Crossbar::new(2, 2, CellSpec::paper_2bit());
        xb.program_codes(&[1; 4]);
        xb.conductances_mut()[0] = 9.0;
        let mut out = [0.0; 2];
        xb.dequant_row_into(0, &mut out);
    }

    #[test]
    fn reprogramming_clears_pending_writes() {
        let mut xb = Crossbar::new(2, 2, CellSpec::paper_2bit());
        xb.conductances_mut()[0] = 9.0;
        xb.program_codes(&[2; 4]);
        assert!(!xb.is_dirty());
        let mut out = [0.0; 2];
        xb.dequant_row_into(0, &mut out);
        assert_eq!(out, [2.0, 2.0]);
    }

    #[test]
    fn programmed_arrays_expose_integral_codes() {
        let mut xb = Crossbar::new(4, 3, CellSpec::paper_2bit());
        xb.program_codes(&[3, 1, 2, 0, 1, 3, 0, 2, 1, 2, 0, 3]);
        let codes = xb.integral_dequant_codes().expect("programmed = integral");
        assert_eq!(codes, &[3, 1, 2, 0, 1, 3, 0, 2, 1, 2, 0, 3]);
        // The integer image matches the f64 table bitwise.
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(f64::from(c), xb.dequant[i]);
        }
    }

    #[test]
    fn stuck_at_rails_keep_the_array_integral() {
        let mut xb = Crossbar::new(2, 2, CellSpec::paper_2bit());
        xb.program_codes(&[1, 2, 3, 0]);
        // Stuck-at faults land on conductance rails = exact codes.
        xb.conductances_mut()[0] = xb.spec().g_max();
        xb.conductances_mut()[3] = xb.spec().g_min();
        xb.commit_writes();
        assert_eq!(xb.integral_dequant_codes(), Some([3, 2, 3, 0].as_slice()));
    }

    #[test]
    fn drifted_cells_drop_the_integral_image() {
        let mut xb = Crossbar::new(2, 2, CellSpec::paper_2bit());
        xb.program_codes(&[1, 2, 3, 0]);
        xb.conductances_mut()[1] *= 1.01; // off-grid conductance
        xb.commit_writes();
        assert_eq!(xb.integral_dequant_codes(), None);
        // Reprogramming restores it.
        xb.program_codes(&[0, 1, 2, 3]);
        assert_eq!(xb.integral_dequant_codes(), Some([0, 1, 2, 3].as_slice()));
    }

    #[test]
    fn out_of_range_integral_values_are_rejected() {
        // An integer dequant value above max_code must NOT count as
        // integral: the lossless-ADC identity only holds in range.
        let mut xb = Crossbar::new(1, 1, CellSpec::paper_2bit());
        let over = xb.spec().g_min() + 4.0 * xb.spec().g_step();
        xb.conductances_mut()[0] = over; // dequantizes to exactly 4.0 > 3
        xb.commit_writes();
        assert_eq!(xb.integral_dequant_codes(), None);
    }

    #[test]
    #[should_panic(expected = "stale packed read")]
    fn uncommitted_mutation_panics_on_integral_read() {
        let mut xb = Crossbar::new(2, 2, CellSpec::paper_2bit());
        xb.program_codes(&[1; 4]);
        xb.conductances_mut()[0] = 9.0;
        let _ = xb.integral_dequant_codes();
    }

    #[test]
    fn analog_values_respect_fractional_inputs() {
        let mut xb = Crossbar::new(2, 1, CellSpec::paper_2bit());
        xb.program_codes(&[2, 2]);
        let c = xb.column_currents(&[0.5, 0.25], 0..2);
        assert!((c[0] - 1.5).abs() < 1e-9);
    }
}
