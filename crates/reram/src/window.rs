//! Integer weight windows of the batched MVM kernels.
//!
//! On an integral array read through a lossless ADC, conversion is the
//! identity and shift-&-add is linear, so the bit-serial result of one
//! sub-array (a FORMS fragment or an ISAAC row block) equals
//! `Σ_i code_i × input_i` over its rows. The kernels therefore fold each
//! weight's cell slices back into its code once per (sub-array, tile) and
//! add `code << plane` per set input bit into one row of partial sums per
//! sample. That row is bounded by `rows × max_code × max_input`: when the
//! bound fits an `i32` the row is summed in `i32`, twice the lanes of
//! `i64` per vector instruction, and widened into the `i64` column
//! accumulators once per (sub-array, sample), where the design's digital
//! step (FORMS' sign indicator, ISAAC's offset subtraction) applies.

use std::ops::{Add, AddAssign, Shl};

use crate::packing::{for_each_set_bit, plane_is_zero};
use crate::Crossbar;

/// The integer one sub-array's partial sums are summed in: `i32` when
/// [`partial_sums_fit_i32`] holds for the layer, `i64` otherwise. Only
/// those two types implement it.
pub trait PartialSum:
    Copy + Default + From<u16> + Into<i64> + Add<Output = Self> + AddAssign + Shl<u32, Output = Self>
{
    /// This width's window among a sweep scratch's `IntWindows`.
    fn window(windows: &mut IntWindows) -> &mut IntWindow<Self>;
}

impl PartialSum for i32 {
    fn window(windows: &mut IntWindows) -> &mut IntWindow<Self> {
        &mut windows.narrow
    }
}

impl PartialSum for i64 {
    fn window(windows: &mut IntWindows) -> &mut IntWindow<Self> {
        &mut windows.wide
    }
}

/// Whether every partial sum of a sub-array of `rows` rows fits an `i32`:
/// `rows × max_code × max_input ≤ i32::MAX`, where `max_code` is the
/// largest weight code the cells can store (a stuck-at cell stores at most
/// that too) and `max_input` the largest input code.
pub fn partial_sums_fit_i32(rows: usize, max_code: u128, max_input: u128) -> bool {
    rows as u128 * max_code * max_input <= i32::MAX as u128
}

/// One sub-array's integer weight window and one sample's partial sums,
/// reused across calls.
#[derive(Clone, Debug, Default)]
pub struct IntWindow<T> {
    /// Integer cell codes of one window row.
    cells: Vec<u16>,
    /// Folded weight codes, row-major over the weight columns.
    codes: Vec<T>,
    /// One sample's partial sums, one per weight column.
    sums: Vec<T>,
}

impl<T: PartialSum> IntWindow<T> {
    /// Loads crossbar rows `row_lo..row_lo + rows` of one row of the
    /// crossbar grid (`xbars`, left to right) as `weights` folded codes per
    /// row: each weight's `cpw` consecutive cell columns, most significant
    /// slice first, fold into `Σ slice_k << (cell_bits × (cpw − 1 − k))`.
    ///
    /// # Panics
    ///
    /// Panics if an array is not integral or has writes pending (see
    /// [`Crossbar::integral_row_into`]), or the grid row is too narrow.
    #[inline]
    pub fn load(
        &mut self,
        xbars: &[Crossbar],
        row_lo: usize,
        rows: usize,
        weights: usize,
        cpw: usize,
        cell_bits: u32,
    ) {
        let cell_cols = weights * cpw;
        self.cells.resize(cell_cols, 0);
        self.codes.clear();
        self.codes.resize(rows * weights, T::default());
        self.sums.resize(weights, T::default());
        for (r, row) in self.codes.chunks_exact_mut(weights).enumerate() {
            let mut col_lo = 0;
            for xbar in xbars {
                if col_lo >= cell_cols {
                    break;
                }
                let col_hi = (col_lo + xbar.cols()).min(cell_cols);
                xbar.integral_row_into(row_lo + r, &mut self.cells[col_lo..col_hi]);
                col_lo = col_hi;
            }
            assert_eq!(
                col_lo, cell_cols,
                "crossbar grid row narrower than the window"
            );
            for (w, slices) in row.iter_mut().zip(self.cells.chunks_exact(cpw)) {
                *w = slices
                    .iter()
                    .fold(T::default(), |code, &s| (code << cell_bits) + T::from(s));
            }
        }
    }

    /// Sums one sample's active window rows: for every packed plane `p`
    /// (`words` words each, LSB plane first, see
    /// [`pack_tile_bit_planes`](crate::pack_tile_bit_planes)) and every set
    /// input bit `i`, adds window row `i` shifted left by `p`. All-zero
    /// planes are skipped. Returns the partial sums, one per weight column.
    #[inline]
    pub fn sum_planes(&mut self, planes: &[u64], words: usize) -> &[T] {
        let Self { codes, sums, .. } = self;
        let weights = sums.len();
        let rows = codes.len() / weights;
        sums.fill(T::default());
        for (plane, mask) in (0u32..).zip(planes.chunks_exact(words)) {
            if plane_is_zero(mask) {
                continue;
            }
            for_each_set_bit(mask, |i| {
                if i < rows {
                    let row = &codes[i * weights..(i + 1) * weights];
                    for (s, &w) in sums.iter_mut().zip(row) {
                        *s += w << plane;
                    }
                }
            });
        }
        sums
    }
}

/// A scratch's integer windows at both partial-sum widths, so one scratch
/// serves layers of either width.
#[derive(Clone, Debug, Default)]
pub struct IntWindows {
    narrow: IntWindow<i32>,
    wide: IntWindow<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i32_bound_is_inclusive() {
        // 4 × 255 × (2^21 − 1) = 2_139_094_020 fits; one more input bit
        // does not.
        assert!(partial_sums_fit_i32(4, 255, (1 << 21) - 1));
        assert!(!partial_sums_fit_i32(4, 255, (1 << 22) - 1));
        assert!(partial_sums_fit_i32(1, i32::MAX as u128, 1));
        assert!(!partial_sums_fit_i32(1, i32::MAX as u128 + 1, 1));
    }
}
