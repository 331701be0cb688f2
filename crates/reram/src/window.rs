//! Integer partial sums of the batched MVM kernels.
//!
//! On an integral array read through a lossless ADC, conversion is the
//! identity and shift-&-add is linear, so the bit-serial result of one
//! sub-array (a FORMS fragment or an ISAAC row block) equals
//! `Σ_i code_i × input_i` over its rows. The kernels therefore read the
//! sub-array's rows of the grid's folded code matrix (built once per grid,
//! see [`CrossbarGrid::integer_path`](crate::CrossbarGrid::integer_path))
//! and add `code << plane` per set input bit into one row of partial sums
//! per sample. That row is bounded by `rows × max_code × max_input`: when
//! the bound fits an `i32` the codes and the row are `i32`, twice the lanes
//! of `i64` per vector instruction, and the row is widened into the `i64`
//! column accumulators once per (sub-array, sample), where the design's
//! digital step (FORMS' sign indicator, ISAAC's offset subtraction)
//! applies.
//!
//! [`sum_planes`] is inlined into both compiled copies of the sweep (see
//! [`sweep_uses_avx2`](crate::sweep_uses_avx2)): its row add runs 4 `i32`
//! lanes wide in the portable SSE2 copy and 8 in the AVX2 copy, which
//! grids of 32 or more compact columns run on AVX2 hosts. The adds
//! and shifts are exact, so both copies produce the same sums.

use std::ops::{Add, AddAssign, Shl};

use crate::packing::{for_each_set_bit, plane_is_zero};

/// The integer one sub-array's partial sums are summed in: `i32` when
/// [`partial_sums_fit_i32`] holds for the layer, `i64` otherwise. Only
/// those two types implement it.
pub trait PartialSum:
    Copy + Default + From<u16> + Into<i64> + Add<Output = Self> + AddAssign + Shl<u32, Output = Self>
{
    /// This width's partial-sum row among a sweep scratch's `IntWindows`.
    fn sums(windows: &mut IntWindows) -> &mut Vec<Self>;
}

impl PartialSum for i32 {
    fn sums(windows: &mut IntWindows) -> &mut Vec<Self> {
        &mut windows.narrow
    }
}

impl PartialSum for i64 {
    fn sums(windows: &mut IntWindows) -> &mut Vec<Self> {
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

/// Sums one sample's active rows of a sub-array's code window `codes`
/// (row-major, `sums.len()` codes per row) into `sums`: for every packed
/// plane `p` (`words` words each, LSB plane first, see
/// [`pack_tile_bit_planes`](crate::pack_tile_bit_planes)) and every set
/// input bit `i`, adds window row `i` shifted left by `p`. All-zero planes
/// are skipped.
#[inline(always)]
pub(crate) fn sum_planes<T: PartialSum>(codes: &[T], planes: &[u64], words: usize, sums: &mut [T]) {
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
}

/// A scratch's partial-sum rows at both widths, so one scratch serves
/// layers of either width.
#[derive(Clone, Debug, Default)]
pub struct IntWindows {
    narrow: Vec<i32>,
    wide: Vec<i64>,
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
