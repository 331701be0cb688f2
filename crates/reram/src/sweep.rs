//! The batched sub-array sweep both crossbar engines run.
//!
//! FORMS and ISAAC read a crossbar the same way: bit-serial input planes
//! drive one group of rows, every column current is converted, and the
//! converted slices are shifted and added. [`matmul_sweep`] does that
//! once; a [`SweepEngine`] supplies the three things the designs differ
//! in.

use crate::grid::ReadImage;
use crate::packing::{for_each_set_bit, pack_tile_bit_planes};
use crate::window::{sum_planes, IntWindows, PartialSum};
use crate::CrossbarGrid;

/// Samples per tile of [`matmul_sweep`].
///
/// The integer path reads each sub-array's rows of the grid's cached code
/// matrix, so the tile bounds only the working set each sub-array is swept
/// over: one packed plane set and one row of `i64` accumulators per
/// sample. At the paper's full shape (FORMS fragment 8, 128 weight
/// columns, 16-bit inputs) that is 32 plane sets (4 KiB) and 32×128
/// accumulators (32 KiB), beside the sub-array's 8×128 `i32` codes
/// (4 KiB) — inside L2. Both engines share it, so FORMS-vs-ISAAC batch
/// throughput comparisons use the same blocking.
pub const MATMUL_TILE: usize = 32;

/// The per-design part of the sweep: how tall a sub-array is (a FORMS
/// fragment or an ISAAC row block), how many input planes a sample pays on
/// it (the fragment's effective input cycles, or every input bit), and the
/// digital step applied to its partial sums (the sign indicator, or the
/// counted-ones offset subtraction).
pub trait SweepEngine {
    /// The design's MVM statistics.
    type Stats: Default;

    /// Compact weight rows per sub-array: the rows that one input plane
    /// drives together.
    fn subarray_rows(&self) -> usize;

    /// The input planes (LSB first) one sample pays on one sub-array, given
    /// the sample's input codes for that sub-array's rows; records the
    /// sample's cycle and conversion statistics. Zero skips the sub-array
    /// for this sample.
    fn sample_planes(&self, codes: &[u32], stats: &mut Self::Stats) -> u32;

    /// Adds one sample's partial sums of sub-array `subarray` into its
    /// column accumulators. `planes` are the sample's packed input planes
    /// on that sub-array (`words` words each, see
    /// [`pack_tile_bit_planes`]); `sums[ci]` is column `ci`'s sum of
    /// `code × input` over the sub-array's rows, in stored-code units.
    fn digital_step<T: PartialSum>(
        &self,
        subarray: usize,
        planes: &[u64],
        words: usize,
        sums: &[T],
        accs: &mut [i64],
        stats: &mut Self::Stats,
    );
}

/// Reusable working memory of [`matmul_sweep`], for layers of either
/// design and either partial-sum width.
///
/// Owned by the caller (one per inference worker) and grown on first use;
/// with a warm scratch the sweep performs no heap allocation. The default
/// value is an empty scratch that fits any layer.
#[derive(Clone, Debug, Default)]
pub struct SweepScratch {
    /// Gathered sub-array codes of one tile of samples, sample-major.
    tile_codes: Vec<u32>,
    /// Planes each sample of the tile pays on the current sub-array.
    tile_planes_paid: Vec<u32>,
    /// Packed bit planes of the whole tile (see [`pack_tile_bit_planes`]).
    tile_planes: Vec<u64>,
    /// Signed digital accumulators, one per (tile sample, compact weight
    /// column).
    accs: Vec<i64>,
    /// Integer path: one sample's partial sums, at the layer's partial-sum
    /// width.
    windows: IntWindows,
    /// f64 path: dequantized cell values of the current sub-array, row-major
    /// over all mapped cell columns — the division by the conductance step
    /// is paid once per cell instead of once per cell per input plane.
    cell_vals: Vec<f64>,
    /// f64 path: raw pre-ADC column currents of one sample, plane-major
    /// over all mapped cell columns.
    currents: Vec<f64>,
    /// f64 path: one sample's converted, shift-&-added partial sums, one
    /// per compact weight column.
    sums: Vec<i64>,
}

/// Executes `scales.len()` matrix-vector products of one mapped layer's
/// crossbar grid in one blocked weight-stationary sweep.
///
/// `batch_codes` holds the samples' input codes sample-major
/// (`scales.len() × orig_rows`); `outs` receives the concatenated outputs
/// (`scales.len() × orig_cols`, overwritten): each compact column's
/// accumulator × `step` × the sample's scale, scattered to its original
/// column.
///
/// Samples are processed in tiles of [`MATMUL_TILE`]; per sub-array the
/// tile's input codes are packed into bit planes and swept over every
/// sample. Arrays that pass [`CrossbarGrid::integer_path`] sum `code <<
/// plane` per set input bit over the sub-array's rows of the grid's cached
/// code matrix, in `i32` or `i64` (per `i32_sums`); others take an f64 path
/// that dequantizes the sub-array's cells once per tile and converts every
/// slice of every plane as the reference kernels do. Both hand one row of
/// partial sums per (sub-array, sample) to the engine's
/// [`digital_step`](SweepEngine::digital_step).
///
/// # Panics
///
/// Panics if the buffer lengths are inconsistent with `scales.len()` or
/// any input code exceeds `input_bits`.
pub fn matmul_sweep<E: SweepEngine>(
    engine: &E,
    grid: &CrossbarGrid,
    batch_codes: &[u32],
    scales: &[f32],
    scratch: &mut SweepScratch,
    outs: &mut [f32],
) -> E::Stats {
    if scales.is_empty() {
        assert!(batch_codes.is_empty(), "codes without scales");
        assert!(outs.is_empty(), "outputs without scales");
        return E::Stats::default();
    }
    let nsamples = scales.len();
    assert_eq!(
        batch_codes.len(),
        nsamples * grid.orig_rows,
        "need one whole input vector per batched sample"
    );
    assert_eq!(
        outs.len(),
        nsamples * grid.orig_cols,
        "need one whole output vector per batched sample"
    );
    for sample in batch_codes.chunks_exact(grid.orig_rows) {
        grid.validate_input_codes(sample);
    }
    // The integer path's partial-sum width follows the cached codes; the
    // f64 path ignores it.
    match grid.read_image() {
        ReadImage::Narrow(w) => {
            sweep_tiles(engine, grid, Some(w), batch_codes, scales, scratch, outs)
        }
        ReadImage::Wide(w) => {
            sweep_tiles(engine, grid, Some(w), batch_codes, scales, scratch, outs)
        }
        ReadImage::Analog => {
            sweep_tiles::<E, i64>(engine, grid, None, batch_codes, scales, scratch, outs)
        }
    }
}

/// [`matmul_sweep`] on checked buffers: the integer path over the grid's
/// folded `weights` (partial sums of type `T`) when given, else the f64
/// path.
fn sweep_tiles<E: SweepEngine, T: PartialSum>(
    engine: &E,
    grid: &CrossbarGrid,
    weights: Option<&[T]>,
    batch_codes: &[u32],
    scales: &[f32],
    scratch: &mut SweepScratch,
    outs: &mut [f32],
) -> E::Stats {
    let mut stats = E::Stats::default();
    let nsamples = scales.len();
    let (orig_rows, orig_cols) = (grid.orig_rows, grid.orig_cols);
    let height = engine.subarray_rows();
    let dim = grid.crossbar_dim;
    let ncols = grid.col_index.len();
    let cpw = grid.slicer.cells_per_weight();
    let cell_bits = grid.slicer.cell_bits();
    let cell_cols = ncols * cpw;
    T::sums(&mut scratch.windows).resize(ncols, T::default());
    outs.fill(0.0);

    for tile_lo in (0..nsamples).step_by(MATMUL_TILE) {
        let tile = tile_lo..(tile_lo + MATMUL_TILE).min(nsamples);
        let t = tile.len();
        scratch.accs.clear();
        scratch.accs.resize(t * ncols, 0);

        for (sub, rows) in grid.row_index.chunks(height).enumerate() {
            // Gather the tile's sub-array codes (sample-major) and the
            // planes each sample pays.
            scratch.tile_codes.clear();
            scratch.tile_planes_paid.clear();
            let mut max_planes = 0u32;
            for s in tile.clone() {
                let codes = &batch_codes[s * orig_rows..][..orig_rows];
                let start = scratch.tile_codes.len();
                scratch.tile_codes.extend(rows.iter().map(|&r| codes[r]));
                let paid = engine.sample_planes(&scratch.tile_codes[start..], &mut stats);
                scratch.tile_planes_paid.push(paid);
                max_planes = max_planes.max(paid);
            }
            if max_planes == 0 {
                continue;
            }
            let words =
                pack_tile_bit_planes(&scratch.tile_codes, t, max_planes, &mut scratch.tile_planes);
            let stride = max_planes as usize * words;
            let lo = sub * height;
            let SweepScratch {
                tile_planes_paid,
                tile_planes,
                accs,
                windows,
                cell_vals,
                currents,
                sums,
                ..
            } = scratch;
            let samples = tile_planes_paid
                .iter()
                .enumerate()
                .filter(|&(_, &paid)| paid > 0)
                .map(|(si, &paid)| (si, &tile_planes[si * stride..][..paid as usize * words]));

            if let Some(weights) = weights {
                // Lossless conversion is the identity and shift-&-add is
                // linear, so a sub-array's result is its row of `Σ code ×
                // input` sums over its rows of the folded code matrix.
                let window = &weights[lo * ncols..][..rows.len() * ncols];
                let row = T::sums(windows);
                for (si, planes) in samples {
                    sum_planes(window, planes, words, row);
                    let sample_accs = &mut accs[si * ncols..][..ncols];
                    engine.digital_step(sub, planes, words, row, sample_accs, &mut stats);
                }
            } else {
                // f64 window, once per (sub-array, tile).
                let (xr, row_lo) = (lo / dim, lo % dim);
                let grid_row = &grid.crossbars[xr * grid.xb_cols..][..grid.xb_cols];
                cell_vals.clear();
                cell_vals.resize(rows.len() * cell_cols, 0.0);
                for (r, vals) in cell_vals.chunks_exact_mut(cell_cols).enumerate() {
                    for (part, xbar) in vals.chunks_mut(dim).zip(grid_row) {
                        xbar.dequant_row_into(row_lo + r, part);
                    }
                }
                for (si, planes) in samples {
                    // Currents accumulate active rows in ascending order,
                    // matching the reference summation order bitwise.
                    currents.clear();
                    currents.resize(planes.len() / words * cell_cols, 0.0);
                    let plane_currents = currents.chunks_exact_mut(cell_cols);
                    for (cur, mask) in plane_currents.zip(planes.chunks_exact(words)) {
                        for_each_set_bit(mask, |i| {
                            if i < rows.len() {
                                let vals = &cell_vals[i * cell_cols..][..cell_cols];
                                for (c, &v) in cur.iter_mut().zip(vals) {
                                    *c += v;
                                }
                            }
                        });
                    }
                    // Convert every slice of every plane, shift-&-add over
                    // the planes, then fold the slices (MSB slice first).
                    sums.clear();
                    sums.extend((0..ncols).map(|ci| {
                        let total = (0..cpw).fold(0u64, |total, k| {
                            let slice = currents.chunks_exact(cell_cols).enumerate().fold(
                                0u64,
                                |acc, (plane, cur)| {
                                    acc + (u64::from(grid.adc.convert(cur[ci * cpw + k])) << plane)
                                },
                            );
                            (total << cell_bits) + slice
                        });
                        total as i64
                    }));
                    let sample_accs = &mut accs[si * ncols..][..ncols];
                    engine.digital_step(sub, planes, words, sums, sample_accs, &mut stats);
                }
            }
        }

        for (si, s) in tile.enumerate() {
            let out = &mut outs[s * orig_cols..][..orig_cols];
            grid.scatter(&scratch.accs[si * ncols..][..ncols], scales[s], out);
        }
    }
    stats
}
