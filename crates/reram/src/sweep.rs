//! The batched sub-array sweep both crossbar engines run.
//!
//! FORMS and ISAAC read a crossbar the same way: bit-serial input planes
//! drive one group of rows, every column current is converted, and the
//! converted slices are shifted and added. [`matmul_sweep`] does that
//! once; a [`SweepEngine`] supplies the three things the designs differ
//! in.
//!
//! The sweep's one body is compiled twice. The portable copy targets the
//! build's baseline (SSE2 on x86-64: 4 `i32` lanes per vector add); on
//! x86-64 a second copy is compiled with AVX2 enabled (8 lanes), inlining
//! the same gather, row adds, engine steps and scatter. [`matmul_sweep`]
//! runs the AVX2 copy on grids of at least 32 compact weight columns
//! when the CPU reports AVX2 at run time ([`sweep_uses_avx2`]),
//! and the portable copy otherwise; no build flag is involved. Narrower
//! grids stay portable because their row add is only a few vectors long
//! and the wider lanes bought nothing there. The copies are bitwise
//! interchangeable: integer adds and shifts are exact, and Rust neither
//! reassociates nor fuses floating-point operations, so wider lanes
//! change how many elements one instruction handles, never a result or a
//! counter.

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
/// All three read images go through one selection: the body runs in its
/// AVX2 copy where [`sweep_uses_avx2`] holds for `grid`, and in its
/// portable copy otherwise, with bitwise-identical outputs and statistics.
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
    let avx2 = sweep_uses_avx2(grid);
    // The integer path's partial-sum width follows the cached codes; the
    // f64 path ignores it.
    match grid.read_image() {
        ReadImage::Narrow(w) => sweep_tiles_in(
            avx2,
            engine,
            grid,
            Some(w),
            batch_codes,
            scales,
            scratch,
            outs,
        ),
        ReadImage::Wide(w) => sweep_tiles_in(
            avx2,
            engine,
            grid,
            Some(w),
            batch_codes,
            scales,
            scratch,
            outs,
        ),
        ReadImage::Analog => {
            sweep_tiles_in::<E, i64>(avx2, engine, grid, None, batch_codes, scales, scratch, outs)
        }
    }
}

/// Fewest compact weight columns for which [`matmul_sweep`] runs its AVX2
/// copy. Each set input bit adds one row of this many partial sums. In
/// probes of 32–256 columns the AVX2 copy was faster per MVM on nearly
/// every shape (about 0.5–0.97× the portable time); at 8–24 columns,
/// which include the small VGG's 8 and 16, the two copies timed alike or
/// the AVX2 one slower.
const AVX2_MIN_COLUMNS: usize = 32;

/// Whether [`matmul_sweep`] runs its AVX2 copy on `grid` on this host:
/// the grid has at least 32 compact weight columns, and the CPU is x86-64
/// and reports AVX2 at run time. `false` means the portable copy. Both
/// copies return bitwise-identical outputs and statistics.
pub fn sweep_uses_avx2(grid: &CrossbarGrid) -> bool {
    grid.col_index.len() >= AVX2_MIN_COLUMNS && host_has_avx2()
}

/// Whether the CPU is x86-64 and reports AVX2 at run time.
fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // std caches the CPUID probe, so this is one atomic load.
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`sweep_tiles`] in its AVX2 copy when `avx2` asks for it and the CPU
/// has AVX2, else in its portable copy.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn sweep_tiles_in<E: SweepEngine, T: PartialSum>(
    avx2: bool,
    engine: &E,
    grid: &CrossbarGrid,
    weights: Option<&[T]>,
    batch_codes: &[u32],
    scales: &[f32],
    scratch: &mut SweepScratch,
    outs: &mut [f32],
) -> E::Stats {
    #[cfg(target_arch = "x86_64")]
    if avx2 && host_has_avx2() {
        // SAFETY: `sweep_tiles_avx2` only requires that the CPU supports
        // AVX2, and `host_has_avx2` has just detected it at run time.
        return unsafe {
            sweep_tiles_avx2(engine, grid, weights, batch_codes, scales, scratch, outs)
        };
    }
    sweep_tiles(engine, grid, weights, batch_codes, scales, scratch, outs)
}

/// [`sweep_tiles`] compiled with AVX2 enabled: the same body, with 8-lane
/// integer vectors.
///
/// # Safety
///
/// Calling it is sound only on a CPU that supports AVX2, which is why the
/// call needs `unsafe`; [`sweep_tiles_in`] checks [`host_has_avx2`] first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_tiles_avx2<E: SweepEngine, T: PartialSum>(
    engine: &E,
    grid: &CrossbarGrid,
    weights: Option<&[T]>,
    batch_codes: &[u32],
    scales: &[f32],
    scratch: &mut SweepScratch,
    outs: &mut [f32],
) -> E::Stats {
    sweep_tiles(engine, grid, weights, batch_codes, scales, scratch, outs)
}

/// [`matmul_sweep`] on checked buffers: the integer path over the grid's
/// folded `weights` (partial sums of type `T`) when given, else the f64
/// path. Always inlined, so each caller compiles the whole body for its
/// own target features.
#[inline(always)]
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

#[cfg(test)]
mod tests {
    use forms_rng::{Rng, StdRng};
    use forms_tensor::Tensor;

    use super::*;
    use crate::{CellSpec, GridShape, LogNormalVariation};

    /// What [`TestEngine`] counts: the quantities the two real engines'
    /// statistics are built from.
    #[derive(Debug, Default, PartialEq)]
    struct TestStats {
        subarrays: u64,
        skipped: u64,
        cycles: u64,
        ones: u64,
    }

    /// A FORMS-like sign per sub-array, an ISAAC-like `bias × ones`
    /// offset, and FORMS' zero-skipping plane count.
    struct TestEngine {
        rows: usize,
        bias: u64,
        negative: Vec<bool>,
    }

    impl SweepEngine for TestEngine {
        type Stats = TestStats;

        fn subarray_rows(&self) -> usize {
            self.rows
        }

        fn sample_planes(&self, codes: &[u32], stats: &mut TestStats) -> u32 {
            let paid = 32 - codes.iter().fold(0, |a, &c| a | c).leading_zeros();
            stats.subarrays += 1;
            stats.skipped += u64::from(paid == 0);
            stats.cycles += u64::from(paid);
            paid
        }

        fn digital_step<T: PartialSum>(
            &self,
            subarray: usize,
            planes: &[u64],
            words: usize,
            sums: &[T],
            accs: &mut [i64],
            stats: &mut TestStats,
        ) {
            let mut offset = 0i64;
            for (plane, mask) in planes.chunks_exact(words).enumerate() {
                let ones = crate::plane_ones(mask);
                stats.ones += ones;
                offset += ((self.bias * ones) << plane) as i64;
            }
            for (acc, &sum) in accs.iter_mut().zip(sums) {
                let sum = sum.into() - offset;
                *acc += if self.negative[subarray] { -sum } else { sum };
            }
        }
    }

    /// The sweep's AVX2 copy (`avx2`) or its portable copy, on the image
    /// `matmul_sweep` reads.
    fn sweep_copy(
        avx2: bool,
        engine: &TestEngine,
        grid: &CrossbarGrid,
        codes: &[u32],
        scales: &[f32],
        outs: &mut [f32],
    ) -> TestStats {
        let scratch = &mut SweepScratch::default();
        match grid.read_image() {
            ReadImage::Narrow(w) => {
                sweep_tiles_in(avx2, engine, grid, Some(w), codes, scales, scratch, outs)
            }
            ReadImage::Wide(w) => {
                sweep_tiles_in(avx2, engine, grid, Some(w), codes, scales, scratch, outs)
            }
            ReadImage::Analog => {
                sweep_tiles_in::<_, i64>(avx2, engine, grid, None, codes, scales, scratch, outs)
            }
        }
    }

    /// Maps a seeded `rows × cols` matrix (a tenth of it zero) at `shape`
    /// with an ISAAC-style biased encoding, and a matching engine.
    fn grid_and_engine(rows: usize, cols: usize, shape: GridShape) -> (CrossbarGrid, TestEngine) {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ rows as u64 ^ (cols as u64) << 20);
        let matrix = Tensor::from_fn(&[rows, cols], |_| {
            if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        });
        let (row_index, col_index) = CrossbarGrid::compact(&matrix).unwrap();
        let bias = 1u64 << (shape.weight_bits - 1);
        let grid = CrossbarGrid::new(&matrix, row_index, col_index, shape, bias, |k| {
            (k + bias as i64) as u32
        })
        .unwrap();
        let subarrays = grid.row_index().len().div_ceil(shape.subarray_rows);
        let negative = (0..subarrays).map(|_| rng.gen_bool(0.5)).collect();
        let engine = TestEngine {
            rows: shape.subarray_rows,
            bias,
            negative,
        };
        (grid, engine)
    }

    /// Seeded input codes for `samples` samples: a quarter of the codes
    /// zero, each sample at its own code width, and one all-zero sample.
    fn seeded_codes(grid: &CrossbarGrid, samples: usize) -> (Vec<u32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(0xC0DE5 ^ samples as u64);
        let bits = grid.input_bits();
        let mut codes = Vec::new();
        for s in 0..samples {
            let width = if s == 1 { 0 } else { rng.gen_range(1..=bits) };
            codes.extend((0..grid.input_len()).map(|_| {
                let code = rng.gen_range(0..=u32::MAX >> (32 - bits));
                if width == 0 || rng.gen_bool(0.25) {
                    0
                } else {
                    code >> (bits - width)
                }
            }));
        }
        let scales = (0..samples).map(|s| 0.5 + s as f32 / 64.0).collect();
        (codes, scales)
    }

    fn shape(crossbar_dim: usize, subarray_rows: usize, input_bits: u32) -> GridShape {
        GridShape {
            crossbar_dim,
            subarray_rows,
            cell: CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits,
        }
    }

    #[test]
    fn avx2_copy_runs_from_32_compact_columns() {
        for (cols, wide_enough) in [
            (8, false),
            (16, false),
            (31, false),
            (32, true),
            (128, true),
        ] {
            let (grid, _) = grid_and_engine(72, cols, shape(32, 4, 16));
            assert_eq!(grid.col_index.len(), cols, "no all-zero column");
            assert_eq!(
                sweep_uses_avx2(&grid),
                wide_enough && host_has_avx2(),
                "{cols} columns"
            );
        }
    }

    #[test]
    fn avx2_copy_matches_the_portable_copy_bitwise() {
        if !host_has_avx2() {
            eprintln!("skipped: this CPU lacks AVX2, so the sweep runs only its portable copy");
            return;
        }
        let table5 = grid_and_engine(1152, 128, shape(128, 8, 16));
        let vgg_l1 = grid_and_engine(72, 16, shape(32, 4, 16));
        let wide = grid_and_engine(80, 24, shape(32, 8, 31));
        let (mut drifted, drifted_engine) = grid_and_engine(96, 20, shape(32, 4, 16));
        let mut rng = StdRng::seed_from_u64(0xD21F7);
        for xbar in drifted.crossbars_mut() {
            LogNormalVariation::new(0.0, 0.05).apply(xbar, &mut rng);
        }
        let cases = [
            ("Table-V", table5, "narrow"),
            ("vgg L1", vgg_l1, "narrow"),
            ("31-bit inputs", wide, "wide"),
            ("drifted", (drifted, drifted_engine), "analog"),
        ];
        for (name, (grid, engine), image) in cases {
            let kind = match grid.read_image() {
                ReadImage::Narrow(_) => "narrow",
                ReadImage::Wide(_) => "wide",
                ReadImage::Analog => "analog",
            };
            assert_eq!(kind, image, "{name}: read image");
            // Two tiles: one full, one partial.
            let samples = MATMUL_TILE + 3;
            let (codes, scales) = seeded_codes(&grid, samples);
            let mut want = vec![0.0f32; samples * grid.output_len()];
            let want_stats = sweep_copy(false, &engine, &grid, &codes, &scales, &mut want);
            let mut got = vec![f32::NAN; want.len()];
            let got_stats = sweep_copy(true, &engine, &grid, &codes, &scales, &mut got);
            assert!(want.iter().any(|&v| v != 0.0), "{name}: all-zero outputs");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{name}: outputs");
            assert_eq!(got_stats, want_stats, "{name}: statistics");
        }
    }
}
