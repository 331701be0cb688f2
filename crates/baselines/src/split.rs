//! PRIME-style positive/negative crossbar splitting (paper §II-B, the
//! "general way" of handling signed weights, refs. \[17, 26–28, 41\]).

use forms_reram::{CellSpec, CrossbarGrid, GridShape};
use forms_tensor::Tensor;

/// A signed weight matrix mapped as two magnitude-only crossbar sets: one
/// holding positive weights, one holding negative weights. The digital
/// back-end subtracts the negative array's result — at the cost of
/// doubling the ReRAM arrays, which is exactly the overhead FORMS'
/// polarization removes.
#[derive(Clone, Debug)]
pub struct SplitLayer {
    positive: CrossbarGrid,
    negative: CrossbarGrid,
}

impl SplitLayer {
    /// Maps a signed matrix onto a positive and a negative crossbar set,
    /// every row and column kept.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not rank-2, `weight_bits` is outside `2..=32`,
    /// or [`CrossbarGrid::new`] rejects the shape.
    pub fn map_with(
        matrix: &Tensor,
        weight_bits: u32,
        input_bits: u32,
        crossbar_dim: usize,
        cell: CellSpec,
    ) -> Self {
        assert_eq!(matrix.shape().rank(), 2, "expected a [rows, cols] matrix");
        assert!(weight_bits >= 2, "need at least 2 weight bits");
        let shape = GridShape {
            crossbar_dim,
            subarray_rows: crossbar_dim,
            cell,
            weight_bits,
            input_bits,
        };
        let half = |encode: fn(i64) -> u32| {
            let (rows, cols) = (matrix.dims()[0], matrix.dims()[1]);
            CrossbarGrid::new(
                matrix,
                (0..rows).collect(),
                (0..cols).collect(),
                shape,
                0,
                encode,
            )
            .expect("the crossbar grid rejected the split layer's shape")
        };
        Self {
            positive: half(|k| k.max(0) as u32),
            negative: half(|k| (-k).max(0) as u32),
        }
    }

    /// Total physical crossbars — twice what a polarized mapping needs.
    pub fn crossbar_count(&self) -> usize {
        self.positive.crossbars().len() + self.negative.crossbars().len()
    }

    /// Weight quantization step.
    pub fn step(&self) -> f32 {
        self.positive.step()
    }

    /// Executes the split MVM: positive-array result minus negative-array
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the row count or a code
    /// exceeds `input_bits`.
    pub fn matvec(&self, input_codes: &[u32], input_scale: f32) -> Vec<f32> {
        self.positive.validate_input_codes(input_codes);
        let pos = half_matvec(&self.positive, input_codes);
        let neg = half_matvec(&self.negative, input_codes);
        let diff: Vec<i64> = pos.iter().zip(&neg).map(|(p, n)| p - n).collect();
        let mut out = vec![0.0f32; self.positive.output_len()];
        self.positive.scatter(&diff, input_scale, &mut out);
        out
    }
}

/// One crossbar set's column accumulators: every row block driven with
/// every input bit plane.
fn half_matvec(grid: &CrossbarGrid, input_codes: &[u32]) -> Vec<i64> {
    let dim = grid.crossbar_dim();
    let mut accs = vec![0i64; grid.output_len()];
    for (block, codes) in input_codes.chunks(dim).enumerate() {
        let totals = grid.reference_read(block * dim, &grid.bit_planes(codes), |c| c);
        for (acc, total) in accs.iter_mut().zip(totals) {
            *acc += total as i64;
        }
    }
    accs
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_tensor::QuantizedTensor;

    #[test]
    fn split_matvec_matches_signed_reference() {
        let w = Tensor::from_fn(&[12, 3], |i| ((i * 29 % 13) as f32 / 6.0) - 1.0);
        let layer = SplitLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit());
        let x = Tensor::from_fn(&[12], |i| (i as f32 * 0.17).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let got = layer.matvec(q.codes(), q.spec().scale());
        // Reference with quantized weights.
        let wq = w.map(|v| (v / layer.step()).round() * layer.step());
        let reference = wq.transpose().matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 2e-3, "{g} vs {r}");
        }
    }

    #[test]
    fn split_matvec_is_the_integer_product_of_its_stored_codes() {
        // On a lossless grid every conversion is exact, so the reference
        // read must give Σ (pos − neg) code × input, times step and scale,
        // bit for bit — over three row blocks (a partial tail) and weights
        // straddling two crossbar columns.
        let (rows, cols) = (40, 5);
        let w = Tensor::from_fn(&[rows, cols], |i| ((i * 29 % 13) as f32 / 6.0) - 1.0);
        let layer = SplitLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit());
        assert!(layer.positive.integer_path() && layer.negative.integer_path());
        for seed in 0..4u64 {
            let codes: Vec<u32> = (0..rows)
                .map(|i| ((i as u64 * 37 + seed * 101) % 256) as u32)
                .collect();
            let scale = 0.013;
            let want: Vec<f32> = (0..cols)
                .map(|c| {
                    let acc: i64 = (0..rows)
                        .map(|r| {
                            let code = layer.positive.stored_code(r, c) as i64
                                - layer.negative.stored_code(r, c) as i64;
                            code * i64::from(codes[r])
                        })
                        .sum();
                    acc as f32 * layer.step() * scale
                })
                .collect();
            assert_eq!(layer.matvec(&codes, scale), want, "seed {seed}");
        }
    }

    #[test]
    fn wide_weights_store_their_top_code() {
        // The weight at abs_max stores 2^wb − 1 even where the f32 image
        // of that level rounds up past it.
        let w = Tensor::from_fn(&[8, 2], |i| if i == 5 { -2.0 } else { 0.5 });
        for weight_bits in [25, 28, 31] {
            let layer = SplitLayer::map_with(&w, weight_bits, 8, 16, CellSpec::paper_2bit());
            assert_eq!(layer.negative.stored_code(2, 1), (1 << weight_bits) - 1);
            assert_eq!(layer.positive.stored_code(2, 1), 0);
        }
    }

    #[test]
    fn split_uses_twice_the_crossbars() {
        let w = Tensor::ones(&[16, 4]);
        let layer = SplitLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit());
        // One 16×16 crossbar would hold 16 rows × 4 weights; split needs 2.
        assert_eq!(layer.crossbar_count(), 2);
    }
}
