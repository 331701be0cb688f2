//! PRIME-style positive/negative crossbar splitting (paper §II-B, the
//! "general way" of handling signed weights, refs. \[17, 26–28, 41\]).

use forms_reram::{Adc, BitSlicer, CellSpec, Crossbar};
use forms_tensor::Tensor;

/// A signed weight matrix mapped as two magnitude-only crossbar sets: one
/// holding positive weights, one holding negative weights. The digital
/// back-end subtracts the negative array's result — at the cost of
/// doubling the ReRAM arrays, which is exactly the overhead FORMS'
/// polarization removes.
#[derive(Clone, Debug)]
pub struct SplitLayer {
    crossbar_dim: usize,
    input_bits: u32,
    step: f32,
    orig_rows: usize,
    orig_cols: usize,
    positive: Vec<Crossbar>,
    negative: Vec<Crossbar>,
    xb_cols: usize,
    adc: Adc,
    slicer: BitSlicer,
}

impl SplitLayer {
    /// Maps a signed matrix onto a positive and a negative crossbar set.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not rank-2 or `weight_bits < 2`.
    pub fn map_with(
        matrix: &Tensor,
        weight_bits: u32,
        input_bits: u32,
        crossbar_dim: usize,
        cell: CellSpec,
    ) -> Self {
        assert_eq!(matrix.shape().rank(), 2, "expected a [rows, cols] matrix");
        assert!(weight_bits >= 2, "need at least 2 weight bits");
        let (rows, cols) = (matrix.dims()[0], matrix.dims()[1]);
        let levels = ((1u64 << weight_bits) - 1) as f32;
        let abs_max = matrix.abs_max();
        let step = if abs_max > 0.0 { abs_max / levels } else { 1.0 };
        let slicer = BitSlicer::new(weight_bits, cell.bits());
        let cpw = slicer.cells_per_weight();
        let xb_rows = rows.div_ceil(crossbar_dim);
        let xb_cols = (cols * cpw).div_ceil(crossbar_dim);
        let mut positive = vec![Crossbar::new(crossbar_dim, crossbar_dim, cell); xb_rows * xb_cols];
        let mut negative = positive.clone();
        for r in 0..rows {
            for c in 0..cols {
                let w = matrix.data()[r * cols + c];
                if w == 0.0 {
                    continue;
                }
                let code = ((w.abs() / step).round() as u32).min(levels as u32);
                let target = if w > 0.0 {
                    &mut positive
                } else {
                    &mut negative
                };
                let (xr, row_in_xb) = (r / crossbar_dim, r % crossbar_dim);
                for (k, &s) in slicer.slice(code).iter().enumerate() {
                    let cell_col = c * cpw + k;
                    let (xc, col_in_xb) = (cell_col / crossbar_dim, cell_col % crossbar_dim);
                    target[xr * xb_cols + xc].program_cell(row_in_xb, col_in_xb, s);
                }
            }
        }
        let adc = Adc::for_fragment(crossbar_dim, &cell);
        Self {
            crossbar_dim,
            input_bits,
            step,
            orig_rows: rows,
            orig_cols: cols,
            positive,
            negative,
            xb_cols,
            adc,
            slicer,
        }
    }

    /// Total physical crossbars — twice what a polarized mapping needs.
    pub fn crossbar_count(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// Weight quantization step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Executes the split MVM: positive-array result minus negative-array
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the row count.
    pub fn matvec(&self, input_codes: &[u32], input_scale: f32) -> Vec<f32> {
        assert_eq!(input_codes.len(), self.orig_rows, "input length mismatch");
        let pos = self.half_matvec(&self.positive, input_codes);
        let neg = self.half_matvec(&self.negative, input_codes);
        (0..self.orig_cols)
            .map(|c| (pos[c] - neg[c]) as f32 * self.step * input_scale)
            .collect()
    }

    fn half_matvec(&self, arrays: &[Crossbar], input_codes: &[u32]) -> Vec<i64> {
        let dim = self.crossbar_dim;
        let cpw = self.slicer.cells_per_weight();
        let cell_bits = self.slicer.cell_bits();
        let mut accs = vec![0i64; self.orig_cols];
        for (block, rows) in (0..self.orig_rows)
            .collect::<Vec<_>>()
            .chunks(dim)
            .enumerate()
        {
            let codes: Vec<u32> = rows.iter().map(|&r| input_codes[r]).collect();
            let window = 0..codes.len();
            for (c, acc) in accs.iter_mut().enumerate() {
                let mut slice_acc = vec![0u64; cpw];
                for plane in 0..self.input_bits {
                    let drives: Vec<f64> = codes
                        .iter()
                        .map(|&v| if (v >> plane) & 1 == 1 { 1.0 } else { 0.0 })
                        .collect();
                    for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                        let cell_col = c * cpw + k;
                        let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                        let current = arrays[block * self.xb_cols + xc].column_current(
                            col_in_xb,
                            &drives,
                            window.clone(),
                        );
                        let code = self.adc.convert(current, arrays[0].spec());
                        *acc_k += u64::from(code) << plane;
                    }
                }
                let mut total = 0u64;
                for &s in &slice_acc {
                    total = (total << cell_bits) + s;
                }
                *acc += total as i64;
            }
        }
        accs
    }
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
    fn split_uses_twice_the_crossbars() {
        let w = Tensor::ones(&[16, 4]);
        let layer = SplitLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit());
        // One 16×16 crossbar would hold 16 rows × 4 weights; split needs 2.
        assert_eq!(layer.crossbar_count(), 2);
    }
}
