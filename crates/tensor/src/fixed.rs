//! Fixed-point formats for bit-serial mixed-signal computation.
//!
//! FORMS feeds activations to the crossbar one bit per cycle through 1-bit
//! DACs, so the accelerator front-end needs an explicit unsigned fixed-point
//! representation of every activation: a `code` in `[0, 2^bits)` plus a
//! shared `scale`. The zero-skipping logic operates on the *codes* — its
//! whole premise (paper §IV-B) is that most codes have leading zeros.

use crate::Tensor;

/// An unsigned fixed-point format: `value = code * scale`, `code < 2^bits`.
///
/// # Example
///
/// ```
/// use forms_tensor::FixedSpec;
///
/// let spec = FixedSpec::new(8, 1.0 / 255.0);
/// assert_eq!(spec.quantize(1.0), 255);
/// assert_eq!(spec.quantize(2.0), 255); // saturates
/// assert!((spec.dequantize(128) - 0.50196).abs() < 1e-4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedSpec {
    bits: u32,
    scale: f32,
}

impl FixedSpec {
    /// Creates a format with `bits` magnitude bits and the given scale
    /// (value of the least-significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31, or if `scale` is not a
    /// positive finite number.
    pub fn new(bits: u32, scale: f32) -> Self {
        assert!(
            (1..=31).contains(&bits),
            "bits must be in 1..=31, got {bits}"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite, got {scale}"
        );
        Self { bits, scale }
    }

    /// Chooses the scale so that `max_value` maps to the largest code.
    ///
    /// If `max_value` is zero or negative the scale falls back to 1.0 (all
    /// codes will be zero anyway). A non-finite `max_value` — NaN or
    /// infinity leaking out of a faulted engine — yields the
    /// [`degenerate`](Self::degenerate) zero-scale spec, so every value
    /// quantizes to code 0 instead of saturating to garbage top codes.
    pub fn for_max_value(bits: u32, max_value: f32) -> Self {
        if !max_value.is_finite() {
            return Self::degenerate(bits);
        }
        let max_code = ((1u64 << bits) - 1) as f32;
        let scale = if max_value > 0.0 {
            max_value / max_code
        } else {
            1.0
        };
        Self::new(bits, scale)
    }

    /// The degenerate zero-scale format: every value quantizes to code 0
    /// and every code dequantizes to 0.0. This is the safe sink for
    /// activation tensors whose maximum is not finite; it cannot be built
    /// through [`new`](Self::new) (which rejects a zero scale).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn degenerate(bits: u32) -> Self {
        assert!(
            (1..=31).contains(&bits),
            "bits must be in 1..=31, got {bits}"
        );
        Self { bits, scale: 0.0 }
    }

    /// Whether this is the degenerate zero-scale format.
    pub fn is_degenerate(&self) -> bool {
        self.scale == 0.0
    }

    /// Number of magnitude bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Value of the least-significant bit.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Largest representable code.
    pub fn max_code(&self) -> u32 {
        ((1u64 << self.bits) - 1) as u32
    }

    /// Quantizes a non-negative value to the nearest code, saturating at the
    /// format bounds. Negative inputs clamp to 0, and the
    /// [`degenerate`](Self::degenerate) format maps everything to 0.
    pub fn quantize(&self, value: f32) -> u32 {
        if self.scale == 0.0 {
            return 0;
        }
        let code = (value / self.scale).round();
        if code <= 0.0 {
            0
        } else if code >= self.max_code() as f32 {
            self.max_code()
        } else {
            code as u32
        }
    }

    /// Real value of a code.
    pub fn dequantize(&self, code: u32) -> f32 {
        code as f32 * self.scale
    }
}

/// A single fixed-point value: a code together with its format.
///
/// # Example
///
/// ```
/// use forms_tensor::{FixedPoint, FixedSpec};
///
/// let spec = FixedSpec::new(16, 1.0 / 65535.0);
/// let x = FixedPoint::quantize(0.001, spec);
/// assert_eq!(x.effective_bits(), 7); // 0.001 * 65535 ≈ 66 = 0b1000010
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedPoint {
    code: u32,
    spec: FixedSpec,
}

impl FixedPoint {
    /// Quantizes a value into the given format.
    pub fn quantize(value: f32, spec: FixedSpec) -> Self {
        Self {
            code: spec.quantize(value),
            spec,
        }
    }

    /// Builds from a raw code.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the format's largest code.
    pub fn from_code(code: u32, spec: FixedSpec) -> Self {
        assert!(
            code <= spec.max_code(),
            "code {code} exceeds max code {}",
            spec.max_code()
        );
        Self { code, spec }
    }

    /// The raw code.
    pub fn code(&self) -> u32 {
        self.code
    }

    /// The format.
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// Number of *effective bits* (paper §IV-B): the code's bit-length after
    /// stripping leading zeros. A zero code has 0 effective bits.
    pub fn effective_bits(&self) -> u32 {
        32 - self.code.leading_zeros()
    }

    /// Bit `plane` of the code (plane 0 = LSB).
    pub fn bit(&self, plane: u32) -> bool {
        plane < 32 && (self.code >> plane) & 1 == 1
    }
}

/// A tensor quantized to a shared unsigned fixed-point format.
///
/// This is the form in which activations travel from eDRAM to the crossbar
/// input registers. It retains its source shape so results can be folded
/// back into the layer pipeline.
///
/// # Example
///
/// ```
/// use forms_tensor::{QuantizedTensor, Tensor};
///
/// let t = Tensor::from_vec(vec![0.0, 0.25, 0.5, 1.0], &[4]);
/// let q = QuantizedTensor::quantize(&t, 8);
/// let back = q.dequantize();
/// assert!(t.allclose(&back, 1.0 / 255.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedTensor {
    codes: Vec<u32>,
    spec: FixedSpec,
    dims: Vec<usize>,
}

impl QuantizedTensor {
    /// Quantizes a non-negative tensor to `bits` bits, scaling so the tensor
    /// maximum maps to the top code.
    ///
    /// Values below zero (which cannot occur after ReLU, the case this type
    /// is built for) clamp to zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=31`.
    pub fn quantize(tensor: &Tensor, bits: u32) -> Self {
        let spec = FixedSpec::for_max_value(bits, tensor.max());
        Self::quantize_with(tensor, spec)
    }

    /// Quantizes with an explicit format (for sharing one scale across
    /// tensors, e.g. a whole layer's activations).
    pub fn quantize_with(tensor: &Tensor, spec: FixedSpec) -> Self {
        Self {
            codes: tensor.data().iter().map(|&v| spec.quantize(v)).collect(),
            spec,
            dims: tensor.dims().to_vec(),
        }
    }

    /// The shared format.
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The raw codes in row-major order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The original tensor shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Reconstructs the real-valued tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.codes
                .iter()
                .map(|&c| self.spec.dequantize(c))
                .collect(),
            &self.dims,
        )
    }

    /// Per-element effective bit counts (0 for zero codes).
    pub fn effective_bits(&self) -> Vec<u32> {
        self.codes.iter().map(|c| 32 - c.leading_zeros()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_quantize_saturates_and_clamps() {
        let spec = FixedSpec::new(4, 1.0);
        assert_eq!(spec.quantize(-3.0), 0);
        assert_eq!(spec.quantize(7.4), 7);
        assert_eq!(spec.quantize(100.0), 15);
        assert_eq!(spec.max_code(), 15);
    }

    #[test]
    fn for_max_value_puts_max_at_top_code() {
        let spec = FixedSpec::for_max_value(8, 4.0);
        assert_eq!(spec.quantize(4.0), 255);
    }

    #[test]
    fn for_max_value_degenerate_zero() {
        let spec = FixedSpec::for_max_value(8, 0.0);
        assert_eq!(spec.quantize(0.0), 0);
    }

    #[test]
    fn non_finite_max_yields_degenerate_spec() {
        // Regression: a faulted engine can push NaN/inf activations into
        // the quantizer. Infinity used to blow the `new` assert via an
        // infinite scale; NaN fell back to scale 1.0 and saturated every
        // infinite value to the top code. Both must collapse to zeros.
        for max in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let spec = FixedSpec::for_max_value(8, max);
            assert!(spec.is_degenerate(), "max {max} must degenerate");
            for v in [0.0, 1.0, f32::INFINITY, f32::NAN, -3.0] {
                assert_eq!(spec.quantize(v), 0, "degenerate quantize({v})");
            }
            assert_eq!(spec.dequantize(255), 0.0);
        }
        // Finite maxima are unaffected.
        assert!(!FixedSpec::for_max_value(8, 4.0).is_degenerate());
    }

    #[test]
    fn degenerate_tensor_quantizes_to_all_zero_codes() {
        let t = Tensor::from_vec(vec![1.0, f32::INFINITY, 0.5], &[3]);
        let q = QuantizedTensor::quantize(&t, 8);
        assert!(q.spec().is_degenerate());
        assert_eq!(q.codes(), &[0, 0, 0]);
        assert_eq!(q.dequantize().data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn new_still_rejects_zero_scale() {
        FixedSpec::new(8, 0.0);
    }

    #[test]
    fn effective_bits_counts_significant_bits() {
        let spec = FixedSpec::new(16, 1.0);
        assert_eq!(FixedPoint::from_code(0, spec).effective_bits(), 0);
        assert_eq!(FixedPoint::from_code(1, spec).effective_bits(), 1);
        assert_eq!(FixedPoint::from_code(0b1011, spec).effective_bits(), 4);
        assert_eq!(FixedPoint::from_code(0xFFFF, spec).effective_bits(), 16);
    }

    #[test]
    fn bit_access_matches_binary() {
        let spec = FixedSpec::new(8, 1.0);
        let x = FixedPoint::from_code(0b1010, spec);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(!x.bit(2));
        assert!(x.bit(3));
        assert!(!x.bit(31));
    }

    #[test]
    #[should_panic(expected = "exceeds max code")]
    fn from_code_rejects_overflow() {
        FixedPoint::from_code(16, FixedSpec::new(4, 1.0));
    }

    #[test]
    fn quantize_round_trip_error_bounded() {
        let t = Tensor::from_fn(&[64], |i| (i as f32 / 63.0).powi(2) * 3.0);
        let q = QuantizedTensor::quantize(&t, 12);
        let err = t.max_abs_diff(&q.dequantize());
        assert!(
            err <= q.spec().scale() / 2.0 + 1e-6,
            "error {err} too large"
        );
    }

    #[test]
    fn shared_spec_across_tensors() {
        let spec = FixedSpec::for_max_value(8, 10.0);
        let a = Tensor::from_vec(vec![5.0], &[1]);
        let b = Tensor::from_vec(vec![10.0], &[1]);
        let qa = QuantizedTensor::quantize_with(&a, spec);
        let qb = QuantizedTensor::quantize_with(&b, spec);
        assert_eq!(qb.codes()[0], 255);
        assert!((qa.codes()[0] as f32 - 127.5).abs() <= 0.5);
    }
}
