//! Data converter transfer functions.

use crate::CellSpec;

/// An ADC quantizing a column current (in code units) to an output code,
/// saturating at full scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adc {
    bits: u32,
    full_scale: f64,
}

impl Adc {
    /// Creates an ADC with `bits` resolution over `full_scale` code units.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 16, or `full_scale` is not positive.
    pub fn new(bits: u32, full_scale: f64) -> Self {
        assert!((1..=16).contains(&bits), "ADC bits must be in 1..=16");
        assert!(full_scale > 0.0, "full scale must be positive");
        Self { bits, full_scale }
    }

    /// An ADC sized for a `fragment_rows`-row fragment of `spec` cells:
    /// exactly enough resolution and range to convert the fragment's
    /// largest possible accumulated value,
    /// `fragment_rows * (2^cell_bits - 1)`, *losslessly*. Resolution is
    /// clamped to the physically buildable `1..=16` bits, so absurdly
    /// large fragments saturate at 16 bits rather than panicking.
    ///
    /// This is the per-layer ADC of a precision plan: a layer mapped at a
    /// smaller fragment (or narrower cells) gets a cheaper converter.
    pub fn for_fragment(fragment_rows: usize, spec: &CellSpec) -> Self {
        let max = (fragment_rows as u64 * spec.max_code() as u64).max(1);
        let bits = (64 - max.leading_zeros()).clamp(1, 16);
        // Full scale sits on the top code so each ADC level is exactly one
        // code unit — integer inputs convert without rounding error.
        Self::new(bits, ((1u64 << bits) - 1) as f64)
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale input in code units.
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// Number of output levels.
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Converts a current in code units to an output code, rounding to the
    /// nearest level and saturating at full scale.
    #[inline]
    pub fn convert(&self, current: f64) -> u32 {
        let max_code = (self.levels() - 1) as f64;
        let code = (current / self.full_scale * max_code).round();
        code.clamp(0.0, max_code) as u32
    }

    /// The value (in code units) an output code represents.
    pub fn reconstruct(&self, code: u32) -> f64 {
        code as f64 * self.full_scale / (self.levels() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_adc_is_lossless_for_fragment() {
        let spec = CellSpec::paper_2bit();
        let adc = Adc::for_fragment(8, &spec);
        // Max value 8 × 3 = 24 → needs 5 bits.
        assert_eq!(adc.bits(), 5);
        for v in 0..=24u32 {
            assert_eq!(adc.convert(v as f64), v);
            assert!((adc.reconstruct(adc.convert(v as f64)) - v as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn adc_saturates_at_full_scale() {
        let adc = Adc::new(4, 15.0);
        assert_eq!(adc.convert(100.0), 15);
        assert_eq!(adc.convert(-5.0), 0);
    }

    #[test]
    fn adc_rounds_to_nearest_level() {
        let adc = Adc::new(4, 15.0);
        assert_eq!(adc.convert(7.4), 7);
        assert_eq!(adc.convert(7.6), 8);
    }

    #[test]
    fn underresolved_adc_loses_information() {
        // A 4-bit ADC over a 24-unit range cannot represent all 25 values.
        let adc = Adc::new(4, 24.0);
        let distinct: std::collections::HashSet<u32> =
            (0..=24u32).map(|v| adc.convert(v as f64)).collect();
        assert!(distinct.len() < 25);
    }

    #[test]
    fn for_fragment_single_row() {
        let spec = CellSpec::new(1, 1.0, 2.0);
        let adc = Adc::for_fragment(1, &spec);
        assert_eq!(adc.bits(), 1);
    }

    #[test]
    fn for_fragment_clamps_resolution_to_buildable_range() {
        // Tiny fragment: a single 1-bit cell needs only the 1-bit floor.
        let narrow = CellSpec::new(1, 1.0, 2.0);
        assert_eq!(Adc::for_fragment(1, &narrow).bits(), 1);
        // Huge fragment: 2^20 rows of 2-bit cells would want 22 bits;
        // the converter saturates at the 16-bit ceiling instead.
        let spec = CellSpec::paper_2bit();
        let adc = Adc::for_fragment(1 << 20, &spec);
        assert_eq!(adc.bits(), 16);
        assert_eq!(adc.full_scale(), ((1u64 << 16) - 1) as f64);
    }
}
