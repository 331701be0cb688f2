//! Data converter transfer functions.

use crate::CellSpec;

/// A 1-bit DAC: maps an input bit to a read voltage (paper §IV, "the output
/// of DAC becomes the analog input of the ReRAM crossbars"; FORMS and ISAAC
/// both use 1-bit DACs and feed inputs bit-serially).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dac {
    v_read: f64,
}

impl Dac {
    /// Creates a DAC with the given read voltage (volts).
    ///
    /// # Panics
    ///
    /// Panics if `v_read` is not positive.
    pub fn new(v_read: f64) -> Self {
        assert!(v_read > 0.0, "read voltage must be positive");
        Self { v_read }
    }

    /// The read voltage.
    pub fn v_read(&self) -> f64 {
        self.v_read
    }

    /// Drive voltage for one input bit, normalized to code units (1.0 for a
    /// set bit so that crossbar currents stay in integer code units).
    pub fn drive(&self, bit: bool) -> f64 {
        if bit {
            1.0
        } else {
            0.0
        }
    }
}

impl Default for Dac {
    fn default() -> Self {
        Self::new(0.3)
    }
}

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
    /// nearest level and saturating at full scale. `spec` is accepted for
    /// interface symmetry with the crossbar (code units are defined by the
    /// cell spec).
    #[inline]
    pub fn convert(&self, current: f64, _spec: &CellSpec) -> u32 {
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
            assert_eq!(adc.convert(v as f64, &spec), v);
            assert!((adc.reconstruct(adc.convert(v as f64, &spec)) - v as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn adc_saturates_at_full_scale() {
        let spec = CellSpec::paper_2bit();
        let adc = Adc::new(4, 15.0);
        assert_eq!(adc.convert(100.0, &spec), 15);
        assert_eq!(adc.convert(-5.0, &spec), 0);
    }

    #[test]
    fn adc_rounds_to_nearest_level() {
        let spec = CellSpec::paper_2bit();
        let adc = Adc::new(4, 15.0);
        assert_eq!(adc.convert(7.4, &spec), 7);
        assert_eq!(adc.convert(7.6, &spec), 8);
    }

    #[test]
    fn underresolved_adc_loses_information() {
        // A 4-bit ADC over a 24-unit range cannot represent all 25 values.
        let spec = CellSpec::paper_2bit();
        let adc = Adc::new(4, 24.0);
        let distinct: std::collections::HashSet<u32> =
            (0..=24u32).map(|v| adc.convert(v as f64, &spec)).collect();
        assert!(distinct.len() < 25);
    }

    #[test]
    fn dac_drive_levels() {
        let dac = Dac::default();
        assert_eq!(dac.drive(true), 1.0);
        assert_eq!(dac.drive(false), 0.0);
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
