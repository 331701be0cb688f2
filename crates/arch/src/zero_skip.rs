//! Effective input cycles and the zero-skipping logic (paper §IV-B, Fig. 7
//! and Fig. 9).
//!
//! Inputs are fed to the crossbar bit-serially, least-significant bit
//! first, from parallel-in/serial-out shift registers. Every cycle the
//! remaining register contents are NOR-ed per input and AND-ed across the
//! fragment; the moment every register is empty the skip signal fires and
//! the remaining (all-zero, most-significant) cycles are skipped. The
//! number of cycles actually spent equals the fragment's *effective input
//! cycles* (EIC): the maximum effective bit count over the fragment's
//! inputs.

/// Number of *effective bits* of an input code: its bit length after
/// stripping leading zeros (paper Fig. 7). Zero has 0 effective bits.
///
/// # Example
///
/// ```
/// use forms_arch::effective_bits;
///
/// assert_eq!(effective_bits(0), 0);
/// assert_eq!(effective_bits(0b0000_1011), 4);
/// assert_eq!(effective_bits(0b0100_0000), 7);
/// ```
pub fn effective_bits(code: u32) -> u32 {
    32 - code.leading_zeros()
}

/// The *effective input cycles* a fragment needs: the maximum effective
/// bits over all of the fragment's inputs (paper Fig. 7 — `inp₂` with 7
/// effective bits forces EIC 7 even though `inp₁` only has 6).
///
/// Returns 0 for an all-zero fragment (its computation can be skipped
/// outright).
pub fn fragment_eic(codes: &[u32]) -> u32 {
    codes.iter().copied().map(effective_bits).max().unwrap_or(0)
}

/// Cycles saved by zero-skipping relative to feeding all `input_bits` bits.
///
/// # Panics
///
/// Panics if any code needs more than `input_bits` bits.
pub fn cycles_saved(codes: &[u32], input_bits: u32) -> u32 {
    let eic = fragment_eic(codes);
    assert!(
        eic <= input_bits,
        "input code exceeds {input_bits}-bit representation (EIC {eic})"
    );
    input_bits - eic
}

/// The bank of parallel-in/serial-out shift registers feeding one fragment,
/// with the NOR/AND zero-skip detector of paper Fig. 9.
#[derive(Clone, Debug, PartialEq)]
pub struct ShiftRegisterBank {
    registers: Vec<u32>,
    cycles: u32,
}

impl ShiftRegisterBank {
    /// Loads the fragment's input codes in parallel.
    pub fn load(codes: &[u32]) -> Self {
        Self {
            registers: codes.to_vec(),
            cycles: 0,
        }
    }

    /// The skip signal: AND over the per-register NORs — true when every
    /// remaining register content is zero and shifting can stop.
    pub fn all_zero(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Shifts one cycle, returning the current LSB of every register — the
    /// bits driven onto the DACs this cycle — or `None` if the skip signal
    /// has fired and the cycle is saved.
    pub fn step(&mut self) -> Option<Vec<bool>> {
        if self.all_zero() {
            return None;
        }
        self.cycles += 1;
        let bits = self.registers.iter().map(|&r| r & 1 == 1).collect();
        for r in &mut self.registers {
            *r >>= 1;
        }
        Some(bits)
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Drains the bank, returning all bit vectors (cycle by cycle, LSB
    /// first) — exactly `fragment_eic` of them.
    pub fn drain(mut self) -> Vec<Vec<bool>> {
        let mut planes = Vec::new();
        while let Some(bits) = self.step() {
            planes.push(bits);
        }
        planes
    }
}

/// Statistics of EIC over many fragments (backs paper Fig. 8).
#[derive(Clone, Debug, PartialEq)]
pub struct EicStats {
    /// Histogram: `histogram[e]` = number of fragments with EIC `e`
    /// (index 0..=input_bits).
    pub histogram: Vec<usize>,
    /// Mean EIC over all fragments.
    pub mean: f64,
    /// Number of fragments measured.
    pub fragments: usize,
}

/// Measures EIC over consecutive fragments of `fragment_size` inputs
/// (the last fragment may be partial).
///
/// # Panics
///
/// Panics if `fragment_size` is zero or any code exceeds `input_bits` bits.
pub fn eic_stats(codes: &[u32], fragment_size: usize, input_bits: u32) -> EicStats {
    assert!(fragment_size > 0, "fragment size must be positive");
    let mut histogram = vec![0usize; input_bits as usize + 1];
    let mut total = 0u64;
    let mut fragments = 0usize;
    for chunk in codes.chunks(fragment_size) {
        let eic = fragment_eic(chunk);
        assert!(
            eic <= input_bits,
            "code exceeds {input_bits}-bit representation"
        );
        histogram[eic as usize] += 1;
        total += eic as u64;
        fragments += 1;
    }
    EicStats {
        histogram,
        mean: if fragments == 0 {
            0.0
        } else {
            total as f64 / fragments as f64
        },
        fragments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bits_examples_from_fig7() {
        // Fig. 7: a 16-bit input 0000000000101101 has 6 effective bits;
        // 0000000001001011 has 7.
        assert_eq!(effective_bits(0b101101), 6);
        assert_eq!(effective_bits(0b1001011), 7);
    }

    #[test]
    fn fragment_eic_is_max_over_inputs() {
        // Fig. 7's fragment: inp1 (6 bits) and inp2 (7 bits) → EIC 7.
        assert_eq!(fragment_eic(&[0b101101, 0b1001011]), 7);
        assert_eq!(fragment_eic(&[]), 0);
        assert_eq!(fragment_eic(&[0, 0, 0]), 0);
    }

    #[test]
    fn shift_bank_stops_after_eic_cycles() {
        let codes = [0b101101u32, 0b1001011, 0, 3];
        let mut bank = ShiftRegisterBank::load(&codes);
        let mut cycles = 0;
        while bank.step().is_some() {
            cycles += 1;
        }
        assert_eq!(cycles, fragment_eic(&codes));
        assert_eq!(bank.cycles(), 7);
    }

    #[test]
    fn shift_bank_bits_reconstruct_codes() {
        let codes = [0b1011u32, 0b0110, 0b0001];
        let planes = ShiftRegisterBank::load(&codes).drain();
        let mut rebuilt = vec![0u32; codes.len()];
        for (cycle, bits) in planes.iter().enumerate() {
            for (r, &b) in rebuilt.iter_mut().zip(bits) {
                *r |= (b as u32) << cycle;
            }
        }
        assert_eq!(rebuilt, codes);
    }

    #[test]
    fn all_zero_fragment_is_skipped_entirely() {
        let mut bank = ShiftRegisterBank::load(&[0, 0, 0, 0]);
        assert!(bank.all_zero());
        assert_eq!(bank.step(), None);
        assert_eq!(bank.cycles(), 0);
    }

    #[test]
    fn zero_skip_never_changes_the_dot_product() {
        // Feeding only EIC cycles must yield the same weighted sum as
        // feeding all 16: the skipped planes are all-zero.
        let codes = [37u32, 1200, 0, 15];
        let weights = [3u64, 1, 2, 3];
        let full: u64 = codes
            .iter()
            .zip(&weights)
            .map(|(&c, &w)| c as u64 * w)
            .sum();
        let mut acc = 0u64;
        for (cycle, bits) in ShiftRegisterBank::load(&codes).drain().iter().enumerate() {
            let plane: u64 = bits
                .iter()
                .zip(&weights)
                .map(|(&b, &w)| (b as u64) * w)
                .sum();
            acc += plane << cycle;
        }
        assert_eq!(acc, full);
    }

    #[test]
    fn cycles_saved_matches_paper_arithmetic() {
        // Average EIC 10.7 over 16 bits saves 33% of cycles (paper §IV-B).
        assert_eq!(cycles_saved(&[0b101101], 16), 10);
        assert_eq!(cycles_saved(&[0], 16), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_code_rejected_in_cycles_saved() {
        cycles_saved(&[1 << 17], 16);
    }

    #[test]
    fn drain_length_equals_eic_on_random_fragments() {
        // The shift bank must spend exactly `fragment_eic` cycles — no
        // more (zero-skipping works) and no fewer (no bits are dropped).
        use forms_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xE1C);
        for case in 0..200 {
            let len = rng.gen_range(1..=64usize);
            let codes: Vec<u32> = (0..len).map(|_| rng.gen_range(0..1u32 << 16)).collect();
            let planes = ShiftRegisterBank::load(&codes).drain();
            assert_eq!(
                planes.len(),
                fragment_eic(&codes) as usize,
                "case {case}: drain length must equal the fragment EIC"
            );
        }
    }

    #[test]
    fn drain_length_equals_eic_on_all_zero_fragment() {
        let codes = [0u32; 8];
        assert_eq!(fragment_eic(&codes), 0);
        assert!(ShiftRegisterBank::load(&codes).drain().is_empty());
    }

    #[test]
    fn drain_length_equals_eic_on_partial_fragments() {
        // Fragments narrower than the hardware width (a layer's tail
        // rows), including the degenerate empty fragment.
        for codes in [&[][..], &[5][..], &[0, 0, 9][..], &[1, 0][..]] {
            let planes = ShiftRegisterBank::load(codes).drain();
            assert_eq!(planes.len(), fragment_eic(codes) as usize);
        }
    }

    #[test]
    fn packed_planes_match_drained_planes_on_random_fragments() {
        // Property check behind the MVM kernels: for any fragment, the
        // `u64` bit planes from `pack_tile_bit_planes` drive exactly the
        // rows the shift-register bank's `drain()` planes drive, cycle for
        // cycle — alone or inside a multi-sample tile — so dot products
        // accumulated from either representation are bitwise identical.
        use forms_reram::{for_each_set_bit, pack_tile_bit_planes, plane_is_zero};
        use forms_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(99);
        let input_bits = 10u32;
        // Lengths cover sub-word, exact-word and multi-word partial tails.
        for &len in &[1usize, 3, 8, 63, 64, 65, 70, 128, 130] {
            for case in 0..8 {
                let codes: Vec<u32> = match case {
                    // All-zero fragment: zero planes on both sides.
                    0 => vec![0; len],
                    // A single driven row in an otherwise dead fragment.
                    1 => (0..len).map(|i| u32::from(i == len / 2)).collect(),
                    _ => (0..len)
                        .map(|_| rng.next_u32() & ((1 << input_bits) - 1))
                        .collect(),
                };
                let weights: Vec<f64> = (0..len)
                    .map(|_| (rng.next_u32() % 97) as f64 * 0.25)
                    .collect();
                let drained = ShiftRegisterBank::load(&codes).drain();
                let eic = fragment_eic(&codes);
                assert_eq!(drained.len(), eic as usize);
                let mut planes = Vec::new();
                let words = pack_tile_bit_planes(&codes, 1, eic, &mut planes);
                // Between full-width neighbours in a tile, the fragment
                // packs to the same planes padded with zero planes.
                let full = vec![(1 << input_bits) - 1; len];
                let mut tiled = Vec::new();
                let tile = [&full[..], &codes, &full].concat();
                pack_tile_bit_planes(&tile, 3, input_bits, &mut tiled);
                let stride = input_bits as usize * words;
                let (own, pad) = tiled[stride..2 * stride].split_at(planes.len());
                assert_eq!(own, planes.as_slice(), "tiled planes (len {len})");
                assert!(plane_is_zero(pad), "planes past the EIC (len {len})");
                for (p, bits) in drained.iter().enumerate() {
                    let mask = &planes[p * words..(p + 1) * words];
                    let mut unpacked_dot = 0.0f64;
                    let mut unpacked_rows = 0usize;
                    for (i, &b) in bits.iter().enumerate() {
                        if b {
                            unpacked_dot += weights[i];
                            unpacked_rows += 1;
                        }
                    }
                    let mut packed_dot = 0.0f64;
                    let mut packed_rows = 0usize;
                    for_each_set_bit(mask, |i| {
                        assert!(bits[i], "plane {p}: packed drives row {i}, bank does not");
                        packed_dot += weights[i];
                        packed_rows += 1;
                    });
                    assert_eq!(packed_rows, unpacked_rows, "plane {p} row count");
                    assert_eq!(
                        packed_dot.to_bits(),
                        unpacked_dot.to_bits(),
                        "plane {p}: dot products differ (len {len}, case {case})"
                    );
                }
            }
        }
    }

    #[test]
    fn eic_stats_histogram_and_mean() {
        // Fragments of 2: [3, 0] → EIC 2; [1, 1] → 1; [0, 0] → 0.
        let stats = eic_stats(&[3, 0, 1, 1, 0, 0], 2, 16);
        assert_eq!(stats.fragments, 3);
        assert_eq!(stats.histogram[2], 1);
        assert_eq!(stats.histogram[1], 1);
        assert_eq!(stats.histogram[0], 1);
        assert!((stats.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn larger_fragments_never_decrease_eic() {
        // Monotonicity: the max over a superset is ≥ the max over a subset,
        // so mean EIC grows with fragment size (the paper's Fig. 8 trend).
        let codes: Vec<u32> = (0..256).map(|i| (i * 37) % 4096).collect();
        let mut last = 0.0;
        for frag in [4usize, 8, 16, 32, 64, 128] {
            let mean = eic_stats(&codes, frag, 16).mean;
            assert!(mean >= last, "EIC decreased at fragment {frag}");
            last = mean;
        }
    }
}
