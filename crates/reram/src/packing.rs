//! Packed bit-plane input drive.
//!
//! The bit-serial input path feeds one *bit plane* of the fragment's input
//! codes per shift cycle. The naive representation — one `Vec<bool>` per
//! plane — costs an allocation per plane per fragment per MVM and dominates
//! simulator throughput. Packing every plane into `u64` words instead makes
//! a plane a handful of machine words: building the planes is one pass over
//! the codes, driving a plane is a set-bit scan, and nothing is allocated
//! on the MVM hot path (the caller reuses one scratch buffer).

/// Words of `u64` needed to hold one packed bit plane of `len` inputs.
pub const fn plane_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// Packs the bit planes of a *tile* of input vectors into `u64` masks in
/// one pass, LSB plane first.
///
/// `codes` holds `samples` consecutive vectors of `codes.len() / samples`
/// inputs each (sample-major). The output layout is sample-major too:
/// sample `s`, plane `p` occupies
/// `out[(s * planes + p) * words .. (s * planes + p + 1) * words]`, with
/// bit `i` (word `i / 64`, bit `i % 64`) set iff bit `p` of the sample's
/// input `i` is set. Bits at or above `planes` are dropped. `out` is
/// resized and overwritten; the words per plane are returned.
///
/// This is the MVM kernels' front end: one tile of B vectors is packed
/// once (each code scatters its set bits straight into the masks), then
/// every weight fragment/dequant window is swept once per tile instead of
/// once per sample.
///
/// # Panics
///
/// Panics if `codes.len()` is not a multiple of `samples` (for
/// `samples > 0`).
pub fn pack_tile_bit_planes(
    codes: &[u32],
    samples: usize,
    planes: u32,
    out: &mut Vec<u64>,
) -> usize {
    if samples == 0 || codes.is_empty() {
        out.clear();
        return 0;
    }
    assert!(
        codes.len().is_multiple_of(samples),
        "tile codes must hold whole samples ({} codes over {samples} samples)",
        codes.len(),
    );
    let len = codes.len() / samples;
    let words = plane_words(len);
    let stride = planes as usize * words;
    out.clear();
    out.resize(samples * stride, 0);
    let keep = if planes >= 32 {
        u32::MAX
    } else {
        (1u32 << planes) - 1
    };
    for (s, sample) in codes.chunks_exact(len).enumerate() {
        let base = s * stride;
        for (i, &code) in sample.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            let mut rest = code & keep;
            while rest != 0 {
                let p = rest.trailing_zeros() as usize;
                out[base + p * words + word] |= bit;
                rest &= rest - 1;
            }
        }
    }
    words
}

/// Whether one packed plane drives no input at all — the batched kernels
/// skip such planes outright (their column currents are identically zero).
#[inline]
pub fn plane_is_zero(mask: &[u64]) -> bool {
    mask.iter().all(|&w| w == 0)
}

/// Visits the set-bit indices of one packed plane in ascending order.
#[inline]
pub fn for_each_set_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Number of set bits in one packed plane (the plane's input `1`s).
pub fn plane_ones(mask: &[u64]) -> u64 {
    mask.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_planes_match_shifted_bits() {
        let codes = [0b1011u32, 0b0110, 0, 0b1000_0001, u16::MAX as u32];
        let mut masks = Vec::new();
        let words = pack_tile_bit_planes(&codes, 1, 16, &mut masks);
        assert_eq!(words, 1);
        for (p, &mask) in masks.iter().enumerate() {
            for (i, &c) in codes.iter().enumerate() {
                let want = (c >> p) & 1 == 1;
                let got = mask & (1 << i) != 0;
                assert_eq!(got, want, "plane {p} input {i}");
            }
        }
    }

    #[test]
    fn packing_spans_multiple_words() {
        let codes: Vec<u32> = (0..130).map(|i| (i % 2) as u32).collect();
        let mut masks = Vec::new();
        let words = pack_tile_bit_planes(&codes, 1, 4, &mut masks);
        assert_eq!(words, 3);
        assert_eq!(masks.len(), 4 * 3);
        // Plane 0 holds the odd indices; planes 1..4 are empty.
        assert_eq!(plane_ones(&masks[0..3]), 65);
        assert_eq!(plane_ones(&masks[3..]), 0);
        let mut seen = Vec::new();
        for_each_set_bit(&masks[0..3], |i| seen.push(i));
        assert_eq!(seen, (0..130).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn planes_above_the_width_are_dropped() {
        let mut masks = Vec::new();
        pack_tile_bit_planes(&[u32::MAX], 1, 3, &mut masks);
        assert_eq!(masks, vec![1, 1, 1]);
        // Every sample of a tile is masked to the same width.
        pack_tile_bit_planes(&[u32::MAX, 0b100, 0b1000], 3, 3, &mut masks);
        assert_eq!(masks, vec![1, 1, 1, 0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn tile_packing_matches_per_sample_packing() {
        let tile: Vec<u32> = (0..3u32 * 70)
            .map(|i| i.wrapping_mul(2654435761) % 997)
            .collect();
        let mut packed = Vec::new();
        let words = pack_tile_bit_planes(&tile, 3, 10, &mut packed);
        assert_eq!(words, plane_words(70));
        let stride = 10 * words;
        for (s, sample) in tile.chunks_exact(70).enumerate() {
            let mut solo = Vec::new();
            assert_eq!(pack_tile_bit_planes(sample, 1, 10, &mut solo), words);
            assert_eq!(&packed[s * stride..(s + 1) * stride], solo.as_slice());
        }
    }

    #[test]
    fn tile_packing_edge_cases() {
        let mut out = vec![5u64; 4];
        assert_eq!(pack_tile_bit_planes(&[], 0, 8, &mut out), 0);
        assert!(out.is_empty());
        // One sample: plane p holds bit p of every input.
        pack_tile_bit_planes(&[0b101u32, 0b011], 1, 3, &mut out);
        assert_eq!(out, vec![0b11, 0b10, 0b01]);
        assert!(plane_is_zero(&[0, 0]));
        assert!(!plane_is_zero(&[0, 4]));
    }

    #[test]
    fn empty_fragment_packs_to_nothing() {
        for samples in [1, 3] {
            let mut masks = vec![7u64; 3];
            let words = pack_tile_bit_planes(&[], samples, 8, &mut masks);
            assert_eq!(words, 0);
            assert!(masks.is_empty());
        }
    }
}
