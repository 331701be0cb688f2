//! Per-layer constraint specifications (the sets **S**, **P**, **Q** of
//! paper Eq. (1)).

use crate::PolarizationPolicy;

/// Crossbar-aware structured pruning targets for one layer
/// (paper §III-A / §III-D1).
///
/// `filter_keep` is the paper's `α` (fraction of non-zero filters, i.e.
/// columns of the lowered matrix) and `shape_keep` is `β` (fraction of
/// non-zero filter-shape rows).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneSpec {
    /// Fraction of filter-shape rows to keep, `β ∈ (0, 1]`.
    pub shape_keep: f32,
    /// Fraction of filters (columns) to keep, `α ∈ (0, 1]`.
    pub filter_keep: f32,
}

impl PruneSpec {
    /// Keep-everything spec.
    pub fn none() -> Self {
        Self {
            shape_keep: 1.0,
            filter_keep: 1.0,
        }
    }

    /// Number of rows kept for a matrix with `rows` rows (at least 1).
    pub fn keep_rows(&self, rows: usize) -> usize {
        keep_count(rows, self.shape_keep)
    }

    /// Number of columns kept for a matrix with `cols` columns (at least 1).
    pub fn keep_cols(&self, cols: usize) -> usize {
        keep_count(cols, self.filter_keep)
    }

    /// The overall weight keep fraction (`α · β`).
    pub fn keep_fraction(&self) -> f32 {
        self.shape_keep * self.filter_keep
    }

    /// The paper-style prune *ratio* (e.g. `4×` means keeping a quarter of
    /// the weights).
    pub fn prune_ratio(&self) -> f32 {
        1.0 / self.keep_fraction()
    }
}

fn keep_count(n: usize, frac: f32) -> usize {
    assert!(
        (0.0..=1.0).contains(&frac),
        "keep fraction must be in (0, 1], got {frac}"
    );
    ((n as f32 * frac).round() as usize).clamp(1, n)
}

/// Fragment polarization spec for one layer (paper §III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolarizeSpec {
    /// Rows per crossbar sub-array (= weights per fragment), typically 4, 8
    /// or 16.
    pub fragment_size: usize,
    /// Linearisation order of filter weights.
    pub policy: PolarizationPolicy,
}

/// ReRAM-customized quantization spec (paper §III-C): weights restricted to
/// a symmetric uniform grid of `bits` total bits, where `bits` should be a
/// multiple of the per-cell resolution (2-bit cells → even `bits`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantSpec {
    /// Total weight bits (sign + magnitude), e.g. 8.
    pub bits: u32,
}

/// All constraints applied to one weight layer.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct LayerConstraints {
    /// Structured pruning, if enabled.
    pub prune: Option<PruneSpec>,
    /// Fragment polarization, if enabled.
    pub polarize: Option<PolarizeSpec>,
    /// Quantization, if enabled.
    pub quantize: Option<QuantSpec>,
}

impl LayerConstraints {
    /// The paper's full optimization stack with uniform hyperparameters.
    pub fn full(
        shape_keep: f32,
        filter_keep: f32,
        fragment_size: usize,
        policy: PolarizationPolicy,
        bits: u32,
    ) -> Self {
        Self {
            prune: Some(PruneSpec {
                shape_keep,
                filter_keep,
            }),
            polarize: Some(PolarizeSpec {
                fragment_size,
                policy,
            }),
            quantize: Some(QuantSpec { bits }),
        }
    }
}

/// Crossbar-aware adjustment of a keep count (paper §III-A): pruned
/// rows/columns only save hardware in multiples of the crossbar dimension,
/// so *keep more weights* until the stored count sits exactly on a crossbar
/// boundary — same crossbar count, strictly less accuracy risk.
///
/// Returns the adjusted keep count in `[desired_keep, total]`.
///
/// # Examples
///
/// ```
/// use forms_admm::crossbar_aware_keep;
///
/// // 300 rows, want to keep 100, crossbar dimension 128: 100 kept rows
/// // still occupy one 128-row crossbar, so keep 128 instead.
/// assert_eq!(crossbar_aware_keep(300, 100, 128), 128);
/// // Keeping 140 already needs two crossbars (256 rows of capacity);
/// // round up to use them fully — but never beyond the total.
/// assert_eq!(crossbar_aware_keep(300, 140, 128), 256);
/// assert_eq!(crossbar_aware_keep(200, 140, 128), 200);
/// ```
///
/// # Panics
///
/// Panics if `crossbar_dim` is zero or `desired_keep > total`.
pub fn crossbar_aware_keep(total: usize, desired_keep: usize, crossbar_dim: usize) -> usize {
    assert!(crossbar_dim > 0, "crossbar dimension must be positive");
    assert!(
        desired_keep <= total,
        "desired keep {desired_keep} exceeds total {total}"
    );
    if desired_keep == 0 {
        return 0;
    }
    let crossbars = desired_keep.div_ceil(crossbar_dim);
    (crossbars * crossbar_dim).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_counts_round_and_clamp() {
        let p = PruneSpec {
            shape_keep: 0.38,
            filter_keep: 0.57,
        };
        assert_eq!(p.keep_rows(100), 38);
        assert_eq!(p.keep_cols(100), 57);
        assert_eq!(p.keep_rows(1), 1); // never below 1
    }

    #[test]
    fn prune_ratio_matches_paper_example() {
        // Paper §III-D1: α=0.57, β=0.38 for 43% filter / 62% shape sparsity.
        let p = PruneSpec {
            shape_keep: 0.38,
            filter_keep: 0.57,
        };
        assert!((p.keep_fraction() - 0.2166).abs() < 1e-4);
        assert!((p.prune_ratio() - 4.6168).abs() < 1e-3);
    }

    #[test]
    fn crossbar_aware_keep_rounds_to_boundary() {
        assert_eq!(crossbar_aware_keep(256, 1, 128), 128);
        assert_eq!(crossbar_aware_keep(256, 128, 128), 128);
        assert_eq!(crossbar_aware_keep(256, 129, 128), 256);
        assert_eq!(crossbar_aware_keep(256, 0, 128), 0);
    }

    #[test]
    fn crossbar_aware_keep_never_exceeds_total() {
        assert_eq!(crossbar_aware_keep(100, 90, 128), 100);
    }

    #[test]
    fn full_constraints_populate_all_sets() {
        let c = LayerConstraints::full(0.5, 0.5, 8, PolarizationPolicy::CMajor, 8);
        assert!(c.prune.is_some() && c.polarize.is_some() && c.quantize.is_some());
        assert_eq!(c.polarize.unwrap().fragment_size, 8);
    }
}
