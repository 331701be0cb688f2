//! Seeded fault campaigns: reproducible stuck-at + drift injection into
//! already-mapped crossbars.
//!
//! A [`FaultCampaign`] is a *value* describing a device-degradation
//! scenario — stuck-at-low/high cell rates and a log-normal conductance
//! drift sigma — plus the seed that makes it replayable. Applying the same
//! campaign with the same salt to the same crossbar always flips the same
//! cells, so a fault sweep is a pure function of `(campaign, salt)` and
//! any observed accuracy/availability curve can be reproduced exactly.
//!
//! Unlike the lower-level [`StuckAtFault`](crate::StuckAtFault) /
//! [`LogNormalVariation`](crate::LogNormalVariation) helpers (which take a
//! caller-owned RNG), `apply` derives its RNG from the campaign seed and
//! the caller's salt and **commits the writes** before returning — the
//! packed bit-plane read paths see the faults immediately and can never
//! serve a stale hoisted table.

use forms_rng::StdRng;
use forms_rng::{Distribution, LogNormal, Rng};

use crate::Crossbar;

/// Mixes a salt component into a seed (splitmix-style odd constant).
pub(crate) fn mix_salt(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A seeded, replayable device-fault scenario.
///
/// Per cell, drift is applied first (multiplicative `exp(N(0, sigma))`),
/// then one uniform draw decides stuck-ness: `u < stuck_low_rate` pins the
/// cell at `g_min`, `u < stuck_low_rate + stuck_high_rate` at `g_max`
/// (stuck cells override drift — a dead device has no usable conductance
/// to drift).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultCampaign {
    /// Base seed; combined with the per-application salt.
    pub seed: u64,
    /// Probability a cell is stuck at `g_min` (open device).
    pub stuck_low_rate: f64,
    /// Probability a cell is stuck at `g_max` (shorted device).
    pub stuck_high_rate: f64,
    /// Log-normal drift sigma applied to every non-stuck cell
    /// (0 disables drift).
    pub drift_sigma: f64,
}

impl FaultCampaign {
    /// A pure stuck-at campaign.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]` or they sum past 1.
    pub fn stuck_at(seed: u64, stuck_low_rate: f64, stuck_high_rate: f64) -> Self {
        Self::mixed(seed, stuck_low_rate, stuck_high_rate, 0.0)
    }

    /// A pure conductance-drift campaign.
    ///
    /// # Panics
    ///
    /// Panics if `drift_sigma` is negative or not finite.
    pub fn drift(seed: u64, drift_sigma: f64) -> Self {
        Self::mixed(seed, 0.0, 0.0, drift_sigma)
    }

    /// A combined stuck-at + drift campaign.
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]`, the rates sum past 1, or
    /// `drift_sigma` is negative or not finite.
    pub fn mixed(seed: u64, stuck_low_rate: f64, stuck_high_rate: f64, drift_sigma: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&stuck_low_rate) && (0.0..=1.0).contains(&stuck_high_rate),
            "stuck rates must be in [0, 1]"
        );
        assert!(
            stuck_low_rate + stuck_high_rate <= 1.0,
            "stuck rates must sum to at most 1"
        );
        assert!(
            drift_sigma.is_finite() && drift_sigma >= 0.0,
            "drift sigma must be non-negative"
        );
        Self {
            seed,
            stuck_low_rate,
            stuck_high_rate,
            drift_sigma,
        }
    }

    /// Whether this campaign perturbs nothing.
    pub fn is_noop(&self) -> bool {
        self.stuck_low_rate == 0.0 && self.stuck_high_rate == 0.0 && self.drift_sigma == 0.0
    }

    /// Injects the campaign into one crossbar and commits the writes, so
    /// the packed read paths immediately serve the faulted cells. `salt`
    /// decorrelates applications of one campaign to different arrays
    /// (layer/crossbar indices, replica ids); the same `(campaign, salt)`
    /// always produces the same faults.
    pub fn apply(&self, xbar: &mut Crossbar, salt: u64) -> FaultReport {
        let mut rng = StdRng::seed_from_u64(mix_salt(self.seed, salt));
        let (g_min, g_max) = (xbar.spec().g_min(), xbar.spec().g_max());
        let drift = (self.drift_sigma > 0.0)
            .then(|| LogNormal::new(0.0, self.drift_sigma).expect("validated sigma"));
        let mut report = FaultReport {
            cells: xbar.rows() * xbar.cols(),
            ..FaultReport::default()
        };
        if self.is_noop() {
            return report;
        }
        for g in xbar.conductances_mut() {
            let u = rng.gen::<f64>();
            if u < self.stuck_low_rate {
                *g = g_min;
                report.stuck_low += 1;
            } else if u < self.stuck_low_rate + self.stuck_high_rate {
                *g = g_max;
                report.stuck_high += 1;
            } else if let Some(d) = &drift {
                *g *= d.sample(&mut rng);
                report.drifted += 1;
            }
        }
        xbar.commit_writes();
        report
    }
}

/// Tally of one or more campaign applications.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Cells visited.
    pub cells: usize,
    /// Cells pinned at `g_min`.
    pub stuck_low: usize,
    /// Cells pinned at `g_max`.
    pub stuck_high: usize,
    /// Cells whose conductance drifted.
    pub drifted: usize,
}

impl FaultReport {
    /// Hard-faulted (stuck) cells.
    pub fn stuck(&self) -> usize {
        self.stuck_low + self.stuck_high
    }

    /// Fraction of visited cells that are stuck (0 when no cells).
    pub fn fault_density(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.stuck() as f64 / self.cells as f64
        }
    }

    /// Folds another report's tallies into this one.
    pub fn merge(&mut self, other: &FaultReport) {
        self.cells += other.cells;
        self.stuck_low += other.stuck_low;
        self.stuck_high += other.stuck_high;
        self.drifted += other.drifted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellSpec;

    fn programmed(rows: usize, cols: usize) -> Crossbar {
        let mut xb = Crossbar::new(rows, cols, CellSpec::paper_2bit());
        let codes: Vec<u32> = (0..rows * cols).map(|i| (i % 4) as u32).collect();
        xb.program_codes(&codes);
        xb
    }

    #[test]
    fn same_seed_and_salt_replays_identically() {
        let campaign = FaultCampaign::mixed(42, 0.05, 0.05, 0.1);
        let (mut a, mut b) = (programmed(16, 16), programmed(16, 16));
        let ra = campaign.apply(&mut a, 7);
        let rb = campaign.apply(&mut b, 7);
        assert_eq!(ra, rb);
        assert_eq!(a.conductances(), b.conductances());
    }

    #[test]
    fn different_salts_decorrelate() {
        let campaign = FaultCampaign::stuck_at(42, 0.2, 0.2);
        let (mut a, mut b) = (programmed(16, 16), programmed(16, 16));
        campaign.apply(&mut a, 0);
        campaign.apply(&mut b, 1);
        assert_ne!(a.conductances(), b.conductances());
    }

    #[test]
    fn stuck_cells_pin_to_rail_conductances() {
        let spec = CellSpec::paper_2bit();
        let mut xb = programmed(8, 8);
        let report = FaultCampaign::stuck_at(1, 1.0, 0.0).apply(&mut xb, 0);
        assert_eq!(report.stuck_low, 64);
        assert_eq!(report.fault_density(), 1.0);
        assert!(xb.conductances().iter().all(|&g| g == spec.g_min()));
        let report = FaultCampaign::stuck_at(1, 0.0, 1.0).apply(&mut xb, 0);
        assert_eq!(report.stuck_high, 64);
        assert!(xb.conductances().iter().all(|&g| g == spec.g_max()));
    }

    #[test]
    fn applied_campaign_is_visible_to_packed_reads() {
        let mut xb = programmed(8, 4);
        FaultCampaign::mixed(9, 0.3, 0.3, 0.2).apply(&mut xb, 3);
        assert!(!xb.is_dirty());
        // Packed and raw reads agree bitwise on the faulted array.
        let mut packed = [0.0; 4];
        for row in 0..8 {
            xb.dequant_row_into(row, &mut packed);
            assert_eq!(packed.as_slice(), xb.column_currents(&[1.0], row..row + 1));
        }
    }

    #[test]
    fn noop_campaign_changes_nothing() {
        let mut xb = programmed(4, 4);
        let before = xb.conductances().to_vec();
        let report = FaultCampaign::stuck_at(5, 0.0, 0.0).apply(&mut xb, 0);
        assert_eq!(report.stuck(), 0);
        assert_eq!(report.drifted, 0);
        assert_eq!(xb.conductances(), before.as_slice());
    }

    #[test]
    fn reports_merge_componentwise() {
        let mut a = FaultReport {
            cells: 10,
            stuck_low: 1,
            stuck_high: 2,
            drifted: 3,
        };
        a.merge(&FaultReport {
            cells: 6,
            stuck_low: 1,
            stuck_high: 0,
            drifted: 2,
        });
        assert_eq!(a.cells, 16);
        assert_eq!(a.stuck(), 4);
        assert_eq!(a.drifted, 5);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overlapping_rates_rejected() {
        FaultCampaign::stuck_at(0, 0.7, 0.7);
    }
}
