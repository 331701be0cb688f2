//! The ISAAC crossbar engine: [`IsaacConfig`] and the
//! [`CrossbarEngine`]/[`FaultableEngine`] impls that let a whole DNN run
//! through offset-encoded crossbars as `Executor<IsaacLayer>` — the
//! apples-to-apples counterpart of FORMS's `Executor<MappedLayer>`, used
//! by the comparative experiments.
//!
//! Both designs drive the same shared execution core
//! ([`forms_exec::Executor`]): the network walk, im2col, activation
//! quantization, per-layer statistics and parallel batch execution are
//! identical code, so any measured difference between the designs comes
//! from the crossbar engines themselves, not the harness.
//!
//! Unlike FORMS, ISAAC needs no polarization: any trained network maps
//! directly. The price is the per-input-bit ones-counting and offset
//! subtraction, which the statistics expose.

use forms_exec::{
    CrossbarEngine, EngineHealth, ExecError, FaultCampaign, FaultReport, FaultableEngine,
};
use forms_hwmodel::{Activity, DynamicActivity};
use forms_reram::{matmul_sweep, SweepScratch};
use forms_tensor::Tensor;

use crate::isaac::{IsaacLayer, IsaacStats};

/// Configuration of the ISAAC executor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IsaacConfig {
    /// Crossbar dimension (128 in the paper).
    pub crossbar_dim: usize,
    /// ReRAM cell spec.
    pub cell: forms_reram::CellSpec,
    /// Weight bits (offset-encoded).
    pub weight_bits: u32,
    /// Activation bits.
    pub input_bits: u32,
}

impl IsaacConfig {
    /// The paper's ISAAC configuration (128×128, 2-bit cells, 16-bit
    /// inputs, 8-bit weights for the quantized variant).
    pub fn paper() -> Self {
        Self {
            crossbar_dim: 128,
            cell: forms_reram::CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 16,
        }
    }

    /// ReRAM cells per offset-encoded weight (bit slices).
    pub fn cells_per_weight(&self) -> usize {
        self.weight_bits.div_ceil(self.cell.bits()) as usize
    }
}

impl CrossbarEngine for IsaacLayer {
    type Config = IsaacConfig;
    type Stats = IsaacStats;
    type Scratch = SweepScratch;

    fn map_matrix(matrix: &Tensor, config: &IsaacConfig) -> Result<Self, ExecError> {
        IsaacLayer::map(matrix, *config)
    }

    fn output_len(&self) -> usize {
        self.grid.output_len()
    }

    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut SweepScratch,
        outs: &mut [f32],
    ) -> IsaacStats {
        matmul_sweep(self, &self.grid, batch_codes, scales, scratch, outs)
    }

    fn crossbar_count(&self) -> usize {
        self.grid.crossbars().len()
    }

    fn mean_input_cycles(stats: &IsaacStats) -> Option<f64> {
        // No zero-skipping: always `input_bits` cycles per row block, but
        // derive it from the measurements for symmetry with FORMS.
        (stats.row_blocks > 0).then(|| (stats.cycles as f64 / stats.row_blocks as f64).max(1.0))
    }

    fn max_input_cycles(config: &IsaacConfig) -> f64 {
        f64::from(config.input_bits)
    }

    fn precision_of(config: &IsaacConfig) -> forms_exec::LayerPrecision {
        forms_exec::LayerPrecision::new(config.weight_bits, config.input_bits)
    }

    fn with_precision(config: &IsaacConfig, precision: forms_exec::LayerPrecision) -> IsaacConfig {
        IsaacConfig {
            weight_bits: precision.weight_bits,
            input_bits: precision.input_bits,
            ..*config
        }
    }

    fn health(&self) -> EngineHealth {
        self.grid.health()
    }

    fn output_ceiling(&self) -> Option<f64> {
        Some(self.grid.ceiling())
    }
}

impl FaultableEngine for IsaacLayer {
    fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        self.grid.inject_faults(campaign, salt)
    }
}

/// [`IsaacStats`] paired with its [`IsaacConfig`], convertible into the
/// energy model's [`Activity`] record (the ISAAC counterpart of
/// `forms_arch::FormsActivity`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IsaacActivity {
    /// The measured statistics.
    pub stats: IsaacStats,
    /// The configuration they were measured under.
    pub config: IsaacConfig,
}

impl DynamicActivity for IsaacActivity {
    fn activity(&self) -> Activity {
        Activity {
            shift_cycles: self.stats.cycles,
            adc_conversions: self.stats.adc_conversions,
            // ISAAC activates every row of a crossbar block each cycle.
            rows_per_cycle: self.config.crossbar_dim as u64,
            cells_per_conversion: self.config.cells_per_weight() as u64,
            // One shift-&-add per conversion plus one per offset
            // subtraction (the correction is extra digital work).
            shift_add_ops: self.stats.adc_conversions + self.stats.offset_subtractions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_dnn::{Layer, Network};
    use forms_exec::Executor;
    use forms_rng::StdRng;

    fn small_config() -> IsaacConfig {
        IsaacConfig {
            crossbar_dim: 16,
            cell: forms_reram::CellSpec::paper_2bit(),
            weight_bits: 8,
            input_bits: 12,
        }
    }

    fn small_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::conv2d(&mut rng, 1, 4, 3, 1, 1),
            Layer::relu(),
            Layer::max_pool(2),
            Layer::flatten(),
            Layer::linear(&mut rng, 4 * 4 * 4, 3),
        ])
    }

    #[test]
    fn unpolarized_network_runs_and_tracks_reference() {
        let net = small_net(4);
        let mut isaac = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 7) as f32 / 8.0);
        let digital = net.clone().forward(&x);
        let analog = isaac.forward(&x);
        let err = analog.max_abs_diff(&digital) / digital.abs_max().max(1e-6);
        assert!(err < 0.05, "relative error {err}");
        assert!(isaac.stats().offset_subtractions > 0);
    }

    #[test]
    fn stats_reset() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, 16, 2)]);
        let mut isaac = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        isaac.forward(&Tensor::ones(&[1, 1, 4, 4]));
        assert!(isaac.stats().cycles > 0);
        isaac.reset_stats();
        assert_eq!(isaac.stats(), IsaacStats::default());
    }

    #[test]
    fn residual_network_runs() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = forms_dnn::ResidualBlock::new(
            vec![
                Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
                Layer::relu(),
                Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
            ],
            None,
        );
        let net = Network::new(vec![
            Layer::conv2d(&mut rng, 1, 2, 3, 1, 1),
            Layer::relu(),
            Layer::Residual(block),
            Layer::flatten(),
            Layer::linear(&mut rng, 2 * 4 * 4, 2),
        ]);
        let mut isaac = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32 / 16.0);
        let digital = net.clone().forward(&x);
        let analog = isaac.forward(&x);
        let err = analog.max_abs_diff(&digital) / digital.abs_max().max(1e-6);
        assert!(err < 0.08, "relative error {err}");
    }

    #[test]
    fn layer_stats_partition_the_totals() {
        let net = small_net(7);
        let mut isaac = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
        isaac.forward(&x);
        let per_layer = isaac.layer_stats();
        assert_eq!(per_layer.len(), 2); // conv + linear
        let mut sum = IsaacStats::default();
        for s in per_layer {
            forms_exec::Merge::merge(&mut sum, *s);
        }
        assert_eq!(sum, isaac.stats());
        // Conv: 64 positions × 2 images; linear: 1 × 2 images.
        assert_eq!(isaac.layer_mvms(), &[128, 2]);
    }

    #[test]
    fn layer_perfs_report_full_input_cycles() {
        let net = small_net(8);
        let mut isaac = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
        isaac.forward(&x);
        let perfs = isaac.layer_perfs(1);
        // No zero-skipping: mean cycles per block is exactly input_bits.
        assert!(perfs
            .iter()
            .all(|p| (p.input_cycles - 12.0).abs() < 1e-9 && p.crossbars > 0));
    }

    #[test]
    fn parallel_forward_matches_serial() {
        let net = small_net(9);
        let mut serial = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        let mut parallel = serial.clone();
        let x = Tensor::from_fn(&[5, 1, 8, 8], |i| (i % 9) as f32 / 9.0);
        let ys = serial.forward(&x);
        let yp = parallel.forward_parallel(&x, 3);
        assert_eq!(ys, yp, "parallel output must be bitwise identical");
        assert_eq!(serial.stats(), parallel.stats());
        assert_eq!(serial.layer_stats(), parallel.layer_stats());
        assert_eq!(serial.layer_mvms(), parallel.layer_mvms());
    }

    #[test]
    fn parallel_evaluate_matches_serial() {
        let mut rng = StdRng::seed_from_u64(10);
        let spec = forms_dnn::data::SyntheticSpec {
            classes: 3,
            channels: 1,
            height: 8,
            width: 8,
            train_per_class: 2,
            test_per_class: 4,
            noise: 0.1,
        };
        let (_, test) = spec.generate(&mut rng);
        let net = small_net(11);
        let mut serial = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap();
        let mut parallel = serial.clone();
        let a = serial.evaluate(&test, 4);
        let b = parallel.evaluate_parallel(&test, 4, 3);
        assert_eq!(a, b);
        assert_eq!(serial.stats(), parallel.stats());
    }

    #[test]
    fn all_zero_layer_surfaces_as_error() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, 16, 2)]);
        net.for_each_weight_layer(&mut |wl| {
            if let forms_dnn::WeightLayerMut::Linear(l) = wl {
                let z = Tensor::zeros(l.weight_matrix().dims());
                l.set_weight_matrix(&z);
            }
        });
        let err = Executor::<IsaacLayer>::map_network(&net, &small_config()).unwrap_err();
        assert!(matches!(err, ExecError::AllZero));
    }

    /// `Executor::map_network` maps every layer with
    /// `with_precision(config, precision_of(config))`, so that must give
    /// the configuration back unchanged.
    #[test]
    fn precision_round_trip_is_identity() {
        for config in [small_config(), IsaacConfig::paper()] {
            let p = IsaacLayer::precision_of(&config);
            assert_eq!(IsaacLayer::with_precision(&config, p), config);
        }
    }

    #[test]
    fn isaac_activity_matches_manual_record() {
        let config = small_config();
        let stats = IsaacStats {
            cycles: 120,
            adc_conversions: 480,
            ones_counted: 300,
            offset_subtractions: 300,
            row_blocks: 10,
        };
        let a = IsaacActivity { stats, config }.activity();
        assert_eq!(a.shift_cycles, 120);
        assert_eq!(a.adc_conversions, 480);
        assert_eq!(a.rows_per_cycle, 16);
        assert_eq!(a.cells_per_conversion, 4);
        assert_eq!(a.shift_add_ops, 480 + 300);
    }
}
