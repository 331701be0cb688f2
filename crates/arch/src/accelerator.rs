//! End-to-end FORMS accelerator simulation: a whole DNN mapped onto
//! polarized crossbars and executed through the mixed-signal path.
//!
//! The network walk, im2col, activation quantization and batch execution
//! live in the shared execution core ([`forms_exec::Executor`]); this
//! module binds it to the polarized [`MappedLayer`] engine and adds the
//! FORMS-specific pieces — mapping configuration, row-permutation
//! construction and device-variation injection (§V-E).
//!
//! Convolution and linear layers run on [`MappedLayer`]s (im2col → bit-
//! serial crossbar MVMs → sign-indicator accumulation); pooling, ReLU,
//! batch-norm and the residual adds run in the digital units, exactly as in
//! the paper's tile (Fig. 10).
//!
//! Activations must be non-negative (the post-ReLU guarantee the paper's
//! designs rely on); quantization clamps at zero.

use forms_exec::{ExecError, Executor, PrecisionPlan};
use forms_reram::LogNormalVariation;
use forms_rng::Rng;
use forms_tensor::Tensor;

use crate::mapping::{MappedLayer, MappingConfig, MvmStats};

/// Accelerator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcceleratorConfig {
    /// Crossbar mapping parameters.
    pub mapping: MappingConfig,
    /// Activation quantization bits (16 in the paper).
    pub activation_bits: u32,
}

impl AcceleratorConfig {
    /// The paper's evaluation point at a fragment size.
    pub fn paper(fragment_size: usize) -> Self {
        Self {
            mapping: MappingConfig::paper(fragment_size),
            activation_bits: 16,
        }
    }
}

/// A DNN mapped onto the FORMS accelerator.
///
/// A thin wrapper over the shared [`Executor`] driving [`MappedLayer`]
/// engines: it holds a copy of the network (for the digital layers and
/// layer shapes) plus one mapped layer per weight layer, and executes
/// inference through the analog path while accumulating cycle statistics.
#[derive(Clone, Debug)]
pub struct Accelerator {
    exec: Executor<MappedLayer>,
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Maps a network with identity row order (W-major polarization).
    ///
    /// # Errors
    ///
    /// Returns the first layer's [`ExecError`] if any weight layer is not
    /// polarized (or is all zero).
    pub fn map_network(
        net: &forms_dnn::Network,
        config: AcceleratorConfig,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            exec: Executor::map_network(net, &config.mapping, config.activation_bits)?,
            config,
        })
    }

    /// Maps a network whose polarization was trained under per-layer row
    /// permutations (H-/C-major policies). `perms[i]` must be the policy
    /// permutation of weight layer `i` in visit order (`None` = identity),
    /// exactly as produced by `forms_admm::row_permutation`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedConfig`] if some `perms[i]` is not a
    /// permutation of that layer's rows, or an [`ExecError`] if a layer
    /// cannot be mapped.
    ///
    /// # Panics
    ///
    /// Panics if `perms.len()` differs from the weight-layer count.
    pub fn with_permutations(
        net: &forms_dnn::Network,
        config: AcceleratorConfig,
        perms: Vec<Option<Vec<usize>>>,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            exec: Executor::with_permutations(net, &config.mapping, config.activation_bits, perms)?,
            config,
        })
    }

    /// Maps a network under a per-layer [`PrecisionPlan`]: weight layer
    /// `i` maps at `plan.layer(i)`'s widths (the rest of `config.mapping`
    /// — crossbar dimension, fragment size, cell spec, zero-skipping — is
    /// shared) and quantizes its activations at `plan.layer(i).input_bits`
    /// (`config.activation_bits` is superseded by the plan). A uniform
    /// plan at the configuration's own widths is bitwise identical to
    /// [`map_network`](Self::map_network).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if a layer cannot be mapped.
    ///
    /// # Panics
    ///
    /// Panics if a per-layer plan's length differs from the weight-layer
    /// count.
    pub fn with_plan(
        net: &forms_dnn::Network,
        config: AcceleratorConfig,
        plan: PrecisionPlan,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            exec: Executor::with_plan(net, &config.mapping, plan)?,
            config,
        })
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The precision plan every layer was mapped and quantized under.
    pub fn plan(&self) -> &PrecisionPlan {
        self.exec.plan()
    }

    /// The mapping configuration each weight layer was actually mapped
    /// with (the plan-specialized per-layer view of `config.mapping`).
    pub fn layer_configs(&self) -> &[MappingConfig] {
        self.exec.layer_configs()
    }

    /// The mapped weight layers, in visit order.
    pub fn mapped_layers(&self) -> &[MappedLayer] {
        self.exec.engines()
    }

    /// Mutable access to the mapped layers (variation/fault injection).
    pub fn mapped_layers_mut(&mut self) -> &mut [MappedLayer] {
        self.exec.engines_mut()
    }

    /// Total physical crossbars used by the whole network.
    pub fn total_crossbars(&self) -> usize {
        self.exec.total_crossbars()
    }

    /// Accumulated MVM statistics since the last reset.
    pub fn stats(&self) -> MvmStats {
        self.exec.stats()
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.exec.reset_stats();
    }

    /// Accumulated statistics per weight layer (visit order) since the
    /// last reset.
    pub fn layer_stats(&self) -> &[MvmStats] {
        self.exec.layer_stats()
    }

    /// Matrix-vector activations per weight layer since the last reset.
    pub fn layer_mvms(&self) -> &[u64] {
        self.exec.layer_mvms()
    }

    /// Builds the per-layer inputs of the frame-rate model from the
    /// statistics of the inferences run so far: each layer's measured mean
    /// EIC, its crossbar footprint and its matrix-vector activations per
    /// image.
    ///
    /// # Panics
    ///
    /// Panics if no inference has been run since the last reset or
    /// `images` is zero.
    pub fn layer_perfs(&self, images: usize) -> Vec<crate::LayerPerf> {
        self.exec.layer_perfs(images)
    }

    /// Applies log-normal device variation to every crossbar of every
    /// layer (paper §V-E).
    pub fn apply_variation<R: Rng + ?Sized>(&mut self, v: &LogNormalVariation, rng: &mut R) {
        for layer in self.exec.engines_mut() {
            for xbar in layer.crossbars_mut() {
                v.apply(xbar, rng);
            }
        }
    }

    /// Runs inference on a `[N, ...]` batch through the mixed-signal path:
    /// each weight layer lowers the whole batch into one
    /// [`MappedLayer::matmul_into`](crate::MappedLayer::matmul_into) call.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.exec.forward(x)
    }

    /// Runs inference on a `[N, ...]` batch with samples distributed over
    /// worker threads (one inference session per worker, all sharing the
    /// read-only crossbars, so results are bitwise identical to
    /// [`forward`](Self::forward)). Statistics from all workers are merged.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn forward_parallel(&mut self, x: &Tensor, workers: usize) -> Tensor {
        self.exec.forward_parallel(x, workers)
    }

    /// Classification accuracy of the mapped model on a dataset.
    pub fn evaluate(&mut self, data: &forms_dnn::data::Dataset, batch_size: usize) -> f32 {
        self.exec.evaluate(data, batch_size)
    }

    /// [`evaluate`](Self::evaluate) with each batch distributed over
    /// `workers` threads through the shared executor's parallel path; the
    /// accuracy is bitwise identical to the serial run.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `workers` is zero.
    pub fn evaluate_parallel(
        &mut self,
        data: &forms_dnn::data::Dataset,
        batch_size: usize,
        workers: usize,
    ) -> f32 {
        self.exec.evaluate_parallel(data, batch_size, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_dnn::{Layer, Network, WeightLayerMut};
    use forms_rng::StdRng;

    /// Polarizes a network in place with the ADMM projection (iterated to a
    /// fixed point, since zeroing can retire rows and shift fragments) so
    /// it can be mapped.
    fn polarize_net(net: &mut Network, fragment: usize) {
        net.for_each_weight_layer(&mut |wl| {
            let mut z = match &wl {
                WeightLayerMut::Conv(c) => c.weight_matrix(),
                WeightLayerMut::Linear(l) => l.weight_matrix(),
            };
            while forms_admm::polarization_violations(&z, fragment) > 0 {
                let signs = forms_admm::fragment_signs(&z, fragment);
                z = forms_admm::project_polarization(&z, fragment, &signs);
            }
            match wl {
                WeightLayerMut::Conv(c) => c.set_weight_matrix(&z),
                WeightLayerMut::Linear(l) => l.set_weight_matrix(&z),
            }
        });
    }

    fn small_config(fragment: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: fragment,
                weight_bits: 8,
                cell: forms_reram::CellSpec::paper_2bit(),
                input_bits: 12,
                zero_skipping: true,
            },
            activation_bits: 12,
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
    fn unpolarized_network_is_rejected() {
        let net = small_net(0);
        let err = Accelerator::map_network(&net, small_config(4)).unwrap_err();
        assert!(matches!(err, ExecError::NotPolarized { .. }));
    }

    #[test]
    fn mapped_network_tracks_digital_reference() {
        let mut net = small_net(1);
        polarize_net(&mut net, 4);
        let mut acc = Accelerator::map_network(&net, small_config(4)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let x = forms_tensor::uniform(&mut rng, &[2, 1, 8, 8], 0.5).map(f32::abs);
        let digital = net.clone().forward(&x);
        let analog = acc.forward(&x);
        assert_eq!(analog.dims(), digital.dims());
        let err = analog.max_abs_diff(&digital);
        let scale = digital.abs_max().max(1e-6);
        assert!(
            err / scale < 0.05,
            "analog diverges from digital: {err} (scale {scale})"
        );
    }

    #[test]
    fn residual_network_maps_and_runs() {
        let mut rng = StdRng::seed_from_u64(3);
        let block = forms_dnn::ResidualBlock::new(
            vec![
                Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
                Layer::relu(),
                Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
            ],
            Some(Layer::conv2d(&mut rng, 2, 2, 1, 1, 0)),
        );
        let mut net = Network::new(vec![
            Layer::conv2d(&mut rng, 1, 2, 3, 1, 1),
            Layer::relu(),
            Layer::Residual(block),
            Layer::flatten(),
            Layer::linear(&mut rng, 2 * 4 * 4, 2),
        ]);
        polarize_net(&mut net, 4);
        let mut acc = Accelerator::map_network(&net, small_config(4)).unwrap();
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32 / 16.0);
        let digital = net.clone().forward(&x);
        let analog = acc.forward(&x);
        let err = analog.max_abs_diff(&digital) / digital.abs_max().max(1e-6);
        assert!(err < 0.08, "relative error {err}");
    }

    #[test]
    fn layer_perfs_feed_the_fps_model() {
        let mut net = small_net(12);
        polarize_net(&mut net, 4);
        let mut accel = Accelerator::map_network(&net, small_config(4)).unwrap();
        let images = 2;
        let x = Tensor::from_fn(&[images, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
        accel.forward(&x);
        let perfs = accel.layer_perfs(images);
        assert_eq!(perfs.len(), 2); // conv + linear
                                    // Conv layer: 64 output positions per image; linear: 1.
        assert_eq!(perfs[0].positions, 64);
        assert_eq!(perfs[1].positions, 1);
        assert!(perfs
            .iter()
            .all(|p| p.input_cycles >= 1.0 && p.crossbars > 0));
        // The perfs drive the FPS model directly.
        let fps = crate::FpsModel::new(forms_hwmodel::McuConfig::forms(4), perfs).fps();
        assert!(fps > 0.0);
    }

    #[test]
    fn parallel_forward_matches_serial() {
        let mut net = small_net(11);
        polarize_net(&mut net, 4);
        let mut serial = Accelerator::map_network(&net, small_config(4)).unwrap();
        let mut parallel = serial.clone();
        let x = Tensor::from_fn(&[5, 1, 8, 8], |i| (i % 9) as f32 / 9.0);
        let ys = serial.forward(&x);
        let yp = parallel.forward_parallel(&x, 3);
        assert_eq!(ys, yp);
        assert_eq!(serial.stats(), parallel.stats());
        assert_eq!(serial.layer_stats(), parallel.layer_stats());
        assert_eq!(serial.layer_mvms(), parallel.layer_mvms());
    }

    #[test]
    fn parallel_evaluate_matches_serial() {
        let mut rng = StdRng::seed_from_u64(13);
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
        let mut net = small_net(14);
        polarize_net(&mut net, 4);
        let mut serial = Accelerator::map_network(&net, small_config(4)).unwrap();
        let mut parallel = serial.clone();
        let a = serial.evaluate(&test, 4);
        let b = parallel.evaluate_parallel(&test, 4, 3);
        assert_eq!(a, b);
        assert_eq!(serial.stats(), parallel.stats());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut net = small_net(4);
        polarize_net(&mut net, 4);
        let mut acc = Accelerator::map_network(&net, small_config(4)).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
        acc.forward(&x);
        let s = acc.stats();
        assert!(s.cycles > 0 && s.adc_conversions > 0);
        assert!(s.cycles <= s.cycles_without_skip);
        acc.reset_stats();
        assert_eq!(acc.stats(), MvmStats::default());
    }

    #[test]
    fn variation_perturbs_outputs() {
        let mut net = small_net(5);
        polarize_net(&mut net, 4);
        let mut acc = Accelerator::map_network(&net, small_config(4)).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 7) as f32 / 8.0);
        let clean = acc.forward(&x);
        let mut rng = StdRng::seed_from_u64(6);
        acc.apply_variation(&forms_reram::LogNormalVariation::new(0.0, 0.3), &mut rng);
        let noisy = acc.forward(&x);
        assert!(
            clean.max_abs_diff(&noisy) > 0.0,
            "variation had no effect at sigma 0.3"
        );
    }

    /// Overwrites every weight layer with a fully dense polarized pattern
    /// (no zero rows, so fragment structure is permutation-stable).
    fn dense_polarize_net(net: &mut Network, fragment: usize) {
        net.for_each_weight_layer(&mut |wl| {
            let m = match &wl {
                WeightLayerMut::Conv(c) => c.weight_matrix(),
                WeightLayerMut::Linear(l) => l.weight_matrix(),
            };
            let (rows, cols) = (m.dims()[0], m.dims()[1]);
            let dense = Tensor::from_fn(&[rows, cols], |i| {
                let (r, c) = (i / cols, i % cols);
                let sign = if ((r / fragment) + c).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                sign * (0.1 + ((r * 31 + c * 17) % 7) as f32 * 0.1)
            });
            match wl {
                WeightLayerMut::Conv(c) => c.set_weight_matrix(&dense),
                WeightLayerMut::Linear(l) => l.set_weight_matrix(&dense),
            }
        });
    }

    #[test]
    fn permuted_mapping_matches_identity_results() {
        // Mapping with a row permutation and permuting inputs must give the
        // same results as identity mapping (the paper's "re-order weights
        // with their corresponding inputs" invariant).
        let mut net = small_net(7);
        dense_polarize_net(&mut net, 4); // dense, polarized in natural order
        let count = net.weight_layer_count();
        let identity = Accelerator::map_network(&net, small_config(4)).unwrap();
        // An involutive permutation that preserves fragments: swap adjacent
        // pairs within each fragment of 4.
        let mut perms = Vec::new();
        {
            let mut n = net.clone();
            n.for_each_weight_layer(&mut |wl| {
                let rows = match wl {
                    WeightLayerMut::Conv(c) => c.weight_matrix().dims()[0],
                    WeightLayerMut::Linear(l) => l.weight_matrix().dims()[0],
                };
                // Swap adjacent pairs; an odd trailing row maps to itself.
                let perm: Vec<usize> = (0..rows)
                    .map(|i| {
                        if i % 2 == 0 && i + 1 < rows {
                            i + 1
                        } else if i % 2 == 1 {
                            i - 1
                        } else {
                            i
                        }
                    })
                    .collect();
                perms.push(Some(perm));
            });
        }
        assert_eq!(perms.len(), count);
        let permuted = Accelerator::with_permutations(&net, small_config(4), perms).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 3) as f32 / 4.0);
        let mut a = identity;
        let mut b = permuted;
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        assert!(ya.allclose(&yb, 1e-4), "permutation changed results");
    }

    #[test]
    fn non_permutation_row_orders_are_rejected() {
        let mut net = small_net(7);
        dense_polarize_net(&mut net, 4);
        // The 3×3 single-channel conv lowers to 9 rows: a repeated index
        // and an out-of-range one.
        for bad in [vec![0; 9], (1..=9).collect()] {
            let perms = vec![Some(bad), None];
            let err = Accelerator::with_permutations(&net, small_config(4), perms).unwrap_err();
            assert!(
                matches!(err, ExecError::UnsupportedConfig { .. }),
                "got {err:?}"
            );
        }
    }
}
