//! The ADMM-regularized training loop (paper §III-D, Fig. 4).
//!
//! The constrained problem Eq. (1) is split into the SGD-friendly
//! subproblem Eq. (4) — ordinary training plus the proximal penalty
//! `ρ/2‖W − Z + U‖²` — and the projection subproblem Eq. (5), solved in
//! closed form by `Z = Π(W + U)` (Eq. (6)), with the dual update
//! `U ← U + W − Z`.

use forms_dnn::data::Dataset;
use forms_dnn::WeightLayerMut;
use forms_dnn::{evaluate, softmax_cross_entropy, Network, Sgd};
use forms_rng::Rng;
use forms_tensor::Tensor;

use crate::{
    fragment_signs, project_all, row_permutation, FilterGeometry, LayerConstraints,
    PolarizationPolicy, ResidualTrace, Residuals,
};

/// Hyperparameters of an ADMM training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmmConfig {
    /// Penalty coefficient ρ of Eq. (4)–(5).
    pub rho: f32,
    /// Epochs between consecutive Z/U updates (ADMM iterations).
    pub admm_interval: usize,
    /// Epochs between fragment-sign re-evaluations (the paper's `M`).
    pub sign_update_interval: usize,
    /// Total training epochs (the paper's `N`).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Multiplicative ρ growth applied at every ADMM update (1.0 = fixed ρ;
    /// a gentle ramp like 1.3 forces `W → Z` convergence late in training,
    /// the standard trick for non-convex ADMM).
    pub rho_growth: f32,
    /// Projected-SGD epochs after the hard projection (masked retraining,
    /// as in ADMM-NN): the pruning masks, fragment signs and quantization
    /// grid are frozen and surviving weights keep training on the feasible
    /// set, recovering the accuracy the one-shot projection costs.
    pub retrain_epochs: usize,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            rho: 1e-2,
            admm_interval: 1,
            sign_update_interval: 2,
            epochs: 12,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            rho_growth: 1.3,
            retrain_epochs: 6,
        }
    }
}

/// Outcome of an ADMM training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmmReport {
    /// Mean training loss of the final epoch (cross-entropy only, without
    /// the proximal penalty).
    pub final_loss: f32,
    /// Test accuracy of the trained, *finalized* (hard-projected) model.
    pub test_accuracy: f32,
    /// Test accuracy just before the final hard projection.
    pub pre_projection_accuracy: f32,
    /// Constraint violations remaining before the hard projection (weights
    /// whose sign pattern, sparsity pattern or grid position disagreed).
    pub violations_before_finalize: usize,
}

/// Per-layer ADMM state.
#[derive(Clone, Debug)]
struct LayerState {
    constraints: LayerConstraints,
    /// Row permutation mapping policy order → original row order
    /// (`None` for linear layers and W-major convs, where it is identity).
    perm: Option<Vec<usize>>,
    /// Auxiliary variable Z (in policy row order).
    z: Tensor,
    /// Scaled dual variable U (in policy row order).
    u: Tensor,
    /// Cached fragment signs for the polarization projection.
    signs: Option<Vec<bool>>,
    /// Quantization step frozen at [`AdmmTrainer::finalize`] (`None`
    /// before it, or without a quantization constraint). Masked
    /// retraining keeps weights on this grid even once no weight sits at
    /// the saturating code, so feasibility is checked against it rather
    /// than a step re-derived from the current maximum.
    grid_step: Option<f32>,
}

/// ADMM trainer wrapping a [`Network`].
///
/// Construct with the per-weight-layer constraints (visit order of
/// [`Network::for_each_weight_layer`]), then call
/// [`train`](AdmmTrainer::train) — or drive the pieces
/// ([`penalty_gradients`](AdmmTrainer::penalty_gradients),
/// [`admm_update`](AdmmTrainer::admm_update),
/// [`finalize`](AdmmTrainer::finalize)) from a custom loop.
#[derive(Clone, Debug)]
pub struct AdmmTrainer {
    states: Vec<LayerState>,
    config: AdmmConfig,
    current_rho: f32,
    trace: ResidualTrace,
}

/// Extracts the lowered weight matrix of every weight layer, in visit
/// order, together with its conv filter geometry (if any).
fn layer_matrices(net: &mut Network) -> Vec<(Tensor, Option<FilterGeometry>)> {
    let mut out = Vec::new();
    net.for_each_weight_layer(&mut |wl| match wl {
        WeightLayerMut::Conv(c) => {
            let geom = FilterGeometry::new(c.in_channels(), c.kernel(), c.kernel());
            out.push((c.weight_matrix(), Some(geom)));
        }
        WeightLayerMut::Linear(l) => out.push((l.weight_matrix(), None)),
    });
    out
}

/// Writes lowered weight matrices back into the network, in visit order.
///
/// # Panics
///
/// Panics if `matrices` has the wrong length.
fn set_layer_matrices(net: &mut Network, matrices: &[Tensor]) {
    let mut idx = 0;
    net.for_each_weight_layer(&mut |wl| {
        let m = &matrices[idx];
        match wl {
            WeightLayerMut::Conv(c) => c.set_weight_matrix(m),
            WeightLayerMut::Linear(l) => l.set_weight_matrix(m),
        }
        idx += 1;
    });
    assert_eq!(idx, matrices.len(), "matrix count mismatch");
}

/// Training accuracy of the current (feasible) network, used to pick the
/// best snapshot during masked retraining.
fn feasible_train_accuracy(net: &mut Network, train: &Dataset) -> f32 {
    evaluate(net, train, 64)
}

/// Permutes matrix rows: `out[i] = in[perm[i]]`.
fn permute_rows(m: &Tensor, perm: &[usize]) -> Tensor {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    assert_eq!(perm.len(), rows, "permutation length mismatch");
    let mut out = Tensor::zeros(&[rows, cols]);
    for (i, &src) in perm.iter().enumerate() {
        out.data_mut()[i * cols..(i + 1) * cols]
            .copy_from_slice(&m.data()[src * cols..(src + 1) * cols]);
    }
    out
}

/// Inverse of [`permute_rows`].
fn unpermute_rows(m: &Tensor, perm: &[usize]) -> Tensor {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    assert_eq!(perm.len(), rows, "permutation length mismatch");
    let mut out = Tensor::zeros(&[rows, cols]);
    for (i, &dst) in perm.iter().enumerate() {
        out.data_mut()[dst * cols..(dst + 1) * cols]
            .copy_from_slice(&m.data()[i * cols..(i + 1) * cols]);
    }
    out
}

impl AdmmTrainer {
    /// Creates a trainer for `net` with one [`LayerConstraints`] per weight
    /// layer.
    ///
    /// Initializes `Z = Π(W)` and `U = 0`, and evaluates the initial
    /// fragment signs from the (typically pretrained, structurally pruned)
    /// starting weights as §III-B prescribes.
    ///
    /// # Panics
    ///
    /// Panics if `constraints.len()` differs from the network's weight-layer
    /// count.
    pub fn new(net: &mut Network, constraints: Vec<LayerConstraints>, config: AdmmConfig) -> Self {
        let mats = layer_matrices(net);
        assert_eq!(
            mats.len(),
            constraints.len(),
            "need one LayerConstraints per weight layer ({} vs {})",
            mats.len(),
            constraints.len()
        );
        let states = mats
            .into_iter()
            .zip(constraints)
            .map(|((matrix, geom), constraints)| {
                let perm = match (&constraints.polarize, geom) {
                    (Some(p), Some(g)) if p.policy != PolarizationPolicy::WMajor => {
                        // One filter's rows repeat `rows / filter_len` times
                        // is impossible here: the lowered matrix has exactly
                        // filter_len rows, so the permutation applies once.
                        Some(row_permutation(p.policy, g))
                    }
                    _ => None,
                };
                let policy_matrix = match &perm {
                    Some(p) => permute_rows(&matrix, p),
                    None => matrix,
                };
                let signs = constraints
                    .polarize
                    .map(|p| fragment_signs(&policy_matrix, p.fragment_size));
                let z = project_all(&policy_matrix, &constraints, signs.as_deref());
                let u = Tensor::zeros(policy_matrix.dims());
                LayerState {
                    constraints,
                    perm,
                    z,
                    u,
                    signs,
                    grid_step: None,
                }
            })
            .collect();
        Self {
            states,
            config,
            current_rho: config.rho,
            trace: ResidualTrace::new(),
        }
    }

    /// The residual trace recorded across ADMM iterations (one entry per
    /// [`admm_update`](Self::admm_update)).
    pub fn trace(&self) -> &ResidualTrace {
        &self.trace
    }

    /// The configuration this trainer was built with.
    pub fn config(&self) -> &AdmmConfig {
        &self.config
    }

    /// Current weight matrices in policy row order, one per layer.
    fn policy_matrices(&self, net: &mut Network) -> Vec<Tensor> {
        layer_matrices(net)
            .into_iter()
            .zip(&self.states)
            .map(|((m, _), s)| match &s.perm {
                Some(p) => permute_rows(&m, p),
                None => m,
            })
            .collect()
    }

    /// Adds the proximal penalty gradient `ρ(W − Z + U)` of Eq. (4) to the
    /// network's accumulated weight gradients. Call after `backward` and
    /// before the optimizer step.
    pub fn penalty_gradients(&self, net: &mut Network) {
        let policy_mats = self.policy_matrices(net);
        let mut idx = 0;
        let states = &self.states;
        let rho = self.current_rho;
        net.for_each_weight_layer(&mut |wl| {
            let s = &states[idx];
            let mut g = policy_mats[idx].clone();
            g.axpy(-1.0, &s.z);
            g.axpy(1.0, &s.u);
            g.scale(rho);
            let g = match &s.perm {
                Some(p) => unpermute_rows(&g, p),
                None => g,
            };
            match wl {
                WeightLayerMut::Conv(c) => {
                    let f = c.filters();
                    let patch = g.dims()[0];
                    let wdims = c.weight().value.dims().to_vec();
                    let g4 = g.transpose().reshape(&wdims);
                    debug_assert_eq!(patch * f, g4.len());
                    c.weight_mut().grad.axpy(1.0, &g4);
                }
                WeightLayerMut::Linear(l) => {
                    l.weight_mut().grad.axpy(1.0, &g.transpose());
                }
            }
            idx += 1;
        });
    }

    /// One ADMM iteration: `Z ← Π(W + U)` (Eq. (6)) and `U ← U + W − Z`,
    /// then ramps ρ by the configured growth factor.
    pub fn admm_update(&mut self, net: &mut Network) {
        self.current_rho *= self.config.rho_growth;
        let policy_mats = self.policy_matrices(net);
        let mut residual_layers = Vec::with_capacity(self.states.len());
        for (s, w) in self.states.iter_mut().zip(policy_mats) {
            let z_prev = s.z.clone();
            let mut wu = w.clone();
            wu.axpy(1.0, &s.u);
            s.z = project_all(&wu, &s.constraints, s.signs.as_deref());
            // U ← U + W − Z
            s.u.axpy(1.0, &w);
            s.u.axpy(-1.0, &s.z);
            residual_layers.push((w, s.z.clone(), z_prev));
        }
        self.trace
            .push(Residuals::compute(&residual_layers, self.current_rho));
    }

    /// Re-evaluates fragment signs from the current weights (done every `M`
    /// epochs per §III-B).
    pub fn update_signs(&mut self, net: &mut Network) {
        let policy_mats = self.policy_matrices(net);
        for (s, w) in self.states.iter_mut().zip(policy_mats) {
            if let Some(p) = &s.constraints.polarize {
                s.signs = Some(fragment_signs(&w, p.fragment_size));
            }
        }
    }

    /// Total elementwise distance-to-feasibility of the current weights:
    /// the number of entries `Π(W)` would change. Zero means every
    /// constraint is satisfied exactly. After [`finalize`](Self::finalize)
    /// the quantization grid is the one frozen there.
    pub fn constraint_violations(&self, net: &mut Network) -> usize {
        self.policy_matrices(net)
            .iter()
            .zip(&self.states)
            .map(|(w, s)| {
                let z = match (s.grid_step, &s.constraints.quantize) {
                    (Some(step), Some(q)) => {
                        let structure = LayerConstraints {
                            quantize: None,
                            ..s.constraints
                        };
                        let z = project_all(w, &structure, s.signs.as_deref());
                        crate::project_quantization(&z, step, q.bits)
                    }
                    _ => project_all(w, &s.constraints, s.signs.as_deref()),
                };
                w.data()
                    .iter()
                    .zip(z.data())
                    .filter(|(a, b)| (**a - **b).abs() > 1e-6)
                    .count()
            })
            .sum()
    }

    /// Hard-projects the weights onto their constraint sets: `W ← Π(W)`,
    /// iterated to a fixed point (quantization can zero small weights,
    /// retiring rows and re-shaping fragments, so one pass is not always
    /// stable). After this call the network satisfies every constraint
    /// exactly, further calls are no-ops, and the model can be mapped onto
    /// polarized crossbars.
    pub fn finalize(&mut self, net: &mut Network) {
        let policy_mats = self.policy_matrices(net);
        let mut finalized = Vec::with_capacity(policy_mats.len());
        for (w, s) in policy_mats.iter().zip(&mut self.states) {
            let mut z = w.clone();
            for pass in 0..16 {
                let signs = if pass == 0 { s.signs.as_deref() } else { None };
                let next = project_all(&z, &s.constraints, signs);
                let stable = next == z;
                z = next;
                if stable {
                    break;
                }
            }
            // The hard projection can retire rows and flip near-tie
            // fragment sums, invalidating the cached sign pattern; refresh
            // it so it describes the finalized weights (keeping repeated
            // finalize calls no-ops and masked retraining consistent).
            if let Some(pol) = &s.constraints.polarize {
                s.signs = Some(fragment_signs(&z, pol.fragment_size));
            }
            s.grid_step = s
                .constraints
                .quantize
                .map(|q| crate::quantization_step(&z, q.bits));
            finalized.push(match &s.perm {
                Some(p) => unpermute_rows(&z, p),
                None => z,
            });
        }
        set_layer_matrices(net, &finalized);
    }

    /// Projects one policy-order matrix onto the *frozen* structure of a
    /// reference (finalized) matrix: the reference's structural zeros
    /// (pruned rows/columns), fragment signs, and quantization grid. Only
    /// structural zeros are frozen — individually quantization-rounded
    /// zeros may revive during retraining (they cannot change the fragment
    /// structure, which is defined by the active rows). Used by masked
    /// retraining.
    #[allow(clippy::needless_range_loop)] // several arrays are co-indexed
    fn project_frozen(
        constraints: &LayerConstraints,
        reference: &Tensor,
        signs: &[bool],
        step: f32,
        w: &Tensor,
    ) -> Tensor {
        let (rows, cols) = (w.dims()[0], w.dims()[1]);
        let mut z = w.clone();
        let active = crate::active_rows(reference);
        let row_active: Vec<bool> = {
            let mut m = vec![false; rows];
            for &r in &active {
                m[r] = true;
            }
            m
        };
        let col_active: Vec<bool> = (0..cols)
            .map(|c| (0..rows).any(|r| reference.data()[r * cols + c] != 0.0))
            .collect();
        for r in 0..rows {
            for c in 0..cols {
                if !row_active[r] || !col_active[c] {
                    z.data_mut()[r * cols + c] = 0.0;
                }
            }
        }
        if let Some(p) = &constraints.polarize {
            let frag = p.fragment_size;
            let frags_per_col = active.len().div_ceil(frag).max(1);
            for col in 0..cols {
                for (f, chunk) in active.chunks(frag).enumerate() {
                    let positive = signs[col * frags_per_col + f];
                    for &r in chunk {
                        let v = &mut z.data_mut()[r * cols + col];
                        if (positive && *v < 0.0) || (!positive && *v > 0.0) {
                            *v = 0.0;
                        }
                    }
                }
            }
        }
        if let Some(q) = &constraints.quantize {
            z = crate::project_quantization(&z, step, q.bits);
        }
        z
    }

    /// Masked (projected-SGD) retraining on the feasible set: after
    /// [`finalize`](Self::finalize), every optimizer step is followed by a
    /// projection onto the *frozen* structure (masks, signs, grid) captured
    /// from the finalized weights.
    pub fn retrain_masked<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        train: &mut Dataset,
        epochs: usize,
        rng: &mut R,
    ) {
        if epochs == 0 {
            return;
        }
        // Capture the frozen structure from the (finalized) weights.
        let refs = self.policy_matrices(net);
        let frozen: Vec<(Tensor, Vec<bool>, f32)> = refs
            .iter()
            .zip(&self.states)
            .map(|(m, st)| {
                let signs = match &st.constraints.polarize {
                    Some(p) => crate::fragment_signs(m, p.fragment_size),
                    None => Vec::new(),
                };
                let step = match &st.constraints.quantize {
                    Some(q) => crate::quantization_step(m, q.bits),
                    None => 1.0,
                };
                (m.clone(), signs, step)
            })
            .collect();
        let mut opt = Sgd::new(self.config.lr * 0.25).momentum(self.config.momentum);
        // Every epoch ends on a feasible point; keep the best one (by
        // training accuracy) so retraining can only help.
        let mut best_snapshot = net.param_values();
        let mut best_accuracy = feasible_train_accuracy(net, train);
        for _ in 0..epochs {
            train.shuffle(rng);
            let mut cursor = 0;
            while cursor < train.len() {
                let len = self.config.batch_size.min(train.len() - cursor);
                let (x, labels) = train.batch(cursor, len);
                cursor += len;
                net.zero_grad();
                let logits = net.forward_train(&x);
                let out = softmax_cross_entropy(&logits, labels);
                net.backward(&out.grad);
                opt.step(net);
                // Projection back onto the frozen feasible set.
                let mats = self.policy_matrices(net);
                let projected: Vec<Tensor> = mats
                    .iter()
                    .zip(&self.states)
                    .zip(&frozen)
                    .map(|((w, st), (reference, signs, step))| {
                        let z = Self::project_frozen(&st.constraints, reference, signs, *step, w);
                        match &st.perm {
                            Some(p) => unpermute_rows(&z, p),
                            None => z,
                        }
                    })
                    .collect();
                set_layer_matrices(net, &projected);
            }
            let accuracy = feasible_train_accuracy(net, train);
            if accuracy > best_accuracy {
                best_accuracy = accuracy;
                best_snapshot = net.param_values();
            }
        }
        net.set_param_values(&best_snapshot);
    }

    /// Runs the full ADMM training loop of Fig. 4 and returns a report.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        train: &mut Dataset,
        test: &Dataset,
        rng: &mut R,
    ) -> AdmmReport {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let mut opt = Sgd::new(self.config.lr).momentum(self.config.momentum);
        let mut final_loss = 0.0;
        for epoch in 0..self.config.epochs {
            train.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0.0;
            let mut cursor = 0;
            while cursor < train.len() {
                let len = self.config.batch_size.min(train.len() - cursor);
                let (x, labels) = train.batch(cursor, len);
                cursor += len;
                net.zero_grad();
                let logits = net.forward_train(&x);
                let out = softmax_cross_entropy(&logits, labels);
                net.backward(&out.grad);
                self.penalty_gradients(net);
                opt.step(net);
                epoch_loss += out.loss;
                batches += 1.0;
            }
            final_loss = epoch_loss / batches;
            if (epoch + 1) % self.config.admm_interval == 0 {
                self.admm_update(net);
            }
            if (epoch + 1) % self.config.sign_update_interval == 0 {
                self.update_signs(net);
            }
        }
        let violations = self.constraint_violations(net);
        let pre_projection_accuracy = evaluate(net, test, self.config.batch_size);
        self.finalize(net);
        self.retrain_masked(net, train, self.config.retrain_epochs, rng);
        let test_accuracy = evaluate(net, test, self.config.batch_size);
        AdmmReport {
            final_loss,
            test_accuracy,
            pre_projection_accuracy,
            violations_before_finalize: violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{polarization_violations, PolarizeSpec, PruneSpec, QuantSpec};
    use forms_dnn::data::SyntheticSpec;
    use forms_dnn::models;
    use forms_rng::StdRng;

    fn small_conv_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            forms_dnn::Layer::conv2d(&mut rng, 1, 8, 3, 1, 1),
            forms_dnn::Layer::relu(),
            forms_dnn::Layer::max_pool(2),
            forms_dnn::Layer::flatten(),
            forms_dnn::Layer::linear(&mut rng, 8 * 4 * 4, 4),
        ])
    }

    fn uniform_constraints(net: &mut Network, c: LayerConstraints) -> Vec<LayerConstraints> {
        vec![c; net.weight_layer_count()]
    }

    #[test]
    fn new_initializes_feasible_z() {
        let mut net = small_conv_net(0);
        let c = LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        };
        let cs = uniform_constraints(&mut net, c);
        let trainer = AdmmTrainer::new(&mut net, cs, AdmmConfig::default());
        for s in &trainer.states {
            assert_eq!(polarization_violations(&s.z, 4), 0);
        }
    }

    #[test]
    fn finalize_enforces_all_constraints() {
        let mut net = small_conv_net(1);
        let c = LayerConstraints::full(0.5, 0.5, 4, PolarizationPolicy::CMajor, 8);
        let cs = uniform_constraints(&mut net, c);
        let mut trainer = AdmmTrainer::new(&mut net, cs, AdmmConfig::default());
        assert!(trainer.constraint_violations(&mut net) > 0);
        trainer.finalize(&mut net);
        assert_eq!(trainer.constraint_violations(&mut net), 0);
    }

    /// Masked retraining may lower the saturated weight of a layer while
    /// staying on the frozen grid; that must not count as a violation.
    #[test]
    fn finalized_grid_survives_lowering_the_saturated_codes() {
        let mut net = small_conv_net(3);
        let c = LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            quantize: Some(QuantSpec { bits: 8 }),
            ..Default::default()
        };
        let cs = uniform_constraints(&mut net, c);
        let mut trainer = AdmmTrainer::new(&mut net, cs, AdmmConfig::default());
        trainer.finalize(&mut net);
        assert_eq!(trainer.constraint_violations(&mut net), 0);
        let lowered: Vec<Tensor> = layer_matrices(&mut net)
            .into_iter()
            .map(|(m, _)| {
                let step = crate::quantization_step(&m, 8);
                let top = 127.0 * step;
                m.map(|v| {
                    if v.abs() >= top {
                        v - v.signum() * step
                    } else {
                        v
                    }
                })
            })
            .collect();
        set_layer_matrices(&mut net, &lowered);
        assert_eq!(trainer.constraint_violations(&mut net), 0);
    }

    #[test]
    fn penalty_pulls_weights_toward_z() {
        let mut net = small_conv_net(2);
        let c = LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        };
        let cs = uniform_constraints(&mut net, c);
        let config = AdmmConfig {
            rho: 1.0,
            ..Default::default()
        };
        let trainer = AdmmTrainer::new(&mut net, cs, config);
        let before = trainer.constraint_violations(&mut net);
        // Gradient-only steps with the penalty should reduce violations.
        let mut opt = Sgd::new(0.3);
        for _ in 0..200 {
            net.zero_grad();
            trainer.penalty_gradients(&mut net);
            opt.step(&mut net);
        }
        let after = trainer.constraint_violations(&mut net);
        assert!(after < before, "penalty did not help: {before} → {after}");
    }

    #[test]
    fn admm_training_preserves_accuracy_and_enforces_constraints() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = SyntheticSpec {
            classes: 4,
            channels: 1,
            height: 8,
            width: 8,
            train_per_class: 16,
            test_per_class: 8,
            noise: 0.15,
        };
        let (mut train, test) = spec.generate(&mut rng);
        let mut net = models::mlp(&mut rng, 64, &[32], 4);
        // Pretrain briefly.
        let mut opt = Sgd::new(0.1).momentum(0.9);
        for _ in 0..8 {
            forms_dnn::train_epoch(&mut net, &mut opt, &mut train, 16, &mut rng);
        }
        let baseline = evaluate(&mut net, &test, 16);
        let c = LayerConstraints {
            prune: Some(PruneSpec {
                shape_keep: 0.75,
                filter_keep: 0.75,
            }),
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            quantize: Some(QuantSpec { bits: 8 }),
        };
        // As in the paper, the classifier head keeps all its filters
        // (pruning output columns would delete classes outright).
        let mut cs = uniform_constraints(&mut net, c);
        if let Some(last) = cs.last_mut() {
            last.prune = Some(PruneSpec {
                shape_keep: 0.75,
                filter_keep: 1.0,
            });
        }
        let config = AdmmConfig {
            epochs: 16,
            rho: 1e-2,
            lr: 0.05,
            ..Default::default()
        };
        let mut trainer = AdmmTrainer::new(&mut net, cs, config);
        let report = trainer.train(&mut net, &mut train, &test, &mut rng);
        assert_eq!(trainer.constraint_violations(&mut net), 0);
        assert!(
            report.test_accuracy >= baseline - 0.25,
            "accuracy collapsed: {baseline} → {}",
            report.test_accuracy
        );
    }

    #[test]
    fn sign_updates_track_current_weights() {
        let mut net = small_conv_net(4);
        let c = LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        };
        let cs = uniform_constraints(&mut net, c);
        let mut trainer = AdmmTrainer::new(&mut net, cs, AdmmConfig::default());
        // Flip all weights; signs must flip after update_signs.
        let old_signs = trainer.states[0].signs.clone().unwrap();
        net.for_each_weight_layer(&mut |wl| match wl {
            WeightLayerMut::Conv(cv) => cv.weight_mut().value.scale(-1.0),
            WeightLayerMut::Linear(l) => l.weight_mut().value.scale(-1.0),
        });
        trainer.update_signs(&mut net);
        let new_signs = trainer.states[0].signs.clone().unwrap();
        let flipped = old_signs
            .iter()
            .zip(&new_signs)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            flipped > old_signs.len() / 2,
            "signs did not track weights ({flipped}/{})",
            old_signs.len()
        );
    }

    #[test]
    fn residual_trace_is_recorded_and_converges() {
        let mut rng = StdRng::seed_from_u64(31);
        let spec = SyntheticSpec {
            classes: 3,
            channels: 1,
            height: 4,
            width: 4,
            train_per_class: 12,
            test_per_class: 4,
            noise: 0.1,
        };
        let (mut train, test) = spec.generate(&mut rng);
        let mut net = models::mlp(&mut rng, 16, &[12], 3);
        let c = LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::WMajor,
            }),
            ..Default::default()
        };
        let cs = uniform_constraints(&mut net, c);
        let config = AdmmConfig {
            epochs: 8,
            lr: 0.05,
            ..Default::default()
        };
        let mut trainer = AdmmTrainer::new(&mut net, cs, config);
        trainer.train(&mut net, &mut train, &test, &mut rng);
        assert_eq!(trainer.trace().len(), 8, "one entry per ADMM iteration");
        assert!(
            trainer.trace().primal_converging(),
            "primal residual should shrink:\n{}",
            trainer.trace().render()
        );
    }

    #[test]
    fn permutation_round_trip_through_finalize() {
        // With C-major policy the perm must be undone on write-back:
        // finalizing twice must be a no-op the second time.
        let mut net = small_conv_net(5);
        let c = LayerConstraints {
            polarize: Some(PolarizeSpec {
                fragment_size: 4,
                policy: PolarizationPolicy::CMajor,
            }),
            ..Default::default()
        };
        let cs = uniform_constraints(&mut net, c);
        let mut trainer = AdmmTrainer::new(&mut net, cs, AdmmConfig::default());
        trainer.finalize(&mut net);
        let snap = net.param_values();
        trainer.finalize(&mut net);
        assert_eq!(net.param_values(), snap);
    }
}
