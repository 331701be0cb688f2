//! The generic whole-network inference engine.
//!
//! One `Executor` owns everything that is identical between the FORMS
//! accelerator and the crossbar baselines: the recursive network walk over
//! conv/linear/residual/digital layers, im2col and conv geometry,
//! activation quantization, optional per-layer row permutations, the
//! per-layer counter record and the scoped-thread parallel batch path. The
//! encoding-specific work — mapping a matrix to conductances and executing
//! a batch of MVMs — is delegated to a [`CrossbarEngine`].
//!
//! All inference runs through an [`InferenceSession`]: the *shared*
//! read-only engines plus a cloned digital network and every *private*
//! reusable buffer (engine scratch, gathered codes, batch outputs, sample
//! staging). [`Executor::forward`] is one session;
//! [`Executor::forward_parallel`] is one session per worker thread over
//! work-stolen sample ranges, all sharing the same `&[E]` engine slice —
//! mapped crossbar storage is never cloned per worker — and each session
//! folds its [`LayerCounters`] back into the executor when it finishes.

use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_reram::{FaultCampaign, FaultReport};
use forms_tensor::{im2col, Conv2dGeometry, FixedSpec, QuantizedTensor, Tensor};

use crate::engine::{CrossbarEngine, FaultableEngine, LayerPerf, Merge};
use crate::precision::PrecisionPlan;
use crate::{EngineHealth, ExecError};

/// Multiplicative slack on the output-range sentinel bound: the ceiling is
/// exact in f64 while engine outputs round through f32, so a hair of
/// headroom keeps clean silicon from ever tripping the sentinel.
const SENTINEL_SLACK: f64 = 1.0 + 1e-4;

/// Largest sample range one [`forward_parallel`](Executor::forward_parallel)
/// worker steals at a time. Small enough to balance ragged batches across
/// workers, large enough that each stolen range fills the engines' batch
/// tiles (`forms_arch::MATMUL_TILE`).
const STEAL_TILE_MAX: usize = 32;

/// Sentinel hits in one MVM output vector: values that are non-finite or
/// exceed the layer's pristine ceiling at this input scale.
fn sentinel_hits(ceiling: Option<f64>, input_scale: f32, out: &[f32]) -> u64 {
    let Some(ceiling) = ceiling else {
        return 0;
    };
    let bound = ceiling * f64::from(input_scale) * SENTINEL_SLACK;
    out.iter()
        .filter(|v| !v.is_finite() || f64::from(**v).abs() > bound)
        .count() as u64
}

/// Everything an execution context counts, in total and per weight layer
/// (visit order). Every counter is additive, so folding sessions together
/// in any order gives the same record.
#[derive(Clone, Debug)]
struct LayerCounters<S> {
    stats: S,
    layer_stats: Vec<S>,
    /// Matrix-vector activations per weight layer.
    layer_mvms: Vec<u64>,
    /// Wall-clock nanoseconds spent inside each weight layer's analog
    /// lowering (host-measured, so never part of a bitwise contract).
    layer_wall_ns: Vec<u64>,
    /// Output-range sentinel violations (see
    /// [`CrossbarEngine::output_ceiling`]).
    sentinels: u64,
    layer_sentinels: Vec<u64>,
}

impl<S: Copy + Default + Merge> LayerCounters<S> {
    fn new(layers: usize) -> Self {
        Self {
            stats: S::default(),
            layer_stats: vec![S::default(); layers],
            layer_mvms: vec![0; layers],
            layer_wall_ns: vec![0; layers],
            sentinels: 0,
            layer_sentinels: vec![0; layers],
        }
    }

    /// Records one kernel call of layer `idx` covering `mvms` activations.
    fn record(&mut self, idx: usize, stats: S, mvms: u64, sentinels: u64) {
        self.stats.merge(stats);
        self.layer_stats[idx].merge(stats);
        self.layer_mvms[idx] += mvms;
        self.sentinels += sentinels;
        self.layer_sentinels[idx] += sentinels;
    }

    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self) {
        self.stats.merge(other.stats);
        for (acc, &st) in self.layer_stats.iter_mut().zip(&other.layer_stats) {
            acc.merge(st);
        }
        for (acc, &m) in self.layer_mvms.iter_mut().zip(&other.layer_mvms) {
            *acc += m;
        }
        for (acc, &w) in self.layer_wall_ns.iter_mut().zip(&other.layer_wall_ns) {
            *acc = acc.saturating_add(w);
        }
        self.sentinels += other.sentinels;
        for (acc, &s) in self.layer_sentinels.iter_mut().zip(&other.layer_sentinels) {
            *acc += s;
        }
    }
}

/// A long-lived per-worker inference handle borrowing an [`Executor`]
/// immutably: one cloned digital network plus every reusable buffer the
/// lowering needs (engine scratch, sample staging, gathered codes and
/// scales, batch outputs), kept warm *across* independent forward calls.
///
/// A replica worker creates one session up front and then runs every batch
/// the service hands it through
/// [`forward_batch_into`](Self::forward_batch_into) without re-cloning the
/// network or re-allocating scratch per request. Because the session only
/// borrows the executor (`&Executor`), any number of sessions can run
/// concurrently against the same mapped engines.
///
/// Each weight layer lowers the whole `[N, ...]` batch into one
/// [`CrossbarEngine::matmul_into`] call: every sample is im2col'd and
/// quantized with its own activation scale, every output position's code
/// column is gathered (through the layer's row permutation, if any), and
/// the engine runs `N × positions` columns at once. Statistics accumulate
/// inside the session.
#[derive(Debug)]
pub struct InferenceSession<'a, E: CrossbarEngine> {
    layers: Vec<Layer>,
    engines: &'a [E],
    perms: &'a [Option<Vec<usize>>],
    /// Activation quantization width per weight layer (plan-derived).
    layer_input_bits: &'a [u32],
    /// Per-layer pristine output ceilings (in code×step units, before the
    /// input scale).
    ceilings: Vec<Option<f64>>,
    /// Engine-specific working memory, reused across every kernel call.
    scratch: E::Scratch,
    /// Per-sample staging buffer (im2col input / linear row), recycled
    /// through `Tensor::from_vec` / `Tensor::into_vec`.
    sample: Vec<f32>,
    /// Post-permutation input codes of the current layer: one column per
    /// (sample, position), back to back.
    codes: Vec<u32>,
    /// Per-column quantization scales (each sample's scale repeated once
    /// per output position).
    scales: Vec<f32>,
    /// Concatenated engine outputs of the current layer.
    out: Vec<f32>,
    counters: LayerCounters<E::Stats>,
}

impl<'a, E: CrossbarEngine> InferenceSession<'a, E> {
    fn new(
        net: &Network,
        engines: &'a [E],
        perms: &'a [Option<Vec<usize>>],
        layer_input_bits: &'a [u32],
    ) -> Self {
        Self {
            layers: net.clone().into_layers(),
            engines,
            perms,
            layer_input_bits,
            ceilings: engines.iter().map(E::output_ceiling).collect(),
            scratch: E::Scratch::default(),
            sample: Vec::new(),
            codes: Vec::new(),
            scales: Vec::new(),
            out: Vec::new(),
            counters: LayerCounters::new(engines.len()),
        }
    }

    /// Runs one `[N, ...]` batch through the mixed-signal path, writing the
    /// flattened output into `out` (cleared first) and returning the output
    /// dimensions.
    pub fn forward_batch_into(&mut self, x: &Tensor, out: &mut Vec<f32>) -> Vec<usize> {
        let y = self.forward_batch(x);
        out.clear();
        out.extend_from_slice(y.data());
        y.dims().to_vec()
    }

    /// Runs one `[N, ...]` batch and returns the output tensor.
    pub fn forward_batch(&mut self, x: &Tensor) -> Tensor {
        let mut layers = std::mem::take(&mut self.layers);
        let mut widx = 0;
        let mut y = x.clone();
        for layer in &mut layers {
            y = self.forward_layer(layer, &y, &mut widx);
        }
        self.layers = layers;
        y
    }

    /// Statistics accumulated by this session since its creation.
    pub fn stats(&self) -> E::Stats {
        self.counters.stats
    }

    /// Per-weight-layer statistics accumulated by this session.
    pub fn layer_stats(&self) -> &[E::Stats] {
        &self.counters.layer_stats
    }

    /// Matrix-vector activations per weight layer in this session.
    pub fn layer_mvms(&self) -> &[u64] {
        &self.counters.layer_mvms
    }

    /// Wall-clock nanoseconds this session spent inside each weight
    /// layer's analog lowering — the profiling hook the serving layer's
    /// per-layer attribution reads between batches. Host-measured, so it
    /// is *not* part of any bitwise-equality contract.
    pub fn layer_wall_ns(&self) -> &[u64] {
        &self.counters.layer_wall_ns
    }

    /// Output-range sentinel violations observed by this session.
    pub fn sentinel_violations(&self) -> u64 {
        self.counters.sentinels
    }

    fn forward_layer(&mut self, layer: &mut Layer, x: &Tensor, widx: &mut usize) -> Tensor {
        match layer {
            Layer::Conv2d(conv) => {
                let geom = Conv2dGeometry::new(
                    conv.in_channels(),
                    x.dims()[2],
                    x.dims()[3],
                    conv.kernel(),
                    conv.kernel(),
                    conv.stride(),
                    conv.padding(),
                );
                self.lower(widx, x, Some(&geom), &conv.bias().value)
            }
            Layer::Linear(lin) => self.lower(widx, x, None, &lin.bias().value),
            Layer::Residual(block) => {
                let mut y = x.clone();
                for l in block.body_mut() {
                    y = self.forward_layer(l, &y, widx);
                }
                let shortcut = match block.projection_mut() {
                    Some(p) => self.forward_layer(p, x, widx),
                    None => x.clone(),
                };
                // Digital add + ReLU.
                y.zip(&shortcut, |a, b| (a + b).max(0.0))
            }
            other => other.forward(x, false),
        }
    }

    /// Lowers the next weight layer over a `[N, ...]` batch and advances
    /// `widx`. A conv layer (`geom` set) im2cols each sample into a
    /// `[patch, positions]` matrix; a linear layer is the one-position
    /// case on the raw row. Each sample is quantized at the layer's input
    /// width with its own scale, every (sample, position) code column is
    /// gathered through the row permutation, and the layer executes as one
    /// [`CrossbarEngine::matmul_into`] call whose outputs get the bias, a
    /// per-column sentinel check, and are scattered to `[N, F, ...]`.
    ///
    /// The elapsed wall time is attributed to the layer; it lives outside
    /// `E::Stats` and is never part of bitwise-equality contracts.
    fn lower(
        &mut self,
        widx: &mut usize,
        x: &Tensor,
        geom: Option<&Conv2dGeometry>,
        bias: &Tensor,
    ) -> Tensor {
        let t0 = std::time::Instant::now();
        let idx = *widx;
        *widx += 1;
        let n = x.dims()[0];
        let sample_dims = &x.dims()[1..];
        let sample_len: usize = sample_dims.iter().product();
        let f = bias.len();
        let (positions, mut out) = match geom {
            Some(g) => (g.out_positions(), Tensor::zeros(&[n, f, g.out_h, g.out_w])),
            None => (1, Tensor::zeros(&[n, f])),
        };
        let perm = self.perms[idx].as_deref();
        self.codes.clear();
        self.scales.clear();
        for s in 0..n {
            // Stage the sample through the recycled buffer instead of a
            // fresh `to_vec` per sample.
            let mut buf = std::mem::take(&mut self.sample);
            buf.clear();
            buf.extend_from_slice(&x.data()[s * sample_len..(s + 1) * sample_len]);
            let sample = Tensor::from_vec(buf, sample_dims);
            let q = match geom {
                Some(g) => self.quantize_activations(idx, &im2col(&sample, g)),
                None => self.quantize_activations(idx, &sample),
            };
            self.sample = sample.into_vec();
            let (codes, scale) = (q.codes(), q.spec().scale());
            let patch = codes.len() / positions;
            for p in 0..positions {
                match perm {
                    Some(perm) => self
                        .codes
                        .extend(perm.iter().map(|&r| codes[r * positions + p])),
                    None => self
                        .codes
                        .extend((0..patch).map(|r| codes[r * positions + p])),
                }
                self.scales.push(scale);
            }
        }
        let engine = &self.engines[idx];
        let out_len = engine.output_len();
        self.out.clear();
        self.out.resize(self.scales.len() * out_len, 0.0);
        let stats = engine.matmul_into(&self.codes, &self.scales, &mut self.scratch, &mut self.out);
        let mut hits = 0u64;
        for (col, out_col) in self.out.chunks_exact(out_len).enumerate() {
            hits += sentinel_hits(self.ceilings[idx], self.scales[col], out_col);
            let (s, p) = (col / positions, col % positions);
            for (fi, &v) in out_col.iter().enumerate() {
                out.data_mut()[(s * f + fi) * positions + p] = v + bias.data()[fi];
            }
        }
        self.counters
            .record(idx, stats, self.scales.len() as u64, hits);
        self.counters.layer_wall_ns[idx] +=
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }

    /// Quantizes an activation tensor at weight layer `idx`'s input width
    /// with a shared per-call scale. A non-finite activation maximum (NaN
    /// or infinity leaking out of a faulted engine) yields a degenerate
    /// zero-scale spec, so every code — and the layer's output — collapses
    /// to zero instead of propagating garbage.
    fn quantize_activations(&self, idx: usize, t: &Tensor) -> QuantizedTensor {
        let spec = FixedSpec::for_max_value(self.layer_input_bits[idx], t.max());
        QuantizedTensor::quantize_with(t, spec)
    }
}

/// A DNN mapped onto crossbar engines and executed through the
/// mixed-signal path.
///
/// Holds a copy of the network (for the digital layers and layer shapes)
/// plus one engine per weight layer, and runs inference while accumulating
/// whole-network and per-layer cost statistics.
#[derive(Clone, Debug)]
pub struct Executor<E: CrossbarEngine> {
    net: Network,
    engines: Vec<E>,
    perms: Vec<Option<Vec<usize>>>,
    config: E::Config,
    /// The per-layer precision assignment every layer was mapped under.
    plan: PrecisionPlan,
    /// The engine configuration each layer was actually mapped with —
    /// `config` specialized by the plan.
    layer_configs: Vec<E::Config>,
    /// Activation quantization width per weight layer.
    layer_input_bits: Vec<u32>,
    /// Everything counted since the last reset.
    counters: LayerCounters<E::Stats>,
}

impl<E: CrossbarEngine> Executor<E> {
    /// Maps a network with identity row order. Every layer maps with
    /// `config` and quantizes its activations at the configuration's own
    /// input width ([`CrossbarEngine::precision_of`]).
    ///
    /// # Errors
    ///
    /// Returns the first failing layer's [`ExecError`].
    pub fn map_network(net: &Network, config: &E::Config) -> Result<Self, ExecError> {
        let count = net.weight_layer_count();
        Self::with_permutations(net, config, vec![None; count])
    }

    /// Maps a network whose weight layers were trained under per-layer row
    /// permutations. `perms[i]` must be the policy permutation of weight
    /// layer `i` in visit order (`None` = identity): the matrix rows are
    /// reordered before mapping and the matching input codes are reordered
    /// on every MVM, so results are permutation-invariant.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedConfig`] if some `perms[i]` is not a
    /// permutation of that layer's rows, or the failing layer's
    /// [`ExecError`] if a layer cannot be mapped.
    ///
    /// # Panics
    ///
    /// Panics if `perms.len()` differs from the weight-layer count.
    pub fn with_permutations(
        net: &Network,
        config: &E::Config,
        perms: Vec<Option<Vec<usize>>>,
    ) -> Result<Self, ExecError> {
        let p = E::precision_of(config);
        let plan = PrecisionPlan::uniform(p.weight_bits, p.input_bits);
        Self::construct(net, config, plan, perms)
    }

    /// Maps a network under a per-layer [`PrecisionPlan`]: weight layer
    /// `i` is mapped with `config` specialized to `plan.layer(i)` (see
    /// [`CrossbarEngine::with_precision`]) and its activations are
    /// quantized at `plan.layer(i).input_bits`. A
    /// [`uniform`](PrecisionPlan::uniform) plan at the configuration's own
    /// widths is exactly [`map_network`](Self::map_network).
    ///
    /// # Errors
    ///
    /// Returns the first failing layer's [`ExecError`].
    ///
    /// # Panics
    ///
    /// Panics if a per-layer plan's length differs from the weight-layer
    /// count.
    pub fn with_plan(
        net: &Network,
        config: &E::Config,
        plan: PrecisionPlan,
    ) -> Result<Self, ExecError> {
        let count = net.weight_layer_count();
        Self::construct(net, config, plan, vec![None; count])
    }

    /// Shared constructor: maps every weight layer `i` with `config`
    /// specialized to `plan.layer(i)`.
    fn construct(
        net: &Network,
        config: &E::Config,
        plan: PrecisionPlan,
        perms: Vec<Option<Vec<usize>>>,
    ) -> Result<Self, ExecError> {
        let mut net = net.clone();
        let mut matrices = Vec::new();
        net.for_each_weight_layer(&mut |wl| {
            matrices.push(match wl {
                WeightLayerMut::Conv(c) => c.weight_matrix(),
                WeightLayerMut::Linear(l) => l.weight_matrix(),
            });
        });
        assert_eq!(
            matrices.len(),
            perms.len(),
            "need one permutation slot per weight layer"
        );
        plan.assert_covers(matrices.len());
        let layer_configs: Vec<E::Config> = (0..matrices.len())
            .map(|i| E::with_precision(config, plan.layer(i)))
            .collect();
        let layer_input_bits: Vec<u32> = (0..matrices.len())
            .map(|i| plan.layer(i).input_bits)
            .collect();
        let mut engines = Vec::with_capacity(matrices.len());
        for ((m, perm), layer_config) in matrices.iter().zip(&perms).zip(&layer_configs) {
            let policy_m = match perm {
                Some(p) => permute_rows(m, p)?,
                None => m.clone(),
            };
            engines.push(E::map_matrix(&policy_m, layer_config)?);
        }
        let count = engines.len();
        Ok(Self {
            net,
            engines,
            perms,
            config: config.clone(),
            plan,
            layer_configs,
            layer_input_bits,
            counters: LayerCounters::new(count),
        })
    }

    /// The base engine configuration the network was mapped from (before
    /// any per-layer precision specialization).
    pub fn engine_config(&self) -> &E::Config {
        &self.config
    }

    /// The precision plan every layer was mapped and quantized under.
    pub fn plan(&self) -> &PrecisionPlan {
        &self.plan
    }

    /// The engine configuration each weight layer was actually mapped
    /// with: the base configuration specialized by the plan.
    pub fn layer_configs(&self) -> &[E::Config] {
        &self.layer_configs
    }

    /// Activation quantization bits per weight layer.
    pub fn layer_input_bits(&self) -> &[u32] {
        &self.layer_input_bits
    }

    /// The mapped weight-layer engines, in visit order.
    pub fn engines(&self) -> &[E] {
        &self.engines
    }

    /// Mutable access to the engines (variation/fault injection).
    pub fn engines_mut(&mut self) -> &mut [E] {
        &mut self.engines
    }

    /// Total physical crossbars used by the whole network.
    pub fn total_crossbars(&self) -> usize {
        self.engines.iter().map(E::crossbar_count).sum()
    }

    /// Accumulated statistics since the last reset.
    pub fn stats(&self) -> E::Stats {
        self.counters.stats
    }

    /// Accumulated statistics per weight layer (visit order) since the
    /// last reset.
    pub fn layer_stats(&self) -> &[E::Stats] {
        &self.counters.layer_stats
    }

    /// Matrix-vector activations per weight layer since the last reset.
    pub fn layer_mvms(&self) -> &[u64] {
        &self.counters.layer_mvms
    }

    /// Wall-clock nanoseconds spent inside each weight layer's analog
    /// lowering since the last reset. Host-measured profiling data — it
    /// accumulates alongside the statistics but is never part of a
    /// bitwise-equality contract.
    pub fn layer_wall_ns(&self) -> &[u64] {
        &self.counters.layer_wall_ns
    }

    /// Output-range sentinel violations since the last reset: MVM outputs
    /// whose magnitude exceeded the pristine mapping's nominal ceiling
    /// (see [`CrossbarEngine::output_ceiling`]).
    pub fn sentinel_violations(&self) -> u64 {
        self.counters.sentinels
    }

    /// Aggregate device health over every mapped engine.
    pub fn health(&self) -> EngineHealth {
        let mut total = EngineHealth::default();
        for engine in &self.engines {
            total.merge(&engine.health());
        }
        total
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.counters = LayerCounters::new(self.engines.len());
    }

    /// Builds the per-layer inputs of the frame-rate model from the
    /// statistics of the inferences run so far: each layer's measured mean
    /// input cycles, its crossbar footprint and its matrix-vector
    /// activations per image.
    ///
    /// # Panics
    ///
    /// Panics if no inference has been run since the last reset or
    /// `images` is zero.
    pub fn layer_perfs(&self, images: usize) -> Vec<LayerPerf> {
        assert!(images > 0, "images must be positive");
        let c = &self.counters;
        assert!(
            c.layer_mvms.iter().any(|&m| m > 0),
            "run at least one inference before extracting layer perfs"
        );
        self.engines
            .iter()
            .zip(&c.layer_stats)
            .zip(c.layer_mvms.iter().zip(&self.layer_configs))
            .map(|((engine, stats), (&mvms, layer_config))| LayerPerf {
                positions: (mvms as usize / images).max(1),
                crossbars: engine.crossbar_count(),
                // Plan-aware fallback: a layer that measured nothing is
                // bounded by *its own* input width, not a global one.
                input_cycles: E::mean_input_cycles(stats)
                    .unwrap_or_else(|| E::max_input_cycles(layer_config))
                    .max(1.0),
            })
            .collect()
    }

    /// Measured mean input cycles per fragment/row-block activation for
    /// each weight layer (`None` where nothing has been recorded) — the
    /// per-layer cycle view of the statistics that mixed-precision sweeps
    /// compare across plans.
    pub fn layer_mean_input_cycles(&self) -> Vec<Option<f64>> {
        self.counters
            .layer_stats
            .iter()
            .map(E::mean_input_cycles)
            .collect()
    }

    /// Opens an inference session: a per-worker handle with its own cloned
    /// digital network and reusable buffers, sharing this executor's mapped
    /// engines immutably. See [`InferenceSession`].
    pub fn session(&self) -> InferenceSession<'_, E> {
        InferenceSession::new(
            &self.net,
            &self.engines,
            &self.perms,
            &self.layer_input_bits,
        )
    }

    /// Runs inference on a `[N, ...]` batch through the mixed-signal path:
    /// one [`session`](Self::session) whose counters are folded into this
    /// executor's.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut session = self.session();
        let y = session.forward_batch(x);
        let counters = session.counters;
        self.counters.merge(&counters);
        y
    }

    /// Runs inference on a `[N, ...]` batch with samples distributed over
    /// worker threads through an atomic work-stealing cursor: each worker
    /// runs one [`session`](Self::session) that repeatedly claims the next
    /// unprocessed sample range (at most `STEAL_TILE_MAX` samples) instead
    /// of being assigned one static chunk up front, so a worker that lands
    /// easy samples keeps pulling work while a slow one never stalls the
    /// batch. Every session shares the same mapped engines immutably
    /// (crossbar storage is *not* cloned per worker). Quantization is
    /// per sample and engines are stateless across columns, so results are
    /// bitwise identical to [`forward`](Self::forward) regardless of
    /// worker count or steal order; the sessions' counters are merged
    /// (every counter is additive, so the merge is order-independent).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn forward_parallel(&mut self, x: &Tensor, workers: usize) -> Tensor {
        assert!(workers > 0, "need at least one worker");
        let n = x.dims()[0];
        if n == 0 || workers == 1 {
            return self.forward(x);
        }
        let workers = workers.min(n);
        let sample_len = x.len() / n;
        let sample_dims = &x.dims()[1..];
        // Steal granularity: ~4 steals per worker to balance ragged
        // batches, capped so each stolen range still fills an engine tile.
        let tile = n.div_ceil(workers * 4).clamp(1, STEAL_TILE_MAX);
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let pieces = std::sync::Mutex::new(Vec::new());
        let counters = std::sync::Mutex::new(LayerCounters::new(self.engines.len()));
        // Sessions are built from the executor's parts: the executor
        // itself is not `Sync` (its counters need not be).
        let (net, engines, perms) = (&self.net, &self.engines, &self.perms);
        let layer_input_bits = &self.layer_input_bits;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut session = InferenceSession::new(net, engines, perms, layer_input_bits);
                    loop {
                        let lo = cursor.fetch_add(tile, std::sync::atomic::Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + tile).min(n);
                        let mut dims = vec![hi - lo];
                        dims.extend_from_slice(sample_dims);
                        let part = Tensor::from_vec(
                            x.data()[lo * sample_len..hi * sample_len].to_vec(),
                            &dims,
                        );
                        let y = session.forward_batch(&part);
                        pieces
                            .lock()
                            .expect("no worker panics while holding the pieces")
                            .push((lo, y));
                    }
                    counters
                        .lock()
                        .expect("no worker panics while merging counters")
                        .merge(&session.counters);
                });
            }
        });
        // A worker panic re-raises at the end of the scope, so neither mutex
        // can be poisoned here.
        self.counters
            .merge(&counters.into_inner().expect("workers joined cleanly"));
        // Stitch stolen ranges back into sample order.
        let mut pieces = pieces.into_inner().expect("workers joined cleanly");
        pieces.sort_unstable_by_key(|(lo, _)| *lo);
        let mut dims = pieces[0].1.dims().to_vec();
        dims[0] = n;
        let out_data: Vec<f32> = pieces
            .iter()
            .flat_map(|(_, y)| y.data().iter().copied())
            .collect();
        Tensor::from_vec(out_data, &dims)
    }

    /// Classification accuracy of the mapped model on a dataset.
    pub fn evaluate(&mut self, data: &forms_dnn::data::Dataset, batch_size: usize) -> f32 {
        self.evaluate_parallel(data, batch_size, 1)
    }

    /// [`evaluate`](Self::evaluate) with each batch distributed over
    /// `workers` threads via [`forward_parallel`](Self::forward_parallel);
    /// the accuracy is bitwise identical to the serial run. The serial
    /// case (`workers == 1`) runs every batch through one warm
    /// [`session`](Self::session), so the lowering buffers are allocated
    /// once per evaluation instead of once per batch.
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
        assert!(batch_size > 0, "batch size must be positive");
        assert!(workers > 0, "need at least one worker");
        if data.is_empty() {
            return 0.0;
        }
        let mut correct = 0.0;
        if workers == 1 {
            let mut session = self.session();
            for (x, labels) in data.batches(batch_size) {
                let logits = session.forward_batch(&x);
                correct += forms_dnn::accuracy(&logits, labels) * labels.len() as f32;
            }
            let counters = session.counters;
            self.counters.merge(&counters);
        } else {
            for (x, labels) in data.batches(batch_size) {
                let logits = self.forward_parallel(&x, workers);
                correct += forms_dnn::accuracy(&logits, labels) * labels.len() as f32;
            }
        }
        correct / data.len() as f32
    }
}

impl<E: FaultableEngine> Executor<E> {
    /// Applies a seeded fault campaign to every mapped layer, each with a
    /// layer-distinct salt derived from `salt`, and returns the merged
    /// report. The faults are immediately visible to every inference path
    /// (the engines re-commit their packed tables) and to
    /// [`health`](Self::health).
    pub fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        let mut total = FaultReport::default();
        for (i, engine) in self.engines.iter_mut().enumerate() {
            let layer_salt = salt ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407);
            total.merge(&engine.inject_faults(campaign, layer_salt));
        }
        total
    }
}

/// Permutes matrix rows: `out[i] = in[perm[i]]`.
///
/// # Errors
///
/// Returns [`ExecError::UnsupportedConfig`] unless `perm` is a permutation
/// of `0..rows`.
fn permute_rows(m: &Tensor, perm: &[usize]) -> Result<Tensor, ExecError> {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    let mut seen = vec![false; rows];
    let is_permutation = perm.len() == rows
        && perm
            .iter()
            .all(|&src| src < rows && !std::mem::replace(&mut seen[src], true));
    if !is_permutation {
        return Err(ExecError::UnsupportedConfig {
            reason: "row order is not a permutation of the layer's rows",
        });
    }
    let mut out = Tensor::zeros(&[rows, cols]);
    for (i, &src) in perm.iter().enumerate() {
        out.data_mut()[i * cols..(i + 1) * cols]
            .copy_from_slice(&m.data()[src * cols..(src + 1) * cols]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_rng::StdRng;

    /// A digital mock engine: exact f32 matvec per column, one cycle per
    /// MVM. Tests the executor's network walk, quantization and stats
    /// plumbing in isolation from any analog model.
    #[derive(Clone, Debug)]
    struct DigitalEngine {
        weights: Tensor,
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct DigitalStats {
        mvms: u64,
        cycles: u64,
    }

    impl Merge for DigitalStats {
        fn merge(&mut self, other: Self) {
            self.mvms += other.mvms;
            self.cycles += other.cycles;
        }
    }

    /// Reused input staging for the digital mock's dequantized activations.
    #[derive(Debug, Default)]
    struct DigitalScratch {
        x: Vec<f32>,
    }

    impl CrossbarEngine for DigitalEngine {
        type Config = u32; // input bits
        type Stats = DigitalStats;
        type Scratch = DigitalScratch;

        fn map_matrix(matrix: &Tensor, _config: &u32) -> Result<Self, ExecError> {
            if matrix.shape().rank() != 2 {
                return Err(ExecError::NotMatrix {
                    rank: matrix.shape().rank(),
                });
            }
            if matrix.data().iter().all(|&v| v == 0.0) {
                return Err(ExecError::AllZero);
            }
            Ok(Self {
                weights: matrix.clone(),
            })
        }

        fn output_len(&self) -> usize {
            self.weights.dims()[1]
        }

        fn matmul_into(
            &self,
            batch_codes: &[u32],
            scales: &[f32],
            scratch: &mut DigitalScratch,
            outs: &mut [f32],
        ) -> DigitalStats {
            let rows = self.weights.dims()[0];
            let wt = self.weights.transpose();
            for ((codes, out), &scale) in batch_codes
                .chunks_exact(rows)
                .zip(outs.chunks_exact_mut(self.output_len()))
                .zip(scales)
            {
                scratch.x.clear();
                scratch.x.extend(codes.iter().map(|&c| c as f32 * scale));
                out.copy_from_slice(&wt.matvec(&scratch.x));
            }
            let mvms = scales.len() as u64;
            DigitalStats { mvms, cycles: mvms }
        }

        fn crossbar_count(&self) -> usize {
            1
        }

        fn mean_input_cycles(stats: &DigitalStats) -> Option<f64> {
            (stats.mvms > 0).then(|| stats.cycles as f64 / stats.mvms as f64)
        }

        fn max_input_cycles(config: &u32) -> f64 {
            f64::from(*config)
        }

        fn precision_of(config: &u32) -> crate::LayerPrecision {
            // The digital mock has no weight quantization; report the
            // widest width so uniform plans rebuilt from a config stay
            // faithful to its input bits.
            crate::LayerPrecision::new(32, *config)
        }

        fn with_precision(_config: &u32, precision: crate::LayerPrecision) -> u32 {
            precision.input_bits
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
    fn digital_engine_tracks_network_reference() {
        let net = small_net(1);
        let mut exec = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 7) as f32 / 8.0);
        let digital = net.clone().forward(&x);
        let out = exec.forward(&x);
        assert_eq!(out.dims(), digital.dims());
        let err = out.max_abs_diff(&digital) / digital.abs_max().max(1e-6);
        assert!(err < 0.01, "relative error {err}");
    }

    #[test]
    fn parallel_matches_serial_and_merges_stats() {
        let net = small_net(2);
        let mut serial = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
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
    fn work_stealing_parallel_is_bitwise_stable_across_worker_counts() {
        let net = small_net(23);
        let serial = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        // Odd batch sizes exercise ragged steal tails.
        for n in [1usize, 5, 9] {
            let x = Tensor::from_fn(&[n, 1, 8, 8], |i| ((i * 7 + n) % 11) as f32 / 11.0);
            let mut reference = serial.clone();
            let ys = reference.forward(&x);
            for workers in [1usize, 2, 4] {
                let mut exec = serial.clone();
                let yp = exec.forward_parallel(&x, workers);
                assert_eq!(ys, yp, "n={n} workers={workers}");
                assert_eq!(reference.stats(), exec.stats(), "n={n} workers={workers}");
                assert_eq!(reference.layer_stats(), exec.layer_stats());
                assert_eq!(reference.layer_mvms(), exec.layer_mvms());
            }
        }
    }

    #[test]
    fn layer_wall_time_accumulates_and_resets() {
        let net = small_net(31);
        let mut exec = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        assert_eq!(exec.layer_wall_ns(), &[0, 0]);
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
        // Sessions profile independently of the executor.
        let mut session = exec.session();
        session.forward_batch(&x);
        assert_eq!(session.layer_wall_ns().len(), 2);
        drop(session);
        assert_eq!(exec.layer_wall_ns(), &[0, 0]);
        // Every forward folds its session's wall time in additively.
        exec.forward(&x);
        let after_one = exec.layer_wall_ns().to_vec();
        exec.forward(&x);
        assert_eq!(exec.layer_wall_ns().len(), 2);
        for (&total, &before) in exec.layer_wall_ns().iter().zip(&after_one) {
            assert!(total >= before);
        }
        exec.reset_stats();
        assert_eq!(exec.layer_wall_ns(), &[0, 0]);
    }

    #[test]
    fn layer_registry_counts_mvms_per_layer() {
        let net = small_net(3);
        let mut exec = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 5) as f32 / 8.0);
        exec.forward(&x);
        // Conv: 64 positions per image; linear: 1 — both over 2 images.
        assert_eq!(exec.layer_mvms(), &[128, 2]);
        let perfs = exec.layer_perfs(2);
        assert_eq!(perfs.len(), 2);
        assert_eq!(perfs[0].positions, 64);
        assert_eq!(perfs[1].positions, 1);
        exec.reset_stats();
        assert_eq!(exec.stats(), DigitalStats::default());
        assert_eq!(exec.layer_mvms(), &[0, 0]);
    }

    #[test]
    fn session_matches_forward_and_reuses_buffers() {
        let net = small_net(8);
        let exec = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let mut reference = exec.clone();
        let mut session = exec.session();
        let mut out = Vec::new();
        // Several independent requests through one warm session, against
        // the same requests through the plain forward path.
        for seed in 0..3 {
            let x = Tensor::from_fn(&[2, 1, 8, 8], |i| ((i + seed) % 7) as f32 / 8.0);
            let dims = session.forward_batch_into(&x, &mut out);
            let y = reference.forward(&x);
            assert_eq!(dims, y.dims().to_vec());
            assert_eq!(out, y.data().to_vec());
        }
        assert_eq!(session.stats(), reference.stats());
        assert_eq!(session.layer_stats(), reference.layer_stats());
        assert_eq!(session.layer_mvms(), reference.layer_mvms());
        assert_eq!(
            session.sentinel_violations(),
            reference.sentinel_violations()
        );
    }

    #[test]
    fn concurrent_sessions_share_one_executor() {
        let net = small_net(9);
        let exec = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 5) as f32 / 5.0);
        let mut expected = Vec::new();
        exec.session().forward_batch_into(&x, &mut expected);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (exec, x, expected) = (&exec, &x, &expected);
                scope.spawn(move || {
                    let mut session = exec.session();
                    let mut out = Vec::new();
                    session.forward_batch_into(x, &mut out);
                    assert_eq!(&out, expected);
                });
            }
        });
    }

    #[test]
    fn uniform_plan_matches_legacy_map_network_bitwise() {
        let net = small_net(11);
        let mut legacy = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let mut planned =
            Executor::<DigitalEngine>::with_plan(&net, &16, PrecisionPlan::uniform(32, 16))
                .unwrap();
        let x = Tensor::from_fn(&[3, 1, 8, 8], |i| (i % 11) as f32 / 11.0);
        assert_eq!(legacy.forward(&x), planned.forward(&x));
        assert_eq!(legacy.stats(), planned.stats());
        assert_eq!(legacy.layer_input_bits(), planned.layer_input_bits());
    }

    #[test]
    fn per_layer_plan_specializes_each_config() {
        let net = small_net(12);
        let plan = PrecisionPlan::per_layer(vec![
            crate::LayerPrecision::new(8, 12),
            crate::LayerPrecision::new(4, 6),
        ]);
        let exec = Executor::<DigitalEngine>::with_plan(&net, &16, plan.clone()).unwrap();
        assert_eq!(exec.plan(), &plan);
        assert_eq!(exec.layer_configs(), &[12, 6]);
        assert_eq!(exec.layer_input_bits(), &[12, 6]);
        assert!(!exec.plan().is_uniform());
        // The layer-perf fallback is plan-aware: max cycles come from the
        // per-layer config, not a global width.
        let mut exec = exec;
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 7) as f32 / 7.0);
        exec.forward(&x);
        let cycles = exec.layer_mean_input_cycles();
        assert!(cycles.iter().all(Option::is_some));
    }

    #[test]
    #[should_panic(expected = "weight layers")]
    fn mismatched_per_layer_plan_panics() {
        let net = small_net(13);
        let plan = PrecisionPlan::per_layer(vec![crate::LayerPrecision::new(8, 8); 5]);
        let _ = Executor::<DigitalEngine>::with_plan(&net, &16, plan);
    }

    #[test]
    fn non_finite_activations_collapse_to_zero_codes() {
        // A NaN/inf batch entering the analog path must not produce
        // garbage codes: the degenerate zero-scale spec zeroes the layer
        // inputs, so outputs stay finite (biases only).
        let net = small_net(14);
        let mut exec = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        for poison in [f32::NAN, f32::INFINITY] {
            let x = Tensor::from_fn(&[1, 1, 8, 8], |i| if i == 3 { poison } else { 0.5 });
            let y = exec.forward(&x);
            assert!(
                y.data().iter().all(|v| v.is_finite()),
                "non-finite output for poison {poison}"
            );
        }
    }

    #[test]
    fn mapping_errors_propagate() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, 4, 2)]);
        net.for_each_weight_layer(&mut |wl| {
            if let WeightLayerMut::Linear(l) = wl {
                l.set_weight_matrix(&Tensor::zeros(&[4, 2]));
            }
        });
        let err = Executor::<DigitalEngine>::map_network(&net, &16).unwrap_err();
        assert_eq!(err, ExecError::AllZero);
    }

    #[test]
    fn row_orders_must_be_permutations() {
        // The conv layer lowers to 9 rows: a repeated index, an
        // out-of-range index and a short order are all rejected at map
        // time instead of silently changing (or panicking) inference.
        let net = small_net(16);
        let bad = [vec![0; 9], vec![0, 1, 2, 3, 4, 5, 6, 7, 9], vec![0, 1, 2]];
        for perm in bad {
            let err = Executor::<DigitalEngine>::with_permutations(
                &net,
                &16,
                vec![Some(perm.clone()), None],
            )
            .unwrap_err();
            assert!(
                matches!(err, ExecError::UnsupportedConfig { .. }),
                "{perm:?} gave {err:?}"
            );
        }
        let reversed: Vec<usize> = (0..9).rev().collect();
        let mut permuted =
            Executor::<DigitalEngine>::with_permutations(&net, &16, vec![Some(reversed), None])
                .unwrap();
        let mut identity = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 5) as f32 / 5.0);
        // Reordered rows sum in a different order, so compare to rounding.
        assert!(permuted.forward(&x).allclose(&identity.forward(&x), 1e-5));
    }

    #[test]
    fn evaluate_parallel_matches_serial_evaluate() {
        let mut rng = StdRng::seed_from_u64(5);
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
        let net = small_net(6);
        let mut a = Executor::<DigitalEngine>::map_network(&net, &16).unwrap();
        let mut b = a.clone();
        let serial = a.evaluate(&test, 4);
        let parallel = b.evaluate_parallel(&test, 4, 3);
        assert_eq!(serial, parallel);
        assert_eq!(a.stats(), b.stats());
    }
}
