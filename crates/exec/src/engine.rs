//! The crossbar engine abstraction: what a per-layer analog MVM backend
//! must provide for the generic [`Executor`](crate::Executor) to drive it.

use std::fmt;

use forms_reram::{EngineHealth, ExecError, FaultCampaign, FaultReport};
use forms_tensor::Tensor;

use crate::precision::LayerPrecision;

/// Accumulation of per-MVM statistics records.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// One weight layer mapped onto physical crossbars by some encoding scheme
/// (FORMS polarized magnitudes, ISAAC offset encoding, …).
///
/// The engine owns everything encoding-specific — how a matrix becomes
/// conductances, how an input bit stream becomes column currents and
/// digital codes, and what per-MVM costs to count. Everything
/// *network-level* (layer walk, im2col, activation quantization, batching,
/// per-layer counters) lives in the shared [`Executor`](crate::Executor).
///
/// Engines are immutable during inference (`matmul_into` takes `&self`),
/// which is what lets the executor's parallel batch path share one mapped
/// engine across worker threads instead of deep-cloning crossbar storage —
/// hence the `Sync` bound. All mutable per-MVM state lives in the engine's
/// [`Scratch`](Self::Scratch) buffer, owned by the caller and reused
/// across kernel calls so the hot path allocates nothing.
pub trait CrossbarEngine: Clone + Send + Sync + fmt::Debug + Sized {
    /// Mapping-time configuration (crossbar dimension, cell spec, bit
    /// widths, …).
    type Config: Clone + Send + Sync + fmt::Debug;
    /// Per-MVM cost record.
    type Stats: Default + Copy + Merge + Send + fmt::Debug;
    /// Reusable per-MVM working memory (gathered codes, packed bit planes,
    /// raw currents, accumulators). `Default` must produce an empty scratch
    /// that any `matmul_into` call can grow to fit.
    type Scratch: Default + Send + fmt::Debug;

    /// Maps a `[rows, cols]` weight matrix onto crossbars.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] when the matrix cannot be represented
    /// under this engine's encoding (wrong rank, all zero, polarization
    /// violated, unsupported configuration).
    fn map_matrix(matrix: &Tensor, config: &Self::Config) -> Result<Self, ExecError>;

    /// Length of this layer's output vector (= original weight columns).
    fn output_len(&self) -> usize;

    /// Executes a batch of matrix-vector products — the engine's one
    /// kernel entry: `batch_codes` holds `scales.len()` input-code vectors
    /// back to back (one per column, each of the layer's original row
    /// count), `scales[i]` is the quantization scale of vector `i`, and
    /// `outs` receives the concatenated outputs (`scales.len() ×
    /// output_len`, overwritten). Returns the merged statistics of the
    /// whole batch; a single MVM is a one-column call.
    ///
    /// Columns must be independent: splitting a batch into sub-batches
    /// (or single columns) must give bitwise identical outputs and merged
    /// stats, which is what keeps serial, batched and work-stealing
    /// parallel execution bitwise identical. With a warm scratch,
    /// implementations should not allocate.
    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut Self::Scratch,
        outs: &mut [f32],
    ) -> Self::Stats;

    /// One matrix-vector product on quantized input codes (one per
    /// original weight row): a one-column [`matmul_into`](Self::matmul_into)
    /// on a fresh scratch. `input_scale` is the value of input code 1;
    /// returns the output (one per original weight column) and the MVM's
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics as [`matmul_into`](Self::matmul_into) does, e.g. on a wrong
    /// input length or a code wider than the layer's input bits.
    fn matvec(&self, input_codes: &[u32], input_scale: f32) -> (Vec<f32>, Self::Stats) {
        let mut out = vec![0.0f32; self.output_len()];
        let stats = self.matmul_into(
            input_codes,
            &[input_scale],
            &mut Self::Scratch::default(),
            &mut out,
        );
        (out, stats)
    }

    /// Physical crossbars this layer occupies.
    fn crossbar_count(&self) -> usize;

    /// Mean input cycles per fragment/row-block activation recorded in
    /// `stats`, or `None` when the record holds no activations.
    fn mean_input_cycles(stats: &Self::Stats) -> Option<f64>;

    /// Input cycles per activation when nothing was measured — the input
    /// bit width (a design with zero-skipping never exceeds it).
    fn max_input_cycles(config: &Self::Config) -> f64;

    /// The quantization widths baked into a configuration.
    fn precision_of(config: &Self::Config) -> LayerPrecision;

    /// A copy of `config` with its bit widths replaced by `precision` —
    /// how the executor specializes one base configuration per layer under
    /// a [`PrecisionPlan`](crate::PrecisionPlan). Everything except the
    /// widths (crossbar dimension, cell spec, fragment size, …) must be
    /// preserved, and `with_precision(c, precision_of(c))` must be
    /// equivalent to `c`: `Executor::map_network` maps every layer that
    /// way, so it must behave as mapping with `c` itself.
    fn with_precision(config: &Self::Config, precision: LayerPrecision) -> Self::Config;

    /// Device-health counters for this layer's mapped crossbars. The
    /// default reports nothing (all-zero); engines that track fault
    /// injection override it.
    fn health(&self) -> EngineHealth {
        EngineHealth::default()
    }

    /// Nominal upper bound on `|output| / input_scale` of a *pristine*
    /// mapping — the largest magnitude any clean MVM can produce, before
    /// scaling by the activation quantization step. The executor uses it
    /// as an output-range sentinel: a faulted array (stuck-high cells,
    /// sign corruption) can push outputs past this bound, which clean
    /// silicon never does. `None` disables the sentinel.
    fn output_ceiling(&self) -> Option<f64> {
        None
    }
}

/// A [`CrossbarEngine`] whose mapped crossbars accept post-map fault
/// injection through a seeded [`FaultCampaign`], with the injected state
/// visible to `matmul_into` (the packed read tables are re-committed) and
/// reflected in [`health`](CrossbarEngine::health).
pub trait FaultableEngine: CrossbarEngine {
    /// Applies `campaign` to every crossbar of this layer. `salt`
    /// decorrelates layers and replicas; the same `(campaign, salt)`
    /// always injects the same faults.
    fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport;
}

/// Per-layer inputs to the frame-rate model (`forms_arch::FpsModel`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerPerf {
    /// Matrix-vector activations per image (conv: `out_h × out_w`;
    /// linear: 1).
    pub positions: usize,
    /// Physical crossbars the layer's weights occupy.
    pub crossbars: usize,
    /// Average input cycles per fragment activation (16 without
    /// zero-skipping; the measured mean EIC with it).
    pub input_cycles: f64,
}
