//! MVM hot-path throughput suite (`BENCH_mvm.json`).
//!
//! Measures each engine's one execute kernel, the blocked `matmul_into`,
//! across a batch sweep (batch 1 is the one-column call every single MVM
//! takes) against the legacy reference kernel (kept in-tree as
//! `matvec_reference`) on a Table-V-style layer shape, for both the FORMS
//! design and the ISAAC baseline, plus end-to-end images/s through the
//! executor on one worker and across worker threads.
//!
//! The suite writes `BENCH_mvm.json` at the repository root and the
//! `mvm` binary re-reads and validates the file with
//! [`crate::json::parse`] before exiting, so CI fails on malformed
//! output.

use std::hint::black_box;

use forms_arch::{CrossbarEngine, Executor, MappedLayer, MappingConfig};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_reram::{sweep_uses_avx2, CellSpec, SweepScratch};
use forms_rng::{Rng, StdRng};
use forms_tensor::Tensor;

use crate::json::JsonValue;
use crate::timing::{BenchCase, BenchConfig, Bencher};

/// How many distinct random input vectors each kernel cycles through, so
/// timings are not flattered by a single cached activation pattern.
const INPUT_ROTATION: usize = 8;

/// Shapes and configurations for one suite run.
#[derive(Clone, Debug)]
pub struct MvmBenchSpec {
    /// `"full"` or `"smoke"` — recorded in the JSON document.
    pub mode: &'static str,
    /// Human-readable label of the benchmarked layer shape.
    pub layer_label: &'static str,
    /// Lowered weight-matrix rows of the benchmarked layer.
    pub rows: usize,
    /// Lowered weight-matrix columns of the benchmarked layer.
    pub cols: usize,
    /// FORMS mapping parameters for the kernel bench.
    pub mapping: MappingConfig,
    /// Images per batch for the end-to-end executor bench.
    pub batch: usize,
    /// Batch sizes swept by the batched `matmul_into` kernel bench; the
    /// gates need batch 1 among them.
    pub batch_sweep: Vec<usize>,
    /// Worker threads for the parallel executor bench.
    pub workers: usize,
    /// Timing-harness configuration.
    pub timing: BenchConfig,
}

impl MvmBenchSpec {
    /// The real measurement point: a VGG-style `3x3x128 -> 128` conv layer
    /// (1152x128 lowered matrix, as in the paper's Table V workloads) at
    /// the paper's 128x128-crossbar configuration.
    pub fn full() -> Self {
        Self {
            mode: "full",
            layer_label: "VGG conv 3x3x128->128 (Table-V style, 1152x128 lowered)",
            rows: 1152,
            cols: 128,
            mapping: MappingConfig::paper(8),
            batch: 8,
            batch_sweep: vec![1, 8, 32],
            workers: worker_count(),
            timing: BenchConfig::from_env(),
        }
    }

    /// A seconds-scale variant for CI: small crossbars, fast timing
    /// batches, same code paths and JSON schema as [`full`](Self::full).
    ///
    /// The batching gate needs a layer on which batching has weight-side
    /// work to amortize. The kernels read each sub-array's rows of the
    /// layer's cached code matrix once per tile, so a batch-1 call fetches
    /// the whole matrix per sample and a larger batch once per tile; that
    /// shows only when the matrix does not stay in a core's private caches
    /// between calls. This layer's matrix is 2.25 MiB of `i32` codes
    /// (a 72x8 layer's 2.25 KiB sits in L1, and there the ratio is noise
    /// around 1.0). Fifteen round-robin timing batches keep the median
    /// steady enough for the gate's margin.
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            layer_label: "smoke conv 3x3x512->128 (4608x128 lowered)",
            rows: 4608,
            cols: 128,
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: 4,
                weight_bits: 8,
                cell: CellSpec::paper_2bit(),
                input_bits: 8,
                zero_skipping: true,
            },
            batch: 4,
            batch_sweep: vec![1, 2, 4],
            workers: 2,
            timing: BenchConfig {
                batches: 15,
                ..BenchConfig::fast()
            },
        }
    }
}

fn worker_count() -> usize {
    // At least two workers, so the parallel path (scoped threads sharing
    // the engines immutably) is exercised even on a single-core host.
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(2)
}

/// A dense polarized weight matrix: the sign is constant within every
/// `(fragment, column)` group, magnitudes vary deterministically.
pub fn polarized_matrix(rows: usize, cols: usize, fragment: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        let (r, c) = (i / cols, i % cols);
        let sign = if ((r / fragment) + c).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        sign * (0.05 + ((r * 31 + c * 17) % 13) as f32 * 0.07)
    })
}

/// Polarizes every weight layer of a network in place with the ADMM
/// projection, iterated to a fixed point so it can be mapped onto FORMS.
pub fn polarize_network(net: &mut Network, fragment: usize) {
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

/// The small CNN used for the end-to-end images/s measurement.
fn bench_network(spec: &MvmBenchSpec, rng: &mut StdRng) -> (Network, Tensor) {
    let (c, hw, f) = if spec.mode == "full" {
        (3, 16, 8)
    } else {
        (1, 8, 4)
    };
    let pooled = hw / 2;
    let net = Network::new(vec![
        Layer::conv2d(rng, c, f, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(rng, f * pooled * pooled, 10),
    ]);
    let x = Tensor::from_fn(&[spec.batch, c, hw, hw], |i| ((i * 7) % 11) as f32 / 11.0);
    (net, x)
}

fn random_codes(n: usize, bits: u32, rng: &mut StdRng) -> Vec<Vec<u32>> {
    (0..INPUT_ROTATION)
        .map(|_| (0..n).map(|_| rng.next_u32() & ((1 << bits) - 1)).collect())
        .collect()
}

/// One kernel measurement: design, kernel flavour, and throughput.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// `"FORMS"` or `"ISAAC"`.
    pub design: &'static str,
    /// `"reference"` (legacy kernel) or `"batched"` (the blocked
    /// weight-stationary `matmul_into` kernel).
    pub kernel: &'static str,
    /// Input vectors per kernel call: 1 for the reference kernel, the
    /// swept batch size (from 1) for `"batched"` rows.
    pub batch: usize,
    /// Median (p50) nanoseconds per MVM.
    pub ns_per_mvm: f64,
    /// 95th-percentile nanoseconds per MVM across timing batches.
    pub p95_ns_per_mvm: f64,
    /// MVMs per second implied by the median.
    pub mvms_per_s: f64,
}

/// One end-to-end measurement: design, execution mode, and images/s.
#[derive(Clone, Debug)]
pub struct ImageResult {
    /// `"FORMS"` or `"ISAAC"`.
    pub design: &'static str,
    /// `"batched"` (`forward` on one worker) or `"parallel"`
    /// (`forward_parallel`).
    pub exec: &'static str,
    /// Worker threads used (1 for batched).
    pub workers: usize,
    /// Images per second through the executor (from the median batch).
    pub images_per_s: f64,
    /// Images per second at the 95th-percentile (slowest-tail) batch.
    pub p95_images_per_s: f64,
}

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct MvmBenchReport {
    /// The spec the run used.
    pub spec: MvmBenchSpec,
    /// Per-kernel throughput results.
    pub kernels: Vec<KernelResult>,
    /// End-to-end images/s results.
    pub images: Vec<ImageResult>,
    /// Bytes of folded weight codes each design's kernel layer caches
    /// (`CrossbarGrid::code_cache_bytes` after the kernel runs), per design.
    pub code_cache_bytes: Vec<(&'static str, usize)>,
    /// Whether the batched kernels ran the sweep's AVX2 copy
    /// ([`forms_reram::sweep_uses_avx2`] on the kernel layer's grid) rather
    /// than its portable one. The images/s network's layers are narrower
    /// than the AVX2 threshold and run the portable copy either way.
    pub sweep_avx2: bool,
}

impl MvmBenchReport {
    /// MVMs/s of a design's kernel at one batch size, if measured.
    fn rate(&self, design: &str, kernel: &str, batch: usize) -> Option<f64> {
        self.kernels
            .iter()
            .find(|k| k.design == design && k.kernel == kernel && k.batch == batch)
            .map(|k| k.mvms_per_s)
    }

    /// One-column `matmul_into` over reference MVM throughput ratio for a
    /// design, if both were measured.
    pub fn batch1_over_reference(&self, design: &str) -> Option<f64> {
        Some(self.rate(design, "batched", 1)? / self.rate(design, "reference", 1)?)
    }

    /// Per-MVM throughput ratio of the largest swept batch over batch 1
    /// for a design, if batch 1 was measured.
    pub fn largest_batch_over_batch1(&self, design: &str) -> Option<f64> {
        let largest = self
            .kernels
            .iter()
            .filter(|k| k.design == design && k.kernel == "batched")
            .max_by_key(|k| k.batch)?;
        Some(largest.mvms_per_s / self.rate(design, "batched", 1)?)
    }

    /// Parallel-over-batched images/s ratio for a design, if both were
    /// measured. Reported, not gated.
    pub fn parallel_over_batched(&self, design: &str) -> Option<f64> {
        let find = |exec: &str| {
            self.images
                .iter()
                .find(|r| r.design == design && r.exec == exec)
                .map(|r| r.images_per_s)
        };
        Some(find("parallel")? / find("batched")?)
    }

    /// Renders the report as the `BENCH_mvm.json` document.
    pub fn to_json(&self) -> JsonValue {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                JsonValue::object(vec![
                    ("design", JsonValue::String(k.design.into())),
                    ("kernel", JsonValue::String(k.kernel.into())),
                    ("batch", JsonValue::Number(k.batch as f64)),
                    ("ns_per_mvm", JsonValue::Number(k.ns_per_mvm)),
                    ("p95_ns_per_mvm", JsonValue::Number(k.p95_ns_per_mvm)),
                    ("mvms_per_s", JsonValue::Number(k.mvms_per_s)),
                ])
            })
            .collect();
        let images = self
            .images
            .iter()
            .map(|r| {
                JsonValue::object(vec![
                    ("design", JsonValue::String(r.design.into())),
                    ("exec", JsonValue::String(r.exec.into())),
                    ("workers", JsonValue::Number(r.workers as f64)),
                    ("images_per_s", JsonValue::Number(r.images_per_s)),
                    ("p95_images_per_s", JsonValue::Number(r.p95_images_per_s)),
                ])
            })
            .collect();
        let mut batch1_over_reference = Vec::new();
        let mut largest_over_batch1 = Vec::new();
        let mut parallel_over_batched = Vec::new();
        for design in ["FORMS", "ISAAC"] {
            if let Some(s) = self.batch1_over_reference(design) {
                batch1_over_reference.push((design, JsonValue::Number(s)));
            }
            if let Some(s) = self.largest_batch_over_batch1(design) {
                largest_over_batch1.push((design, JsonValue::Number(s)));
            }
            if let Some(s) = self.parallel_over_batched(design) {
                parallel_over_batched.push((design, JsonValue::Number(s)));
            }
        }
        JsonValue::object(vec![
            ("bench", JsonValue::String("mvm".into())),
            ("mode", JsonValue::String(self.spec.mode.into())),
            ("sweep_avx2", JsonValue::Bool(self.sweep_avx2)),
            (
                "layer",
                JsonValue::object(vec![
                    ("label", JsonValue::String(self.spec.layer_label.into())),
                    ("rows", JsonValue::Number(self.spec.rows as f64)),
                    ("cols", JsonValue::Number(self.spec.cols as f64)),
                    (
                        "code_cache_bytes",
                        JsonValue::object(
                            self.code_cache_bytes
                                .iter()
                                .map(|&(design, b)| (design, JsonValue::Number(b as f64)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("mvm", JsonValue::Array(kernels)),
            (
                "speedup_batch1_over_reference",
                JsonValue::object(batch1_over_reference),
            ),
            (
                "speedup_largest_batch_over_batch1",
                JsonValue::object(largest_over_batch1),
            ),
            ("images", JsonValue::Array(images)),
            (
                "parallel_over_batched_images",
                JsonValue::object(parallel_over_batched),
            ),
        ])
    }
}

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark layer cannot be mapped (a bug in the spec).
pub fn run(spec: &MvmBenchSpec) -> MvmBenchReport {
    let mut rng = StdRng::seed_from_u64(0xF0435);
    let mut bencher = Bencher::with_config(spec.timing);

    // --- single-layer MVM kernels -----------------------------------
    let matrix = polarized_matrix(spec.rows, spec.cols, spec.mapping.fragment_size);
    let forms = MappedLayer::map(&matrix, spec.mapping).expect("bench layer maps");
    let isaac_config = IsaacConfig {
        crossbar_dim: spec.mapping.crossbar_dim,
        cell: spec.mapping.cell,
        weight_bits: spec.mapping.weight_bits,
        input_bits: spec.mapping.input_bits,
    };
    let isaac = IsaacLayer::map(&matrix, isaac_config).expect("bench layer maps on ISAAC");
    let inputs = random_codes(spec.rows, spec.mapping.input_bits, &mut rng);
    let scale = 1.0 / (1 << spec.mapping.input_bits) as f32;

    let mut kernels = Vec::new();
    {
        let mut i = 0;
        let r = bencher.bench("forms/reference", || {
            let codes = &inputs[i % INPUT_ROTATION];
            i += 1;
            forms.matvec_reference(codes, scale)
        });
        kernels.push(kernel_result("FORMS", "reference", 1, r));
    }
    {
        let mut i = 0;
        let r = bencher.bench("isaac/reference", || {
            let codes = &inputs[i % INPUT_ROTATION];
            i += 1;
            isaac.matvec_reference(codes, scale)
        });
        kernels.push(kernel_result("ISAAC", "reference", 1, r));
    }

    // --- batched matmul kernels -------------------------------------
    // The gates compare batch sizes against each other, so the sweep is
    // timed round-robin (one timed batch per design and batch size per
    // round): a slow phase of the host then lands on every batch size
    // alike instead of on whichever one was timing then.
    let (forms, isaac) = (&forms, &isaac);
    let mut runs: Vec<BenchCase<'_>> = Vec::new();
    for &b in &spec.batch_sweep {
        // Rotated batched inputs: each buffer concatenates `b` consecutive
        // rotation vectors, so the batched kernel sees the same activation
        // diversity as the reference rows.
        let batches: Vec<Vec<u32>> = (0..INPUT_ROTATION)
            .map(|r| {
                (0..b)
                    .flat_map(|s| inputs[(r + s) % INPUT_ROTATION].iter().copied())
                    .collect()
            })
            .collect();
        let scales = vec![scale; b];
        let (codes, sc) = (batches.clone(), scales.clone());
        let (mut scratch, mut out, mut i) = (SweepScratch::default(), vec![0.0; b * spec.cols], 0);
        runs.push((
            format!("forms/batched/b{b}"),
            Box::new(move || {
                black_box(forms.matmul_into(
                    &codes[i % INPUT_ROTATION],
                    &sc,
                    &mut scratch,
                    &mut out,
                ));
                i += 1;
            }),
        ));
        let (mut scratch, mut out, mut i) = (SweepScratch::default(), vec![0.0; b * spec.cols], 0);
        runs.push((
            format!("isaac/batched/b{b}"),
            Box::new(move || {
                black_box(isaac.matmul_into(
                    &batches[i % INPUT_ROTATION],
                    &scales,
                    &mut scratch,
                    &mut out,
                ));
                i += 1;
            }),
        ));
    }
    let timings = bencher.bench_round_robin(&mut runs);
    for (&b, pair) in spec.batch_sweep.iter().zip(timings.chunks_exact(2)) {
        kernels.push(kernel_result("FORMS", "batched", b, &pair[0]));
        kernels.push(kernel_result("ISAAC", "batched", b, &pair[1]));
    }
    let sweep_avx2 = sweep_uses_avx2(forms.grid());
    let code_cache_bytes = vec![
        ("FORMS", forms.grid().code_cache_bytes()),
        ("ISAAC", isaac.grid().code_cache_bytes()),
    ];

    // --- end-to-end images/s ----------------------------------------
    let (mut net, x) = bench_network(spec, &mut rng);
    polarize_network(&mut net, spec.mapping.fragment_size);
    let forms_acc =
        Executor::<MappedLayer>::map_network(&net, &spec.mapping).expect("bench net maps");
    let isaac_config = IsaacConfig {
        crossbar_dim: spec.mapping.crossbar_dim,
        cell: spec.mapping.cell,
        weight_bits: spec.mapping.weight_bits,
        input_bits: spec.mapping.input_bits,
    };
    let isaac_acc =
        Executor::<IsaacLayer>::map_network(&net, &isaac_config).expect("bench net maps on ISAAC");

    // Timed round-robin like the kernel sweep, so the reported
    // parallel-over-batched ratio sees the same host phases on both sides.
    // `forward` and `forward_parallel` take the executor mutably, so each
    // case owns a clone.
    let batch = spec.batch as f64;
    let workers = spec.workers;
    let x = &x;
    let (mut forms_batched, mut forms_parallel) = (forms_acc.clone(), forms_acc);
    let (mut isaac_batched, mut isaac_parallel) = (isaac_acc.clone(), isaac_acc);
    let mut runs: Vec<BenchCase<'_>> = vec![
        (
            "forms/images/batched".into(),
            Box::new(move || {
                black_box(forms_batched.forward(x));
            }),
        ),
        (
            "forms/images/parallel".into(),
            Box::new(move || {
                black_box(forms_parallel.forward_parallel(x, workers));
            }),
        ),
        (
            "isaac/images/batched".into(),
            Box::new(move || {
                black_box(isaac_batched.forward(x));
            }),
        ),
        (
            "isaac/images/parallel".into(),
            Box::new(move || {
                black_box(isaac_parallel.forward_parallel(x, workers));
            }),
        ),
    ];
    let timings = bencher.bench_round_robin(&mut runs);
    let images = vec![
        image_result("FORMS", "batched", 1, batch, &timings[0]),
        image_result("FORMS", "parallel", workers, batch, &timings[1]),
        image_result("ISAAC", "batched", 1, batch, &timings[2]),
        image_result("ISAAC", "parallel", workers, batch, &timings[3]),
    ];

    MvmBenchReport {
        spec: spec.clone(),
        kernels,
        images,
        code_cache_bytes,
        sweep_avx2,
    }
}

/// A kernel measurement normalized to per-MVM cost: one kernel call
/// covers `batch` vectors.
fn kernel_result(
    design: &'static str,
    kernel: &'static str,
    batch: usize,
    timing: &crate::timing::BenchResult,
) -> KernelResult {
    let b = batch as f64;
    KernelResult {
        design,
        kernel,
        batch,
        ns_per_mvm: timing.p50_ns() / b,
        p95_ns_per_mvm: timing.p95_ns() / b,
        mvms_per_s: b * 1e9 / timing.p50_ns(),
    }
}

fn image_result(
    design: &'static str,
    exec: &'static str,
    workers: usize,
    batch: f64,
    timing: &crate::timing::BenchResult,
) -> ImageResult {
    ImageResult {
        design,
        exec,
        workers,
        images_per_s: batch * 1e9 / timing.p50_ns(),
        p95_images_per_s: batch * 1e9 / timing.p95_ns(),
    }
}

/// Checks that a parsed `BENCH_mvm.json` document has the shape this
/// suite writes — required top-level fields (among them the boolean
/// `sweep_avx2`, which sweep copy the kernels ran), a reference kernel row per
/// design with positive finite throughput, batched kernel rows per design
/// including batch 1, and batched / parallel images/s rows per design —
/// and enforces the kernel performance gates, per design and per MVM: the
/// one-column `matmul_into` call is at least as fast as the reference
/// kernel, and the largest swept batch is at least as fast as batch 1.
/// The parallel-over-batched images ratio is reported but not gated.
///
/// # Errors
///
/// Returns a description of the first structural problem or gate
/// violation found.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("mvm") {
        return Err("missing or wrong `bench` field".into());
    }
    match doc.get("mode").and_then(JsonValue::as_str) {
        Some("full") | Some("smoke") => {}
        _ => return Err("`mode` must be \"full\" or \"smoke\"".into()),
    }
    if !matches!(doc.get("sweep_avx2"), Some(JsonValue::Bool(_))) {
        return Err("missing boolean `sweep_avx2`".into());
    }
    let layer = doc.get("layer").ok_or("missing `layer` object")?;
    for key in ["rows", "cols"] {
        let v = layer
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric `layer.{key}`"))?;
        if !(v.is_finite() && v >= 1.0) {
            return Err(format!("`layer.{key}` must be a positive count"));
        }
    }
    for design in ["FORMS", "ISAAC"] {
        let bytes = layer
            .get("code_cache_bytes")
            .and_then(|b| b.get(design))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric `layer.code_cache_bytes.{design}`"))?;
        if !(bytes.is_finite() && bytes >= 0.0 && bytes.fract() == 0.0) {
            return Err(format!(
                "`layer.code_cache_bytes.{design}` must be a byte count"
            ));
        }
    }
    let kernels = doc
        .get("mvm")
        .and_then(JsonValue::as_array)
        .ok_or("missing `mvm` array")?;
    for design in ["FORMS", "ISAAC"] {
        let row = kernels
            .iter()
            .find(|k| {
                k.get("design").and_then(JsonValue::as_str) == Some(design)
                    && k.get("kernel").and_then(JsonValue::as_str) == Some("reference")
            })
            .ok_or_else(|| format!("missing mvm row for {design}/reference"))?;
        for field in ["mvms_per_s", "p95_ns_per_mvm"] {
            let rate = row
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing `{field}` for {design}/reference"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("non-positive `{field}` for {design}/reference"));
            }
        }
        let reference = row
            .get("mvms_per_s")
            .and_then(JsonValue::as_f64)
            .expect("reference rate checked above");
        // Batched kernel rows: every row positive with a batch of at least
        // 1; batch 1 must be among them.
        let mut batch1 = None;
        let mut largest: Option<(f64, f64)> = None; // (batch, mvms_per_s)
        for row in kernels.iter().filter(|k| {
            k.get("design").and_then(JsonValue::as_str) == Some(design)
                && k.get("kernel").and_then(JsonValue::as_str) == Some("batched")
        }) {
            let batch = row
                .get("batch")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing `batch` for {design}/batched"))?;
            if !(batch.is_finite() && batch >= 1.0) {
                return Err(format!("`batch` for {design}/batched must be at least 1"));
            }
            let rate = row
                .get("mvms_per_s")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing `mvms_per_s` for {design}/batched"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("non-positive `mvms_per_s` for {design}/batched"));
            }
            if batch == 1.0 {
                batch1 = Some(rate);
            }
            if largest.is_none_or(|(b, _)| batch > b) {
                largest = Some((batch, rate));
            }
        }
        let batch1 = batch1.ok_or_else(|| format!("missing mvm row for {design}/batched/b1"))?;
        if batch1 < reference {
            return Err(format!(
                "one-column kernel regression: {design} batch 1 runs {batch1:.0} MVMs/s \
                 vs {reference:.0} for the reference kernel"
            ));
        }
        let (batch, rate) = largest.expect("batch 1 row found above");
        if rate < batch1 {
            return Err(format!(
                "batching regression: {design} batch {batch} runs {rate:.0} MVMs/s \
                 vs {batch1:.0} at batch 1"
            ));
        }
    }
    let images = doc
        .get("images")
        .and_then(JsonValue::as_array)
        .ok_or("missing `images` array")?;
    for design in ["FORMS", "ISAAC"] {
        for exec in ["batched", "parallel"] {
            let rate = images
                .iter()
                .find(|r| {
                    r.get("design").and_then(JsonValue::as_str) == Some(design)
                        && r.get("exec").and_then(JsonValue::as_str) == Some(exec)
                })
                .ok_or_else(|| format!("missing images row for {design}/{exec}"))?
                .get("images_per_s")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing `images_per_s` for {design}/{exec}"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("non-positive `images_per_s` for {design}/{exec}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A fixed-numbers report shaped exactly like a passing smoke run.
    ///
    /// The validator's timing gates (batch 1 >= reference and largest
    /// batch >= batch 1, per MVM) are enforced against *live* numbers by
    /// the `mvm` binary, which ci.sh runs on an otherwise idle machine. Unit tests run under `cargo test
    /// --workspace` where every core is oversubscribed by sibling test
    /// binaries, so a live 2-worker measurement here is pure noise —
    /// these tests pin the validator logic on synthetic numbers instead.
    fn synthetic_report() -> MvmBenchReport {
        let kernel = |design, kernel, batch, ns: f64| KernelResult {
            design,
            kernel,
            batch,
            ns_per_mvm: ns,
            p95_ns_per_mvm: ns * 1.3,
            mvms_per_s: 1e9 / ns,
        };
        let image = |design, exec, workers, rate: f64| ImageResult {
            design,
            exec,
            workers,
            images_per_s: rate,
            p95_images_per_s: rate * 0.8,
        };
        MvmBenchReport {
            spec: MvmBenchSpec::smoke(),
            kernels: vec![
                kernel("FORMS", "reference", 1, 1_500_000.0),
                kernel("ISAAC", "reference", 1, 1_100_000.0),
                kernel("FORMS", "batched", 1, 400_000.0),
                kernel("ISAAC", "batched", 1, 200_000.0),
                kernel("FORMS", "batched", 2, 300_000.0),
                kernel("ISAAC", "batched", 2, 180_000.0),
                kernel("FORMS", "batched", 4, 200_000.0),
                kernel("ISAAC", "batched", 4, 150_000.0),
            ],
            images: vec![
                image("FORMS", "batched", 1, 900.0),
                image("FORMS", "parallel", 2, 1100.0),
                image("ISAAC", "batched", 1, 1400.0),
                image("ISAAC", "parallel", 2, 1500.0),
            ],
            code_cache_bytes: vec![("FORMS", 4608 * 128 * 4), ("ISAAC", 4608 * 128 * 4)],
            sweep_avx2: true,
        }
    }

    #[test]
    fn smoke_report_round_trips_and_validates() {
        let report = synthetic_report();
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        assert!(report.batch1_over_reference("FORMS").unwrap() > 1.0);
        assert!(report.batch1_over_reference("ISAAC").unwrap() > 1.0);
        assert!(report.largest_batch_over_batch1("FORMS").unwrap() > 1.0);
        assert!(report.largest_batch_over_batch1("ISAAC").unwrap() > 1.0);
        assert!(report.parallel_over_batched("FORMS").unwrap() > 1.0);
        assert!(report.parallel_over_batched("ISAAC").unwrap() > 1.0);
    }

    #[test]
    fn validate_rejects_timing_regressions() {
        // The largest batch slower per MVM than batch 1.
        let mut report = synthetic_report();
        for k in &mut report.kernels {
            if k.design == "FORMS" && k.kernel == "batched" && k.batch == 4 {
                k.ns_per_mvm = 500_000.0;
                k.mvms_per_s = 1e9 / k.ns_per_mvm;
            }
        }
        let err = validate(&report.to_json()).unwrap_err();
        assert!(err.contains("batching regression"), "{err}");

        // The one-column call slower than the reference kernel.
        let mut report = synthetic_report();
        for k in &mut report.kernels {
            if k.design == "ISAAC" && k.kernel == "batched" && k.batch == 1 {
                k.ns_per_mvm = 1_200_000.0;
                k.mvms_per_s = 1e9 / k.ns_per_mvm;
            }
        }
        let err = validate(&report.to_json()).unwrap_err();
        assert!(err.contains("one-column kernel regression"), "{err}");

        // The gates need a batch-1 row.
        let mut report = synthetic_report();
        report
            .kernels
            .retain(|k| !(k.design == "ISAAC" && k.kernel == "batched" && k.batch == 1));
        let err = validate(&report.to_json()).unwrap_err();
        assert!(err.contains("ISAAC/batched/b1"), "{err}");

        // A parallel run slower than the batched one is reported, not
        // rejected.
        let mut report = synthetic_report();
        for r in &mut report.images {
            if r.design == "FORMS" && r.exec == "parallel" {
                r.images_per_s = 410.0;
            }
        }
        validate(&report.to_json()).unwrap();
        assert!(report.parallel_over_batched("FORMS").unwrap() < 1.0);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let good = synthetic_report().to_json();
        validate(&good).unwrap();
        // Drop a required top-level field.
        let JsonValue::Object(fields) = &good else {
            panic!("report is an object")
        };
        for missing in ["bench", "mode", "sweep_avx2", "layer", "mvm", "images"] {
            let broken = JsonValue::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != missing)
                    .cloned()
                    .collect(),
            );
            assert!(validate(&broken).is_err(), "accepted doc without {missing}");
        }
        // `sweep_avx2` must be a boolean.
        let stringly = JsonValue::Object(
            fields
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "sweep_avx2" => (k.clone(), JsonValue::String("yes".into())),
                    _ => (k.clone(), v.clone()),
                })
                .collect(),
        );
        let err = validate(&stringly).unwrap_err();
        assert!(err.contains("sweep_avx2"), "{err}");
        assert!(validate(&JsonValue::Null).is_err());
    }
}
