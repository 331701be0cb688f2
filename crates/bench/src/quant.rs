//! Mixed-precision quantization suite (`BENCH_quant.json`).
//!
//! Gates the per-layer precision-plan refactor: trains a small VGG-style
//! conv stack (the Table-V VGG workload, downscaled to bench size), derives
//! a mixed-precision plan from an ADMM sensitivity sweep
//! ([`forms_admm::plan_from_sensitivity`]: quantization-sensitive layers
//! stay at the paper's w8/a16 point, tolerant layers drop to w4/a8), and
//! measures uniform vs. mixed plans on both the FORMS design and the ISAAC
//! baseline:
//!
//! - MVMs/s through the executor,
//! - input cycles per MVM (the bit-serial cost the plan is meant to cut),
//! - top-1 agreement against the fp32 digital forward,
//! - dynamic energy per MVM, charged per layer against that layer's own
//!   ADC resolution ([`forms_hwmodel::per_layer_energy_pj`]).
//!
//! The suite writes `BENCH_quant.json` at the repository root; the `quant`
//! binary re-reads and validates the file with [`crate::json::parse`] +
//! [`validate`] before exiting, so CI fails on malformed output. The
//! validation also pins the refactor's payoff: for each design, the mixed
//! plan must spend strictly fewer input cycles per MVM than the uniform
//! 16-bit-input plan.

use forms_arch::{FormsActivity, MappedLayer, MappingConfig};
use forms_baselines::{IsaacActivity, IsaacConfig, IsaacLayer};
use forms_dnn::data::SyntheticSpec;
use forms_dnn::{evaluate, train_epoch, Layer, Network, Sgd};
use forms_exec::{Executor, LayerPrecision, PrecisionPlan};
use forms_hwmodel::{per_layer_energy_pj, McuConfig};
use forms_reram::{Adc, CellSpec};
use forms_rng::StdRng;
use forms_tensor::Tensor;

use crate::json::JsonValue;
use crate::mvm::polarize_network;
use crate::timing::{BenchConfig, Bencher};

/// The paper's operating point for sensitive layers: 8-bit weights,
/// 16-bit activations.
pub const SENSITIVE: LayerPrecision = LayerPrecision {
    weight_bits: 8,
    input_bits: 16,
};

/// The cheap point tolerant layers drop to: 4-bit weights, 8-bit
/// activations.
pub const TOLERANT: LayerPrecision = LayerPrecision {
    weight_bits: 4,
    input_bits: 8,
};

/// Tolerance ladder for the sensitivity-derived plan: the run uses the
/// first accuracy-drop tolerance under which at least one layer proves
/// tolerant. The final 1.0 entry always fires (no accuracy gap exceeds
/// one), so every run produces a plan with at least one narrowed layer.
const TOLERANCES: [f32; 6] = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0];

/// Shapes and configuration for one suite run.
#[derive(Clone, Debug)]
pub struct QuantBenchSpec {
    /// `"full"` or `"smoke"` — recorded in the JSON document.
    pub mode: &'static str,
    /// Human-readable label of the benchmarked layer stack.
    pub workload_label: &'static str,
    /// Input image side length (square, single aspect).
    pub image: usize,
    /// Input channels.
    pub channels: usize,
    /// Classes of the synthetic task.
    pub classes: usize,
    /// Training epochs before the sensitivity sweep.
    pub epochs: usize,
    /// Keep fractions tested by the sensitivity sweep (must include a
    /// value below 1.0 so a layer *can* prove tolerant).
    pub keeps: &'static [f32],
    /// FORMS mapping parameters; the uniform plan runs at these widths.
    pub mapping: MappingConfig,
    /// Images per measured batch.
    pub batch: usize,
    /// Timing-harness configuration.
    pub timing: BenchConfig,
}

impl QuantBenchSpec {
    /// The real measurement point: a VGG-style two-conv stack (Table-V
    /// VGG layers, downscaled to bench size) at the paper's uniform
    /// w8/a16 operating point.
    pub fn full() -> Self {
        Self {
            mode: "full",
            workload_label: "VGG-style conv stack (Table-V VGG layers, downscaled)",
            image: 16,
            channels: 1,
            classes: 10,
            epochs: 10,
            keeps: &[0.5, 0.75],
            mapping: MappingConfig {
                crossbar_dim: 32,
                fragment_size: 4,
                weight_bits: SENSITIVE.weight_bits,
                cell: CellSpec::paper_2bit(),
                input_bits: SENSITIVE.input_bits,
                zero_skipping: true,
            },
            batch: 16,
            timing: BenchConfig::from_env(),
        }
    }

    /// A seconds-scale variant for CI: tiny net, one keep fraction, fast
    /// timing batches, same code paths and JSON schema as
    /// [`full`](Self::full).
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            workload_label: "smoke conv stack (Table-V VGG layers, minimal)",
            image: 8,
            channels: 1,
            classes: 3,
            epochs: 6,
            keeps: &[0.5],
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: 4,
                weight_bits: SENSITIVE.weight_bits,
                cell: CellSpec::paper_2bit(),
                input_bits: SENSITIVE.input_bits,
                zero_skipping: true,
            },
            batch: 8,
            timing: BenchConfig::fast(),
        }
    }

    /// The VGG-style network of this spec (random initialization): two
    /// conv blocks + classifier head in full mode, one conv block in
    /// smoke mode.
    fn network(&self, rng: &mut StdRng) -> Network {
        let c = self.channels;
        if self.mode == "full" {
            let pooled = self.image / 4;
            Network::new(vec![
                Layer::conv2d(rng, c, 8, 3, 1, 1),
                Layer::relu(),
                Layer::max_pool(2),
                Layer::conv2d(rng, 8, 16, 3, 1, 1),
                Layer::relu(),
                Layer::max_pool(2),
                Layer::flatten(),
                Layer::linear(rng, 16 * pooled * pooled, self.classes),
            ])
        } else {
            let pooled = self.image / 2;
            Network::new(vec![
                Layer::conv2d(rng, c, 4, 3, 1, 1),
                Layer::relu(),
                Layer::max_pool(2),
                Layer::flatten(),
                Layer::linear(rng, 4 * pooled * pooled, self.classes),
            ])
        }
    }
}

/// One measurement row: design × plan with every reported metric.
#[derive(Clone, Debug)]
pub struct QuantResult {
    /// `"FORMS"` or `"ISAAC"`.
    pub design: &'static str,
    /// `"uniform"` or `"mixed"`.
    pub plan: &'static str,
    /// The plan's human-readable summary (`PrecisionPlan::summary`).
    pub plan_summary: String,
    /// MVMs per second through the executor (median batch).
    pub mvms_per_s: f64,
    /// Measured input cycles per MVM — what the mixed plan is meant to
    /// cut.
    pub input_cycles_per_mvm: f64,
    /// Fraction of the probe batch whose top-1 class matches the fp32
    /// digital forward.
    pub top1_agreement: f64,
    /// Dynamic energy per MVM in picojoules, each layer charged against
    /// its own ADC resolution.
    pub energy_pj_per_mvm: f64,
}

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct QuantBenchReport {
    /// The spec the run used.
    pub spec: QuantBenchSpec,
    /// Weight layers of the benchmarked network.
    pub weight_layers: usize,
    /// Digital test accuracy before any quantization.
    pub baseline_accuracy: f64,
    /// The accuracy-drop tolerance the sensitivity derivation settled on.
    pub tolerance: f64,
    /// Layers the sweep proved tolerant (narrowed by the mixed plan).
    pub tolerant_layers: usize,
    /// The sensitivity-derived mixed plan.
    pub mixed_plan: PrecisionPlan,
    /// The four design × plan measurement rows.
    pub results: Vec<QuantResult>,
}

impl QuantBenchReport {
    /// The row for a design/plan pair, if measured.
    pub fn result(&self, design: &str, plan: &str) -> Option<&QuantResult> {
        self.results
            .iter()
            .find(|r| r.design == design && r.plan == plan)
    }

    /// Mixed-over-uniform input-cycle ratio for a design (below 1.0 means
    /// the plan pays off).
    pub fn cycle_ratio(&self, design: &str) -> Option<f64> {
        Some(
            self.result(design, "mixed")?.input_cycles_per_mvm
                / self.result(design, "uniform")?.input_cycles_per_mvm,
        )
    }

    /// The narrowest input width any layer of the mixed plan uses.
    pub fn mixed_min_input_bits(&self) -> u32 {
        (0..self.weight_layers)
            .map(|i| self.mixed_plan.layer(i).input_bits)
            .min()
            .unwrap_or(0)
    }

    /// Renders the report as the `BENCH_quant.json` document.
    pub fn to_json(&self) -> JsonValue {
        let results = self
            .results
            .iter()
            .map(|r| {
                JsonValue::object(vec![
                    ("design", JsonValue::String(r.design.into())),
                    ("plan", JsonValue::String(r.plan.into())),
                    ("plan_summary", JsonValue::String(r.plan_summary.clone())),
                    ("mvms_per_s", JsonValue::Number(r.mvms_per_s)),
                    (
                        "input_cycles_per_mvm",
                        JsonValue::Number(r.input_cycles_per_mvm),
                    ),
                    ("top1_agreement", JsonValue::Number(r.top1_agreement)),
                    ("energy_pj_per_mvm", JsonValue::Number(r.energy_pj_per_mvm)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("bench", JsonValue::String("quant".into())),
            ("mode", JsonValue::String(self.spec.mode.into())),
            (
                "workload",
                JsonValue::object(vec![
                    ("label", JsonValue::String(self.spec.workload_label.into())),
                    (
                        "weight_layers",
                        JsonValue::Number(self.weight_layers as f64),
                    ),
                ]),
            ),
            (
                "baseline_accuracy",
                JsonValue::Number(self.baseline_accuracy),
            ),
            ("tolerance", JsonValue::Number(self.tolerance)),
            (
                "tolerant_layers",
                JsonValue::Number(self.tolerant_layers as f64),
            ),
            ("mixed_plan", JsonValue::String(self.mixed_plan.summary())),
            (
                "mixed_min_input_bits",
                JsonValue::Number(f64::from(self.mixed_min_input_bits())),
            ),
            ("results", JsonValue::Array(results)),
        ])
    }
}

/// Fraction of rows whose argmax class agrees between two `[N, classes]`
/// logit tensors.
fn top1_agreement(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.dims(), b.dims(), "logit shapes must match");
    let (n, classes) = (a.dims()[0], a.dims()[1]);
    let argmax = |t: &Tensor, row: usize| {
        let data = &t.data()[row * classes..(row + 1) * classes];
        data.iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.total_cmp(y))
            .map(|(i, _)| i)
            .unwrap()
    };
    let same = (0..n).filter(|&i| argmax(a, i) == argmax(b, i)).count();
    same as f64 / n as f64
}

/// Derives the mixed plan: the first tolerance of the ladder under which
/// at least one layer proves tolerant. Returns the plan, the tolerance,
/// and the tolerant-layer count.
fn derive_mixed_plan(
    sweep: &[forms_admm::LayerSensitivity],
    baseline: f32,
) -> (PrecisionPlan, f64, usize) {
    for &tolerance in &TOLERANCES {
        let plan =
            forms_admm::plan_from_sensitivity(sweep, baseline, tolerance, SENSITIVE, TOLERANT);
        let tolerant = (0..sweep.len())
            .filter(|&i| plan.layer(i) == TOLERANT)
            .count();
        if tolerant > 0 {
            return (plan, f64::from(tolerance), tolerant);
        }
    }
    unreachable!("tolerance 1.0 admits every layer");
}

/// Measures one mapped FORMS accelerator against the digital reference.
fn measure_forms(
    acc: &mut Executor<MappedLayer>,
    plan_name: &'static str,
    x: &Tensor,
    digital: &Tensor,
    bencher: &mut Bencher,
) -> QuantResult {
    acc.reset_stats();
    let analog = acc.forward(x);
    let mvms: u64 = acc.layer_mvms().iter().sum();
    let stats = acc.stats();
    let energies = per_layer_energy_pj(
        &acc.layer_stats()
            .iter()
            .zip(acc.layer_configs())
            .map(|(s, c)| FormsActivity {
                stats: *s,
                config: *c,
            })
            .collect::<Vec<_>>(),
        &acc.layer_configs()
            .iter()
            .map(|c| {
                McuConfig::forms(c.fragment_size)
                    .with_adc_bits(Adc::for_fragment(c.fragment_size, &c.cell).bits().min(12))
            })
            .collect::<Vec<_>>(),
    );
    let agreement = top1_agreement(&analog, digital);
    let timing = bencher.bench(&format!("forms/{plan_name}"), || acc.forward(x));
    QuantResult {
        design: "FORMS",
        plan: plan_name,
        plan_summary: acc.plan().summary(),
        mvms_per_s: mvms as f64 * 1e9 / timing.p50_ns(),
        input_cycles_per_mvm: stats.cycles as f64 / mvms as f64,
        top1_agreement: agreement,
        energy_pj_per_mvm: energies.iter().sum::<f64>() / mvms as f64,
    }
}

/// Measures one mapped ISAAC accelerator against the digital reference.
fn measure_isaac(
    acc: &mut Executor<IsaacLayer>,
    plan_name: &'static str,
    x: &Tensor,
    digital: &Tensor,
    bencher: &mut Bencher,
) -> QuantResult {
    acc.reset_stats();
    let analog = acc.forward(x);
    let mvms: u64 = acc.layer_mvms().iter().sum();
    let stats = acc.stats();
    let energies = per_layer_energy_pj(
        &acc.layer_stats()
            .iter()
            .zip(acc.layer_configs())
            .map(|(s, c)| IsaacActivity {
                stats: *s,
                config: *c,
            })
            .collect::<Vec<_>>(),
        &vec![McuConfig::isaac(); acc.layer_configs().len()],
    );
    let agreement = top1_agreement(&analog, digital);
    let timing = bencher.bench(&format!("isaac/{plan_name}"), || acc.forward(x));
    QuantResult {
        design: "ISAAC",
        plan: plan_name,
        plan_summary: acc.plan().summary(),
        mvms_per_s: mvms as f64 * 1e9 / timing.p50_ns(),
        input_cycles_per_mvm: stats.cycles as f64 / mvms as f64,
        top1_agreement: agreement,
        energy_pj_per_mvm: energies.iter().sum::<f64>() / mvms as f64,
    }
}

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark network cannot be mapped (a bug in the spec).
pub fn run(spec: &QuantBenchSpec) -> QuantBenchReport {
    let mut rng = StdRng::seed_from_u64(0x0B175);
    let mut bencher = Bencher::with_config(spec.timing);

    // --- train the workload and sweep its sensitivity -----------------
    let data_spec = SyntheticSpec {
        classes: spec.classes,
        channels: spec.channels,
        height: spec.image,
        width: spec.image,
        train_per_class: if spec.mode == "full" { 24 } else { 12 },
        test_per_class: if spec.mode == "full" { 12 } else { 8 },
        noise: 0.12,
    };
    let (mut train, test) = data_spec.generate(&mut rng);
    let mut net = spec.network(&mut rng);
    let mut opt = Sgd::new(0.1).momentum(0.9);
    for _ in 0..spec.epochs {
        train_epoch(&mut net, &mut opt, &mut train, spec.batch, &mut rng);
    }
    let baseline = evaluate(&mut net, &test, spec.batch);
    let sweep = forms_admm::sensitivity_sweep(&net, &test, spec.keeps, spec.batch);
    let (mixed, tolerance, tolerant_layers) = derive_mixed_plan(&sweep, baseline);
    let uniform = PrecisionPlan::uniform(SENSITIVE.weight_bits, SENSITIVE.input_bits);

    // --- map under each plan and measure ------------------------------
    polarize_network(&mut net, spec.mapping.fragment_size);
    let x = Tensor::from_fn(&[spec.batch, spec.channels, spec.image, spec.image], |i| {
        ((i * 7) % 11) as f32 / 11.0
    });
    let digital = net.clone().forward(&x);

    let isaac_config = IsaacConfig {
        crossbar_dim: spec.mapping.crossbar_dim,
        cell: spec.mapping.cell,
        weight_bits: spec.mapping.weight_bits,
        input_bits: spec.mapping.input_bits,
    };

    let mut results = Vec::with_capacity(4);
    for (plan_name, plan) in [("uniform", &uniform), ("mixed", &mixed)] {
        let mut forms = Executor::<MappedLayer>::with_plan(&net, &spec.mapping, plan.clone())
            .expect("bench net maps on FORMS");
        results.push(measure_forms(
            &mut forms,
            plan_name,
            &x,
            &digital,
            &mut bencher,
        ));
        let mut isaac = Executor::<IsaacLayer>::with_plan(&net, &isaac_config, plan.clone())
            .expect("bench net maps on ISAAC");
        results.push(measure_isaac(
            &mut isaac,
            plan_name,
            &x,
            &digital,
            &mut bencher,
        ));
    }

    QuantBenchReport {
        spec: spec.clone(),
        weight_layers: sweep.len(),
        baseline_accuracy: f64::from(baseline),
        tolerance,
        tolerant_layers,
        mixed_plan: mixed,
        results,
    }
}

/// Checks that a parsed `BENCH_quant.json` document has the shape this
/// suite writes — and that the refactor's payoff holds: for each design,
/// the mixed plan spends strictly fewer input cycles per MVM than the
/// uniform plan, and the mixed plan narrowed at least one layer below
/// 16 input bits.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("quant") {
        return Err("missing or wrong `bench` field".into());
    }
    match doc.get("mode").and_then(JsonValue::as_str) {
        Some("full") | Some("smoke") => {}
        _ => return Err("`mode` must be \"full\" or \"smoke\"".into()),
    }
    let layers = doc
        .get("workload")
        .and_then(|w| w.get("weight_layers"))
        .and_then(JsonValue::as_f64)
        .ok_or("missing numeric `workload.weight_layers`")?;
    if !(layers.is_finite() && layers >= 1.0) {
        return Err("`workload.weight_layers` must be a positive count".into());
    }
    let baseline = doc
        .get("baseline_accuracy")
        .and_then(JsonValue::as_f64)
        .ok_or("missing `baseline_accuracy`")?;
    if !(0.0..=1.0).contains(&baseline) {
        return Err("`baseline_accuracy` must be in [0, 1]".into());
    }
    let min_bits = doc
        .get("mixed_min_input_bits")
        .and_then(JsonValue::as_f64)
        .ok_or("missing `mixed_min_input_bits`")?;
    if !(1.0..16.0).contains(&min_bits) {
        return Err(format!(
            "mixed plan must narrow at least one layer below 16 input bits, got {min_bits}"
        ));
    }
    let results = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("missing `results` array")?;
    let metric = |design: &str, plan: &str, field: &str| -> Result<f64, String> {
        let row = results
            .iter()
            .find(|r| {
                r.get("design").and_then(JsonValue::as_str) == Some(design)
                    && r.get("plan").and_then(JsonValue::as_str) == Some(plan)
            })
            .ok_or_else(|| format!("missing results row for {design}/{plan}"))?;
        row.get(field)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing `{field}` for {design}/{plan}"))
    };
    for design in ["FORMS", "ISAAC"] {
        for plan in ["uniform", "mixed"] {
            for field in ["mvms_per_s", "input_cycles_per_mvm", "energy_pj_per_mvm"] {
                let v = metric(design, plan, field)?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("non-positive `{field}` for {design}/{plan}"));
                }
            }
            let agreement = metric(design, plan, "top1_agreement")?;
            if !(0.0..=1.0).contains(&agreement) {
                return Err(format!(
                    "`top1_agreement` for {design}/{plan} must be in [0, 1]"
                ));
            }
        }
        let uniform_cycles = metric(design, "uniform", "input_cycles_per_mvm")?;
        let mixed_cycles = metric(design, "mixed", "input_cycles_per_mvm")?;
        if mixed_cycles >= uniform_cycles {
            return Err(format!(
                "mixed plan must spend strictly fewer input cycles/MVM than uniform \
                 on {design}: {mixed_cycles} vs {uniform_cycles}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn smoke_report_round_trips_and_validates() {
        let report = run(&QuantBenchSpec::smoke());
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(report.results.len(), 4);
        // The payoff the suite exists to pin, also visible in-process.
        for design in ["FORMS", "ISAAC"] {
            assert!(report.cycle_ratio(design).unwrap() < 1.0, "{design}");
        }
        assert!(report.tolerant_layers >= 1);
        assert!(report.mixed_min_input_bits() < SENSITIVE.input_bits);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let report = run(&QuantBenchSpec::smoke());
        let good = report.to_json();
        validate(&good).unwrap();
        let JsonValue::Object(fields) = &good else {
            panic!("report is an object")
        };
        for missing in [
            "bench",
            "mode",
            "workload",
            "baseline_accuracy",
            "mixed_min_input_bits",
            "results",
        ] {
            let broken = JsonValue::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != missing)
                    .cloned()
                    .collect(),
            );
            assert!(validate(&broken).is_err(), "accepted doc without {missing}");
        }
        assert!(validate(&JsonValue::Null).is_err());
    }

    #[test]
    fn top1_agreement_counts_matching_rows() {
        let a = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2]);
        let same = Tensor::from_vec(vec![0.7, 0.3, 0.1, 0.9], &[2, 2]);
        let half = Tensor::from_vec(vec![0.2, 0.8, 0.1, 0.9], &[2, 2]);
        assert_eq!(top1_agreement(&a, &same), 1.0);
        assert_eq!(top1_agreement(&a, &half), 0.5);
    }
}
