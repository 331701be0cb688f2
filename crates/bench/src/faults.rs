//! Fault-tolerance suite (`BENCH_faults.json`).
//!
//! Gates the fault-injection and graceful-degradation layer on the
//! paper's robustness claim (§II-C, §V-E): polarized FORMS mapping
//! quantizes magnitudes over the full `2^wb - 1` code range, while the
//! ISAAC offset encoding spends one bit on the bias, so the same stuck
//! cell corrupts a FORMS column by roughly half as much weight. The suite
//! measures that end to end in two parts:
//!
//! 1. **Accuracy sweep** — maps one fragment-polarized layer on FORMS (at
//!    several fragment sizes) and on ISAAC, injects seeded stuck-at
//!    campaigns at increasing cell-fault rates through the packed
//!    bit-plane path, and records top-1 agreement with the clean mapping
//!    plus mean relative output error. [`validate`] requires the FORMS
//!    curves to degrade more slowly than ISAAC's in aggregate.
//! 2. **Serving fault storm** — runs
//!    [`run_resilient`](forms_serve::ServerBuilder::run_resilient) with paced
//!    replicas, poisons one replica persistently mid-run, and checks the
//!    availability story: the poisoned replica quarantines after its
//!    rebuild budget, every response that *completes* is bitwise-identical
//!    to the pristine output (zero corrupted results), and degraded /
//!    quarantine telemetry is recorded.
//!
//! The suite writes `BENCH_faults.json` at the repository root; the
//! `faults` binary re-reads the file, parses it with
//! [`crate::json::parse`] and checks it with [`validate`], so CI fails on
//! a fault model that stops protecting the serving layer.

use std::time::Duration;

use forms_arch::{MappedLayer, MappingConfig};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{Executor, FaultCampaign, FaultableEngine};
use forms_reram::CellSpec;
use forms_rng::{Rng, StdRng};
use forms_serve::{HealthPolicy, PacedConfig, PacedEngine, ServeConfig, ServeError, Server};
use forms_tensor::Tensor;

use crate::json::JsonValue;

/// Shapes, fault axes and storm sizing for one suite run.
#[derive(Clone, Debug)]
pub struct FaultsBenchSpec {
    /// `"full"` or `"smoke"` — recorded in the JSON document.
    pub mode: &'static str,
    /// Human-readable label of the benchmarked layer shape.
    pub layer_label: &'static str,
    /// Lowered weight-matrix rows.
    pub rows: usize,
    /// Lowered weight-matrix columns (class scores for the agreement
    /// metric).
    pub cols: usize,
    /// Base FORMS mapping parameters; `fragment_size` is overridden per
    /// curve, and the ISAAC baseline derives its config from the rest.
    pub mapping: MappingConfig,
    /// FORMS fragment sizes to sweep (ascending; the weight matrix is
    /// polarized at the largest, which every smaller aligned fragment
    /// also satisfies).
    pub fragment_sizes: Vec<usize>,
    /// Cell stuck-at fault rates to sweep (ascending, starting at 0.0;
    /// each rate is split evenly between stuck-low and stuck-high).
    pub rates: Vec<f64>,
    /// Random input samples per measurement point.
    pub samples: usize,
    /// Independent fault draws (campaign seeds) averaged per rate.
    pub trials: u64,
    /// Requests offered during the serving fault storm.
    pub storm_requests: usize,
    /// Modeled per-MVM device occupancy of the storm replicas.
    pub device_latency: Duration,
}

impl FaultsBenchSpec {
    /// The real measurement point: a Table-V-style lowered conv layer at
    /// the paper's crossbar configuration, fragment sizes spanning the
    /// fine-grained design space.
    pub fn full() -> Self {
        Self {
            mode: "full",
            layer_label: "VGG conv 3x3x64->64 (Table-V style, 576x64 lowered)",
            rows: 576,
            cols: 64,
            mapping: MappingConfig::paper(16),
            fragment_sizes: vec![4, 8, 16],
            rates: vec![0.0, 0.002, 0.005, 0.01, 0.02, 0.05],
            samples: 48,
            trials: 3,
            storm_requests: 24,
            device_latency: Duration::from_millis(2),
        }
    }

    /// A seconds-scale variant for CI: tiny layer, fewer draws, same code
    /// paths and JSON schema as [`full`](Self::full).
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            layer_label: "smoke conv 3x3x8->8 (72x8 lowered)",
            rows: 72,
            cols: 8,
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: 8,
                weight_bits: 8,
                cell: CellSpec::paper_2bit(),
                input_bits: 8,
                zero_skipping: true,
            },
            fragment_sizes: vec![4, 8],
            rates: vec![0.0, 0.01, 0.05],
            samples: 24,
            trials: 2,
            storm_requests: 12,
            device_latency: Duration::from_millis(1),
        }
    }
}

/// One design's accuracy-vs-fault-rate curve.
#[derive(Clone, Debug)]
pub struct FaultCurve {
    /// `"FORMS"` or `"ISAAC"`.
    pub design: &'static str,
    /// FORMS fragment size, `None` for the ISAAC baseline.
    pub fragment_size: Option<usize>,
    /// Top-1 agreement with the clean mapping per swept rate, in `[0, 1]`.
    pub agreement: Vec<f64>,
    /// Mean relative L2 output error versus the clean mapping per rate.
    pub mean_rel_err: Vec<f64>,
}

impl FaultCurve {
    /// Mean top-1 agreement across the whole rate sweep — the aggregate
    /// [`validate`] compares between designs.
    pub fn mean_agreement(&self) -> f64 {
        if self.agreement.is_empty() {
            return 0.0;
        }
        self.agreement.iter().sum::<f64>() / self.agreement.len() as f64
    }
}

/// Availability outcome of the serving fault storm.
#[derive(Clone, Debug)]
pub struct StormResult {
    /// Replicas the resilient service ran.
    pub replicas: usize,
    /// Requests submitted.
    pub requests: usize,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests refused with [`ServeError::Degraded`].
    pub degraded: u64,
    /// Completed responses that did **not** match the pristine output —
    /// must be zero for the degradation layer to be doing its job.
    pub corrupted: usize,
    /// Replicas quarantined after exhausting their rebuild budget.
    pub quarantines: u64,
    /// Rebuild-from-pristine recovery attempts.
    pub rebuilds: u64,
    /// Fault campaigns the replicas applied to themselves.
    pub faults_injected: u64,
}

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct FaultsBenchReport {
    /// The spec the run used.
    pub spec: FaultsBenchSpec,
    /// Accuracy curves: one per FORMS fragment size, then ISAAC.
    pub curves: Vec<FaultCurve>,
    /// The serving fault-storm outcome.
    pub storm: StormResult,
}

impl FaultsBenchReport {
    /// Mean agreement of the *worst* FORMS curve and of the ISAAC curve —
    /// the suite's headline comparison. FORMS passes only if every swept
    /// fragment size beats the baseline in aggregate.
    pub fn forms_vs_isaac(&self) -> Option<(f64, f64)> {
        let forms = self
            .curves
            .iter()
            .filter(|c| c.design == "FORMS")
            .map(FaultCurve::mean_agreement)
            .fold(f64::NAN, f64::min);
        let isaac = self
            .curves
            .iter()
            .find(|c| c.design == "ISAAC")
            .map(FaultCurve::mean_agreement)?;
        forms.is_finite().then_some((forms, isaac))
    }

    /// Renders the report as the `BENCH_faults.json` document.
    pub fn to_json(&self) -> JsonValue {
        let curves = self
            .curves
            .iter()
            .map(|c| {
                let mut fields = vec![("design", JsonValue::String(c.design.into()))];
                if let Some(f) = c.fragment_size {
                    fields.push(("fragment_size", JsonValue::Number(f as f64)));
                }
                fields.push((
                    "agreement",
                    JsonValue::Array(c.agreement.iter().map(|&a| JsonValue::Number(a)).collect()),
                ));
                fields.push((
                    "mean_rel_err",
                    JsonValue::Array(
                        c.mean_rel_err
                            .iter()
                            .map(|&e| JsonValue::Number(e))
                            .collect(),
                    ),
                ));
                JsonValue::object(fields)
            })
            .collect();
        let storm = &self.storm;
        JsonValue::object(vec![
            ("bench", JsonValue::String("faults".into())),
            ("mode", JsonValue::String(self.spec.mode.into())),
            (
                "layer",
                JsonValue::object(vec![
                    ("label", JsonValue::String(self.spec.layer_label.into())),
                    ("rows", JsonValue::Number(self.spec.rows as f64)),
                    ("cols", JsonValue::Number(self.spec.cols as f64)),
                ]),
            ),
            (
                "accuracy",
                JsonValue::object(vec![
                    (
                        "rates",
                        JsonValue::Array(
                            self.spec
                                .rates
                                .iter()
                                .map(|&r| JsonValue::Number(r))
                                .collect(),
                        ),
                    ),
                    ("samples", JsonValue::Number(self.spec.samples as f64)),
                    ("trials", JsonValue::Number(self.spec.trials as f64)),
                    ("curves", JsonValue::Array(curves)),
                ]),
            ),
            (
                "storm",
                JsonValue::object(vec![
                    ("replicas", JsonValue::Number(storm.replicas as f64)),
                    ("requests", JsonValue::Number(storm.requests as f64)),
                    ("completed", JsonValue::Number(storm.completed as f64)),
                    ("degraded", JsonValue::Number(storm.degraded as f64)),
                    ("corrupted", JsonValue::Number(storm.corrupted as f64)),
                    ("quarantines", JsonValue::Number(storm.quarantines as f64)),
                    ("rebuilds", JsonValue::Number(storm.rebuilds as f64)),
                    (
                        "faults_injected",
                        JsonValue::Number(storm.faults_injected as f64),
                    ),
                ]),
            ),
        ])
    }
}

/// The benchmarked single-weight-layer network. The matrix is polarized
/// at the *largest* swept fragment size; sign constancy over an aligned
/// 16-row group implies constancy over its 4- and 8-row subgroups, so the
/// same matrix maps at every swept fragment size and on ISAAC.
fn faults_network(spec: &FaultsBenchSpec) -> Network {
    let fragment = spec.fragment_sizes.iter().copied().max().unwrap_or(4);
    let mut rng = StdRng::seed_from_u64(0xFA_0175);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = crate::mvm::polarized_matrix(spec.rows, spec.cols, fragment);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Seeded random input batch in `[0, 1)`, one row per sample.
fn sample_inputs(spec: &FaultsBenchSpec) -> Tensor {
    let mut rng = StdRng::seed_from_u64(0x1_2B07);
    Tensor::from_fn(&[spec.samples, spec.rows], |_| rng.gen::<f32>())
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Sweeps the fault-rate axis for one mapped design: per rate, averages
/// top-1 agreement and relative output error over `trials` independent
/// campaign seeds, each injected into a fresh clone of the pristine
/// executor through the packed bit-plane path.
fn accuracy_curve<E>(
    design: &'static str,
    fragment_size: Option<usize>,
    pristine: &Executor<E>,
    inputs: &Tensor,
    spec: &FaultsBenchSpec,
) -> FaultCurve
where
    E: FaultableEngine,
{
    let samples = spec.samples;
    let clean = pristine.clone().forward(inputs);
    let clean_rows: Vec<&[f32]> = clean.data().chunks(spec.cols).collect();
    let mut agreement = Vec::with_capacity(spec.rates.len());
    let mut mean_rel_err = Vec::with_capacity(spec.rates.len());
    for &rate in &spec.rates {
        let mut matches = 0usize;
        let mut rel_err_sum = 0.0f64;
        for trial in 0..spec.trials {
            let campaign = FaultCampaign::stuck_at(0xFA17 ^ trial, rate * 0.5, rate * 0.5);
            let mut faulty = pristine.clone();
            faulty.inject_faults(&campaign, trial.wrapping_mul(0x9E37));
            let out = faulty.forward(inputs);
            for (s, clean_row) in clean_rows.iter().enumerate() {
                let faulty_row = &out.data()[s * spec.cols..(s + 1) * spec.cols];
                if argmax(faulty_row) == argmax(clean_row) {
                    matches += 1;
                }
                let (mut diff2, mut norm2) = (0.0f64, 0.0f64);
                for (f, c) in faulty_row.iter().zip(clean_row.iter()) {
                    diff2 += f64::from(f - c).powi(2);
                    norm2 += f64::from(*c).powi(2);
                }
                if norm2 > 0.0 {
                    rel_err_sum += (diff2 / norm2).sqrt();
                }
            }
        }
        let points = (samples as u64 * spec.trials) as f64;
        agreement.push(matches as f64 / points);
        mean_rel_err.push(rel_err_sum / points);
    }
    println!(
        "{:>5}{}  agreement {}",
        design,
        fragment_size.map_or(String::new(), |f| format!(" m={f}")),
        agreement
            .iter()
            .map(|a| format!("{:.3}", a))
            .collect::<Vec<_>>()
            .join(" "),
    );
    FaultCurve {
        design,
        fragment_size,
        agreement,
        mean_rel_err,
    }
}

/// Stuck-high rate of the storm's persistent poison — heavy enough that a
/// poisoned replica's outputs blow past the pristine ceiling and trip the
/// sentinels on the first batch they corrupt.
const STORM_STUCK_HIGH_RATE: f64 = 0.35;

/// The storm serves a *single-polarity* layer (every weight positive):
/// with all fragments contributing one sign, a stuck-high campaign can
/// only inflate column currents toward — and past — the pristine ceiling,
/// so the output sentinels are guaranteed to see the corruption. On the
/// mixed-sign sweep matrix, inflation in positive and negative fragments
/// partially cancels, which is exactly the blind spot a range sentinel
/// has; the storm avoids it on purpose, because its job is to gate the
/// *recovery machinery*, not the sentinel's coverage.
fn storm_network(spec: &FaultsBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0x570_0142);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = Tensor::from_fn(&[spec.rows, spec.cols], |i| {
        0.05 + ((i * 31) % 13) as f32 * 0.07
    });
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Runs the serving fault storm: two paced replicas over the FORMS
/// mapping, one persistently poisoned mid-run with a stuck-high campaign.
/// The health policy tolerates the fault *density* (so requests reach the
/// poisoned silicon), and the output-range sentinels catch the corruption:
/// poisoned batches are refused as [`ServeError::Degraded`], the replica
/// rebuilds, is re-poisoned, and quarantines, while the healthy peer keeps
/// completing pristine responses.
fn run_storm(pristine: &Executor<PacedEngine<MappedLayer>>, spec: &FaultsBenchSpec) -> StormResult {
    let replicas = 2;
    let builder = Server::builder()
        .config(ServeConfig {
            replicas,
            queue_capacity: spec.storm_requests.max(4),
            max_batch: 2,
            max_delay: Duration::from_micros(200),
            default_deadline: None,
        })
        .health(HealthPolicy {
            // Tolerate the raw density so the sentinel path (not the
            // density gate) is what refuses corrupted batches.
            max_fault_density: 1.0,
            max_rebuilds: 1,
            backoff: Duration::from_micros(100),
            backoff_multiplier: 2.0,
        });
    // Full-scale inputs: every input code is at the top of the range, so a
    // stuck-high array has no quantization headroom to hide in.
    let request = vec![1.0f32; spec.rows];
    let clean = {
        let mut probe = pristine.clone();
        probe
            .forward(&Tensor::from_vec(request.clone(), &[1, spec.rows]))
            .into_vec()
    };
    let poison = FaultCampaign::stuck_at(0x570_12A, 0.0, STORM_STUCK_HIGH_RATE);
    let warmup = spec.storm_requests / 3;
    // Recovery is asynchronous (the poisoned replica must pull at least
    // two batches to exhaust its rebuild budget), so after the minimum
    // request count the client keeps offering small waves until the
    // quarantine shows up in telemetry, up to a generous cap.
    let max_waves = 200;
    let ((requests, completed_outputs, degraded_seen), telemetry) =
        builder.run_resilient(pristine, &[spec.rows], |handle, faults| {
            let mut outputs: Vec<Vec<f32>> = Vec::new();
            let mut degraded = 0usize;
            let mut requests = 0usize;
            let drive = |n: usize, outputs: &mut Vec<Vec<f32>>, degraded: &mut usize| {
                let tickets: Vec<_> = (0..n)
                    .map(|_| {
                        handle
                            .submit(request.clone())
                            .expect("queue sized for storm")
                    })
                    .collect();
                for t in tickets {
                    match t.wait() {
                        Ok(r) => outputs.push(r.output),
                        Err(ServeError::Degraded) => *degraded += 1,
                        Err(e) => panic!("unexpected storm outcome: {e}"),
                    }
                }
            };
            drive(warmup, &mut outputs, &mut degraded);
            requests += warmup;
            faults.poison(0, poison);
            while requests < spec.storm_requests
                || (handle.telemetry().quarantines == 0 && requests < warmup + max_waves * 2)
            {
                drive(2, &mut outputs, &mut degraded);
                requests += 2;
            }
            (requests, outputs, degraded)
        });
    let corrupted = completed_outputs.iter().filter(|o| **o != clean).count();
    println!(
        "storm: {} requests -> {} completed ({} corrupted), {} degraded, {} rebuilds, {} quarantined",
        requests,
        telemetry.completed,
        corrupted,
        telemetry.degraded,
        telemetry.rebuilds,
        telemetry.quarantines,
    );
    assert_eq!(
        degraded_seen as u64, telemetry.degraded,
        "client-observed and telemetry degraded counts must agree"
    );
    StormResult {
        replicas,
        requests,
        completed: telemetry.completed,
        degraded: telemetry.degraded,
        corrupted,
        quarantines: telemetry.quarantines,
        rebuilds: telemetry.rebuilds,
        faults_injected: telemetry.faults_injected,
    }
}

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark layer cannot be mapped (a bug in the spec).
pub fn run(spec: &FaultsBenchSpec) -> FaultsBenchReport {
    let net = faults_network(spec);
    let inputs = sample_inputs(spec);
    let mut curves = Vec::new();
    for &fragment in &spec.fragment_sizes {
        let config = MappingConfig {
            fragment_size: fragment,
            ..spec.mapping
        };
        let exec = Executor::<MappedLayer>::map_network(&net, &config, config.input_bits)
            .expect("bench layer maps on FORMS");
        curves.push(accuracy_curve(
            "FORMS",
            Some(fragment),
            &exec,
            &inputs,
            spec,
        ));
    }
    let isaac_config = IsaacConfig {
        crossbar_dim: spec.mapping.crossbar_dim,
        cell: spec.mapping.cell,
        weight_bits: spec.mapping.weight_bits,
        input_bits: spec.mapping.input_bits,
    };
    let isaac = Executor::<IsaacLayer>::map_network(&net, &isaac_config, spec.mapping.input_bits)
        .expect("bench layer maps on ISAAC");
    curves.push(accuracy_curve("ISAAC", None, &isaac, &inputs, spec));

    let storm_config = PacedConfig {
        inner: MappingConfig {
            fragment_size: spec.fragment_sizes.first().copied().unwrap_or(4),
            ..spec.mapping
        },
        latency: spec.device_latency,
    };
    let paced = Executor::<PacedEngine<MappedLayer>>::map_network(
        &storm_network(spec),
        &storm_config,
        spec.mapping.input_bits,
    )
    .expect("storm layer maps behind pacing");
    let storm = run_storm(&paced, spec);
    FaultsBenchReport {
        spec: spec.clone(),
        curves,
        storm,
    }
}

/// Checks that a parsed `BENCH_faults.json` document has the shape this
/// suite writes and proves both halves of the degradation story: every
/// FORMS curve starts at perfect agreement, degrades monotonically no
/// faster than the ISAAC baseline in aggregate, and the serving storm
/// quarantined the poisoned replica without returning a single corrupted
/// response.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("faults") {
        return Err("missing or wrong `bench` field".into());
    }
    match doc.get("mode").and_then(JsonValue::as_str) {
        Some("full" | "smoke") => {}
        _ => return Err("`mode` must be \"full\" or \"smoke\"".into()),
    }
    let accuracy = doc.get("accuracy").ok_or("missing `accuracy` object")?;
    let rates = accuracy
        .get("rates")
        .and_then(JsonValue::as_array)
        .ok_or("missing `accuracy.rates` array")?;
    if rates.is_empty() {
        return Err("`accuracy.rates` must not be empty".into());
    }
    let mut rate_values = Vec::with_capacity(rates.len());
    for (i, r) in rates.iter().enumerate() {
        let v = r
            .as_f64()
            .ok_or_else(|| format!("rates[{i}] is not a number"))?;
        if !(0.0..=1.0).contains(&v) || rate_values.last().is_some_and(|&p| v <= p) {
            return Err("`accuracy.rates` must ascend within [0, 1]".into());
        }
        rate_values.push(v);
    }
    if rate_values[0] != 0.0 {
        return Err("`accuracy.rates` must start at 0.0 (clean anchor)".into());
    }
    let curves = accuracy
        .get("curves")
        .and_then(JsonValue::as_array)
        .ok_or("missing `accuracy.curves` array")?;
    let mut worst_forms = f64::INFINITY;
    let mut isaac_mean = None;
    let mut forms_curves = 0usize;
    for (i, curve) in curves.iter().enumerate() {
        let design = match curve.get("design").and_then(JsonValue::as_str) {
            Some(d @ ("FORMS" | "ISAAC")) => d,
            _ => return Err(format!("curves[{i}] has no valid `design`")),
        };
        let series = |key: &str| -> Result<Vec<f64>, String> {
            let arr = curve
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("curves[{i}] missing `{key}` array"))?;
            if arr.len() != rate_values.len() {
                return Err(format!("curves[{i}].{key} length mismatches `rates`"));
            }
            arr.iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|x| x.is_finite())
                        .ok_or_else(|| format!("curves[{i}].{key} has a non-numeric entry"))
                })
                .collect()
        };
        let agreement = series("agreement")?;
        let rel_err = series("mean_rel_err")?;
        if agreement.iter().any(|&a| !(0.0..=1.0).contains(&a)) {
            return Err(format!("curves[{i}] agreement outside [0, 1]"));
        }
        if agreement[0] != 1.0 || rel_err[0] != 0.0 {
            return Err(format!("curves[{i}] must be exact at the 0.0 clean anchor"));
        }
        let mean = agreement.iter().sum::<f64>() / agreement.len() as f64;
        if design == "FORMS" {
            forms_curves += 1;
            worst_forms = worst_forms.min(mean);
        } else {
            isaac_mean = Some(mean);
        }
    }
    if forms_curves == 0 {
        return Err("no FORMS curve in `accuracy.curves`".into());
    }
    let isaac_mean = isaac_mean.ok_or("no ISAAC curve in `accuracy.curves`")?;
    // The headline claim: fine-grained polarized mapping tolerates stuck
    // cells better than offset encoding — every swept FORMS fragment size
    // must hold at least the baseline's aggregate agreement.
    if worst_forms < isaac_mean {
        return Err(format!(
            "FORMS mean agreement {worst_forms:.3} fell below ISAAC's {isaac_mean:.3}"
        ));
    }
    let storm = doc.get("storm").ok_or("missing `storm` object")?;
    let num = |key: &str| {
        storm
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric `storm.{key}`"))
    };
    if num("corrupted")? != 0.0 {
        return Err("storm returned corrupted responses".into());
    }
    if num("completed")? <= 0.0 {
        return Err("storm completed no requests — no availability".into());
    }
    if num("quarantines")? < 1.0 {
        return Err("storm never quarantined the poisoned replica".into());
    }
    if num("rebuilds")? < 1.0 {
        return Err("storm never attempted recovery before quarantine".into());
    }
    if num("degraded")? < 1.0 {
        return Err("storm recorded no Degraded refusals".into());
    }
    if num("requests")? < num("completed")? + num("degraded")? {
        return Err("storm resolved more requests than were offered".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn smoke_report_round_trips_and_validates() {
        let report = run(&FaultsBenchSpec::smoke());
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        let (forms, isaac) = report.forms_vs_isaac().unwrap();
        assert!(forms >= isaac, "FORMS must degrade no faster than ISAAC");
        assert_eq!(report.storm.corrupted, 0);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let report = run(&FaultsBenchSpec::smoke());
        let good = report.to_json();
        validate(&good).unwrap();
        let JsonValue::Object(fields) = &good else {
            panic!("report is an object")
        };
        for missing in ["bench", "mode", "accuracy", "storm"] {
            let broken = JsonValue::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != missing)
                    .cloned()
                    .collect(),
            );
            assert!(validate(&broken).is_err(), "accepted doc without {missing}");
        }
        // A corrupted completed response must fail validation.
        let mut poisoned = fields.clone();
        for (k, v) in &mut poisoned {
            if k == "storm" {
                if let JsonValue::Object(storm) = v {
                    for (sk, sv) in storm.iter_mut() {
                        if sk == "corrupted" {
                            *sv = JsonValue::Number(1.0);
                        }
                    }
                }
            }
        }
        assert!(validate(&JsonValue::Object(poisoned)).is_err());
        // FORMS degrading faster than ISAAC must fail validation.
        let mut inverted = fields.clone();
        for (k, v) in &mut inverted {
            if k == "accuracy" {
                if let JsonValue::Object(acc) = v {
                    for (ak, av) in acc.iter_mut() {
                        if ak != "curves" {
                            continue;
                        }
                        if let JsonValue::Array(curves) = av {
                            for curve in curves.iter_mut() {
                                let JsonValue::Object(cf) = curve else {
                                    continue;
                                };
                                let is_forms = cf
                                    .iter()
                                    .any(|(ck, cv)| ck == "design" && cv.as_str() == Some("FORMS"));
                                if !is_forms {
                                    continue;
                                }
                                for (ck, cv) in cf.iter_mut() {
                                    if ck != "agreement" {
                                        continue;
                                    }
                                    if let JsonValue::Array(points) = cv {
                                        for p in points.iter_mut().skip(1) {
                                            *p = JsonValue::Number(0.0);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(validate(&JsonValue::Object(inverted)).is_err());
        assert!(validate(&JsonValue::Null).is_err());
    }
}
