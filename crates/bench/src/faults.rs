//! Fault-tolerance suite (`BENCH_faults.json`).
//!
//! Gates the fault-injection and graceful-degradation layer on the
//! paper's robustness claim (§II-C, §V-E): polarized FORMS mapping
//! quantizes magnitudes over the full `2^wb - 1` code range, while the
//! ISAAC offset encoding spends one bit on the bias, so the same stuck
//! cell corrupts a FORMS column by roughly half as much weight. The suite
//! maps one fragment-polarized layer on FORMS and on ISAAC, injects seeded
//! stuck-at campaigns at increasing cell-fault rates through the packed
//! bit-plane path, and records top-1 agreement with the clean mapping plus
//! mean relative output error. [`validate`] requires the FORMS curve to
//! degrade more slowly than ISAAC's in aggregate.
//!
//! FORMS is measured at one fragment size: the per-fragment ADC
//! ([`forms_reram::Adc::for_fragment`]) is lossless, so every fragment size
//! gives a bitwise-identical curve until lossy converters are modeled.
//! The serving-side fault storm (poisoned replica, rebuild, quarantine)
//! runs over a socket in the `net` suite.
//!
//! The suite writes `BENCH_faults.json` at the repository root; the
//! `faults` binary re-reads the file, parses it with
//! [`crate::json::parse`] and checks it with [`validate`], so CI fails on
//! a fault model that stops favoring FORMS.

use forms_arch::{MappedLayer, MappingConfig};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{Executor, FaultCampaign, FaultableEngine};
use forms_reram::CellSpec;
use forms_rng::{Rng, StdRng};
use forms_tensor::Tensor;

use crate::json::JsonValue;

/// Shapes and fault axes for one suite run.
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
    /// FORMS mapping parameters (the weight matrix is polarized at its
    /// `fragment_size`); the ISAAC baseline derives its config from them.
    pub mapping: MappingConfig,
    /// Cell stuck-at fault rates to sweep (ascending, starting at 0.0;
    /// each rate is split evenly between stuck-low and stuck-high).
    pub rates: Vec<f64>,
    /// Random input samples per measurement point.
    pub samples: usize,
    /// Independent fault draws (campaign seeds) averaged per rate.
    pub trials: u64,
}

impl FaultsBenchSpec {
    /// The real measurement point: a Table-V-style lowered conv layer at
    /// the paper's crossbar configuration.
    pub fn full() -> Self {
        Self {
            mode: "full",
            layer_label: "VGG conv 3x3x64->64 (Table-V style, 576x64 lowered)",
            rows: 576,
            cols: 64,
            mapping: MappingConfig::paper(16),
            rates: vec![0.0, 0.002, 0.005, 0.01, 0.02, 0.05],
            samples: 48,
            trials: 3,
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
            rates: vec![0.0, 0.01, 0.05],
            samples: 24,
            trials: 2,
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

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct FaultsBenchReport {
    /// The spec the run used.
    pub spec: FaultsBenchSpec,
    /// Accuracy curves: FORMS, then ISAAC.
    pub curves: Vec<FaultCurve>,
}

impl FaultsBenchReport {
    /// Mean agreement of the FORMS curve and of the ISAAC curve — the
    /// suite's headline comparison.
    pub fn forms_vs_isaac(&self) -> Option<(f64, f64)> {
        let mean = |design: &str| {
            self.curves
                .iter()
                .find(|c| c.design == design)
                .map(FaultCurve::mean_agreement)
        };
        Some((mean("FORMS")?, mean("ISAAC")?))
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
        ])
    }
}

/// The benchmarked single-weight-layer network, polarized at the spec's
/// fragment size so it maps on FORMS (and on ISAAC, which takes any sign
/// pattern).
fn faults_network(spec: &FaultsBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0xFA_0175);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = crate::mvm::polarized_matrix(spec.rows, spec.cols, spec.mapping.fragment_size);
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

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark layer cannot be mapped (a bug in the spec).
pub fn run(spec: &FaultsBenchSpec) -> FaultsBenchReport {
    let net = faults_network(spec);
    let inputs = sample_inputs(spec);
    let forms = Executor::<MappedLayer>::map_network(&net, &spec.mapping, spec.mapping.input_bits)
        .expect("bench layer maps on FORMS");
    let isaac_config = IsaacConfig {
        crossbar_dim: spec.mapping.crossbar_dim,
        cell: spec.mapping.cell,
        weight_bits: spec.mapping.weight_bits,
        input_bits: spec.mapping.input_bits,
    };
    let isaac = Executor::<IsaacLayer>::map_network(&net, &isaac_config, spec.mapping.input_bits)
        .expect("bench layer maps on ISAAC");
    FaultsBenchReport {
        spec: spec.clone(),
        curves: vec![
            accuracy_curve(
                "FORMS",
                Some(spec.mapping.fragment_size),
                &forms,
                &inputs,
                spec,
            ),
            accuracy_curve("ISAAC", None, &isaac, &inputs, spec),
        ],
    }
}

/// Checks that a parsed `BENCH_faults.json` document has the shape this
/// suite writes and proves the robustness claim: exactly one FORMS and
/// one ISAAC curve, both exact at the clean anchor, with FORMS degrading
/// no faster than the ISAAC baseline in aggregate.
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
    let (mut forms_mean, mut isaac_mean) = (None, None);
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
        let slot = if design == "FORMS" {
            &mut forms_mean
        } else {
            &mut isaac_mean
        };
        if slot.replace(mean).is_some() {
            return Err(format!("more than one {design} curve in `accuracy.curves`"));
        }
    }
    let forms_mean = forms_mean.ok_or("no FORMS curve in `accuracy.curves`")?;
    let isaac_mean = isaac_mean.ok_or("no ISAAC curve in `accuracy.curves`")?;
    // The headline claim: fine-grained polarized mapping tolerates stuck
    // cells better than offset encoding in aggregate.
    if forms_mean < isaac_mean {
        return Err(format!(
            "FORMS mean agreement {forms_mean:.3} fell below ISAAC's {isaac_mean:.3}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    // One smoke run feeds both the round-trip and the rejection checks.
    #[test]
    fn smoke_report_round_trips_validates_and_rejects_mutations() {
        let report = run(&FaultsBenchSpec::smoke());
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        let (forms, isaac) = report.forms_vs_isaac().unwrap();
        assert!(forms >= isaac, "FORMS must degrade no faster than ISAAC");

        let JsonValue::Object(fields) = &doc else {
            panic!("report is an object")
        };
        for missing in ["bench", "mode", "accuracy"] {
            let broken = JsonValue::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != missing)
                    .cloned()
                    .collect(),
            );
            assert!(validate(&broken).is_err(), "accepted doc without {missing}");
        }
        // FORMS degrading faster than ISAAC must fail validation.
        let mut inverted = report.clone();
        for curve in inverted.curves.iter_mut().filter(|c| c.design == "FORMS") {
            curve.agreement[1..].fill(0.0);
        }
        let err = validate(&inverted.to_json()).expect_err("inverted report validated");
        assert!(err.contains("fell below ISAAC"), "unexpected error {err}");
        // A second FORMS curve must fail validation.
        let mut doubled = report.clone();
        doubled.curves.push(report.curves[0].clone());
        assert!(validate(&doubled.to_json()).is_err());
        assert!(validate(&JsonValue::Null).is_err());
    }

    // `Adc::for_fragment` converts every fragment losslessly, so the
    // fragment size cannot move the curve. This fails once lossy ADCs are
    // modeled — the point to bring a fragment-size axis back.
    #[test]
    fn fragment_size_does_not_move_the_curve_under_the_lossless_adc() {
        let spec = FaultsBenchSpec::smoke();
        let net = faults_network(&spec);
        let inputs = sample_inputs(&spec);
        let curve = |fragment_size: usize| {
            let config = MappingConfig {
                fragment_size,
                ..spec.mapping
            };
            let exec = Executor::<MappedLayer>::map_network(&net, &config, config.input_bits)
                .expect("smoke layer maps on FORMS");
            accuracy_curve("FORMS", Some(fragment_size), &exec, &inputs, &spec)
        };
        let (coarse, fine) = (curve(spec.mapping.fragment_size), curve(4));
        assert_eq!(coarse.agreement, fine.agreement);
        assert_eq!(coarse.mean_rel_err, fine.mean_rel_err);
    }
}
