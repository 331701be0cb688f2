//! Serving-layer throughput suite (`BENCH_serve.json`).
//!
//! Gates the `forms-serve` subsystem: drives an open-loop Poisson request
//! stream against a multi-replica service over a Table-V-style lowered
//! layer, sweeping replica count × batch size for the FORMS design and the
//! ISAAC baseline, and records sustained throughput, p50/p99 latency and
//! shed rate per sweep point.
//!
//! Every replica's engine is wrapped in a [`PacedEngine`] modeling one
//! attached
//! accelerator device (fixed per-MVM occupancy), so replica scaling
//! measures the serving layer's queue/replica overlap rather than host
//! core count — on any host, N device-bound replicas should sustain ~N×
//! the single-replica throughput until the offered load is reached.
//!
//! The suite writes `BENCH_serve.json` at the repository root; the
//! `serve` binary re-reads the file, parses it with [`crate::json::parse`]
//! and checks it with [`validate`] — which requires the 1→max-replica
//! scaling to clear a mode-dependent floor — so CI fails on a serving
//! layer that stops scaling.

use std::time::Duration;

use forms_arch::{MappedLayer, MappingConfig};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{CrossbarEngine, Executor};
use forms_reram::CellSpec;
use forms_rng::StdRng;
use forms_serve::{
    run_open_loop, OpenLoopSpec, PacedConfig, PacedEngine, ServeConfig, Server, TelemetrySnapshot,
};
use forms_workloads::ActivationModel;

use crate::json::JsonValue;
use crate::mvm::polarized_matrix;
use crate::timing::percentile;

/// Shapes, pacing and sweep axes for one suite run.
#[derive(Clone, Debug)]
pub struct ServeBenchSpec {
    /// `"full"` or `"smoke"` — recorded in the JSON document.
    pub mode: &'static str,
    /// Human-readable label of the served layer shape.
    pub layer_label: &'static str,
    /// Lowered weight-matrix rows (request payload length).
    pub rows: usize,
    /// Lowered weight-matrix columns (response length).
    pub cols: usize,
    /// FORMS mapping parameters (ISAAC derives its config from them).
    pub mapping: MappingConfig,
    /// Modeled per-MVM device occupancy.
    pub device_latency: Duration,
    /// Offered open-loop load per sweep point, in requests/s.
    pub rate_rps: f64,
    /// Requests offered per sweep point.
    pub requests: usize,
    /// Replica counts to sweep (ascending; first must be 1).
    pub replicas: Vec<usize>,
    /// Batch-size limits to sweep.
    pub batches: Vec<usize>,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Dynamic-batching straggler window.
    pub max_delay: Duration,
}

impl ServeBenchSpec {
    /// The real measurement point: the Table-V-style VGG conv layer
    /// (1152×128 lowered) at the paper's configuration, paced at a device
    /// latency that keeps four replicas' host compute under one core.
    pub fn full() -> Self {
        Self {
            mode: "full",
            layer_label: "VGG conv 3x3x128->128 (Table-V style, 1152x128 lowered)",
            rows: 1152,
            cols: 128,
            mapping: MappingConfig::paper(8),
            device_latency: Duration::from_millis(60),
            rate_rps: 120.0,
            requests: 240,
            replicas: vec![1, 2, 4],
            batches: vec![1, 4],
            queue_capacity: 32,
            max_delay: Duration::from_millis(5),
        }
    }

    /// A seconds-scale variant for CI: tiny layer, short pacing, same
    /// code paths and JSON schema as [`full`](Self::full).
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            layer_label: "smoke conv 3x3x8->8 (72x8 lowered)",
            rows: 72,
            cols: 8,
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: 4,
                weight_bits: 8,
                cell: CellSpec::paper_2bit(),
                input_bits: 8,
                zero_skipping: true,
            },
            device_latency: Duration::from_millis(3),
            rate_rps: 600.0,
            requests: 90,
            replicas: vec![1, 4],
            batches: vec![1, 4],
            queue_capacity: 16,
            max_delay: Duration::from_millis(1),
        }
    }
}

/// One sweep point's measurements.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// `"FORMS"` or `"ISAAC"`.
    pub design: &'static str,
    /// Replica count of this point.
    pub replicas: usize,
    /// Batch-size limit of this point.
    pub max_batch: usize,
    /// Sustained goodput in requests/s (completed over wall clock).
    pub throughput_rps: f64,
    /// Median end-to-end latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency in milliseconds.
    pub p99_ms: f64,
    /// Mean end-to-end latency in milliseconds.
    pub mean_ms: f64,
    /// Fraction of offered requests shed at admission.
    pub shed_rate: f64,
    /// Requests that completed.
    pub completed: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests expired in queue.
    pub expired: usize,
    /// Requests failed by a replica.
    pub failed: usize,
    /// The service's own final telemetry for this point, rendered into
    /// the document via [`TelemetrySnapshot::to_json`] as a server-side
    /// cross-check of the client-observed columns.
    pub telemetry: TelemetrySnapshot,
}

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// The spec the run used.
    pub spec: ServeBenchSpec,
    /// All sweep points, in design → replicas → batch order.
    pub points: Vec<SweepPoint>,
}

impl ServeBenchReport {
    /// Sustained-throughput scaling for a design: best throughput at the
    /// largest swept replica count over best at one replica.
    pub fn scaling(&self, design: &str) -> Option<f64> {
        let max_replicas = self.spec.replicas.iter().copied().max()?;
        let best = |replicas: usize| {
            self.points
                .iter()
                .filter(|p| p.design == design && p.replicas == replicas)
                .map(|p| p.throughput_rps)
                .fold(f64::NAN, f64::max)
        };
        let (one, many) = (best(1), best(max_replicas));
        (one.is_finite() && many.is_finite() && one > 0.0).then(|| many / one)
    }

    /// Renders the report as the `BENCH_serve.json` document.
    pub fn to_json(&self) -> JsonValue {
        let sweep = self
            .points
            .iter()
            .map(|p| {
                JsonValue::object(vec![
                    ("design", JsonValue::String(p.design.into())),
                    ("replicas", JsonValue::Number(p.replicas as f64)),
                    ("max_batch", JsonValue::Number(p.max_batch as f64)),
                    ("throughput_rps", JsonValue::Number(p.throughput_rps)),
                    ("p50_ms", JsonValue::Number(p.p50_ms)),
                    ("p99_ms", JsonValue::Number(p.p99_ms)),
                    ("mean_ms", JsonValue::Number(p.mean_ms)),
                    ("shed_rate", JsonValue::Number(p.shed_rate)),
                    ("completed", JsonValue::Number(p.completed as f64)),
                    ("shed", JsonValue::Number(p.shed as f64)),
                    ("expired", JsonValue::Number(p.expired as f64)),
                    ("failed", JsonValue::Number(p.failed as f64)),
                    ("telemetry", p.telemetry.to_json()),
                ])
            })
            .collect();
        let mut scaling = Vec::new();
        for design in ["FORMS", "ISAAC"] {
            if let Some(s) = self.scaling(design) {
                scaling.push((design, JsonValue::Number(s)));
            }
        }
        JsonValue::object(vec![
            ("bench", JsonValue::String("serve".into())),
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
                "load",
                JsonValue::object(vec![
                    (
                        "device_latency_ms",
                        JsonValue::Number(self.spec.device_latency.as_secs_f64() * 1e3),
                    ),
                    ("offered_rps", JsonValue::Number(self.spec.rate_rps)),
                    (
                        "requests_per_point",
                        JsonValue::Number(self.spec.requests as f64),
                    ),
                    (
                        "queue_capacity",
                        JsonValue::Number(self.spec.queue_capacity as f64),
                    ),
                ]),
            ),
            ("sweep", JsonValue::Array(sweep)),
            (
                "throughput_scaling_1_to_max_replicas",
                JsonValue::object(scaling),
            ),
        ])
    }
}

/// The single-weight-layer network serving requests of `rows` activations:
/// the lowered conv layer as a linear layer, weights fragment-polarized so
/// both FORMS and ISAAC can map it.
fn serve_network(spec: &ServeBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0x53184);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = polarized_matrix(spec.rows, spec.cols, spec.mapping.fragment_size);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Sweeps replica count × batch size for one design's executor.
fn sweep_design<E>(
    design: &'static str,
    executor: &Executor<E>,
    spec: &ServeBenchSpec,
) -> Vec<SweepPoint>
where
    E: CrossbarEngine,
    E::Stats: Sync,
{
    let mut points = Vec::new();
    for &replicas in &spec.replicas {
        for &max_batch in &spec.batches {
            let config = ServeConfig {
                replicas,
                queue_capacity: spec.queue_capacity,
                max_batch,
                max_delay: spec.max_delay,
                default_deadline: None,
            };
            let load = OpenLoopSpec {
                rate_rps: spec.rate_rps,
                requests: spec.requests,
                seed: 0x10AD ^ (replicas as u64) << 8 ^ max_batch as u64,
                model: ActivationModel::half_normal(0.4),
                deadline: None,
            };
            let (report, telemetry) =
                Server::builder()
                    .config(config)
                    .run(executor, &[spec.rows], |handle| {
                        run_open_loop(handle, &load)
                    });
            // Live round-trip gate: the snapshot this point embeds must
            // survive its own JSON rendering bit-for-bit.
            let rendered = telemetry.to_json().pretty();
            let reparsed = TelemetrySnapshot::from_json(
                &crate::json::parse(&rendered).expect("telemetry renders valid JSON"),
            )
            .expect("telemetry JSON parses back");
            assert_eq!(reparsed, telemetry, "telemetry JSON round-trip drifted");
            // Exact client-side percentiles and mean from the samples.
            let ns: Vec<f64> = report
                .latencies
                .iter()
                .map(|d| d.as_nanos() as f64)
                .collect();
            let mean_ns = if ns.is_empty() {
                0.0
            } else {
                ns.iter().sum::<f64>() / ns.len() as f64
            };
            let point = SweepPoint {
                design,
                replicas,
                max_batch,
                throughput_rps: report.throughput_rps(),
                p50_ms: percentile(&ns, 0.50) / 1e6,
                p99_ms: percentile(&ns, 0.99) / 1e6,
                mean_ms: mean_ns / 1e6,
                shed_rate: report.shed_rate(),
                completed: report.completed,
                shed: report.shed,
                expired: report.expired,
                failed: report.failed,
                telemetry,
            };
            println!(
                "{:>5} r={} b={}  {:>7.1} req/s  p50 {:>8.1} ms  p99 {:>8.1} ms  shed {:>5.1}%  ({} ok / {} shed)",
                design,
                replicas,
                max_batch,
                point.throughput_rps,
                point.p50_ms,
                point.p99_ms,
                point.shed_rate * 100.0,
                point.completed,
                point.shed,
            );
            assert_eq!(point.telemetry.failed, 0, "bench engines must not fail");
            points.push(point);
        }
    }
    points
}

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark layer cannot be mapped (a bug in the spec).
pub fn run(spec: &ServeBenchSpec) -> ServeBenchReport {
    let net = serve_network(spec);
    let forms_config = PacedConfig {
        inner: spec.mapping,
        latency: spec.device_latency,
    };
    let forms = Executor::<PacedEngine<MappedLayer>>::map_network(
        &net,
        &forms_config,
        spec.mapping.input_bits,
    )
    .expect("bench layer maps on FORMS");
    let isaac_config = PacedConfig {
        inner: IsaacConfig {
            crossbar_dim: spec.mapping.crossbar_dim,
            cell: spec.mapping.cell,
            weight_bits: spec.mapping.weight_bits,
            input_bits: spec.mapping.input_bits,
        },
        latency: spec.device_latency,
    };
    let isaac = Executor::<PacedEngine<IsaacLayer>>::map_network(
        &net,
        &isaac_config,
        spec.mapping.input_bits,
    )
    .expect("bench layer maps on ISAAC");

    let mut points = sweep_design("FORMS", &forms, spec);
    points.extend(sweep_design("ISAAC", &isaac, spec));
    ServeBenchReport {
        spec: spec.clone(),
        points,
    }
}

/// Minimum acceptable 1→max-replica throughput scaling per mode: device-
/// bound replicas should scale near-linearly; the smoke floor is looser
/// because its points are sub-second and noisy.
pub fn scaling_floor(mode: &str) -> f64 {
    if mode == "full" {
        1.5
    } else {
        1.2
    }
}

/// Checks that a parsed `BENCH_serve.json` document has the shape this
/// suite writes: required top-level fields, a complete sweep with sane
/// latency/shed columns, and 1→max-replica throughput scaling at or above
/// the mode's floor for both designs.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("serve") {
        return Err("missing or wrong `bench` field".into());
    }
    let mode = match doc.get("mode").and_then(JsonValue::as_str) {
        Some(m @ ("full" | "smoke")) => m,
        _ => return Err("`mode` must be \"full\" or \"smoke\"".into()),
    };
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
    let sweep = doc
        .get("sweep")
        .and_then(JsonValue::as_array)
        .ok_or("missing `sweep` array")?;
    if sweep.is_empty() {
        return Err("`sweep` must not be empty".into());
    }
    for (i, point) in sweep.iter().enumerate() {
        for design_field in ["design"] {
            match point.get(design_field).and_then(JsonValue::as_str) {
                Some("FORMS" | "ISAAC") => {}
                _ => return Err(format!("sweep[{i}] has no valid `design`")),
            }
        }
        let num = |key: &str| {
            point
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("sweep[{i}] missing numeric `{key}`"))
        };
        let throughput = num("throughput_rps")?;
        if !(throughput.is_finite() && throughput > 0.0) {
            return Err(format!("sweep[{i}] has non-positive throughput"));
        }
        let (p50, p99) = (num("p50_ms")?, num("p99_ms")?);
        if !(p50.is_finite() && p99.is_finite() && 0.0 < p50 && p50 <= p99) {
            return Err(format!("sweep[{i}] latency percentiles out of order"));
        }
        let shed_rate = num("shed_rate")?;
        if !(0.0..=1.0).contains(&shed_rate) {
            return Err(format!("sweep[{i}] shed_rate outside [0, 1]"));
        }
        if num("failed")? != 0.0 {
            return Err(format!("sweep[{i}] recorded engine failures"));
        }
        let snapshot = point
            .get("telemetry")
            .ok_or_else(|| format!("sweep[{i}] missing `telemetry` snapshot"))?;
        let parsed = TelemetrySnapshot::from_json(snapshot)
            .map_err(|e| format!("sweep[{i}].telemetry does not parse as a snapshot: {e}"))?;
        if parsed.completed as f64 != num("completed")? {
            return Err(format!(
                "sweep[{i}].telemetry disagrees with the client-observed completions"
            ));
        }
        validate_stage_breakdown(&parsed).map_err(|e| format!("sweep[{i}].telemetry: {e}"))?;
    }
    let scaling = doc
        .get("throughput_scaling_1_to_max_replicas")
        .ok_or("missing `throughput_scaling_1_to_max_replicas`")?;
    validate_scaling_entries(scaling, mode)?;
    Ok(())
}

/// Checks one embedded snapshot's per-stage breakdown: every stage saw
/// every completion, percentiles are ordered, the per-stage sums
/// telescope to the end-to-end latency sum within 1%, and per-layer
/// attribution is populated whenever work completed.
///
/// # Errors
///
/// Returns a description of the first violated stage invariant.
pub fn validate_stage_breakdown(snapshot: &TelemetrySnapshot) -> Result<(), String> {
    if snapshot.completed == 0 {
        return Ok(());
    }
    let mut stage_sum = 0u64;
    for (stage, name) in snapshot
        .stages
        .in_order()
        .into_iter()
        .zip(forms_serve::STAGE_NAMES)
    {
        if stage.count != snapshot.completed {
            return Err(format!(
                "stage `{name}` saw {} samples but {} requests completed",
                stage.count, snapshot.completed
            ));
        }
        if stage.p50_ns() > stage.p99_ns() + 1e-9 {
            return Err(format!("stage `{name}` percentiles out of order"));
        }
        stage_sum = stage_sum.saturating_add(stage.sum_ns);
    }
    let end_to_end = snapshot.latency.sum_ns;
    let drift = stage_sum.abs_diff(end_to_end) as f64;
    if drift > end_to_end as f64 * 0.01 {
        return Err(format!(
            "stage sums ({stage_sum} ns) do not telescope to the end-to-end \
             latency sum ({end_to_end} ns) within 1%"
        ));
    }
    if !snapshot.layers.iter().any(|l| l.mvms > 0 && l.wall_ns > 0) {
        return Err("per-layer attribution is empty despite completed requests".into());
    }
    Ok(())
}

fn validate_scaling_entries(scaling: &JsonValue, mode: &str) -> Result<(), String> {
    let floor = scaling_floor(mode);
    for design in ["FORMS", "ISAAC"] {
        let s = scaling
            .get(design)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing scaling entry for {design}"))?;
        if !(s.is_finite() && s >= floor) {
            return Err(format!(
                "{design} replica scaling {s:.2}x is below the {floor:.1}x floor"
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
        let report = run(&ServeBenchSpec::smoke());
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        assert!(report.scaling("FORMS").unwrap() >= scaling_floor("smoke"));
        assert!(report.scaling("ISAAC").unwrap() >= scaling_floor("smoke"));
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let report = run(&ServeBenchSpec::smoke());
        let good = report.to_json();
        validate(&good).unwrap();
        let JsonValue::Object(fields) = &good else {
            panic!("report is an object")
        };
        for missing in [
            "bench",
            "mode",
            "layer",
            "sweep",
            "throughput_scaling_1_to_max_replicas",
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
        // A scaling regression below the floor must fail validation.
        let mut capped = fields.clone();
        for (k, v) in &mut capped {
            if k == "throughput_scaling_1_to_max_replicas" {
                *v = JsonValue::object(vec![
                    ("FORMS", JsonValue::Number(1.01)),
                    ("ISAAC", JsonValue::Number(1.01)),
                ]);
            }
        }
        assert!(validate(&JsonValue::Object(capped)).is_err());
        assert!(validate(&JsonValue::Null).is_err());
    }
}
