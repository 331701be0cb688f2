//! The metric schema and the validators every run passes before it prints
//! a result: a complete, finite metric set; bitwise-correct outputs; and
//! time accounts that telescope from stage to layer to phase.

use forms_serve::TelemetrySnapshot;

use crate::load::Reply;
use crate::replay::{bitwise_equal, Totals};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the schema.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name in the result line and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen. Per-layer metrics: `None`. Only the schema test
    /// reads it, to keep `BENCHMARK.json` in step.
    #[cfg_attr(not(test), allow(dead_code))]
    pub bound: Option<f64>,
    /// Per-layer metrics: the end-to-end metric (and workload) it should
    /// move. End-to-end metrics: what it measures.
    pub feeds: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    feeds: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        feeds,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    feeds: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        feeds,
    }
}

use Better::{Higher, Lower};

const VGG_P50: &str = "latency_p50_ms on vgg-small-open";
const TABLE5_TPUT: &str = "throughput_rps on table5-forms-closed";
const VGG_EXEC: &str =
    "latency_p50_ms and throughput_rps on vgg-small-open, hardly table5-forms-closed";
const TAIL: &str = "end-to-end tail latency (main or low step), reported without a bound: host stalls on a shared 2-vCPU machine spread it past 0.25 between runs";
const SIM: &str = "sim_input_cycles_per_image and sim_energy_nj_per_image on every workload";

/// Metrics of an untraced run (`--trace 0`).
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_rps", "1/s", Higher, 0.25, "completed responses per second over the span of the step that saturates the server (the main step, or the capacity step under an open loop)"),
    e2e("latency_p50_ms", "ms", Lower, 0.25, "client-observed median latency of the main step"),
    e2e("low.latency_p50_ms", "ms", Lower, 0.25, "median latency with one request in flight (the low step)"),
    e2e("success_rate", "ratio", Higher, 0.01, "1 - error_rate: requests answered with a correct output over requests attempted"),
    e2e("slo_attainment", "ratio", Higher, 0.1, "share of the main step's attempted requests answered within the workload's latency limit"),
    e2e("sim_input_cycles_per_image", "count", Lower, 0.02, "simulated input cycles per image, from layer_stats()"),
    e2e("sim_energy_nj_per_image", "nJ", Lower, 0.02, "simulated dynamic energy per image, from per_layer_energy_pj"),
    e2e("peak_rss_mb", "MB", Lower, 0.2, "VmHWM of the benchmark process"),
    e2e("setup_s", "s", Lower, 0.25, "build, polarize and map the network and bind the server (median of repeats)"),
];

/// Metrics of a traced run (`--trace 1`). `L0`/`L1` are weight-layer
/// indices; every workload has at least two weight layers. The two p99
/// latencies come first: they are end-to-end figures of the traced run's
/// load, kept out of [`END_TO_END`] because no bound of at most 0.25 holds
/// them between runs of the same code.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    layer("latency_p99_ms", "ms", Lower, TAIL),
    layer("low.latency_p99_ms", "ms", Lower, TAIL),
    layer("loadgen.lag_p99_ms", "ms", Lower, "validity check of the load generator, not a target"),
    layer("net.overhead_p50_us", "us", Lower, VGG_P50),
    layer("net.overhead_p99_us", "us", Lower, VGG_P50),
    layer("net.encode_request_ns", "ns", Lower, VGG_P50),
    layer("net.decode_response_ns", "ns", Lower, VGG_P50),
    layer("net.request_bytes", "bytes", Lower, VGG_P50),
    layer("net.response_bytes", "bytes", Lower, VGG_P50),
    layer("serve.queue_wait_p50_ms", "ms", Lower, "latency_p99_ms on every workload"),
    layer("serve.queue_wait_p99_ms", "ms", Lower, "latency_p99_ms on every workload"),
    layer("serve.batch_form_p50_ms", "ms", Lower, "low.latency_p50_ms"),
    layer("serve.execute_p50_ms", "ms", Lower, TABLE5_TPUT),
    layer("serve.execute_p99_ms", "ms", Lower, TABLE5_TPUT),
    layer("serve.respond_p99_us", "us", Lower, "latency_p99_ms"),
    layer("serve.shed", "count", Lower, "success_rate"),
    layer("serve.expired", "count", Lower, "success_rate"),
    layer("exec.forward_ms.b1", "ms", Lower, "low.latency_p50_ms"),
    layer("exec.forward_ms.bmax", "ms", Lower, TABLE5_TPUT),
    layer("exec.digital_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("exec.kernel_share", "ratio", Lower, "which layer an optimization should target: higher on table5-forms-closed than on vgg-small-open"),
    layer("exec.L0.wall_ns_per_mvm", "ns", Lower, VGG_EXEC),
    layer("exec.L0.im2col_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("exec.L0.quantize_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("exec.L0.residual_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("exec.L1.wall_ns_per_mvm", "ns", Lower, VGG_EXEC),
    layer("exec.L1.im2col_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("exec.L1.quantize_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("exec.L1.residual_ns_per_image", "ns", Lower, VGG_EXEC),
    layer("kernel.L0.ns_per_mvm.bmax", "ns", Lower, TABLE5_TPUT),
    layer("kernel.L0.ns_per_mvm.b1", "ns", Lower, "low.latency_p50_ms on vgg-small-open"),
    layer("kernel.L0.input_cycles_per_mvm", "count", Lower, SIM),
    layer("kernel.L0.adc_conversions_per_mvm", "count", Lower, SIM),
    layer("kernel.L0.zero_skip_ratio", "ratio", Higher, SIM),
    layer("kernel.L1.ns_per_mvm.bmax", "ns", Lower, TABLE5_TPUT),
    layer("kernel.L1.ns_per_mvm.b1", "ns", Lower, "low.latency_p50_ms on vgg-small-open"),
    layer("kernel.L1.input_cycles_per_mvm", "count", Lower, SIM),
    layer("kernel.L1.adc_conversions_per_mvm", "count", Lower, SIM),
    layer("kernel.L1.zero_skip_ratio", "ratio", Higher, SIM),
    layer("reram.L0.pack_ns_per_mvm", "ns", Lower, TABLE5_TPUT),
    layer("reram.L1.pack_ns_per_mvm", "ns", Lower, TABLE5_TPUT),
    layer("cmp.L0.forms.ns_per_mvm.b1", "ns", Lower, "FORMS/ISAAC ratio: low.latency_p50_ms"),
    layer("cmp.L0.forms.ns_per_mvm.bmax", "ns", Lower, "FORMS/ISAAC ratio: throughput_rps on table5-forms-closed"),
    layer("cmp.L0.isaac.ns_per_mvm.b1", "ns", Lower, "FORMS/ISAAC ratio: low.latency_p50_ms"),
    layer("cmp.L0.isaac.ns_per_mvm.bmax", "ns", Lower, "FORMS/ISAAC kernel ratio at max_batch (ISAAC is not served end to end)"),
    layer("cmp.L0.forms.pack_ns_per_mvm.b1", "ns", Lower, "phase split of cmp.L0.forms.ns_per_mvm.b1"),
    layer("cmp.L0.forms.pack_ns_per_mvm.bmax", "ns", Lower, "phase split of cmp.L0.forms.ns_per_mvm.bmax"),
    layer("cmp.L0.isaac.pack_ns_per_mvm.b1", "ns", Lower, "phase split of cmp.L0.isaac.ns_per_mvm.b1"),
    layer("cmp.L0.isaac.pack_ns_per_mvm.bmax", "ns", Lower, "phase split of cmp.L0.isaac.ns_per_mvm.bmax"),
    layer("cmp.L0.forms_over_isaac.b1", "ratio", Lower, "FORMS/ISAAC latency gap at batch 1"),
    layer("cmp.L0.forms_over_isaac.bmax", "ratio", Lower, "FORMS/ISAAC throughput gap at max_batch"),
    layer("cmp.L0.forms.batch_gain", "ratio", Higher, "b1/bmax ns per MVM on FORMS: throughput_rps on table5-forms-closed"),
    layer("cmp.L0.isaac.batch_gain", "ratio", Higher, "b1/bmax ns per MVM on ISAAC (ISAAC is not served end to end)"),
    layer("trace.overhead_ratio", "ratio", Higher, "1 by construction: every trace measurement runs outside the server, after the load"),
];

/// The metric schema of a run mode.
pub fn schema(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result a run prints as its last line.
#[derive(Clone, Debug)]
pub struct ResultLine {
    /// Every output matched the reference.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (rejected with a status or answered wrongly).
    pub failed: u64,
    /// `(name, value)` per metric of the run's schema.
    pub metrics: Vec<(&'static str, f64)>,
}

impl ResultLine {
    /// Renders the one-line JSON object, with units from `schema`. Values
    /// keep all their digits.
    pub fn to_json(&self, schema: &[Metric]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = schema
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks that a result carries exactly the schema's metrics, each once,
/// each finite, and sane request counts.
///
/// # Errors
///
/// The first problem found.
pub fn check_line(line: &ResultLine, schema: &[Metric]) -> Result<(), String> {
    if line.attempted == 0 || line.failed > line.attempted {
        return Err(format!(
            "bad request counts: {} failed of {} attempted",
            line.failed, line.attempted
        ));
    }
    for m in schema {
        match line.metrics.iter().filter(|(n, _)| *n == m.name).count() {
            0 => return Err(format!("missing metric `{}`", m.name)),
            1 => {}
            _ => return Err(format!("metric `{}` reported twice", m.name)),
        }
    }
    for (name, value) in &line.metrics {
        if !schema.iter().any(|m| m.name == *name) {
            return Err(format!("metric `{name}` is not in the schema"));
        }
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
    }
    Ok(())
}

/// Compares every successful reply bitwise with the reference output of
/// its payload.
///
/// # Errors
///
/// The first reply whose output differs.
pub fn check_outputs(
    replies: &[&Reply],
    reference: impl Fn(u64) -> Vec<f32>,
) -> Result<(), String> {
    for r in replies {
        if let Ok(out) = &r.outcome {
            if !bitwise_equal(out, &reference(r.index)) {
                return Err(format!("wrong output for request {}", r.index));
            }
        }
    }
    Ok(())
}

/// Serving-level telescoping: the four stage histograms sum exactly to the
/// latency histogram and count every completion, and the weight layers'
/// wall time fits inside execute time. Returns the execute time no layer
/// accounts for, in nanoseconds (execute is counted once per request, so
/// a batch's execute time is counted once per member).
///
/// # Errors
///
/// The first account that does not telescope.
pub fn check_stages(t: &TelemetrySnapshot) -> Result<u64, String> {
    let stages = t.stages.in_order();
    let stage_sum: u64 = stages.iter().map(|h| h.sum_ns).sum();
    if stage_sum != t.latency.sum_ns {
        return Err(format!(
            "stage sums {stage_sum} ns do not equal the latency sum {} ns",
            t.latency.sum_ns
        ));
    }
    if let Some(h) = stages.iter().find(|h| h.count != t.completed) {
        return Err(format!(
            "a stage counts {} requests, {} completed",
            h.count, t.completed
        ));
    }
    let layers: u64 = t.layers.iter().map(|l| l.wall_ns).sum();
    let execute = t.stages.execute.sum_ns;
    execute.checked_sub(layers).ok_or_else(|| {
        format!("weight layers took {layers} ns, more than the {execute} ns of execute time")
    })
}

/// Largest relative gap between a replayed layer's phases and its wall
/// time. The phases are laps of one timer, so they can only miss the
/// stopwatch's own reads.
pub const PHASE_TOLERANCE: f64 = 0.02;

/// Execution-level telescoping of a replay: every layer's phases sum to
/// its wall time within [`PHASE_TOLERANCE`], the replayed layers fit in
/// the replayed forward, and the session's layers fit in the session's
/// forward.
///
/// # Errors
///
/// The first account that does not telescope.
pub fn check_phases(t: &Totals) -> Result<(), String> {
    for (k, p) in t.replay.iter().enumerate() {
        let gap = (p.wall as f64 - p.sum() as f64).abs();
        if gap > PHASE_TOLERANCE * p.wall as f64 {
            return Err(format!(
                "L{k}: phases sum to {} ns but the layer took {} ns",
                p.sum(),
                p.wall
            ));
        }
    }
    let replay_layers: u64 = t.replay.iter().map(|p| p.wall).sum();
    if replay_layers + t.replay_digital > t.replay_forward {
        return Err(format!(
            "replayed layers took {} ns, more than the {} ns forward",
            replay_layers + t.replay_digital,
            t.replay_forward
        ));
    }
    let session_layers: u64 = t.session_layers.iter().sum();
    if session_layers > t.session_forward {
        return Err(format!(
            "session layers took {session_layers} ns, more than the {} ns forward",
            t.session_forward
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Phases;
    use forms_serve::json::{parse, JsonValue};
    use forms_serve::telemetry::HistogramSnapshot;
    use forms_serve::{LayerAttribution, StageSnapshots};

    fn full_line(schema: &[Metric]) -> ResultLine {
        ResultLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: schema.iter().map(|m| (m.name, 1.5)).collect(),
        }
    }

    #[test]
    fn accepts_a_complete_line_and_renders_parseable_json() {
        for trace in [false, true] {
            let line = full_line(schema(trace));
            assert_eq!(check_line(&line, schema(trace)), Ok(()));
            let doc = parse(&line.to_json(schema(trace))).expect("valid JSON");
            assert_eq!(doc.get("attempted").and_then(JsonValue::as_f64), Some(10.0));
            let first = &schema(trace)[0];
            let m = doc.get("metrics").and_then(|m| m.get(first.name)).unwrap();
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(first.unit));
        }
    }

    #[test]
    fn rejects_a_missing_metric() {
        let mut line = full_line(END_TO_END);
        line.metrics.retain(|(n, _)| *n != "setup_s");
        assert!(check_line(&line, END_TO_END)
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn rejects_non_finite_duplicate_and_unknown_metrics() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut line = full_line(END_TO_END);
            line.metrics[0].1 = bad;
            assert!(check_line(&line, END_TO_END)
                .unwrap_err()
                .contains("not finite"));
        }
        let mut line = full_line(END_TO_END);
        line.metrics.push(("setup_s", 1.0));
        assert!(check_line(&line, END_TO_END).is_err());
        let mut line = full_line(END_TO_END);
        line.metrics.push(("cache_hits", 1.0));
        assert!(check_line(&line, END_TO_END).is_err());
        let mut line = full_line(END_TO_END);
        line.attempted = 0;
        assert!(check_line(&line, END_TO_END).is_err());
    }

    #[test]
    fn rejects_a_wrong_output() {
        let reply = |index, v: f32| Reply {
            index,
            latency_ns: 1,
            overhead_ns: 0,
            outcome: Ok(vec![v, 2.0]),
        };
        let reference = |i: u64| vec![i as f32, 2.0];
        let (a, b, wrong, negative_zero) = (
            reply(0, 0.0),
            reply(3, 3.0),
            reply(3, 3.000_000_2),
            reply(0, -0.0),
        );
        assert_eq!(check_outputs(&[&a, &b], reference), Ok(()));
        let err = check_outputs(&[&a, &wrong], reference).unwrap_err();
        assert!(err.contains("request 3"), "{err}");
        // Bitwise, not numeric: -0.0 == 0.0 but is a different output.
        assert!(check_outputs(&[&negative_zero], reference).is_err());
    }

    fn histogram(count: u64, sum_ns: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum_ns,
            ..HistogramSnapshot::empty()
        }
    }

    fn snapshot(execute_ns: u64, layer_ns: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            submitted: 2,
            completed: 2,
            shed: 0,
            expired: 0,
            cancelled: 0,
            failed: 0,
            degraded: 0,
            rebuilds: 0,
            quarantines: 0,
            faults_injected: 0,
            latency: histogram(2, 100 + execute_ns),
            stages: StageSnapshots {
                queue_wait: histogram(2, 60),
                batch_form: histogram(2, 20),
                execute: histogram(2, execute_ns),
                respond: histogram(2, 20),
            },
            events: Vec::new(),
            slowest: Vec::new(),
            layers: vec![LayerAttribution {
                wall_ns: layer_ns,
                mvms: 2,
            }],
            plan: String::new(),
        }
    }

    #[test]
    fn rejects_serving_accounts_that_do_not_telescope() {
        assert_eq!(check_stages(&snapshot(500, 400)), Ok(100));
        // Layers cannot take longer than execute.
        assert!(check_stages(&snapshot(500, 501)).is_err());
        // Stages must sum to the latency exactly.
        let mut t = snapshot(500, 400);
        t.latency.sum_ns += 1;
        assert!(check_stages(&t).unwrap_err().contains("stage sums"));
        let mut t = snapshot(500, 400);
        t.stages.respond.count = 1;
        assert!(check_stages(&t).is_err());
    }

    #[test]
    fn rejects_replay_accounts_that_do_not_telescope() {
        let phases = Phases {
            lower: 10,
            quantize: 20,
            gather: 10,
            kernel: 950,
            scatter: 10,
            wall: 1_000,
        };
        let totals = Totals {
            reps: 1,
            images: 1,
            replay: vec![phases],
            replay_forward: 1_100,
            replay_digital: 50,
            session_forward: 1_050,
            session_layers: vec![990],
            ..Totals::default()
        };
        assert_eq!(check_phases(&totals), Ok(()));
        let mut lost = totals.clone();
        lost.replay[0].kernel = 900;
        assert!(check_phases(&lost).unwrap_err().contains("phases sum"));
        let mut over = totals.clone();
        over.session_layers = vec![1_051];
        assert!(check_phases(&over).unwrap_err().contains("session layers"));
        let mut replay_over = totals;
        replay_over.replay_forward = 1_000;
        assert!(check_phases(&replay_over).is_err());
    }

    /// `BENCHMARK.json` and this schema describe the same workloads and
    /// metrics.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workload::NAMES);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(JsonValue::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(JsonValue::as_str);
                assert_eq!(field("name"), Some(m.name));
                assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(field("better"), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(JsonValue::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
                assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
            }
        }
    }
}
