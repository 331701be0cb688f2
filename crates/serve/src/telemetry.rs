//! Lock-free serving telemetry: outcome counters, per-stage latency
//! histograms with percentile extraction, the terminal-event ring, and
//! per-layer execution-time attribution.
//!
//! Replica workers and submitters record into plain atomics — no lock is
//! ever taken on the request path, so telemetry can't become a point of
//! contention or a deadlock participant. Histograms use fixed log-spaced
//! buckets (geometric growth of √2 per bucket starting at 1 µs, so every
//! estimate is within ±19% of the true value across six decades), and
//! p50/p95/p99 are extracted from a consistent-enough snapshot by
//! geometric interpolation inside the hit bucket.
//!
//! Beyond the end-to-end latency histogram, each completed request's
//! [`StageDurations`] feed four per-stage histograms (queue-wait,
//! batch-form, execute, respond — see [`crate::trace`]), terminal events
//! land in a bounded [`EventRing`], and replicas attribute wall time and
//! MVM counts to individual weight layers between batches. All of it
//! aggregates into [`TelemetrySnapshot`], whose JSON rendering (schema
//! version 2) is the single schema shared by the `forms-net` telemetry
//! wire frame and the bench report writers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::json::JsonValue;
use crate::trace::{
    EventRecord, EventRing, SpanRecord, StageDurations, TerminalKind, TraceConfig, STAGE_COUNT,
    STAGE_NAMES,
};

/// Version tag written into every telemetry JSON document, and the only
/// version [`TelemetrySnapshot::from_json`] accepts. Version 2 added the
/// tracing extensions (`stages`, `events`, `slowest`, `layers`).
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;
/// Lower edge of bucket 1 in nanoseconds (bucket 0 catches everything
/// below it).
pub const HISTOGRAM_LO_NS: f64 = 1_000.0;
/// Geometric growth factor between consecutive bucket edges.
pub const HISTOGRAM_GROWTH: f64 = std::f64::consts::SQRT_2;

/// Bucketing searches a precomputed edge table instead of inverting the
/// geometric formula with `log2`: the float round-trip
/// `powi(log2(x)/log2(g))` landed values sitting exactly on a bucket edge
/// one bucket low (e.g. `bucket_lower_ns(3)` classified into bucket 2), so
/// histogram buckets disagreed with the edges reported by
/// [`bucket_lower_ns`]. The table makes edge membership exact by
/// construction: bucket `i` is `[edges[i], edges[i+1])`.
fn edges() -> &'static [f64; HISTOGRAM_BUCKETS] {
    static EDGES: OnceLock<[f64; HISTOGRAM_BUCKETS]> = OnceLock::new();
    EDGES.get_or_init(|| std::array::from_fn(bucket_lower_ns))
}

fn bucket_index(ns: u64) -> usize {
    edges().partition_point(|&edge| edge <= ns as f64) - 1
}

/// Lower edge of bucket `i` in nanoseconds (0 for bucket 0).
pub fn bucket_lower_ns(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        HISTOGRAM_LO_NS * HISTOGRAM_GROWTH.powi(i as i32 - 1)
    }
}

/// Upper edge of bucket `i` in nanoseconds.
pub fn bucket_upper_ns(i: usize) -> f64 {
    HISTOGRAM_LO_NS * HISTOGRAM_GROWTH.powi(i as i32)
}

/// A lock-free fixed-bucket latency histogram.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of the histogram counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_ns: u64,
    /// Largest observation in nanoseconds (exact, not bucketed).
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// A histogram with no observations.
    pub fn empty() -> Self {
        Self {
            buckets: [0u64; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) in nanoseconds by
    /// geometric interpolation within the bucket holding the target rank.
    /// Returns 0 when no observations were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate geometrically between the bucket edges by
                // the fraction of the rank inside this bucket.
                let lo = bucket_lower_ns(i).max(1.0);
                let hi = bucket_upper_ns(i).min(self.max_ns as f64).max(lo);
                let frac = (rank - seen) as f64 / c as f64;
                return lo * (hi / lo).powf(frac);
            }
            seen += c;
        }
        self.max_ns as f64
    }

    /// Median latency estimate in nanoseconds.
    pub fn p50_ns(&self) -> f64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency estimate in nanoseconds.
    pub fn p95_ns(&self) -> f64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile latency estimate in nanoseconds.
    pub fn p99_ns(&self) -> f64 {
        self.quantile_ns(0.99)
    }
}

/// Lock-free counters for every request outcome plus the end-to-end
/// latency histogram of completed requests.
#[derive(Debug)]
pub struct Telemetry {
    /// Requests offered to `submit` (accepted or not).
    pub submitted: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests refused at admission (queue full or service closing).
    pub shed: AtomicU64,
    /// Requests whose deadline passed before execution began.
    pub expired: AtomicU64,
    /// Requests cancelled by the client before execution.
    pub cancelled: AtomicU64,
    /// Requests that failed because a replica's engine panicked.
    pub failed: AtomicU64,
    /// Requests failed because the owning replica was unhealthy (sentinel
    /// tripped or fault density over policy) — degraded service, not a
    /// crash.
    pub degraded: AtomicU64,
    /// Replica sessions rebuilt from the pristine mapping after a health
    /// violation.
    pub rebuilds: AtomicU64,
    /// Replicas permanently drained after exhausting their rebuild budget.
    pub quarantines: AtomicU64,
    /// Fault-campaign applications delivered to replicas.
    pub faults_injected: AtomicU64,
    latency: AtomicHistogram,
    /// Per-stage latency histograms of completed requests, in
    /// [`STAGE_NAMES`] order.
    stages: [AtomicHistogram; STAGE_COUNT],
    /// Recent terminal events and slowest-N completed spans.
    events: EventRing,
    /// Per-weight-layer execution-time / MVM attribution cells.
    per_layer: Vec<LayerCell>,
    /// Summary of the precision plan the served executor was mapped under
    /// (e.g. `"uniform w8/a16"`). Set once at service construction, before
    /// any worker thread observes the telemetry, and immutable thereafter.
    plan: String,
}

/// One weight layer's lock-free attribution counters.
#[derive(Debug, Default)]
struct LayerCell {
    /// Wall-clock nanoseconds replicas spent inside this layer's lowering.
    wall_ns: AtomicU64,
    /// Matrix-vector activations executed on this layer.
    mvms: AtomicU64,
}

impl Telemetry {
    /// Telemetry for a service over `layer_count` weight layers, tagged
    /// with the executor's precision-plan summary and sized by `trace`.
    pub(crate) fn new(plan: String, layer_count: usize, trace: &TraceConfig) -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            latency: AtomicHistogram::new(),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
            events: EventRing::new(trace),
            per_layer: (0..layer_count).map(|_| LayerCell::default()).collect(),
            plan,
        }
    }

    /// Telemetry tagged with the served executor's precision-plan summary
    /// (no layer attribution, default trace sizing).
    #[cfg(test)]
    pub(crate) fn tagged(plan: String) -> Self {
        Self::new(plan, 0, &TraceConfig::default())
    }

    /// Summary of the served executor's precision plan (empty if untagged).
    pub fn plan(&self) -> &str {
        &self.plan
    }

    /// Records one successful completion with its end-to-end latency.
    pub(crate) fn record_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Records one successful completion from its full stage breakdown:
    /// the end-to-end latency is the stages' exact sum, each stage lands
    /// in its own histogram, and the span competes for the slowest-N list.
    pub(crate) fn record_completed_span(&self, stages: &StageDurations) {
        let total = stages.total();
        self.record_completed(total);
        for (h, d) in self.stages.iter().zip([
            stages.queue_wait,
            stages.batch_form,
            stages.execute,
            stages.respond,
        ]) {
            h.record(d);
        }
        let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
        self.events.record_completed(stages.as_ns(), total_ns);
    }

    /// Flushes a request that ended without completing (shed, expired,
    /// cancelled, failed, degraded) into the terminal-event ring with its
    /// partial span. Does *not* touch the outcome counters — callers keep
    /// incrementing those as before.
    pub(crate) fn record_terminal_span(&self, kind: TerminalKind, span: &SpanRecord, now: Instant) {
        self.events
            .record_terminal(kind, span.partial_stage_ns(now), span.total_ns(now));
    }

    /// Marks a replica quarantine in the event ring (span-less: this is a
    /// replica lifecycle event, not a request outcome).
    pub(crate) fn record_quarantine_event(&self) {
        self.events
            .record_terminal(TerminalKind::Quarantined, [0; STAGE_COUNT], 0);
    }

    /// Adds per-layer wall-time and MVM deltas measured by a replica's
    /// session since its last flush. Slices shorter than the layer count
    /// (or an untagged zero-layer telemetry) add nothing for the missing
    /// tail.
    pub(crate) fn add_layer_attribution(&self, wall_ns: &[u64], mvms: &[u64]) {
        for (cell, &w) in self.per_layer.iter().zip(wall_ns) {
            cell.wall_ns.fetch_add(w, Ordering::Relaxed);
        }
        for (cell, &m) in self.per_layer.iter().zip(mvms) {
            cell.mvms.fetch_add(m, Ordering::Relaxed);
        }
    }

    /// Takes an immutable snapshot of every counter, histogram, the event
    /// ring and the per-layer attribution.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (events, slowest) = self.events.snapshot();
        TelemetrySnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            stages: StageSnapshots {
                queue_wait: self.stages[0].snapshot(),
                batch_form: self.stages[1].snapshot(),
                execute: self.stages[2].snapshot(),
                respond: self.stages[3].snapshot(),
            },
            events,
            slowest,
            layers: self
                .per_layer
                .iter()
                .map(|cell| LayerAttribution {
                    wall_ns: cell.wall_ns.load(Ordering::Relaxed),
                    mvms: cell.mvms.load(Ordering::Relaxed),
                })
                .collect(),
            plan: self.plan.clone(),
        }
    }
}

/// A consistent-enough copy of the telemetry counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Requests expired before execution.
    pub expired: u64,
    /// Requests cancelled before execution.
    pub cancelled: u64,
    /// Requests failed by a panicking replica.
    pub failed: u64,
    /// Requests failed by an unhealthy (degraded) replica.
    pub degraded: u64,
    /// Replica sessions rebuilt after health violations.
    pub rebuilds: u64,
    /// Replicas permanently drained.
    pub quarantines: u64,
    /// Fault-campaign applications delivered.
    pub faults_injected: u64,
    /// Latency histogram of completed requests.
    pub latency: HistogramSnapshot,
    /// Per-stage latency histograms of completed requests.
    pub stages: StageSnapshots,
    /// Recent terminal events, oldest first.
    pub events: Vec<EventRecord>,
    /// Slowest completed spans, slowest first.
    pub slowest: Vec<EventRecord>,
    /// Per-weight-layer execution attribution, in visit order (empty on
    /// untagged telemetry).
    pub layers: Vec<LayerAttribution>,
    /// Summary of the precision plan the served executor was mapped under
    /// (empty if the service predates plan tagging).
    pub plan: String,
}

/// The four per-stage latency histograms of a snapshot, in pipeline order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshots {
    /// Admission → dequeue.
    pub queue_wait: HistogramSnapshot,
    /// Dequeue → batch formed.
    pub batch_form: HistogramSnapshot,
    /// Batch formed → forward returned.
    pub execute: HistogramSnapshot,
    /// Forward returned → slot filled.
    pub respond: HistogramSnapshot,
}

impl StageSnapshots {
    /// The stage histograms in pipeline order (matching [`STAGE_NAMES`]).
    pub fn in_order(&self) -> [&HistogramSnapshot; STAGE_COUNT] {
        [
            &self.queue_wait,
            &self.batch_form,
            &self.execute,
            &self.respond,
        ]
    }

    /// Renders the stages as one JSON object keyed by [`STAGE_NAMES`].
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(
            STAGE_NAMES
                .iter()
                .zip(self.in_order())
                .map(|(&name, h)| (name, h.to_json()))
                .collect(),
        )
    }

    /// Parses stages rendered by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed stage.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let stage = |name: &str| -> Result<HistogramSnapshot, String> {
            HistogramSnapshot::from_json(
                doc.get(name)
                    .ok_or_else(|| format!("missing stage `{name}`"))?,
            )
            .map_err(|e| format!("stage `{name}`: {e}"))
        };
        Ok(Self {
            queue_wait: stage("queue_wait")?,
            batch_form: stage("batch_form")?,
            execute: stage("execute")?,
            respond: stage("respond")?,
        })
    }
}

/// One weight layer's share of the service's execution cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerAttribution {
    /// Wall-clock nanoseconds replicas spent inside this layer's lowering.
    pub wall_ns: u64,
    /// Matrix-vector activations executed on this layer.
    pub mvms: u64,
}

/// Reads a non-negative integer counter (stored as a JSON number) from an
/// object field. Counters fit `f64` exactly up to 2^53, far beyond any
/// realistic request count.
fn counter(doc: &JsonValue, key: &str) -> Result<u64, String> {
    let v = doc
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing numeric `{key}`"))?;
    if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0) {
        return Err(format!("`{key}` must be a non-negative integer"));
    }
    Ok(v as u64)
}

impl HistogramSnapshot {
    /// Renders the histogram as a JSON object (`buckets`, `count`,
    /// `sum_ns`, `max_ns`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "buckets",
                JsonValue::Array(
                    self.buckets
                        .iter()
                        .map(|&c| JsonValue::Number(c as f64))
                        .collect(),
                ),
            ),
            ("count", JsonValue::Number(self.count as f64)),
            ("sum_ns", JsonValue::Number(self.sum_ns as f64)),
            ("max_ns", JsonValue::Number(self.max_ns as f64)),
        ])
    }

    /// Parses a histogram previously rendered by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let buckets = doc
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or("missing `buckets` array")?;
        if buckets.len() != HISTOGRAM_BUCKETS {
            return Err(format!(
                "expected {HISTOGRAM_BUCKETS} buckets, found {}",
                buckets.len()
            ));
        }
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in buckets.iter().enumerate() {
            let v = b
                .as_f64()
                .ok_or_else(|| format!("bucket {i} is not a number"))?;
            if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0) {
                return Err(format!("bucket {i} must be a non-negative integer"));
            }
            out[i] = v as u64;
        }
        Ok(Self {
            buckets: out,
            count: counter(doc, "count")?,
            sum_ns: counter(doc, "sum_ns")?,
            max_ns: counter(doc, "max_ns")?,
        })
    }
}

impl TelemetrySnapshot {
    /// Fraction of offered requests that were shed (0 when none offered).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Requests with a recorded terminal outcome.
    pub fn resolved(&self) -> u64 {
        self.completed + self.shed + self.expired + self.cancelled + self.failed + self.degraded
    }

    /// Renders the snapshot as a JSON object — the single schema shared by
    /// the `forms-net` telemetry wire frame and the bench report writers.
    ///
    /// The document carries `schema_version` [`TELEMETRY_SCHEMA_VERSION`]
    /// and round-trips through [`from_json`](Self::from_json).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "schema_version",
                JsonValue::Number(f64::from(TELEMETRY_SCHEMA_VERSION)),
            ),
            ("submitted", JsonValue::Number(self.submitted as f64)),
            ("completed", JsonValue::Number(self.completed as f64)),
            ("shed", JsonValue::Number(self.shed as f64)),
            ("expired", JsonValue::Number(self.expired as f64)),
            ("cancelled", JsonValue::Number(self.cancelled as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("degraded", JsonValue::Number(self.degraded as f64)),
            ("rebuilds", JsonValue::Number(self.rebuilds as f64)),
            ("quarantines", JsonValue::Number(self.quarantines as f64)),
            (
                "faults_injected",
                JsonValue::Number(self.faults_injected as f64),
            ),
            ("latency", self.latency.to_json()),
            ("stages", self.stages.to_json()),
            (
                "events",
                JsonValue::Array(self.events.iter().map(EventRecord::to_json).collect()),
            ),
            (
                "slowest",
                JsonValue::Array(self.slowest.iter().map(EventRecord::to_json).collect()),
            ),
            (
                "layers",
                JsonValue::Array(
                    self.layers
                        .iter()
                        .map(|l| {
                            JsonValue::object(vec![
                                ("wall_ns", JsonValue::Number(l.wall_ns as f64)),
                                ("mvms", JsonValue::Number(l.mvms as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("plan", JsonValue::String(self.plan.clone())),
        ])
    }

    /// Parses a snapshot previously rendered by [`to_json`](Self::to_json)
    /// — the inverse used by consumers of the `forms-net` metrics frame.
    ///
    /// Only the current schema parses: `schema_version` must equal
    /// [`TELEMETRY_SCHEMA_VERSION`] and every field, tracing extensions
    /// included, must be present and well-formed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let version = counter(doc, "schema_version")?;
        if version != u64::from(TELEMETRY_SCHEMA_VERSION) {
            return Err(format!(
                "`schema_version` {version} is not {TELEMETRY_SCHEMA_VERSION}"
            ));
        }
        let array = |key: &str| -> Result<&[JsonValue], String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("missing array `{key}`"))
        };
        let events_list = |key: &str| -> Result<Vec<EventRecord>, String> {
            array(key)?
                .iter()
                .map(EventRecord::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("`{key}`: {e}"))
        };
        let layers = array("layers")?
            .iter()
            .map(|l| {
                Ok(LayerAttribution {
                    wall_ns: counter(l, "wall_ns").map_err(|e| format!("`layers`: {e}"))?,
                    mvms: counter(l, "mvms").map_err(|e| format!("`layers`: {e}"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            submitted: counter(doc, "submitted")?,
            completed: counter(doc, "completed")?,
            shed: counter(doc, "shed")?,
            expired: counter(doc, "expired")?,
            cancelled: counter(doc, "cancelled")?,
            failed: counter(doc, "failed")?,
            degraded: counter(doc, "degraded")?,
            rebuilds: counter(doc, "rebuilds")?,
            quarantines: counter(doc, "quarantines")?,
            faults_injected: counter(doc, "faults_injected")?,
            latency: HistogramSnapshot::from_json(
                doc.get("latency").ok_or("missing `latency` object")?,
            )?,
            stages: StageSnapshots::from_json(doc.get("stages").ok_or("missing `stages` object")?)?,
            events: events_list("events")?,
            slowest: events_list("slowest")?,
            layers,
            plan: doc
                .get("plan")
                .and_then(JsonValue::as_str)
                .ok_or("missing string `plan`")?
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_monotone_and_cover_the_range() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_lower_ns(i) < bucket_upper_ns(i));
            assert!(bucket_upper_ns(i - 1) <= bucket_lower_ns(i) + 1e-9);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0);
        assert_eq!(bucket_index(1_000), 1);
        // Far beyond the top edge still lands in the last bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn every_bucket_edge_classifies_into_its_own_bucket() {
        // Regression: the log2-based bucketing misclassified values
        // sitting exactly on (or a hair above) a bucket's lower edge into
        // the bucket below. Every edge must open its own bucket, and the
        // nanosecond just below it must stay in the previous one.
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_ns(i);
            let lo_ns = lo.ceil() as u64;
            assert_eq!(
                bucket_index(lo_ns),
                i,
                "lower edge {lo} of bucket {i} must round into bucket {i}"
            );
            if i > 0 && lo.ceil() == lo {
                assert_eq!(
                    bucket_index(lo_ns - 1),
                    i - 1,
                    "just below edge {lo} must stay in bucket {}",
                    i - 1
                );
            }
        }
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = AtomicHistogram::new();
        // 100 observations at ~1 ms, 10 at ~100 ms.
        for _ in 0..100 {
            h.record(Duration::from_micros(1_000));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(100));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 110);
        let p50 = s.p50_ns();
        assert!((0.5e6..2.0e6).contains(&p50), "p50 {p50}");
        let p99 = s.p99_ns();
        assert!((50.0e6..200.0e6).contains(&p99), "p99 {p99}");
        assert!(s.p95_ns() <= p99 + 1e-9);
        assert_eq!(s.max_ns, 100_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns(), 0.0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn telemetry_snapshot_accounts_outcomes() {
        let t = Telemetry::tagged(String::new());
        t.submitted.fetch_add(5, Ordering::Relaxed);
        t.record_completed(Duration::from_micros(10));
        t.record_completed(Duration::from_micros(20));
        t.shed.fetch_add(2, Ordering::Relaxed);
        t.failed.fetch_add(1, Ordering::Relaxed);
        let s = t.snapshot();
        assert_eq!(s.resolved(), 5);
        assert_eq!(s.shed_rate(), 0.4);
        assert_eq!(s.latency.count, 2);
    }

    #[test]
    fn plan_tag_flows_into_snapshots() {
        let t = Telemetry::tagged("mixed w4-8/a8-16 (5 layers)".to_string());
        assert_eq!(t.plan(), "mixed w4-8/a8-16 (5 layers)");
        assert_eq!(t.snapshot().plan, "mixed w4-8/a8-16 (5 layers)");
        assert_eq!(Telemetry::tagged(String::new()).snapshot().plan, "");
    }

    /// A snapshot with arbitrary counters, histogram contents and plan
    /// tag — including empty and unicode-heavy plans.
    fn arbitrary_snapshot(rng: &mut forms_rng::StdRng) -> TelemetrySnapshot {
        use forms_rng::Rng;
        let mut counter = |hi: u64| rng.next_u64() % hi;
        let submitted = counter(1 << 40);
        let mut latency = HistogramSnapshot {
            buckets: [0u64; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: counter(1 << 50),
        };
        for b in latency.buckets.iter_mut() {
            *b = counter(1 << 20);
        }
        latency.count = latency.buckets.iter().sum();
        latency.sum_ns = counter(1 << 52);
        const PLANS: &[&str] = &[
            "",
            "uniform w8/a16",
            "mixed w4-8/a8-16 (5 layers)",
            "µ\"p\\n",
        ];
        let mut stage_histogram = || {
            let mut h = HistogramSnapshot::empty();
            for b in h.buckets.iter_mut() {
                *b = counter(1 << 18);
            }
            h.count = h.buckets.iter().sum();
            h.sum_ns = counter(1 << 50);
            h.max_ns = counter(1 << 48);
            h
        };
        let stages = StageSnapshots {
            queue_wait: stage_histogram(),
            batch_form: stage_histogram(),
            execute: stage_histogram(),
            respond: stage_histogram(),
        };
        const KINDS: &[TerminalKind] = &[
            TerminalKind::Completed,
            TerminalKind::Shed,
            TerminalKind::Expired,
            TerminalKind::Cancelled,
            TerminalKind::Failed,
            TerminalKind::Degraded,
            TerminalKind::Quarantined,
        ];
        let mut events = |n: u64| -> Vec<EventRecord> {
            (0..counter(n))
                .map(|seq| EventRecord {
                    seq,
                    kind: KINDS[counter(KINDS.len() as u64) as usize],
                    stage_ns: std::array::from_fn(|_| counter(1 << 40)),
                    total_ns: counter(1 << 42),
                })
                .collect()
        };
        let (events, slowest) = (events(12), events(5));
        let layers = (0..counter(6))
            .map(|_| LayerAttribution {
                wall_ns: counter(1 << 50),
                mvms: counter(1 << 36),
            })
            .collect();
        TelemetrySnapshot {
            submitted,
            completed: counter(1 << 40),
            shed: counter(1 << 32),
            expired: counter(1 << 32),
            cancelled: counter(1 << 32),
            failed: counter(1 << 32),
            degraded: counter(1 << 32),
            rebuilds: counter(1 << 16),
            quarantines: counter(1 << 8),
            faults_injected: counter(1 << 16),
            latency,
            stages,
            events,
            slowest,
            layers,
            plan: PLANS[counter(PLANS.len() as u64) as usize].to_string(),
        }
    }

    #[test]
    fn snapshot_json_round_trips_on_arbitrary_telemetry() {
        use forms_rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x7E1E_0502);
        for case in 0..200 {
            let snapshot = arbitrary_snapshot(&mut rng);
            let doc = snapshot.to_json();
            let text = doc.pretty();
            let reparsed = crate::json::parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: emitted invalid JSON: {e}\n{text}"));
            let back = TelemetrySnapshot::from_json(&reparsed)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, snapshot, "case {case} did not round-trip");
        }
    }

    #[test]
    fn snapshot_from_json_rejects_malformed_documents() {
        let good = Telemetry::tagged("uniform w8/a16".into())
            .snapshot()
            .to_json();
        assert!(TelemetrySnapshot::from_json(&good).is_ok());
        let JsonValue::Object(fields) = &good else {
            panic!("snapshot renders an object")
        };
        // Every field is required; dropping any of them must error.
        const REQUIRED: &[&str] = &[
            "schema_version",
            "submitted",
            "completed",
            "shed",
            "expired",
            "cancelled",
            "failed",
            "degraded",
            "rebuilds",
            "quarantines",
            "faults_injected",
            "latency",
            "stages",
            "events",
            "slowest",
            "layers",
            "plan",
        ];
        for key in REQUIRED {
            let broken =
                JsonValue::Object(fields.iter().filter(|(k, _)| k != key).cloned().collect());
            assert!(
                TelemetrySnapshot::from_json(&broken).is_err(),
                "accepted document without `{key}`"
            );
        }
        // The tracing extensions are strict too: a malformed value must
        // error rather than fall back to a default.
        for key in ["schema_version", "stages", "events", "slowest", "layers"] {
            let mangled = JsonValue::Object(
                fields
                    .iter()
                    .map(|(k, v)| {
                        if k == key {
                            (k.clone(), JsonValue::String("bogus".into()))
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            );
            assert!(
                TelemetrySnapshot::from_json(&mangled).is_err(),
                "accepted malformed `{key}`"
            );
        }
        // Only the current schema version parses: neither an older nor a
        // newer document is accepted.
        for version in [1.0, f64::from(TELEMETRY_SCHEMA_VERSION) + 1.0] {
            let mut fields = fields.clone();
            let slot = fields
                .iter_mut()
                .find(|(k, _)| k == "schema_version")
                .expect("schema_version field");
            slot.1 = JsonValue::Number(version);
            assert!(
                TelemetrySnapshot::from_json(&JsonValue::Object(fields)).is_err(),
                "accepted schema version {version}"
            );
        }
        // Negative and fractional counters are rejected, not truncated.
        for bad in [-1.0, 0.5, f64::NAN] {
            let mut fields = fields.clone();
            let slot = fields
                .iter_mut()
                .find(|(k, _)| k == "submitted")
                .expect("submitted field");
            slot.1 = JsonValue::Number(bad);
            assert!(TelemetrySnapshot::from_json(&JsonValue::Object(fields)).is_err());
        }
        assert!(TelemetrySnapshot::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn span_recording_fills_stages_events_and_layers() {
        use crate::trace::SpanRecord;
        use std::time::Instant;

        let t = Telemetry::new("plan".into(), 2, &TraceConfig::default());
        let stages = StageDurations {
            queue_wait: Duration::from_micros(5),
            batch_form: Duration::from_micros(2),
            execute: Duration::from_micros(40),
            respond: Duration::from_micros(3),
        };
        t.record_completed_span(&stages);
        t.add_layer_attribution(&[7_000, 11_000], &[3, 4]);
        t.add_layer_attribution(&[1_000, 1_000], &[1, 1]);

        let mut span = SpanRecord::new(Instant::now());
        span.dequeued = Some(span.enqueued + Duration::from_micros(9));
        t.record_terminal_span(
            TerminalKind::Expired,
            &span,
            span.enqueued + Duration::from_micros(10),
        );
        t.record_quarantine_event();

        let s = t.snapshot();
        assert_eq!(s.latency.count, 1);
        for h in s.stages.in_order() {
            assert_eq!(h.count, 1);
        }
        assert_eq!(s.stages.queue_wait.sum_ns, 5_000);
        assert_eq!(s.stages.execute.sum_ns, 40_000);
        // The completed span is the slowest seen so far.
        assert_eq!(s.slowest.len(), 1);
        assert_eq!(s.slowest[0].kind, TerminalKind::Completed);
        assert_eq!(s.slowest[0].total_ns, 50_000);
        // The expired span and the quarantine land in the event ring, in order.
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].kind, TerminalKind::Expired);
        assert_eq!(s.events[0].stage_ns[0], 9_000);
        assert_eq!(s.events[0].stage_ns[2], 0, "no execute stage on expiry");
        assert_eq!(s.events[1].kind, TerminalKind::Quarantined);
        assert_eq!(
            s.layers,
            vec![
                LayerAttribution {
                    wall_ns: 8_000,
                    mvms: 4
                },
                LayerAttribution {
                    wall_ns: 12_000,
                    mvms: 5
                },
            ]
        );
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let href = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        href.record(Duration::from_nanos(500 + i * 1_000));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 4000);
    }
}
