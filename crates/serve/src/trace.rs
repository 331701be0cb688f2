//! Request-lifecycle tracing: per-request stage spans and the bounded
//! terminal-event ring.
//!
//! Every admitted request carries a [`SpanRecord`] — a preallocated set of
//! monotonic stage timestamps stamped lock-free by whichever thread moves
//! the request forward:
//!
//! ```text
//!  enqueued ──► dequeued ──► batch_formed ──► executed ──► responded
//!  (submit)     (batch head   (staged, about   (forward     (slot filled)
//!               popped)        to execute)      returned)
//!     │ queue_wait │ batch_form │   execute      │  respond  │
//! ```
//!
//! `dequeued` is the instant the replica popped the batch head, or a
//! straggler's own arrival if it came later, so the straggler window is
//! booked under `batch_form` and never under `queue_wait`.
//!
//! The four stage durations telescope *exactly*: their integer-nanosecond
//! sum equals the end-to-end latency, because each stage is the difference
//! of consecutive `Instant`s on one monotonic clock. Requests that never
//! execute (shed, expired, cancelled, failed, degraded) flush their
//! partial span as an [`EventRecord`] into the [`EventRing`] — a bounded,
//! poison-tolerant, allocation-free-after-construction buffer of recent
//! terminal events plus an insert-sorted slowest-N list of completed
//! spans.
//!
//! Stamping is a plain `Instant::now()` read into a preallocated `Option`
//! slot — no lock, no allocation — so tracing rides the hot path at
//! negligible cost. Only terminal-event recording takes a (short,
//! poison-tolerant) mutex, and completed requests skip even that once the
//! slowest-N list is full of slower spans.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::JsonValue;

/// Number of traced pipeline stages (queue-wait, batch-form, execute,
/// respond).
pub const STAGE_COUNT: usize = 4;

/// Human-readable stage names, in pipeline order — the field names used by
/// the telemetry JSON schema.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = ["queue_wait", "batch_form", "execute", "respond"];

/// Sizing of the tracing subsystem. `Default` suits benches and tests;
/// zero capacities disable the corresponding buffer entirely.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Terminal events (shed, expired, cancelled, failed, degraded,
    /// quarantined) retained in the ring; older events are evicted.
    pub event_capacity: usize,
    /// Slowest completed spans retained (by end-to-end latency).
    pub slowest_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            event_capacity: 128,
            slowest_capacity: 8,
        }
    }
}

/// Monotonic stage timestamps of one request's life. `enqueued` is always
/// present (stamped at submission); later stages stay `None` until the
/// request reaches them, so a terminal event records exactly how far the
/// request got.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Admission: the submitter stamped this before pushing to the queue.
    pub enqueued: Instant,
    /// A replica popped the request's batch head out of the admission
    /// queue, or the request arrived after that, as a straggler.
    pub dequeued: Option<Instant>,
    /// The executing batch finished forming (liveness filtered, inputs
    /// staged) and is about to run.
    pub batch_formed: Option<Instant>,
    /// The batched forward returned (successfully or by panic).
    pub executed: Option<Instant>,
    /// The response slot was filled.
    pub responded: Option<Instant>,
}

impl SpanRecord {
    /// A fresh span stamped as enqueued `now`.
    pub fn new(enqueued: Instant) -> Self {
        Self {
            enqueued,
            dequeued: None,
            batch_formed: None,
            executed: None,
            responded: None,
        }
    }

    /// Stamps `dequeued` for a member of a batch whose head was popped
    /// at `head_popped`: a straggler enqueued later is dequeued on
    /// arrival, so the time its batch spent gathering it counts as
    /// `batch_form`, and the stages still telescope.
    pub(crate) fn stamp_dequeued(&mut self, head_popped: Instant) {
        self.dequeued = Some(head_popped.max(self.enqueued));
    }

    /// The per-stage durations of a *completed* span.
    ///
    /// # Panics
    ///
    /// Panics if any stage timestamp is missing — call only on spans whose
    /// `responded` has been stamped.
    pub fn stages(&self) -> StageDurations {
        let dequeued = self.dequeued.expect("completed span has dequeued");
        let batch_formed = self.batch_formed.expect("completed span has batch_formed");
        let executed = self.executed.expect("completed span has executed");
        let responded = self.responded.expect("completed span has responded");
        StageDurations {
            queue_wait: dequeued.duration_since(self.enqueued),
            batch_form: batch_formed.duration_since(dequeued),
            execute: executed.duration_since(batch_formed),
            respond: responded.duration_since(executed),
        }
    }

    /// Partial per-stage nanoseconds for a span that may have terminated
    /// at any stage: entry `i` is the duration of stage `i`, 0 for stages
    /// never reached. A stage that started but never finished is charged
    /// up to `now`.
    pub fn partial_stage_ns(&self, now: Instant) -> [u64; STAGE_COUNT] {
        let mut out = [0u64; STAGE_COUNT];
        let marks = [
            Some(self.enqueued),
            self.dequeued,
            self.batch_formed,
            self.executed,
            self.responded,
        ];
        for i in 0..STAGE_COUNT {
            let Some(start) = marks[i] else { break };
            // The stage ends at the next stamped mark, or at `now` for the
            // stage the request died in.
            let end = marks[i + 1].unwrap_or(now);
            out[i] = duration_ns(end.duration_since(start));
            if marks[i + 1].is_none() {
                break;
            }
        }
        out
    }

    /// Nanoseconds from admission to `now` (or to `responded` when
    /// stamped) — the total lifetime recorded on terminal events.
    pub fn total_ns(&self, now: Instant) -> u64 {
        let end = self.responded.unwrap_or(now);
        duration_ns(end.duration_since(self.enqueued))
    }
}

/// Saturating nanosecond count of a duration.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The four pipeline-stage durations of one completed request. Their sum
/// is exactly the request's end-to-end latency (integer-nanosecond
/// telescoping of consecutive monotonic timestamps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageDurations {
    /// Admission to dequeue: time spent waiting in the bounded queue.
    pub queue_wait: Duration,
    /// Dequeue to batch formation: liveness filtering and input staging.
    pub batch_form: Duration,
    /// Batch formation to forward return: crossbar execution.
    pub execute: Duration,
    /// Forward return to slot fill: output scatter and response delivery.
    pub respond: Duration,
}

impl StageDurations {
    /// End-to-end latency: the exact sum of the four stages.
    pub fn total(&self) -> Duration {
        self.queue_wait + self.batch_form + self.execute + self.respond
    }

    /// The stages as saturating nanosecond counts, in pipeline order.
    pub fn as_ns(&self) -> [u64; STAGE_COUNT] {
        [
            duration_ns(self.queue_wait),
            duration_ns(self.batch_form),
            duration_ns(self.execute),
            duration_ns(self.respond),
        ]
    }
}

/// How a request's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalKind {
    /// Executed and responded successfully.
    Completed,
    /// Refused at admission (queue full or service closing).
    Shed,
    /// Deadline passed before execution; rejected at batch formation.
    Expired,
    /// Cancelled by the client before execution.
    Cancelled,
    /// The executing replica's engine panicked.
    Failed,
    /// Refused by an unhealthy replica (sentinel trip / density gate /
    /// quarantine drain).
    Degraded,
    /// Not a request: marks a replica leaving service permanently.
    Quarantined,
}

impl TerminalKind {
    /// Stable JSON tag for the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::Shed => "shed",
            Self::Expired => "expired",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
            Self::Degraded => "degraded",
            Self::Quarantined => "quarantined",
        }
    }

    /// Parses a tag produced by [`as_str`](Self::as_str).
    pub fn parse(tag: &str) -> Option<Self> {
        Some(match tag {
            "completed" => Self::Completed,
            "shed" => Self::Shed,
            "expired" => Self::Expired,
            "cancelled" => Self::Cancelled,
            "failed" => Self::Failed,
            "degraded" => Self::Degraded,
            "quarantined" => Self::Quarantined,
            _ => return None,
        })
    }
}

/// One terminal event: how a request (or replica) ended and how far
/// through the pipeline it got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotone sequence number (per service, starts at 0).
    pub seq: u64,
    /// How the life ended.
    pub kind: TerminalKind,
    /// Per-stage nanoseconds reached before the end (0 for stages never
    /// entered).
    pub stage_ns: [u64; STAGE_COUNT],
    /// Nanoseconds from admission to the terminal mark.
    pub total_ns: u64,
}

impl EventRecord {
    /// Renders the event as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seq", JsonValue::Number(self.seq as f64)),
            ("kind", JsonValue::String(self.kind.as_str().to_string())),
            (
                "stage_ns",
                JsonValue::Array(
                    self.stage_ns
                        .iter()
                        .map(|&ns| JsonValue::Number(ns as f64))
                        .collect(),
                ),
            ),
            ("total_ns", JsonValue::Number(self.total_ns as f64)),
        ])
    }

    /// Parses an event rendered by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let uint = |key: &str| -> Result<u64, String> {
            let v = doc
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event: missing numeric `{key}`"))?;
            if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0) {
                return Err(format!("event: `{key}` must be a non-negative integer"));
            }
            Ok(v as u64)
        };
        let kind_tag = doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("event: missing string `kind`")?;
        let kind = TerminalKind::parse(kind_tag)
            .ok_or_else(|| format!("event: unknown kind `{kind_tag}`"))?;
        let stages = doc
            .get("stage_ns")
            .and_then(JsonValue::as_array)
            .ok_or("event: missing `stage_ns` array")?;
        if stages.len() != STAGE_COUNT {
            return Err(format!(
                "event: expected {STAGE_COUNT} stage entries, found {}",
                stages.len()
            ));
        }
        let mut stage_ns = [0u64; STAGE_COUNT];
        for (i, s) in stages.iter().enumerate() {
            let v = s
                .as_f64()
                .ok_or_else(|| format!("event: stage {i} is not a number"))?;
            if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0) {
                return Err(format!("event: stage {i} must be a non-negative integer"));
            }
            stage_ns[i] = v as u64;
        }
        Ok(Self {
            seq: uint("seq")?,
            kind,
            stage_ns,
            total_ns: uint("total_ns")?,
        })
    }
}

/// State behind the ring's mutex. All containers are sized once at
/// construction and never grow, so pushes are allocation-free.
#[derive(Debug)]
struct RingState {
    /// Recent terminal events, oldest first; bounded by `event_capacity`.
    events: VecDeque<EventRecord>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Slowest completed spans, sorted by `total_ns` descending; bounded
    /// by `slowest_capacity`.
    slowest: Vec<EventRecord>,
}

/// Bounded buffer of recent terminal events plus a slowest-N list of
/// completed spans. Poison-tolerant: a panicking recorder cannot wedge the
/// ring for other threads. Allocation-free after construction.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingState>,
    /// Smallest `total_ns` currently held in a *full* slowest list; lets
    /// completed-span candidates skip the lock when they cannot place.
    slowest_floor: AtomicU64,
    event_capacity: usize,
    slowest_capacity: usize,
}

impl EventRing {
    /// A ring sized by `config`. Zero capacities disable the respective
    /// buffer (records become no-ops).
    pub fn new(config: &TraceConfig) -> Self {
        Self {
            inner: Mutex::new(RingState {
                events: VecDeque::with_capacity(config.event_capacity),
                next_seq: 0,
                // +1 so the insert-then-truncate never reallocates.
                slowest: Vec::with_capacity(config.slowest_capacity + 1),
            }),
            slowest_floor: AtomicU64::new(0),
            event_capacity: config.event_capacity,
            slowest_capacity: config.slowest_capacity,
        }
    }

    /// Records one non-completed terminal event (shed, expired, cancelled,
    /// failed, degraded, quarantined) into the ring, evicting the oldest
    /// when full.
    pub fn record_terminal(&self, kind: TerminalKind, stage_ns: [u64; STAGE_COUNT], total_ns: u64) {
        debug_assert!(
            kind != TerminalKind::Completed,
            "completed spans go through record_completed"
        );
        if self.event_capacity == 0 {
            return;
        }
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.event_capacity {
            state.events.pop_front();
        }
        state.events.push_back(EventRecord {
            seq,
            kind,
            stage_ns,
            total_ns,
        });
    }

    /// Offers one completed span to the slowest-N list. Fast path: when
    /// the list is full and this span is no slower than everything in it,
    /// a single atomic read rejects it without taking the lock.
    pub fn record_completed(&self, stage_ns: [u64; STAGE_COUNT], total_ns: u64) {
        if self.slowest_capacity == 0 || total_ns <= self.slowest_floor.load(Ordering::Relaxed) {
            return;
        }
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        let record = EventRecord {
            seq,
            kind: TerminalKind::Completed,
            stage_ns,
            total_ns,
        };
        let pos = state
            .slowest
            .partition_point(|r| r.total_ns >= record.total_ns);
        state.slowest.insert(pos, record);
        state.slowest.truncate(self.slowest_capacity);
        if state.slowest.len() == self.slowest_capacity {
            // Only a full list may reject candidates: a partially filled
            // list must keep accepting everything, so the floor stays 0
            // until capacity is reached.
            let floor = state.slowest.last().map_or(0, |r| r.total_ns);
            self.slowest_floor.store(floor, Ordering::Relaxed);
        }
    }

    /// Copies out the ring contents: `(recent events oldest-first, slowest
    /// completed spans slowest-first)`.
    pub fn snapshot(&self) -> (Vec<EventRecord>, Vec<EventRecord>) {
        let state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (
            state.events.iter().copied().collect(),
            state.slowest.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stages_telescope_exactly() {
        let t0 = Instant::now();
        let mut span = SpanRecord::new(t0);
        std::thread::sleep(Duration::from_micros(200));
        span.dequeued = Some(Instant::now());
        span.batch_formed = Some(Instant::now());
        std::thread::sleep(Duration::from_micros(100));
        span.executed = Some(Instant::now());
        span.responded = Some(Instant::now());
        let stages = span.stages();
        let total = span.responded.unwrap().duration_since(t0);
        assert_eq!(stages.total(), total, "stages must telescope exactly");
        assert!(stages.queue_wait >= Duration::from_micros(200));
        assert!(stages.execute >= Duration::from_micros(100));
    }

    #[test]
    fn straggler_window_is_booked_under_batch_form() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        // The head waited 10 µs in the queue; the straggler arrived 30 µs
        // after the head was popped and flushed the batch.
        let mut head = SpanRecord::new(t0);
        let mut straggler = SpanRecord::new(at(40));
        for span in [&mut head, &mut straggler] {
            span.stamp_dequeued(at(10));
            span.batch_formed = Some(at(45));
            span.executed = Some(at(95));
            span.responded = Some(at(100));
        }
        let (h, s) = (head.stages(), straggler.stages());
        assert_eq!(h.queue_wait, Duration::from_micros(10));
        assert_eq!(
            h.batch_form,
            Duration::from_micros(35),
            "window is batch_form"
        );
        assert_eq!(s.queue_wait, Duration::ZERO, "a straggler never queued");
        assert_eq!(s.batch_form, Duration::from_micros(5));
        assert_eq!(h.total(), at(100).duration_since(t0));
        assert_eq!(s.total(), at(100).duration_since(at(40)));
    }

    #[test]
    fn partial_stages_stop_at_the_death_stage() {
        let t0 = Instant::now();
        let mut span = SpanRecord::new(t0);
        span.dequeued = Some(t0 + Duration::from_micros(10));
        // Died during batch formation: execute and respond never happened.
        let now = t0 + Duration::from_micros(25);
        let ns = span.partial_stage_ns(now);
        assert_eq!(ns[0], 10_000);
        assert_eq!(ns[1], 15_000, "open stage charged up to now");
        assert_eq!(ns[2], 0);
        assert_eq!(ns[3], 0);
        assert_eq!(span.total_ns(now), 25_000);
        // A span that never left the queue charges only queue-wait.
        let fresh = SpanRecord::new(t0);
        let ns = fresh.partial_stage_ns(now);
        assert_eq!(ns, [25_000, 0, 0, 0]);
    }

    #[test]
    fn event_ring_bounds_and_evicts_oldest() {
        let ring = EventRing::new(&TraceConfig {
            event_capacity: 3,
            slowest_capacity: 2,
        });
        for i in 0..5u64 {
            ring.record_terminal(TerminalKind::Shed, [i; STAGE_COUNT], i);
        }
        let (events, _) = ring.snapshot();
        assert_eq!(events.len(), 3, "ring is bounded");
        assert_eq!(
            events.iter().map(|e| e.total_ns).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted first"
        );
        // Sequence numbers stay monotone across evictions.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn slowest_list_keeps_the_n_largest() {
        let ring = EventRing::new(&TraceConfig {
            event_capacity: 4,
            slowest_capacity: 3,
        });
        for total in [50u64, 10, 90, 20, 70, 5, 100] {
            ring.record_completed([total / 4; STAGE_COUNT], total);
        }
        let (_, slowest) = ring.snapshot();
        assert_eq!(
            slowest.iter().map(|e| e.total_ns).collect::<Vec<_>>(),
            vec![100, 90, 70]
        );
        assert!(slowest.iter().all(|e| e.kind == TerminalKind::Completed));
        // The floor fast path rejects a span slower than nothing retained.
        ring.record_completed([1; STAGE_COUNT], 60);
        let (_, slowest) = ring.snapshot();
        assert_eq!(
            slowest.iter().map(|e| e.total_ns).collect::<Vec<_>>(),
            vec![100, 90, 70]
        );
    }

    #[test]
    fn zero_capacities_disable_recording() {
        let ring = EventRing::new(&TraceConfig {
            event_capacity: 0,
            slowest_capacity: 0,
        });
        ring.record_terminal(TerminalKind::Failed, [1; STAGE_COUNT], 4);
        ring.record_completed([2; STAGE_COUNT], 8);
        let (events, slowest) = ring.snapshot();
        assert!(events.is_empty());
        assert!(slowest.is_empty());
    }

    #[test]
    fn event_json_round_trips_and_rejects_garbage() {
        let record = EventRecord {
            seq: 42,
            kind: TerminalKind::Degraded,
            stage_ns: [1, 2, 3, 4],
            total_ns: 10,
        };
        let doc = record.to_json();
        let text = doc.pretty();
        let reparsed = crate::json::parse(&text).unwrap();
        assert_eq!(EventRecord::from_json(&reparsed).unwrap(), record);
        // Every kind tag parses back to itself.
        for kind in [
            TerminalKind::Completed,
            TerminalKind::Shed,
            TerminalKind::Expired,
            TerminalKind::Cancelled,
            TerminalKind::Failed,
            TerminalKind::Degraded,
            TerminalKind::Quarantined,
        ] {
            assert_eq!(TerminalKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(TerminalKind::parse("exploded"), None);
        assert!(EventRecord::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn concurrent_recording_never_wedges() {
        let ring = EventRing::new(&TraceConfig::default());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let total = t * 1000 + i;
                        if i % 3 == 0 {
                            ring.record_terminal(TerminalKind::Shed, [total; 4], total);
                        } else {
                            ring.record_completed([total / 4; 4], total);
                        }
                    }
                });
            }
        });
        let (events, slowest) = ring.snapshot();
        assert!(events.len() <= TraceConfig::default().event_capacity);
        assert_eq!(slowest.len(), TraceConfig::default().slowest_capacity);
        // Slowest list is sorted descending.
        assert!(slowest.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
    }
}
