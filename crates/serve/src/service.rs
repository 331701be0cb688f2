//! The serving core: admission, dynamic batching, replica workers and
//! graceful shutdown.
//!
//! [`Server::builder`](crate::Server::builder) turns a mapped
//! [`Executor`] into a running service for the duration of one client
//! closure:
//!
//! ```text
//!  submit() ──► BoundedQueue ──► replica 0 ─┐
//!     │  shed on full  │   pop_batch        ├──► Slot ──► Ticket::wait()
//!     ▼                └─────► replica N-1 ─┘
//!  Err(Shed)
//! ```
//!
//! Every entry point runs the same core: one setup path and one replica
//! loop, policed or not. Each replica owns one warm
//! [`InferenceSession`](forms_exec::InferenceSession) and loops: pop a
//! batch (blocking, with the dynamic-batching straggler window, which
//! stays shut while another replica is idle), drop
//! requests that were cancelled or whose deadline already passed — a
//! request past its latency budget is *rejected, not executed*, because
//! its client has given up — then run the survivors as one batched
//! forward and fill each request's response slot. Sessions lower every
//! weight layer through the engines' batched
//! [`matmul_into`](forms_exec::CrossbarEngine::matmul_into) hot path — one
//! kernel call per layer for the whole admitted batch, with per-sample
//! activation scales and per-sample sentinel checks — so batched results
//! are bitwise identical to running each request alone. Plain replicas
//! share the mapped engines; policed replicas (see [`crate::health`]) own
//! a clone each.
//!
//! Failure containment: the forward runs under `catch_unwind`, so a
//! panicking engine fails its batch (every request gets
//! [`ServeError::EngineFailed`]) and the replica rebuilds its session and
//! keeps serving — one poisoned request cannot take a replica down, and
//! shutdown can never hang on an abandoned slot. The queue closes via a
//! drop guard even if the client closure panics.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use forms_exec::{CrossbarEngine, Executor};
use forms_tensor::Tensor;

use crate::health::{Policing, ReplicaHealth};
use crate::queue::{BoundedQueue, PopWait, PushError};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::{SpanRecord, StageDurations, TerminalKind, TraceConfig};

/// Service sizing and batching policy.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Replica worker threads, each owning one warm inference session.
    pub replicas: usize,
    /// Admission queue bound; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Largest batch one replica executes at once.
    pub max_batch: usize,
    /// The longest a replica waits for stragglers after popping a batch
    /// head. It waits only while the queue is empty and no other replica
    /// is idle: an idle peer would start a straggler at once, so a lone
    /// or fully busy service batches and an underloaded one does not.
    pub max_delay: Duration,
    /// Deadline applied to every request submitted without an explicit
    /// one; `None` means no deadline.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            queue_capacity: 64,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            default_deadline: None,
        }
    }
}

/// Why a request did not produce an output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full; the request was shed at the door.
    Shed,
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's deadline passed before a replica could execute it.
    DeadlineExceeded,
    /// The client cancelled the request before execution.
    Cancelled,
    /// The replica's engine panicked while executing the batch.
    EngineFailed,
    /// The owning replica was unhealthy (fault density over policy or an
    /// output-range sentinel tripped) and refused to return possibly
    /// corrupted results.
    Degraded,
    /// The payload length does not match the service's sample shape.
    BadShape {
        /// Expected flattened sample length.
        expected: usize,
        /// Length actually submitted.
        got: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shed => write!(f, "request shed: admission queue full"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::DeadlineExceeded => write!(f, "deadline passed before execution"),
            Self::Cancelled => write!(f, "request cancelled by client"),
            Self::EngineFailed => write!(f, "replica engine failed on this batch"),
            Self::Degraded => write!(f, "replica degraded: refused possibly corrupted result"),
            Self::BadShape { expected, got } => {
                write!(f, "bad payload length: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed request's output and timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Flattened output vector for this sample.
    pub output: Vec<f32>,
    /// End-to-end latency: submission to completion. Always exactly
    /// [`StageDurations::total`] of `stages`.
    pub latency: Duration,
    /// Time spent queued before a replica popped this request's batch
    /// head (zero for a straggler that arrived after it). Always exactly
    /// the `queue_wait` stage of `stages`.
    pub queue_wait: Duration,
    /// Per-stage breakdown of `latency`: queue wait, batch formation,
    /// execution, and response delivery.
    pub stages: StageDurations,
    /// Number of requests in the batch that executed this one.
    pub batch_size: usize,
}

/// One-shot response slot shared between a ticket and the replica that
/// eventually executes (or rejects) the request.
#[derive(Debug)]
pub(crate) struct Slot {
    state: Mutex<Option<Result<Response, ServeError>>>,
    done: Condvar,
    cancelled: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    pub(crate) fn fill(&self, result: Result<Response, ServeError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(state.is_none(), "a slot is filled exactly once");
        *state = Some(result);
        drop(state);
        self.done.notify_all();
    }
}

/// The client's handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request resolves and returns its outcome.
    ///
    /// Never hangs: every admitted request is resolved — executed,
    /// rejected at batch formation, or failed during drain.
    ///
    /// # Errors
    ///
    /// Returns the [`ServeError`] recorded for this request when it did
    /// not complete.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self
                .slot
                .done
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Whether the request has resolved (non-blocking).
    pub fn is_done(&self) -> bool {
        self.slot
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Requests cancellation: if no replica has started executing this
    /// request yet, it will resolve to [`ServeError::Cancelled`] instead
    /// of running. A request already executed keeps its result.
    pub fn cancel(&self) {
        self.slot.cancelled.store(true, Ordering::Release);
    }
}

/// One admitted request travelling through the queue.
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) input: Vec<f32>,
    /// Stage timestamps for this request; `span.enqueued` is the
    /// submission instant.
    pub(crate) span: SpanRecord,
    pub(crate) deadline: Option<Instant>,
    pub(crate) slot: Arc<Slot>,
}

impl Pending {
    /// Whether the client cancelled this request.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.slot.cancelled.load(Ordering::Acquire)
    }
}

/// The client-side face of a running service: submit requests, observe
/// telemetry. Cloning is cheap (shared queue and counters); the handle is
/// `Sync`, so a load generator may submit from several threads.
#[derive(Clone, Debug)]
pub struct ServiceHandle {
    pub(crate) queue: Arc<BoundedQueue<Pending>>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) sample_len: usize,
    pub(crate) default_deadline: Option<Duration>,
}

impl ServiceHandle {
    /// Submits one request with the service's default deadline policy.
    ///
    /// Never blocks: if the queue is full the request is shed
    /// immediately, which is what keeps service memory bounded under
    /// overload.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadShape`] for a wrong-length payload,
    /// [`ServeError::Shed`] when the queue is full,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: Vec<f32>) -> Result<Ticket, ServeError> {
        self.submit_inner(input, self.default_deadline)
    }

    /// Submits one request with an explicit latency budget, overriding the
    /// service default.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(input, Some(deadline))
    }

    fn submit_inner(
        &self,
        input: Vec<f32>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        if input.len() != self.sample_len {
            return Err(ServeError::BadShape {
                expected: self.sample_len,
                got: input.len(),
            });
        }
        self.telemetry.submitted.fetch_add(1, Ordering::Relaxed);
        let submitted = Instant::now();
        let slot = Slot::new();
        let pending = Pending {
            input,
            span: SpanRecord::new(submitted),
            deadline: deadline.map(|d| submitted + d),
            slot: Arc::clone(&slot),
        };
        match self.queue.try_push(pending) {
            Ok(()) => Ok(Ticket { slot }),
            Err(PushError::Full(rejected)) => {
                self.telemetry.shed.fetch_add(1, Ordering::Relaxed);
                self.telemetry.record_terminal_span(
                    TerminalKind::Shed,
                    &rejected.span,
                    Instant::now(),
                );
                Err(ServeError::Shed)
            }
            Err(PushError::Closed(rejected)) => {
                self.telemetry.shed.fetch_add(1, Ordering::Relaxed);
                self.telemetry.record_terminal_span(
                    TerminalKind::Shed,
                    &rejected.span,
                    Instant::now(),
                );
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Flattened per-sample payload length this service expects.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Current telemetry snapshot.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Requests currently queued (racy snapshot; bounded by the configured
    /// capacity by construction).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The admission queue's capacity bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }
}

/// Closes the queue when dropped, so replicas drain and exit even if the
/// client closure panics — shutdown can never hang on an open queue.
struct CloseGuard<'a>(&'a BoundedQueue<Pending>);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The serving core behind every entry point: builds the queue, telemetry
/// and handle, runs `config.replicas` replica loops — policed when
/// `policing` is set — for the duration of `client`, then closes the
/// queue and joins every replica.
///
/// # Panics
///
/// Panics if `config.replicas`, `config.queue_capacity` or
/// `config.max_batch` is zero, if `sample_dims` is empty, or if the
/// health policy is one [`ServerBuilder::validate`](crate::ServerBuilder::validate)
/// rejects.
pub(crate) fn serve_core<E, R>(
    executor: &Executor<E>,
    sample_dims: &[usize],
    config: &ServeConfig,
    trace: &TraceConfig,
    policing: Option<&Policing<E>>,
    client: impl FnOnce(&ServiceHandle) -> R,
) -> (R, TelemetrySnapshot)
where
    E: CrossbarEngine,
    E::Stats: Sync,
{
    assert!(config.replicas > 0, "need at least one replica");
    assert!(config.max_batch > 0, "batch size must be positive");
    assert!(!sample_dims.is_empty(), "sample shape must be non-empty");
    if let Some(Err(e)) = policing.map(|p| p.policy.check()) {
        panic!("malformed health policy: {e}");
    }
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
    let telemetry = Arc::new(Telemetry::new(
        executor.plan().summary(),
        executor.engines().len(),
        trace,
    ));
    let handle = ServiceHandle {
        queue: Arc::clone(&queue),
        telemetry: Arc::clone(&telemetry),
        sample_len: sample_dims.iter().product(),
        default_deadline: config.default_deadline,
    };
    let result = std::thread::scope(|scope| {
        for replica in 0..config.replicas {
            let (queue, telemetry) = (&*queue, &*telemetry);
            let health = policing.map(|p| p.replica(replica));
            scope.spawn(move || {
                replica_loop(executor, sample_dims, config, queue, telemetry, health);
            });
        }
        let guard = CloseGuard(&queue);
        let result = client(&handle);
        drop(guard);
        result
    });
    (result, telemetry.snapshot())
}

/// Tracks the per-layer wall-time and MVM counters of one replica's
/// session between batches, pushing only the per-batch deltas into the
/// shared telemetry so attribution stays correct across many replicas.
struct LayerDeltas {
    prev_wall: Vec<u64>,
    prev_mvms: Vec<u64>,
    wall_delta: Vec<u64>,
    mvm_delta: Vec<u64>,
}

impl LayerDeltas {
    fn new(layer_count: usize) -> Self {
        Self {
            prev_wall: vec![0; layer_count],
            prev_mvms: vec![0; layer_count],
            wall_delta: vec![0; layer_count],
            mvm_delta: vec![0; layer_count],
        }
    }

    /// Forget the previous session's counters after a rebuild (the fresh
    /// session restarts them from zero).
    fn reset(&mut self) {
        self.prev_wall.fill(0);
        self.prev_mvms.fill(0);
    }

    /// Publish the delta since the last call into `telemetry`.
    fn publish(&mut self, wall: &[u64], mvms: &[u64], telemetry: &Telemetry) {
        for (d, (&w, &p)) in self
            .wall_delta
            .iter_mut()
            .zip(wall.iter().zip(&self.prev_wall))
        {
            *d = w.saturating_sub(p);
        }
        for (d, (&m, &p)) in self
            .mvm_delta
            .iter_mut()
            .zip(mvms.iter().zip(&self.prev_mvms))
        {
            *d = m.saturating_sub(p);
        }
        self.prev_wall.copy_from_slice(wall);
        self.prev_mvms.copy_from_slice(mvms);
        telemetry.add_layer_attribution(&self.wall_delta, &self.mvm_delta);
    }
}

/// How long an idle policed replica waits before checking its mailbox.
const MAILBOX_POLL: Duration = Duration::from_millis(1);

/// One replica: pops batches and runs forwards until the queue is closed
/// and drained or, under a health policy, until the replica quarantines.
///
/// Without `health` the replica borrows the shared executor, blocks in
/// `pop_batch`, and never refuses, rebuilds or quarantines. With it, the
/// replica owns a clone of `shared`, applies delivered fault campaigns
/// between batches, refuses to serve over its fault-density budget,
/// refuses a whole batch that trips an output sentinel before filling any
/// slot, and recovers by rebuilding from `shared` (see [`crate::health`]).
///
/// Either way a panicking engine fails only its batch: every request gets
/// [`ServeError::EngineFailed`] and the replica rebuilds its session.
fn replica_loop<E: CrossbarEngine>(
    shared: &Executor<E>,
    sample_dims: &[usize],
    config: &ServeConfig,
    queue: &BoundedQueue<Pending>,
    telemetry: &Telemetry,
    mut health: Option<ReplicaHealth<'_, E>>,
) {
    let mut executor = match health {
        Some(_) => Cow::Owned(shared.clone()),
        None => Cow::Borrowed(shared),
    };
    let mut deltas = LayerDeltas::new(shared.engines().len());
    let mut batch: Vec<Pending> = Vec::new();
    let mut live: Vec<Pending> = Vec::new();
    let mut staging: Vec<f32> = Vec::new();
    let mut out: Vec<f32> = Vec::new();
    'serve: loop {
        if let Some(h) = &mut health {
            // Deliver queued campaigns while nothing borrows the engines,
            // then gate on density: a replica over its fault budget
            // refuses to serve at all.
            h.apply_mail(executor.to_mut(), telemetry);
            if h.over_budget(&executor) {
                if h.rebuild_or_quarantine(executor.to_mut(), shared, telemetry) {
                    continue 'serve;
                }
                break 'serve;
            }
        }
        let mut session = executor.session();
        deltas.reset();
        let mut seen_sentinels = session.sentinel_violations();
        loop {
            let popped = match &health {
                None => queue.pop_batch(config.max_batch, config.max_delay, &mut batch),
                // Bounded wait: an idle policed replica must still notice
                // fault deliveries.
                Some(h) => match queue.pop_batch_for(
                    config.max_batch,
                    config.max_delay,
                    MAILBOX_POLL,
                    &mut batch,
                ) {
                    PopWait::Batch(head_popped) => Some(head_popped),
                    PopWait::Closed => None,
                    PopWait::Idle if h.has_mail() => continue 'serve,
                    PopWait::Idle => continue,
                },
            };
            let Some(head_popped) = popped else {
                return;
            };
            for pending in &mut batch {
                pending.span.stamp_dequeued(head_popped);
            }
            filter_live(&mut batch, &mut live, telemetry);
            if !live.is_empty() {
                let batch_size = live.len();
                staging.clear();
                for pending in &live {
                    staging.extend_from_slice(&pending.input);
                }
                let mut dims = vec![batch_size];
                dims.extend_from_slice(sample_dims);
                let x = Tensor::from_vec(std::mem::take(&mut staging), &dims);
                let batch_formed = Instant::now();
                for pending in &mut live {
                    pending.span.batch_formed = Some(batch_formed);
                }
                let forward = catch_unwind(AssertUnwindSafe(|| {
                    session.forward_batch_into(&x, &mut out);
                }));
                let executed = Instant::now();
                for pending in &mut live {
                    pending.span.executed = Some(executed);
                }
                staging = x.into_vec();
                match forward {
                    Ok(()) => {
                        if let Some(h) = &mut health {
                            let sentinels = session.sentinel_violations();
                            if sentinels > seen_sentinels {
                                // An output escaped the pristine mapping's
                                // range: the batch may be corrupted, so
                                // refuse it before any slot is filled, then
                                // recover.
                                fail_batch(&mut live, ServeError::Degraded, telemetry, executed);
                                out.clear();
                                if h.rebuild_or_quarantine(executor.to_mut(), shared, telemetry) {
                                    continue 'serve;
                                }
                                break 'serve;
                            }
                            seen_sentinels = sentinels;
                            h.recovered();
                        }
                        deltas.publish(session.layer_wall_ns(), session.layer_mvms(), telemetry);
                        let per_sample = out.len() / batch_size;
                        for (i, mut pending) in live.drain(..).enumerate() {
                            pending.span.responded = Some(Instant::now());
                            let stages = pending.span.stages();
                            telemetry.record_completed_span(&stages);
                            pending.slot.fill(Ok(Response {
                                output: out[i * per_sample..(i + 1) * per_sample].to_vec(),
                                latency: stages.total(),
                                queue_wait: stages.queue_wait,
                                stages,
                                batch_size,
                            }));
                        }
                    }
                    Err(_) => {
                        // The engine panicked: fail this batch but keep the
                        // replica alive. The session's buffers may be
                        // mid-update, so rebuild it before the next batch.
                        // Each request's partial span still reaches the
                        // event ring, so the failure is visible with its
                        // stage breakdown.
                        fail_batch(&mut live, ServeError::EngineFailed, telemetry, executed);
                        out.clear();
                        session = executor.session();
                        deltas.reset();
                        seen_sentinels = session.sentinel_violations();
                    }
                }
            }
            if health.as_ref().is_some_and(ReplicaHealth::has_mail) {
                continue 'serve;
            }
        }
    }

    // Quarantined. If peers remain they absorb the load; if this was the
    // last active replica, drain the queue failing every request so no
    // admitted ticket can hang on an abandoned queue.
    if health.is_some_and(ReplicaHealth::retire) {
        while let Some(head_popped) =
            queue.pop_batch(config.max_batch, config.max_delay, &mut batch)
        {
            for pending in &mut batch {
                pending.span.stamp_dequeued(head_popped);
            }
            fail_batch(&mut batch, ServeError::Degraded, telemetry, Instant::now());
        }
    }
}

/// Resolves every request in `batch` with `err` (`EngineFailed` or
/// `Degraded`), counting it and flushing its partial span at `at`.
fn fail_batch(batch: &mut Vec<Pending>, err: ServeError, telemetry: &Telemetry, at: Instant) {
    let (counter, kind) = match err {
        ServeError::Degraded => (&telemetry.degraded, TerminalKind::Degraded),
        _ => (&telemetry.failed, TerminalKind::Failed),
    };
    for pending in batch.drain(..) {
        counter.fetch_add(1, Ordering::Relaxed);
        telemetry.record_terminal_span(kind, &pending.span, at);
        pending.slot.fill(Err(err));
    }
}

/// Rejects batch members that cannot usefully execute — cancelled requests
/// have no consumer and requests past their latency budget are useless to
/// their clients; running either would only add load while overloaded —
/// and moves the survivors into `live`.
fn filter_live(batch: &mut Vec<Pending>, live: &mut Vec<Pending>, telemetry: &Telemetry) {
    let now = Instant::now();
    live.clear();
    for pending in batch.drain(..) {
        if pending.is_cancelled() {
            telemetry.cancelled.fetch_add(1, Ordering::Relaxed);
            telemetry.record_terminal_span(TerminalKind::Cancelled, &pending.span, now);
            pending.slot.fill(Err(ServeError::Cancelled));
        } else if pending.deadline.is_some_and(|d| now >= d) {
            telemetry.expired.fetch_add(1, Ordering::Relaxed);
            telemetry.record_terminal_span(TerminalKind::Expired, &pending.span, now);
            pending.slot.fill(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(pending);
        }
    }
}
