//! # forms-serve
//!
//! A batched multi-replica inference serving layer over any
//! [`Executor`](forms_exec::Executor): the subsystem that turns one mapped
//! FORMS (or baseline) accelerator model into a service under open-loop
//! load, with bounded memory and measurable tail latency.
//!
//! ```text
//!              ┌──────────── Server::builder().run(..) ─────────────────┐
//!  client ──► ServiceHandle::submit ──► BoundedQueue ──► replica workers │
//!    ▲             │ shed when full       (MPMC,          (one warm      │
//!    │             ▼                       bounded)        session each) │
//!    └── Ticket::wait ◄───────── response slots ◄──────────────┘         │
//!              └────────────── Telemetry (lock-free) ────────────────────┘
//! ```
//!
//! The pieces, each its own module:
//!
//! - [`queue`]: bounded MPMC admission queue — producers shed instead of
//!   blocking, consumers pop dynamic batches (flush on `max_batch` or
//!   `max_delay`), close-and-drain shutdown.
//! - [`server`]: [`Server::builder`], the one entry point — sizing,
//!   health and tracing configuration with a typed
//!   [`validate`](ServerBuilder::validate), launched by
//!   [`run`](ServerBuilder::run) or
//!   [`run_resilient`](ServerBuilder::run_resilient).
//! - [`service`]: the serving core behind every entry point — N replica
//!   threads each owning one warm
//!   [`InferenceSession`](forms_exec::InferenceSession) over the *shared*
//!   mapped engines; requests carry deadlines (expired ⇒ rejected, not
//!   executed) and cancellation; a panicking engine fails its batch and
//!   the replica recovers.
//! - [`telemetry`]: lock-free outcome counters and a log-bucketed latency
//!   histogram with p50/p95/p99 extraction.
//! - [`paced`]: [`PacedEngine`] gives every MVM a modeled device-occupancy
//!   latency, so replica scaling measures the serving layer rather than
//!   host-core count.
//! - [`loadgen`]: seeded open-loop Poisson load generator
//!   ([`run_open_loop`]) built on `forms-workloads` request traces.
//! - [`json`]: the workspace's minimal JSON tree ([`json::JsonValue`],
//!   [`json::parse`]) — hosted here so telemetry snapshots render
//!   themselves and the `forms-net` metrics frame / bench report writers
//!   share one schema.
//! - [`health`]: the policed mode behind
//!   [`run_resilient`](ServerBuilder::run_resilient) — every replica runs
//!   the same core loop over its own executor clone, polices its fault
//!   density and output sentinels against a [`HealthPolicy`], rebuilds
//!   from the pristine mapping with exponential backoff, and quarantines
//!   when recovery keeps failing; clients inject seeded fault campaigns
//!   per replica through a [`FaultInjector`].
//!
//! # Example
//!
//! ```
//! use forms_serve::{ServeConfig, Server};
//! # use forms_exec::Executor;
//! # let mut rng = forms_rng::StdRng::seed_from_u64(0);
//! # let mut net = forms_dnn::Network::new(vec![
//! #     forms_dnn::Layer::flatten(),
//! #     forms_dnn::Layer::linear(&mut rng, 16, 4),
//! # ]);
//! # // All-positive weights are trivially fragment-polarized.
//! # net.for_each_weight_layer(&mut |wl| {
//! #     if let forms_dnn::WeightLayerMut::Linear(l) = wl {
//! #         l.set_weight_matrix(&forms_tensor::Tensor::from_fn(&[16, 4], |i| {
//! #             0.05 + (i % 9) as f32 * 0.1
//! #         }));
//! #     }
//! # });
//! # let exec = Executor::<forms_arch::MappedLayer>::map_network(
//! #     &net, &forms_arch::MappingConfig::paper(8), 16).unwrap();
//! let config = ServeConfig { replicas: 2, ..ServeConfig::default() };
//! let (result, telemetry) = Server::builder()
//!     .config(config)
//!     .run(&exec, &[1, 4, 4], |handle| {
//!         let ticket = handle.submit(vec![0.5; 16]).unwrap();
//!         ticket.wait().unwrap().output
//!     });
//! assert_eq!(result.len(), 4);
//! assert_eq!(telemetry.completed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod health;
pub mod json;
pub mod loadgen;
pub mod paced;
pub mod queue;
pub mod server;
pub mod service;
pub mod telemetry;
pub mod trace;

pub use health::{FaultInjector, HealthPolicy};
pub use loadgen::{run_open_loop, LoadReport, OpenLoopSpec};
pub use paced::{PacedConfig, PacedEngine, PacedScratch};
pub use queue::{BoundedQueue, PopWait, PushError};
pub use server::{ConfigError, Server, ServerBuilder};
pub use service::{Response, ServeConfig, ServeError, ServiceHandle, Ticket};
pub use telemetry::{
    LayerAttribution, StageSnapshots, Telemetry, TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION,
};
pub use trace::{
    EventRecord, SpanRecord, StageDurations, TerminalKind, TraceConfig, STAGE_COUNT, STAGE_NAMES,
};
