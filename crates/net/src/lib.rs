//! # forms-net
//!
//! A std-only TCP front-end for the `forms-serve` inference layer: the
//! subsystem that turns an in-process service into a network service a
//! load generator (or another process) can drive over real sockets.
//!
//! ```text
//!  NetClient ──frames──► TcpListener ──► reader/writer per connection
//!     │                                     │ bounded in-flight window
//!     ▼                                     ▼
//!  NetReply ◄──frames── BufWriter ◄── ServiceHandle (forms-serve)
//! ```
//!
//! The pieces, each its own module:
//!
//! - [`protocol`]: the length-prefixed, versioned binary wire format —
//!   [`Frame`], [`WireStatus`] (one code per
//!   [`ServeError`](forms_serve::ServeError) variant), and a *total*
//!   decoder: arbitrary bytes yield a typed [`WireError`], never a panic.
//! - [`server`]: [`NetServerExt`] adds
//!   [`run_net`](NetServerExt::run_net) to `forms-serve`'s
//!   [`ServerBuilder`](forms_serve::ServerBuilder): it binds a blocking
//!   listener and multiplexes N connections onto one admission queue under
//!   `std::thread::scope`; per-connection reader/writer threads with a
//!   bounded in-flight window for backpressure; rejections return as wire
//!   statuses on the live connection; shutdown drains in-flight requests
//!   before the listener closes.
//!   [`run_net_resilient`](NetServerExt::run_net_resilient) is the
//!   fault-tolerant sibling.
//! - [`client`]: [`NetClient`] — pipelined requests, per-request
//!   timeouts, reconnect-with-backoff, a telemetry fetch that parses the
//!   server's [`TelemetrySnapshot`](forms_serve::TelemetrySnapshot) JSON
//!   frame, and a [`split`](NetClient::split) sender/receiver pair for
//!   open-loop load generation.
//!
//! Everything is `std`-only and blocking: no async runtime, no external
//! crates, deterministic teardown via scoped threads and drop guards.
//!
//! # Example
//!
//! ```
//! use forms_net::{ClientConfig, NetClient, NetConfig, NetServerExt};
//! use forms_serve::Server;
//! # use forms_exec::Executor;
//! # let mut rng = forms_rng::StdRng::seed_from_u64(0);
//! # let mut net = forms_dnn::Network::new(vec![
//! #     forms_dnn::Layer::flatten(),
//! #     forms_dnn::Layer::linear(&mut rng, 16, 4),
//! # ]);
//! # net.for_each_weight_layer(&mut |wl| {
//! #     if let forms_dnn::WeightLayerMut::Linear(l) = wl {
//! #         l.set_weight_matrix(&forms_tensor::Tensor::from_fn(&[16, 4], |i| {
//! #             0.05 + (i % 9) as f32 * 0.1
//! #         }));
//! #     }
//! # });
//! # let exec = Executor::<forms_arch::MappedLayer>::map_network(
//! #     &net, &forms_arch::MappingConfig::paper(8), 16).unwrap();
//! let ((), telemetry) = Server::builder()
//!     .run_net(&exec, &[1, 4, 4], &NetConfig::default(), |net| {
//!         let addr = net.addr();
//!         std::thread::scope(|s| {
//!             s.spawn(move || {
//!                 let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
//!                 let reply = client.call(&[0.5; 16], None).unwrap();
//!                 assert_eq!(reply.outcome.unwrap().len(), 4);
//!             });
//!         });
//!     })
//!     .unwrap();
//! assert_eq!(telemetry.completed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientConfig, ClientError, NetClient, NetReceiver, NetReply, NetSender};
pub use protocol::{Frame, FrameKind, WireError, WireStatus};
pub use server::{NetConfig, NetConfigError, NetHandle, NetServerExt};
