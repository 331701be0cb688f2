//! One front door for every serving mode: the [`Server`] builder.
//!
//! The builder is the only way to start a service. It is the one place to
//! set the [`ServeConfig`], an optional [`HealthPolicy`] for fault-tolerant
//! serving, and the [`TraceConfig`] governing request-lifecycle tracing,
//! with a [`validate`](ServerBuilder::validate) that rejects contradictory
//! settings *before* any replica thread spawns. It launches in one of four
//! modes: [`run`](ServerBuilder::run) and
//! [`run_resilient`](ServerBuilder::run_resilient) here, plus `run_net`
//! and `run_net_resilient` added by `forms-net`'s `NetServerExt`. All four
//! share one serving core.
//!
//! ```
//! use forms_serve::{Server, ServeConfig};
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
//! let builder = Server::builder().config(ServeConfig {
//!     replicas: 2,
//!     ..ServeConfig::default()
//! });
//! builder.validate().unwrap();
//! let (out, telemetry) = builder.run(&exec, &[1, 4, 4], |handle| {
//!     handle.submit(vec![0.5; 16]).unwrap().wait().unwrap().output
//! });
//! assert_eq!(out.len(), 4);
//! assert_eq!(telemetry.completed, 1);
//! assert_eq!(telemetry.stages.execute.count, 1);
//! ```

use forms_exec::{CrossbarEngine, Executor, FaultableEngine};

use crate::health::{FaultInjector, HealthPolicy, Policing};
use crate::service::{serve_core, ServeConfig, ServiceHandle};
use crate::telemetry::TelemetrySnapshot;
use crate::trace::TraceConfig;

/// Namespace for the unified serving entry point; see [`Server::builder`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Starts building a service: defaults everywhere, then chain
    /// [`config`](ServerBuilder::config), [`health`](ServerBuilder::health)
    /// and [`trace`](ServerBuilder::trace) before
    /// [`run`](ServerBuilder::run) /
    /// [`run_resilient`](ServerBuilder::run_resilient).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            serve: ServeConfig::default(),
            health: None,
            trace: TraceConfig::default(),
        }
    }
}

/// Accumulates serving, health and tracing configuration, then launches
/// the service in whichever mode fits: [`run`](Self::run) for plain
/// serving, [`run_resilient`](Self::run_resilient) for health-policed
/// serving (the network-facing modes are added by `forms-net` through an
/// extension trait).
#[derive(Clone, Debug, Default)]
pub struct ServerBuilder {
    serve: ServeConfig,
    health: Option<HealthPolicy>,
    trace: TraceConfig,
}

/// A contradiction or impossibility in the assembled configuration,
/// reported by [`ServerBuilder::validate`] before any thread spawns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `replicas` is zero — nothing would ever pop the queue.
    ZeroReplicas,
    /// `queue_capacity` is zero — every submission would be shed.
    ZeroQueueCapacity,
    /// `max_batch` is zero — a replica could never form a batch.
    ZeroBatch,
    /// The health policy's `backoff_multiplier` is below 1.0, so backoff
    /// would shrink under repeated failures.
    ShrinkingBackoff {
        /// The offending multiplier.
        multiplier: f64,
    },
    /// The health policy's `max_fault_density` is negative, NaN or
    /// infinite.
    BadFaultDensity {
        /// The offending density threshold.
        density: f64,
    },
    /// The health policy's largest backoff,
    /// `backoff × backoff_multiplier^max_rebuilds`, is not a finite,
    /// representable `Duration`, so a recovering replica would panic.
    UnboundedBackoff {
        /// The offending multiplier.
        multiplier: f64,
        /// The rebuild budget it compounds over.
        max_rebuilds: u32,
    },
    /// The default deadline is not longer than the batching straggler
    /// window, so every request submitted under the default would expire
    /// while its batch was still forming.
    DeadlineWithinBatchWindow {
        /// The configured default deadline, in nanoseconds.
        deadline_ns: u128,
        /// The configured `max_delay`, in nanoseconds.
        max_delay_ns: u128,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroReplicas => write!(f, "replicas must be positive"),
            Self::ZeroQueueCapacity => write!(f, "queue capacity must be positive"),
            Self::ZeroBatch => write!(f, "max batch must be positive"),
            Self::ShrinkingBackoff { multiplier } => {
                write!(
                    f,
                    "backoff multiplier {multiplier} would shrink the backoff"
                )
            }
            Self::BadFaultDensity { density } => {
                write!(
                    f,
                    "fault-density threshold {density} is not a finite fraction"
                )
            }
            Self::UnboundedBackoff {
                multiplier,
                max_rebuilds,
            } => write!(
                f,
                "backoff multiplier {multiplier} over {max_rebuilds} rebuilds grows the \
                 backoff past any representable duration"
            ),
            Self::DeadlineWithinBatchWindow {
                deadline_ns,
                max_delay_ns,
            } => write!(
                f,
                "default deadline {deadline_ns}ns cannot be met: batches may wait \
                 {max_delay_ns}ns for stragglers before executing"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServerBuilder {
    /// Sets the sizing/batching policy (replicas, queue bound, batching
    /// window, default deadline).
    #[must_use]
    pub fn config(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the health policy of the policed modes,
    /// [`run_resilient`](Self::run_resilient) and `forms-net`'s
    /// `run_net_resilient`, which use the default policy when none is set.
    /// The plain modes, [`run`](Self::run) and `run_net`, police nothing.
    #[must_use]
    pub fn health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Sets the request-lifecycle tracing configuration (event-ring and
    /// slowest-span capacities). Zero capacities disable event capture;
    /// per-stage histograms are always on.
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Rejects impossible or contradictory configurations with a typed
    /// error, checking strictly more than the `run*` entry points assert:
    /// `run` only refuses configs that would wedge (zero replicas/batch),
    /// while `validate` also catches settings that are legal but can never
    /// serve a request usefully (e.g. a default deadline shorter than the
    /// batching straggler window).
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.serve.replicas == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        if self.serve.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.serve.max_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if let Some(deadline) = self.serve.default_deadline {
            if deadline <= self.serve.max_delay {
                return Err(ConfigError::DeadlineWithinBatchWindow {
                    deadline_ns: deadline.as_nanos(),
                    max_delay_ns: self.serve.max_delay.as_nanos(),
                });
            }
        }
        match &self.health {
            Some(policy) => policy.check(),
            None => Ok(()),
        }
    }

    /// Runs a plain multi-replica service around `executor` for the
    /// duration of `client`, then drains and joins every replica.
    ///
    /// Replicas share `executor`'s mapped engines, each through its own
    /// warm session. `sample_dims` is the per-sample input shape (without
    /// the batch dimension), e.g. `[1, 8, 8]` for an 8×8 single-channel
    /// image or `[1152]` for a lowered linear layer. Returns the client's
    /// result and the final telemetry snapshot after all replicas have
    /// drained.
    ///
    /// Shutdown is graceful: when `client` returns, the queue closes (new
    /// submissions fail with
    /// [`ServeError::ShuttingDown`](crate::ServeError::ShuttingDown)) but
    /// every already-admitted request is still executed or rejected
    /// before `run` returns. Any health policy on the builder is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `replicas`, `queue_capacity` or `max_batch` is zero, or
    /// if `sample_dims` is empty.
    pub fn run<E, R>(
        &self,
        executor: &Executor<E>,
        sample_dims: &[usize],
        client: impl FnOnce(&ServiceHandle) -> R,
    ) -> (R, TelemetrySnapshot)
    where
        E: CrossbarEngine,
        E::Stats: Sync,
    {
        serve_core(
            executor,
            sample_dims,
            &self.serve,
            &self.trace,
            None,
            client,
        )
    }

    /// Runs a health-policed service around per-replica clones of
    /// `pristine` for the duration of `client`.
    ///
    /// Same contract as [`run`](Self::run) — bounded admission, dynamic
    /// batching, graceful close-and-drain shutdown, every admitted ticket
    /// resolves — plus the health monitoring described in
    /// [`crate::health`], under the builder's health policy or
    /// [`HealthPolicy::default`] when none was set. The client closure
    /// additionally receives a [`FaultInjector`].
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run), plus a health policy that
    /// [`validate`](Self::validate) rejects.
    pub fn run_resilient<E, R>(
        &self,
        pristine: &Executor<E>,
        sample_dims: &[usize],
        client: impl FnOnce(&ServiceHandle, &FaultInjector<'_>) -> R,
    ) -> (R, TelemetrySnapshot)
    where
        E: FaultableEngine,
        E::Stats: Sync,
    {
        let policing = Policing::new(
            self.health.unwrap_or_default(),
            self.serve.replicas,
            Executor::inject_faults,
        );
        let injector = policing.injector();
        serve_core(
            pristine,
            sample_dims,
            &self.serve,
            &self.trace,
            Some(&policing),
            |handle| client(handle, &injector),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn validate_accepts_defaults_and_rejects_contradictions() {
        assert_eq!(Server::builder().validate(), Ok(()));
        let zero = |f: fn(&mut ServeConfig)| {
            let mut c = ServeConfig::default();
            f(&mut c);
            Server::builder().config(c).validate()
        };
        assert_eq!(zero(|c| c.replicas = 0), Err(ConfigError::ZeroReplicas));
        assert_eq!(
            zero(|c| c.queue_capacity = 0),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(zero(|c| c.max_batch = 0), Err(ConfigError::ZeroBatch));
        // A default deadline inside the straggler window can never be met.
        let contradictory = ServeConfig {
            max_delay: Duration::from_millis(5),
            default_deadline: Some(Duration::from_millis(2)),
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::builder().config(contradictory).validate(),
            Err(ConfigError::DeadlineWithinBatchWindow { .. })
        ));
        // An explicit per-request deadline path is unaffected: only the
        // *default* deadline is checked against the window.
        let explicit_only = ServeConfig {
            max_delay: Duration::from_millis(5),
            default_deadline: None,
            ..ServeConfig::default()
        };
        assert_eq!(Server::builder().config(explicit_only).validate(), Ok(()));
        // Malformed health policies are typed errors instead of panics.
        let shrink = HealthPolicy {
            backoff_multiplier: 0.5,
            ..HealthPolicy::default()
        };
        assert!(matches!(
            Server::builder().health(shrink).validate(),
            Err(ConfigError::ShrinkingBackoff { .. })
        ));
        for density in [-0.1, f64::NAN, f64::INFINITY] {
            let bad = HealthPolicy {
                max_fault_density: density,
                ..HealthPolicy::default()
            };
            assert!(matches!(
                Server::builder().health(bad).validate(),
                Err(ConfigError::BadFaultDensity { .. })
            ));
        }
    }

    #[test]
    fn validate_rejects_backoff_that_outgrows_duration() {
        let policy = |backoff_multiplier, max_rebuilds| HealthPolicy {
            backoff_multiplier,
            max_rebuilds,
            ..HealthPolicy::default()
        };
        for bad in [
            policy(f64::INFINITY, 1),
            policy(f64::NAN, 1),
            policy(1e300, 1),
            policy(1e10, 3),
            // Zero backoff times an infinite multiplier is NaN, not zero.
            HealthPolicy {
                backoff: Duration::ZERO,
                ..policy(f64::INFINITY, 2)
            },
        ] {
            assert!(
                matches!(
                    Server::builder().health(bad).validate(),
                    Err(ConfigError::UnboundedBackoff { .. })
                ),
                "{bad:?}"
            );
        }
        // Large but representable, or never compounded, is fine.
        for good in [
            policy(1e3, 3),
            policy(f64::INFINITY, 0),
            policy(1.0, u32::MAX),
        ] {
            assert_eq!(
                Server::builder().health(good).validate(),
                Ok(()),
                "{good:?}"
            );
        }
    }

    #[test]
    fn config_errors_render_useful_messages() {
        let e = ConfigError::DeadlineWithinBatchWindow {
            deadline_ns: 1_000,
            max_delay_ns: 2_000_000,
        };
        let msg = e.to_string();
        assert!(msg.contains("1000ns"), "{msg}");
        assert!(msg.contains("stragglers"), "{msg}");
    }
}
