//! Fault-tolerant serving: replica health monitoring, quarantine, and
//! per-replica fault injection.
//!
//! [`run_resilient`](crate::ServerBuilder::run_resilient) serves under a
//! [`HealthPolicy`]. It runs the same replica loop as plain
//! [`run`](crate::ServerBuilder::run), with two differences. Every
//! replica *owns* a clone of the pristine executor, so faults injected
//! into one replica's crossbars cannot leak into another's. And each
//! replica polices itself against the policy:
//!
//! - **Fault density** — when the fraction of known-faulted cells
//!   (engine [`health`](forms_exec::CrossbarEngine::health)) exceeds
//!   `max_fault_density`, the replica refuses to serve.
//! - **Output sentinels** — when a batch trips the executor's
//!   output-range sentinel (an output past the pristine mapping's nominal
//!   ceiling, which clean silicon cannot produce), the whole batch is
//!   refused with [`ServeError::Degraded`](crate::ServeError::Degraded)
//!   *before any slot is filled*, so a corrupted result is never returned
//!   to a client.
//!
//! An unhealthy replica drains, sleeps an exponential backoff, rebuilds
//! its executor from the pristine mapping, and re-applies any *persistent*
//! poison (modeling permanently bad silicon). After `max_rebuilds`
//! consecutive failed recoveries it is **quarantined**: the thread exits
//! and the remaining replicas absorb the load. If the *last* replica
//! quarantines, it drains the queue failing every request with
//! `Degraded` so no ticket can hang. Rebuilds, quarantines, degraded
//! requests and injected campaigns are all counted in
//! [`Telemetry`].
//!
//! Fault delivery is asynchronous and replica-targeted: the client closure
//! receives a [`FaultInjector`] whose campaigns land in a per-replica
//! mailbox, applied by the replica itself between batches (injection needs
//! `&mut` access to the replica's engines, which the serving session
//! borrows).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use forms_exec::{CrossbarEngine, Executor, FaultCampaign, FaultReport};

use crate::server::ConfigError;
use crate::telemetry::Telemetry;

/// When a replica must refuse to serve and how hard it tries to recover.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Largest tolerated fraction of known-faulted cells before the
    /// replica is considered unhealthy.
    pub max_fault_density: f64,
    /// Consecutive failed recoveries before the replica is quarantined.
    pub max_rebuilds: u32,
    /// Sleep before the first rebuild attempt.
    pub backoff: Duration,
    /// Growth factor of the backoff after every consecutive rebuild
    /// (`>= 1.0`, and small enough that the largest backoff,
    /// `backoff × backoff_multiplier^max_rebuilds`, is a finite
    /// [`Duration`]).
    pub backoff_multiplier: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            max_fault_density: 0.05,
            max_rebuilds: 2,
            backoff: Duration::from_micros(200),
            backoff_multiplier: 2.0,
        }
    }
}

impl HealthPolicy {
    /// The policy checks shared by
    /// [`validate`](crate::ServerBuilder::validate) and the policed
    /// serving core's assert.
    pub(crate) fn check(&self) -> Result<(), ConfigError> {
        if self.backoff_multiplier < 1.0 {
            return Err(ConfigError::ShrinkingBackoff {
                multiplier: self.backoff_multiplier,
            });
        }
        if !self.max_fault_density.is_finite() || self.max_fault_density < 0.0 {
            return Err(ConfigError::BadFaultDensity {
                density: self.max_fault_density,
            });
        }
        // The last permitted rebuild grows the backoff to this value;
        // `Duration::mul_f64` panics if it is not representable.
        let largest =
            self.backoff.as_secs_f64() * self.backoff_multiplier.powf(f64::from(self.max_rebuilds));
        if Duration::try_from_secs_f64(largest).is_err() {
            return Err(ConfigError::UnboundedBackoff {
                multiplier: self.backoff_multiplier,
                max_rebuilds: self.max_rebuilds,
            });
        }
        Ok(())
    }
}

/// Per-replica fault delivery box. Campaigns wait here until the owning
/// replica is between batches and can take `&mut` access to its engines.
#[derive(Debug, Default)]
struct ReplicaMailbox {
    /// Cheap "anything waiting?" flag checked on the hot path.
    has_pending: AtomicBool,
    /// Campaigns to apply once, in delivery order.
    pending: Mutex<Vec<FaultCampaign>>,
    /// Campaign re-applied after every rebuild — permanently bad silicon,
    /// as opposed to a transient upset that a rebuild clears.
    persistent: Mutex<Option<FaultCampaign>>,
}

impl ReplicaMailbox {
    fn deliver(&self, campaign: FaultCampaign) {
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(campaign);
        self.has_pending.store(true, Ordering::Release);
    }

    fn persistent(&self) -> Option<FaultCampaign> {
        *self.persistent.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The client's handle for injecting faults into a running resilient
/// service, replica by replica.
#[derive(Debug)]
pub struct FaultInjector<'a> {
    mailboxes: &'a [ReplicaMailbox],
}

impl FaultInjector<'_> {
    /// Number of replicas faults can be addressed to.
    pub fn replicas(&self) -> usize {
        self.mailboxes.len()
    }

    /// Delivers `campaign` to `replica` once: it is applied to the
    /// replica's current crossbars before its next batch, and is *not*
    /// re-applied after a rebuild (a transient upset).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn inject(&self, replica: usize, campaign: FaultCampaign) {
        self.mailboxes[replica].deliver(campaign);
    }

    /// Marks `replica`'s silicon as permanently faulty: `campaign` is
    /// applied now *and* re-applied after every rebuild, so recovery can
    /// only succeed if the policy tolerates the resulting fault density —
    /// otherwise the replica exhausts its rebuild budget and quarantines.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn poison(&self, replica: usize, campaign: FaultCampaign) {
        let mailbox = &self.mailboxes[replica];
        *mailbox.persistent.lock().unwrap_or_else(|e| e.into_inner()) = Some(campaign);
        mailbox.deliver(campaign);
    }
}

/// Applies a fault campaign to an executor. The policed entry points pass
/// `Executor::inject_faults`, so the shared replica loop itself needs no
/// `FaultableEngine` bound.
pub(crate) type InjectFn<E> = fn(&mut Executor<E>, &FaultCampaign, u64) -> FaultReport;

/// The health policing of one service, shared by all its replicas.
pub(crate) struct Policing<E: CrossbarEngine> {
    pub(crate) policy: HealthPolicy,
    mailboxes: Vec<ReplicaMailbox>,
    inject: InjectFn<E>,
    /// Replicas not yet quarantined.
    active: AtomicUsize,
}

impl<E: CrossbarEngine> Policing<E> {
    pub(crate) fn new(policy: HealthPolicy, replicas: usize, inject: InjectFn<E>) -> Self {
        Self {
            policy,
            mailboxes: (0..replicas).map(|_| ReplicaMailbox::default()).collect(),
            inject,
            active: AtomicUsize::new(replicas),
        }
    }

    /// The client's side of the mailboxes.
    pub(crate) fn injector(&self) -> FaultInjector<'_> {
        FaultInjector {
            mailboxes: &self.mailboxes,
        }
    }

    /// The recovery state of replica `replica`, before its first batch.
    pub(crate) fn replica(&self, replica: usize) -> ReplicaHealth<'_, E> {
        ReplicaHealth {
            policing: self,
            mailbox: &self.mailboxes[replica],
            salt: replica as u64,
            consecutive_rebuilds: 0,
            backoff: self.policy.backoff,
        }
    }
}

/// One replica's side of a [`Policing`]: its mailbox and its recovery
/// budget.
pub(crate) struct ReplicaHealth<'a, E: CrossbarEngine> {
    policing: &'a Policing<E>,
    mailbox: &'a ReplicaMailbox,
    /// Decorrelates this replica's injected faults from its peers': the
    /// same campaign poisons different cells on different replicas.
    salt: u64,
    consecutive_rebuilds: u32,
    backoff: Duration,
}

impl<E: CrossbarEngine> ReplicaHealth<'_, E> {
    /// Whether a campaign is waiting to be applied.
    pub(crate) fn has_mail(&self) -> bool {
        self.mailbox.has_pending.load(Ordering::Acquire)
    }

    /// Applies every campaign delivered since the last call.
    pub(crate) fn apply_mail(&self, executor: &mut Executor<E>, telemetry: &Telemetry) {
        if !self.mailbox.has_pending.swap(false, Ordering::AcqRel) {
            return;
        }
        let campaigns: Vec<FaultCampaign> = self
            .mailbox
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for campaign in campaigns {
            (self.policing.inject)(executor, &campaign, self.salt);
            telemetry.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether `executor` is over the policy's fault-density budget.
    pub(crate) fn over_budget(&self, executor: &Executor<E>) -> bool {
        executor.health().fault_density() > self.policing.policy.max_fault_density
    }

    /// The batch just served was healthy: restore the full rebuild budget.
    pub(crate) fn recovered(&mut self) {
        self.consecutive_rebuilds = 0;
        self.backoff = self.policing.policy.backoff;
    }

    /// Responds to one health violation: sleeps the backoff, rebuilds
    /// `executor` from `pristine` and re-applies any persistent poison
    /// (returns `true`), or quarantines the replica once its rebuild
    /// budget is spent (returns `false`).
    pub(crate) fn rebuild_or_quarantine(
        &mut self,
        executor: &mut Executor<E>,
        pristine: &Executor<E>,
        telemetry: &Telemetry,
    ) -> bool {
        let policy = &self.policing.policy;
        self.consecutive_rebuilds += 1;
        if self.consecutive_rebuilds > policy.max_rebuilds {
            telemetry.quarantines.fetch_add(1, Ordering::Relaxed);
            telemetry.record_quarantine_event();
            return false;
        }
        telemetry.rebuilds.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.backoff);
        self.backoff = self.backoff.mul_f64(policy.backoff_multiplier);
        executor.clone_from(pristine);
        if let Some(campaign) = self.mailbox.persistent() {
            (self.policing.inject)(executor, &campaign, self.salt);
            telemetry.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Retires this quarantined replica; returns whether it was the last
    /// active one, which must then drain the queue.
    pub(crate) fn retire(self) -> bool {
        self.policing.active.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, ServeError, Server};
    use forms_arch::{MappedLayer, MappingConfig};
    use forms_dnn::{Layer, Network, WeightLayerMut};
    use forms_tensor::Tensor as T;
    use std::time::Instant;

    fn polarized_executor() -> Executor<MappedLayer> {
        let mut rng = forms_rng::StdRng::seed_from_u64(0);
        let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, 16, 4)]);
        // All-positive weights are trivially fragment-polarized.
        net.for_each_weight_layer(&mut |wl| {
            if let WeightLayerMut::Linear(l) = wl {
                l.set_weight_matrix(&T::from_fn(&[16, 4], |i| 0.05 + (i % 9) as f32 * 0.1));
            }
        });
        let config = MappingConfig {
            crossbar_dim: 16,
            input_bits: 8,
            ..MappingConfig::paper(4)
        };
        Executor::map_network(&net, &config, 8).unwrap()
    }

    fn heavy_stuck() -> FaultCampaign {
        FaultCampaign::stuck_at(13, 0.25, 0.25)
    }

    fn replicas(replicas: usize) -> ServeConfig {
        ServeConfig {
            replicas,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthy_service_completes_without_recovery_events() {
        let exec = polarized_executor();
        let (outputs, telemetry) = Server::builder()
            .config(replicas(2))
            .health(HealthPolicy::default())
            .run_resilient(&exec, &[1, 4, 4], |handle, _| {
                let tickets: Vec<_> = (0..8)
                    .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| t.wait().unwrap().output)
                    .collect::<Vec<_>>()
            });
        assert_eq!(outputs.len(), 8);
        assert_eq!(telemetry.completed, 8);
        assert_eq!(telemetry.degraded, 0);
        assert_eq!(telemetry.rebuilds, 0);
        assert_eq!(telemetry.quarantines, 0);
    }

    #[test]
    fn poisoned_replica_quarantines_while_peer_keeps_serving() {
        let exec = polarized_executor();
        let policy = HealthPolicy {
            max_fault_density: 0.01,
            max_rebuilds: 1,
            backoff: Duration::from_micros(50),
            backoff_multiplier: 2.0,
        };
        let clean = {
            let mut probe = exec.clone();
            let x = T::from_vec(vec![0.5; 16], &[1, 1, 4, 4]);
            probe.forward(&x).into_vec()
        };
        let (outputs, telemetry) = Server::builder()
            .config(replicas(2))
            .health(policy)
            .run_resilient(&exec, &[1, 4, 4], |handle, faults| {
                faults.poison(0, heavy_stuck());
                // Give the poisoned replica time to notice and quarantine.
                std::thread::sleep(Duration::from_millis(20));
                let tickets: Vec<_> = (0..12)
                    .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                    .collect();
                tickets
                    .into_iter()
                    .filter_map(|t| t.wait().ok().map(|r| r.output))
                    .collect::<Vec<_>>()
            });
        assert_eq!(telemetry.quarantines, 1, "poisoned replica must drain");
        assert!(telemetry.rebuilds >= 1, "it must have tried to recover");
        assert!(telemetry.faults_injected >= 1);
        assert!(!outputs.is_empty(), "healthy replica keeps completing");
        // Zero corrupted responses: everything completed matches pristine.
        for out in &outputs {
            assert_eq!(out, &clean, "completed output must be uncorrupted");
        }
        assert_eq!(telemetry.completed, outputs.len() as u64);
    }

    #[test]
    fn last_replica_quarantine_fails_requests_instead_of_hanging() {
        let exec = polarized_executor();
        let policy = HealthPolicy {
            max_fault_density: 0.01,
            max_rebuilds: 0,
            backoff: Duration::from_micros(10),
            backoff_multiplier: 1.0,
        };
        let ((), telemetry) = Server::builder()
            .config(replicas(1))
            .health(policy)
            .run_resilient(&exec, &[1, 4, 4], |handle, faults| {
                faults.poison(0, heavy_stuck());
                std::thread::sleep(Duration::from_millis(10));
                // Every ticket must resolve even with all replicas gone.
                let tickets: Vec<_> = (0..6)
                    .map(|_| handle.submit(vec![0.5; 16]).unwrap())
                    .collect();
                for t in tickets {
                    match t.wait() {
                        Err(ServeError::Degraded) | Ok(_) => {}
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
            });
        assert_eq!(telemetry.quarantines, 1);
        assert!(telemetry.degraded > 0, "drained requests counted degraded");
    }

    #[test]
    fn transient_injection_recovers_after_rebuild() {
        let exec = polarized_executor();
        let policy = HealthPolicy {
            max_fault_density: 0.01,
            max_rebuilds: 5,
            backoff: Duration::from_micros(10),
            backoff_multiplier: 2.0,
        };
        let (out, telemetry) =
            Server::builder()
                .health(policy)
                .run_resilient(&exec, &[1, 4, 4], |handle, faults| {
                    // One-shot upset: the rebuild clears it, so the replica
                    // comes back healthy and keeps serving.
                    faults.inject(0, heavy_stuck());
                    std::thread::sleep(Duration::from_millis(10));
                    handle.submit(vec![0.5; 16]).unwrap().wait().unwrap().output
                });
        assert_eq!(out.len(), 4);
        assert_eq!(telemetry.quarantines, 0, "transient fault must not kill");
        assert!(telemetry.rebuilds >= 1);
        assert_eq!(telemetry.completed, 1);
    }

    #[test]
    fn unrepresentable_backoff_panics_before_serving() {
        // A poisoned lone replica rebuilds at once; with an infinite
        // multiplier its first rebuild used to panic the replica thread
        // and leave the ticket unresolved forever.
        let exec = polarized_executor();
        let policy = HealthPolicy {
            max_fault_density: 0.01,
            max_rebuilds: 1,
            backoff: Duration::from_micros(10),
            backoff_multiplier: f64::INFINITY,
        };
        let client_ran = AtomicBool::new(false);
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Server::builder()
                .config(replicas(1))
                .health(policy)
                .run_resilient(&exec, &[1, 4, 4], |handle, faults| {
                    client_ran.store(true, Ordering::SeqCst);
                    faults.poison(0, heavy_stuck());
                    let ticket = handle.submit(vec![0.5; 16]).unwrap();
                    // Poll rather than wait, so a regression fails here
                    // instead of hanging the suite.
                    let start = Instant::now();
                    while !ticket.is_done() {
                        assert!(start.elapsed() < Duration::from_secs(5), "ticket hung");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
        }));
        let panic = served.expect_err("the policy must be refused");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("backoff"), "{message}");
        assert!(!client_ran.load(Ordering::SeqCst), "refused before serving");
    }
}
