//! A device-latency pacing wrapper around any [`CrossbarEngine`].
//!
//! The serving benches must measure the *serving layer* — queueing,
//! batching, replica overlap — not the host CPU. A real deployment runs one
//! accelerator device per replica, so while one replica's crossbars
//! integrate, the other replicas' devices are busy in parallel regardless
//! of how many host cores drive them. [`PacedEngine`] models that: every
//! MVM takes at least a configured device latency, so a `k`-column kernel
//! call occupies the device for `k` latencies (the host computes the
//! result, then sleeps out the remainder of the device's occupancy
//! window). Replica throughput then scales with the number of modeled
//! devices, exactly as it would with physical hardware, even on a
//! single-core host.
//!
//! Pacing is against an *absolute* per-scratch deadline, not per-call
//! elapsed time: a call's occupancy window ends at
//! `max(now, previous window end) + columns × latency`, and the wait
//! sleeps the bulk then spins the final stretch so the deadline is met to
//! microseconds. Sleeping out a per-call remainder instead added the
//! sleep's overshoot (OS timer quantum, wakeup jitter — around a
//! millisecond) to every MVM, so sustained throughput drifted far below
//! the modeled `1/latency` and the error compounded with request count.

use std::time::{Duration, Instant};

use forms_exec::{
    CrossbarEngine, EngineHealth, ExecError, FaultCampaign, FaultReport, FaultableEngine,
};
use forms_tensor::Tensor;

/// Configuration for a paced engine: the wrapped engine's config plus the
/// modeled per-MVM device latency.
#[derive(Clone, Debug)]
pub struct PacedConfig<C> {
    /// Configuration forwarded to the wrapped engine.
    pub inner: C,
    /// Minimum wall-clock duration of one MVM (device occupancy window).
    pub latency: Duration,
}

/// A [`CrossbarEngine`] whose every MVM takes at least a fixed wall-clock
/// latency, modeling one attached accelerator device per replica.
///
/// Numerical results, statistics and crossbar counts are exactly those of
/// the wrapped engine — only timing changes.
#[derive(Clone, Debug)]
pub struct PacedEngine<E> {
    inner: E,
    latency: Duration,
}

impl<E> PacedEngine<E> {
    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The modeled per-MVM device latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

/// Scratch of a [`PacedEngine`]: the wrapped engine's scratch plus the
/// absolute end of the last modeled occupancy window.
///
/// The deadline lives in the scratch — not the engine — because one mapped
/// engine is shared immutably across replica threads, each modeling its
/// *own* device; per-engine state would serialize replicas that own
/// separate devices.
#[derive(Debug, Default)]
pub struct PacedScratch<S> {
    inner: S,
    next_free: Option<Instant>,
}

impl<E: CrossbarEngine> CrossbarEngine for PacedEngine<E> {
    type Config = PacedConfig<E::Config>;
    type Stats = E::Stats;
    type Scratch = PacedScratch<E::Scratch>;

    fn map_matrix(matrix: &Tensor, config: &Self::Config) -> Result<Self, ExecError> {
        Ok(Self {
            inner: E::map_matrix(matrix, &config.inner)?,
            latency: config.latency,
        })
    }

    fn output_len(&self) -> usize {
        self.inner.output_len()
    }

    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut Self::Scratch,
        outs: &mut [f32],
    ) -> Self::Stats {
        let start = Instant::now();
        let stats = self
            .inner
            .matmul_into(batch_codes, scales, &mut scratch.inner, outs);
        // This call occupies the device for one latency per column, in a
        // window that starts at the later of "now" and the previous
        // window's end: back-to-back calls chain off the absolute schedule
        // (sleep overshoot is absorbed by the next window), while an idle
        // gap restarts the schedule from the current instant.
        let window_start = match scratch.next_free {
            Some(next_free) if next_free > start => next_free,
            _ => start,
        };
        let columns = u32::try_from(scales.len()).unwrap_or(u32::MAX);
        let target = window_start + self.latency * columns;
        scratch.next_free = Some(target);
        wait_until(target);
        stats
    }

    fn crossbar_count(&self) -> usize {
        self.inner.crossbar_count()
    }

    fn mean_input_cycles(stats: &Self::Stats) -> Option<f64> {
        E::mean_input_cycles(stats)
    }

    fn max_input_cycles(config: &Self::Config) -> f64 {
        E::max_input_cycles(&config.inner)
    }

    fn precision_of(config: &Self::Config) -> forms_exec::LayerPrecision {
        E::precision_of(&config.inner)
    }

    fn with_precision(
        config: &Self::Config,
        precision: forms_exec::LayerPrecision,
    ) -> Self::Config {
        PacedConfig {
            inner: E::with_precision(&config.inner, precision),
            latency: config.latency,
        }
    }

    fn health(&self) -> EngineHealth {
        self.inner.health()
    }

    fn output_ceiling(&self) -> Option<f64> {
        self.inner.output_ceiling()
    }
}

impl<E: FaultableEngine> FaultableEngine for PacedEngine<E> {
    fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        self.inner.inject_faults(campaign, salt)
    }
}

/// OS sleeps overshoot by up to a timer quantum (≈1 ms on this class of
/// host) — far more than a sub-millisecond device latency. Sleep only
/// while more than this window remains, then spin out the tail, so the
/// deadline is met to microseconds instead of drifting a quantum per MVM.
const SPIN_WINDOW: Duration = Duration::from_millis(2);

/// Blocks until `target`, sleeping the bulk and spinning the last
/// [`SPIN_WINDOW`].
fn wait_until(target: Instant) {
    while let Some(remaining) = target.checked_duration_since(Instant::now()) {
        if remaining.is_zero() {
            break;
        }
        if remaining > SPIN_WINDOW {
            std::thread::sleep(remaining - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_exec::Merge;

    /// A free-running engine: zero compute, so elapsed time is pure pacing.
    #[derive(Clone, Debug)]
    struct Instant1x1;

    #[derive(Clone, Copy, Debug, Default)]
    struct NoStats;
    impl Merge for NoStats {
        fn merge(&mut self, _: Self) {}
    }

    impl CrossbarEngine for Instant1x1 {
        type Config = ();
        type Stats = NoStats;
        type Scratch = ();

        fn map_matrix(_: &Tensor, _: &()) -> Result<Self, ExecError> {
            Ok(Self)
        }
        fn output_len(&self) -> usize {
            1
        }
        fn matmul_into(&self, _: &[u32], _: &[f32], _: &mut (), outs: &mut [f32]) -> NoStats {
            outs.fill(0.0);
            NoStats
        }
        fn crossbar_count(&self) -> usize {
            1
        }
        fn mean_input_cycles(_: &NoStats) -> Option<f64> {
            None
        }
        fn max_input_cycles(_: &()) -> f64 {
            1.0
        }
        fn precision_of(_: &()) -> forms_exec::LayerPrecision {
            forms_exec::LayerPrecision::new(32, 16)
        }
        fn with_precision(_: &(), _: forms_exec::LayerPrecision) {}
    }

    /// `Executor::map_network` maps every layer with
    /// `with_precision(config, precision_of(config))`, so pacing must
    /// forward the inner configuration and keep the latency.
    #[test]
    fn precision_round_trip_is_identity() {
        type Paced = PacedEngine<forms_arch::MappedLayer>;
        let config = PacedConfig {
            inner: forms_arch::MappingConfig::paper(8),
            latency: Duration::from_micros(7),
        };
        let back = Paced::with_precision(&config, Paced::precision_of(&config));
        assert_eq!(back.inner, config.inner);
        assert_eq!(back.latency, config.latency);
    }

    #[test]
    fn sustained_rate_tracks_the_modeled_latency_without_drift() {
        let latency = Duration::from_micros(500);
        let config = PacedConfig { inner: (), latency };
        let engine =
            PacedEngine::<Instant1x1>::map_matrix(&Tensor::ones(&[1, 1]), &config).expect("map");
        let mut scratch = PacedScratch::default();
        let mut out = [0.0f32];
        let k = 50u32;
        let start = Instant::now();
        for _ in 0..k {
            engine.matmul_into(&[1], &[1.0], &mut scratch, &mut out);
        }
        let elapsed = start.elapsed();
        let modeled = latency * k;
        assert!(elapsed >= modeled, "paced below device rate: {elapsed:?}");
        // Per-call remainder sleeping accumulated the OS sleep overshoot
        // (tens of µs each on a 500 µs budget) into >25% drift over 50
        // calls; the absolute schedule only pays the final call's
        // overshoot.
        let ceiling = modeled.mul_f64(1.25) + Duration::from_millis(5);
        assert!(
            elapsed <= ceiling,
            "sustained rate drifted: {elapsed:?} for modeled {modeled:?}"
        );
    }

    #[test]
    fn idle_gaps_restart_the_schedule_instead_of_back_crediting() {
        let latency = Duration::from_micros(200);
        let config = PacedConfig { inner: (), latency };
        let engine =
            PacedEngine::<Instant1x1>::map_matrix(&Tensor::ones(&[1, 1]), &config).expect("map");
        let mut scratch = PacedScratch::default();
        let mut out = [0.0f32];
        engine.matmul_into(&[1], &[1.0], &mut scratch, &mut out);
        // A long idle gap must not bank credit for free MVMs afterwards.
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        engine.matmul_into(&[1], &[1.0], &mut scratch, &mut out);
        assert!(start.elapsed() >= latency, "idle credit leaked into pacing");
    }

    #[test]
    fn a_k_column_call_occupies_k_latencies() {
        let latency = Duration::from_micros(500);
        let config = PacedConfig { inner: (), latency };
        let engine =
            PacedEngine::<Instant1x1>::map_matrix(&Tensor::ones(&[1, 1]), &config).expect("map");
        let mut scratch = PacedScratch::default();
        let k = 40u32;
        let codes = vec![1u32; k as usize];
        let scales = vec![1.0f32; k as usize];
        let mut out = vec![0.0f32; k as usize];
        let start = Instant::now();
        engine.matmul_into(&codes, &scales, &mut scratch, &mut out);
        let elapsed = start.elapsed();
        let modeled = latency * k;
        assert!(elapsed >= modeled, "paced below device rate: {elapsed:?}");
        let ceiling = modeled.mul_f64(1.25) + Duration::from_millis(5);
        assert!(
            elapsed <= ceiling,
            "one {k}-column call took {elapsed:?} for modeled {modeled:?}"
        );
    }
}
