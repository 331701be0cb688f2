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
//! elapsed time: a call that arrives less than one latency after the
//! previous occupancy window ended chains its window onto that end, a
//! later call starts a new schedule at its own arrival, and either way the
//! window lasts `columns × latency`. The wait sleeps the bulk then spins
//! the final stretch so the deadline is met to microseconds. A wait can
//! still return late (OS timer quantum, wakeup jitter, preemption under
//! load); chaining absorbs that overshoot in the next window instead of
//! adding it to every MVM, which would let sustained throughput drift
//! below the modeled `1/latency` with an error that compounds with request
//! count.

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
        let target = window_end(scratch.next_free, start, self.latency, scales.len());
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

/// End of the device-occupancy window of a `columns`-column call that
/// arrives at `now`, when the previous window ended at `next_free`.
///
/// The device is busy for one `latency` per column. A call arriving before
/// the previous window ended, or less than one latency after it, is
/// back-to-back: its window starts at that end, so a late return from the
/// previous wait is absorbed rather than compounded. A call after a longer
/// idle gap (or the first call) starts its window at `now`, so idle time
/// banks at most one latency of credit.
fn window_end(
    next_free: Option<Instant>,
    now: Instant,
    latency: Duration,
    columns: usize,
) -> Instant {
    let start = match next_free {
        Some(free) if now < free + latency => free,
        _ => now,
    };
    start + latency * u32::try_from(columns).unwrap_or(u32::MAX)
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
        // How late the real waits return depends on host load, so the
        // drift ceiling is pinned on the window arithmetic below; real
        // sleeps only bound the rate from above.
        let elapsed = start.elapsed();
        let modeled = latency * k;
        assert!(elapsed >= modeled, "paced below device rate: {elapsed:?}");
    }

    #[test]
    fn late_waits_are_absorbed_by_the_absolute_schedule() {
        // 50 back-to-back one-column calls whose waits each return 350 µs
        // late, as under a loaded parallel test run (42.4 ms measured for
        // 50 × 500 µs). Restarting every window on arrival would end there,
        // past the ceiling; chained windows end on the absolute schedule,
        // paying only the final call's lateness.
        let latency = Duration::from_micros(500);
        let overshoot = Duration::from_micros(350);
        let k = 50u32;
        let t0 = Instant::now();
        let (mut now, mut next_free) = (t0, None);
        for _ in 0..k {
            let end = window_end(next_free, now, latency, 1);
            next_free = Some(end);
            now = end + overshoot;
        }
        let modeled = latency * k;
        assert_eq!(next_free, Some(t0 + modeled));
        let elapsed = now - t0;
        let ceiling = modeled.mul_f64(1.25) + Duration::from_millis(5);
        assert!(
            elapsed <= ceiling,
            "sustained rate drifted: {elapsed:?} for modeled {modeled:?}"
        );
    }

    #[test]
    fn window_end_restarts_after_an_idle_gap_and_spans_the_columns() {
        let latency = Duration::from_micros(200);
        let t0 = Instant::now();
        // First call, and a call one latency or more after the window
        // ended: the window starts on arrival.
        assert_eq!(window_end(None, t0, latency, 3), t0 + latency * 3);
        let late = t0 + latency;
        assert_eq!(window_end(Some(t0), late, latency, 1), late + latency);
        // An early call queues behind the busy device.
        let busy = t0 + latency * 4;
        assert_eq!(window_end(Some(busy), t0, latency, 2), busy + latency * 2);
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
