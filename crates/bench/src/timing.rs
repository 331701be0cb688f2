//! A std-only micro-benchmark harness, replacing the former `criterion`
//! dependency.
//!
//! Deliberately simple: warm up, then run a fixed number of timed batches
//! and report min / p50 / p95 / mean batch time per iteration. That is
//! enough to compare design points and catch order-of-magnitude
//! regressions; it does not attempt criterion's statistical machinery.
//!
//! The quantile machinery is shared by every suite: [`percentile`]
//! extracts p50/p95/p99 from sorted samples (batch timings here,
//! client-side latencies in the serving suite).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `q`-quantile (`0 < q <= 1`) of ascending-sorted samples by linear
/// interpolation between the two nearest order statistics. Returns 0 for
/// an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `(0, 1]` or the samples are not sorted.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Target wall-clock time per measurement batch.
    pub batch_target: Duration,
    /// Number of measured batches.
    pub batches: usize,
    /// Warm-up time before measuring.
    pub warmup: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            batch_target: Duration::from_millis(50),
            batches: 20,
            warmup: Duration::from_millis(100),
        }
    }
}

impl BenchConfig {
    /// A fast profile for smoke runs (used when `FORMS_BENCH_FAST` is set).
    pub fn fast() -> Self {
        Self {
            batch_target: Duration::from_millis(5),
            batches: 5,
            warmup: Duration::from_millis(5),
        }
    }

    /// Picks the profile from the environment.
    pub fn from_env() -> Self {
        if std::env::var_os("FORMS_BENCH_FAST").is_some() {
            Self::fast()
        } else {
            Self::default()
        }
    }
}

/// One benchmark's measurements, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per measured batch.
    pub iters_per_batch: u64,
    /// Per-iteration batch means, sorted ascending.
    pub ns_per_iter: Vec<f64>,
}

impl BenchResult {
    /// Fastest observed batch (ns/iter).
    pub fn min_ns(&self) -> f64 {
        self.ns_per_iter.first().copied().unwrap_or(0.0)
    }

    /// Median batch (ns/iter).
    pub fn median_ns(&self) -> f64 {
        self.p50_ns()
    }

    /// Median batch (ns/iter), interpolated.
    pub fn p50_ns(&self) -> f64 {
        percentile(&self.ns_per_iter, 0.50)
    }

    /// 95th-percentile batch (ns/iter), interpolated.
    pub fn p95_ns(&self) -> f64 {
        percentile(&self.ns_per_iter, 0.95)
    }

    /// 99th-percentile batch (ns/iter), interpolated.
    pub fn p99_ns(&self) -> f64 {
        percentile(&self.ns_per_iter, 0.99)
    }

    /// Mean over batches (ns/iter).
    pub fn mean_ns(&self) -> f64 {
        if self.ns_per_iter.is_empty() {
            return 0.0;
        }
        self.ns_per_iter.iter().sum::<f64>() / self.ns_per_iter.len() as f64
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A named group of benchmarks sharing one configuration.
pub struct Bencher {
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl Bencher {
    /// Creates a harness with the environment-selected profile.
    pub fn new() -> Self {
        Self::with_config(BenchConfig::from_env())
    }

    /// Creates a harness with an explicit configuration.
    pub fn with_config(config: BenchConfig) -> Self {
        Self {
            config,
            results: Vec::new(),
        }
    }

    /// Times `f`, printing a one-line summary. The closure's return value
    /// is passed through [`black_box`] so the computation cannot be
    /// optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        // Warm up and calibrate the per-batch iteration count.
        let warmup_end = Instant::now() + self.config.warmup;
        let mut warm_iters: u64 = 0;
        let warm_start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if Instant::now() >= warmup_end {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters_per_batch =
            ((self.config.batch_target.as_secs_f64() / per_iter.max(1e-9)) as u64).max(1);

        let mut ns_per_iter = Vec::with_capacity(self.config.batches);
        for _ in 0..self.config.batches {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(f());
            }
            ns_per_iter.push(start.elapsed().as_nanos() as f64 / iters_per_batch as f64);
        }
        ns_per_iter.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            name: name.to_string(),
            iters_per_batch,
            ns_per_iter,
        };
        println!(
            "{:<40} min {:>12}  p50 {:>12}  p95 {:>12}  mean {:>12}  ({} iters/batch)",
            result.name,
            format_ns(result.min_ns()),
            format_ns(result.p50_ns()),
            format_ns(result.p95_ns()),
            format_ns(result.mean_ns()),
            result.iters_per_batch
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

impl Default for Bencher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bencher::with_config(BenchConfig {
            batch_target: Duration::from_micros(200),
            batches: 3,
            warmup: Duration::from_micros(100),
        });
        let r = b.bench("spin", || (0..100u64).sum::<u64>());
        assert!(r.min_ns() > 0.0);
        assert!(r.median_ns() >= r.min_ns());
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let samples = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&samples, 0.5), 30.0);
        assert_eq!(percentile(&samples, 1.0), 50.0);
        assert!((percentile(&samples, 0.95) - 48.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn bench_result_percentiles_are_ordered() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_batch: 1,
            ns_per_iter: (1..=100).map(f64::from).collect(),
        };
        assert!(r.min_ns() <= r.p50_ns());
        assert!(r.p50_ns() <= r.p95_ns());
        assert!(r.p95_ns() <= r.p99_ns());
        assert_eq!(r.median_ns(), r.p50_ns());
    }

    #[test]
    fn formats_scale_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2e9).ends_with(" s"));
    }
}
