//! Synthetic inference request traces for the serving subsystem.
//!
//! An open-loop load generator needs two things per request: *when* it
//! arrives and *what* it carries. Arrivals follow a Poisson process (the
//! standard model for independent user traffic — exponential inter-arrival
//! gaps at a fixed offered rate), and payloads are post-ReLU-shaped
//! activation vectors sized for a target layer from the shape catalogs.

use std::time::Duration;

use forms_rng::{Distribution, Exp, Rng};

use crate::activations::ActivationModel;

/// Draws Poisson-process arrival offsets: `n` cumulative arrival times
/// (measured from the stream start) whose inter-arrival gaps are i.i.d.
/// exponential with mean `1 / rate_rps`.
///
/// # Panics
///
/// Panics if `rate_rps` is not finite and positive.
pub fn poisson_arrivals<R: Rng + ?Sized>(rng: &mut R, rate_rps: f64, n: usize) -> Vec<Duration> {
    let exp = Exp::new(rate_rps).expect("rate must be finite and positive");
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += exp.sample(rng);
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Synthesizes one request payload: `len` non-negative post-ReLU-shaped
/// activation values drawn from `model`, as the `f32` sample a serving
/// front-end would hand to the accelerator.
pub fn synth_request<R: Rng + ?Sized>(rng: &mut R, model: ActivationModel, len: usize) -> Vec<f32> {
    model
        .sample_values(rng, len)
        .into_iter()
        .map(|v| v as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_rng::StdRng;

    #[test]
    fn arrivals_are_monotone_with_the_right_mean_gap() {
        let mut rng = StdRng::seed_from_u64(11);
        let arrivals = poisson_arrivals(&mut rng, 200.0, 4000);
        assert_eq!(arrivals.len(), 4000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival should be close to 1/rate = 5 ms.
        let total = arrivals.last().unwrap().as_secs_f64();
        let mean_gap = total / 4000.0;
        assert!((mean_gap - 0.005).abs() < 0.0005, "mean gap {mean_gap}");
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let a = poisson_arrivals(&mut StdRng::seed_from_u64(3), 100.0, 64);
        let b = poisson_arrivals(&mut StdRng::seed_from_u64(3), 100.0, 64);
        let c = poisson_arrivals(&mut StdRng::seed_from_u64(4), 100.0, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn requests_are_nonnegative_and_sized() {
        let mut rng = StdRng::seed_from_u64(7);
        let req = synth_request(&mut rng, ActivationModel::half_normal(0.5), 1152);
        assert_eq!(req.len(), 1152);
        assert!(req.iter().all(|&v| v >= 0.0));
        assert!(req.iter().any(|&v| v > 0.0));
    }
}
