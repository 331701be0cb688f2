//! Integration tests for the serving subsystem: correctness against the
//! direct forward path, bounded memory under overload, deadline and
//! cancellation semantics, and panic containment during drain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use forms_dnn::{Layer, Network};
use forms_exec::{
    CrossbarEngine, ExecError, Executor, FaultCampaign, FaultReport, FaultableEngine, Merge,
};
use forms_rng::StdRng;
use forms_serve::{
    run_open_loop, HealthPolicy, OpenLoopSpec, PacedConfig, PacedEngine, ServeConfig, ServeError,
    Server,
};
use forms_tensor::Tensor;
use forms_workloads::ActivationModel;

/// Exact digital matvec engine: isolates serving-layer behavior from any
/// analog model while exercising the full `CrossbarEngine` plumbing.
#[derive(Clone, Debug)]
struct DigitalEngine {
    weights: Tensor,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DigitalStats {
    mvms: u64,
}

impl Merge for DigitalStats {
    fn merge(&mut self, other: Self) {
        self.mvms += other.mvms;
    }
}

#[derive(Debug, Default)]
struct DigitalScratch {
    x: Vec<f32>,
}

/// Configuration for [`DigitalEngine`]: a sentinel input code that makes
/// `matvec_into` panic, for fault-injection tests (`None` disables).
#[derive(Clone, Copy, Debug)]
struct DigitalConfig {
    panic_on_code: Option<u32>,
}

impl CrossbarEngine for DigitalEngine {
    type Config = DigitalConfig;
    type Stats = DigitalStats;
    type Scratch = DigitalScratch;

    fn map_matrix(matrix: &Tensor, _config: &DigitalConfig) -> Result<Self, ExecError> {
        Ok(Self {
            weights: matrix.clone(),
        })
    }

    fn output_len(&self) -> usize {
        self.weights.dims()[1]
    }

    fn matvec_into(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        scratch: &mut DigitalScratch,
        out: &mut [f32],
    ) -> DigitalStats {
        scratch.x.clear();
        scratch
            .x
            .extend(input_codes.iter().map(|&c| c as f32 * input_scale));
        let y = self.weights.transpose().matvec(&scratch.x);
        out.copy_from_slice(&y);
        DigitalStats { mvms: 1 }
    }

    fn crossbar_count(&self) -> usize {
        1
    }

    fn mean_input_cycles(stats: &DigitalStats) -> Option<f64> {
        (stats.mvms > 0).then_some(1.0)
    }

    fn max_input_cycles(_config: &DigitalConfig) -> f64 {
        16.0
    }

    fn precision_of(_config: &DigitalConfig) -> forms_exec::LayerPrecision {
        forms_exec::LayerPrecision::new(32, 16)
    }

    fn with_precision(
        config: &DigitalConfig,
        _precision: forms_exec::LayerPrecision,
    ) -> DigitalConfig {
        *config
    }
}

/// A variant whose matvec panics when the sentinel code appears in the
/// input — models a replica whose device driver dies mid-batch.
#[derive(Clone, Debug)]
struct FaultyEngine {
    inner: DigitalEngine,
    panic_on_code: Option<u32>,
}

impl CrossbarEngine for FaultyEngine {
    type Config = DigitalConfig;
    type Stats = DigitalStats;
    type Scratch = DigitalScratch;

    fn map_matrix(matrix: &Tensor, config: &DigitalConfig) -> Result<Self, ExecError> {
        Ok(Self {
            inner: DigitalEngine::map_matrix(matrix, config)?,
            panic_on_code: config.panic_on_code,
        })
    }

    fn output_len(&self) -> usize {
        self.inner.output_len()
    }

    fn matvec_into(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        scratch: &mut DigitalScratch,
        out: &mut [f32],
    ) -> DigitalStats {
        if let Some(code) = self.panic_on_code {
            assert!(
                !input_codes.contains(&code),
                "injected engine fault on sentinel code {code}"
            );
        }
        self.inner
            .matvec_into(input_codes, input_scale, scratch, out)
    }

    fn crossbar_count(&self) -> usize {
        1
    }

    fn mean_input_cycles(stats: &DigitalStats) -> Option<f64> {
        DigitalEngine::mean_input_cycles(stats)
    }

    fn max_input_cycles(config: &DigitalConfig) -> f64 {
        DigitalEngine::max_input_cycles(config)
    }

    fn precision_of(config: &DigitalConfig) -> forms_exec::LayerPrecision {
        DigitalEngine::precision_of(config)
    }

    fn with_precision(
        config: &DigitalConfig,
        precision: forms_exec::LayerPrecision,
    ) -> DigitalConfig {
        DigitalEngine::with_precision(config, precision)
    }
}

/// Faults never land: the engine models no cells, so a health policy sees
/// a pristine replica and only the panic path is exercised.
impl FaultableEngine for FaultyEngine {
    fn inject_faults(&mut self, _campaign: &FaultCampaign, _salt: u64) -> FaultReport {
        FaultReport::default()
    }
}

const OK: DigitalConfig = DigitalConfig {
    panic_on_code: None,
};

fn linear_net(inputs: usize, outputs: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, inputs, outputs),
    ])
}

fn payload(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    forms_workloads::synth_request(&mut rng, ActivationModel::half_normal(0.4), len)
}

#[test]
fn served_outputs_match_direct_forward_bitwise() {
    let net = linear_net(24, 5, 1);
    let exec = Executor::<DigitalEngine>::map_network(&net, &OK, 16).unwrap();
    let mut reference = exec.clone();
    let config = ServeConfig {
        replicas: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let inputs: Vec<Vec<f32>> = (0..12).map(|s| payload(24, s)).collect();
    let (outputs, telemetry) = Server::builder()
        .config(config)
        .run(&exec, &[1, 4, 6], |handle| {
            let tickets: Vec<_> = inputs
                .iter()
                .map(|p| handle.submit(p.clone()).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
    assert_eq!(telemetry.completed, 12);
    assert_eq!(telemetry.shed, 0);
    // Per-sample activation quantization makes batched serving bitwise
    // equal to serial single-sample forwards, whatever batches formed.
    for (input, response) in inputs.iter().zip(&outputs) {
        let x = Tensor::from_vec(input.clone(), &[1, 1, 4, 6]);
        let y = reference.forward(&x);
        assert_eq!(response.output, y.data());
        assert!(response.batch_size >= 1);
        assert!(response.latency >= response.queue_wait);
    }
}

#[test]
fn overload_sheds_instead_of_growing_the_queue() {
    let net = linear_net(16, 4, 2);
    let exec = Executor::<PacedEngine<DigitalEngine>>::map_network(
        &net,
        &PacedConfig {
            inner: OK,
            latency: Duration::from_millis(5),
        },
        16,
    )
    .unwrap();
    // One slow replica, a tiny queue, and a burst far beyond capacity.
    let config = ServeConfig {
        replicas: 1,
        queue_capacity: 4,
        max_batch: 2,
        max_delay: Duration::ZERO,
        default_deadline: None,
    };
    let max_queue = Arc::new(AtomicUsize::new(0));
    let observer = Arc::clone(&max_queue);
    let ((), telemetry) = Server::builder()
        .config(config)
        .run(&exec, &[16], move |handle| {
            let mut tickets = Vec::new();
            for s in 0..64 {
                match handle.submit(payload(16, s)) {
                    Ok(t) => tickets.push(t),
                    Err(ServeError::Shed) => {}
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
                observer.fetch_max(handle.queue_len(), Ordering::SeqCst);
            }
            for t in tickets {
                t.wait().unwrap();
            }
        });
    assert!(telemetry.shed > 0, "burst must overflow the tiny queue");
    assert_eq!(telemetry.submitted, 64);
    assert_eq!(
        telemetry.resolved(),
        64,
        "every offered request has a terminal outcome"
    );
    assert!(
        max_queue.load(Ordering::SeqCst) <= config.queue_capacity,
        "queue never exceeds its bound"
    );
}

#[test]
fn expired_requests_are_rejected_not_executed() {
    let net = linear_net(8, 2, 3);
    let exec = Executor::<PacedEngine<DigitalEngine>>::map_network(
        &net,
        &PacedConfig {
            inner: OK,
            latency: Duration::from_millis(20),
        },
        16,
    )
    .unwrap();
    let config = ServeConfig {
        replicas: 1,
        queue_capacity: 16,
        max_batch: 1,
        max_delay: Duration::ZERO,
        default_deadline: Some(Duration::from_millis(5)),
    };
    let (results, telemetry) = Server::builder().config(config).run(&exec, &[8], |handle| {
        // The first request occupies the replica for ~20 ms; the rest sit
        // queued past their 5 ms budget and must be rejected unexecuted.
        let tickets: Vec<_> = (0..4)
            .map(|s| handle.submit(payload(8, s)).unwrap())
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });
    assert!(results[0].is_ok(), "head of line completes");
    let expired = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::DeadlineExceeded)))
        .count();
    assert!(expired >= 2, "queued requests expired, got {results:?}");
    assert_eq!(telemetry.expired as usize, expired);
    assert_eq!(telemetry.resolved(), 4);
}

#[test]
fn cancellation_resolves_without_execution() {
    let net = linear_net(8, 2, 4);
    let exec = Executor::<PacedEngine<DigitalEngine>>::map_network(
        &net,
        &PacedConfig {
            inner: OK,
            latency: Duration::from_millis(20),
        },
        16,
    )
    .unwrap();
    let config = ServeConfig {
        replicas: 1,
        queue_capacity: 16,
        max_batch: 1,
        max_delay: Duration::ZERO,
        default_deadline: None,
    };
    let (result, telemetry) = Server::builder().config(config).run(&exec, &[8], |handle| {
        let head = handle.submit(payload(8, 0)).unwrap();
        let victim = handle.submit(payload(8, 1)).unwrap();
        victim.cancel();
        let head_result = head.wait();
        let victim_result = victim.wait();
        (head_result, victim_result)
    });
    assert!(result.0.is_ok());
    assert_eq!(result.1.unwrap_err(), ServeError::Cancelled);
    assert_eq!(telemetry.cancelled, 1);
    assert_eq!(telemetry.completed, 1);
}

#[test]
fn bad_shape_is_refused_at_the_door() {
    let net = linear_net(8, 2, 5);
    let exec = Executor::<DigitalEngine>::map_network(&net, &OK, 16).unwrap();
    let ((), telemetry) = Server::builder().run(&exec, &[8], |handle| {
        let err = handle.submit(vec![0.0; 7]).unwrap_err();
        assert_eq!(
            err,
            ServeError::BadShape {
                expected: 8,
                got: 7
            }
        );
    });
    assert_eq!(telemetry.completed, 0);
}

#[test]
fn panicking_engine_fails_its_batch_and_service_drains() {
    let net = linear_net(8, 2, 6);
    let exec = Executor::<FaultyEngine>::map_network(
        &net,
        &DigitalConfig {
            // The quantizer maps each sample's max activation to the top
            // code, so every all-positive payload contains it.
            panic_on_code: Some((1 << 16) - 1),
        },
        16,
    )
    .unwrap();
    let builder = Server::builder().config(ServeConfig {
        replicas: 2,
        queue_capacity: 32,
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        default_deadline: None,
    });
    // Must terminate: a panicking replica may not hang shutdown. The
    // harness's per-test timeout would catch a deadlock here.
    let client = |handle: &forms_serve::ServiceHandle| {
        let tickets: Vec<_> = (0..10)
            .map(|s| handle.submit(payload(8, s)).unwrap())
            .collect();
        let failed: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        // All-zero payloads quantize to code 0 and never trip the fault:
        // the replicas that just panicked must serve them.
        let later: Vec<_> = (0..4)
            .map(|_| handle.submit(vec![0.0; 8]).unwrap())
            .collect();
        (
            failed,
            later.into_iter().map(|t| t.wait()).collect::<Vec<_>>(),
        )
    };
    let plain = builder.run(&exec, &[8], client);
    let policed =
        builder
            .health(HealthPolicy::default())
            .run_resilient(&exec, &[8], |handle, _| client(handle));
    for ((failed, later), telemetry) in [plain, policed] {
        assert_eq!(failed.len(), 10);
        for r in &failed {
            assert_eq!(r.as_ref().unwrap_err(), &ServeError::EngineFailed);
        }
        for r in &later {
            assert!(r.is_ok(), "{r:?}");
        }
        assert_eq!(telemetry.failed, 10);
        assert_eq!(telemetry.completed, 4);
        assert_eq!(telemetry.resolved(), 14);
        // A panic rebuilds the session, not the executor: no health event.
        assert_eq!(telemetry.rebuilds, 0);
        assert_eq!(telemetry.quarantines, 0);
    }
}

#[test]
fn open_loop_load_generator_accounts_every_request() {
    let net = linear_net(16, 4, 7);
    let exec = Executor::<DigitalEngine>::map_network(&net, &OK, 16).unwrap();
    let config = ServeConfig {
        replicas: 2,
        queue_capacity: 32,
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        default_deadline: None,
    };
    let spec = OpenLoopSpec {
        rate_rps: 2000.0,
        requests: 100,
        seed: 42,
        model: ActivationModel::half_normal(0.4),
        deadline: None,
    };
    let (report, telemetry) = Server::builder()
        .config(config)
        .run(&exec, &[16], |handle| run_open_loop(handle, &spec));
    assert_eq!(report.offered, 100);
    assert_eq!(
        report.completed + report.shed + report.expired + report.failed,
        100
    );
    assert!(report.completed > 0);
    assert_eq!(report.latencies.len(), report.completed);
    assert_eq!(telemetry.completed as usize, report.completed);
    assert!(report.throughput_rps() > 0.0);
    let p50 = report.latency_quantile(0.5).unwrap();
    let p99 = report.latency_quantile(0.99).unwrap();
    assert!(p50 <= p99);
}

#[test]
fn replicas_scale_throughput_with_paced_engines() {
    let net = linear_net(16, 4, 8);
    let exec = Executor::<PacedEngine<DigitalEngine>>::map_network(
        &net,
        &PacedConfig {
            inner: OK,
            latency: Duration::from_millis(4),
        },
        16,
    )
    .unwrap();
    // Saturating closed burst: wall clock is requests × 4 ms / replicas
    // (batching disabled), so 4 replicas must beat 1 clearly even with
    // scheduler noise on a single host core.
    let run = |replicas: usize| {
        let config = ServeConfig {
            replicas,
            queue_capacity: 64,
            max_batch: 1,
            max_delay: Duration::ZERO,
            default_deadline: None,
        };
        let start = std::time::Instant::now();
        let ((), _) = Server::builder()
            .config(config)
            .run(&exec, &[16], |handle| {
                let tickets: Vec<_> = (0..32)
                    .map(|s| handle.submit(payload(16, s)).unwrap())
                    .collect();
                for t in tickets {
                    t.wait().unwrap();
                }
            });
        start.elapsed()
    };
    let one = run(1);
    let four = run(4);
    let speedup = one.as_secs_f64() / four.as_secs_f64();
    assert!(
        speedup > 1.5,
        "4 device-bound replicas should beat 1 by >1.5x, got {speedup:.2}x ({one:?} vs {four:?})"
    );
}
