//! Span-invariant tests for request-lifecycle tracing: monotone stage
//! telescoping, exact stage-sum accounting, terminal events for requests
//! that never execute, and partial-span flushing when a replica panics.

use std::time::Duration;

use forms_dnn::{Layer, Network};
use forms_exec::{CrossbarEngine, ExecError, Executor, Merge};
use forms_rng::StdRng;
use forms_serve::{
    PacedConfig, PacedEngine, ServeConfig, Server, StageDurations, TerminalKind, TraceConfig,
    STAGE_COUNT,
};
use forms_tensor::Tensor;
use forms_workloads::ActivationModel;

/// Exact digital matvec engine (mirrors the one in `tests/service.rs`):
/// isolates tracing behavior from any analog model.
#[derive(Clone, Debug)]
struct DigitalEngine {
    weights: Tensor,
    panic_on_code: Option<u32>,
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

#[derive(Clone, Copy, Debug)]
struct DigitalConfig {
    panic_on_code: Option<u32>,
}

impl CrossbarEngine for DigitalEngine {
    type Config = DigitalConfig;
    type Stats = DigitalStats;
    type Scratch = Vec<f32>;

    fn map_matrix(matrix: &Tensor, config: &DigitalConfig) -> Result<Self, ExecError> {
        Ok(Self {
            weights: matrix.clone(),
            panic_on_code: config.panic_on_code,
        })
    }

    fn output_len(&self) -> usize {
        self.weights.dims()[1]
    }

    fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut Vec<f32>,
        outs: &mut [f32],
    ) -> DigitalStats {
        if let Some(code) = self.panic_on_code {
            assert!(
                !batch_codes.contains(&code),
                "injected engine fault on sentinel code {code}"
            );
        }
        let rows = self.weights.dims()[0];
        for ((codes, out), &scale) in batch_codes
            .chunks_exact(rows)
            .zip(outs.chunks_exact_mut(self.output_len()))
            .zip(scales)
        {
            scratch.clear();
            scratch.extend(codes.iter().map(|&c| c as f32 * scale));
            out.copy_from_slice(&self.weights.transpose().matvec(scratch));
        }
        DigitalStats {
            mvms: scales.len() as u64,
        }
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

/// Property: over many requests across replicas and batch shapes, every
/// completed response's stage durations telescope exactly to its
/// end-to-end latency, and the aggregated histograms agree with the sum.
#[test]
fn stage_durations_telescope_exactly_for_every_completed_request() {
    let net = linear_net(24, 5, 11);
    let exec = Executor::<DigitalEngine>::map_network(&net, &OK).unwrap();
    let config = ServeConfig {
        replicas: 3,
        queue_capacity: 128,
        max_batch: 4,
        max_delay: Duration::from_micros(300),
        default_deadline: None,
    };
    let (responses, telemetry) =
        Server::builder()
            .config(config)
            .run(&exec, &[1, 4, 6], |handle| {
                let tickets: Vec<_> = (0..60)
                    .map(|s| handle.submit(payload(24, s)).unwrap())
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| t.wait().unwrap())
                    .collect::<Vec<_>>()
            });
    assert_eq!(telemetry.completed, 60);
    for r in &responses {
        // Exact, not approximate: consecutive monotonic stamps telescope.
        assert_eq!(r.stages.total(), r.latency);
        assert_eq!(r.stages.queue_wait, r.queue_wait);
        let ns = r.stages.as_ns();
        assert_eq!(ns.len(), STAGE_COUNT);
        assert_eq!(ns.iter().sum::<u64>(), r.latency.as_nanos() as u64);
        assert!(r.stages.execute > Duration::ZERO, "execution takes time");
    }
    // Aggregate invariant: each stage histogram saw every completion and
    // the per-stage sums telescope to the latency histogram's sum.
    let stage_sum: u64 = telemetry.stages.in_order().iter().map(|h| h.sum_ns).sum();
    assert_eq!(stage_sum, telemetry.latency.sum_ns);
    for h in telemetry.stages.in_order() {
        assert_eq!(h.count, 60);
        assert!(h.p50_ns() <= h.p99_ns() + 1e-9);
    }
    // Per-layer attribution covers the weight layer that actually ran.
    assert!(telemetry.layers.iter().any(|l| l.mvms > 0));
    assert!(telemetry.layers.iter().any(|l| l.wall_ns > 0));
    // The slowest-span list is populated and sorted descending.
    assert!(!telemetry.slowest.is_empty());
    for w in telemetry.slowest.windows(2) {
        assert!(w[0].total_ns >= w[1].total_ns);
    }
    for s in &telemetry.slowest {
        assert_eq!(s.kind, TerminalKind::Completed);
        assert_eq!(s.stage_ns.iter().sum::<u64>(), s.total_ns);
    }
}

/// A lone replica still batches a straggler within `max_delay`, and the
/// straggler window keeps the stages telescoping: the head books it as
/// batch formation, and the straggler, dequeued on arrival, never books
/// more queue wait than the head.
#[test]
fn a_lone_replica_batches_a_straggler_and_stages_still_telescope() {
    let net = linear_net(24, 5, 13);
    let exec = Executor::<DigitalEngine>::map_network(&net, &OK).unwrap();
    let max_delay = Duration::from_secs(10);
    let gap = Duration::from_millis(20);
    let config = ServeConfig {
        replicas: 1,
        queue_capacity: 8,
        max_batch: 2,
        max_delay,
        default_deadline: None,
    };
    let (responses, telemetry) =
        Server::builder()
            .config(config)
            .run(&exec, &[1, 4, 6], |handle| {
                let head = handle.submit(payload(24, 1)).unwrap();
                std::thread::sleep(gap);
                let straggler = handle.submit(payload(24, 2)).unwrap();
                [head.wait().unwrap(), straggler.wait().unwrap()]
            });
    assert_eq!(telemetry.completed, 2);
    let [head, straggler] = &responses;
    for r in &responses {
        assert_eq!(r.batch_size, 2, "the straggler joined the head's batch");
        assert!(r.latency < max_delay / 10, "the full batch flushed at once");
        assert_eq!(r.stages.total(), r.latency);
        assert_eq!(r.stages.queue_wait, r.queue_wait);
    }
    assert!(head.stages.queue_wait + head.stages.batch_form >= gap);
    assert!(straggler.stages.queue_wait <= head.stages.queue_wait);
    let stage_sum: u64 = telemetry.stages.in_order().iter().map(|h| h.sum_ns).sum();
    assert_eq!(stage_sum, telemetry.latency.sum_ns);
}

/// Requests that die before execution (shed at the door, expired in the
/// queue, cancelled) must carry no execute stage in their terminal events.
#[test]
fn requests_that_never_execute_carry_no_execute_stage() {
    let net = linear_net(8, 2, 12);
    let exec = Executor::<PacedEngine<DigitalEngine>>::map_network(
        &net,
        &PacedConfig {
            inner: OK,
            latency: Duration::from_millis(15),
        },
    )
    .unwrap();
    let config = ServeConfig {
        replicas: 1,
        queue_capacity: 2,
        max_batch: 1,
        max_delay: Duration::ZERO,
        default_deadline: Some(Duration::from_millis(3)),
    };
    let ((), telemetry) = Server::builder().config(config).run(&exec, &[8], |handle| {
        // Blast a capacity-2 queue through a 15 ms device: the head
        // executes, queued requests expire, the overflow sheds.
        let tickets: Vec<_> = (0..16)
            .filter_map(|s| handle.submit(payload(8, s)).ok())
            .collect();
        for t in tickets {
            let _ = t.wait();
        }
    });
    assert!(telemetry.shed > 0, "overflow must shed");
    assert!(telemetry.expired > 0, "queued requests must expire");
    let execute = 2; // STAGE_NAMES position of the execute stage
    let mut seen_shed = 0;
    let mut seen_expired = 0;
    for event in &telemetry.events {
        match event.kind {
            TerminalKind::Shed => {
                seen_shed += 1;
                // Shed at the door: no batch was ever formed either.
                assert_eq!(event.stage_ns[1], 0, "shed span has no batch stage");
                assert_eq!(event.stage_ns[execute], 0, "shed span never executed");
            }
            TerminalKind::Expired => {
                seen_expired += 1;
                assert_eq!(event.stage_ns[execute], 0, "expired span never executed");
                assert!(event.stage_ns[0] > 0, "expiry happens after queue wait");
            }
            _ => {}
        }
        // Terminal events account all stamped time: partial stages sum to
        // the recorded total.
        assert_eq!(event.stage_ns.iter().sum::<u64>(), event.total_ns);
    }
    assert!(seen_shed > 0, "shed events reach the ring");
    assert!(seen_expired > 0, "expiry events reach the ring");
}

/// Hardening regression: a replica whose engine panics mid-batch still
/// flushes each request's partial span as a `Failed` terminal event, with
/// stages stamped up to the execution attempt and nothing after it.
#[test]
fn panicking_replica_flushes_partial_spans_as_terminal_events() {
    let net = linear_net(8, 2, 13);
    let exec = Executor::<DigitalEngine>::map_network(
        &net,
        &DigitalConfig {
            // The quantizer maps each sample's max activation to the top
            // code, so every all-positive payload contains it.
            panic_on_code: Some((1 << 16) - 1),
        },
    )
    .unwrap();
    let config = ServeConfig {
        replicas: 2,
        queue_capacity: 32,
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        default_deadline: None,
    };
    let (results, telemetry) = Server::builder()
        .config(config)
        .trace(TraceConfig {
            event_capacity: 64,
            slowest_capacity: 4,
        })
        .run(&exec, &[8], |handle| {
            let tickets: Vec<_> = (0..10)
                .map(|s| handle.submit(payload(8, s)).unwrap())
                .collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        });
    assert_eq!(results.len(), 10);
    assert_eq!(telemetry.failed, 10);
    let failed: Vec<_> = telemetry
        .events
        .iter()
        .filter(|e| e.kind == TerminalKind::Failed)
        .collect();
    assert_eq!(failed.len(), 10, "every failed request flushed its span");
    for event in failed {
        // The span died at the execution attempt: queue-wait, batch-form
        // and execute are stamped; respond never happened.
        assert!(event.stage_ns[2] > 0, "execution attempt was stamped");
        assert_eq!(event.stage_ns[3], 0, "no respond stage after a panic");
        assert_eq!(event.stage_ns.iter().sum::<u64>(), event.total_ns);
    }
}

/// Zeroed trace capacities disable event capture without touching the
/// stage histograms — the allocation-free hot path stays on.
#[test]
fn zero_trace_capacities_disable_events_but_not_stage_histograms() {
    let net = linear_net(8, 2, 14);
    let exec = Executor::<DigitalEngine>::map_network(&net, &OK).unwrap();
    let ((), telemetry) = Server::builder()
        .trace(TraceConfig {
            event_capacity: 0,
            slowest_capacity: 0,
        })
        .run(&exec, &[8], |handle| {
            for s in 0..5 {
                handle.submit(payload(8, s)).unwrap().wait().unwrap();
            }
        });
    assert_eq!(telemetry.completed, 5);
    assert!(telemetry.events.is_empty());
    assert!(telemetry.slowest.is_empty());
    for h in telemetry.stages.in_order() {
        assert_eq!(h.count, 5, "histograms stay on with events disabled");
    }
    let total: Duration = telemetry
        .stages
        .in_order()
        .iter()
        .map(|h| Duration::from_nanos(h.sum_ns))
        .sum();
    assert_eq!(total, Duration::from_nanos(telemetry.latency.sum_ns));
    // StageDurations default is the zero breakdown.
    assert_eq!(StageDurations::default().total(), Duration::ZERO);
}
