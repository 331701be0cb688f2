//! Serving suite over loopback TCP (`BENCH_net.json`).
//!
//! The repository's one serving benchmark. It drives the open-loop
//! Poisson generator through *real loopback sockets* — frame encoding,
//! kernel socket buffers, per-connection reader/writer threads, the
//! bounded in-flight window — against the paced multi-replica serving
//! core, sweeping connection count × replica count on the FORMS design.
//!
//! Every replica's engine is wrapped in a [`PacedEngine`] modeling one
//! attached accelerator device (fixed per-MVM occupancy), so replica
//! scaling measures the serving layer's queue/replica overlap rather than
//! host core count. The pacing pads every MVM to the same device latency
//! whatever the engine, so the design is not a sweep axis here: an ISAAC
//! sweep measured within 3% of FORMS at every point. ISAAC over the wire
//! is pinned bitwise by the `forms-net` loopback tests instead.
//!
//! Every sweep point is paired with an **in-process baseline** at the
//! same replica count (the [`run_open_loop`] path with no sockets).
//! [`validate`] requires the baselines to scale from one replica to the
//! largest count by at least the mode's [`scaling_floor`], and loopback
//! goodput to hold at least the mode's [`loopback_floor`] of its baseline
//! ([`LOOPBACK_FLOOR`] in full mode) — the front-end may tax the serving
//! layer, but it must not become the bottleneck.
//!
//! The suite ends with a **socket fault storm**: a resilient two-replica
//! service, one replica persistently poisoned mid-run with a stuck-high
//! campaign, driven entirely over a TCP connection. The storm proves the
//! degradation contract survives the wire: every completed response is
//! bitwise-identical to the pristine output, refusals surface as
//! `Degraded` *wire statuses* on a live connection (never as dropped
//! sockets), and the poisoned replica rebuilds and then quarantines.
//!
//! Each embedded telemetry snapshot is written as a summary (counters,
//! `{count, sum_ns, p50_ns, p95_ns, p99_ns, max_ns}` per histogram,
//! per-layer attribution and the plan tag) rather than the full
//! [`TelemetrySnapshot::to_json`] wire schema with its raw buckets and
//! event traces.
//!
//! The suite writes `BENCH_net.json` at the repository root; the `net`
//! binary re-reads the file, parses it with [`crate::json::parse`] and
//! checks it with [`validate`], so CI fails on a serving layer that stops
//! scaling, slows down, corrupts, or drops.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use forms_arch::{MappedLayer, MappingConfig};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{Executor, FaultCampaign};
use forms_net::{ClientConfig, NetClient, NetConfig, NetServerExt, WireStatus};
use forms_reram::CellSpec;
use forms_rng::StdRng;
use forms_serve::telemetry::HistogramSnapshot;
use forms_serve::{
    run_open_loop, HealthPolicy, OpenLoopSpec, PacedConfig, PacedEngine, ServeConfig, Server,
    TelemetrySnapshot, STAGE_NAMES,
};
use forms_tensor::Tensor;
use forms_workloads::{poisson_arrivals, synth_request, ActivationModel};

use crate::json::JsonValue;
use crate::mvm::polarized_matrix;
use crate::timing::percentile;

/// Minimum acceptable loopback goodput as a fraction of the in-process
/// baseline at the same replica count (full-mode gate).
pub const LOOPBACK_FLOOR: f64 = 0.7;

/// Minimum acceptable loopback/in-process goodput ratio per mode. Full
/// mode holds the real [`LOOPBACK_FLOOR`] gate; the smoke floor is looser
/// because its sub-second points run concurrently with the rest of the
/// workspace test suite, and saturation throughput under that contention
/// is noisy on *both* sides of the ratio.
pub fn loopback_floor(mode: &str) -> f64 {
    if mode == "full" {
        LOOPBACK_FLOOR
    } else {
        0.4
    }
}

/// Minimum acceptable 1→max-replica in-process throughput scaling per
/// mode: device-bound replicas should scale near-linearly; the smoke floor
/// is looser because its points are sub-second and noisy.
pub fn scaling_floor(mode: &str) -> f64 {
    if mode == "full" {
        1.5
    } else {
        1.2
    }
}

/// Shapes, pacing and sweep axes for one suite run.
#[derive(Clone, Debug)]
pub struct NetBenchSpec {
    /// `"full"` or `"smoke"` — recorded in the JSON document.
    pub mode: &'static str,
    /// Human-readable label of the served layer shape.
    pub layer_label: &'static str,
    /// Lowered weight-matrix rows (request payload length).
    pub rows: usize,
    /// Lowered weight-matrix columns (response length).
    pub cols: usize,
    /// FORMS mapping parameters.
    pub mapping: MappingConfig,
    /// Modeled per-MVM device occupancy of the sweep replicas.
    pub device_latency: Duration,
    /// Offered open-loop load per sweep point, in requests/s (split
    /// evenly across the point's connections).
    pub rate_rps: f64,
    /// Requests offered per sweep point.
    pub requests: usize,
    /// Replica counts to sweep.
    pub replicas: Vec<usize>,
    /// Concurrent client connections to sweep.
    pub connections: Vec<usize>,
    /// Batch-size limit of every point.
    pub max_batch: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Dynamic-batching straggler window.
    pub max_delay: Duration,
    /// Minimum requests offered during the socket fault storm.
    pub storm_requests: usize,
}

impl NetBenchSpec {
    /// The real measurement point: the Table-V-style VGG conv layer
    /// (1152×128 lowered) at the paper's configuration behind a 60 ms
    /// device, which keeps four replicas' host compute under one core.
    pub fn full() -> Self {
        Self {
            mode: "full",
            layer_label: "VGG conv 3x3x128->128 (Table-V style, 1152x128 lowered)",
            rows: 1152,
            cols: 128,
            mapping: MappingConfig::paper(8),
            device_latency: Duration::from_millis(60),
            rate_rps: 120.0,
            requests: 240,
            replicas: vec![1, 2, 4],
            connections: vec![1, 4, 8],
            max_batch: 4,
            queue_capacity: 32,
            max_delay: Duration::from_millis(5),
            storm_requests: 24,
        }
    }

    /// A seconds-scale variant for CI: tiny layer, short pacing, same
    /// code paths and JSON schema as [`full`](Self::full).
    pub fn smoke() -> Self {
        Self {
            mode: "smoke",
            layer_label: "smoke conv 3x3x8->8 (72x8 lowered)",
            rows: 72,
            cols: 8,
            mapping: MappingConfig {
                crossbar_dim: 16,
                fragment_size: 4,
                weight_bits: 8,
                cell: CellSpec::paper_2bit(),
                input_bits: 8,
                zero_skipping: true,
            },
            device_latency: Duration::from_millis(3),
            rate_rps: 600.0,
            requests: 90,
            replicas: vec![1, 4],
            connections: vec![1, 4],
            max_batch: 4,
            queue_capacity: 16,
            max_delay: Duration::from_millis(1),
            storm_requests: 12,
        }
    }

    fn serve_config(&self, replicas: usize) -> ServeConfig {
        ServeConfig {
            replicas,
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            max_delay: self.max_delay,
            default_deadline: None,
        }
    }
}

/// One loopback sweep point's measurements.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// Replica count of this point.
    pub replicas: usize,
    /// Concurrent client connections of this point.
    pub connections: usize,
    /// In-process open-loop goodput at the same replica count, in
    /// requests/s.
    pub baseline_rps: f64,
    /// Loopback goodput in requests/s.
    pub throughput_rps: f64,
    /// Median client-observed latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency in milliseconds.
    pub p99_ms: f64,
    /// Requests that completed with an output.
    pub completed: usize,
    /// Requests shed at admission (wire status, connection stayed up).
    pub shed: usize,
    /// Requests expired in queue (wire status).
    pub expired: usize,
    /// Requests refused by a degraded replica (wire status).
    pub degraded: usize,
    /// Client-side transport/protocol failures — must be zero.
    pub wire_errors: usize,
    /// Final server-side telemetry of the point, including per-stage
    /// histograms and per-layer attribution, rendered into the document
    /// as a summary.
    pub telemetry: TelemetrySnapshot,
}

impl NetPoint {
    /// Loopback goodput over the in-process baseline.
    pub fn ratio(&self) -> f64 {
        if self.baseline_rps > 0.0 {
            self.throughput_rps / self.baseline_rps
        } else {
            0.0
        }
    }
}

/// Outcome of the socket fault storm.
#[derive(Clone, Debug)]
pub struct NetStormResult {
    /// Replicas the resilient service ran.
    pub replicas: usize,
    /// Requests offered over the connection.
    pub requests: usize,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests refused with a `Degraded` wire status.
    pub degraded: u64,
    /// Completed responses that did **not** match the pristine output —
    /// must be zero.
    pub corrupted: usize,
    /// Replicas quarantined after exhausting their rebuild budget.
    pub quarantines: u64,
    /// Rebuild-from-pristine recovery attempts.
    pub rebuilds: u64,
    /// Client-side transport/protocol failures — must be zero: every
    /// refusal must arrive as a status on the live connection.
    pub wire_errors: usize,
    /// Final service telemetry, rendered into the document as a summary.
    pub telemetry: TelemetrySnapshot,
}

/// Everything a suite run produces.
#[derive(Clone, Debug)]
pub struct NetBenchReport {
    /// The spec the run used.
    pub spec: NetBenchSpec,
    /// All sweep points, in replicas → connections order.
    pub points: Vec<NetPoint>,
    /// The socket fault-storm outcome.
    pub storm: NetStormResult,
}

impl NetBenchReport {
    /// The smallest loopback/baseline ratio across the sweep.
    pub fn worst_ratio(&self) -> f64 {
        self.points
            .iter()
            .map(NetPoint::ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// In-process throughput scaling: the baseline at the largest swept
    /// replica count over the baseline at one replica.
    pub fn scaling(&self) -> Option<f64> {
        let max_replicas = self.spec.replicas.iter().copied().max()?;
        let baseline = |replicas: usize| {
            self.points
                .iter()
                .find(|p| p.replicas == replicas)
                .map(|p| p.baseline_rps)
        };
        let (one, many) = (baseline(1)?, baseline(max_replicas)?);
        (one > 0.0).then(|| many / one)
    }

    /// Renders the report as the `BENCH_net.json` document.
    pub fn to_json(&self) -> JsonValue {
        let sweep = self
            .points
            .iter()
            .map(|p| {
                JsonValue::object(vec![
                    ("replicas", JsonValue::Number(p.replicas as f64)),
                    ("connections", JsonValue::Number(p.connections as f64)),
                    ("baseline_rps", JsonValue::Number(p.baseline_rps)),
                    ("throughput_rps", JsonValue::Number(p.throughput_rps)),
                    ("ratio", JsonValue::Number(p.ratio())),
                    ("p50_ms", JsonValue::Number(p.p50_ms)),
                    ("p99_ms", JsonValue::Number(p.p99_ms)),
                    ("completed", JsonValue::Number(p.completed as f64)),
                    ("shed", JsonValue::Number(p.shed as f64)),
                    ("expired", JsonValue::Number(p.expired as f64)),
                    ("degraded", JsonValue::Number(p.degraded as f64)),
                    ("wire_errors", JsonValue::Number(p.wire_errors as f64)),
                    ("telemetry", telemetry_summary(&p.telemetry)),
                ])
            })
            .collect();
        let storm = &self.storm;
        JsonValue::object(vec![
            ("bench", JsonValue::String("net".into())),
            ("mode", JsonValue::String(self.spec.mode.into())),
            (
                "layer",
                JsonValue::object(vec![
                    ("label", JsonValue::String(self.spec.layer_label.into())),
                    ("rows", JsonValue::Number(self.spec.rows as f64)),
                    ("cols", JsonValue::Number(self.spec.cols as f64)),
                ]),
            ),
            (
                "load",
                JsonValue::object(vec![
                    (
                        "device_latency_ms",
                        JsonValue::Number(self.spec.device_latency.as_secs_f64() * 1e3),
                    ),
                    ("offered_rps", JsonValue::Number(self.spec.rate_rps)),
                    (
                        "requests_per_point",
                        JsonValue::Number(self.spec.requests as f64),
                    ),
                    (
                        "queue_capacity",
                        JsonValue::Number(self.spec.queue_capacity as f64),
                    ),
                ]),
            ),
            (
                "loopback_floor",
                JsonValue::Number(loopback_floor(self.spec.mode)),
            ),
            ("sweep", JsonValue::Array(sweep)),
            (
                "throughput_scaling_1_to_max_replicas",
                self.scaling().map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "storm",
                JsonValue::object(vec![
                    ("replicas", JsonValue::Number(storm.replicas as f64)),
                    ("requests", JsonValue::Number(storm.requests as f64)),
                    ("completed", JsonValue::Number(storm.completed as f64)),
                    ("degraded", JsonValue::Number(storm.degraded as f64)),
                    ("corrupted", JsonValue::Number(storm.corrupted as f64)),
                    ("quarantines", JsonValue::Number(storm.quarantines as f64)),
                    ("rebuilds", JsonValue::Number(storm.rebuilds as f64)),
                    ("wire_errors", JsonValue::Number(storm.wire_errors as f64)),
                    ("telemetry", telemetry_summary(&storm.telemetry)),
                ]),
            ),
        ])
    }
}

/// The served network: the lowered conv layer as a linear layer, weights
/// fragment-polarized so FORMS can map it.
fn net_network(spec: &NetBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0x53184);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = polarized_matrix(spec.rows, spec.cols, spec.mapping.fragment_size);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Tally of one connection's share of a loopback point.
#[derive(Default)]
struct ConnOutcome {
    completed: usize,
    shed: usize,
    expired: usize,
    degraded: usize,
    wire_errors: usize,
    latencies_ns: Vec<f64>,
}

/// Drives one connection's share of the offered load: a split
/// sender/receiver pair, the sender replaying its seeded Poisson schedule
/// without ever waiting for replies (open loop), the receiver draining
/// replies in order and timing each against its send instant.
fn drive_connection(
    addr: SocketAddr,
    spec: &NetBenchSpec,
    seed: u64,
    requests: usize,
    rate_rps: f64,
) -> ConnOutcome {
    let client_config = ClientConfig {
        request_timeout: Some(Duration::from_secs(60)),
        ..ClientConfig::default()
    };
    let client = match NetClient::connect(addr, client_config) {
        Ok(c) => c,
        Err(_) => {
            return ConnOutcome {
                wire_errors: requests,
                ..ConnOutcome::default()
            }
        }
    };
    let Ok((mut sender, mut receiver)) = client.split() else {
        return ConnOutcome {
            wire_errors: requests,
            ..ConnOutcome::default()
        };
    };
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    let mut outcome = ConnOutcome::default();
    let send_failures = std::thread::scope(|scope| {
        let sender_thread = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let arrivals = poisson_arrivals(&mut rng, rate_rps, requests);
            let model = ActivationModel::half_normal(0.4);
            let mut failures = 0usize;
            let start = Instant::now();
            for at in &arrivals {
                let payload = synth_request(&mut rng, model, spec.rows);
                if let Some(gap) = (start + *at).checked_duration_since(Instant::now()) {
                    std::thread::sleep(gap);
                }
                let sent_at = Instant::now();
                if sender.send(&payload, None).is_ok() {
                    let _ = sent_tx.send(sent_at);
                } else {
                    failures += 1;
                }
            }
            sender.finish();
            failures
        });
        for sent_at in sent_rx {
            match receiver.recv() {
                Ok(reply) => match reply.outcome {
                    Ok(_) => {
                        outcome.completed += 1;
                        outcome
                            .latencies_ns
                            .push(sent_at.elapsed().as_nanos() as f64);
                    }
                    Err(WireStatus::Shed | WireStatus::ShuttingDown) => outcome.shed += 1,
                    Err(WireStatus::DeadlineExceeded) => outcome.expired += 1,
                    Err(WireStatus::Degraded) => outcome.degraded += 1,
                    Err(_) => outcome.wire_errors += 1,
                },
                Err(_) => {
                    outcome.wire_errors += 1;
                    break;
                }
            }
        }
        sender_thread.join().unwrap_or(requests)
    });
    outcome.wire_errors += send_failures;
    outcome
}

/// Runs one loopback sweep point: `connections` concurrent clients
/// splitting the offered load evenly over real sockets.
fn loopback_point(
    executor: &Executor<PacedEngine<MappedLayer>>,
    spec: &NetBenchSpec,
    replicas: usize,
    connections: usize,
    baseline_rps: f64,
) -> NetPoint {
    let net_config = NetConfig {
        // Roomy in-flight window: the open-loop schedule must never stall
        // on the backpressure bound, or the measurement degenerates into
        // a closed loop.
        max_in_flight: spec.queue_capacity.max(64),
        ..NetConfig::default()
    };
    let base = spec.requests / connections;
    let extra = spec.requests % connections;
    let ((outcomes, elapsed), telemetry) = Server::builder()
        .config(spec.serve_config(replicas))
        .run_net(executor, &[spec.rows], &net_config, |net| {
            let addr = net.addr();
            let started = Instant::now();
            let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..connections)
                    .map(|c| {
                        let requests = base + usize::from(c < extra);
                        let rate = spec.rate_rps / connections as f64;
                        let seed = 0x11E7 ^ ((replicas as u64) << 16) ^ ((c as u64) << 4);
                        scope.spawn(move || drive_connection(addr, spec, seed, requests, rate))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| ConnOutcome {
                            wire_errors: base + 1,
                            ..ConnOutcome::default()
                        })
                    })
                    .collect()
            });
            (outcomes, started.elapsed())
        })
        .expect("loopback listener binds");
    let mut point = NetPoint {
        replicas,
        connections,
        baseline_rps,
        throughput_rps: 0.0,
        p50_ms: 0.0,
        p99_ms: 0.0,
        completed: 0,
        shed: 0,
        expired: 0,
        degraded: 0,
        wire_errors: 0,
        telemetry,
    };
    let mut ns: Vec<f64> = Vec::new();
    for o in outcomes {
        point.completed += o.completed;
        point.shed += o.shed;
        point.expired += o.expired;
        point.degraded += o.degraded;
        point.wire_errors += o.wire_errors;
        ns.extend(o.latencies_ns);
    }
    ns.sort_by(f64::total_cmp);
    point.throughput_rps = if elapsed.is_zero() {
        0.0
    } else {
        point.completed as f64 / elapsed.as_secs_f64()
    };
    point.p50_ms = percentile(&ns, 0.50) / 1e6;
    point.p99_ms = percentile(&ns, 0.99) / 1e6;
    println!(
        "r={} c={}  {:>7.1} req/s over loopback vs {:>7.1} in-process ({:.2}x)  p99 {:>8.1} ms  {} ok / {} shed / {} wire errors",
        replicas,
        connections,
        point.throughput_rps,
        baseline_rps,
        point.ratio(),
        point.p99_ms,
        point.completed,
        point.shed,
        point.wire_errors,
    );
    point
}

/// Measures the in-process baseline at one replica count: the same
/// offered trace through [`run_open_loop`], no sockets anywhere.
fn in_process_baseline(
    executor: &Executor<PacedEngine<MappedLayer>>,
    spec: &NetBenchSpec,
    replicas: usize,
) -> f64 {
    let load = OpenLoopSpec {
        rate_rps: spec.rate_rps,
        requests: spec.requests,
        seed: 0x11E7 ^ ((replicas as u64) << 16),
        model: ActivationModel::half_normal(0.4),
        deadline: None,
    };
    let (report, telemetry) =
        Server::builder()
            .config(spec.serve_config(replicas))
            .run(executor, &[spec.rows], |h| run_open_loop(h, &load));
    assert_eq!(telemetry.failed, 0, "bench engines must not fail");
    report.throughput_rps()
}

/// Sweeps replicas × connections.
fn sweep(executor: &Executor<PacedEngine<MappedLayer>>, spec: &NetBenchSpec) -> Vec<NetPoint> {
    let mut points = Vec::new();
    for &replicas in &spec.replicas {
        let baseline = in_process_baseline(executor, spec, replicas);
        for &connections in &spec.connections {
            points.push(loopback_point(
                executor,
                spec,
                replicas,
                connections,
                baseline,
            ));
        }
    }
    points
}

/// The storm serves a *single-polarity* layer (every weight positive):
/// with all fragments contributing one sign, a stuck-high campaign can
/// only inflate column currents toward — and past — the pristine ceiling,
/// so the output sentinels are guaranteed to see the corruption. On the
/// mixed-sign sweep matrix, inflation in positive and negative fragments
/// partially cancels, which is exactly the blind spot a range sentinel
/// has; the storm avoids it on purpose, because its job is to gate the
/// *recovery machinery*, not the sentinel's coverage.
fn storm_network(spec: &NetBenchSpec) -> Network {
    let mut rng = StdRng::seed_from_u64(0x570_0142);
    let mut net = Network::new(vec![
        Layer::flatten(),
        Layer::linear(&mut rng, spec.rows, spec.cols),
    ]);
    let matrix = Tensor::from_fn(&[spec.rows, spec.cols], |i| {
        0.05 + ((i * 31) % 13) as f32 * 0.07
    });
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    net
}

/// Runs the socket fault storm: one TCP client against a two-replica
/// resilient service, replica 0 persistently poisoned after a warmup.
/// Full-scale inputs leave the stuck-high array no quantization headroom,
/// so the output sentinels refuse every corrupted batch as `Degraded` —
/// which must reach the client as wire statuses on the live connection.
fn run_storm(spec: &NetBenchSpec) -> NetStormResult {
    let replicas = 2;
    let pristine = Executor::<MappedLayer>::map_network(&storm_network(spec), &spec.mapping)
        .expect("storm layer maps on FORMS");
    let request = vec![1.0f32; spec.rows];
    let clean = pristine
        .clone()
        .forward(&Tensor::from_vec(request.clone(), &[1, spec.rows]))
        .into_vec();
    let builder = Server::builder()
        .config(ServeConfig {
            replicas,
            queue_capacity: spec.storm_requests.max(4),
            max_batch: 2,
            max_delay: Duration::from_micros(200),
            default_deadline: None,
        })
        .health(HealthPolicy {
            // Tolerate the raw density so the sentinel path (not the
            // density gate) is what refuses corrupted batches.
            max_fault_density: 1.0,
            max_rebuilds: 1,
            backoff: Duration::from_micros(100),
            backoff_multiplier: 2.0,
        });
    let poison = FaultCampaign::stuck_at(0x570_12A, 0.0, 0.35);
    let warmup = spec.storm_requests / 3;
    let max_waves = 400;
    let ((requests, ok_outputs, degraded, wire_errors), telemetry) = builder
        .run_net_resilient(
            &pristine,
            &[spec.rows],
            &NetConfig::default(),
            |net, faults| {
                let addr = net.addr();
                let service = net.service().clone();
                let request = &request;
                std::thread::scope(|scope| {
                    let worker = scope.spawn(move || {
                        let mut client = NetClient::connect(addr, ClientConfig::default())
                            .expect("storm client connects");
                        let mut ok_outputs: Vec<Vec<f32>> = Vec::new();
                        let mut degraded = 0usize;
                        let mut wire_errors = 0usize;
                        let mut requests = 0usize;
                        let mut drive = |n: usize,
                                         ok: &mut Vec<Vec<f32>>,
                                         deg: &mut usize,
                                         wire: &mut usize| {
                            for _ in 0..n {
                                match client.call(request, None) {
                                    Ok(reply) => match reply.outcome {
                                        Ok(out) => ok.push(out),
                                        Err(WireStatus::Degraded) => *deg += 1,
                                        Err(other) => panic!("unexpected storm status {other}"),
                                    },
                                    Err(_) => *wire += 1,
                                }
                            }
                        };
                        drive(warmup, &mut ok_outputs, &mut degraded, &mut wire_errors);
                        requests += warmup;
                        faults.poison(0, poison);
                        // Recovery is asynchronous: keep offering small waves
                        // until the quarantine shows up in telemetry, capped.
                        let mut waves = 0;
                        while requests < spec.storm_requests
                            || (service.telemetry().quarantines == 0 && waves < max_waves)
                        {
                            drive(2, &mut ok_outputs, &mut degraded, &mut wire_errors);
                            requests += 2;
                            waves += 1;
                        }
                        (requests, ok_outputs, degraded, wire_errors)
                    });
                    worker.join().expect("storm client thread")
                })
            },
        )
        .expect("storm listener binds");
    let corrupted = ok_outputs.iter().filter(|o| **o != clean).count();
    println!(
        "storm: {} requests over one socket -> {} completed ({} corrupted), {} degraded statuses, {} wire errors, {} quarantined",
        requests, telemetry.completed, corrupted, degraded, wire_errors, telemetry.quarantines,
    );
    assert_eq!(
        degraded as u64, telemetry.degraded,
        "wire-observed and telemetry degraded counts must agree"
    );
    NetStormResult {
        replicas,
        requests,
        completed: telemetry.completed,
        degraded: telemetry.degraded,
        corrupted,
        quarantines: telemetry.quarantines,
        rebuilds: telemetry.rebuilds,
        wire_errors,
        telemetry,
    }
}

/// Runs the whole suite for a spec.
///
/// # Panics
///
/// Panics if the benchmark layer cannot be mapped or the loopback
/// listener cannot bind (a bug in the spec or a broken sandbox).
pub fn run(spec: &NetBenchSpec) -> NetBenchReport {
    let net = net_network(spec);
    let forms_config = PacedConfig {
        inner: spec.mapping,
        latency: spec.device_latency,
    };
    let forms = Executor::<PacedEngine<MappedLayer>>::map_network(&net, &forms_config)
        .expect("bench layer maps on FORMS");
    let points = sweep(&forms, spec);
    let storm = run_storm(spec);
    NetBenchReport {
        spec: spec.clone(),
        points,
        storm,
    }
}

/// Renders a histogram as its summary: exact count, sum and max plus the
/// bucket-interpolated p50/p95/p99 estimates.
fn histogram_summary(h: &HistogramSnapshot) -> JsonValue {
    JsonValue::object(vec![
        ("count", JsonValue::Number(h.count as f64)),
        ("sum_ns", JsonValue::Number(h.sum_ns as f64)),
        ("p50_ns", JsonValue::Number(h.p50_ns())),
        ("p95_ns", JsonValue::Number(h.p95_ns())),
        ("p99_ns", JsonValue::Number(h.p99_ns())),
        ("max_ns", JsonValue::Number(h.max_ns as f64)),
    ])
}

/// Renders a telemetry snapshot for the bench document: the outcome
/// counters, the end-to-end and per-stage histogram summaries, per-layer
/// attribution and the plan tag. Raw buckets and the `events`/`slowest`
/// traces stay in the [`TelemetrySnapshot::to_json`] wire schema.
fn telemetry_summary(t: &TelemetrySnapshot) -> JsonValue {
    let counter = |v: u64| JsonValue::Number(v as f64);
    let stages = STAGE_NAMES
        .iter()
        .zip(t.stages.in_order())
        .map(|(&name, h)| (name, histogram_summary(h)))
        .collect();
    let layers = t
        .layers
        .iter()
        .map(|l| {
            JsonValue::object(vec![
                ("wall_ns", counter(l.wall_ns)),
                ("mvms", counter(l.mvms)),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("submitted", counter(t.submitted)),
        ("completed", counter(t.completed)),
        ("shed", counter(t.shed)),
        ("expired", counter(t.expired)),
        ("cancelled", counter(t.cancelled)),
        ("failed", counter(t.failed)),
        ("degraded", counter(t.degraded)),
        ("rebuilds", counter(t.rebuilds)),
        ("quarantines", counter(t.quarantines)),
        ("faults_injected", counter(t.faults_injected)),
        ("latency", histogram_summary(&t.latency)),
        ("stages", JsonValue::object(stages)),
        ("layers", JsonValue::Array(layers)),
        ("plan", JsonValue::String(t.plan.clone())),
    ])
}

/// Reads the numeric field `key` of the object at `path`.
fn number(obj: &JsonValue, path: &str, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing numeric `{path}.{key}`"))
}

/// Checks one embedded telemetry summary's per-stage breakdown: every
/// stage saw every completion, percentiles are ordered, the per-stage
/// sums telescope to the end-to-end latency sum within 1%, and per-layer
/// attribution is populated whenever work completed.
///
/// # Errors
///
/// Returns a description of the first violated stage invariant.
fn validate_stage_breakdown(summary: &JsonValue, path: &str) -> Result<(), String> {
    let completed = number(summary, path, "completed")?;
    if completed == 0.0 {
        return Ok(());
    }
    let stages = summary
        .get("stages")
        .ok_or_else(|| format!("missing `{path}.stages`"))?;
    let mut stage_sum = 0.0;
    for name in STAGE_NAMES {
        let stage_path = format!("{path}.stages.{name}");
        let stage = stages
            .get(name)
            .ok_or_else(|| format!("missing `{stage_path}`"))?;
        let field = |key: &str| number(stage, &stage_path, key);
        let count = field("count")?;
        if count != completed {
            return Err(format!(
                "`{stage_path}` saw {count} samples but {completed} requests completed"
            ));
        }
        let (p50, p95, p99) = (field("p50_ns")?, field("p95_ns")?, field("p99_ns")?);
        if !(p50 <= p95 + 1e-9 && p95 <= p99 + 1e-9) {
            return Err(format!("`{stage_path}` percentiles out of order"));
        }
        stage_sum += field("sum_ns")?;
    }
    let latency = summary
        .get("latency")
        .ok_or_else(|| format!("missing `{path}.latency`"))?;
    let end_to_end = number(latency, &format!("{path}.latency"), "sum_ns")?;
    if (stage_sum - end_to_end).abs() > end_to_end * 0.01 {
        return Err(format!(
            "`{path}` stage sums ({stage_sum} ns) do not telescope to the \
             end-to-end latency sum ({end_to_end} ns) within 1%"
        ));
    }
    let attributed = summary
        .get("layers")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing `{path}.layers` array"))?
        .iter()
        .any(|l| {
            l.get("mvms").and_then(JsonValue::as_f64) > Some(0.0)
                && l.get("wall_ns").and_then(JsonValue::as_f64) > Some(0.0)
        });
    if !attributed {
        return Err(format!(
            "`{path}` per-layer attribution is empty despite completed requests"
        ));
    }
    Ok(())
}

/// Checks that a parsed `BENCH_net.json` document has the shape this
/// suite writes and proves the serving layer's claims: the in-process
/// baselines scale from one replica to the largest count by the mode's
/// [`scaling_floor`]; at every sweep point loopback goodput holds the
/// mode's [`loopback_floor`] of its baseline with zero wire errors, zero
/// engine failures, server-side completions matching the client's, and
/// stage timings that telescope to the end-to-end latency; and the socket
/// fault storm resolved no more requests than it offered, completed
/// requests with zero corrupted responses, surfaced `Degraded` as wire
/// statuses, rebuilt the poisoned replica and quarantined it.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(doc: &JsonValue) -> Result<(), String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("net") {
        return Err("missing or wrong `bench` field".into());
    }
    let mode = match doc.get("mode").and_then(JsonValue::as_str) {
        Some(m @ ("full" | "smoke")) => m,
        _ => return Err("`mode` must be \"full\" or \"smoke\"".into()),
    };
    let floor = doc
        .get("loopback_floor")
        .and_then(JsonValue::as_f64)
        .ok_or("missing numeric `loopback_floor`")?;
    if floor != loopback_floor(mode) {
        return Err(format!(
            "`loopback_floor` must be {} in {mode} mode",
            loopback_floor(mode)
        ));
    }
    let sweep = doc
        .get("sweep")
        .and_then(JsonValue::as_array)
        .ok_or("missing `sweep` array")?;
    if sweep.is_empty() {
        return Err("`sweep` must not be empty".into());
    }
    for (i, point) in sweep.iter().enumerate() {
        let path = format!("sweep[{i}]");
        let num = |key: &str| number(point, &path, key);
        let (baseline, throughput) = (num("baseline_rps")?, num("throughput_rps")?);
        if !(baseline.is_finite() && baseline > 0.0) {
            return Err(format!("sweep[{i}] has a non-positive baseline"));
        }
        if !(throughput.is_finite() && throughput > 0.0) {
            return Err(format!("sweep[{i}] has non-positive loopback throughput"));
        }
        let ratio = num("ratio")?;
        if (ratio - throughput / baseline).abs() > 1e-9 {
            return Err(format!("sweep[{i}] ratio is inconsistent with its rates"));
        }
        if ratio < floor {
            return Err(format!(
                "sweep[{i}] loopback held only {ratio:.2}x of in-process (floor {floor})"
            ));
        }
        let (p50, p99) = (num("p50_ms")?, num("p99_ms")?);
        if !(p50.is_finite() && p99.is_finite() && 0.0 < p50 && p50 <= p99) {
            return Err(format!("sweep[{i}] latency percentiles out of order"));
        }
        let completed = num("completed")?;
        if completed <= 0.0 {
            return Err(format!("sweep[{i}] completed nothing"));
        }
        if num("wire_errors")? != 0.0 {
            return Err(format!("sweep[{i}] recorded wire errors"));
        }
        let telemetry = point
            .get("telemetry")
            .ok_or_else(|| format!("sweep[{i}] missing `telemetry` summary"))?;
        let path = format!("sweep[{i}].telemetry");
        if number(telemetry, &path, "failed")? != 0.0 {
            return Err(format!("sweep[{i}] recorded engine failures"));
        }
        if number(telemetry, &path, "completed")? != completed {
            return Err(format!(
                "sweep[{i}].telemetry disagrees with the client-observed completions"
            ));
        }
        validate_stage_breakdown(telemetry, &path)?;
    }
    let scaling = doc
        .get("throughput_scaling_1_to_max_replicas")
        .and_then(JsonValue::as_f64)
        .ok_or("missing numeric `throughput_scaling_1_to_max_replicas`")?;
    let scaling_floor = scaling_floor(mode);
    if !(scaling.is_finite() && scaling >= scaling_floor) {
        return Err(format!(
            "replica scaling {scaling:.2}x is below the {scaling_floor:.1}x floor"
        ));
    }
    let storm = doc.get("storm").ok_or("missing `storm` object")?;
    let num = |key: &str| number(storm, "storm", key);
    if num("corrupted")? != 0.0 {
        return Err("storm returned corrupted responses over the wire".into());
    }
    if num("wire_errors")? != 0.0 {
        return Err("storm dropped connections instead of returning statuses".into());
    }
    if num("completed")? <= 0.0 {
        return Err("storm completed no requests — no availability".into());
    }
    if num("degraded")? < 1.0 {
        return Err("storm recorded no Degraded wire statuses".into());
    }
    if num("rebuilds")? < 1.0 {
        return Err("storm never attempted recovery before quarantine".into());
    }
    if num("quarantines")? < 1.0 {
        return Err("storm never quarantined the poisoned replica".into());
    }
    if num("requests")? < num("completed")? + num("degraded")? {
        return Err("storm resolved more requests than were offered".into());
    }
    let telemetry = storm
        .get("telemetry")
        .ok_or("missing `storm.telemetry` summary")?;
    if number(telemetry, "storm.telemetry", "degraded")? != num("degraded")? {
        return Err("`storm.telemetry` disagrees with the storm counters".into());
    }
    validate_stage_breakdown(telemetry, "storm.telemetry")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A copy of `doc` with the value at `path` (object keys, or array
    /// indices written as numbers) replaced by `value`.
    fn with(doc: &JsonValue, path: &[&str], value: JsonValue) -> JsonValue {
        let mut out = doc.clone();
        let mut node = &mut out;
        for step in path {
            node = match node {
                JsonValue::Object(fields) => {
                    &mut fields
                        .iter_mut()
                        .find(|(k, _)| k == step)
                        .unwrap_or_else(|| panic!("no field `{step}`"))
                        .1
                }
                JsonValue::Array(items) => &mut items[step.parse::<usize>().unwrap()],
                _ => panic!("`{step}` indexes a scalar"),
            };
        }
        *node = value;
        out
    }

    // One socket suite run feeds both the round-trip and the rejection
    // checks: a second concurrent run would double the load-dependent
    // noise in every timed point for no extra coverage.
    #[test]
    fn smoke_report_round_trips_validates_and_rejects_mutations() {
        let report = run(&NetBenchSpec::smoke());
        let doc = report.to_json();
        validate(&doc).unwrap();
        let reparsed = parse(&doc.pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed, doc);
        assert!(report.worst_ratio() >= loopback_floor("smoke"));
        assert!(report.scaling().unwrap() >= scaling_floor("smoke"));
        assert_eq!(report.storm.corrupted, 0);
        assert_eq!(report.storm.wire_errors, 0);

        let JsonValue::Object(fields) = &doc else {
            panic!("report is an object")
        };
        for missing in [
            "bench",
            "mode",
            "loopback_floor",
            "sweep",
            "throughput_scaling_1_to_max_replicas",
            "storm",
        ] {
            let broken = JsonValue::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != missing)
                    .cloned()
                    .collect(),
            );
            assert!(validate(&broken).is_err(), "accepted doc without {missing}");
        }
        let rejects = |path: &[&str], value: f64, expected: &str| {
            let err = validate(&with(&doc, path, JsonValue::Number(value)))
                .expect_err("mutated document validated");
            assert!(err.contains(expected), "{path:?}: unexpected error {err}");
        };
        // A loopback slowdown below the floor.
        let point = &doc.get("sweep").unwrap().as_array().unwrap()[0];
        let mut slowed = doc.clone();
        for key in ["throughput_rps", "ratio"] {
            let value = 0.1 * point.get(key).unwrap().as_f64().unwrap();
            slowed = with(&slowed, &["sweep", "0", key], JsonValue::Number(value));
        }
        let err = validate(&slowed).expect_err("slowed document validated");
        assert!(err.contains("loopback held only"), "unexpected error {err}");
        // Replica scaling below the floor.
        rejects(
            &["throughput_scaling_1_to_max_replicas"],
            1.01,
            "below the 1.2x floor",
        );
        // An engine failure at a sweep point.
        rejects(
            &["sweep", "0", "telemetry", "failed"],
            1.0,
            "engine failures",
        );
        // Server-side completions disagreeing with the client's.
        rejects(&["sweep", "0", "completed"], 1e9, "client-observed");
        // A stage sum that no longer telescopes.
        rejects(
            &["sweep", "0", "telemetry", "stages", "execute", "sum_ns"],
            1e18,
            "telescope",
        );
        // A corrupted storm response.
        rejects(&["storm", "corrupted"], 1.0, "corrupted");
        // A storm that never rebuilt the poisoned replica.
        rejects(&["storm", "rebuilds"], 0.0, "recovery");
        // A storm that resolved more requests than it offered.
        rejects(&["storm", "requests"], 0.0, "offered");
        assert!(validate(&JsonValue::Null).is_err());
    }
}
