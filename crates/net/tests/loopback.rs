//! End-to-end loopback tests: real sockets against a real serving core.
//!
//! Every test binds an ephemeral port on 127.0.0.1, so the suite runs
//! hermetically and in parallel.

use std::net::TcpStream;
use std::time::Duration;

use forms_arch::{MappedLayer, MappingConfig};
use forms_baselines::{IsaacConfig, IsaacLayer};
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{CrossbarEngine, Executor, FaultCampaign};
use forms_net::protocol::{read_frame, write_frame, Frame};
use forms_net::{ClientConfig, NetClient, NetConfig, NetServerExt, WireStatus};
use forms_rng::StdRng;
use forms_serve::{HealthPolicy, PacedConfig, PacedEngine, ServeConfig, Server};
use forms_tensor::Tensor;

const ROWS: usize = 16;
const COLS: usize = 4;

/// A 16→4 single-polarity linear net: trivially fragment-polarized, and
/// stuck-high faults can only inflate outputs past the pristine ceiling
/// (the property the degradation test relies on).
fn polarized_network() -> Network {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, ROWS, COLS)]);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&Tensor::from_fn(&[ROWS, COLS], |i| {
                0.05 + (i % 9) as f32 * 0.1
            }));
        }
    });
    net
}

fn mapping() -> MappingConfig {
    MappingConfig {
        crossbar_dim: 16,
        input_bits: 8,
        ..MappingConfig::paper(4)
    }
}

fn executor() -> Executor<MappedLayer> {
    Executor::map_network(&polarized_network(), &mapping()).unwrap()
}

/// The same layer behind a modeled device latency, for tests that need
/// requests to spend real time in the queue.
fn paced_executor(latency: Duration) -> Executor<PacedEngine<MappedLayer>> {
    let config = PacedConfig {
        inner: mapping(),
        latency,
    };
    Executor::map_network(&polarized_network(), &config).unwrap()
}

fn sample(scale: f32) -> Vec<f32> {
    (0..ROWS)
        .map(|i| scale * (i as f32) / ROWS as f32)
        .collect()
}

/// One socket call against `exec` returns, bit for bit, what an
/// in-process submission of the same request returned.
fn assert_socket_call_matches_in_process<E>(exec: &Executor<E>)
where
    E: CrossbarEngine,
    E::Stats: Sync,
{
    let serve = ServeConfig {
        replicas: 2,
        ..ServeConfig::default()
    };
    let ((), telemetry) = Server::builder()
        .config(serve)
        .run_net(exec, &[ROWS], &NetConfig::default(), |net| {
            let in_process = net
                .service()
                .submit(sample(1.0))
                .unwrap()
                .wait()
                .unwrap()
                .output;
            let addr = net.addr();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    let reply = client.call(&sample(1.0), None).unwrap();
                    assert_eq!(reply.outcome.unwrap(), in_process);
                    assert!(reply.server_latency > Duration::ZERO);
                });
            });
        })
        .unwrap();
    assert_eq!(telemetry.completed, 2);
    assert_eq!(telemetry.submitted, 2);
}

#[test]
fn socket_call_is_bitwise_identical_to_in_process_submission() {
    assert_socket_call_matches_in_process(&executor());
    let isaac = IsaacConfig {
        crossbar_dim: 16,
        input_bits: 8,
        ..IsaacConfig::paper()
    };
    let exec = Executor::<IsaacLayer>::map_network(&polarized_network(), &isaac).unwrap();
    assert_socket_call_matches_in_process(&exec);
}

#[test]
fn pipelined_requests_resolve_in_send_order() {
    let exec = executor();
    let (serve, net_cfg) = (ServeConfig::default(), NetConfig::default());
    let ((), telemetry) = Server::builder()
        .config(serve)
        .run_net(&exec, &[ROWS], &net_cfg, |net| {
            let addr = net.addr();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    let expected: Vec<u64> = (0..16)
                        .map(|i| client.send(&sample(i as f32 / 16.0), None).unwrap())
                        .collect();
                    assert_eq!(client.in_flight(), 16);
                    for want in expected {
                        let reply = client.recv().unwrap();
                        assert_eq!(reply.id, want);
                        assert_eq!(reply.outcome.unwrap().len(), COLS);
                    }
                    assert_eq!(client.in_flight(), 0);
                });
            });
        })
        .unwrap();
    assert_eq!(telemetry.completed, 16);
}

#[test]
fn rejections_are_statuses_on_a_live_connection_not_disconnects() {
    // 20 ms device latency makes queue time observable: a 1 µs deadline
    // always expires before batch formation.
    let exec = paced_executor(Duration::from_millis(20));
    let serve = ServeConfig {
        replicas: 1,
        queue_capacity: 1,
        max_batch: 1,
        max_delay: Duration::ZERO,
        default_deadline: None,
    };
    let ((), telemetry) = Server::builder()
        .config(serve)
        .run_net(&exec, &[ROWS], &NetConfig::default(), |net| {
            let addr = net.addr();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    // Wrong payload length → BadShape with both lengths.
                    let reply = client.call(&[1.0; 3], None).unwrap();
                    assert_eq!(reply.outcome, Err(WireStatus::BadShape));
                    // An impossible deadline → DeadlineExceeded.
                    let reply = client
                        .call(&sample(1.0), Some(Duration::from_micros(1)))
                        .unwrap();
                    assert_eq!(reply.outcome, Err(WireStatus::DeadlineExceeded));
                    // Blast a capacity-1 queue through a 20 ms device: most
                    // requests shed, and the connection survives all of it.
                    let sent: Vec<u64> = (0..12)
                        .map(|_| client.send(&sample(0.5), None).unwrap())
                        .collect();
                    let mut shed = 0usize;
                    let mut completed = 0usize;
                    for _ in &sent {
                        match client.recv().unwrap().outcome {
                            Ok(_) => completed += 1,
                            Err(WireStatus::Shed) => shed += 1,
                            Err(other) => panic!("unexpected status {other}"),
                        }
                    }
                    assert!(completed >= 1, "at least the head request completes");
                    assert!(shed >= 1, "a capacity-1 queue under blast must shed");
                    // The same connection still serves a clean request.
                    let reply = client.call(&sample(1.0), None).unwrap();
                    assert!(reply.is_ok());
                });
            });
        })
        .unwrap();
    assert!(telemetry.shed >= 1);
    assert!(telemetry.expired >= 1);
}

#[test]
fn telemetry_frame_round_trips_the_snapshot_over_the_wire() {
    let exec = executor();
    let (serve, net_cfg) = (ServeConfig::default(), NetConfig::default());
    let ((), final_snapshot) = Server::builder()
        .config(serve)
        .run_net(&exec, &[ROWS], &net_cfg, |net| {
            let addr = net.addr();
            let handle_snapshot = std::thread::scope(|s| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    for _ in 0..3 {
                        assert!(client.call(&sample(1.0), None).unwrap().is_ok());
                    }
                    client.telemetry().unwrap()
                })
                .join()
                .unwrap()
            });
            // The wire snapshot is the service's own snapshot, not a copy
            // with drift: fetch in-process telemetry after the client is done
            // and check the wire one is consistent with it.
            let direct = net.telemetry();
            assert_eq!(handle_snapshot.completed, 3);
            assert_eq!(handle_snapshot.plan, direct.plan);
            assert!(direct.completed >= handle_snapshot.completed);
            // The v2 tracing extensions survive the wire: per-stage counts
            // match the completions and per-layer attribution is populated.
            for stage in handle_snapshot.stages.in_order() {
                assert_eq!(stage.count, 3, "every stage sees every completion");
            }
            assert!(
                handle_snapshot.layers.iter().any(|l| l.mvms > 0),
                "per-layer attribution crossed the wire"
            );
        })
        .unwrap();
    assert_eq!(final_snapshot.completed, 3);
}

#[test]
fn concurrent_connections_multiplex_onto_one_queue() {
    let exec = executor();
    let serve = ServeConfig {
        replicas: 2,
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let per_conn = 8usize;
    let conns = 6usize;
    let ((), telemetry) = Server::builder()
        .config(serve)
        .run_net(&exec, &[ROWS], &NetConfig::default(), |net| {
            let addr = net.addr();
            std::thread::scope(|s| {
                for c in 0..conns {
                    s.spawn(move || {
                        let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                        for i in 0..per_conn {
                            let reply = client
                                .call(&sample((c * per_conn + i) as f32 / 48.0), None)
                                .unwrap();
                            assert!(reply.is_ok());
                        }
                    });
                }
            });
        })
        .unwrap();
    assert_eq!(telemetry.completed, (per_conn * conns) as u64);
}

#[test]
fn shutdown_drains_in_flight_requests_before_closing() {
    let exec = paced_executor(Duration::from_millis(5));
    let serve = ServeConfig {
        replicas: 1,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let n = 6usize;
    // Smuggle the stream out of the closure: requests are in flight when
    // shutdown starts, and the drain contract says each still gets a
    // response frame before the server lets go of the connection.
    let (stream, telemetry) = Server::builder()
        .config(serve)
        .run_net(&exec, &[ROWS], &NetConfig::default(), |net| {
            let mut stream = TcpStream::connect(net.addr()).unwrap();
            let mut scratch = Vec::new();
            for id in 0..n as u64 {
                let frame = Frame::Request {
                    id,
                    deadline_us: 0,
                    input: sample(1.0),
                };
                write_frame(&mut stream, &frame, &mut scratch).unwrap();
            }
            stream
        })
        .unwrap();
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for want in 0..n as u64 {
        let frame = read_frame(&mut stream).unwrap().expect("drained response");
        match frame {
            Frame::Response { id, output, .. } => {
                assert_eq!(id, want);
                assert_eq!(output.len(), COLS);
            }
            other => panic!("expected a drained response, got {other:?}"),
        }
    }
    assert_eq!(telemetry.completed, n as u64);
}

#[test]
fn poisoned_replica_surfaces_degraded_as_wire_statuses_with_zero_corruption() {
    let exec = executor();
    let clean = exec
        .clone()
        .forward(&Tensor::from_vec(vec![1.0; ROWS], &[1, ROWS]))
        .into_vec();
    let builder = Server::builder()
        .config(ServeConfig {
            replicas: 2,
            queue_capacity: 64,
            max_batch: 2,
            max_delay: Duration::from_micros(200),
            default_deadline: None,
        })
        .health(HealthPolicy {
            // Tolerate the raw density so the output sentinels (not the
            // density gate) refuse corrupted batches.
            max_fault_density: 1.0,
            max_rebuilds: 1,
            backoff: Duration::from_micros(100),
            backoff_multiplier: 2.0,
        });
    let ((ok_outputs, degraded), telemetry) = builder
        .run_net_resilient(&exec, &[ROWS], &NetConfig::default(), |net, faults| {
            let addr = net.addr();
            let service = net.service().clone();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    let mut ok_outputs: Vec<Vec<f32>> = Vec::new();
                    let mut degraded = 0usize;
                    let mut drive = |n: usize, ok: &mut Vec<Vec<f32>>, deg: &mut usize| {
                        for _ in 0..n {
                            // Full-scale inputs leave a stuck-high array
                            // no quantization headroom to hide in.
                            match client.call(&[1.0; ROWS], None).unwrap().outcome {
                                Ok(out) => ok.push(out),
                                Err(WireStatus::Degraded) => *deg += 1,
                                Err(other) => panic!("unexpected status {other}"),
                            }
                        }
                    };
                    drive(8, &mut ok_outputs, &mut degraded);
                    faults.poison(0, FaultCampaign::stuck_at(0x570_12A, 0.0, 0.35));
                    let mut waves = 0;
                    while service.telemetry().quarantines == 0 && waves < 400 {
                        drive(2, &mut ok_outputs, &mut degraded);
                        waves += 1;
                    }
                    (ok_outputs, degraded)
                })
                .join()
                .unwrap()
            })
        })
        .unwrap();
    let corrupted = ok_outputs.iter().filter(|o| **o != clean).count();
    assert_eq!(corrupted, 0, "no corrupted response may cross the wire");
    assert!(degraded >= 1, "poison must surface as Degraded statuses");
    assert_eq!(degraded as u64, telemetry.degraded);
    assert!(telemetry.quarantines >= 1, "poisoned replica quarantines");
}

#[test]
fn malformed_bytes_drop_the_connection_but_not_the_server() {
    let exec = executor();
    let (serve, net_cfg) = (ServeConfig::default(), NetConfig::default());
    let ((), telemetry) = Server::builder()
        .config(serve)
        .run_net(&exec, &[ROWS], &net_cfg, |net| {
            let addr = net.addr();
            std::thread::scope(|s| {
                s.spawn(move || {
                    // Garbage bytes: the server must drop this connection.
                    let mut bad = TcpStream::connect(addr).unwrap();
                    std::io::Write::write_all(&mut bad, b"GET / HTTP/1.1\r\n\r\n").unwrap();
                    bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    assert_eq!(read_frame(&mut bad).unwrap(), None, "server closed");
                    // ...while a well-behaved connection keeps working.
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    assert!(client.call(&sample(1.0), None).unwrap().is_ok());
                });
            });
        })
        .unwrap();
    assert_eq!(telemetry.completed, 1);
}

#[test]
fn client_reconnects_with_backoff_after_an_idle_drop() {
    let exec = executor();
    let config = NetConfig {
        // Aggressive idle reaping: the server drops any connection silent
        // for 30 ms, at a 10 ms poll granularity.
        read_timeout: Duration::from_millis(10),
        idle_timeout: Some(Duration::from_millis(30)),
        ..NetConfig::default()
    };
    let ((), telemetry) = Server::builder()
        .run_net(&exec, &[ROWS], &config, |net| {
            let addr = net.addr();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default()).unwrap();
                    assert!(client.call(&sample(1.0), None).unwrap().is_ok());
                    // Outlive the idle timeout so the server reaps the
                    // connection; the next call must transparently reconnect
                    // and resend.
                    std::thread::sleep(Duration::from_millis(120));
                    let reply = client.call(&sample(0.5), None).unwrap();
                    assert!(reply.is_ok(), "call() reconnects and resends");
                });
            });
        })
        .unwrap();
    assert_eq!(telemetry.completed, 2);
}

#[test]
fn net_config_validate_rejects_contradictions() {
    use forms_net::NetConfigError;
    assert_eq!(NetConfig::default().validate(), Ok(()));
    let base = NetConfig::default();
    assert_eq!(
        NetConfig {
            max_connections: 0,
            ..base
        }
        .validate(),
        Err(NetConfigError::ZeroConnections)
    );
    assert_eq!(
        NetConfig {
            max_in_flight: 0,
            ..base
        }
        .validate(),
        Err(NetConfigError::ZeroInFlight)
    );
    assert_eq!(
        NetConfig {
            read_timeout: Duration::ZERO,
            ..base
        }
        .validate(),
        Err(NetConfigError::ZeroReadTimeout)
    );
    // An idle timeout inside the poll granularity would reap every
    // connection at its first quiet tick.
    let reapy = NetConfig {
        read_timeout: Duration::from_millis(50),
        idle_timeout: Some(Duration::from_millis(10)),
        ..base
    };
    assert!(matches!(
        reapy.validate(),
        Err(NetConfigError::IdleShorterThanPoll { .. })
    ));
    // Equal is fine: one full poll tick of silence is a legal idle bound.
    let tight = NetConfig {
        read_timeout: Duration::from_millis(10),
        idle_timeout: Some(Duration::from_millis(10)),
        ..base
    };
    assert_eq!(tight.validate(), Ok(()));
}
