//! End-to-end loopback benchmark of the FORMS crossbar engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table5-forms-closed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run maps a seeded, polarized network onto the real (unpaced)
//! engine, serves it with `Server::builder()` + `NetServerExt::run_net`
//! on a loopback socket, and drives it with `NetClient`s from this
//! process. After the timed window it checks every response bitwise
//! against `Executor::forward_parallel` and prints one JSON result line.
//! `--trace 1` adds the per-layer numbers: serving-stage telemetry, codec
//! timings, a replay of the executor's layers from outside the program
//! (see `replay`), and the same layer's kernel on ISAAC. Any wrong output, counter mismatch or account that does
//! not telescope ends the run with a non-zero exit and no result line.

mod checks;
mod load;
mod replay;
mod workload;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use forms_arch::MappedLayer;
use forms_baselines::IsaacLayer;
use forms_dnn::Network;
use forms_exec::{CrossbarEngine, Executor};
use forms_net::protocol::decode;
use forms_net::{Frame, NetConfig, NetServerExt};
use forms_serve::json::JsonValue;
use forms_serve::{Server, TelemetrySnapshot};
use forms_tensor::Tensor;

use checks::ResultLine;
use load::{quantile, OpenStep, Step};
use replay::{bitwise_equal, Totals};
use workload::{build_network, map, payload, ClosedLoop, Design, Load, StepTimes, Workload};

/// Set-ups at the start of each round of an untraced run; `setup_s` is
/// the median of these and the run's own set-up.
const SETUPS_PER_ROUND: usize = 3;
/// Images per reference forward of the correctness check.
const VERIFY_CHUNK: usize = 64;
/// An open-loop run is invalid when its sender's median lag behind the
/// arrival schedule exceeds this: a sender that is late on most sends no
/// longer follows the Poisson schedule, and the load drifts towards a
/// closed loop. The test is on the median because a stall of the host
/// shows in the p99 lag (203 ms in one run) while the sender catches up
/// at once and keeps its rate; that stall is charged to latency, which is
/// timed from the scheduled send.
const MAX_LAG_P50_MS: f64 = 5.0;
/// Time spent on each replay or kernel measurement of a traced run.
const TRACE_BUDGET: Duration = Duration::from_millis(1500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let schema = checks::schema(args.trace);
    let result = match workload::select(&args.workload) {
        Some(w) => run(&w, &args),
        None => Err(format!(
            "unknown workload `{}`; expected one of {:?}",
            args.workload,
            workload::NAMES
        )),
    };
    match result.and_then(|line| checks::check_line(&line, schema).map(|()| line)) {
        Ok(line) => {
            println!("{}", line.to_json(schema));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The steps of one run.
#[derive(Default)]
struct Steps {
    low: Step,
    main: Step,
    /// Open-loop workloads only: the closed-loop step `throughput_rps` is
    /// taken from.
    capacity: Option<Step>,
}

impl Steps {
    fn all(&self) -> impl Iterator<Item = &Step> {
        [Some(&self.low), Some(&self.main), self.capacity.as_ref()]
            .into_iter()
            .flatten()
    }

    /// Completed requests per second of the step that saturates the server.
    fn throughput_rps(&self) -> f64 {
        self.capacity.as_ref().unwrap_or(&self.main).goodput_rps()
    }
}

/// Rounds a run is split into: each round runs set-ups and then a slice of
/// every step, so each figure samples the host over the whole run.
const ROUNDS: u32 = 8;
/// Length of each step of the warm-up round, which runs before the first
/// round so that replica scratch buffers, connection threads and allocator
/// pools reach their steady size. Its replies are verified and counted as
/// attempted, but no figure is taken from them. With 400 ms the first
/// measured open-loop slice still ran slow (p99 46–208 ms against 17–28 ms
/// in later rounds) in four runs of six; with 2 s it did not.
const WARMUP: Duration = Duration::from_secs(2);

/// Runs the warm-up round and then the measured rounds, calling `setup`
/// [`SETUPS_PER_ROUND`] times at the start of each measured round. Returns
/// the measured steps and the warm-up steps.
fn drive(
    w: &Workload,
    addr: SocketAddr,
    args: &Args,
    next: &AtomicU64,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<(Steps, Steps), String> {
    let closed = |l: ClosedLoop, d| {
        load::closed_step(addr, w, args.seed, next, l.connections, l.in_flight, d)
    };
    let single = ClosedLoop {
        connections: 1,
        in_flight: 1,
    };
    let run_round = |round: u32, times: StepTimes, into: &mut Steps| -> Result<(), String> {
        into.low.merge(closed(single, times.low)?);
        match w.load {
            Load::Closed(l) => into.main.merge(closed(l, times.main)?),
            Load::Open { rps, capacity } => {
                let plan = OpenStep {
                    rate_rps: rps,
                    duration: times.main,
                };
                let open = load::open_step(addr, w, args.seed, next, plan, u64::from(round))?;
                into.main.merge(open);
                let saturated = closed(capacity, times.capacity)?;
                into.capacity
                    .get_or_insert_with(Step::default)
                    .merge(saturated);
            }
        }
        Ok(())
    };
    let mut warmup = Steps::default();
    let lead_in = StepTimes {
        low: WARMUP,
        main: WARMUP,
        capacity: WARMUP,
    };
    run_round(ROUNDS, lead_in, &mut warmup)?;
    let times = w.steps(args.seconds);
    let slice = StepTimes {
        low: times.low / ROUNDS,
        main: times.main / ROUNDS,
        capacity: times.capacity / ROUNDS,
    };
    let mut steps = Steps::default();
    for round in 0..ROUNDS {
        for _ in 0..SETUPS_PER_ROUND {
            setup()?;
        }
        run_round(round, slice, &mut steps)?;
    }
    Ok((steps, warmup))
}

fn run(w: &Workload, args: &Args) -> Result<ResultLine, String> {
    let builder = Server::builder().config(w.serve_config());
    builder.validate().map_err(|e| e.to_string())?;
    let net_config = NetConfig {
        // Deep enough that a connection never pushes back on the sender:
        // backpressure would turn the open loop into a closed one.
        max_in_flight: 4096,
        ..NetConfig::default()
    };
    net_config.validate().map_err(|e| e.to_string())?;
    let dims = w.input_dims;
    let setup_once = || -> Result<f64, String> {
        let t0 = Instant::now();
        let exec = map(w, &build_network(w))?;
        builder
            .run_net(&exec, &dims, &net_config, |_| t0.elapsed().as_secs_f64())
            .map(|(seconds, _)| seconds)
            .map_err(|e| format!("bind: {e}"))
    };
    let mut setup_s = Vec::new();
    let t0 = Instant::now();
    let net = build_network(w);
    let mut exec = map(w, &net)?;
    let next = AtomicU64::new(0);
    let (steps, telemetry) = builder
        .run_net(&exec, &dims, &net_config, |handle| {
            setup_s.push(t0.elapsed().as_secs_f64());
            // Traced runs report no set-up time, so they skip the repeats.
            drive(w, handle.addr(), args, &next, || {
                if !args.trace {
                    setup_s.push(setup_once()?);
                }
                Ok(())
            })
        })
        .map_err(|e| format!("bind: {e}"))?;
    let (steps, warmup) = steps?;

    let (lag_p50, lag_p99) = (lag_ms(&steps.main, 0.5), lag_ms(&steps.main, 0.99));
    if matches!(w.load, Load::Open { .. }) && lag_p50 > MAX_LAG_P50_MS {
        return Err(format!(
            "invalid run: the open-loop sender ran {lag_p50:.2} ms (median) behind its \
             schedule, over the {MAX_LAG_P50_MS} ms limit"
        ));
    }
    let replies: Vec<&load::Reply> = steps
        .all()
        .chain(warmup.all())
        .flat_map(|s| &s.replies)
        .collect();
    let attempted = replies.len() as u64;
    let failed = replies.iter().filter(|r| r.outcome.is_err()).count() as u64;
    if attempted == 0 {
        return Err("no request was sent".into());
    }

    // Correctness: every output, bitwise, against the reference executor.
    let verify_start = Instant::now();
    let images = verify(&mut exec, w, args.seed, &replies)?;
    let verify_s = verify_start.elapsed().as_secs_f64();
    let cycles: u64 = exec
        .layer_stats()
        .iter()
        .map(|s| MappedLayer::counts(s).cycles)
        .sum();
    let energy_pj: f64 = workload::energy_pj(&exec).iter().sum();
    cross_check(&mut exec, &net, w, args.seed)?;
    let serve_residual = checks::check_stages(&telemetry)?;

    let metrics = if args.trace {
        traced_metrics(
            w,
            &exec,
            &net,
            &steps,
            &telemetry,
            serve_residual,
            args.seed,
        )?
    } else {
        setup_s.sort_by(f64::total_cmp);
        let (main, low) = (steps.main.summary(w.slo_ms), steps.low.summary(w.slo_ms));
        vec![
            ("throughput_rps", steps.throughput_rps()),
            ("latency_p50_ms", main.p50_ms),
            ("low.latency_p50_ms", low.p50_ms),
            ("success_rate", 1.0 - failed as f64 / attempted as f64),
            ("slo_attainment", main.slo_attainment),
            ("sim_input_cycles_per_image", cycles as f64 / images as f64),
            ("sim_energy_nj_per_image", energy_pj / 1e3 / images as f64),
            ("peak_rss_mb", peak_rss_mb()?),
            ("setup_s", quantile(&setup_s, 0.5)),
        ]
    };
    eprintln!(
        "perfbench: {}: {attempted} requests ({failed} failed), {images} outputs \
         verified in {verify_s:.1} s; low step {} requests (p99 {:.3} ms), main step {} (p99 {:.3} ms), \
         capacity step {}; sender lag p50 {lag_p50:.3} ms, p99 {lag_p99:.3} ms",
        w.name,
        steps.low.replies.len(),
        steps.low.summary(w.slo_ms).p99_ms,
        steps.main.replies.len(),
        steps.main.summary(w.slo_ms).p99_ms,
        steps.capacity.as_ref().map_or(0, |s| s.replies.len()),
    );
    Ok(ResultLine {
        correct: true,
        attempted,
        failed,
        metrics,
    })
}

fn lag_ms(step: &Step, q: f64) -> f64 {
    let mut lag: Vec<f64> = step.lag_ns.iter().map(|&l| l as f64 / 1e6).collect();
    lag.sort_by(f64::total_cmp);
    quantile(&lag, q)
}

/// Stacks payloads `indices` into one `[n, c, h, w]` batch.
fn batch(w: &Workload, seed: u64, indices: impl Iterator<Item = u64>) -> Tensor {
    let data: Vec<f32> = indices.flat_map(|i| payload(w, seed, i)).collect();
    let n = data.len() / w.input_len();
    let [c, h, wd] = w.input_dims;
    Tensor::from_vec(data, &[n, c, h, wd])
}

/// Recomputes every answered request in process with
/// `Executor::forward_parallel` (pinned bitwise to `Executor::forward` by
/// the repository's determinism tests) and compares outputs bitwise.
/// Leaves the executor's statistics covering exactly the verified images.
fn verify<E: Design>(
    exec: &mut Executor<E>,
    w: &Workload,
    seed: u64,
    replies: &[&load::Reply],
) -> Result<usize, String> {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut ok: Vec<&load::Reply> = replies
        .iter()
        .copied()
        .filter(|r| r.outcome.is_ok())
        .collect();
    ok.sort_by_key(|r| r.index);
    if ok.windows(2).any(|p| p[0].index == p[1].index) {
        return Err("a payload index was answered twice".into());
    }
    exec.reset_stats();
    for chunk in ok.chunks(VERIFY_CHUNK) {
        let y = exec.forward_parallel(&batch(w, seed, chunk.iter().map(|r| r.index)), workers);
        let per = y.len() / chunk.len();
        let reference: HashMap<u64, &[f32]> = chunk
            .iter()
            .zip(y.data().chunks_exact(per))
            .map(|(r, row)| (r.index, row))
            .collect();
        checks::check_outputs(chunk, |i| reference[&i].to_vec())?;
    }
    Ok(ok.len())
}

/// Runs the first `max_batch` payloads through the per-sample
/// `Executor::forward` and through the replay, and checks that they agree
/// bitwise; that the replay's input cycles equal a count taken from the
/// input codes alone; and that its mean input cycles per activation equal
/// `Executor::layer_mean_input_cycles()`.
fn cross_check<E: Design>(
    exec: &mut Executor<E>,
    net: &Network,
    w: &Workload,
    seed: u64,
) -> Result<(), String> {
    if !replay::dense_rows(net) {
        return Err("a weight matrix has an all-zero row; the replay's counts assume none".into());
    }
    let x = batch(w, seed, 0..w.max_batch as u64);
    exec.reset_stats();
    let y = exec.forward(&x);
    let pass = replay::replay(
        exec,
        &mut net.clone().into_layers(),
        &x,
        &mut E::Scratch::default(),
    )?;
    if !bitwise_equal(y.data(), pass.output.data()) {
        return Err("replay output differs from Executor::forward".into());
    }
    let means = exec.layer_mean_input_cycles();
    for (k, (l, config)) in pass.layers.iter().zip(exec.layer_configs()).enumerate() {
        let rows = l.codes.len() / l.scales.len();
        let expected = replay::expected_cycles(&l.codes, rows, E::pack_shape(config));
        if l.counts.cycles != expected {
            return Err(format!(
                "L{k}: the kernel counted {} input cycles, the input codes need {expected}",
                l.counts.cycles
            ));
        }
        if means[k] != l.mean_input_cycles {
            return Err(format!(
                "L{k}: layer_mean_input_cycles() is {:?}, the replay measured {:?}",
                means[k], l.mean_input_cycles
            ));
        }
    }
    Ok(())
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// `Frame::encode` of a workload request and `protocol::decode` of a
/// workload response: `(encode_ns, decode_ns, request_bytes,
/// response_bytes)`.
fn codec(input: Vec<f32>, output: Vec<f32>) -> Result<(f64, f64, f64, f64), String> {
    let request = Frame::Request {
        id: 7,
        deadline_us: 0,
        input,
    };
    let response = Frame::Response {
        id: 7,
        latency_us: 1_000,
        output,
    };
    let (req_bytes, resp_bytes) = (request.encode(), response.encode());
    match decode(&resp_bytes) {
        Ok((frame, used)) if frame == response && used == resp_bytes.len() => {}
        other => return Err(format!("response frame does not round-trip: {other:?}")),
    }
    let budget = TRACE_BUDGET / 4;
    Ok((
        replay::mean_ns(budget, || request.encode()),
        replay::mean_ns(budget, || decode(std::hint::black_box(&resp_bytes))),
        req_bytes.len() as f64,
        resp_bytes.len() as f64,
    ))
}

fn ms(h: &forms_serve::telemetry::HistogramSnapshot, q: f64) -> f64 {
    h.quantile_ns(q) / 1e6
}

/// Nanoseconds per MVM of `design`'s L0 kernel and of its bit-plane
/// packing on `pass`'s codes.
fn kernel_and_pack<E: Design>(engine: &E, config: &E::Config, pass: &Totals) -> (f64, f64) {
    let l0 = &pass.last.as_ref().expect("measured").layers[0];
    let mvms = l0.scales.len() as f64;
    let rows = l0.codes.len() / l0.scales.len();
    let mut scratch = E::Scratch::default();
    let mut out = vec![0.0f32; l0.scales.len() * engine.output_len()];
    let kernel_ns = replay::mean_ns(TRACE_BUDGET / 2, || {
        engine.matmul_into(
            std::hint::black_box(&l0.codes),
            &l0.scales,
            &mut scratch,
            &mut out,
        )
    });
    let pack = replay::time_pack(&l0.codes, rows, E::pack_shape(config), TRACE_BUDGET / 4);
    (kernel_ns / mvms, pack / mvms)
}

#[allow(clippy::too_many_lines)]
fn traced_metrics<E: Design>(
    w: &Workload,
    exec: &Executor<E>,
    net: &Network,
    steps: &Steps,
    telemetry: &TelemetrySnapshot,
    serve_residual_ns: u64,
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let b1 = replay::measure(exec, net, &batch(w, seed, 0..1), TRACE_BUDGET)?;
    let bm = replay::measure(
        exec,
        net,
        &batch(w, seed, 0..w.max_batch as u64),
        TRACE_BUDGET,
    )?;
    checks::check_phases(&b1)?;
    checks::check_phases(&bm)?;

    let mut overhead: Vec<f64> = steps
        .main
        .replies
        .iter()
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.overhead_ns as f64 / 1e3)
        .collect();
    overhead.sort_by(f64::total_cmp);
    let output = steps
        .main
        .replies
        .iter()
        .find_map(|r| r.outcome.clone().ok())
        .ok_or("no completed request to shape the codec frames")?;
    let (encode_ns, decode_ns, req_bytes, resp_bytes) = codec(payload(w, seed, 0), output)?;
    let s = &telemetry.stages;

    let mut m: Vec<(&'static str, f64)> = vec![
        ("latency_p99_ms", steps.main.summary(w.slo_ms).p99_ms),
        ("low.latency_p99_ms", steps.low.summary(w.slo_ms).p99_ms),
        ("loadgen.lag_p99_ms", lag_ms(&steps.main, 0.99)),
        ("net.overhead_p50_us", quantile(&overhead, 0.5)),
        ("net.overhead_p99_us", quantile(&overhead, 0.99)),
        ("net.encode_request_ns", encode_ns),
        ("net.decode_response_ns", decode_ns),
        ("net.request_bytes", req_bytes),
        ("net.response_bytes", resp_bytes),
        ("serve.queue_wait_p50_ms", ms(&s.queue_wait, 0.5)),
        ("serve.queue_wait_p99_ms", ms(&s.queue_wait, 0.99)),
        ("serve.batch_form_p50_ms", ms(&s.batch_form, 0.5)),
        ("serve.execute_p50_ms", ms(&s.execute, 0.5)),
        ("serve.execute_p99_ms", ms(&s.execute, 0.99)),
        ("serve.respond_p99_us", ms(&s.respond, 0.99) * 1e3),
        ("serve.shed", telemetry.shed as f64),
        ("serve.expired", telemetry.expired as f64),
        ("exec.forward_ms.b1", b1.per_pass(b1.session_forward) / 1e6),
        (
            "exec.forward_ms.bmax",
            bm.per_pass(bm.session_forward) / 1e6,
        ),
        (
            "exec.digital_ns_per_image",
            bm.per_image(bm.session_forward - bm.session_layers.iter().sum::<u64>()),
        ),
        (
            "exec.kernel_share",
            bm.replay.iter().map(|p| p.kernel).sum::<u64>() as f64 / bm.replay_forward as f64,
        ),
    ];

    // Per weight layer: the result line carries L0 and L1 (every workload
    // has them); the report on stderr carries every layer.
    let mut report = Vec::new();
    let engines = exec.engines();
    for k in 0..engines.len() {
        let (p, counts, mvms) = (&bm.replay[k], bm.counts[k], bm.mvms[k] as f64);
        let layer = &bm.last.as_ref().expect("measured").layers[k];
        let rows = layer.codes.len() / layer.scales.len();
        let pack = replay::time_pack(
            &layer.codes,
            rows,
            E::pack_shape(&exec.layer_configs()[k]),
            TRACE_BUDGET / 4,
        );
        let (wall, served) = telemetry
            .layers
            .get(k)
            .map_or((0, 0), |a| (a.wall_ns, a.mvms));
        let values = [
            (
                "exec.L{k}.wall_ns_per_mvm",
                wall as f64 / served.max(1) as f64,
            ),
            ("exec.L{k}.im2col_ns_per_image", bm.per_image(p.lower)),
            ("exec.L{k}.quantize_ns_per_image", bm.per_image(p.quantize)),
            (
                "exec.L{k}.residual_ns_per_image",
                bm.per_image(p.wall - p.lower - p.quantize - p.kernel),
            ),
            ("kernel.L{k}.ns_per_mvm.bmax", bm.per_pass(p.kernel) / mvms),
            (
                "kernel.L{k}.ns_per_mvm.b1",
                b1.per_pass(b1.replay[k].kernel) / b1.mvms[k] as f64,
            ),
            (
                "kernel.L{k}.input_cycles_per_mvm",
                counts.cycles as f64 / mvms,
            ),
            (
                "kernel.L{k}.adc_conversions_per_mvm",
                counts.adc_conversions as f64 / mvms,
            ),
            (
                "kernel.L{k}.zero_skip_ratio",
                counts.skipped as f64 / counts.activations.max(1) as f64,
            ),
            ("reram.L{k}.pack_ns_per_mvm", pack / mvms),
        ];
        for (pattern, value) in values {
            let name = pattern.replace("{k}", &k.to_string());
            if let Some(def) = checks::PER_LAYER.iter().find(|d| d.name == name) {
                m.push((def.name, value));
            }
            report.push((name, JsonValue::Number(value)));
        }
    }

    // FORMS vs ISAAC on this workload's L0, same codes, both batch sizes.
    let m0 = &workload::weight_matrices(net)[0];
    let forms = MappedLayer::map_matrix(m0, &w.forms).map_err(|e| e.to_string())?;
    let isaac = IsaacLayer::map_matrix(m0, &w.isaac).map_err(|e| e.to_string())?;
    let (f1, fp1) = kernel_and_pack(&forms, &w.forms, &b1);
    let (fm, fpm) = kernel_and_pack(&forms, &w.forms, &bm);
    let (i1, ip1) = kernel_and_pack(&isaac, &w.isaac, &b1);
    let (im, ipm) = kernel_and_pack(&isaac, &w.isaac, &bm);
    m.extend([
        ("cmp.L0.forms.ns_per_mvm.b1", f1),
        ("cmp.L0.forms.ns_per_mvm.bmax", fm),
        ("cmp.L0.isaac.ns_per_mvm.b1", i1),
        ("cmp.L0.isaac.ns_per_mvm.bmax", im),
        ("cmp.L0.forms.pack_ns_per_mvm.b1", fp1),
        ("cmp.L0.forms.pack_ns_per_mvm.bmax", fpm),
        ("cmp.L0.isaac.pack_ns_per_mvm.b1", ip1),
        ("cmp.L0.isaac.pack_ns_per_mvm.bmax", ipm),
        ("cmp.L0.forms_over_isaac.b1", f1 / i1),
        ("cmp.L0.forms_over_isaac.bmax", fm / im),
        ("cmp.L0.forms.batch_gain", f1 / fm),
        ("cmp.L0.isaac.batch_gain", i1 / im),
        // Every trace measurement runs outside the server, after the load,
        // so the traced load runs exactly the untraced code.
        ("trace.overhead_ratio", 1.0),
    ]);

    let telescoping = JsonValue::object(vec![
        (
            "serve_execute_unattributed_ns",
            JsonValue::Number(serve_residual_ns as f64),
        ),
        (
            "serve_layer_share_of_execute",
            JsonValue::Number(
                telemetry.layers.iter().map(|l| l.wall_ns).sum::<u64>() as f64
                    / s.execute.sum_ns.max(1) as f64,
            ),
        ),
        (
            "replay_phase_gap_max",
            JsonValue::Number(
                bm.replay
                    .iter()
                    .chain(&b1.replay)
                    .map(|p| (p.wall as f64 - p.sum() as f64).abs() / p.wall as f64)
                    .fold(0.0, f64::max),
            ),
        ),
        (
            "phase_tolerance",
            JsonValue::Number(checks::PHASE_TOLERANCE),
        ),
    ]);
    let layers = JsonValue::Object(report.into_iter().collect());
    let line: Vec<(&str, JsonValue)> = m
        .iter()
        .map(|(n, v)| {
            let def = checks::PER_LAYER.iter().find(|d| d.name == *n);
            let text = |f: fn(&checks::Metric) -> &'static str| {
                JsonValue::String(def.map_or("", f).into())
            };
            let entry = JsonValue::object(vec![
                ("value", JsonValue::Number(*v)),
                ("unit", text(|d| d.unit)),
                ("better", text(|d| d.better.as_str())),
                ("feeds", text(|d| d.feeds)),
            ]);
            (*n, entry)
        })
        .collect();
    eprintln!(
        "{}",
        JsonValue::object(vec![
            ("workload", JsonValue::String(w.name.into())),
            ("metrics", JsonValue::object(line)),
            ("all_layers", layers),
            ("telescoping", telescoping),
        ])
        .pretty()
    );
    Ok(m)
}
