//! Load generation over loopback TCP: closed-loop pipelined clients and an
//! open-loop Poisson sender/receiver pair. Every request gets a distinct
//! seeded payload; every reply is kept for the post-run correctness check.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use forms_net::{ClientConfig, NetClient, WireStatus};
use forms_rng::StdRng;
use forms_workloads::poisson_arrivals;

use crate::workload::{payload, Workload};

/// One resolved request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Payload index (regenerates the input).
    pub index: u64,
    /// Client-observed latency: from the send (closed loop) or from the
    /// scheduled send time (open loop) to the reply.
    pub latency_ns: u64,
    /// Client latency from the actual send, minus the server-reported
    /// latency: what the transport and the client library add.
    pub overhead_ns: i64,
    /// The output, or the status the server rejected the request with.
    pub outcome: Result<Vec<f32>, WireStatus>,
}

/// What one load step produced.
#[derive(Clone, Debug, Default)]
pub struct Step {
    /// Every reply, in no particular order.
    pub replies: Vec<Reply>,
    /// From the step's start to its last reply.
    pub span: Duration,
    /// How late each send ran against its schedule. In a closed loop the
    /// schedule is "send when a slot frees", so this is the turnaround
    /// from a reply to the next send.
    pub lag_ns: Vec<u64>,
}

/// A step's end-to-end figures.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median latency of completed requests.
    pub p50_ms: f64,
    /// 99th-percentile latency of completed requests.
    pub p99_ms: f64,
    /// Share of attempted requests completed within the latency limit.
    pub slo_attainment: f64,
}

impl Step {
    /// The step's figures over every one of its replies. A failed request
    /// counts against `slo_attainment` and is left out of the percentiles.
    pub fn summary(&self, slo_ms: f64) -> Summary {
        let mut latencies: Vec<f64> = self
            .replies
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect();
        latencies.sort_by(f64::total_cmp);
        Summary {
            p50_ms: quantile(&latencies, 0.5),
            p99_ms: quantile(&latencies, 0.99),
            slo_attainment: latencies.iter().filter(|&&l| l <= slo_ms).count() as f64
                / self.replies.len().max(1) as f64,
        }
    }

    /// Completed requests per second over the whole step.
    pub fn goodput_rps(&self) -> f64 {
        let completed = self.replies.iter().filter(|r| r.outcome.is_ok()).count();
        completed as f64 / self.span.as_secs_f64()
    }

    /// Folds another step's requests into this one.
    pub fn merge(&mut self, other: Step) {
        self.replies.extend(other.replies);
        self.lag_ns.extend(other.lag_ns);
        self.span += other.span;
    }
}

/// Nearest-rank quantile of sorted values (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    NetClient::connect(
        addr,
        ClientConfig {
            request_timeout: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect: {e}"))
}

/// Runs a closed-loop step: `connections` client threads (one connection
/// each) keep `in_flight` requests outstanding until `duration` has
/// passed, then drain. The step's span runs to the last reply. Payload
/// indices are handed out from `next`.
///
/// # Errors
///
/// Any transport or protocol failure of a client.
pub fn closed_step(
    addr: SocketAddr,
    w: &Workload,
    seed: u64,
    next: &AtomicU64,
    connections: usize,
    in_flight: usize,
    duration: Duration,
) -> Result<Step, String> {
    let start = Instant::now();
    let end = start + duration;
    let parts: Vec<Result<Step, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| scope.spawn(|| closed_connection(addr, w, seed, next, in_flight, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut step = Step::default();
    for part in parts {
        step.merge(part?);
    }
    step.span = start.elapsed();
    Ok(step)
}

fn closed_connection(
    addr: SocketAddr,
    w: &Workload,
    seed: u64,
    next: &AtomicU64,
    in_flight: usize,
    end: Instant,
) -> Result<Step, String> {
    let mut client = connect(addr)?;
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::with_capacity(in_flight);
    let mut step = Step::default();
    let mut freed: Option<Instant> = None;
    loop {
        while pending.len() < in_flight && Instant::now() < end {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let input = payload(w, seed, index);
            let sent = Instant::now();
            if let Some(at) = freed.take() {
                step.lag_ns.push(ns(sent - at));
            }
            client
                .send(&input, None)
                .map_err(|e| format!("send: {e}"))?;
            pending.push_back((index, sent));
        }
        let Some((index, sent)) = pending.pop_front() else {
            return Ok(step);
        };
        let reply = client.recv().map_err(|e| format!("recv: {e}"))?;
        let now = Instant::now();
        freed = Some(now);
        let latency = ns(now - sent);
        step.replies.push(Reply {
            index,
            latency_ns: latency,
            overhead_ns: latency as i64 - ns(reply.server_latency) as i64,
            outcome: reply.outcome,
        });
    }
}

/// One open-loop step: Poisson arrivals at `rate_rps` for `duration`.
#[derive(Clone, Copy, Debug)]
pub struct OpenStep {
    /// Offered rate.
    pub rate_rps: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
}

/// Runs an open-loop step over one connection split into a sender thread
/// and a receiver thread. The arrival schedule (from the seed and `round`)
/// and the payloads are drawn before the step starts. Latency is timed from each
/// request's scheduled send time, so a stalled sender shows up as latency
/// rather than as a lighter load.
///
/// # Errors
///
/// Any transport or protocol failure.
pub fn open_step(
    addr: SocketAddr,
    w: &Workload,
    seed: u64,
    next: &AtomicU64,
    plan: OpenStep,
    round: u64,
) -> Result<Step, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x0A11 << 32 | round));
    let expected = (plan.rate_rps * plan.duration.as_secs_f64() * 1.5).ceil() as usize + 16;
    let mut offsets = poisson_arrivals(&mut rng, plan.rate_rps, expected);
    offsets.retain(|&t| t < plan.duration);
    let first = next.fetch_add(offsets.len() as u64, Ordering::Relaxed);
    let payloads: Vec<Vec<f32>> = (0..offsets.len() as u64)
        .map(|k| payload(w, seed, first + k))
        .collect();
    let (mut sender, mut receiver) = connect(addr)?.split().map_err(|e| format!("split: {e}"))?;
    let start = Instant::now() + Duration::from_millis(1);
    let offsets = &offsets;
    let (sends, got) = std::thread::scope(|scope| {
        let send = scope.spawn(move || -> Result<Vec<(u64, Instant)>, String> {
            let mut sends = Vec::with_capacity(offsets.len());
            for (offset, input) in offsets.iter().zip(&payloads) {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                sender.send(input, None).map_err(|e| format!("send: {e}"))?;
                sends.push((ns(sent.saturating_duration_since(due)), sent));
            }
            Ok(sends)
        });
        let recv = scope.spawn(move || -> Result<Vec<(Instant, Reply)>, String> {
            let mut got = Vec::with_capacity(offsets.len());
            for (k, offset) in offsets.iter().enumerate() {
                let reply = receiver.recv().map_err(|e| format!("recv: {e}"))?;
                let now = Instant::now();
                got.push((
                    now,
                    Reply {
                        index: first + k as u64,
                        latency_ns: ns(now.saturating_duration_since(start + *offset)),
                        overhead_ns: -(ns(reply.server_latency) as i64),
                        outcome: reply.outcome,
                    },
                ));
            }
            Ok(got)
        });
        let sends = send
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".into()));
        let got = recv
            .join()
            .unwrap_or_else(|_| Err("receiver thread panicked".into()));
        (sends, got)
    });
    let (sends, got) = (sends?, got?);
    Ok(Step {
        span: Instant::now().saturating_duration_since(start),
        lag_ns: sends.iter().map(|(lag, _)| *lag).collect(),
        replies: got
            .into_iter()
            .zip(&sends)
            .map(|((at, mut reply), (_, sent))| {
                reply.overhead_ns += ns(at.saturating_duration_since(*sent)) as i64;
                reply
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(index: u64, latency_ms: u64, ok: bool) -> Reply {
        Reply {
            index,
            latency_ns: latency_ms * 1_000_000,
            overhead_ns: 0,
            outcome: if ok {
                Ok(vec![0.0])
            } else {
                Err(WireStatus::Shed)
            },
        }
    }

    /// A short burst of slow replies and one failure, among many fast
    /// ones, lower `slo_attainment` below 1 and set the p99.
    #[test]
    fn summary_counts_every_reply_against_the_limit() {
        let mut step = Step::default();
        step.replies = (0..400).map(|i| reply(i, 10, true)).collect();
        for r in &mut step.replies[200..206] {
            r.latency_ns = 80_000_000;
        }
        step.replies[300].outcome = Err(WireStatus::Shed);
        let s = step.summary(50.0);
        assert_eq!(s.slo_attainment, 393.0 / 400.0);
        assert_eq!(s.p50_ms, 10.0);
        assert_eq!(s.p99_ms, 80.0);

        let clean = Step {
            replies: (0..10).map(|i| reply(i, 10, true)).collect(),
            ..Step::default()
        };
        assert_eq!(clean.summary(50.0).slo_attainment, 1.0);
    }

    #[test]
    fn goodput_counts_completed_replies_over_the_span() {
        let mut step = Step {
            replies: vec![reply(0, 1, true), reply(1, 1, false), reply(2, 1, true)],
            span: Duration::from_millis(500),
            ..Step::default()
        };
        assert_eq!(step.goodput_rps(), 4.0);
        step.merge(Step {
            replies: vec![reply(3, 1, true)],
            span: Duration::from_millis(500),
            ..Step::default()
        });
        assert_eq!(step.goodput_rps(), 3.0);
    }
}
