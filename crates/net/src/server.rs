//! The blocking TCP front-end: N connections multiplexed onto one
//! `forms-serve` admission queue.
//!
//! [`NetServerExt`] gives [`ServerBuilder`] two network-facing modes,
//! [`run_net`](NetServerExt::run_net) and
//! [`run_net_resilient`](NetServerExt::run_net_resilient), which wrap
//! [`ServerBuilder::run`] and [`ServerBuilder::run_resilient`] with a
//! loopback-friendly listener:
//!
//! ```text
//!  TcpListener ── acceptor ──► per-connection reader ──► sync_channel ──► writer
//!                                │  submit() → Ticket        (bounded        │
//!                                ▼                            in-flight)     ▼
//!                            ServiceHandle ◄──────────────── Ticket::wait ── TcpStream
//! ```
//!
//! Each accepted connection gets a **reader** thread (decodes frames,
//! submits to the admission queue) and a **writer** thread (waits tickets
//! in request order, encodes responses). Between them sits a bounded
//! [`mpsc::sync_channel`]: when `max_in_flight` requests from one
//! connection are unresolved, the reader blocks, the kernel socket buffer
//! fills, and the client's `write` stalls — backpressure all the way to
//! the sender without unbounded buffering anywhere.
//!
//! Rejections are *statuses, not disconnects*: a shed, expired, or
//! degraded request comes back as an Error frame with a typed
//! [`WireStatus`](crate::WireStatus) on the same live connection. Only protocol violations (bad magic, oversized lengths,
//! truncated frames) drop the connection.
//!
//! Shutdown is a drop guard mirroring the serving core's: when the client
//! closure returns, the guard flips the shutdown flag, nudges the
//! blocking `accept` with a loopback dummy connection, and readers stop
//! admitting — but every in-flight ticket is still waited and its
//! response written before the connection closes, so a request that made
//! it into the queue always gets a frame back.

use std::io::BufWriter;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::Scope;
use std::time::{Duration, Instant};

use forms_exec::{CrossbarEngine, Executor, FaultableEngine};
use forms_serve::{
    FaultInjector, ServeError, ServerBuilder, ServiceHandle, TelemetrySnapshot, Ticket,
};

use crate::protocol::{latency_to_us, read_frame, status_of, write_frame, Frame, WireError};

/// Front-end sizing and timeout policy. Purely transport-level: the
/// wrapped serving core is sized by the builder's
/// [`ServeConfig`](forms_serve::ServeConfig), so a knob like the deadline
/// or queue bound exists in exactly one place.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Address to bind; port 0 picks an ephemeral port (the bound address
    /// is reported by [`NetHandle::addr`]).
    pub bind: SocketAddr,
    /// Connections accepted concurrently; further accepts are closed
    /// immediately until a slot frees.
    pub max_connections: usize,
    /// Unresolved requests allowed per connection before its reader
    /// blocks (the backpressure window).
    pub max_in_flight: usize,
    /// Socket read timeout — the poll granularity at which readers check
    /// the shutdown flag and the idle clock.
    pub read_timeout: Duration,
    /// Drop a connection that has sent no frame for this long; `None`
    /// keeps idle connections open until shutdown.
    pub idle_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_connections: 64,
            max_in_flight: 32,
            read_timeout: Duration::from_millis(50),
            idle_timeout: None,
        }
    }
}

/// A contradiction or impossibility in a [`NetConfig`], reported by
/// [`NetConfig::validate`] before any socket is bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetConfigError {
    /// `max_connections` is zero — every accept would be refused.
    ZeroConnections,
    /// `max_in_flight` is zero — a reader could never admit a request.
    ZeroInFlight,
    /// `read_timeout` is zero — readers would spin instead of polling.
    ZeroReadTimeout,
    /// The idle timeout is shorter than the read timeout, so the very
    /// first quiet poll tick would already count as "idle too long" and
    /// drop the connection.
    IdleShorterThanPoll {
        /// The configured idle timeout, in microseconds.
        idle_us: u128,
        /// The configured read timeout, in microseconds.
        read_us: u128,
    },
}

impl std::fmt::Display for NetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroConnections => write!(f, "max_connections must be positive"),
            Self::ZeroInFlight => write!(f, "max_in_flight must be positive"),
            Self::ZeroReadTimeout => write!(f, "read_timeout must be positive"),
            Self::IdleShorterThanPoll { idle_us, read_us } => write!(
                f,
                "idle timeout {idle_us}µs is shorter than the {read_us}µs read poll, \
                 so every idle connection would drop at its first quiet tick"
            ),
        }
    }
}

impl std::error::Error for NetConfigError {}

impl NetConfig {
    /// Rejects impossible or contradictory front-end settings with a
    /// typed error (the serving core's knobs are validated separately by
    /// [`ServerBuilder::validate`]).
    ///
    /// # Errors
    ///
    /// The first [`NetConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), NetConfigError> {
        if self.max_connections == 0 {
            return Err(NetConfigError::ZeroConnections);
        }
        if self.max_in_flight == 0 {
            return Err(NetConfigError::ZeroInFlight);
        }
        if self.read_timeout.is_zero() {
            return Err(NetConfigError::ZeroReadTimeout);
        }
        if let Some(idle) = self.idle_timeout {
            if idle < self.read_timeout {
                return Err(NetConfigError::IdleShorterThanPoll {
                    idle_us: idle.as_micros(),
                    read_us: self.read_timeout.as_micros(),
                });
            }
        }
        Ok(())
    }
}

/// The client closure's view of the running front-end.
#[derive(Clone, Debug)]
pub struct NetHandle {
    addr: SocketAddr,
    service: ServiceHandle,
    active: Arc<AtomicUsize>,
}

impl NetHandle {
    /// The bound listen address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process handle the front-end multiplexes onto — usable for
    /// hybrid workloads that mix socket and in-process submissions.
    pub fn service(&self) -> &ServiceHandle {
        &self.service
    }

    /// Current telemetry snapshot of the wrapped service.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.service.telemetry()
    }

    /// Connections currently being served (racy snapshot).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }
}

/// Network-facing serving modes for [`ServerBuilder`] — the same builder
/// that launches in-process serving grows [`run_net`](Self::run_net) and
/// [`run_net_resilient`](Self::run_net_resilient) when `forms-net` is in
/// scope, so every mode shares one configuration surface.
pub trait NetServerExt {
    /// Runs the serving core and a TCP front-end over it for the duration
    /// of `client`, then drains both.
    ///
    /// The closure may connect [`NetClient`](crate::NetClient)s to
    /// [`NetHandle::addr`] (from threads it spawns) and/or submit
    /// in-process through [`NetHandle::service`]. On return, the listener
    /// shuts down, in-flight requests drain to their connections, and the
    /// final telemetry snapshot is returned alongside the closure's
    /// result.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the listen socket cannot be created; the
    /// service is not started in that case.
    ///
    /// # Panics
    ///
    /// As [`ServerBuilder::run`] (zero replicas/capacity/batch), plus if
    /// `net.max_connections` or `net.max_in_flight` is zero.
    fn run_net<E, R>(
        &self,
        executor: &Executor<E>,
        sample_dims: &[usize],
        net: &NetConfig,
        client: impl FnOnce(&NetHandle) -> R,
    ) -> std::io::Result<(R, TelemetrySnapshot)>
    where
        E: CrossbarEngine,
        E::Stats: Sync;

    /// The resilient sibling of [`run_net`](Self::run_net): wraps
    /// [`ServerBuilder::run_resilient`], so the client closure can poison
    /// replicas while socket traffic is in flight and watch `Degraded`
    /// surface as wire statuses.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the listen socket cannot be created.
    ///
    /// # Panics
    ///
    /// As [`ServerBuilder::run_resilient`], plus if `net.max_connections`
    /// or `net.max_in_flight` is zero.
    fn run_net_resilient<E, R>(
        &self,
        pristine: &Executor<E>,
        sample_dims: &[usize],
        net: &NetConfig,
        client: impl FnOnce(&NetHandle, &FaultInjector<'_>) -> R,
    ) -> std::io::Result<(R, TelemetrySnapshot)>
    where
        E: FaultableEngine,
        E::Stats: Sync;
}

impl NetServerExt for ServerBuilder {
    fn run_net<E, R>(
        &self,
        executor: &Executor<E>,
        sample_dims: &[usize],
        net: &NetConfig,
        client: impl FnOnce(&NetHandle) -> R,
    ) -> std::io::Result<(R, TelemetrySnapshot)>
    where
        E: CrossbarEngine,
        E::Stats: Sync,
    {
        let listener = bind(net)?;
        Ok(self.run(executor, sample_dims, |service| {
            front_end(&listener, service, net, client)
        }))
    }

    fn run_net_resilient<E, R>(
        &self,
        pristine: &Executor<E>,
        sample_dims: &[usize],
        net: &NetConfig,
        client: impl FnOnce(&NetHandle, &FaultInjector<'_>) -> R,
    ) -> std::io::Result<(R, TelemetrySnapshot)>
    where
        E: FaultableEngine,
        E::Stats: Sync,
    {
        let listener = bind(net)?;
        Ok(
            self.run_resilient(pristine, sample_dims, |service, injector| {
                front_end(&listener, service, net, |handle| client(handle, injector))
            }),
        )
    }
}

fn bind(config: &NetConfig) -> std::io::Result<TcpListener> {
    assert!(config.max_connections > 0, "need at least one connection");
    assert!(
        config.max_in_flight > 0,
        "in-flight window must be positive"
    );
    TcpListener::bind(config.bind)
}

/// Begins listener shutdown when dropped (even if the client closure
/// panics): flips the shutdown flag, switches the listener to
/// non-blocking so the acceptor can tell "backlog empty" from "waiting",
/// and wakes the blocking `accept` with a throwaway loopback connection.
/// The acceptor then drains connections already in the kernel backlog —
/// abandoning them would reset peers that connected before shutdown —
/// and exits at the first empty accept.
struct ListenerGuard<'a> {
    shutdown: &'a AtomicBool,
    listener: &'a TcpListener,
    addr: SocketAddr,
}

impl Drop for ListenerGuard<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.listener.set_nonblocking(true);
        // `accept` has no portable timeout, and switching to non-blocking
        // does not wake a thread already parked in it; the throwaway
        // connection does. If the connect fails the listener is already
        // gone, which is fine.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Accept loop plus per-connection threads, scoped so every handler joins
/// before the wrapped service begins its own drain.
fn front_end<R>(
    listener: &TcpListener,
    service: &ServiceHandle,
    config: &NetConfig,
    client: impl FnOnce(&NetHandle) -> R,
) -> R {
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let shutdown = AtomicBool::new(false);
    let active = Arc::new(AtomicUsize::new(0));
    let handle = NetHandle {
        addr,
        service: service.clone(),
        active: Arc::clone(&active),
    };
    std::thread::scope(|scope| {
        let shutdown = &shutdown;
        scope.spawn({
            let active = Arc::clone(&active);
            move || acceptor(listener, scope, service, config, shutdown, active)
        });
        let guard = ListenerGuard {
            shutdown,
            listener,
            addr,
        };
        let result = client(&handle);
        drop(guard);
        result
    })
}

/// Accepts connections until shutdown, spawning each handler into the
/// enclosing scope (so the scope's exit joins them all).
fn acceptor<'scope>(
    listener: &TcpListener,
    scope: &'scope Scope<'scope, '_>,
    service: &'scope ServiceHandle,
    config: &'scope NetConfig,
    shutdown: &'scope AtomicBool,
    active: Arc<AtomicUsize>,
) {
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            // Non-blocking accept on an empty backlog: only reachable
            // after the shutdown guard flipped the listener, and it means
            // every pre-shutdown connection has been drained.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(_) => continue,
        };
        if active.load(Ordering::Relaxed) >= config.max_connections {
            // Over capacity: refuse at the transport level. The client's
            // reconnect backoff handles retry pacing.
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        active.fetch_add(1, Ordering::Relaxed);
        let active = Arc::clone(&active);
        scope.spawn(move || {
            handle_connection(stream, service, config, shutdown);
            active.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

/// Work item travelling from a connection's reader to its writer.
enum ConnItem {
    /// An admitted request: wait the ticket, then write the outcome.
    Ticket { id: u64, ticket: Ticket },
    /// A request rejected at admission: write the status immediately.
    Reject { id: u64, err: ServeError },
    /// A telemetry request: snapshot and write.
    Telemetry { id: u64 },
}

/// One connection: split reader/writer around a bounded channel.
fn handle_connection(
    stream: TcpStream,
    service: &ServiceHandle,
    config: &NetConfig,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.read_timeout)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::sync_channel::<ConnItem>(config.max_in_flight);
    // Set by the writer on a send failure so the reader stops admitting
    // requests whose responses could never be delivered.
    let dead = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let dead = &dead;
        let writer = scope.spawn(move || write_loop(write_half, rx, service, dead));
        read_loop(stream, tx, service, config, shutdown, dead);
        // Dropping `tx` (moved into read_loop) closed the channel; the
        // writer drains remaining tickets and exits.
        let _ = writer.join();
    });
}

/// Decodes frames and feeds the writer until EOF, shutdown, idle timeout,
/// a protocol violation, or writer death.
fn read_loop(
    mut stream: TcpStream,
    tx: mpsc::SyncSender<ConnItem>,
    service: &ServiceHandle,
    config: &NetConfig,
    shutdown: &AtomicBool,
    dead: &AtomicBool,
) {
    let mut last_frame = Instant::now();
    loop {
        if dead.load(Ordering::Acquire) {
            return;
        }
        // During shutdown the reader keeps consuming frames the peer
        // already sent — abandoning them unread would turn the close into
        // a TCP reset, destroying responses still in flight — and exits
        // at the first quiet read-timeout tick.
        let draining = shutdown.load(Ordering::Acquire);
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF: the peer is done.
            Ok(None) => return,
            Err(WireError::Timeout) => {
                if draining
                    || config
                        .idle_timeout
                        .is_some_and(|limit| last_frame.elapsed() >= limit)
                {
                    return;
                }
                continue;
            }
            // Protocol violation or transport failure: the stream can no
            // longer be framed, so the connection must drop.
            Err(_) => return,
        };
        last_frame = Instant::now();
        let item = match frame {
            Frame::Request {
                id,
                deadline_us,
                input,
            } => {
                let submitted = if deadline_us == 0 {
                    service.submit(input)
                } else {
                    service.submit_with_deadline(input, Duration::from_micros(deadline_us))
                };
                match submitted {
                    Ok(ticket) => ConnItem::Ticket { id, ticket },
                    Err(err) => ConnItem::Reject { id, err },
                }
            }
            Frame::TelemetryRequest { id } => ConnItem::Telemetry { id },
            // Server-bound streams carry only requests; a response-kind
            // frame is a protocol violation.
            Frame::Response { .. } | Frame::Error { .. } | Frame::Telemetry { .. } => return,
        };
        // Blocks when max_in_flight items are unresolved — the
        // backpressure window. Send fails only after the writer exited.
        if tx.send(item).is_err() {
            return;
        }
    }
}

/// Resolves work items in request order and writes one frame per item.
fn write_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<ConnItem>,
    service: &ServiceHandle,
    dead: &AtomicBool,
) {
    let mut writer = BufWriter::new(stream);
    let mut scratch = Vec::new();
    for item in &rx {
        let frame = match item {
            ConnItem::Ticket { id, ticket } => match ticket.wait() {
                Ok(response) => Frame::Response {
                    id,
                    latency_us: latency_to_us(response.latency),
                    output: response.output,
                },
                Err(err) => error_frame(id, err),
            },
            ConnItem::Reject { id, err } => error_frame(id, err),
            ConnItem::Telemetry { id } => Frame::Telemetry {
                id,
                json: service.telemetry().to_json().pretty(),
            },
        };
        if write_frame(&mut writer, &frame, &mut scratch).is_err() {
            dead.store(true, Ordering::Release);
            // Keep draining: every remaining ticket must still be waited
            // so its slot resolves, even though the peer is gone.
            for item in rx.iter() {
                if let ConnItem::Ticket { ticket, .. } = item {
                    let _ = ticket.wait();
                }
            }
            return;
        }
    }
}

/// Encodes a serving-layer rejection as a typed Error frame.
fn error_frame(id: u64, err: ServeError) -> Frame {
    let (status, expected, got) = status_of(err);
    Frame::Error {
        id,
        status,
        expected,
        got,
    }
}
