//! The router proper: a front-end listener speaking SPN1 to clients
//! and fanning `Infer` requests over the backend pool.
//!
//! Threading mirrors `spn-server` (everything blocking): one accept
//! thread, one thread per client connection, plus one health-prober
//! thread. A client connection handles one request at a time: decode
//! → pick replicas off the ring → forward with failover → write the
//! response. `Ping`, `Stats` and `Shutdown` are answered locally —
//! `Stats` returns the router's own telemetry document and `Shutdown`
//! drains the router without touching the backends.
//!
//! Failover contract (inference is pure, so a retry can never
//! double-apply): an attempt moves to the next replica on connect
//! failure, a closed or timed-out connection, or a backend that
//! answers `ShuttingDown`/`ServerBusy`. Every other backend status is
//! a *typed verdict about the request itself* (unknown model, shape
//! mismatch, …) and is passed through to the client unchanged. A
//! request fails only when every replica is exhausted.

use crate::conn::{read_full, ReadOutcome};
use crate::health::HealthPolicy;
use crate::metrics::RouterMetrics;
use crate::pool::Backend;
use crate::ring::HashRing;
use parking_lot::{Condvar, Mutex};
use spn_server::client::ClientError;
use spn_server::protocol::{
    parse_header, read_frame, write_frame, Frame, InferRequest, Opcode, Status, WireError,
    HEADER_LEN,
};
use spn_telemetry::{SpanKind, TelemetrySnapshot, TraceCollector, TELEMETRY_SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Backend addresses (`host:port`), each a running `spn-server`.
    pub backends: Vec<String>,
    /// Replicas per model (K): each model is placed on the first K
    /// distinct backends met clockwise on the ring.
    pub replication: usize,
    /// Active health probing.
    pub health: HealthPolicy,
    /// In-flight request bound per backend; attempts past it skip to
    /// the next replica.
    pub max_inflight_per_backend: u64,
    /// TCP dial budget per forwarding attempt.
    pub connect_timeout: Duration,
    /// Read/write budget per forwarded round trip (`None` = no
    /// bound). A backend that overruns is treated as failed and the
    /// request fails over.
    pub rpc_timeout: Option<Duration>,
    /// Drop pooled backend connections idle longer than this
    /// (`None` = pool forever). Backends reap their side of idle
    /// sockets — notably the reactor engine's idle timeout — so the
    /// router expiring first turns would-be `ConnectionClosed`
    /// retries into ordinary fresh dials.
    pub pool_idle_ttl: Option<Duration>,
    /// How often blocked client-side reads wake to check shutdown.
    pub read_poll: Duration,
    /// Live span collector (`None` = tracing off); `route-pick` and
    /// `backend-rpc` spans land on the router track.
    pub trace: Option<Arc<TraceCollector>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            replication: 2,
            health: HealthPolicy::default(),
            max_inflight_per_backend: 1024,
            connect_timeout: Duration::from_millis(500),
            rpc_timeout: Some(Duration::from_secs(30)),
            pool_idle_ttl: Some(Duration::from_secs(30)),
            read_poll: Duration::from_millis(25),
            trace: None,
        }
    }
}

/// Router construction failure.
#[derive(Debug)]
pub enum RouterError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// The backend list is unusable (empty, duplicate, unresolvable).
    Config(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "i/o error: {e}"),
            RouterError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}
impl std::error::Error for RouterError {}
impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

struct RouterShared {
    ring: HashRing,
    backends: Vec<Arc<Backend>>,
    metrics: RouterMetrics,
    replication: usize,
    max_inflight_per_backend: u64,
    connect_timeout: Duration,
    rpc_timeout: Option<Duration>,
    read_poll: Duration,
    shutting_down: AtomicBool,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    local_addr: SocketAddr,
    trace: Option<Arc<TraceCollector>>,
}

impl RouterShared {
    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let mut f = self.shutdown_flag.lock();
        *f = true;
        self.shutdown_cv.notify_all();
        // Nudge the accept thread out of `accept()`.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running cluster front-end. Dropping it drains and stops it
/// (the backends are left running).
pub struct SpnRouter {
    shared: Arc<RouterShared>,
    accept_thread: Option<thread::JoinHandle<()>>,
    health_thread: Option<thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl SpnRouter {
    /// Resolve the backends, build the ring, bind and start serving.
    pub fn start(config: RouterConfig) -> Result<SpnRouter, RouterError> {
        if config.backends.is_empty() {
            return Err(RouterError::Config("no backends configured".into()));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for id in &config.backends {
            if backends.iter().any(|b: &Arc<Backend>| &b.id == id) {
                return Err(RouterError::Config(format!("backend '{id}' listed twice")));
            }
            backends.push(Arc::new(
                Backend::resolve(id, &config.health, config.pool_idle_ttl)
                    .map_err(RouterError::Config)?,
            ));
        }
        if config.replication == 0 {
            return Err(RouterError::Config("replication must be at least 1".into()));
        }
        let ring = HashRing::new(&config.backends);

        let listener = TcpListener::bind(&config.addr)?;
        epoll::deepen_listen_backlog(&listener)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            ring,
            backends,
            metrics: RouterMetrics::new(),
            replication: config.replication,
            max_inflight_per_backend: config.max_inflight_per_backend,
            connect_timeout: config.connect_timeout,
            rpc_timeout: config.rpc_timeout,
            read_poll: config.read_poll,
            shutting_down: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            local_addr,
            trace: config.trace,
        });

        let conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name("spn-route-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))
            .expect("spawn router accept thread");
        let health_shared = Arc::clone(&shared);
        let health_policy = config.health;
        let health_thread = thread::Builder::new()
            .name("spn-route-health".into())
            .spawn(move || health_loop(health_shared, health_policy))
            .expect("spawn router health thread");

        Ok(SpnRouter {
            shared,
            accept_thread: Some(accept_thread),
            health_thread: Some(health_thread),
            conn_threads,
        })
    }

    /// The address the router actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The backend entries, in configuration order (tests and the CLI
    /// status line read states and counters off these).
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.shared.backends
    }

    /// The ordered replica set the ring assigns `model`.
    pub fn replicas(&self, model: &str) -> Vec<usize> {
        self.shared.ring.replicas(model, self.shared.replication)
    }

    /// The backend group hosting a scope-sharded `model`: shard `s`
    /// runs on backend index `shard_group(model, k)[s]` (see
    /// [`HashRing::shard_group`]). Deterministic across router
    /// instances, so every front-end agrees where each shard lives.
    pub fn shard_group(&self, model: &str, shards: usize) -> Vec<usize> {
        self.shared.ring.shard_group(model, shards)
    }

    /// The router's telemetry document — what the `Stats` opcode
    /// returns on the wire: no serving/model sections (those live on
    /// the backends), a populated `router` section.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        telemetry_snapshot(&self.shared)
    }

    /// Block until shutdown is requested (a client's `Shutdown` frame
    /// or a concurrent [`SpnRouter::shutdown`]).
    pub fn wait_for_shutdown(&self) {
        let mut f = self.shared.shutdown_flag.lock();
        while !*f {
            self.shared.shutdown_cv.wait(&mut f);
        }
    }

    /// Drain and stop the router: finish in-flight client requests,
    /// then join every thread. Backends are not contacted. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        let mut conns = self.conn_threads.lock();
        for t in conns.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for SpnRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<RouterShared>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.is_shutting_down() {
                    drop(stream);
                    return;
                }
                let conn_shared = Arc::clone(&shared);
                let t = thread::Builder::new()
                    .name(format!("spn-route-conn-{peer}"))
                    .spawn(move || {
                        let _ = serve_connection(stream, &conn_shared);
                    })
                    .expect("spawn router connection thread");
                let mut guard = conns.lock();
                // Reap finished threads so connection churn does not
                // accumulate JoinHandles without bound.
                let mut i = 0;
                while i < guard.len() {
                    if guard[i].is_finished() {
                        let _ = guard.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                guard.push(t);
            }
            Err(_) => {
                if shared.is_shutting_down() {
                    return;
                }
            }
        }
    }
}

/// Active prober: ping every backend each interval; a probe is a
/// fresh dial + ping, both under the probe timeout, so a dead host
/// costs one bounded attempt. When a backend transitions to `Down`
/// its idle pool is flushed — recovery then starts from fresh dials
/// instead of replaying stale sockets.
fn health_loop(shared: Arc<RouterShared>, policy: HealthPolicy) {
    while !shared.is_shutting_down() {
        for backend in &shared.backends {
            if shared.is_shutting_down() {
                return;
            }
            let was_routable = backend.health.is_routable();
            let outcome = backend
                .dial(policy.timeout, Some(policy.timeout))
                .and_then(|mut co| co.client.ping());
            match outcome {
                Ok(()) => backend.health.record_success(),
                Err(_) => {
                    backend.health.record_failure();
                    if was_routable && !backend.health.is_routable() {
                        backend.drain_pool();
                    }
                }
            }
            // TTL sweep rides the probe cadence: without it an idle
            // pool only shrinks when a request checks out of it.
            backend.expire_idle();
        }
        // Sleep the interval in read-poll slices so shutdown is
        // observed promptly.
        let mut left = policy.interval;
        while !left.is_zero() && !shared.is_shutting_down() {
            let step = left.min(shared.read_poll);
            thread::sleep(step);
            left -= step;
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &RouterShared) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.read_poll))?;
    stream.set_nodelay(true)?;
    loop {
        let mut header = [0u8; HEADER_LEN];
        match read_full(&mut stream, &mut header, || shared.is_shutting_down())? {
            ReadOutcome::Eof | ReadOutcome::Shutdown => return Ok(()),
            ReadOutcome::Full => {}
        }
        let (opcode, _status, len) = match parse_header(&header) {
            Ok(h) => h,
            Err(WireError::Malformed(m)) => {
                // The stream is no longer frame-aligned: answer once,
                // then close. Backends never see the bad bytes.
                shared.metrics.rejected_malformed();
                let _ = write_frame(
                    &mut stream,
                    &Frame::error(Opcode::Ping, Status::Malformed, &m),
                );
                return Ok(());
            }
            Err(WireError::Io(e)) => return Err(e),
        };
        let mut payload = vec![0u8; len as usize];
        match read_full(&mut stream, &mut payload, || shared.is_shutting_down())? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Shutdown => return Ok(()),
        }

        match opcode {
            Opcode::Ping => {
                write_frame(
                    &mut stream,
                    &Frame::response(Opcode::Ping, Status::Ok, vec![]),
                )?;
            }
            Opcode::Stats => {
                let json = telemetry_snapshot(shared).to_json();
                write_frame(
                    &mut stream,
                    &Frame::response(Opcode::Stats, Status::Ok, json.into_bytes()),
                )?;
            }
            Opcode::Shutdown => {
                write_frame(
                    &mut stream,
                    &Frame::response(Opcode::Shutdown, Status::Ok, vec![]),
                )?;
                shared.request_shutdown();
            }
            Opcode::Infer => {
                let frame = route_infer(shared, &payload);
                write_frame(&mut stream, &frame)?;
            }
        }
    }
}

/// How one forwarding attempt ended.
enum Attempt {
    /// `Ok` response — done.
    Ok(Frame),
    /// Typed verdict about the request itself — pass through.
    Passthrough(Frame),
    /// Backend unavailable — try the next replica.
    Failover,
}

/// Decode, place, forward (with failover), and build the client's
/// response frame for one `Infer` request.
fn route_infer(shared: &RouterShared, payload: &[u8]) -> Frame {
    let t0 = Instant::now();
    if shared.is_shutting_down() {
        return Frame::error(Opcode::Infer, Status::ShuttingDown, "router is draining");
    }
    // Decode for validation and the model name; the original payload
    // bytes are forwarded verbatim, so the router cannot corrupt a
    // request it re-encodes.
    let req = match InferRequest::decode(payload) {
        Ok(r) => r,
        Err(m) => {
            shared.metrics.rejected_malformed();
            return Frame::error(Opcode::Infer, Status::Malformed, &m);
        }
    };
    let ctx = req.ctx;

    // Replica choice: the ring's ordered set, routable replicas first
    // (least-loaded first among them), `Down` replicas kept as a last
    // resort so a stale health verdict cannot fail a servable request.
    let t_pick = Instant::now();
    let replica_set = shared.ring.replicas(&req.model, shared.replication);
    let mut candidates: Vec<usize> = replica_set
        .iter()
        .copied()
        .filter(|&i| shared.backends[i].health.is_routable())
        .collect();
    candidates.sort_by_key(|&i| shared.backends[i].inflight());
    for &i in &replica_set {
        if !candidates.contains(&i) {
            candidates.push(i);
        }
    }
    if let Some(trace) = &shared.trace {
        trace.record(
            SpanKind::RoutePick,
            ctx,
            0,
            candidates.len() as u64,
            t_pick,
            Instant::now(),
        );
    }

    let mut attempts_failed = 0u64;
    for &idx in &candidates {
        let backend = &shared.backends[idx];
        let Some(_slot) = backend.reserve(shared.max_inflight_per_backend) else {
            // At capacity is not a health event; just move on.
            attempts_failed += 1;
            continue;
        };
        let t_rpc = Instant::now();
        let attempt = forward_once(shared, backend, payload);
        if let Some(trace) = &shared.trace {
            trace.record(
                SpanKind::BackendRpc,
                ctx,
                0,
                idx as u64,
                t_rpc,
                Instant::now(),
            );
        }
        match attempt {
            Attempt::Ok(frame) => {
                backend.record_request();
                backend.health.record_success();
                shared.metrics.request_ok(attempts_failed > 0);
                shared.metrics.e2e_seconds.record_duration(t0.elapsed());
                return frame;
            }
            Attempt::Passthrough(frame) => {
                shared.metrics.rejected_by_backend();
                shared.metrics.e2e_seconds.record_duration(t0.elapsed());
                return frame;
            }
            Attempt::Failover => {
                attempts_failed += 1;
            }
        }
    }

    shared.metrics.rejected_no_backend();
    shared.metrics.e2e_seconds.record_duration(t0.elapsed());
    Frame::error(
        Opcode::Infer,
        Status::ServerBusy,
        &format!(
            "no available replica for model '{}' ({} attempt(s) failed); retry later",
            req.model, attempts_failed
        ),
    )
}

/// One bounded attempt against one backend: check out a connection,
/// do the raw frame round trip, classify the outcome. A pooled
/// connection that turns out closed is retried once on a fresh dial
/// before the backend is blamed — idle sockets die routinely (backend
/// restarts, keep-alive reaping) and prove nothing about health.
fn forward_once(shared: &RouterShared, backend: &Backend, payload: &[u8]) -> Attempt {
    let co = match backend.checkout(shared.connect_timeout, shared.rpc_timeout) {
        Ok(co) => co,
        Err(_) => {
            backend.record_failure();
            backend.health.record_failure();
            return Attempt::Failover;
        }
    };
    let pooled = co.pooled;
    let mut client = co.client;
    let outcome = rpc(&mut client, payload);
    let outcome = match outcome {
        Err(ClientError::ConnectionClosed) if pooled => {
            // Stale pooled socket; one fresh dial, same backend.
            match backend.dial(shared.connect_timeout, shared.rpc_timeout) {
                Ok(fresh) => {
                    client = fresh.client;
                    rpc(&mut client, payload)
                }
                Err(e) => Err(e),
            }
        }
        other => other,
    };
    match outcome {
        Ok(frame) => match frame.status {
            Status::Ok => {
                backend.checkin(client);
                Attempt::Ok(frame)
            }
            // The backend is going away or full — its replicas can
            // still serve this request.
            Status::ShuttingDown => {
                backend.record_failure();
                backend.health.record_failure();
                Attempt::Failover
            }
            Status::ServerBusy => {
                backend.checkin(client);
                backend.record_failure();
                Attempt::Failover
            }
            // A verdict about the request itself: retrying elsewhere
            // would return the same answer (placement is per-model,
            // every replica serves the same model set).
            _ => {
                backend.checkin(client);
                Attempt::Passthrough(frame)
            }
        },
        Err(_) => {
            backend.record_failure();
            backend.health.record_failure();
            Attempt::Failover
        }
    }
}

/// Raw request/response round trip on a checked-out connection.
fn rpc(client: &mut spn_server::client::Client, payload: &[u8]) -> Result<Frame, ClientError> {
    let stream = client.stream_mut();
    write_frame(stream, &Frame::request(Opcode::Infer, payload.to_vec()))?;
    let frame = read_frame(stream)?;
    if frame.opcode != Opcode::Infer {
        return Err(ClientError::Wire(format!(
            "backend answered opcode {:?} to an Infer request",
            frame.opcode
        )));
    }
    Ok(frame)
}

/// The router's telemetry document: schema + a populated `router`
/// section; the serving/model sections belong to the backends.
fn telemetry_snapshot(shared: &RouterShared) -> TelemetrySnapshot {
    TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        server: None,
        models: BTreeMap::new(),
        plan: None,
        router: Some(shared.metrics.snapshot(&shared.backends)),
        shard: None,
        reactor: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_backend_list_is_a_config_error() {
        assert!(matches!(
            SpnRouter::start(RouterConfig::default()),
            Err(RouterError::Config(_))
        ));
    }

    #[test]
    fn duplicate_backends_are_a_config_error() {
        let cfg = RouterConfig {
            backends: vec!["127.0.0.1:9000".into(), "127.0.0.1:9000".into()],
            ..RouterConfig::default()
        };
        assert!(matches!(SpnRouter::start(cfg), Err(RouterError::Config(_))));
    }

    #[test]
    fn zero_replication_is_a_config_error() {
        let cfg = RouterConfig {
            backends: vec!["127.0.0.1:9000".into()],
            replication: 0,
            ..RouterConfig::default()
        };
        assert!(matches!(SpnRouter::start(cfg), Err(RouterError::Config(_))));
    }

    #[test]
    fn router_starts_and_reports_telemetry_without_backends_up() {
        // Backends need not be live for the router to start; health
        // probing will mark them down.
        let mut router = SpnRouter::start(RouterConfig {
            backends: vec!["127.0.0.1:9000".into(), "127.0.0.1:9001".into()],
            ..RouterConfig::default()
        })
        .unwrap();
        let snap = router.telemetry_snapshot();
        let r = snap.router.expect("router section present");
        assert_eq!(r.backends.len(), 2);
        assert_eq!(r.requests_total, 0);
        assert!(snap.server.is_none());
        // Replica sets are deterministic and within bounds.
        let reps = router.replicas("NIPS10");
        assert_eq!(reps, router.replicas("NIPS10"));
        assert_eq!(reps.len(), 2);
        router.shutdown();
    }
}
