//! The TCP server: accept path, admission control and graceful
//! drain.
//!
//! Connections are served by the epoll reactor ([`crate::reactor`]):
//! one accept thread hands sockets to a small fixed pool of
//! event-loop threads, each multiplexing thousands of connections
//! through per-connection state machines. There is one **batcher
//! worker** per registered model (see [`crate::batcher`]), and a
//! connection handles one request at a time: decode → validate →
//! admission control → enqueue with the model's batcher → reply.
//! Faults are *contained per connection*: a malformed payload earns an
//! error frame on that socket only; a torn frame or mid-request
//! disconnect kills that connection only.
//!
//! Shutdown ([`SpnServer::shutdown`], the `Shutdown` opcode, or drop)
//! is a drain, not an abort: the accept loop stops, new `Infer`
//! requests are refused with [`Status::ShuttingDown`], every
//! already-admitted request still gets its reply (the batchers flush
//! their queues through the scheduler), and only then are the threads
//! joined.

use crate::batcher::{BatchPolicy, Batcher, Reply};
use crate::metrics::{ReactorMetrics, ServerMetrics, ServerMetricsSnapshot};
use crate::protocol::{Frame, InferRequest, Opcode, Status};
use crate::reactor::{self, ReactorHandle};
use parking_lot::{Condvar, Mutex};
use spn_runtime::{JobOptions, PlanCache, Scheduler};
use spn_telemetry::{
    BatcherTelemetry, ModelTelemetry, PlanTelemetry, ShardTelemetry, SpanCtx, TelemetrySnapshot,
    TraceCollector, TELEMETRY_SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`SpnServer::local_addr`]).
    pub addr: String,
    /// Batching policy applied to every registered model.
    pub batch: BatchPolicy,
    /// Admission control: refuse `Infer` requests that would push the
    /// number of admitted-but-unanswered samples past this bound.
    pub max_inflight_samples: u64,
    /// Live span collector shared with the models' schedulers
    /// (`None` = tracing off). When set, the event loops record
    /// `ReplyWritten` spans into it; pass the *same* collector to
    /// [`spn_runtime::Scheduler::with_trace`] so server and device
    /// spans land on one correlated timeline.
    pub trace: Option<Arc<TraceCollector>>,
    /// Event-loop threads. Connections are sharded round-robin at
    /// accept; each loop multiplexes its shard. Clamped to at least 1.
    pub loop_threads: usize,
    /// Hard cap on concurrently open connections; the acceptor
    /// answers the connection past the cap with one `ServerBusy`
    /// frame and closes it.
    pub max_connections: usize,
    /// Close connections with no traffic for this long (`None` =
    /// never). Connections with a request in flight or a reply still
    /// flushing are never idle-closed.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchPolicy::default(),
            max_inflight_samples: 1 << 20,
            trace: None,
            loop_threads: 2,
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// One model made servable: a name on the wire, the scheduler that
/// runs it, and the input shape requests must match.
pub struct ModelSpec {
    /// Wire name clients address the model by.
    pub name: String,
    /// Scheduler driving the (virtual) accelerator for this model.
    pub scheduler: Arc<Scheduler>,
    /// Features per sample the model expects.
    pub num_features: u32,
    /// Feature domain (values `0..domain`); metadata for the dataset.
    pub domain: usize,
    /// Job options for batches of this model (retry budget etc.).
    pub opts: JobOptions,
}

impl ModelSpec {
    /// Spec with default job options.
    pub fn new(
        name: impl Into<String>,
        scheduler: Arc<Scheduler>,
        num_features: u32,
        domain: usize,
    ) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            scheduler,
            num_features,
            domain,
            opts: JobOptions::default(),
        }
    }

    /// Replace the per-batch job options. The main use is routing a
    /// model's batches to the compiled-plan host fast path:
    ///
    /// ```ignore
    /// spec.with_opts(JobOptions::builder().backend(ExecBackend::HostPlan).build()?)
    /// ```
    ///
    /// which requires the model's scheduler to have been built from a
    /// device carrying its SPN (`VirtualDevice::with_model`).
    pub fn with_opts(mut self, opts: JobOptions) -> ModelSpec {
        self.opts = opts;
        self
    }
}

pub(crate) struct ModelHandle {
    pub(crate) batcher: Batcher,
    scheduler: Arc<Scheduler>,
    num_features: u32,
    /// Feature domain; request bytes must all be `< domain`. Checked
    /// *before* enqueueing — `Dataset::from_raw` asserts this, and a
    /// panic in the batcher worker would wedge the whole model queue,
    /// turning one bad client byte into a server-wide denial of
    /// service.
    domain: usize,
}

pub(crate) struct SharedState {
    pub(crate) models: BTreeMap<String, ModelHandle>,
    pub(crate) metrics: Arc<ServerMetrics>,
    shutting_down: AtomicBool,
    /// Signalled when shutdown is requested (by the `Shutdown` opcode
    /// or [`SpnServer::shutdown`]); `wait_for_shutdown` blocks on it.
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    max_inflight_samples: u64,
    local_addr: SocketAddr,
    /// See [`ServerConfig::trace`].
    pub(crate) trace: Option<Arc<TraceCollector>>,
    /// Reactor front-end counters.
    pub(crate) reactor: Arc<ReactorMetrics>,
}

impl SharedState {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Flip the flag and wake everyone who waits on it. Safe to call
    /// from the event loops (it does no joining).
    pub(crate) fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let mut f = self.shutdown_flag.lock();
        *f = true;
        self.shutdown_cv.notify_all();
        // Nudge the accept thread out of `accept()`.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running inference server. Dropping it drains and stops it.
pub struct SpnServer {
    shared: Arc<SharedState>,
    reactor: ReactorHandle,
}

/// Server construction failure.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// The model list is unusable (empty, duplicate names, …).
    Config(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}
impl std::error::Error for ServerError {}
impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl SpnServer {
    /// Bind, register `models` and start serving.
    pub fn serve(config: ServerConfig, models: Vec<ModelSpec>) -> Result<SpnServer, ServerError> {
        if models.is_empty() {
            return Err(ServerError::Config("no models registered".into()));
        }
        let listener = TcpListener::bind(&config.addr)?;
        epoll::deepen_listen_backlog(&listener)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::new());

        let mut registry = BTreeMap::new();
        for spec in models {
            if spec.num_features == 0 {
                return Err(ServerError::Config(format!(
                    "model '{}' declares zero features",
                    spec.name
                )));
            }
            if spec.domain == 0 || spec.domain > 256 {
                return Err(ServerError::Config(format!(
                    "model '{}' declares domain {} (must be in 1..=256)",
                    spec.name, spec.domain
                )));
            }
            let batcher = Batcher::new(
                &spec.name,
                Arc::clone(&spec.scheduler),
                spec.num_features as usize,
                spec.domain,
                config.batch,
                spec.opts,
                Arc::clone(&metrics),
            );
            let prev = registry.insert(
                spec.name.clone(),
                ModelHandle {
                    batcher,
                    scheduler: spec.scheduler,
                    num_features: spec.num_features,
                    domain: spec.domain,
                },
            );
            if prev.is_some() {
                return Err(ServerError::Config(format!(
                    "model '{}' registered twice",
                    spec.name
                )));
            }
        }

        let loop_threads = config.loop_threads.max(1);
        let shared = Arc::new(SharedState {
            models: registry,
            metrics,
            shutting_down: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            max_inflight_samples: config.max_inflight_samples,
            local_addr,
            trace: config.trace,
            reactor: Arc::new(ReactorMetrics::new(loop_threads)),
        });
        let reactor = reactor::start(
            listener,
            Arc::clone(&shared),
            loop_threads,
            config.max_connections,
            config.idle_timeout,
        )?;
        Ok(SpnServer { shared, reactor })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Point-in-time serving metrics.
    pub fn metrics_snapshot(&self) -> ServerMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The unified telemetry document: serving metrics plus one
    /// scheduler/batcher section per model — exactly what the `Stats`
    /// opcode returns on the wire.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        telemetry_snapshot(&self.shared)
    }

    /// Block until shutdown is requested — by a client's `Shutdown`
    /// frame or a concurrent [`SpnServer::shutdown`] call. The caller
    /// then drops the server (or calls `shutdown`) to perform the
    /// actual drain and join.
    pub fn wait_for_shutdown(&self) {
        let mut f = self.shared.shutdown_flag.lock();
        while !*f {
            self.shared.shutdown_cv.wait(&mut f);
        }
    }

    /// Drain and stop: refuse new work, answer everything already
    /// admitted, then join every thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        self.reactor.join_acceptor();
        // Drain order is load-bearing: draining the batchers pushes
        // every outstanding reply into the loops' completion queues;
        // only then are the loops told to flush what remains and exit.
        for handle in self.shared.models.values() {
            handle.batcher.request_drain();
        }
        for handle in self.shared.models.values() {
            handle.batcher.join_worker();
        }
        self.reactor.finish();
    }
}

impl Drop for SpnServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Outcome of [`admit_infer`]: either an immediate rejection frame or
/// an admitted request ready to enqueue with its model's batcher.
pub(crate) enum InferAdmission<'a> {
    /// Rejected before admission; write the frame and move on. The
    /// [`SpanCtx`] is the request's (or [`SpanCtx::NONE`] when
    /// decoding failed) for stamping the reply-write span.
    Reject(Frame, SpanCtx),
    /// Admitted and counted (`request_admitted` has run); the caller
    /// *must* eventually deliver a reply and call `request_done`.
    Admit(AdmittedInfer<'a>),
}

/// An `Infer` request that passed decode, validation and admission
/// control, ready for [`crate::batcher::Batcher::enqueue`].
pub(crate) struct AdmittedInfer<'a> {
    pub(crate) model: &'a ModelHandle,
    pub(crate) req: InferRequest,
    pub(crate) deadline: Option<Instant>,
    pub(crate) samples: u64,
    pub(crate) t0: Instant,
}

/// Decode, validate and admit one `Infer` request — the front half of
/// request handling. Takes the payload by value so the reactor's
/// zero-copy path ([`InferRequest::decode_owned`]) can hand
/// the socket read buffer straight to the batcher.
pub(crate) fn admit_infer(shared: &SharedState, payload: Vec<u8>) -> InferAdmission<'_> {
    let t0 = Instant::now();
    let reject = |status: Status, msg: &str, ctx: SpanCtx| {
        shared.metrics.rejected(status);
        InferAdmission::Reject(Frame::error(Opcode::Infer, status, msg), ctx)
    };

    if shared.is_shutting_down() {
        return reject(Status::ShuttingDown, "server is draining", SpanCtx::NONE);
    }
    let req = match InferRequest::decode_owned(payload) {
        Ok(r) => r,
        Err(m) => return reject(Status::Malformed, &m, SpanCtx::NONE),
    };
    let ctx = req.ctx;
    let Some(model) = shared.models.get(&req.model) else {
        return reject(
            Status::UnknownModel,
            &format!("model '{}' is not registered", req.model),
            ctx,
        );
    };
    if req.num_features != model.num_features {
        return reject(
            Status::ShapeMismatch,
            &format!(
                "model '{}' expects {} features per sample, request carries {}",
                req.model, model.num_features, req.num_features
            ),
            ctx,
        );
    }
    // Domain check: every feature byte must be `< domain`, or the
    // batcher's `Dataset::from_raw` would panic — killing the model's
    // worker thread and wedging every later request for that model.
    // One out-of-domain byte must cost *this* request only.
    if model.domain < 256 {
        if let Some(bad) = req.data.iter().find(|&&v| usize::from(v) >= model.domain) {
            return reject(
                Status::Malformed,
                &format!(
                    "feature value {bad} outside model '{}' domain 0..{}",
                    req.model, model.domain
                ),
                ctx,
            );
        }
    }
    let samples = u64::from(req.num_samples);
    // Admission control: bound the admitted-but-unanswered samples.
    // (Racy increment-after-check is fine — the bound is a soft
    // protective limit, not an accounting invariant.)
    if shared.metrics.inflight_samples() + samples > shared.max_inflight_samples {
        return reject(
            Status::ServerBusy,
            &format!(
                "in-flight sample limit {} reached; retry later",
                shared.max_inflight_samples
            ),
            ctx,
        );
    }
    shared.metrics.request_admitted(samples);
    let deadline =
        (req.deadline_ms > 0).then(|| t0 + Duration::from_millis(req.deadline_ms as u64));
    InferAdmission::Admit(AdmittedInfer {
        model,
        req,
        deadline,
        samples,
        t0,
    })
}

/// Turn a batcher [`Reply`] into the `Infer` response frame — the
/// back half of request handling.
pub(crate) fn reply_frame(reply: Reply) -> Frame {
    match reply {
        Reply::Ok(lls) => Frame::response(
            Opcode::Infer,
            Status::Ok,
            crate::protocol::encode_results(&lls),
        ),
        Reply::Err(status, msg) => Frame::error(Opcode::Infer, status, &msg),
    }
}

/// Build the unified telemetry document the `Stats` opcode serves:
/// the serving section plus one scheduler/batcher section per model
/// (models in `BTreeMap` name order; serde handles all escaping, so
/// arbitrary model names are safe), plus one aggregate `plan` section
/// over the distinct plan caches behind those schedulers. Schedulers
/// built with [`spn_runtime::Scheduler::with_cache`] may share one
/// cache, so caches are de-duplicated by identity before summing —
/// a shared cache is counted once, not once per model.
pub(crate) fn telemetry_snapshot(shared: &SharedState) -> TelemetrySnapshot {
    let models = shared
        .models
        .iter()
        .map(|(name, handle)| {
            (
                name.clone(),
                ModelTelemetry {
                    scheduler: handle.scheduler.metrics_snapshot(),
                    batcher: Some(BatcherTelemetry {
                        queued_samples: handle.batcher.queued_samples(),
                    }),
                },
            )
        })
        .collect();
    let mut seen: Vec<*const PlanCache> = Vec::new();
    let mut plan = PlanTelemetry {
        cached_plans: 0,
        cache_hits: 0,
        cache_misses: 0,
        invalidations: 0,
    };
    for handle in shared.models.values() {
        let cache = handle.scheduler.plan_cache();
        let id = Arc::as_ptr(cache);
        if seen.contains(&id) {
            continue;
        }
        seen.push(id);
        let t = cache.telemetry();
        plan.cached_plans += t.cached_plans;
        plan.cache_hits += t.cache_hits;
        plan.cache_misses += t.cache_misses;
        plan.invalidations += t.invalidations;
    }
    // Aggregate sharded-path counters across the models' schedulers;
    // the section stays `null` until some model runs a sharded job.
    let mut shard: Option<ShardTelemetry> = None;
    for handle in shared.models.values() {
        if let Some(t) = handle.scheduler.shard_telemetry() {
            let acc = shard.get_or_insert(ShardTelemetry {
                shard_sets: 0,
                shards: 0,
                sharded_blocks: 0,
            });
            acc.shard_sets += t.shard_sets;
            acc.shards += t.shards;
            acc.sharded_blocks += t.sharded_blocks;
        }
    }
    TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        server: Some(shared.metrics.snapshot()),
        models,
        plan: Some(plan),
        router: None,
        shard,
        reactor: Some(shared.reactor.snapshot()),
    }
}
