//! # spn-server — the network inference-serving subsystem
//!
//! The paper's accelerator answers *"how fast can the card run
//! inference"*; this crate answers the next question an operator
//! asks: *"how do I put that behind a socket for many clients"*.
//! It layers a small TCP serving stack on top of
//! [`spn_runtime::Scheduler`]:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol (magic,
//!   version, opcodes `Infer`/`Ping`/`Stats`/`Shutdown`, typed error
//!   statuses);
//! * [`batcher`] — the adaptive micro-batcher: per-model queues
//!   coalesce many small client requests into one scheduler job when
//!   a sample threshold fills *or* a delay bound expires, then demux
//!   the results back per request — bit-identical to unbatched
//!   inference, but paying the scheduler's per-job cost once per
//!   batch instead of once per request;
//! * [`server`] — the TCP server: admission control (bounded
//!   in-flight samples → [`Status::ServerBusy`]), per-request
//!   deadlines, per-connection fault isolation and graceful
//!   drain-on-shutdown;
//! * [`reactor`] — the serving engine: a nonblocking epoll readiness
//!   loop multiplexing thousands of connections over a small fixed
//!   thread pool, with incremental frame decoding, connection limits
//!   and idle timeouts;
//! * [`metrics`] — serving-layer counters and lock-free
//!   latency/batch-size histograms ([`spn_telemetry::AtomicHistogram`]),
//!   merged with per-model scheduler metrics into one
//!   [`spn_telemetry::TelemetrySnapshot`] JSON document behind the
//!   `Stats` opcode;
//! * [`client`] — a blocking wire client;
//! * [`loadgen`] — the load driver: an epoll client that runs an
//!   arrival schedule (closed-loop synthetic load, or a recorded
//!   trace) and reports every request, shared by the CLI, the
//!   benchmarks, the replayer and the tests.
//!
//! ## Minimal round trip
//!
//! ```no_run
//! use spn_server::{Client, ModelSpec, ServerConfig, SpnServer};
//! use std::sync::Arc;
//! # fn scheduler() -> Arc<spn_runtime::Scheduler> { unimplemented!() }
//!
//! let server = SpnServer::serve(
//!     ServerConfig::default(),
//!     vec![ModelSpec::new("NIPS10", scheduler(), 10, 2)],
//! )?;
//! let mut client = Client::connect(server.local_addr())?;
//! let lls = client.request("NIPS10").samples(&[0u8; 10], 1, 10).send()?;
//! println!("log-likelihood: {}", lls[0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batcher;
pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use batcher::{BatchPolicy, Batcher, Reply, ReplySink};
pub use client::{Client, ClientError, InferBuilder};
pub use loadgen::{
    clamp_connections, drive, request_seed, synthetic_samples, LoadConfig, LoadReport,
    RequestResult, ScheduledRequest,
};
pub use metrics::{HistogramSummary, ReactorMetrics, ServerMetrics, ServerMetricsSnapshot};
pub use protocol::{Frame, FrameDecoder, InferRequest, Opcode, Status, WireError};
pub use server::{ModelSpec, ServerConfig, ServerError, SpnServer};
// Telemetry types that appear in this crate's public API, re-exported
// so callers don't need a direct spn-telemetry dependency.
pub use spn_telemetry::{SpanCtx, TelemetrySnapshot, TraceCollector, TraceId};
