//! # spn-replay — recorded traffic as a first-class test input
//!
//! The paper's headline results are throughput curves measured under
//! controlled, repeatable load. This crate gives the serving stack the
//! same discipline: production-shaped traffic (bursts, heavy-tailed
//! request sizes, model mixes) becomes a deterministic, replayable
//! artifact instead of a one-shot side effect of a closed-loop
//! loadgen run.
//!
//! Four pieces:
//!
//! * [`Trace`] — the compact, versioned `.spntrace` file: one record
//!   per request with its arrival offset, model, shape, per-request
//!   seed (which regenerates the payload bit-for-bit), a payload
//!   digest, and — when the recorder saw an `Ok` reply — a reply
//!   digest. Checksummed; truncation and corruption decode to typed
//!   [`TraceError`]s, never panics.
//! * [`trace_of`] / [`record_load`] — the recorder: a load run's
//!   report (every request's send offset and reply digest) plus its
//!   schedule is the trace.
//! * [`replay()`] — the replayer: turns a trace into an arrival
//!   schedule for `spn-server`'s load driver with the original
//!   inter-arrival gaps (scaled by [`ReplayConfig::speed`], optionally
//!   compressed into a [`Burst`]), and verifies replies bit for bit
//!   against the recorded digests.
//! * [`RunStore`] / [`diff_records`] — the durable, append-only
//!   `runs/` store of [`spn_telemetry::RunRecord`]s, plus the run
//!   differ behind `spn bench diff` and the CI perf gate.

pub mod diff;
pub mod digest;
pub mod record;
pub mod replay;
pub mod store;
pub mod trace;

pub use diff::{diff_records, diff_values, DiffOptions, DiffReport, MetricDelta};
pub use digest::{digest_bytes, digest_lls};
pub use record::{record_load, trace_of};
pub use replay::{replay, Burst, ReplayConfig, ReplayError, ReplayReport};
pub use store::{RunStore, StoreError};
pub use trace::{scaled_arrival_ns, Trace, TraceError, TraceRecord, TRACE_VERSION};
