//! # perfbench — the repository's end-to-end benchmark
//!
//! One command times one workload on the real, unpaced host path of
//! the SPN stack and checks every output bit for bit against the
//! tree-walk and accelerator-core oracles. The workload-independent
//! machinery lives in this library so the benchmark's own tests can
//! exercise it without sockets or threads:
//!
//! * [`load`] — the seeded Poisson arrival schedule and the due-time
//!   load loop that charges a stall to every request queued behind it;
//! * [`stats`] — nearest-rank percentiles and the rule that a tail
//!   percentile is only reported when at least ten samples lie beyond it;
//! * [`search`] — the fixed-step search for the highest offered rate
//!   that meets a workload's p99 latency limit;
//! * [`manifest`] — the workloads and metrics, rendered into the
//!   repository's `BENCHMARK.json`;
//! * [`procfs`] — the process and kernel counters read around a run.
//!
//! The binary (`src/main.rs`) builds the stacks and runs the workloads;
//! `METHODOLOGY.md` explains what each workload and metric is for.

pub mod load;
pub mod manifest;
pub mod procfs;
pub mod search;
pub mod stats;
