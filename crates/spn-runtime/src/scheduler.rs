//! The concurrent inference scheduler: many jobs, one accelerator.
//!
//! The paper's runtime drives each PE with control threads to overlap
//! transfer and compute, but does so one job at a time. This module
//! generalises that design into a long-lived [`Scheduler`] that owns a
//! **persistent worker pool** (the control threads of Section IV-B,
//! kept alive across jobs instead of re-spawned per call) and
//! multiplexes block-sized sub-jobs from *many* concurrent inference
//! jobs across the PEs:
//!
//! * [`Scheduler::submit`] enqueues a job and returns a [`JobHandle`]
//!   immediately; a bounded queue provides backpressure
//!   ([`crate::RuntimeError::QueueFull`], or [`Scheduler::submit_blocking`]
//!   to wait for space);
//! * blocks are claimed **round-robin across jobs** (per-job FIFO): a
//!   small job submitted behind a huge one still completes promptly;
//! * transient failures — [`crate::DeviceError::TransientFault`] from
//!   the device's fault injection, or an out-of-memory race against
//!   another job's buffers — are retried per block with bounded linear
//!   backoff, up to [`JobOptions::max_retries`];
//! * one job failing (or being cancelled) never poisons the others:
//!   each block's device buffers are freed on every path, and job state
//!   is fully independent;
//! * every hot-path event feeds the [`MetricsRegistry`]
//!   (jobs/blocks/retries/bytes/per-PE busy time).
//!
//! The blocking [`crate::SpnRuntime::run`] is a thin
//! `submit_blocking` + `wait` wrapper, so the single-job path and the
//! multi-job path are the same code. [`crate::job::ExecBackend`] in
//! the job options picks where blocks execute: the device (default) or
//! the host through the model's compiled inference plan, memoized in a
//! [`PlanCache`].

use crate::device::VirtualDevice;
use crate::job::{split_into_blocks, Block, ExecBackend, JobOptions};
use crate::memmgr::AllocError;
use crate::metrics::{JobOutcome, MetricsRegistry, MetricsSnapshot};
use crate::plan_cache::PlanCache;
use crate::runtime::{validate_config, ExecProvenance, RuntimeConfig, RuntimeError};
use crate::sharded::{ShardedExecutor, DEFAULT_SHARD_SEED};
use parking_lot::{Condvar, Mutex};
use spn_core::{CompiledPlan, Dataset, PlanExecutor, Query, ShardPlan};
use spn_hw::SynthConfig;
use spn_telemetry::{SpanCtx, SpanKind, TraceCollector};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on a single retry backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Observable job state, as reported by [`JobHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted; no block has started yet.
    Queued,
    /// At least one block has been dispatched.
    Running,
    /// All blocks done and verification passed; `wait()` will return
    /// the results.
    Completed,
    /// The job failed; `wait()` will return the error.
    Failed,
    /// The job was cancelled; `wait()` will return
    /// [`RuntimeError::Cancelled`].
    Cancelled,
}

/// Terminal/active phase of a job, behind its completion mutex.
enum Phase {
    Active,
    Completed(Vec<f64>),
    Failed(RuntimeError),
    Cancelled,
}

/// All state of one submitted job. Scheduling counters (`next_block`,
/// `in_flight`) are atomics but only mutated under the scheduler's
/// state lock; `blocks_done` and `cancelled` are also read lock-free by
/// the handle.
struct JobState {
    id: u64,
    data: Arc<Dataset>,
    blocks: Vec<Block>,
    /// The job runs on PEs `0..pe_limit`.
    pe_limit: u32,
    opts: JobOptions,
    /// How this job's results will have been produced (fixed at
    /// submission: backend plus plan-cache state).
    provenance: ExecProvenance,
    /// Next unclaimed block index (guarded by the scheduler state lock).
    next_block: AtomicUsize,
    /// Blocks currently executing (guarded by the scheduler state lock).
    in_flight: AtomicUsize,
    /// Blocks completed successfully.
    blocks_done: AtomicU64,
    /// Set by `cancel()` or on failure: workers stop claiming blocks.
    cancelled: AtomicBool,
    /// Set exactly once, when the job reaches a terminal phase.
    terminal: AtomicBool,
    /// Result accumulator, one slot per sample.
    results: Mutex<Vec<f64>>,
    completion: Mutex<Phase>,
    done_cv: Condvar,
}

impl JobState {
    /// Number of samples this job carries (for the in-flight gauge).
    fn samples(&self) -> u64 {
        self.data.num_samples() as u64
    }

    fn finish(&self, phase: Phase) {
        let mut p = self.completion.lock();
        *p = phase;
        self.done_cv.notify_all();
    }
}

/// Handle to a submitted job: wait, poll, inspect progress, cancel.
pub struct JobHandle {
    job: Arc<JobState>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.job.id)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// Scheduler-assigned job id (unique per scheduler instance).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Block until the job reaches a terminal state; returns the
    /// results (one probability per sample, dataset order) or the
    /// error. Consumes the handle.
    pub fn wait(self) -> Result<Vec<f64>, RuntimeError> {
        let mut phase = self.job.completion.lock();
        while matches!(*phase, Phase::Active) {
            self.job.done_cv.wait(&mut phase);
        }
        match std::mem::replace(&mut *phase, Phase::Cancelled) {
            Phase::Completed(results) => Ok(results),
            Phase::Failed(e) => Err(e),
            Phase::Cancelled => Err(RuntimeError::Cancelled),
            Phase::Active => unreachable!("loop exits only on terminal phase"),
        }
    }

    /// Non-blocking status probe.
    pub fn poll(&self) -> JobStatus {
        match &*self.job.completion.lock() {
            Phase::Completed(_) => JobStatus::Completed,
            Phase::Failed(_) => JobStatus::Failed,
            Phase::Cancelled => JobStatus::Cancelled,
            Phase::Active => {
                if self.job.blocks_done.load(Ordering::Relaxed) > 0
                    || self.job.in_flight.load(Ordering::Relaxed) > 0
                {
                    JobStatus::Running
                } else {
                    JobStatus::Queued
                }
            }
        }
    }

    /// How this job's results are produced: device execution, or a
    /// compiled host plan (with its cache-hit flag). Available from
    /// submission — callers don't have to wait to know the path.
    pub fn provenance(&self) -> ExecProvenance {
        self.job.provenance
    }

    /// `(blocks_done, blocks_total)` — the progress bar numbers.
    pub fn progress(&self) -> (u64, u64) {
        (
            self.job.blocks_done.load(Ordering::Relaxed),
            self.job.blocks.len() as u64,
        )
    }

    /// Ask the scheduler to abandon the job. Unclaimed blocks are never
    /// dispatched; blocks already executing run to completion (freeing
    /// their device buffers as always) and then the job finalises as
    /// [`JobStatus::Cancelled`], unblocking `wait()`.
    pub fn cancel(&self) {
        let mut st = self.shared.state.lock();
        if self.job.terminal.load(Ordering::Relaxed) {
            return;
        }
        self.job.cancelled.store(true, Ordering::Relaxed);
        if self.job.in_flight.load(Ordering::Relaxed) == 0 {
            // Nothing executing: finalise right here.
            self.job.terminal.store(true, Ordering::Relaxed);
            let job = Arc::clone(&self.job);
            st.jobs.retain(|j| !Arc::ptr_eq(j, &job));
            drop(st);
            self.shared
                .metrics
                .job_finished(JobOutcome::Cancelled, self.job.samples());
            self.job.finish(Phase::Cancelled);
            self.shared.space_cv.notify_all();
        }
        // else: the last in-flight block's worker finalises the job.
    }
}

/// Scheduler-internal shared state.
struct Shared {
    device: Arc<VirtualDevice>,
    config: RuntimeConfig,
    /// PE 0's synthesis config (all PEs are identical), read once.
    pe_cfg: SynthConfig,
    metrics: Arc<MetricsRegistry>,
    /// Live wall-clock span collector (`None` when tracing is off).
    /// Workers record one h2d/execute/d2h span per block, stamped with
    /// the job's [`JobOptions::ctx`] trace context.
    trace: Option<Arc<TraceCollector>>,
    /// The compiled inference plan for the device's model, when the
    /// device carries one ([`VirtualDevice::with_model`]). Compiled
    /// eagerly at construction through `plan_cache`; required for
    /// [`ExecBackend::HostPlan`] jobs.
    plan: Option<Arc<CompiledPlan>>,
    /// The cache `plan` came from (shareable across schedulers — a
    /// server passes one cache to every model's scheduler).
    plan_cache: Arc<PlanCache>,
    /// Whether `plan` was served from a warm cache at construction.
    plan_from_cache: bool,
    /// Set once the first `HostPlan` job is submitted; later jobs
    /// report a cache hit (the compile was amortized already).
    plan_used: AtomicBool,
    /// Sharded executors, keyed by requested shard count: built (from
    /// the device model, through `plan_cache`) on the first
    /// [`ExecBackend::Sharded`] submission asking for that count, then
    /// reused by every block of every later job.
    sharded: Mutex<HashMap<u32, Arc<ShardedExecutor>>>,
    /// Blocks executed through the sharded path (for telemetry).
    sharded_blocks: AtomicU64,
    state: Mutex<State>,
    /// Workers sleep here when no block is claimable.
    work_cv: Condvar,
    /// `submit_blocking` sleeps here when the queue is full; also
    /// notified whenever a job leaves the queue (drain waits on it).
    space_cv: Condvar,
    /// Set by [`Scheduler::drain`] and `Drop`: refuse new submissions.
    draining: AtomicBool,
    /// Set by `Drop` after draining: workers exit.
    shutdown: AtomicBool,
}

struct State {
    /// In-flight jobs, submission order.
    jobs: Vec<Arc<JobState>>,
    /// Round-robin cursor for cross-job fairness.
    rr: usize,
    next_id: u64,
}

impl Shared {
    /// The sharded executor for a requested shard count, built on
    /// first use: cut the device model with [`DEFAULT_SHARD_SEED`]
    /// (the cut is a pure function, so every job asking for `k`
    /// shards shares one executor and warm shard plans).
    fn sharded_executor(&self, k: u32) -> Result<Arc<ShardedExecutor>, RuntimeError> {
        if k == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "Sharded backend needs at least 1 shard".into(),
            });
        }
        let Some(model) = self.device.model() else {
            return Err(RuntimeError::InvalidConfig {
                reason: "Sharded backend requires a device built with its model \
                         (VirtualDevice::with_model)"
                    .into(),
            });
        };
        let mut map = self.sharded.lock();
        if let Some(ex) = map.get(&k) {
            return Ok(Arc::clone(ex));
        }
        let t0 = Instant::now();
        let plan = Arc::new(ShardPlan::cut(model, k as usize, DEFAULT_SHARD_SEED));
        let ex = Arc::new(ShardedExecutor::new(plan, &self.plan_cache));
        if let Some(t) = self.trace.as_deref() {
            t.record(
                SpanKind::PlanCompile,
                SpanCtx::NONE,
                0,
                0,
                t0,
                Instant::now(),
            );
        }
        map.insert(k, Arc::clone(&ex));
        Ok(ex)
    }
}

/// The long-lived concurrent scheduler. Owns `num_pes ×
/// threads_per_pe` worker threads for the device's whole lifetime;
/// dropping the scheduler shuts the pool down and cancels any jobs
/// that have not finished.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Start a scheduler on `device` with a validated `config`.
    pub fn new(device: Arc<VirtualDevice>, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Scheduler::with_trace(device, config, None)
    }

    /// Like [`Scheduler::new`], but every block execution additionally
    /// records wall-clock h2d/execute/d2h spans into `trace` (stamped
    /// with the submitting job's [`JobOptions::ctx`]), for one unified
    /// Chrome-trace export alongside server-layer spans.
    pub fn with_trace(
        device: Arc<VirtualDevice>,
        config: RuntimeConfig,
        trace: Option<Arc<TraceCollector>>,
    ) -> Result<Self, RuntimeError> {
        Scheduler::with_cache(device, config, trace, Arc::new(PlanCache::new()))
    }

    /// Like [`Scheduler::with_trace`], but compiled plans go through a
    /// caller-owned [`PlanCache`] — the constructor a server uses so
    /// all its model schedulers share one cache. When the device
    /// carries its model ([`VirtualDevice::with_model`]), the plan is
    /// compiled (or fetched) eagerly here, recording a `plan-compile`
    /// span on a cache miss when tracing.
    pub fn with_cache(
        device: Arc<VirtualDevice>,
        config: RuntimeConfig,
        trace: Option<Arc<TraceCollector>>,
        plan_cache: Arc<PlanCache>,
    ) -> Result<Self, RuntimeError> {
        validate_config(&config)?;
        let pe_cfg = device.query_pe(0)?;
        let metrics = Arc::new(MetricsRegistry::new(device.num_pes()));
        let (plan, plan_from_cache) = match device.model() {
            Some(model) => {
                let t0 = Instant::now();
                let (plan, hit) = plan_cache.get_or_compile(model);
                if !hit {
                    if let Some(t) = trace.as_deref() {
                        t.record(
                            SpanKind::PlanCompile,
                            SpanCtx::NONE,
                            0,
                            0,
                            t0,
                            Instant::now(),
                        );
                    }
                }
                (Some(plan), hit)
            }
            None => (None, false),
        };
        let shared = Arc::new(Shared {
            device,
            config,
            pe_cfg,
            metrics,
            trace,
            plan,
            plan_cache,
            plan_from_cache,
            plan_used: AtomicBool::new(false),
            sharded: Mutex::new(HashMap::new()),
            sharded_blocks: AtomicU64::new(0),
            state: Mutex::new(State {
                jobs: Vec::new(),
                rr: 0,
                next_id: 1,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::new();
        for pe in 0..shared.device.num_pes() {
            for t in 0..config.threads_per_pe {
                let sh = Arc::clone(&shared);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("spn-sched-pe{pe}-t{t}"))
                        .spawn(move || worker_loop(&sh, pe))
                        .expect("spawn scheduler worker thread"),
                );
            }
        }
        Ok(Scheduler { shared, workers })
    }

    /// The device this scheduler drives.
    pub fn device(&self) -> &Arc<VirtualDevice> {
        &self.shared.device
    }

    /// The scheduler's runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The span collector this scheduler records into, when tracing.
    pub fn trace(&self) -> Option<&Arc<TraceCollector>> {
        self.shared.trace.as_ref()
    }

    /// The compiled plan for the device's model, when the device
    /// carries one (see [`Scheduler::with_cache`]).
    pub fn plan(&self) -> Option<&Arc<CompiledPlan>> {
        self.shared.plan.as_ref()
    }

    /// The plan cache this scheduler compiles through.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.plan_cache
    }

    /// Counters of the sharded execution path, or `None` when no
    /// [`ExecBackend::Sharded`] job has been submitted yet — the
    /// `shard` section of the unified telemetry document.
    pub fn shard_telemetry(&self) -> Option<spn_telemetry::ShardTelemetry> {
        let map = self.shared.sharded.lock();
        if map.is_empty() {
            return None;
        }
        Some(spn_telemetry::ShardTelemetry {
            shard_sets: map.len() as u64,
            shards: map.values().map(|ex| ex.num_shards() as u64).sum(),
            sharded_blocks: self.shared.sharded_blocks.load(Ordering::Relaxed),
        })
    }

    /// Convenience: a point-in-time [`MetricsSnapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Number of jobs currently accepted and not yet terminal — the
    /// live queue depth a serving layer polls for admission control.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().jobs.len()
    }

    /// Samples belonging to accepted, not-yet-terminal jobs (the
    /// work-weighted companion of [`Scheduler::queue_depth`]).
    pub fn samples_in_flight(&self) -> u64 {
        self.shared.metrics.samples_in_flight()
    }

    /// Graceful drain: refuse all further submissions (they get
    /// [`RuntimeError::ShuttingDown`]) and block until every accepted
    /// job has reached a terminal state. Idempotent; the scheduler
    /// stays drained afterwards (this is a shutdown primitive, not a
    /// pause).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        // Wake blocked submitters so they observe the drain and bail.
        self.shared.space_cv.notify_all();
        let mut st = self.shared.state.lock();
        while !st.jobs.is_empty() {
            self.shared.space_cv.wait(&mut st);
        }
    }

    /// Submit a job. Returns immediately with a [`JobHandle`], or
    /// [`RuntimeError::QueueFull`] when `queue_capacity` jobs are
    /// already in flight (backpressure — retry later or use
    /// [`Scheduler::submit_blocking`]).
    pub fn submit(&self, data: Arc<Dataset>, opts: JobOptions) -> Result<JobHandle, RuntimeError> {
        self.submit_inner(data, opts, false)
    }

    /// Like [`Scheduler::submit`], but blocks until queue space is
    /// available instead of returning [`RuntimeError::QueueFull`].
    pub fn submit_blocking(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_inner(data, opts, true)
    }

    fn submit_inner(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
        blocking: bool,
    ) -> Result<JobHandle, RuntimeError> {
        let num_pes = self.shared.device.num_pes();
        let pe_limit = match opts.num_pes {
            None => num_pes,
            Some(0) => {
                return Err(RuntimeError::InvalidConfig {
                    reason: "job requests 0 PEs".into(),
                })
            }
            Some(n) if n > num_pes => {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!("job requests {n} PEs but the device has {num_pes}"),
                })
            }
            Some(n) => n,
        };
        if self.shared.pe_cfg.input_bytes != data.num_features() as u64 {
            return Err(RuntimeError::ShapeMismatch {
                expected_bytes: self.shared.pe_cfg.input_bytes,
                got_bytes: data.num_features() as u64,
            });
        }
        let provenance = match opts.backend {
            ExecBackend::Device => ExecProvenance::Device,
            ExecBackend::HostPlan => {
                if self.shared.plan.is_none() {
                    return Err(RuntimeError::InvalidConfig {
                        reason: "HostPlan backend requires a device built with its model \
                                 (VirtualDevice::with_model)"
                            .into(),
                    });
                }
                ExecProvenance::CompiledPlan {
                    cache_hit: self.shared.plan_from_cache
                        || self.shared.plan_used.swap(true, Ordering::Relaxed),
                }
            }
            ExecBackend::Sharded(k) => {
                // Builds (or fetches) the executor eagerly, so the job
                // reports the *effective* shard count — the cut clamps
                // to the model's atomic scope regions.
                let ex = self.shared.sharded_executor(k)?;
                ExecProvenance::Sharded {
                    shards: ex.num_shards() as u32,
                }
            }
        };
        let total = data.num_samples();
        let blocks = split_into_blocks(total as u64, self.shared.config.block_samples);

        let mut st = self.shared.state.lock();
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(RuntimeError::ShuttingDown);
        }
        if blocking {
            while !blocks.is_empty() && st.jobs.len() >= self.shared.config.queue_capacity {
                self.shared.space_cv.wait(&mut st);
                // The wake may be the drain/drop path telling us to
                // give up rather than space opening.
                if self.shared.draining.load(Ordering::Acquire) {
                    return Err(RuntimeError::ShuttingDown);
                }
            }
        } else if !blocks.is_empty() && st.jobs.len() >= self.shared.config.queue_capacity {
            return Err(RuntimeError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let empty = blocks.is_empty();
        let job = Arc::new(JobState {
            id,
            data,
            blocks,
            pe_limit,
            opts,
            provenance,
            next_block: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            blocks_done: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            terminal: AtomicBool::new(empty),
            results: Mutex::new(vec![0.0f64; total]),
            completion: Mutex::new(if empty {
                Phase::Completed(Vec::new())
            } else {
                Phase::Active
            }),
            done_cv: Condvar::new(),
        });
        if empty {
            drop(st);
            // A zero-sample job is trivially complete.
            self.shared.metrics.job_submitted(0);
            self.shared.metrics.job_finished(JobOutcome::Completed, 0);
        } else {
            st.jobs.push(Arc::clone(&job));
            drop(st);
            self.shared.metrics.job_submitted(job.samples());
            self.shared.work_cv.notify_all();
        }
        Ok(JobHandle {
            job,
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Drop for Scheduler {
    /// Deterministic shutdown, in this order:
    ///
    /// 1. mark the scheduler draining so every submitter — including
    ///    `submit_blocking` callers parked on the space condvar — gets
    ///    [`RuntimeError::ShuttingDown`] instead of enqueueing into a
    ///    pool that will never run their job (the old ordering could
    ///    deadlock such callers forever);
    /// 2. mark every queued job cancelled *before* stopping the pool,
    ///    so no worker claims a fresh block during teardown;
    /// 3. stop and join the workers (in-flight blocks finish, freeing
    ///    their device buffers);
    /// 4. finalise whatever jobs remain as `Cancelled`, unblocking
    ///    their waiters.
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        {
            let st = self.shared.state.lock();
            for job in &st.jobs {
                job.cancelled.store(true, Ordering::Relaxed);
            }
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Unblock waiters of any job the pool never finished.
        let leftovers = std::mem::take(&mut self.shared.state.lock().jobs);
        for job in leftovers {
            if !job.terminal.swap(true, Ordering::Relaxed) {
                self.shared
                    .metrics
                    .job_finished(JobOutcome::Cancelled, job.samples());
                job.finish(Phase::Cancelled);
            }
        }
        self.shared.space_cv.notify_all();
    }
}

/// What happened to one claimed block.
enum BlockOutcome {
    /// Ran to completion; results stored.
    Done,
    /// Not executed because the job was cancelled/failed meanwhile.
    Skipped,
    /// Permanent failure (or transient failure with retries exhausted).
    Failed(RuntimeError),
}

/// Is this error worth retrying? Transient device faults, plus
/// out-of-memory — which under concurrent jobs is usually another
/// job's buffers transiently occupying the channel.
fn is_transient(e: &RuntimeError) -> bool {
    match e {
        RuntimeError::Device(d) => d.is_transient(),
        RuntimeError::Alloc(AllocError::OutOfMemory { .. }) => true,
        _ => false,
    }
}

/// One persistent control thread, pinned to `pe` (a PE only reaches
/// its own HBM channel — the paper's no-crossbar design).
fn worker_loop(shared: &Shared, pe: u32) {
    loop {
        let (job, idx) = {
            let mut st = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(claim) = claim_block(&mut st, pe) {
                    break claim;
                }
                shared.work_cv.wait(&mut st);
            }
        };
        process_block(shared, pe, &job, idx);
    }
}

/// Claim the next block of the next eligible job after the round-robin
/// cursor. Per-job FIFO (blocks in order), round-robin across jobs.
fn claim_block(st: &mut State, pe: u32) -> Option<(Arc<JobState>, usize)> {
    let n = st.jobs.len();
    for k in 0..n {
        let i = (st.rr + k) % n;
        let job = &st.jobs[i];
        if job.cancelled.load(Ordering::Relaxed)
            || job.terminal.load(Ordering::Relaxed)
            || pe >= job.pe_limit
        {
            continue;
        }
        let next = job.next_block.load(Ordering::Relaxed);
        if next < job.blocks.len() {
            job.next_block.store(next + 1, Ordering::Relaxed);
            job.in_flight.fetch_add(1, Ordering::Relaxed);
            st.rr = (i + 1) % n;
            return Some((Arc::clone(job), next));
        }
    }
    None
}

/// Execute one claimed block (with retries), then do the completion
/// bookkeeping — possibly finalising the whole job.
fn process_block(shared: &Shared, pe: u32, job: &Arc<JobState>, idx: usize) {
    let block = job.blocks[idx];
    let mut attempt: u32 = 0;
    let outcome = loop {
        if job.cancelled.load(Ordering::Relaxed) || job.terminal.load(Ordering::Relaxed) {
            break BlockOutcome::Skipped;
        }
        let ran = match job.opts.backend {
            ExecBackend::Device => run_block(shared, pe, job, block, idx as u64),
            ExecBackend::HostPlan => run_block_host(shared, pe, job, block, idx as u64),
            ExecBackend::Sharded(k) => run_block_sharded(shared, pe, job, block, idx as u64, k),
        };
        match ran {
            Ok(()) => break BlockOutcome::Done,
            Err(e) if is_transient(&e) && attempt < job.opts.max_retries => {
                attempt += 1;
                shared.metrics.block_retried();
                let backoff =
                    Duration::from_micros(job.opts.retry_backoff_us.saturating_mul(attempt as u64))
                        .min(MAX_BACKOFF);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => break BlockOutcome::Failed(e),
        }
    };

    let mut st = shared.state.lock();
    job.in_flight.fetch_sub(1, Ordering::Relaxed);
    if job.terminal.load(Ordering::Relaxed) {
        // Another worker already finalised the job (failure races).
        return;
    }
    match outcome {
        BlockOutcome::Failed(e) => {
            // First failure wins: stop claims, detach the job, fail it.
            // Other in-flight blocks of this job drain harmlessly; other
            // jobs are untouched.
            job.terminal.store(true, Ordering::Relaxed);
            job.cancelled.store(true, Ordering::Relaxed);
            remove_job(&mut st, job);
            drop(st);
            shared
                .metrics
                .job_finished(JobOutcome::Failed, job.samples());
            job.finish(Phase::Failed(e));
            shared.space_cv.notify_all();
        }
        BlockOutcome::Done => {
            shared.metrics.block_executed();
            let done = job.blocks_done.fetch_add(1, Ordering::Relaxed) + 1;
            if done as usize == job.blocks.len() {
                job.terminal.store(true, Ordering::Relaxed);
                remove_job(&mut st, job);
                drop(st);
                finalize_success(shared, job);
                shared.space_cv.notify_all();
            } else if job.cancelled.load(Ordering::Relaxed)
                && job.in_flight.load(Ordering::Relaxed) == 0
            {
                finalize_cancelled(shared, st, job);
            }
        }
        BlockOutcome::Skipped => {
            if job.cancelled.load(Ordering::Relaxed) && job.in_flight.load(Ordering::Relaxed) == 0 {
                finalize_cancelled(shared, st, job);
            }
        }
    }
}

fn remove_job(st: &mut State, job: &Arc<JobState>) {
    st.jobs.retain(|j| !Arc::ptr_eq(j, job));
}

fn finalize_cancelled(
    shared: &Shared,
    mut st: parking_lot::MutexGuard<'_, State>,
    job: &Arc<JobState>,
) {
    job.terminal.store(true, Ordering::Relaxed);
    remove_job(&mut st, job);
    drop(st);
    shared
        .metrics
        .job_finished(JobOutcome::Cancelled, job.samples());
    job.finish(Phase::Cancelled);
    shared.space_cv.notify_all();
}

/// All blocks done: run verification sampling (outside any lock) and
/// publish the results. Host-plan jobs skip verification: their
/// results *are* exact host arithmetic, while the golden check's tight
/// tolerance assumes device-format output re-computed by the same
/// bit-accurate core.
fn finalize_success(shared: &Shared, job: &Arc<JobState>) {
    let results = std::mem::take(&mut *job.results.lock());
    if shared.config.verify_fraction > 0.0 && job.opts.backend == ExecBackend::Device {
        if let Err(e) = verify_results(shared, job, &results) {
            shared
                .metrics
                .job_finished(JobOutcome::Failed, job.samples());
            job.finish(Phase::Failed(e));
            return;
        }
    }
    shared
        .metrics
        .job_finished(JobOutcome::Completed, job.samples());
    job.finish(Phase::Completed(results));
}

/// Spot-check a deterministic stride of results against the host
/// golden model (the paper's defence against silent transient faults).
fn verify_results(shared: &Shared, job: &JobState, results: &[f64]) -> Result<(), RuntimeError> {
    let n = results.len();
    let checks = ((n as f64 * shared.config.verify_fraction).ceil() as usize).min(n);
    if checks == 0 {
        return Ok(());
    }
    let stride = (n / checks).max(1);
    for i in (0..n).step_by(stride) {
        let expected = shared.device.golden(0, job.data.row(i))?;
        let got = results[i];
        let tolerance = expected.abs() * 1e-12 + f64::MIN_POSITIVE;
        if (got - expected).abs() > tolerance {
            return Err(RuntimeError::VerificationFailed {
                index: i,
                got,
                expected,
            });
        }
    }
    Ok(())
}

/// The host fast path: evaluate one block through the compiled plan,
/// entirely on the CPU. No device buffers, no DMA — just the batched
/// [`PlanExecutor`] over the block's slice of the dataset. Results are
/// stored as linear probabilities (`exp(log-likelihood)`), matching
/// the device convention, so callers see one result format regardless
/// of backend.
fn run_block_host(
    shared: &Shared,
    pe: u32,
    job: &JobState,
    block: Block,
    idx: u64,
) -> Result<(), RuntimeError> {
    let plan = shared
        .plan
        .as_ref()
        .expect("HostPlan jobs are rejected at submit without a plan");
    let nf = job.data.num_features();
    let (src_off, src_len) = block.input_range(nf as u64);
    let src = &job.data.raw()[src_off as usize..(src_off + src_len) as usize];
    let t0 = Instant::now();
    let mut ex = PlanExecutor::new(plan);
    let mut out = Vec::with_capacity(block.samples as usize);
    ex.eval_batch_raw(&Query::Complete, src, nf, &mut out);
    if let Some(t) = shared.trace.as_deref() {
        t.record(
            SpanKind::PlanExec,
            job.opts.ctx,
            pe,
            idx,
            t0,
            Instant::now(),
        );
    }
    shared.metrics.add_pe_busy(pe, t0.elapsed());

    let mut res = job.results.lock();
    for (i, ll) in out.iter().enumerate() {
        res[block.first_sample as usize + i] = ll.exp();
    }
    Ok(())
}

/// The sharded host path: evaluate one block's samples across the K
/// concurrent shard executors, then merge the shard partials into root
/// values. Two spans per block when tracing — `shard-exec` around the
/// concurrent shard phase, `shard-merge` around the combine — so a
/// Chrome-trace export shows where a cut's time goes. Results are
/// linear probabilities, same as every other backend.
fn run_block_sharded(
    shared: &Shared,
    pe: u32,
    job: &JobState,
    block: Block,
    idx: u64,
    k: u32,
) -> Result<(), RuntimeError> {
    let ex = shared
        .sharded_executor(k)
        .expect("Sharded jobs are rejected at submit without a model");
    let nf = job.data.num_features();
    let (src_off, src_len) = block.input_range(nf as u64);
    let src = &job.data.raw()[src_off as usize..(src_off + src_len) as usize];
    let trace = shared.trace.as_deref();
    let t0 = Instant::now();
    let partials = ex.shard_partials(&Query::Complete, src, nf);
    if let Some(t) = trace {
        t.record(
            SpanKind::ShardExec,
            job.opts.ctx,
            pe,
            idx,
            t0,
            Instant::now(),
        );
    }
    let t_merge = Instant::now();
    let mut out = Vec::with_capacity(block.samples as usize);
    ex.merge_partials(&Query::Complete, &partials, &mut out);
    if let Some(t) = trace {
        t.record(
            SpanKind::ShardMerge,
            job.opts.ctx,
            pe,
            idx,
            t_merge,
            Instant::now(),
        );
    }
    shared.metrics.add_pe_busy(pe, t0.elapsed());
    shared.sharded_blocks.fetch_add(1, Ordering::Relaxed);

    let mut res = job.results.lock();
    for (i, ll) in out.iter().enumerate() {
        res[block.first_sample as usize + i] = ll.exp();
    }
    Ok(())
}

/// One control-thread iteration: allocate, transfer, launch, read
/// back. Device buffers are freed on every path — success, failure or
/// fault — so neither job failure nor cancellation can leak channel
/// memory.
fn run_block(
    shared: &Shared,
    pe: u32,
    job: &JobState,
    block: Block,
    idx: u64,
) -> Result<(), RuntimeError> {
    let pe_cfg = &shared.pe_cfg;
    let device = &shared.device;
    let in_bytes = block.samples * pe_cfg.input_bytes;
    let out_bytes = block.samples * pe_cfg.result_bytes;
    let inb = device.memory().alloc(pe, in_bytes)?;
    let outb = match device.memory().alloc(pe, out_bytes) {
        Ok(b) => b,
        Err(e) => {
            let _ = device.memory().free(inb);
            return Err(e.into());
        }
    };
    let trace = shared.trace.as_deref();
    let ctx = job.opts.ctx;
    let run = || -> Result<Vec<u8>, RuntimeError> {
        let (src_off, src_len) = block.input_range(pe_cfg.input_bytes);
        let src = &job.data.raw()[src_off as usize..(src_off + src_len) as usize];
        let t_h2d = Instant::now();
        device.copy_to_device(inb, src)?;
        if let Some(t) = trace {
            t.record(SpanKind::H2D, ctx, pe, idx, t_h2d, Instant::now());
        }
        shared.metrics.add_h2d_bytes(src.len() as u64);
        let t0 = Instant::now();
        device.launch(pe, inb, outb, block.samples)?;
        if let Some(t) = trace {
            t.record(SpanKind::Execute, ctx, pe, idx, t0, Instant::now());
        }
        shared.metrics.add_pe_busy(pe, t0.elapsed());
        let t_d2h = Instant::now();
        let raw = device.copy_from_device(outb)?;
        if let Some(t) = trace {
            t.record(SpanKind::D2H, ctx, pe, idx, t_d2h, Instant::now());
        }
        shared.metrics.add_d2h_bytes(raw.len() as u64);
        Ok(raw)
    };
    let out = run();
    // Buffers are always returned, success or not.
    let _ = device.memory().free(inb);
    let _ = device.memory().free(outb);
    let raw = out?;

    let mut res = job.results.lock();
    for i in 0..block.samples as usize {
        let v = f64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().expect("8-byte result"));
        res[block.first_sample as usize + i] = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FaultInjection;
    use spn_core::Query;
    use spn_core::{Evaluator, NipsBenchmark};

    fn device(pes: u32) -> (Arc<VirtualDevice>, NipsBenchmark) {
        let bench = NipsBenchmark::Nips10;
        (
            Arc::new(VirtualDevice::paper(&bench.build_spn(), pes)),
            bench,
        )
    }

    fn config(block: u64, threads: u32) -> RuntimeConfig {
        RuntimeConfig::builder()
            .block_samples(block)
            .threads_per_pe(threads)
            .build()
            .unwrap()
    }

    fn reference(bench: NipsBenchmark, data: &Dataset) -> Vec<f64> {
        let spn = bench.build_spn();
        let mut ev = Evaluator::new(&spn);
        data.rows()
            .map(|r| ev.eval_bytes(&Query::Complete, r).exp())
            .collect()
    }

    #[test]
    fn submit_wait_matches_reference() {
        let (dev, bench) = device(2);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(777, 5));
        let handle = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        assert!(handle.id() > 0);
        let got = handle.wait().unwrap();
        let want = reference(bench, &data);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(((g - w) / w).abs() < 1e-4);
        }
        let m = sched.metrics_snapshot();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.blocks_executed, 777u64.div_ceil(64));
        assert_eq!(m.block_retries, 0);
        assert_eq!(m.jobs_in_flight, 0);
    }

    #[test]
    fn empty_job_completes_immediately() {
        let (dev, bench) = device(1);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let data = Arc::new(bench.dataset(0, 1));
        let handle = sched.submit(data, JobOptions::default()).unwrap();
        assert_eq!(handle.poll(), JobStatus::Completed);
        assert!(handle.wait().unwrap().is_empty());
        assert_eq!(sched.metrics_snapshot().jobs_completed, 1);
    }

    #[test]
    fn queue_full_backpressure() {
        let (dev, bench) = device(1);
        let cfg = RuntimeConfig::builder()
            .block_samples(16)
            .threads_per_pe(1)
            .queue_capacity(1)
            .build()
            .unwrap();
        let sched = Scheduler::new(dev, cfg).unwrap();
        let big = Arc::new(bench.dataset(20_000, 1));
        let h1 = sched
            .submit(Arc::clone(&big), JobOptions::default())
            .unwrap();
        // The single-capacity queue is occupied while job 1 runs, so at
        // least one immediate re-submit must bounce (the first job needs
        // 1250 blocks; it cannot finish faster than we can re-try).
        let saw_queue_full = match sched.submit(Arc::clone(&big), JobOptions::default()) {
            Err(RuntimeError::QueueFull { capacity: 1 }) => true,
            Err(other) => panic!("unexpected error {other}"),
            Ok(h) => {
                // Job 1 already drained — should be impossible at 1250
                // blocks; clean up so the assert below reports it.
                h.cancel();
                let _ = h.wait();
                false
            }
        };
        assert!(saw_queue_full, "bounded queue should exert backpressure");
        // submit_blocking waits for space instead of bouncing.
        let h2 = sched
            .submit_blocking(Arc::clone(&big), JobOptions::default())
            .unwrap();
        h1.wait().unwrap();
        h2.wait().unwrap();
    }

    #[test]
    fn shape_mismatch_rejected_at_submit() {
        let (dev, _) = device(1);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let wrong = Arc::new(NipsBenchmark::Nips20.dataset(10, 1));
        assert!(matches!(
            sched.submit(wrong, JobOptions::default()),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn pe_limit_out_of_range_rejected() {
        let (dev, bench) = device(2);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let data = Arc::new(bench.dataset(10, 1));
        let opts = JobOptions::builder().num_pes(3).build().unwrap();
        assert!(matches!(
            sched.submit(data, opts),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn transient_faults_retried_to_success() {
        let bench = NipsBenchmark::Nips10;
        let dev = Arc::new(VirtualDevice::paper(&bench.build_spn(), 2).with_faults(
            FaultInjection {
                launch_fail_probability: 0.4,
                seed: 41,
                ..FaultInjection::default()
            },
        ));
        let sched = Scheduler::new(dev, config(128, 2)).unwrap();
        let data = Arc::new(bench.dataset(1500, 6));
        let opts = JobOptions::builder()
            .max_retries(64)
            .retry_backoff_us(0)
            .build()
            .unwrap();
        let got = sched
            .submit(Arc::clone(&data), opts)
            .unwrap()
            .wait()
            .unwrap();
        let want = reference(bench, &data);
        for (g, w) in got.iter().zip(&want) {
            assert!(((g - w) / w).abs() < 1e-4);
        }
        let m = sched.metrics_snapshot();
        assert!(m.block_retries > 0, "p=0.4 must have caused retries");
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.jobs_failed, 0);
    }

    #[test]
    fn queue_depth_and_samples_gauge_track_jobs() {
        let (dev, bench) = device(1);
        let sched = Scheduler::new(dev, config(16, 1)).unwrap();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.samples_in_flight(), 0);
        let data = Arc::new(bench.dataset(30_000, 3));
        let h = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        // While the job runs, both gauges are live and non-zero.
        assert_eq!(sched.queue_depth(), 1);
        assert_eq!(sched.samples_in_flight(), 30_000);
        h.wait().unwrap();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.samples_in_flight(), 0);
        assert_eq!(sched.metrics_snapshot().samples_in_flight, 0);
    }

    #[test]
    fn drain_refuses_new_jobs_and_finishes_accepted_ones() {
        let (dev, bench) = device(2);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(5_000, 4));
        let h = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        sched.drain();
        // Accepted work ran to completion during the drain...
        assert_eq!(sched.queue_depth(), 0);
        let got = h.wait().unwrap();
        assert_eq!(got.len(), 5_000);
        // ...and both submit flavours are refused afterwards.
        assert!(matches!(
            sched.submit(Arc::clone(&data), JobOptions::default()),
            Err(RuntimeError::ShuttingDown)
        ));
        assert!(matches!(
            sched.submit_blocking(data, JobOptions::default()),
            Err(RuntimeError::ShuttingDown)
        ));
        // Idempotent.
        sched.drain();
    }

    /// Regression test for the shutdown ordering: a `submit_blocking`
    /// caller parked on the full queue must be woken with
    /// `ShuttingDown` when the scheduler shuts down — the old ordering
    /// let it enqueue into the dead pool and wait forever. `drain()`
    /// and `Drop` share this wake path (`draining` is set before the
    /// space condvar is notified); `drain()` is the testable entry.
    #[test]
    fn shutdown_wakes_blocked_submitters_with_shutting_down() {
        let (dev, bench) = device(1);
        let cfg = RuntimeConfig::builder()
            .block_samples(16)
            .threads_per_pe(1)
            .queue_capacity(1)
            .build()
            .unwrap();
        let sched = Arc::new(Scheduler::new(dev, cfg).unwrap());
        let big = Arc::new(bench.dataset(50_000, 1));
        let h1 = sched
            .submit(Arc::clone(&big), JobOptions::default())
            .unwrap();
        let s2 = Arc::clone(&sched);
        let b2 = Arc::clone(&big);
        let blocked = std::thread::spawn(move || {
            // Queue capacity 1 is occupied by the long job; this parks
            // (or observes the drain immediately if it loses the race).
            match s2.submit_blocking(b2, JobOptions::default()) {
                Err(RuntimeError::ShuttingDown) => {}
                Ok(_) => panic!("submission accepted during shutdown"),
                Err(other) => panic!("unexpected error {other}"),
            }
        });
        // Give the thread time to park on the space condvar.
        std::thread::sleep(Duration::from_millis(30));
        sched.drain();
        blocked.join().expect("blocked submitter must not deadlock");
        h1.wait().expect("accepted job completes during drain");
    }

    #[test]
    fn traced_scheduler_stamps_job_ctx_on_device_spans() {
        let (dev, bench) = device(2);
        let trace = Arc::new(TraceCollector::new());
        let sched = Scheduler::with_trace(dev, config(64, 1), Some(Arc::clone(&trace))).unwrap();
        assert!(sched.trace().is_some());
        let ctx = spn_telemetry::SpanCtx::mint();
        let data = Arc::new(bench.dataset(130, 5));
        let opts = JobOptions::builder().ctx(ctx).build().unwrap();
        sched
            .submit(Arc::clone(&data), opts)
            .unwrap()
            .wait()
            .unwrap();
        let spans = trace.spans();
        // 3 blocks of ≤64 samples × (h2d, execute, d2h).
        assert_eq!(spans.len(), 9);
        assert!(
            spans.iter().all(|s| s.ctx == ctx),
            "all spans carry the job ctx"
        );
        for kind in [SpanKind::H2D, SpanKind::Execute, SpanKind::D2H] {
            assert_eq!(spans.iter().filter(|s| s.kind == kind).count(), 3);
        }
        // An untraced scheduler records nothing and exposes no collector.
        let (dev2, _) = device(1);
        let plain = Scheduler::new(dev2, config(64, 1)).unwrap();
        assert!(plain.trace().is_none());
    }

    fn model_device(pes: u32) -> (Arc<VirtualDevice>, NipsBenchmark) {
        let bench = NipsBenchmark::Nips10;
        let spn = Arc::new(bench.build_spn());
        let dev = VirtualDevice::paper(&spn, pes).with_model(spn);
        (Arc::new(dev), bench)
    }

    #[test]
    fn sharded_backend_matches_host_plan_bit_exactly() {
        let (dev, bench) = model_device(2);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(333, 9));
        let host = sched
            .submit(
                Arc::clone(&data),
                JobOptions::builder()
                    .backend(ExecBackend::HostPlan)
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .wait()
            .unwrap();
        for k in [1u32, 2, 3, 4] {
            let h = sched
                .submit(
                    Arc::clone(&data),
                    JobOptions::builder()
                        .backend(ExecBackend::Sharded(k))
                        .build()
                        .unwrap(),
                )
                .unwrap();
            match h.provenance() {
                ExecProvenance::Sharded { shards } => assert!(shards >= 1 && shards <= k),
                other => panic!("unexpected provenance {other:?}"),
            }
            let got = h.wait().unwrap();
            assert_eq!(got.len(), host.len());
            for (i, (g, w)) in got.iter().zip(&host).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "k={k} sample {i}: sharded {g} vs host plan {w}"
                );
            }
        }
        let shard = sched.shard_telemetry().expect("sharded jobs ran");
        assert_eq!(shard.shard_sets, 4);
        assert!(shard.shards >= 4, "k=1..4 cuts hold at least 4 shards");
        assert!(shard.sharded_blocks >= 4 * 333u64.div_ceil(64));
    }

    #[test]
    fn sharded_backend_requires_a_model_and_positive_count() {
        let (dev, bench) = device(1); // no with_model
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let data = Arc::new(bench.dataset(10, 1));
        let opts = JobOptions {
            backend: ExecBackend::Sharded(2),
            ..JobOptions::default()
        };
        assert!(matches!(
            sched.submit(Arc::clone(&data), opts),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // A zero shard count is caught even when the builder is bypassed.
        let (dev, _) = model_device(1);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let opts = JobOptions {
            backend: ExecBackend::Sharded(0),
            ..JobOptions::default()
        };
        assert!(matches!(
            sched.submit(data, opts),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert_eq!(sched.shard_telemetry(), None);
    }

    #[test]
    fn traced_sharded_job_records_exec_and_merge_spans() {
        let (dev, bench) = model_device(1);
        let trace = Arc::new(TraceCollector::new());
        let sched = Scheduler::with_trace(dev, config(64, 1), Some(Arc::clone(&trace))).unwrap();
        let ctx = spn_telemetry::SpanCtx::mint();
        let data = Arc::new(bench.dataset(130, 3));
        let opts = JobOptions::builder()
            .backend(ExecBackend::Sharded(2))
            .ctx(ctx)
            .build()
            .unwrap();
        sched.submit(data, opts).unwrap().wait().unwrap();
        let spans = trace.spans();
        // 3 blocks × (shard-exec, shard-merge), plus shard-plan
        // compiles recorded without a request ctx.
        for kind in [SpanKind::ShardExec, SpanKind::ShardMerge] {
            let of_kind: Vec<_> = spans.iter().filter(|s| s.kind == kind).collect();
            assert_eq!(of_kind.len(), 3, "{kind:?}");
            assert!(of_kind.iter().all(|s| s.ctx == ctx));
        }
    }

    #[test]
    fn dropping_scheduler_cancels_outstanding_jobs() {
        let (dev, bench) = device(1);
        let sched = Scheduler::new(dev, config(16, 1)).unwrap();
        let data = Arc::new(bench.dataset(50_000, 2));
        let handle = sched.submit(data, JobOptions::default()).unwrap();
        drop(sched);
        // The waiter is unblocked, not deadlocked.
        match handle.wait() {
            Ok(_) | Err(RuntimeError::Cancelled) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
