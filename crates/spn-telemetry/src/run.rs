//! The durable run record: every bench, loadgen and replay run as one
//! versioned, provenance-stamped JSON artifact.
//!
//! The paper's headline numbers are throughput curves under controlled
//! load; a perf claim is only worth committing if the artifact behind
//! it says *what code* produced it, *how* it was configured, and *what
//! it measured*. A [`RunRecord`] captures exactly that: a
//! [`Provenance`] block (commit hash, rustc version, wall-clock
//! timestamp), the full run configuration, the measured metrics, and —
//! where a serving stack was involved — the final
//! [`TelemetrySnapshot`] and latency summary.
//!
//! The committed `BENCH_plan.json` / `BENCH_router.json` artifacts and
//! every file under the append-only `runs/` store (see
//! `spn-replay::RunStore`) are documents of this schema. Key order in
//! the JSON follows field declaration order here and is part of the
//! contract (pinned by `tests/metrics_json.rs`); bump
//! [`RUN_RECORD_SCHEMA_VERSION`] on any breaking change.

use crate::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use sim_core::HistogramSummary;
use std::process::Command;

/// Version stamp of the [`RunRecord`] JSON schema.
pub const RUN_RECORD_SCHEMA_VERSION: u32 = 1;

/// What kind of run produced a record. Serialized as a lowercase
/// string on the wire (`"bench"` / `"load"` / `"replay"`) — written
/// by hand because the vendored serde shim has no rename attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A committed benchmark study (e.g. the plan or router sweep).
    Bench,
    /// A recorded closed-loop load-generation run.
    Load,
    /// A trace replay.
    Replay,
}

impl RunKind {
    /// The wire string.
    pub fn name(&self) -> &'static str {
        match self {
            RunKind::Bench => "bench",
            RunKind::Load => "load",
            RunKind::Replay => "replay",
        }
    }
}

impl Serialize for RunKind {
    fn serialize(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for RunKind {
    fn deserialize(v: &Value) -> Result<Self, serde::DeError> {
        match v.as_str() {
            Some("bench") => Ok(RunKind::Bench),
            Some("load") => Ok(RunKind::Load),
            Some("replay") => Ok(RunKind::Replay),
            _ => Err(serde::DeError::expected(
                "\"bench\", \"load\" or \"replay\"",
                v,
                "RunKind",
            )),
        }
    }
}

/// Where and when a run happened: the provenance block every
/// [`RunRecord`] embeds (flattened into its top-level keys).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"` when
    /// the run happened outside a git checkout.
    pub commit: String,
    /// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc_version: String,
    /// Seconds since the Unix epoch at capture time.
    pub recorded_unix: u64,
}

impl Provenance {
    /// Capture provenance from the environment. Never fails: a
    /// missing `git` or `rustc`, or a non-repo working directory,
    /// degrades to `"unknown"` rather than blocking the run.
    pub fn capture() -> Provenance {
        Provenance {
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc_version: command_line("rustc", &["--version"]),
            recorded_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }
}

/// First line of `cmd args` stdout, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run, durably: the schema shared by the committed `BENCH_*.json`
/// artifacts, the `runs/` store, and `spn bench diff`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Schema version ([`RUN_RECORD_SCHEMA_VERSION`]).
    pub run_schema: u32,
    /// Stable run name (e.g. `"plan_study"`, `"router_study"`,
    /// `"record"`, `"replay"`) — the key `spn bench diff` matches
    /// baselines and candidates by.
    pub name: String,
    /// What produced the record.
    pub kind: RunKind,
    /// Commit hash of the code that ran ([`Provenance::commit`]).
    pub commit: String,
    /// Toolchain that built it ([`Provenance::rustc_version`]).
    pub rustc_version: String,
    /// When ([`Provenance::recorded_unix`]).
    pub recorded_unix: u64,
    /// The *full* configuration of the run — every knob that shaped
    /// the numbers, as a JSON subtree.
    pub config: Value,
    /// The measured results, as a JSON subtree. `spn bench diff`
    /// walks this tree for comparable metrics.
    pub metrics: Value,
    /// Final telemetry document, when a serving stack was involved.
    pub telemetry: Option<TelemetrySnapshot>,
    /// End-to-end request-latency summary in milliseconds, when the
    /// run measured one.
    pub latency_ms: Option<HistogramSummary>,
}

impl RunRecord {
    /// A record with freshly captured [`Provenance`].
    pub fn new(name: &str, kind: RunKind, config: Value, metrics: Value) -> RunRecord {
        RunRecord::with_provenance(name, kind, Provenance::capture(), config, metrics)
    }

    /// A record with explicit provenance (tests pin golden JSON with
    /// fixed provenance; everything else wants [`RunRecord::new`]).
    pub fn with_provenance(
        name: &str,
        kind: RunKind,
        provenance: Provenance,
        config: Value,
        metrics: Value,
    ) -> RunRecord {
        RunRecord {
            run_schema: RUN_RECORD_SCHEMA_VERSION,
            name: name.to_string(),
            kind,
            commit: provenance.commit,
            rustc_version: provenance.rustc_version,
            recorded_unix: provenance.recorded_unix,
            config,
            metrics,
            telemetry: None,
            latency_ms: None,
        }
    }

    /// Pretty JSON text of the record (trailing newline, like every
    /// other committed JSON artifact in the repo).
    pub fn to_json(&self) -> String {
        let mut out =
            serde_json::to_string_pretty(self).expect("run record serialization is infallible");
        out.push('\n');
        out
    }

    /// Parse a document produced by [`RunRecord::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let rec = RunRecord::with_provenance(
            "router_study",
            RunKind::Bench,
            Provenance {
                commit: "deadbeef".into(),
                rustc_version: "rustc 1.0".into(),
                recorded_unix: 1_700_000_000,
            },
            serde_json::from_str(r#"{"backends": 4}"#).unwrap(),
            serde_json::from_str(r#"{"samples_per_sec": 33670.5}"#).unwrap(),
        );
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.run_schema, RUN_RECORD_SCHEMA_VERSION);
        assert_eq!(back.kind, RunKind::Bench);
    }

    #[test]
    fn kind_serializes_as_lowercase_string() {
        for (kind, text) in [
            (RunKind::Bench, "\"bench\""),
            (RunKind::Load, "\"load\""),
            (RunKind::Replay, "\"replay\""),
        ] {
            assert_eq!(serde_json::to_string(&kind).unwrap(), text);
        }
    }

    #[test]
    fn capture_never_fails() {
        let p = Provenance::capture();
        // Whatever the environment, the fields are non-empty strings.
        assert!(!p.commit.is_empty());
        assert!(!p.rustc_version.is_empty());
    }
}
