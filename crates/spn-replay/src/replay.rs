//! The replayer: re-issue a recorded [`Trace`] against a live server
//! or router.
//!
//! A trace becomes an arrival schedule for `spn_server`'s load driver:
//! each recorded connection is a lane, and each record is due at its
//! recorded offset, speed-scaled ([`ReplayConfig::speed`]) and
//! optionally collapsed into a [`Burst`]. Arrivals therefore come from
//! the recorded clock, not from response completions — a request goes
//! out at the later of its due time and the previous reply on its
//! lane — so a slow server sees queue build-up as production would.
//!
//! Payloads are regenerated from the per-request seeds and checked
//! against the recorded payload digests; replies are digested and —
//! where the trace recorded a reply digest — verified bit for bit.

use crate::digest::digest_bytes;
use crate::trace::{scaled_arrival_ns, Trace};
use spn_server::{drive, LoadReport, ScheduledRequest};
use std::fmt;
use std::net::SocketAddr;

/// Burst injection: every arrival whose *recorded* offset falls in
/// `[start_ms, start_ms + len_ms)` is moved to `start_ms`, turning a
/// stretch of the trace into one instantaneous spike (then the whole
/// timeline is speed-scaled as usual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Window start, milliseconds on the recorded timeline.
    pub start_ms: u64,
    /// Window length, milliseconds.
    pub len_ms: u64,
}

/// How to replay a trace.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Where to send the stream (a server or a router — the wire
    /// protocol is the same).
    pub addr: SocketAddr,
    /// Time scale: `1.0` replays the original gaps, `2.0` twice as
    /// fast, `0.5` half speed. Must be positive and finite.
    pub speed: f64,
    /// Optional burst injection on the recorded timeline.
    pub burst: Option<Burst>,
    /// Verify reply digests against the recorded ones.
    pub verify: bool,
    /// Per-request deadline in ms (`0` = none).
    pub deadline_ms: u32,
}

impl ReplayConfig {
    /// Replay `addr` at original speed, verifying digests.
    pub fn new(addr: SocketAddr) -> ReplayConfig {
        ReplayConfig {
            addr,
            speed: 1.0,
            burst: None,
            verify: true,
            deadline_ms: 0,
        }
    }
}

/// Why a replay could not run at all (per-request failures are
/// *counted* in the report instead — an unreachable backend mid-run
/// is data, not an abort).
#[derive(Debug)]
pub enum ReplayError {
    /// The trace is empty.
    EmptyTrace,
    /// The initial connections could not be established.
    Connect(std::io::Error),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::EmptyTrace => write!(f, "trace has no records"),
            ReplayError::Connect(e) => write!(f, "cannot connect for replay: {e}"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// What a replay run measured: the driver's report, in trace order,
/// plus the digest checks.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The load driver's report; `load.requests[i]` is trace record
    /// `i`, and two replays of one trace against one system must
    /// produce identical reply digests there.
    pub load: LoadReport,
    /// Regenerated payloads whose digest did not match the recorded
    /// one (a corrupt or inconsistent trace; the request is still
    /// sent — the payload is a pure function of the seed either way).
    pub payload_mismatches: u64,
    /// `Ok` replies compared against a recorded reply digest.
    pub digests_checked: u64,
    /// Of those, how many differed — any nonzero count means the
    /// system under test is *not* bit-identical to the recording.
    pub digest_mismatches: u64,
}

impl ReplayReport {
    /// Requests in the replayed trace.
    pub fn total_requests(&self) -> u64 {
        self.load.requests.len() as u64
    }

    /// Replies bit-identical where the trace had digests, payload
    /// regeneration clean.
    pub fn is_faithful(&self) -> bool {
        self.digest_mismatches == 0 && self.payload_mismatches == 0
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests replayed: {}; digests: {}/{} verified bit-identical \
             ({} mismatches, {} payload mismatches)",
            self.total_requests(),
            self.load.summary(),
            self.digests_checked - self.digest_mismatches,
            self.digests_checked,
            self.digest_mismatches,
            self.payload_mismatches,
        )
    }
}

/// The effective replay offset of a recorded arrival: burst-adjust on
/// the recorded timeline, then speed-scale. Monotone per connection
/// for any fixed config (burst collapse and integer scaling both
/// preserve order).
pub fn effective_arrival_ns(arrival_ns: u64, cfg: &ReplayConfig) -> u64 {
    let adjusted = match cfg.burst {
        Some(b) => {
            let start = b.start_ms * 1_000_000;
            let end = start.saturating_add(b.len_ms * 1_000_000);
            if (start..end).contains(&arrival_ns) {
                start
            } else {
                arrival_ns
            }
        }
        None => arrival_ns,
    };
    scaled_arrival_ns(adjusted, cfg.speed)
}

/// Replay `trace` against `cfg.addr`.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> Result<ReplayReport, ReplayError> {
    assert!(
        cfg.speed > 0.0 && cfg.speed.is_finite(),
        "replay speed must be positive and finite"
    );
    if trace.records.is_empty() {
        return Err(ReplayError::EmptyTrace);
    }
    let schedule: Vec<ScheduledRequest> = trace
        .records
        .iter()
        .map(|r| ScheduledRequest {
            lane: r.conn,
            due_ns: effective_arrival_ns(r.arrival_ns, cfg),
            model: r.model.clone(),
            num_samples: r.num_samples,
            num_features: r.num_features,
            domain: r.domain,
            seed: r.seed,
            deadline_ms: cfg.deadline_ms,
        })
        .collect();
    let payload_mismatches = schedule
        .iter()
        .zip(&trace.records)
        .filter(|(s, r)| digest_bytes(&s.payload()) != r.payload_digest)
        .count() as u64;
    let load = drive(cfg.addr, &schedule).map_err(ReplayError::Connect)?;

    let mut digests_checked = 0u64;
    let mut digest_mismatches = 0u64;
    if cfg.verify {
        for (rec, got) in trace.records.iter().zip(&load.requests) {
            if let (Some(expected), Some(got)) = (rec.reply_digest, got.reply_digest) {
                digests_checked += 1;
                digest_mismatches += u64::from(expected != got);
            }
        }
    }
    Ok(ReplayReport {
        load,
        payload_mismatches,
        digests_checked,
        digest_mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_at(speed: f64, burst: Option<Burst>) -> ReplayConfig {
        ReplayConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 1)),
            speed,
            burst,
            verify: true,
            deadline_ms: 0,
        }
    }

    #[test]
    fn burst_collapses_window_to_its_start() {
        let cfg = cfg_at(
            1.0,
            Some(Burst {
                start_ms: 10,
                len_ms: 5,
            }),
        );
        // Before, inside (two points), boundary, after.
        assert_eq!(effective_arrival_ns(9_000_000, &cfg), 9_000_000);
        assert_eq!(effective_arrival_ns(10_000_000, &cfg), 10_000_000);
        assert_eq!(effective_arrival_ns(14_999_999, &cfg), 10_000_000);
        assert_eq!(effective_arrival_ns(15_000_000, &cfg), 15_000_000);
    }

    #[test]
    fn burst_then_speed_compose() {
        let cfg = cfg_at(
            2.0,
            Some(Burst {
                start_ms: 10,
                len_ms: 5,
            }),
        );
        assert_eq!(effective_arrival_ns(12_000_000, &cfg), 5_000_000);
        assert_eq!(effective_arrival_ns(20_000_000, &cfg), 10_000_000);
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        let err = replay(&Trace::default(), &cfg_at(1.0, None)).unwrap_err();
        assert!(matches!(err, ReplayError::EmptyTrace));
    }
}
