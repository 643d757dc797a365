//! The trace recorder: turn a load run into a [`Trace`].
//!
//! The driver's report already carries every request's send offset
//! and reply digest, and the schedule carries its lane, shape and
//! seed, so recording is a pure function of the two — nothing hooks
//! the request path.

use crate::digest::digest_bytes;
use crate::trace::{Trace, TraceRecord};
use spn_server::{LoadConfig, LoadReport, ScheduledRequest};

/// Build the trace of a finished run: one record per scheduled
/// request, sorted by `(arrival_ns, conn)` so each lane's order (its
/// send offsets are monotone) is preserved and the global stream reads
/// in arrival order.
pub fn trace_of(run_seed: u64, schedule: &[ScheduledRequest], report: &LoadReport) -> Trace {
    let mut records: Vec<TraceRecord> = schedule
        .iter()
        .zip(&report.requests)
        .map(|(r, got)| TraceRecord {
            arrival_ns: got.sent_ns,
            conn: r.lane,
            model: r.model.clone(),
            num_samples: r.num_samples,
            num_features: r.num_features,
            domain: r.domain,
            seed: r.seed,
            payload_digest: digest_bytes(&r.payload()),
            reply_digest: got.reply_digest,
        })
        .collect();
    records.sort_by_key(|r| (r.arrival_ns, r.conn));
    Trace { run_seed, records }
}

/// Run the closed-loop load described by `cfg` while recording every
/// request — the programmatic form of `spn record`.
pub fn record_load(cfg: &LoadConfig) -> std::io::Result<(LoadReport, Trace)> {
    let schedule = cfg.schedule();
    let report = spn_server::drive(cfg.addr, &schedule)?;
    let trace = trace_of(cfg.seed, &schedule, &report);
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_lls;
    use spn_server::RequestResult;
    use std::time::Duration;

    #[test]
    fn recorder_sorts_by_arrival_and_digests_replies() {
        let cfg = LoadConfig {
            model: "m".into(),
            num_features: 3,
            domain: 4,
            connections: 2,
            requests_per_connection: 1,
            samples_per_request: 2,
            seed: 5,
            ..LoadConfig::default()
        };
        let schedule = cfg.schedule();
        let report = LoadReport {
            connections: 2,
            dial: Duration::ZERO,
            ok_requests: 1,
            rejected_requests: 1,
            transport_errors: 0,
            ok_samples: 2,
            elapsed: Duration::from_millis(1),
            samples_per_sec: 2000.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
            requests: vec![
                RequestResult {
                    sent_ns: 200,
                    reply_digest: Some(digest_lls(&[-1.0, -2.0])),
                },
                RequestResult {
                    sent_ns: 100,
                    reply_digest: None,
                },
            ],
        };
        let trace = trace_of(5, &schedule, &report);
        assert_eq!(trace.run_seed, 5);
        assert_eq!(trace.records.len(), 2);
        assert_eq!(
            (trace.records[0].arrival_ns, trace.records[0].conn),
            (100, 1)
        );
        assert_eq!(trace.records[0].reply_digest, None);
        assert_eq!(
            trace.records[1].reply_digest,
            Some(digest_lls(&[-1.0, -2.0]))
        );
        assert_eq!(
            trace.records[1].payload_digest,
            digest_bytes(&schedule[0].payload())
        );
        // The finished trace encodes (arrivals are monotone per conn).
        let bytes = trace.encode().unwrap();
        assert_eq!(Trace::decode(&bytes).unwrap(), trace);
    }
}
