//! The load driver: one epoll-multiplexed client that runs an arrival
//! schedule against a server or router.
//!
//! A schedule is a list of [`ScheduledRequest`]s, each naming its
//! lane (connection), due time and payload seed. [`drive`] gives every
//! lane its own connection, dials them all before the clock starts,
//! and then sends each request at the later of its due time and the
//! previous reply on its lane. Closed-loop synthetic load
//! ([`LoadConfig::schedule`]) is the schedule with every due time 0;
//! a recorded trace replayed at its original pace (`spn-replay`) is
//! the same schedule with the recorded offsets.
//!
//! Lanes are spread over `min(lanes, available_parallelism)` worker
//! threads, each multiplexing its lanes through one epoll instance, so
//! the offered concurrency equals the lane count without a thread per
//! connection. Latency is timed from the send that got the reply. On a
//! transport failure (reset, EOF, refused dial) the driver reconnects
//! once and sends the request again — inference is idempotent — and
//! counts the request as lost only if that fails too.
//!
//! Payloads are a pure function of the per-request seed
//! ([`synthetic_samples`]), and the report carries every request's
//! send offset and reply digest, which is all a trace recorder needs.

use crate::protocol::{
    decode_results, write_frame, Frame, FrameDecoder, InferRequest, Opcode, Status,
};
use epoll::{Epoll, Event, EPOLLERR, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use sim_core::SplitMix64;
use spn_telemetry::{AtomicHistogram, SpanCtx};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Closed-loop synthetic load: `connections` lanes each issuing
/// `requests_per_connection` seeded requests back to back.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Model name on the wire.
    pub model: String,
    /// Features per sample (must match the model).
    pub num_features: u32,
    /// Feature domain: synthetic values are drawn from `0..domain`.
    pub domain: u8,
    /// Concurrent connections (lanes).
    pub connections: usize,
    /// Requests each connection issues sequentially.
    pub requests_per_connection: usize,
    /// Samples per request (1 = pure per-request serving; larger
    /// values emulate clients that batch on their side).
    pub samples_per_request: u32,
    /// Per-request deadline in ms (`0` = none).
    pub deadline_ms: u32,
    /// Seed for the synthetic feature data.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            model: String::new(),
            num_features: 1,
            domain: 2,
            connections: 4,
            requests_per_connection: 64,
            samples_per_request: 1,
            deadline_ms: 0,
            seed: 1,
        }
    }
}

impl LoadConfig {
    /// The closed-loop schedule: lane-major, every due time 0, request
    /// `r` on lane `c` seeded by [`request_seed`]`(seed, c, r)`.
    pub fn schedule(&self) -> Vec<ScheduledRequest> {
        (0..self.connections)
            .flat_map(|c| {
                (0..self.requests_per_connection).map(move |r| ScheduledRequest {
                    lane: c as u32,
                    due_ns: 0,
                    model: self.model.clone(),
                    num_samples: self.samples_per_request,
                    num_features: self.num_features,
                    domain: self.domain,
                    seed: request_seed(self.seed, c as u64, r as u64),
                    deadline_ms: self.deadline_ms,
                })
            })
            .collect()
    }

    /// Run [`LoadConfig::schedule`] against [`LoadConfig::addr`].
    pub fn run(&self) -> io::Result<LoadReport> {
        drive(self.addr, &self.schedule())
    }
}

/// One request of an arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledRequest {
    /// Lane (connection) the request travels on; requests of one lane
    /// go out in schedule order.
    pub lane: u32,
    /// Earliest send time, nanoseconds after the clock starts.
    pub due_ns: u64,
    /// Model name on the wire.
    pub model: String,
    /// Samples in the request.
    pub num_samples: u32,
    /// Features per sample.
    pub num_features: u32,
    /// Feature domain the payload is drawn from.
    pub domain: u8,
    /// Regenerates the payload: [`synthetic_samples`] of the shape
    /// above and this seed.
    pub seed: u64,
    /// Per-request deadline in ms (`0` = none).
    pub deadline_ms: u32,
}

impl ScheduledRequest {
    /// The feature block this request carries.
    pub fn payload(&self) -> Vec<u8> {
        synthetic_samples(self.num_samples, self.num_features, self.domain, self.seed)
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestResult {
    /// When the request last went out, nanoseconds after the clock
    /// started.
    pub sent_ns: u64,
    /// [`sim_core::digest_lls`] of the `Ok` reply; `None` when the
    /// server rejected the request or it was lost.
    pub reply_digest: Option<u64>,
}

/// Aggregated result of one [`drive`] run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections dialled (one per lane).
    pub connections: usize,
    /// Time to dial every connection, before the clock started.
    pub dial: Duration,
    /// Requests answered `Ok`.
    pub ok_requests: u64,
    /// Requests rejected by the server (busy / deadline / …).
    pub rejected_requests: u64,
    /// Requests lost to transport failures after one reconnect.
    pub transport_errors: u64,
    /// Samples across successful requests.
    pub ok_samples: u64,
    /// Wall-clock from the clock start to the last reply.
    pub elapsed: Duration,
    /// Successful samples per second of wall-clock.
    pub samples_per_sec: f64,
    /// Median request latency, milliseconds (histogram resolution).
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds (histogram
    /// resolution).
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds (histogram
    /// resolution).
    pub p99_ms: f64,
    /// Worst request latency, milliseconds (exact).
    pub max_ms: f64,
    /// One entry per scheduled request, in schedule order.
    pub requests: Vec<RequestResult>,
}

impl LoadReport {
    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} connections dialled in {:.3} s; {} ok / {} rejected / {} lost requests, \
             {} samples in {:.3} s => {:.0} samples/s; latency p50 {:.3} ms, \
             p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            self.connections,
            self.dial.as_secs_f64(),
            self.ok_requests,
            self.rejected_requests,
            self.transport_errors,
            self.ok_samples,
            self.elapsed.as_secs_f64(),
            self.samples_per_sec,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms
        )
    }
}

/// Deterministic synthetic feature block (SplitMix64 over the seed).
pub fn synthetic_samples(num_samples: u32, num_features: u32, domain: u8, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (0..num_samples as usize * num_features as usize)
        .map(|_| (rng.next_u64() % domain.max(1) as u64) as u8)
        .collect()
}

/// The seed for request `req` on connection `conn`: an FNV-style
/// spread of the run seed so every (connection, request) pair draws a
/// distinct synthetic block, yet the whole request stream is a pure
/// function of [`LoadConfig::seed`]. Public so scaling sweeps can
/// replay the exact stream a load run offered.
pub fn request_seed(run_seed: u64, conn: u64, req: u64) -> u64 {
    run_seed
        .wrapping_add(conn)
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(req)
}

/// Clamp a wanted connection count to what the process's fd budget
/// can actually hold, after trying to raise the soft `RLIMIT_NOFILE`
/// to fit. `margin` covers everything else the process has open
/// (listener, epoll fds, stdio, …), so a 10k-connection ask on an 8k
/// box degrades to a loud smaller run instead of an `EMFILE` crash
/// mid-dial.
pub fn clamp_connections(want: usize, margin: usize) -> usize {
    let need = want as u64 + margin as u64;
    let soft = match epoll::raise_nofile_limit(need) {
        Ok(soft) => soft,
        Err(_) => match epoll::nofile_limit() {
            Ok((soft, _)) => soft,
            Err(_) => return want,
        },
    };
    want.min(soft.saturating_sub(margin as u64) as usize).max(1)
}

/// Run `schedule` against `addr` and report every request.
///
/// Errors only if a connection cannot be dialled before the clock
/// starts (or epoll cannot be set up); failures after that are counted
/// in the report.
pub fn drive(addr: SocketAddr, schedule: &[ScheduledRequest]) -> io::Result<LoadReport> {
    let mut by_lane: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, r) in schedule.iter().enumerate() {
        by_lane.entry(r.lane).or_default().push(i);
    }
    let dial_start = Instant::now();
    let mut lanes = Vec::with_capacity(by_lane.len());
    for reqs in by_lane.into_values() {
        lanes.push(Lane::new(dial(addr)?, reqs));
    }
    let dial = dial_start.elapsed();
    let connections = lanes.len();
    let workers = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(connections)
        .max(1);
    let mut shares: Vec<Vec<Lane>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, lane) in lanes.into_iter().enumerate() {
        shares[i % workers].push(lane);
    }

    let latency = AtomicHistogram::latency();
    let t0 = Instant::now();
    let outcomes = thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|lanes| {
                let latency = &latency;
                s.spawn(move || Worker::run(addr, schedule, lanes, t0, latency))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let elapsed = t0.elapsed();

    let mut requests = vec![
        RequestResult {
            sent_ns: 0,
            reply_digest: None,
        };
        schedule.len()
    ];
    let (mut ok, mut rejected, mut lost, mut ok_samples) = (0u64, 0u64, 0u64, 0u64);
    for (idx, result, outcome) in outcomes.into_iter().flatten() {
        requests[idx] = result;
        match outcome {
            Outcome::Ok { samples } => {
                ok += 1;
                ok_samples += samples;
            }
            Outcome::Rejected => rejected += 1,
            Outcome::Lost => lost += 1,
        }
    }
    let lat = latency.summary();
    Ok(LoadReport {
        connections,
        dial,
        ok_requests: ok,
        rejected_requests: rejected,
        transport_errors: lost,
        ok_samples,
        elapsed,
        samples_per_sec: ok_samples as f64 / elapsed.as_secs_f64().max(1e-12),
        p50_ms: lat.p50 * 1e3,
        p95_ms: lat.p95 * 1e3,
        p99_ms: lat.p99 * 1e3,
        max_ms: lat.max * 1e3,
        requests,
    })
}

fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

enum Outcome {
    Ok { samples: u64 },
    Rejected,
    Lost,
}

/// One connection and the requests it carries, in order.
struct Lane {
    /// `None` after a transport failure; the next send re-dials.
    stream: Option<TcpStream>,
    reqs: Vec<usize>,
    /// Position in `reqs` of the current (or next) request.
    next: usize,
    out: Vec<u8>,
    out_at: usize,
    decoder: FrameDecoder,
    /// When the in-flight request went out; `None` while idle.
    sent_at: Option<Instant>,
    sent_ns: u64,
    /// The in-flight request already used its one reconnect.
    retried: bool,
    interest: u32,
}

impl Lane {
    fn new(stream: TcpStream, reqs: Vec<usize>) -> Lane {
        Lane {
            stream: Some(stream),
            reqs,
            next: 0,
            out: Vec::new(),
            out_at: 0,
            decoder: FrameDecoder::new(),
            sent_at: None,
            sent_ns: 0,
            retried: false,
            interest: 0,
        }
    }
}

/// One worker thread: an epoll instance over a share of the lanes.
struct Worker<'a> {
    addr: SocketAddr,
    schedule: &'a [ScheduledRequest],
    lanes: Vec<Lane>,
    epoll: Epoll,
    /// Lanes waiting for their next due time, earliest first.
    due: BinaryHeap<Reverse<(u64, usize)>>,
    t0: Instant,
    latency: &'a AtomicHistogram,
    results: Vec<(usize, RequestResult, Outcome)>,
    finished: usize,
}

impl<'a> Worker<'a> {
    fn run(
        addr: SocketAddr,
        schedule: &'a [ScheduledRequest],
        lanes: Vec<Lane>,
        t0: Instant,
        latency: &'a AtomicHistogram,
    ) -> io::Result<Vec<(usize, RequestResult, Outcome)>> {
        let mut w = Worker {
            addr,
            schedule,
            epoll: Epoll::new()?,
            due: BinaryHeap::with_capacity(lanes.len()),
            t0,
            latency,
            results: Vec::new(),
            finished: 0,
            lanes,
        };
        for (l, lane) in w.lanes.iter().enumerate() {
            let stream = lane.stream.as_ref().expect("lanes start dialled");
            w.epoll.add(stream, 0, l as u64)?;
            w.due.push(Reverse((schedule[lane.reqs[0]].due_ns, l)));
        }
        let mut events = vec![Event::zeroed(); 256];
        loop {
            let now_ns = w.now_ns();
            while let Some(&Reverse((due, l))) = w.due.peek() {
                if due > now_ns {
                    break;
                }
                w.due.pop();
                w.send(l);
            }
            if w.finished == w.lanes.len() {
                return Ok(w.results);
            }
            let timeout = w
                .due
                .peek()
                .map(|&Reverse((due, _))| Duration::from_nanos(due.saturating_sub(w.now_ns())));
            let n = w.epoll.wait(&mut events, timeout)?;
            for ev in &events[..n] {
                w.ready(ev.token() as usize, ev.readiness());
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Send lane `l`'s current request, dialling first if its
    /// connection died.
    fn send(&mut self, l: usize) {
        if self.lanes[l].stream.is_none() {
            match dial(self.addr) {
                Ok(stream) if self.epoll.add(&stream, 0, l as u64).is_ok() => {
                    let lane = &mut self.lanes[l];
                    lane.stream = Some(stream);
                    lane.decoder = FrameDecoder::new();
                    lane.interest = 0;
                }
                _ => return self.fail(l),
            }
        }
        let sent_ns = self.now_ns();
        let lane = &mut self.lanes[l];
        let r = &self.schedule[lane.reqs[lane.next]];
        let req = InferRequest {
            model: r.model.clone(),
            deadline_ms: r.deadline_ms,
            num_samples: r.num_samples,
            num_features: r.num_features,
            data: r.payload(),
            trace: true,
            ctx: SpanCtx::NONE,
        };
        lane.out.clear();
        write_frame(&mut lane.out, &Frame::request(Opcode::Infer, req.encode()))
            .expect("Vec write cannot fail");
        lane.out_at = 0;
        lane.sent_at = Some(Instant::now());
        lane.sent_ns = sent_ns;
        if self.flush(l).is_err() {
            self.fail(l);
        }
    }

    /// Write what the kernel takes, then set the lane's interest:
    /// writable while bytes remain, readable for the reply.
    fn flush(&mut self, l: usize) -> io::Result<()> {
        let lane = &mut self.lanes[l];
        let stream = lane.stream.as_mut().expect("flush on a live lane");
        while lane.out_at < lane.out.len() {
            match stream.write(&lane.out[lane.out_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => lane.out_at += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let pending = if lane.out_at < lane.out.len() {
            EPOLLOUT
        } else {
            0
        };
        self.set_interest(l, EPOLLIN | EPOLLRDHUP | pending)
    }

    fn set_interest(&mut self, l: usize, want: u32) -> io::Result<()> {
        let lane = &mut self.lanes[l];
        if lane.interest != want {
            if let Some(stream) = &lane.stream {
                self.epoll.modify(stream, want, l as u64)?;
            }
            lane.interest = want;
        }
        Ok(())
    }

    /// React to readiness on lane `l`.
    fn ready(&mut self, l: usize, readiness: u32) {
        if self.lanes[l].sent_at.is_none() {
            // An idle lane only hears errors or hang-ups (its interest
            // is empty); drop the socket so the next request re-dials.
            return self.close(l);
        }
        if readiness & EPOLLERR != 0 || self.flush(l).is_err() {
            return self.fail(l);
        }
        let lane = &mut self.lanes[l];
        let stream = lane.stream.as_mut().expect("ready on a live lane");
        loop {
            let n = match stream.read(lane.decoder.spare()) {
                Ok(0) => return self.fail(l),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.fail(l),
            };
            match lane.decoder.advance(n) {
                Ok(None) => {}
                Ok(Some(frame)) => return self.answered(l, frame),
                Err(_) => return self.fail(l),
            }
        }
    }

    /// The server answered lane `l`'s in-flight request.
    fn answered(&mut self, l: usize, frame: Frame) {
        let (digest, outcome) = if frame.status == Status::Ok {
            match decode_results(&frame.payload) {
                Ok(lls) => (
                    Some(sim_core::digest_lls(&lls)),
                    Outcome::Ok {
                        samples: lls.len() as u64,
                    },
                ),
                Err(_) => return self.fail(l),
            }
        } else {
            (None, Outcome::Rejected)
        };
        let sent_at = self.lanes[l].sent_at.expect("answered while in flight");
        self.latency.record_duration(sent_at.elapsed());
        self.finish_request(l, digest, outcome);
    }

    /// A transport failure on lane `l`: reconnect and resend once,
    /// then give the request up.
    fn fail(&mut self, l: usize) {
        self.close(l);
        if self.lanes[l].retried {
            self.finish_request(l, None, Outcome::Lost);
        } else {
            self.lanes[l].retried = true;
            self.send(l);
        }
    }

    fn close(&mut self, l: usize) {
        if let Some(stream) = self.lanes[l].stream.take() {
            let _ = self.epoll.delete(&stream);
        }
    }

    /// Record lane `l`'s current request and queue its next one.
    fn finish_request(&mut self, l: usize, reply_digest: Option<u64>, outcome: Outcome) {
        let lane = &mut self.lanes[l];
        let result = RequestResult {
            sent_ns: lane.sent_ns,
            reply_digest,
        };
        self.results.push((lane.reqs[lane.next], result, outcome));
        lane.sent_at = None;
        lane.retried = false;
        lane.next += 1;
        if lane.next == lane.reqs.len() {
            self.finished += 1;
            return self.close(l);
        }
        let due = self.schedule[lane.reqs[lane.next]].due_ns;
        if due > self.now_ns() && self.set_interest(l, 0).is_err() {
            self.close(l);
        }
        self.due.push(Reverse((due, l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_data_is_deterministic_and_in_domain() {
        let a = synthetic_samples(10, 5, 7, 42);
        let b = synthetic_samples(10, 5, 7, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&v| v < 7));
        assert_ne!(a, synthetic_samples(10, 5, 7, 43));
        // Pinned before the generator moved onto `sim_core::SplitMix64`;
        // committed traces regenerate their payloads from these bits.
        assert_eq!(
            synthetic_samples(3, 4, 255, 7),
            [24, 216, 198, 109, 165, 103, 117, 110, 5, 193, 76, 180]
        );
    }

    #[test]
    fn request_seeds_are_deterministic_and_distinct_per_stream() {
        // The same (run seed, connection, request) triple always maps
        // to the same seed — a sweep re-running with the same
        // `--seed` offers bit-identical request streams.
        assert_eq!(request_seed(1, 0, 0), request_seed(1, 0, 0));
        // Nearby connections and requests never collide in a small
        // window (the multiply spreads the connection index far
        // beyond the request index range).
        let mut seen = std::collections::HashSet::new();
        for conn in 0..8u64 {
            for req in 0..1000u64 {
                assert!(
                    seen.insert(request_seed(42, conn, req)),
                    "seed collision at conn {conn} req {req}"
                );
            }
        }
        // And distinct run seeds give distinct streams.
        assert_ne!(request_seed(1, 0, 0), request_seed(2, 0, 0));
    }

    #[test]
    fn closed_loop_schedule_is_lane_major_and_due_at_zero() {
        let cfg = LoadConfig {
            connections: 3,
            requests_per_connection: 2,
            seed: 9,
            ..LoadConfig::default()
        };
        let s = cfg.schedule();
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|r| r.due_ns == 0));
        assert_eq!(
            s.iter().map(|r| r.lane).collect::<Vec<_>>(),
            [0, 0, 1, 1, 2, 2]
        );
        assert_eq!(s[3].seed, request_seed(9, 1, 1));
    }

    #[test]
    fn report_summary_names_all_percentiles() {
        let report = LoadReport {
            connections: 2,
            dial: Duration::from_millis(1),
            ok_requests: 10,
            rejected_requests: 2,
            transport_errors: 0,
            ok_samples: 10,
            elapsed: Duration::from_secs(1),
            samples_per_sec: 10.0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            max_ms: 4.0,
            requests: Vec::new(),
        };
        let s = report.summary();
        for needle in ["p50", "p95", "p99", "max", "lost"] {
            assert!(s.contains(needle), "summary missing {needle}: {s}");
        }
    }
}
