//! The nonblocking epoll serving engine.
//!
//! The reactor multiplexes every connection over a small fixed pool
//! of event-loop threads driven by level-triggered `epoll` (via the
//! vendored [`epoll`] shim):
//!
//! * one **acceptor thread** parks in `TcpListener::accept`, enforces
//!   the connection limit (over-limit sockets get one `ServerBusy`
//!   frame and a close — a *typed* rejection, not a silent RST), and
//!   hands accepted sockets round-robin to the loops through a
//!   mutexed inbox plus an [`EventFd`] wake;
//! * each **loop thread** owns its connections outright — a slab of
//!   `Conn` state machines with generation-counted slots — so no
//!   lock is held while decoding, dispatching or writing. A
//!   connection decodes SPN1 frames *incrementally* with
//!   [`FrameDecoder`]: bytes land directly in the decoder's
//!   connection-owned buffer, and a completed `Infer` payload is
//!   handed to the batcher without another copy
//!   ([`crate::protocol::InferRequest::decode_owned`]).
//!
//! **Request serialization.** A connection handles one request at a
//! time: while an `Infer`
//! is in flight (or a reply is still flushing) the connection's read
//! interest is dropped, so pipelined bytes wait in the kernel socket
//! buffer. The decoder never reads past the current frame's end,
//! which is what makes this razor-sharp: per-connection memory is
//! bounded by one frame, and replies go back in request order.
//!
//! **Reply path.** The batcher's demux thread does not write to
//! sockets. Its [`crate::batcher::ReplySink`] pushes a `Completion`
//! onto the owning
//! loop's queue and wakes the loop's eventfd; the loop matches it to
//! the connection by `(slot, generation)` — a connection that died
//! mid-request simply drops its reply, while request accounting
//! (`request_done`) still runs. Writes are attempted immediately and
//! fall back to `EPOLLOUT` interest on `WouldBlock`.
//!
//! **Idle timeout.** A per-loop hashed timer wheel closes connections
//! idle past [`crate::ServerConfig::idle_timeout`]; connections with work
//! in flight are never idle-closed, and wheel entries are re-armed
//! lazily from `last_activity` so per-byte bookkeeping stays O(1).
//!
//! Shutdown: the acceptor stops, the batchers drain (their sinks flood the completion queues), then
//! every loop flushes pending replies under a bounded grace period
//! and exits.

use crate::batcher::Reply;
use crate::protocol::{write_frame, Frame, FrameDecoder, Opcode, Status, WireError};
use crate::server::{admit_infer, reply_frame, telemetry_snapshot, InferAdmission, SharedState};
use epoll::{Epoll, Event, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;
use spn_telemetry::{SpanCtx, SpanKind};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The running reactor: acceptor + loop threads, joined in
/// [`ReactorHandle::join_acceptor`] / [`ReactorHandle::finish`].
pub(crate) struct ReactorHandle {
    accept_thread: Option<thread::JoinHandle<()>>,
    loops: Vec<LoopRef>,
}

struct LoopRef {
    shared: Arc<LoopShared>,
    thread: Option<thread::JoinHandle<()>>,
}

/// The cross-thread face of one event loop: everything other threads
/// (the acceptor, batcher demux threads, shutdown) may touch. The
/// loop's actual connection state lives on its own stack.
struct LoopShared {
    epoll: Epoll,
    wake: EventFd,
    /// Sockets accepted but not yet registered with the loop.
    inbox: Mutex<Vec<TcpStream>>,
    /// Batcher replies awaiting delivery to their connections.
    completions: Mutex<Vec<Completion>>,
    /// Set at shutdown: flush pending output, then exit.
    finish: AtomicBool,
}

/// A batcher reply routed back to the loop that owns the connection.
/// Carries the accounting the loop must perform even if the
/// connection died mid-request (generation mismatch).
struct Completion {
    slot: usize,
    generation: u64,
    reply: Reply,
    samples: u64,
    t0: Instant,
    ctx: SpanCtx,
}

/// The wake eventfd's registration token; connection tokens are
/// `slot + 1`.
const TOKEN_WAKE: u64 = 0;

/// How long a finishing loop keeps trying to flush pending replies
/// before abandoning the sockets.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// Start the reactor: bind is already done (`listener`), spawn
/// `loop_threads` event loops and the acceptor.
pub(crate) fn start(
    listener: TcpListener,
    shared: Arc<SharedState>,
    loop_threads: usize,
    max_connections: usize,
    idle_timeout: Option<Duration>,
) -> io::Result<ReactorHandle> {
    let mut loops = Vec::with_capacity(loop_threads);
    for i in 0..loop_threads {
        let ls = Arc::new(LoopShared {
            epoll: Epoll::new()?,
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            finish: AtomicBool::new(false),
        });
        ls.epoll.add(&ls.wake, EPOLLIN, TOKEN_WAKE)?;
        let loop_ls = Arc::clone(&ls);
        let loop_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name(format!("spn-loop-{i}"))
            .spawn(move || run_loop(loop_ls, loop_shared, idle_timeout))
            .expect("spawn reactor loop thread");
        loops.push(LoopRef {
            shared: ls,
            thread: Some(thread),
        });
    }

    let accept_loops: Vec<Arc<LoopShared>> = loops.iter().map(|l| Arc::clone(&l.shared)).collect();
    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("spn-accept".into())
        .spawn(move || accept_loop(listener, accept_shared, accept_loops, max_connections))
        .expect("spawn reactor accept thread");

    Ok(ReactorHandle {
        accept_thread: Some(accept_thread),
        loops,
    })
}

impl ReactorHandle {
    /// Join the acceptor (call after `request_shutdown`, whose nudge
    /// connection unblocks `accept`).
    pub(crate) fn join_acceptor(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Tell every loop to flush and exit, then join them. Call only
    /// after the batchers have drained, so every outstanding reply is
    /// already in (or past) the completion queues.
    pub(crate) fn finish(&mut self) {
        for l in &self.loops {
            l.shared.finish.store(true, Ordering::Release);
            let _ = l.shared.wake.wake();
        }
        for l in &mut self.loops {
            if let Some(t) = l.thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<SharedState>,
    loops: Vec<Arc<LoopShared>>,
    max_connections: usize,
) {
    let metrics = &shared.reactor;
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.is_shutting_down() {
                    // The wake-up connection (or a late client); stop.
                    drop(stream);
                    return;
                }
                if metrics.open_connections() >= max_connections as u64 {
                    metrics.conn_rejected_at_accept();
                    reject_busy(stream, max_connections);
                    continue;
                }
                metrics.conn_accepted();
                let target = &loops[next % loops.len()];
                next = next.wrapping_add(1);
                target.inbox.lock().push(stream);
                let _ = target.wake.wake();
            }
            Err(_) => {
                if shared.is_shutting_down() {
                    return;
                }
                // Transient accept error (EMFILE, ECONNABORTED, …);
                // keep serving.
            }
        }
    }
}

/// Answer an over-limit connection with one typed `ServerBusy` frame,
/// then close. The frame arrives before the client's first request,
/// so it carries `Opcode::Infer` — the opcode a loadgen or inference
/// client is about to send — and a short write timeout so a
/// non-reading peer cannot wedge the acceptor.
fn reject_busy(mut stream: TcpStream, max_connections: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = write_frame(
        &mut stream,
        &Frame::error(
            Opcode::Infer,
            Status::ServerBusy,
            &format!("connection limit {max_connections} reached; retry later"),
        ),
    );
}

/// A reply being flushed to the socket.
struct OutBuf {
    buf: Vec<u8>,
    at: usize,
    /// Trace context + write-start instant for the `ReplyWritten`
    /// span, set for `Infer` replies only.
    span: Option<(SpanCtx, Instant)>,
}

impl OutBuf {
    fn new(frame: &Frame) -> OutBuf {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).expect("serialising to a Vec cannot fail");
        OutBuf {
            buf,
            at: 0,
            span: None,
        }
    }
}

/// One connection's state machine, owned by its loop thread.
struct Conn {
    stream: TcpStream,
    generation: u64,
    decoder: FrameDecoder,
    /// Reply currently flushing (`None` = nothing to write).
    out: Option<OutBuf>,
    /// An `Infer` is enqueued with a batcher and unanswered.
    inflight: bool,
    /// The epoll interest bits currently registered.
    interest: u32,
    last_activity: Instant,
    /// Close once `out` finishes flushing (malformed frame answered,
    /// or peer already gone).
    close_after_flush: bool,
}

impl Conn {
    fn busy(&self) -> bool {
        self.inflight || self.out.is_some()
    }
}

/// Why a connection is being closed (drives metrics only).
#[derive(PartialEq, Eq, Clone, Copy)]
enum CloseReason {
    Peer,
    Idle,
    Shutdown,
}

/// A simple hashed timer wheel over the loop's slab: slots hold
/// `(slot, generation)` cookies, ticks advance a cursor, and expiry
/// consults the connection's true `last_activity` — so a connection
/// is re-inserted lazily instead of being moved on every byte.
struct TimerWheel {
    idle: Duration,
    slots: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    cursor: usize,
    next_tick_at: Instant,
}

const WHEEL_SLOTS: usize = 64;

impl TimerWheel {
    fn new(idle: Duration) -> TimerWheel {
        // Resolution: idle/16, clamped to [5ms, 1s]. Precise enough
        // that expiry lands within ~6% of the deadline, coarse enough
        // that an idle server wakes rarely.
        let tick = (idle / 16)
            .max(Duration::from_millis(5))
            .min(Duration::from_secs(1));
        TimerWheel {
            idle,
            slots: vec![Vec::new(); WHEEL_SLOTS],
            tick,
            cursor: 0,
            next_tick_at: Instant::now() + tick,
        }
    }

    /// Schedule `cookie` to be inspected roughly `after` from now.
    fn insert_after(&mut self, cookie: (usize, u64), after: Duration) {
        let ticks = (after.as_nanos() / self.tick.as_nanos().max(1)) as usize + 1;
        let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(cookie);
    }

    fn insert(&mut self, cookie: (usize, u64)) {
        let idle = self.idle;
        self.insert_after(cookie, idle);
    }

    /// How long until the next tick is due (for the epoll timeout).
    fn until_next_tick(&self, now: Instant) -> Duration {
        self.next_tick_at.saturating_duration_since(now)
    }

    /// Advance past-due ticks, calling `expire` on every cookie whose
    /// slot came up; `expire` returns the remaining idle budget when
    /// the connection is still alive (to re-arm) or `None` when it is
    /// gone or was closed.
    fn advance(&mut self, now: Instant, mut expire: impl FnMut((usize, u64)) -> Option<Duration>) {
        let mut rearm: Vec<((usize, u64), Duration)> = Vec::new();
        while now >= self.next_tick_at {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.next_tick_at += self.tick;
            for cookie in std::mem::take(&mut self.slots[self.cursor]) {
                if let Some(remaining) = expire(cookie) {
                    rearm.push((cookie, remaining));
                }
            }
        }
        for (cookie, remaining) in rearm {
            self.insert_after(cookie, remaining);
        }
    }
}

fn run_loop(ls: Arc<LoopShared>, shared: Arc<SharedState>, idle_timeout: Option<Duration>) {
    let metrics = Arc::clone(&shared.reactor);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut generation = 0u64;
    let mut events = vec![Event::zeroed(); 256];
    let mut wheel = idle_timeout.map(TimerWheel::new);
    let mut finish_deadline: Option<Instant> = None;

    loop {
        let finishing = ls.finish.load(Ordering::Acquire);
        let timeout = if finishing {
            Some(Duration::from_millis(5))
        } else {
            wheel.as_ref().map(|w| {
                w.until_next_tick(Instant::now())
                    .max(Duration::from_millis(1))
            })
        };
        let n = ls.epoll.wait(&mut events, timeout).unwrap_or_default();
        metrics.loop_turn(n as u64);

        for event in events.iter().take(n) {
            let (token, readiness) = (event.token(), event.readiness());
            if token == TOKEN_WAKE {
                let _ = ls.wake.drain();
                continue;
            }
            let slot = (token - 1) as usize;
            handle_readiness(
                &ls, &shared, &metrics, &mut conns, &mut free, slot, readiness,
            );
        }

        // Register freshly accepted sockets.
        let inbox = std::mem::take(&mut *ls.inbox.lock());
        for stream in inbox {
            metrics.conn_registered();
            generation += 1;
            if register_conn(
                &ls,
                &mut conns,
                &mut free,
                stream,
                generation,
                wheel.as_mut(),
            )
            .is_err()
            {
                metrics.conn_closed();
            }
        }

        // Deliver batcher replies that arrived since the last turn.
        let completions = std::mem::take(&mut *ls.completions.lock());
        for c in completions {
            // Accounting runs whether or not the connection survived:
            // a request is done once its reply exists, even if the
            // reply write then fails.
            shared.metrics.request_done(c.samples, c.t0.elapsed());
            let alive = matches!(&conns[c.slot], Some(conn) if conn.generation == c.generation);
            if !alive {
                continue;
            }
            let frame = reply_frame(c.reply);
            let mut out = OutBuf::new(&frame);
            out.span = Some((c.ctx, Instant::now()));
            if let Some(conn) = conns[c.slot].as_mut() {
                conn.inflight = false;
                conn.out = Some(out);
            }
            flush_out(&ls, &shared, &metrics, &mut conns, &mut free, c.slot);
        }

        // Idle expiry.
        if let Some(w) = wheel.as_mut() {
            let now = Instant::now();
            let (idle, tick) = (w.idle, w.tick);
            w.advance(now, |(slot, gen)| {
                let conn = match conns[slot].as_ref() {
                    Some(c) if c.generation == gen => c,
                    _ => return None,
                };
                let idle_for = now.saturating_duration_since(conn.last_activity);
                if idle_for >= idle && !conn.busy() {
                    metrics.conn_idle_closed();
                    close_conn(
                        &ls,
                        &metrics,
                        &mut conns,
                        &mut free,
                        slot,
                        CloseReason::Idle,
                    );
                    None
                } else {
                    // Still active (or mid-request): come back when
                    // its current idle budget would run out.
                    Some(idle.saturating_sub(idle_for).max(tick))
                }
            });
        }

        if finishing {
            let deadline = *finish_deadline.get_or_insert_with(|| Instant::now() + FINISH_GRACE);
            let flushing = conns
                .iter()
                .flatten()
                .any(|c| c.out.is_some() && Instant::now() < deadline);
            let completions_pending = !ls.completions.lock().is_empty();
            if !flushing && !completions_pending {
                break;
            }
        }
    }

    // Drop every remaining connection (peers see a close).
    for slot in 0..conns.len() {
        if conns[slot].is_some() {
            close_conn(
                &ls,
                &metrics,
                &mut conns,
                &mut free,
                slot,
                CloseReason::Shutdown,
            );
        }
    }
}

/// Put a freshly accepted socket under epoll management.
fn register_conn(
    ls: &Arc<LoopShared>,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    stream: TcpStream,
    generation: u64,
    wheel: Option<&mut TimerWheel>,
) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    let slot = free.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    let token = (slot + 1) as u64;
    if let Err(e) = ls.epoll.add(&stream, EPOLLIN | EPOLLRDHUP, token) {
        free.push(slot);
        return Err(e);
    }
    conns[slot] = Some(Conn {
        stream,
        generation,
        decoder: FrameDecoder::new(),
        out: None,
        inflight: false,
        interest: EPOLLIN | EPOLLRDHUP,
        last_activity: Instant::now(),
        close_after_flush: false,
    });
    if let Some(w) = wheel {
        w.insert((slot, generation));
    }
    Ok(())
}

/// React to readiness on a connection's socket.
#[allow(clippy::too_many_arguments)]
fn handle_readiness(
    ls: &Arc<LoopShared>,
    shared: &Arc<SharedState>,
    metrics: &crate::metrics::ReactorMetrics,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    readiness: u32,
) {
    let Some(conn) = conns.get(slot).and_then(|c| c.as_ref()) else {
        return; // Stale event for a closed slot.
    };
    if readiness & EPOLLERR != 0 {
        close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
        return;
    }
    if conn.out.is_some() && readiness & (EPOLLOUT | EPOLLHUP) != 0 {
        flush_out(ls, shared, metrics, conns, free, slot);
        return;
    }
    if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !conn.busy() {
        read_ready(ls, shared, metrics, conns, free, slot);
    }
}

/// Pull bytes into the connection's decoder until it would block, a
/// frame completes, or the peer goes away.
fn read_ready(
    ls: &Arc<LoopShared>,
    shared: &Arc<SharedState>,
    metrics: &crate::metrics::ReactorMetrics,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
) {
    loop {
        let conn = match conns[slot].as_mut() {
            Some(c) => c,
            None => return,
        };
        let spare = conn.decoder.spare();
        debug_assert!(!spare.is_empty(), "reading while poisoned");
        match conn.stream.read(spare) {
            Ok(0) => {
                // EOF: clean at a frame boundary, torn otherwise —
                // either way the connection is done (no request in
                // flight here, since reads pause while busy).
                close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
                return;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                match conn.decoder.advance(n) {
                    Ok(Some(frame)) => {
                        dispatch_frame(ls, shared, metrics, conns, free, slot, frame);
                        return;
                    }
                    Ok(None) => {} // Mid-frame; keep reading.
                    Err(WireError::Malformed(m)) => {
                        // Answer once, then close: the stream is no
                        // longer frame-aligned.
                        shared.metrics.rejected(Status::Malformed);
                        let frame = Frame::error(Opcode::Ping, Status::Malformed, &m);
                        conn.out = Some(OutBuf::new(&frame));
                        conn.close_after_flush = true;
                        flush_out(ls, shared, metrics, conns, free, slot);
                        return;
                    }
                    Err(WireError::Io(_)) => {
                        close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
                return;
            }
        }
    }
}

/// Route one complete request frame.
#[allow(clippy::too_many_arguments)]
fn dispatch_frame(
    ls: &Arc<LoopShared>,
    shared: &Arc<SharedState>,
    metrics: &crate::metrics::ReactorMetrics,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    frame: Frame,
) {
    match frame.opcode {
        Opcode::Ping => {
            queue_reply(
                conns,
                slot,
                &Frame::response(Opcode::Ping, Status::Ok, vec![]),
                None,
            );
        }
        Opcode::Stats => {
            let json = telemetry_snapshot(shared).to_json();
            queue_reply(
                conns,
                slot,
                &Frame::response(Opcode::Stats, Status::Ok, json.into_bytes()),
                None,
            );
        }
        Opcode::Shutdown => {
            // Acknowledge first; the drain starts once the frame is
            // on its way (the flush below usually completes it).
            queue_reply(
                conns,
                slot,
                &Frame::response(Opcode::Shutdown, Status::Ok, vec![]),
                None,
            );
            shared.request_shutdown();
        }
        Opcode::Infer => {
            match admit_infer(shared, frame.payload) {
                InferAdmission::Reject(reply, ctx) => {
                    queue_reply(conns, slot, &reply, Some(ctx));
                }
                InferAdmission::Admit(adm) => {
                    let conn = conns[slot].as_mut().expect("dispatch on a live conn");
                    conn.inflight = true;
                    // Silence the socket while the request runs: the
                    // reply path re-arms EPOLLIN. (EPOLLERR/HUP still
                    // arrive with empty interest.)
                    set_interest(ls, conn, slot, EPOLLRDHUP);
                    let sink_ls = Arc::clone(ls);
                    let (generation, samples, t0, ctx) =
                        (conn.generation, adm.samples, adm.t0, adm.req.ctx);
                    adm.model.batcher.enqueue_with(
                        ctx,
                        adm.req.data,
                        adm.req.num_samples,
                        adm.deadline,
                        Box::new(move |reply| {
                            sink_ls.completions.lock().push(Completion {
                                slot,
                                generation,
                                reply,
                                samples,
                                t0,
                                ctx,
                            });
                            let _ = sink_ls.wake.wake();
                        }),
                    );
                    return; // No immediate reply to flush.
                }
            }
        }
    }
    flush_out(ls, shared, metrics, conns, free, slot);
}

/// Stash a reply on the connection for flushing. `span` marks `Infer`
/// replies, whose write is stamped with a `ReplyWritten` span.
fn queue_reply(conns: &mut [Option<Conn>], slot: usize, frame: &Frame, span: Option<SpanCtx>) {
    if let Some(conn) = conns[slot].as_mut() {
        debug_assert!(conn.out.is_none(), "one reply at a time per connection");
        let mut out = OutBuf::new(frame);
        out.span = span.map(|ctx| (ctx, Instant::now()));
        conn.out = Some(out);
    }
}

/// Write as much pending output as the socket accepts; arm `EPOLLOUT`
/// on `WouldBlock`, restore read interest when the reply is out.
fn flush_out(
    ls: &Arc<LoopShared>,
    shared: &Arc<SharedState>,
    metrics: &crate::metrics::ReactorMetrics,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
) {
    let conn = match conns[slot].as_mut() {
        Some(c) => c,
        None => return,
    };
    let Some(out) = conn.out.as_mut() else {
        return;
    };
    loop {
        match conn.stream.write(&out.buf[out.at..]) {
            Ok(0) => {
                close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
                return;
            }
            Ok(n) => {
                out.at += n;
                conn.last_activity = Instant::now();
                if out.at == out.buf.len() {
                    if let (Some((ctx, started)), Some(trace)) = (out.span, &shared.trace) {
                        trace.record(
                            SpanKind::ReplyWritten,
                            ctx,
                            0,
                            (out.buf.len() - crate::protocol::HEADER_LEN) as u64,
                            started,
                            Instant::now(),
                        );
                    }
                    conn.out = None;
                    if conn.close_after_flush {
                        close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
                    } else {
                        set_interest(ls, conn, slot, EPOLLIN | EPOLLRDHUP);
                    }
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                set_interest(ls, conn, slot, EPOLLOUT);
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                close_conn(ls, metrics, conns, free, slot, CloseReason::Peer);
                return;
            }
        }
    }
}

/// Change a connection's epoll interest iff it differs (skips the
/// syscall on the hot path where interest is already right).
fn set_interest(ls: &Arc<LoopShared>, conn: &mut Conn, slot: usize, want: u32) {
    if conn.interest != want {
        let _ = ls.epoll.modify(&conn.stream, want, (slot + 1) as u64);
        conn.interest = want;
    }
}

/// Tear a connection down: deregister, free the slot, count it.
fn close_conn(
    ls: &Arc<LoopShared>,
    metrics: &crate::metrics::ReactorMetrics,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    _reason: CloseReason,
) {
    if let Some(conn) = conns[slot].take() {
        let _ = ls.epoll.delete(&conn.stream);
        metrics.conn_closed();
        free.push(slot);
        // An in-flight request's completion will arrive with a stale
        // generation and be dropped (its accounting still runs).
    }
}
