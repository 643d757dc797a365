//! A blocking wire-protocol client.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request/response per connection —
//! concurrency comes from opening more connections).

use crate::protocol::{
    decode_results, read_frame, write_frame, Frame, InferRequest, Opcode, Status, WireError,
};
use spn_telemetry::{SpanCtx, TelemetrySnapshot};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The peer closed (or reset) the connection mid-exchange. The
    /// request may or may not have been processed; since inference is
    /// idempotent the caller can [`Client::reconnect`] and retry —
    /// the router's failover path depends on telling this apart from
    /// a protocol violation.
    ConnectionClosed,
    /// Transport failed for a reason other than the peer going away.
    Io(io::Error),
    /// The server's bytes were not a valid frame.
    Wire(String),
    /// The server answered with a non-`Ok` status.
    Rejected {
        /// The wire status.
        status: Status,
        /// The server's diagnostic message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ConnectionClosed => write!(f, "connection closed by peer"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected { status, message } => {
                write!(f, "server rejected request ({}): {message}", status.name())
            }
        }
    }
}
impl std::error::Error for ClientError {}

/// Whether an `io::Error` means "the peer went away" (as opposed to a
/// local or transient transport problem).
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if is_disconnect(&e) {
            ClientError::ConnectionClosed
        } else {
            ClientError::Io(e)
        }
    }
}
impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::from(e),
            WireError::Malformed(m) => ClientError::Wire(m),
        }
    }
}

/// A blocking connection to an [`crate::SpnServer`].
pub struct Client {
    stream: TcpStream,
    /// The resolved peer address, kept so [`Client::reconnect`] can
    /// re-dial after a [`ClientError::ConnectionClosed`].
    addr: SocketAddr,
    /// The dial bound given to [`Client::connect_timeout`], kept so
    /// [`Client::reconnect`] re-dials under the same bound. Distinct
    /// from `io_timeout`: a connect bound and a per-request I/O bound
    /// are different knobs, and conflating them once made a reconnect
    /// after `set_io_timeout(None)` dial with *no* bound at all.
    dial_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
}

impl Client {
    /// Connect (with `TCP_NODELAY`, since frames are small and
    /// latency-sensitive).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            addr,
            dial_timeout: None,
            io_timeout: None,
        })
    }

    /// Connect with a bound on how long the TCP dial may block —
    /// what a health checker or failover path wants, since a dead
    /// host would otherwise stall the caller for the kernel's full
    /// connect timeout. [`Client::reconnect`] re-dials under the same
    /// bound.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            addr,
            dial_timeout: Some(timeout),
            io_timeout: None,
        })
    }

    /// The peer address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The connect bound [`Client::reconnect`] re-dials under
    /// (`None` when built with the unbounded [`Client::connect`]).
    pub fn dial_timeout(&self) -> Option<Duration> {
        self.dial_timeout
    }

    /// The current per-request I/O bound (see
    /// [`Client::set_io_timeout`]).
    pub fn io_timeout(&self) -> Option<Duration> {
        self.io_timeout
    }

    /// Bound every subsequent read/write on the connection (`None`
    /// removes the bound). A request that overruns surfaces as
    /// [`ClientError::Io`] with a timeout kind, letting callers treat
    /// a wedged backend like a dead one.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Drop the current connection and dial the same address again,
    /// preserving *both* configured timeouts: the dial runs under the
    /// original connect bound (if the client was built with
    /// [`Client::connect_timeout`]) and the fresh stream gets the
    /// current [`Client::set_io_timeout`] value re-applied. The
    /// recovery move after [`ClientError::ConnectionClosed`].
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = match self.dial_timeout {
            Some(t) => TcpStream::connect_timeout(&self.addr, t)?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.stream = stream;
        Ok(())
    }

    fn round_trip(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, request)?;
        let response = read_frame(&mut self.stream)?;
        if response.opcode != request.opcode {
            return Err(ClientError::Wire(format!(
                "response opcode {:?} does not match request {:?}",
                response.opcode, request.opcode
            )));
        }
        if response.status != Status::Ok {
            return Err(ClientError::Rejected {
                status: response.status,
                message: String::from_utf8_lossy(&response.payload).into_owned(),
            });
        }
        Ok(response)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.round_trip(&Frame::request(Opcode::Ping, vec![]))
            .map(|_| ())
    }

    /// Start building an inference request against `model`. This is
    /// the one entry point for inference — shape, deadline and trace
    /// opt-out are all set on the returned [`InferBuilder`], so new
    /// request knobs (e.g. future query types) extend the builder
    /// instead of multiplying `infer_*` method variants:
    ///
    /// ```ignore
    /// let lls = client
    ///     .request("NIPS10")
    ///     .samples(&block, 64, 10)
    ///     .deadline_ms(250)
    ///     .send()?;
    /// ```
    pub fn request<'a>(&'a mut self, model: &str) -> InferBuilder<'a> {
        InferBuilder {
            client: self,
            model: model.to_string(),
            data: Vec::new(),
            num_samples: 0,
            num_features: 0,
            deadline_ms: 0,
            trace: true,
        }
    }

    /// Fetch the server's metrics document (JSON).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let response = self.round_trip(&Frame::request(Opcode::Stats, vec![]))?;
        String::from_utf8(response.payload)
            .map_err(|_| ClientError::Wire("stats payload is not UTF-8".into()))
    }

    /// Fetch and parse the server's metrics document into a typed
    /// [`TelemetrySnapshot`].
    pub fn telemetry(&mut self) -> Result<TelemetrySnapshot, ClientError> {
        let json = self.stats()?;
        TelemetrySnapshot::from_json(&json)
            .map_err(|e| ClientError::Wire(format!("stats payload is not valid telemetry: {e}")))
    }

    /// Ask the server to drain and stop. The server acknowledges
    /// before it begins draining.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.round_trip(&Frame::request(Opcode::Shutdown, vec![]))
            .map(|_| ())
    }

    /// Direct access to the underlying stream (tests use this to
    /// send deliberately broken bytes).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// An in-flight inference request under construction; created by
/// [`Client::request`], fired by [`InferBuilder::send`].
#[must_use = "the request is not sent until `.send()` is called"]
pub struct InferBuilder<'a> {
    client: &'a mut Client,
    model: String,
    data: Vec<u8>,
    num_samples: u32,
    num_features: u32,
    deadline_ms: u32,
    trace: bool,
}

impl InferBuilder<'_> {
    /// The feature block: a row-major `num_samples × num_features`
    /// slab of `u8` features. Required — [`InferBuilder::send`] on a
    /// builder without samples earns the server's shape rejection.
    pub fn samples(mut self, data: &[u8], num_samples: u32, num_features: u32) -> Self {
        self.data = data.to_vec();
        self.num_samples = num_samples;
        self.num_features = num_features;
        self
    }

    /// Per-request deadline in milliseconds (`0` = none, the
    /// default). A request still queued when its deadline passes is
    /// answered with [`Status::DeadlineExceeded`].
    pub fn deadline_ms(mut self, deadline_ms: u32) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Server-side tracing for this request (default `true`). Opting
    /// out decodes the request with a
    /// [`spn_telemetry::SpanCtx::NONE`] context, so its spans stay
    /// off the server's per-request timeline.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Encode, send, and block for the reply. Returns one
    /// log-likelihood per sample, in order.
    pub fn send(self) -> Result<Vec<f64>, ClientError> {
        let req = InferRequest {
            model: self.model,
            deadline_ms: self.deadline_ms,
            num_samples: self.num_samples,
            num_features: self.num_features,
            data: self.data,
            trace: self.trace,
            // Trace contexts are server-side; the wire carries only
            // the opt-in bit.
            ctx: SpanCtx::NONE,
        };
        let response = self
            .client
            .round_trip(&Frame::request(Opcode::Infer, req.encode()))?;
        decode_results(&response.payload).map_err(ClientError::Wire)
    }
}
