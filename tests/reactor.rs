//! Integration tests for the epoll reactor serving engine: the
//! many-connection smoke (1k connections by default, the full 10k
//! under `SPN_FULL_SWEEP=1`), connection-limit rejection at accept
//! and idle-timeout reaping. That the reactor answers bit for bit
//! what the committed traces recorded is proved in `replay.rs`.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    BatchPolicy, Client, ClientError, LoadConfig, ModelSpec, ServerConfig, SpnServer, Status,
};
use std::sync::Arc;
use std::time::Duration;

fn make_scheduler(bench: NipsBenchmark) -> Arc<Scheduler> {
    let prog = DatapathProgram::compile(&bench.build_spn());
    let device = Arc::new(VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        64 << 20,
    ));
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap();
    Arc::new(Scheduler::new(device, config).unwrap())
}

/// A one-model server; `tune` adjusts the reactor settings.
fn start_server(bench: NipsBenchmark, tune: impl FnOnce(&mut ServerConfig)) -> SpnServer {
    let spec = ModelSpec::new(
        bench.name(),
        make_scheduler(bench),
        bench.num_vars() as u32,
        256,
    );
    let mut config = ServerConfig {
        batch: BatchPolicy {
            max_batch_samples: 4096,
            max_batch_delay: Duration::from_millis(2),
        },
        ..ServerConfig::default()
    };
    tune(&mut config);
    SpnServer::serve(config, vec![spec]).unwrap()
}

/// Connection count for the smoke: `SPN_REACTOR_CONNS` wins, else 10k
/// under `SPN_FULL_SWEEP=1`, else a CI-sized 1k — always clamped to
/// what the fd budget can hold with server *and* generator in one
/// process (two fds per connection plus headroom).
fn smoke_connections() -> usize {
    let want = std::env::var("SPN_REACTOR_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            if std::env::var("SPN_FULL_SWEEP").is_ok_and(|v| v == "1") {
                10_000
            } else {
                1_000
            }
        });
    let (soft, _) = epoll::nofile_limit().expect("rlimit readable");
    let _ = epoll::raise_nofile_limit(2 * want as u64 + 128);
    let (soft_now, _) = epoll::nofile_limit().unwrap_or((soft, soft));
    want.min((soft_now.saturating_sub(128) / 2) as usize).max(1)
}

/// The headline smoke: the reactor accepts and serves every one of a
/// four-digit connection count from a two-thread event loop, with no
/// drops and no rejections.
#[test]
fn reactor_serves_a_thousand_connections() {
    let conns = smoke_connections();
    let bench = NipsBenchmark::Nips10;
    let mut server = start_server(bench, |c| {
        c.loop_threads = 2;
        c.max_connections = conns + 64;
    });
    let cfg = LoadConfig {
        addr: server.local_addr(),
        model: bench.name().to_string(),
        num_features: bench.num_vars() as u32,
        domain: 255,
        connections: conns,
        requests_per_connection: 2,
        samples_per_request: 1,
        deadline_ms: 0,
        seed: 7,
    };
    let report = cfg.run().expect("load run");
    assert_eq!(report.connections, conns);
    assert_eq!(report.transport_errors, 0, "{}", report.summary());
    assert_eq!(report.rejected_requests, 0, "{}", report.summary());
    assert_eq!(report.ok_requests, 2 * conns as u64);

    let telemetry = server.telemetry_snapshot();
    let reactor = telemetry.reactor.expect("reactor section present");
    assert_eq!(reactor.loop_threads, 2);
    assert_eq!(reactor.accepted_total, conns as u64);
    assert_eq!(reactor.rejected_at_accept, 0);
    server.shutdown();
}

/// Past `max_connections` the reactor turns new sockets away at
/// accept with a typed `ServerBusy` frame (or an immediate close,
/// depending on how the client races the teardown) — and the
/// telemetry counts it.
#[test]
fn connection_limit_rejects_at_accept() {
    let bench = NipsBenchmark::Nips10;
    let mut server = start_server(bench, |c| {
        c.loop_threads = 1;
        c.max_connections = 2;
        c.idle_timeout = None;
    });
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    let mut c = Client::connect(addr).unwrap();
    let outcome = c.request(bench.name()).samples(&[0u8; 10], 1, 10).send();
    match outcome {
        Err(ClientError::Rejected { status, .. }) => assert_eq!(status, Status::ServerBusy),
        Err(ClientError::ConnectionClosed) => {}
        other => panic!("over-limit connection got service: {other:?}"),
    }
    let reactor = server.telemetry_snapshot().reactor.unwrap();
    assert_eq!(reactor.rejected_at_accept, 1);
    assert_eq!(reactor.open_connections, 2);

    // The limit releases: close one admitted connection and a new one
    // is served.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let served = Client::connect(addr).is_ok_and(|mut d| d.ping().is_ok());
        if served {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after close"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Connections idle past the timeout are reaped by the timer wheel;
/// active connections survive it.
#[test]
fn idle_timeout_reaps_quiet_connections() {
    let bench = NipsBenchmark::Nips10;
    let mut server = start_server(bench, |c| {
        c.loop_threads = 1;
        c.max_connections = 64;
        c.idle_timeout = Some(Duration::from_millis(100));
    });
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    let mut active = Client::connect(addr).unwrap();

    // Keep `active` busy while `idle` goes quiet for several timeouts.
    for _ in 0..10 {
        active.ping().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }

    // The idle connection is gone — the next request fails.
    idle.set_io_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    assert!(
        idle.ping().is_err(),
        "connection idle for 600ms survived a 100ms idle timeout"
    );
    // The active one is still being served.
    active.ping().unwrap();

    let reactor = server.telemetry_snapshot().reactor.unwrap();
    assert!(
        reactor.idle_closed >= 1,
        "idle close not counted: {reactor:?}"
    );
    server.shutdown();
}
