//! Shared fixtures of the cross-crate integration tests in `tests/*.rs`.
//!
//! Serving tests run on one stack: a scheduler over the paper's 2-PE
//! card ([`make_scheduler`]) behind an in-process server
//! ([`start_server`]). Tests that need anything else (a model-carrying
//! or fault-injecting device, a traced scheduler, several models)
//! build it from `VirtualDevice::paper` directly.

use spn_core::NipsBenchmark;
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{ModelSpec, ServerConfig, SpnServer};
use std::sync::Arc;

/// A scheduler over the paper's 2-PE card for `bench`: 512-sample
/// blocks, two control threads per PE.
pub fn make_scheduler(bench: NipsBenchmark) -> Arc<Scheduler> {
    let device = VirtualDevice::paper(&bench.build_spn(), 2);
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap();
    Arc::new(Scheduler::new(Arc::new(device), config).unwrap())
}

/// Serve `bench` (under its own name, feature domain 256) on
/// [`make_scheduler`]; `tune` adjusts the default server config.
pub fn start_server(bench: NipsBenchmark, tune: impl FnOnce(&mut ServerConfig)) -> SpnServer {
    let spec = ModelSpec::new(
        bench.name(),
        make_scheduler(bench),
        bench.num_vars() as u32,
        256,
    );
    let mut config = ServerConfig::default();
    tune(&mut config);
    SpnServer::serve(config, vec![spec]).unwrap()
}
