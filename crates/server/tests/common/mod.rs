//! The second service behind the serving core: a coordinator over one
//! engine shard, so the core's gates run against both binaries' services.

use hermes_coord::{parse_shard_flag, Coordinator};
use hermes_core::{ExecPolicy, SharedEngine};
use hermes_server::{ConnectOptions, Server, ServerConfig, ServerHandle};

/// Spawns an engine shard owning the whole time axis (with an empty
/// `flights` dataset) and a coordinator in front of it under `config`. Both
/// handles must outlive the test body.
pub fn spawn_coordinator(config: ServerConfig) -> (ServerHandle, ServerHandle<Coordinator>) {
    let engine = SharedEngine::default();
    engine.with_write(|e| e.create_dataset("flights").unwrap());
    let shard = Server::bind("127.0.0.1:0", engine, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let spec = parse_shard_flag(&format!("solo={}", shard.addr())).unwrap();
    let coordinator = Coordinator::new(vec![spec], ConnectOptions::default(), ExecPolicy::serial());
    let coord = Server::bind("127.0.0.1:0", coordinator, config)
        .unwrap()
        .spawn()
        .unwrap();
    (shard, coord)
}
