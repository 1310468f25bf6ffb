//! End-to-end tests of the network subsystem: round trips over real TCP
//! sockets, concurrent readers racing an index build, per-connection prepared
//! statements, the connection cap (on both services) and the `SHOW STATS`
//! scopes.

mod common;

use hermes_core::SharedEngine;
use hermes_server::{
    ClientError, ErrorCode, HermesClient, Server, ServerConfig, ServerHandle, ServerMetrics,
};
use hermes_sql::{CommandTag, Value};
use hermes_trajectory::{Point, Timestamp, Trajectory};
use std::net::SocketAddr;
use std::thread;

fn traj(id: u64, y: f64, t0: i64) -> Trajectory {
    Trajectory::new(
        id,
        id,
        (0..30)
            .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(t0 + i as i64 * 60_000)))
            .collect(),
    )
    .unwrap()
}

fn dataset() -> Vec<Trajectory> {
    let mut trajs = Vec::new();
    for i in 0..10 {
        trajs.push(traj(i, i as f64 * 10.0, 0));
    }
    for i in 10..18 {
        trajs.push(traj(i, 50_000.0 + i as f64 * 10.0, 4 * 3_600_000));
    }
    trajs
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let engine = SharedEngine::default();
    engine.with_write(|e| {
        e.create_dataset("flights").unwrap();
        e.load_trajectories("flights", dataset()).unwrap();
    });
    Server::bind("127.0.0.1:0", engine, config)
        .unwrap()
        .spawn()
        .unwrap()
}

const BUILD: &str = "BUILD INDEX ON flights WITH CHUNK 4 HOURS SIGMA 60 EPSILON 400;";

#[test]
fn queries_round_trip_with_typed_frames() {
    let server = spawn_server(ServerConfig::default());
    let mut client = HermesClient::connect(server.addr()).unwrap();

    let shown = client.query("SHOW DATASETS;").unwrap();
    assert_eq!(
        shown.expect_frame("SHOW DATASETS").get(0, "dataset"),
        Some(&Value::Text("flights".into()))
    );

    let info = client.query("SELECT INFO(flights);").unwrap();
    let frame = info.expect_frame("INFO");
    // Values survive the wire as their engine types, not strings.
    assert_eq!(frame.get(0, "trajectories"), Some(&Value::Int(18)));
    assert_eq!(frame.get(0, "start"), Some(&Value::Timestamp(Timestamp(0))));

    let built = client.query(BUILD).unwrap();
    let status = built.command().unwrap();
    assert_eq!(status.tag, CommandTag::BuildIndex);
    assert_eq!(status.affected, 18);

    let qut = client
        .query("SELECT QUT(flights, 0, 1800000, 0.35, 0.05, 120000, 400, 1800000);")
        .unwrap();
    assert!(qut.num_rows() >= 1);
    assert!(qut.stats().is_some(), "QuT statistics frame rides along");

    let err = client.query("SELECT INFO(nope);").unwrap_err();
    assert!(
        matches!(err, ClientError::Server { ref message, .. } if message.contains("unknown dataset"))
    );
    // The connection survives a server-side error.
    assert_eq!(client.query("SHOW DATASETS;").unwrap().num_rows(), 1);

    server.shutdown();
}

#[test]
fn concurrent_readers_while_an_index_builds() {
    let server = spawn_server(ServerConfig::default());
    let addr = server.addr();

    // Index once so readers have something to range-query.
    let mut writer = HermesClient::connect(addr).unwrap();
    writer.query(BUILD).unwrap();
    let expected = {
        let mut c = HermesClient::connect(addr).unwrap();
        let frame = c.query("SELECT RANGE(flights, 0, 1800000);").unwrap();
        frame
            .expect_frame("RANGE")
            .get(0, "sub_trajectories_in_window")
            .unwrap()
            .as_i64()
            .unwrap()
    };
    assert!(expected > 0);

    // Four reader connections hammer range queries while the writer
    // connection rebuilds the index (the write-lock path) repeatedly.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let mut client = HermesClient::connect(addr).unwrap();
                for _ in 0..15 {
                    let outcome = client.query("SELECT RANGE(flights, 0, 1800000);").unwrap();
                    let count = outcome
                        .expect_frame("RANGE")
                        .get(0, "sub_trajectories_in_window")
                        .unwrap()
                        .as_i64()
                        .unwrap();
                    assert_eq!(count, expected, "readers must never see a torn index");
                }
            })
        })
        .collect();
    for _ in 0..3 {
        let status = writer.query(BUILD).unwrap();
        assert_eq!(status.command().unwrap().affected, 18);
    }
    for r in readers {
        r.join().unwrap();
    }

    let metrics = server.metrics();
    assert!(metrics.queries_served.get() >= 4 * 15 + 4);
    server.shutdown();
}

#[test]
fn prepared_statements_are_isolated_per_connection() {
    let server = spawn_server(ServerConfig::default());
    let mut a = HermesClient::connect(server.addr()).unwrap();
    let mut b = HermesClient::connect(server.addr()).unwrap();
    a.query(BUILD).unwrap();

    let ha = a.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
    let first = a
        .execute_prepared(ha, &[Value::Int(0), Value::Int(1_800_000)])
        .unwrap();
    assert_eq!(first.num_rows(), 1);
    // Timestamps bind over the wire like ints do locally.
    let typed = a
        .execute_prepared(
            ha,
            &[
                Value::Timestamp(Timestamp(0)),
                Value::Timestamp(Timestamp(1_800_000)),
            ],
        )
        .unwrap();
    assert_eq!(typed.num_rows(), 1);

    // b never prepared anything: a's handle must not resolve there.
    let err = b
        .execute_prepared(ha, &[Value::Int(0), Value::Int(1_800_000)])
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Server { ref message, .. } if message.contains("unknown prepared statement")),
        "{err}"
    );

    // b's own prepared statement works and does not disturb a's.
    let hb = b.prepare("SELECT INFO(flights);").unwrap();
    assert_eq!(b.execute_prepared(hb, &[]).unwrap().num_rows(), 1);
    assert_eq!(
        a.execute_prepared(ha, &[Value::Int(0), Value::Int(900_000)])
            .unwrap()
            .num_rows(),
        1
    );
    server.shutdown();
}

fn capped() -> ServerConfig {
    ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    }
}

/// The connection-cap gate, run against both services: the third client
/// gets a typed `Capacity` error and the admitted two keep working.
fn assert_cap_rejects_excess_clients(addr: SocketAddr, metrics: &ServerMetrics) {
    let mut c1 = HermesClient::connect(addr).unwrap();
    let mut c2 = HermesClient::connect(addr).unwrap();
    // Force both connections through the accept loop before the third tries.
    c1.query("SHOW DATASETS;").unwrap();
    c2.query("SHOW DATASETS;").unwrap();

    let mut c3 = HermesClient::connect(addr).unwrap();
    let err = c3.query("SHOW DATASETS;").unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::Capacity, ref message }
            if message.contains("capacity")),
        "{err}"
    );
    assert_eq!(metrics.connections_rejected.get(), 1);

    // Admitted clients keep working, and capacity frees up on disconnect.
    drop(c2);
    assert_eq!(c1.query("SHOW DATASETS;").unwrap().num_rows(), 1);
}

#[test]
fn connection_cap_rejects_excess_clients() {
    let server = spawn_server(capped());
    assert_cap_rejects_excess_clients(server.addr(), &server.metrics());
    server.shutdown();
}

#[test]
fn coordinator_connection_cap_rejects_excess_clients() {
    let (_shard, coord) = common::spawn_coordinator(capped());
    assert_cap_rejects_excess_clients(coord.addr(), &coord.metrics());
}

#[test]
fn large_ingests_are_split_across_wire_messages() {
    let server = spawn_server(ServerConfig::default());
    let mut client = HermesClient::connect(server.addr()).unwrap();
    // ~70k points per trajectory ≈ 1.7 MB encoded; 40 of them overflow one
    // half-cap batch (32 MiB), forcing at least two Ingest requests.
    let big: Vec<Trajectory> = (0..40)
        .map(|id| {
            Trajectory::new(
                id,
                id,
                (0..70_000)
                    .map(|i| Point::new(i as f64, id as f64, Timestamp(i as i64 * 1_000)))
                    .collect(),
            )
            .unwrap()
        })
        .collect();
    assert_eq!(client.ingest("big", &big).unwrap(), 40);
    let info = client.query("SELECT INFO(big);").unwrap();
    assert_eq!(
        info.expect_frame("INFO").get(0, "trajectories"),
        Some(&Value::Int(40))
    );
    server.shutdown();
}

#[test]
fn set_threads_is_honored_over_the_wire_unchanged() {
    // No protocol change: SET/SHOW THREADS travel as ordinary Query text and
    // come back as a Command / one-row frame.
    let server = spawn_server(ServerConfig::default());
    let mut a = HermesClient::connect(server.addr()).unwrap();
    let mut b = HermesClient::connect(server.addr()).unwrap();

    let set = a.query("SET threads = 2;").unwrap();
    let status = set.command().unwrap();
    assert_eq!(status.tag, CommandTag::Set);
    assert_eq!(status.affected, 2);

    // The engine-wide setting is visible from another connection, and the
    // queries it governs still answer correctly.
    let shown = b.query("SHOW THREADS;").unwrap();
    assert_eq!(
        shown.expect_frame("SHOW THREADS").get(0, "threads"),
        Some(&Value::Int(2))
    );
    b.query(BUILD).unwrap();
    let qut = b
        .query("SELECT QUT(flights, 0, 1800000, 0.35, 0.05, 120000, 400, 1800000);")
        .unwrap();
    assert!(qut.num_rows() >= 1);

    // Rejection carries the arity-style message across the wire.
    let err = a.query("SET threads = 0;").unwrap_err();
    assert!(
        matches!(err, ClientError::Server { ref message, .. } if message.contains("positive thread count")),
        "{err:?}"
    );
    server.shutdown();
}

#[test]
fn ingest_creates_the_dataset_and_stats_report_all_scopes() {
    let server = spawn_server(ServerConfig::default());
    let mut client = HermesClient::connect(server.addr()).unwrap();

    let loaded = client.ingest("fresh", &dataset()).unwrap();
    assert_eq!(loaded, 18);
    let info = client.query("SELECT INFO(fresh);").unwrap();
    assert_eq!(
        info.expect_frame("INFO").get(0, "trajectories"),
        Some(&Value::Int(18))
    );
    client
        .query("BUILD INDEX ON fresh WITH CHUNK 4 HOURS SIGMA 60 EPSILON 400;")
        .unwrap();
    client.query("SELECT RANGE(fresh, 0, 1800000);").unwrap();

    let stats = client.query("SHOW STATS;").unwrap();
    let frame = stats.expect_frame("SHOW STATS");
    let value = |scope: &str, metric: &str| -> i64 {
        frame
            .rows()
            .find(|r| r[0].as_str() == Some(scope) && r[1].as_str() == Some(metric))
            .and_then(|r| r[2].as_i64())
            .unwrap_or_else(|| panic!("{scope}/{metric} missing"))
    };
    // Engine scope: storage + buffer counters from the satellite task.
    assert_eq!(value("engine", "indexed_datasets"), 1);
    assert!(value("engine", "indexed_partitions") > 0);
    assert!(value("engine", "buffer_hits") + value("engine", "buffer_misses") > 0);
    // Session scope: this connection parsed its statements.
    assert!(value("session", "parses") >= 3);
    // Server scope: connection and traffic counters, latency histogram.
    assert_eq!(value("server", "connections_accepted"), 1);
    assert_eq!(value("server", "connections_active"), 1);
    assert!(value("server", "queries_served") >= 4);
    assert!(value("server", "bytes_in") > 0);
    assert!(value("server", "bytes_out") > 0);
    let latency_total: i64 = frame
        .rows()
        .filter(|r| {
            r[0].as_str() == Some("server")
                && r[1].as_str().is_some_and(|m| {
                    m.starts_with("latency_us_le") || m.starts_with("latency_us_gt")
                })
        })
        .filter_map(|r| r[2].as_i64())
        .sum();
    assert!(
        latency_total >= 4,
        "every request lands in a latency bucket"
    );
    server.shutdown();
}
