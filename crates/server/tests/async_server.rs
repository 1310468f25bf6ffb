//! End-to-end tests of the readiness-driven serving core: request
//! pipelining, snapshot-epoch reads racing `BUILD INDEX`, per-request
//! deadlines, admission-control backpressure and recovery, the
//! stalled-client regression, and — through a fake [`Service`] — panic
//! containment and the accounting of oversized results.

use hermes_core::SharedEngine;
use hermes_obs::{SpanStore, TraceContext};
use hermes_server::{
    ClientError, ErrorCode, HermesClient, Request, Response, Server, ServerConfig, ServerHandle,
    ServerMetrics, Service, MAX_MESSAGE_BYTES,
};
use hermes_sql::{CommandTag, Frame, Value, ValueType};
use hermes_trajectory::{Point, Timestamp, Trajectory};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
    (0..18)
        .map(|i| traj(i, i as f64 * 10.0, (i as i64 % 2) * 3_600_000))
        .collect()
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
const QUT: &str = "SELECT QUT(flights, 0, 1800000, 0.35, 0.05, 120000, 400, 1800000);";

#[test]
fn pipelined_prepared_statements_interleave_on_one_connection() {
    let server = spawn_server(ServerConfig::default());
    let mut client = HermesClient::connect(server.addr()).unwrap();
    client.query(BUILD).unwrap();
    let range = client.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
    let info = client.prepare("SELECT INFO(flights);").unwrap();

    // Burst a mixed pipeline of prepared executions and plain queries
    // without reading a single response, then drain: responses must come
    // back in request order, each with its own correct shape.
    const ROUNDS: usize = 25;
    for i in 0..ROUNDS {
        client
            .send(&Request::ExecutePrepared {
                handle: range.0,
                params: vec![Value::Int(0), Value::Int(900_000 + i as i64 * 10_000)],
            })
            .unwrap();
        client
            .send(&Request::ExecutePrepared {
                handle: info.0,
                params: vec![],
            })
            .unwrap();
        client
            .send(&Request::Query {
                sql: "SHOW DATASETS;".into(),
            })
            .unwrap();
    }
    for _ in 0..ROUNDS {
        let range_resp = client.receive().unwrap();
        let Response::Rows { frame, .. } = range_resp else {
            panic!("RANGE answered {range_resp:?}");
        };
        assert!(frame.get(0, "sub_trajectories_in_window").is_some());
        let info_resp = client.receive().unwrap();
        let Response::Rows { frame, .. } = info_resp else {
            panic!("INFO answered {info_resp:?}");
        };
        assert_eq!(frame.get(0, "trajectories"), Some(&Value::Int(18)));
        let show_resp = client.receive().unwrap();
        let Response::Rows { frame, .. } = show_resp else {
            panic!("SHOW answered {show_resp:?}");
        };
        assert_eq!(
            frame.get(0, "dataset"),
            Some(&Value::Text("flights".into()))
        );
    }
    let served = server.metrics().queries_served.get();
    assert!(served >= 3 * ROUNDS as u64, "served {served}");
    server.shutdown();
}

#[test]
fn reads_pin_the_published_epoch_while_an_index_builds() {
    let server = spawn_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let engine = server.engine();

    let mut client = HermesClient::connect(addr).unwrap();
    client.query(BUILD).unwrap();
    let baseline = client.query(QUT).unwrap();
    let baseline_frame = baseline.expect_frame("QUT").clone();
    assert!(baseline_frame.num_rows() >= 1);

    // An artificially slowed writer: holds the commit mutex (exactly what a
    // big BUILD INDEX does) for 600ms, then republishes.
    let writer = thread::spawn(move || {
        engine.with_write(|_| thread::sleep(Duration::from_millis(600)));
    });
    thread::sleep(Duration::from_millis(100)); // let the writer take the lock

    // Reads during the build must answer from the pinned epoch: identical
    // frames, and far sooner than the writer's hold time.
    for _ in 0..3 {
        let started = Instant::now();
        let mid_build = client.query(QUT).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "read blocked behind the writer for {elapsed:?}"
        );
        assert_eq!(
            mid_build.expect_frame("QUT"),
            &baseline_frame,
            "mid-build read must be bit-identical to the pre-build epoch"
        );
    }
    writer.join().unwrap();

    // After the writer publishes, SHOW STATS reports the advanced epoch.
    let stats = client.query("SHOW STATS;").unwrap();
    let frame = stats.expect_frame("SHOW STATS");
    let epoch = frame
        .rows()
        .find(|r| r[0].as_str() == Some("server") && r[1].as_str() == Some("epoch"))
        .and_then(|r| r[2].as_i64())
        .expect("server/epoch row");
    assert!(epoch >= 2, "epoch {epoch} after ingest + builds");
    server.shutdown();
}

/// A write that committed late keeps its command tag (a retry would apply
/// it twice); a read that waited out its deadline in the queue gets the
/// typed, retryable `Deadline` error without running.
#[test]
fn deadline_overrun_is_a_typed_error() {
    let server = spawn_server(ServerConfig {
        deadline_ms: Some(150),
        workers: 1,
        ..ServerConfig::default()
    });
    let engine = server.engine();

    // Hold the commit mutex longer than the deadline; a write statement
    // dispatched meanwhile serializes behind it and finishes late.
    let blocker = thread::spawn(move || {
        engine.with_write(|_| thread::sleep(Duration::from_millis(500)));
    });
    thread::sleep(Duration::from_millis(50));

    let addr = server.addr();
    let writer = thread::spawn(move || {
        let mut client = HermesClient::connect(addr).unwrap();
        let outcome = client.query("CREATE DATASET late;").unwrap();
        (client, outcome)
    });
    let metrics = server.metrics();
    while metrics.inflight_queries.get() == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    // The lone worker is stuck on the write, so this read queues past its
    // deadline and is refused before it runs.
    let mut reader = HermesClient::connect(server.addr()).unwrap();
    match reader.query("SHOW DATASETS;").unwrap_err() {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Deadline, "{message}");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected a typed deadline error, got {other:?}"),
    }

    let (mut client, outcome) = writer.join().unwrap();
    let status = outcome
        .command()
        .expect("the late write answers a command tag");
    assert_eq!(status.tag, CommandTag::CreateDataset);
    blocker.join().unwrap();
    assert!(metrics.deadline_misses.get() >= 2);

    // The write took effect, and both connections still answer in time.
    let shown = client.query("SHOW DATASETS;").unwrap();
    let frame = shown.expect_frame("SHOW DATASETS");
    assert!(
        (0..frame.num_rows()).any(|i| frame.get(i, "dataset") == Some(&Value::Text("late".into()))),
        "{frame}"
    );
    assert_eq!(reader.query("SHOW THREADS;").unwrap().num_rows(), 1);
    server.shutdown();
}

#[test]
fn backpressure_floods_get_typed_errors_and_drain() {
    let server = spawn_server(ServerConfig {
        workers: 1,
        max_pending: 2,
        ..ServerConfig::default()
    });
    let engine = server.engine();

    // Pin the lone worker on a slow write so pipelined requests pile up.
    let blocker = thread::spawn(move || {
        engine.with_write(|_| thread::sleep(Duration::from_millis(400)));
    });
    thread::sleep(Duration::from_millis(50));

    let mut client = HermesClient::connect(server.addr()).unwrap();
    // Request 1 is a write: it occupies the lone worker, serialized behind
    // the blocker's commit mutex. Request 2 fills the pending bound; 3..=5
    // must be refused with typed backpressure errors, in pipeline order.
    client
        .send(&Request::Query {
            sql: "CREATE DATASET flood;".into(),
        })
        .unwrap();
    for _ in 0..4 {
        client
            .send(&Request::Query {
                sql: "SHOW DATASETS;".into(),
            })
            .unwrap();
    }
    assert!(matches!(client.receive().unwrap(), Response::Command(_)));
    assert!(matches!(client.receive().unwrap(), Response::Rows { .. }));
    for i in 2..5 {
        match client.receive() {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Backpressure, "req {i}: {message}");
                assert!(message.contains("overloaded"), "req {i}: {message}");
            }
            other => panic!("req {i}: expected backpressure, got {other:?}"),
        }
    }
    blocker.join().unwrap();
    assert_eq!(server.metrics().backpressure_rejections.get(), 3);

    // The flood over, the same connection serves normally again.
    assert_eq!(client.query("SHOW THREADS;").unwrap().num_rows(), 1);
    assert_eq!(server.metrics().connections_rejected.get(), 0);
    server.shutdown();
}

#[test]
fn stalled_client_cannot_block_build_index() {
    let server = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // A client that floods queries with fat result frames and never reads a
    // byte back: its responses pile up in the server-side write buffer.
    let mut stalled = HermesClient::connect(addr).unwrap();
    stalled.query(BUILD).unwrap();
    for _ in 0..64 {
        stalled
            .send(&Request::GatherTrajectories {
                dataset: "flights".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: i64::MAX,
            })
            .unwrap();
    }
    // ... and never calls receive().

    // A healthy connection must still get its BUILD INDEX through promptly:
    // responding to the stalled peer is buffered socket I/O on the loop,
    // never a lock held across a write.
    let mut healthy = HermesClient::connect(addr).unwrap();
    let started = Instant::now();
    let built = healthy.query(BUILD).unwrap();
    assert_eq!(built.command().unwrap().affected, 18);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "BUILD INDEX stalled behind an unread client for {:?}",
        started.elapsed()
    );
    drop(stalled);
    server.shutdown();
}

/// A stand-in service: `Query { sql }` answers with the number of queries
/// the connection has sent so far, except for two trigger texts — `panic`
/// panics inside the service, `huge` returns a rows frame over the wire cap.
struct Fake;

impl Service for Fake {
    type Conn = u64;

    fn connect(&self) -> u64 {
        0
    }

    fn answer(
        &self,
        seen: &mut u64,
        request: Request,
        _trace: Option<TraceContext>,
        _metrics: &ServerMetrics,
        _spans: &Arc<SpanStore>,
    ) -> (Response, Option<(u64, String)>) {
        let Request::Query { sql } = request else {
            return (Response::error("fake service answers queries only"), None);
        };
        *seen += 1;
        match sql.as_str() {
            "panic" => panic!("fake service blew up"),
            "huge" => {
                let mut frame = Frame::with_columns(&[("blob", ValueType::Text)]);
                let blob = "x".repeat(MAX_MESSAGE_BYTES as usize + 1);
                frame.push_row(vec![Value::Text(blob)]).unwrap();
                (Response::Rows { frame, stats: None }, None)
            }
            _ => (Response::Count(*seen), None),
        }
    }
}

fn spawn_fake() -> ServerHandle<Fake> {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", Fake, config)
        .unwrap()
        .spawn()
        .unwrap()
}

fn ask(client: &mut HermesClient, sql: &str) -> Response {
    client
        .exchange(&Request::Query { sql: sql.into() })
        .expect("transport")
}

#[test]
fn a_panicking_request_is_answered_and_the_worker_survives() {
    let server = spawn_fake();
    let mut first = HermesClient::connect(server.addr()).unwrap();
    assert!(matches!(ask(&mut first, "hello"), Response::Count(1)));
    match ask(&mut first, "panic") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal, "{message}");
            assert_eq!(message, "internal error: fake service blew up");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
    // The lone worker is alive and the connection state came back: the
    // same connection keeps counting, and a second connection is served.
    assert!(matches!(ask(&mut first, "again"), Response::Count(3)));
    let mut second = HermesClient::connect(server.addr()).unwrap();
    assert!(matches!(ask(&mut second, "hello"), Response::Count(1)));
    assert!(first.is_clean() && second.is_clean());
    assert_eq!(server.metrics().panics.get(), 1);
    server.shutdown();
}

#[test]
fn an_oversized_result_counts_once_as_an_error() {
    let server = spawn_fake();
    let metrics = server.metrics();
    let mut client = HermesClient::connect(server.addr()).unwrap();
    assert!(matches!(ask(&mut client, "warm-up"), Response::Count(1)));
    let (served, errors) = (metrics.queries_served.get(), metrics.query_errors.get());
    match ask(&mut client, "huge") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Protocol, "{message}");
            assert!(message.contains("too large"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(metrics.queries_served.get(), served, "served +0");
    assert_eq!(metrics.query_errors.get(), errors + 1, "errors +1");
    // The stream stayed in sync.
    assert!(matches!(ask(&mut client, "after"), Response::Count(3)));
    server.shutdown();
}
