//! Protocol v5 error-class gate at the client layer: the one-byte
//! [`ErrorCode`] on every `Error` frame must round-trip exactly, **every**
//! possible wire byte (0..=255) must decode — unknown classes from a future
//! peer conservatively as [`ErrorCode::Query`] — and the pipelined client
//! must keep its stream bookkeeping honest: in-order responses, `Error`
//! frames as values in their slot, and [`HermesClient::is_clean`] turning
//! false the moment a stream owes responses, tears mid-frame, or receives a
//! `Capacity` goodbye. Both services behind the serving core answer a
//! malformed frame with a `Protocol` error.

mod common;

use hermes_core::SharedEngine;
use hermes_server::protocol::{
    read_handshake, read_response, write_handshake, write_request, write_response, Request,
    Response,
};
use hermes_server::{
    ClientError, ErrorCode, HermesClient, Server, ServerConfig, ServerHandle, ServerMetrics,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

const ALL_CODES: [ErrorCode; 6] = [
    ErrorCode::Query,
    ErrorCode::Protocol,
    ErrorCode::Capacity,
    ErrorCode::Backpressure,
    ErrorCode::Deadline,
    ErrorCode::Internal,
];

/// The encoded wire frame of an `Error` response:
/// `[len:4][kind=104][code:1][message…]`.
fn error_frame(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(
        &mut buf,
        &Response::Error {
            code,
            message: message.to_string(),
        },
    )
    .expect("encode");
    buf
}

#[test]
fn every_error_code_round_trips_bit_exactly() {
    for code in ALL_CODES {
        let buf = error_frame(code, "boom");
        assert_eq!(buf[4], 104, "Error frames carry wire kind 104");
        assert_eq!(
            buf[5], code as u8,
            "{code:?} must encode as its discriminant"
        );
        let (back, n) = read_response(&mut buf.as_slice()).expect("decode");
        assert_eq!(n as usize, buf.len());
        match back {
            Response::Error { code: got, message } => {
                assert_eq!(got, code);
                assert_eq!(message, "boom");
            }
            other => panic!("expected an Error frame, got {other:?}"),
        }
    }
}

/// Exhaustive: all 256 possible code bytes decode; the five non-default
/// classes map to themselves, everything else — including bytes minted by
/// protocol versions that do not exist yet — decodes as the conservative
/// `Query` class (relay, never retry) and re-encodes canonically as 0.
#[test]
fn every_wire_byte_decodes_and_unknown_codes_become_query() {
    let template = error_frame(ErrorCode::Query, "future says hi");
    for byte in 0u8..=255 {
        let mut buf = template.clone();
        buf[5] = byte;
        let (back, _) = read_response(&mut buf.as_slice())
            .unwrap_or_else(|e| panic!("code byte {byte} must decode: {e}"));
        let Response::Error { code, message } = back else {
            panic!("code byte {byte} decoded as a non-Error frame");
        };
        assert_eq!(message, "future says hi");
        let expected = match byte {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Capacity,
            3 => ErrorCode::Backpressure,
            4 => ErrorCode::Deadline,
            5 => ErrorCode::Internal,
            _ => ErrorCode::Query,
        };
        assert_eq!(code, expected, "code byte {byte}");
        assert_eq!(ErrorCode::from_u8(byte), expected);
        // Canonical re-encode: the class survives, unknown bytes do not.
        let reencoded = error_frame(code, &message);
        assert_eq!(reencoded[5], expected as u8);
    }
}

/// The retry taxonomy the replica failover ladder keys on: admission and
/// deadline classes are safe to replay on another endpoint; answers and
/// internal failures (which may have had effects) are not.
#[test]
fn retryable_classes_are_exactly_the_admission_and_deadline_ones() {
    for code in ALL_CODES {
        let expected = matches!(
            code,
            ErrorCode::Capacity | ErrorCode::Backpressure | ErrorCode::Deadline
        );
        assert_eq!(code.is_retryable(), expected, "{code:?}");
    }
}

fn spawn_server() -> ServerHandle {
    let engine = SharedEngine::default();
    engine.with_write(|e| e.create_dataset("flights").unwrap());
    Server::bind("127.0.0.1:0", engine, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap()
}

/// The pipelined half-steps against a real server: every request is written
/// before the first response is read, responses come back **in order**, an
/// `Error` frame sits as a value in its own slot without derailing the
/// batch, and the stream ends the exchange balanced and clean.
#[test]
fn pipelined_batches_answer_in_order_with_error_frames_in_their_slot() {
    let server = spawn_server();
    let mut client = HermesClient::connect(server.addr()).unwrap();
    assert!(client.is_clean());

    let batch = [
        Request::Query {
            sql: "SHOW DATASETS;".into(),
        },
        Request::Query {
            sql: "SELECT INFO(nowhere);".into(), // answered with an Error frame
        },
        Request::Query {
            sql: "SELECT INFO(flights);".into(),
        },
    ];
    let responses = client.pipeline(&batch).expect("pipelined batch");
    assert_eq!(responses.len(), 3);
    assert!(
        matches!(&responses[0], Response::Rows { .. }),
        "slot 0 must hold the SHOW DATASETS rows, got {:?}",
        responses[0]
    );
    match &responses[1] {
        Response::Error { code, message } => {
            assert_eq!(*code, ErrorCode::Query);
            assert!(
                message.contains("nowhere"),
                "the error must be the engine's own text: {message:?}"
            );
        }
        other => panic!("slot 1 must hold the Error frame, got {other:?}"),
    }
    assert!(
        matches!(&responses[2], Response::Rows { .. }),
        "slot 2 must hold the INFO rows — the Error frame must not shift \
         later answers, got {:?}",
        responses[2]
    );
    // Balanced and unpoisoned: safe to pool and to keep using.
    assert!(client.is_clean());
    client
        .query("SHOW DATASETS;")
        .expect("stream still in sync");
}

/// A stream that owes responses is not clean: `send` without `receive`
/// leaves `pending` outstanding (the hedge-loser shape) and the pool must
/// refuse it until the balance is restored.
#[test]
fn a_stream_owing_responses_is_not_clean_until_drained() {
    let server = spawn_server();
    let mut client = HermesClient::connect(server.addr()).unwrap();
    client
        .send(&Request::Query {
            sql: "SHOW DATASETS;".into(),
        })
        .expect("send");
    assert!(
        !client.is_clean(),
        "an in-flight request must mark the stream unclean"
    );
    client.receive().expect("receive");
    assert!(client.is_clean(), "a balanced stream is clean again");
}

/// A response torn mid-frame poisons the client for good: the stream
/// position is unknown, so `is_clean` stays false even after the error is
/// observed — this is the regression gate for the pool check-in leak.
#[test]
fn a_mid_frame_tear_poisons_the_connection_permanently() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let truncator = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        // The server speaks first in the handshake.
        write_handshake(&mut conn).unwrap();
        read_handshake(&mut conn).unwrap();
        // Consume the request, then answer with a torn frame: the length
        // header promises more bytes than ever arrive.
        let mut scratch = [0u8; 4096];
        let _ = conn.read(&mut scratch);
        let frame = error_frame(ErrorCode::Query, "you will never read all of me");
        conn.write_all(&frame[..frame.len() / 2]).unwrap();
        // FIN mid-frame.
    });

    let mut client = HermesClient::connect(addr).unwrap();
    let err = client.query("SHOW DATASETS;").unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Protocol(_)),
        "a torn frame is a transport failure, got {err:?}"
    );
    assert!(
        !client.is_clean(),
        "a torn stream must stay poisoned — pooling it would desynchronize \
         the next caller"
    );
    truncator.join().unwrap();
}

/// A `Capacity` goodbye poisons the stream even though the frame itself
/// decodes fine: the server closes the connection behind it.
#[test]
fn a_capacity_goodbye_poisons_the_stream() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let refuser = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        write_handshake(&mut conn).unwrap();
        read_handshake(&mut conn).unwrap();
        let mut scratch = [0u8; 4096];
        let _ = conn.read(&mut scratch);
        conn.write_all(&error_frame(ErrorCode::Capacity, "connection cap reached"))
            .unwrap();
    });

    let mut client = HermesClient::connect(addr).unwrap();
    let response = client
        .exchange(&Request::Query {
            sql: "SHOW DATASETS;".into(),
        })
        .expect("the Capacity frame itself decodes");
    assert!(matches!(&response, Response::Error { code, .. } if *code == ErrorCode::Capacity));
    assert!(
        !client.is_clean(),
        "the server hangs up behind a Capacity frame; the stream must not \
         be reused"
    );
    refuser.join().unwrap();
}

/// The malformed-frame gate, run against both services: a frame with an
/// impossible length and a frame that does not decode are each answered
/// with one typed `Protocol` error, after which the server hangs up.
fn assert_malformed_frames_get_protocol_errors(addr: SocketAddr, metrics: &ServerMetrics) {
    let errors = metrics.query_errors.get();
    let zero_length: &[u8] = &[0, 0, 0, 0];
    let unknown_kind: &[u8] = &[0, 0, 0, 1, 0xFF];
    for frame in [zero_length, unknown_kind] {
        let mut conn = TcpStream::connect(addr).unwrap();
        read_handshake(&mut conn).unwrap();
        write_handshake(&mut conn).unwrap();
        conn.write_all(frame).unwrap();
        match read_response(&mut conn).expect("an error frame, not a dropped connection") {
            (Response::Error { code, message }, _) => {
                assert_eq!(code, ErrorCode::Protocol, "{frame:?}: {message}");
            }
            (other, _) => panic!("{frame:?}: expected a protocol error, got {other:?}"),
        }
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "{frame:?}: the server closes after the error"
        );
    }
    assert_eq!(metrics.query_errors.get(), errors + 2);
}

#[test]
fn malformed_frames_get_protocol_errors() {
    let server = spawn_server();
    assert_malformed_frames_get_protocol_errors(server.addr(), &server.metrics());
}

#[test]
fn coordinator_malformed_frames_get_protocol_errors() {
    let (_shard, coord) = common::spawn_coordinator(ServerConfig::default());
    assert_malformed_frames_get_protocol_errors(coord.addr(), &coord.metrics());
}

/// Requests also frame cleanly — the pipelined writer puts each request on
/// the wire as one self-delimiting frame, so a batch is just concatenation.
#[test]
fn pipelined_requests_are_self_delimiting_frames() {
    let mut batch = Vec::new();
    let mut lengths = Vec::new();
    for sql in ["SHOW DATASETS;", "SELECT INFO(flights);"] {
        let n = write_request(
            &mut batch,
            &Request::Query {
                sql: sql.to_string(),
            },
        )
        .expect("encode");
        lengths.push(n as usize);
    }
    assert_eq!(batch.len(), lengths.iter().sum::<usize>());
    // Each frame's length header accounts for exactly its own tail.
    let first = u32::from_be_bytes(batch[..4].try_into().unwrap()) as usize;
    assert_eq!(4 + first, lengths[0]);
}
