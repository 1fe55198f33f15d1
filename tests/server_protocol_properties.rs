//! Property and integration tests for the network front door
//! (`tilt-server`): the wire codec must round-trip every message and
//! reject every malformed byte sequence without panicking, a hostile
//! client must never be able to take the service down, and — the
//! acceptance bar — output collected over loopback TCP must be
//! identical, per key, to an in-process run of the same service at 1,
//! 2, and 4 shards, in order and under bounded disorder.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{KeyedEvent, RuntimeConfig, StreamService};
use tilt_server::protocol::{
    decode, encode, encode_frame, read_message, Message, RecvError, TextKind, WireError, WireEvent,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use tilt_server::{Client, Server};

// ───────────────────────── random message tape ─────────────────────────

/// Deterministic pseudo-random words from a proptest-generated tape; a
/// pure "decoder of randomness" that lets the shim's simple strategies
/// drive arbitrarily structured messages.
struct Tape {
    words: Vec<u64>,
    pos: usize,
}

impl Tape {
    fn new(words: Vec<u64>) -> Tape {
        Tape { words, pos: 0 }
    }
    fn next(&mut self) -> u64 {
        let w = self.words.get(self.pos).copied().unwrap_or(7);
        self.pos += 1;
        w
    }
    fn small(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
    fn string(&mut self) -> String {
        const PIECES: [&str; 7] = ["", "a", "query", "αβγ", "naïve", "line\nbreak", "🦀"];
        let n = self.small(3);
        let mut s = String::new();
        for _ in 0..=n {
            s.push_str(PIECES[self.small(PIECES.len() as u64) as usize]);
        }
        s
    }
    /// Floats quantized to multiples of 0.25 (and a few specials) so
    /// `PartialEq` round-trip comparison is exact.
    fn float(&mut self) -> f64 {
        match self.small(4) {
            0 => 0.0,
            1 => -1.5,
            _ => (self.next() % 10_000) as f64 * 0.25 - 1_000.0,
        }
    }
    fn value(&mut self, depth: usize) -> Value {
        let variants = if depth == 0 { 6 } else { 5 };
        match self.small(variants) {
            0 => Value::Null,
            1 => Value::Bool(self.next().is_multiple_of(2)),
            2 => Value::Int(self.next() as i64),
            3 => Value::Float(self.float()),
            4 => Value::Str(Arc::from(self.string().as_str())),
            _ => {
                let n = self.small(4) as usize;
                Value::Tuple((0..n).map(|_| self.value(depth + 1)).collect())
            }
        }
    }
    fn event(&mut self) -> Event<Value> {
        let start = (self.next() % 2_000_000) as i64 - 1_000_000;
        let len = 1 + (self.next() % 500) as i64;
        Event::new(Time::new(start), Time::new(start + len), self.value(0))
    }
    fn opt_i64(&mut self) -> Option<i64> {
        if self.next().is_multiple_of(2) {
            None
        } else {
            Some(self.next() as i64)
        }
    }
    fn message(&mut self) -> Message {
        match self.small(26) {
            0 => Message::Hello { version: self.next() as u16 },
            1 => Message::Ingest {
                events: (0..self.small(6))
                    .map(|_| WireEvent {
                        key: self.next(),
                        source: self.small(4) as u32,
                        event: self.event(),
                    })
                    .collect(),
            },
            2 => Message::Watermark { source: self.small(8) as u32, time: self.next() as i64 },
            3 => Message::Attach {
                name: self.string(),
                lateness: self.opt_i64(),
                emit_interval: self.opt_i64(),
            },
            4 => Message::Detach { query: self.next() as u32 },
            5 => Message::Subscribe { query: self.next() as u32 },
            6 => Message::Stats,
            7 => Message::MetricsText,
            8 => Message::Journal,
            9 => Message::Catalog,
            10 => Message::Shutdown { end: self.opt_i64() },
            11 => Message::HelloAck { version: self.next() as u16, credit: self.next() as u32 },
            12 => Message::Credit { grant: self.next() as u32 },
            13 => Message::Busy { grant: self.next() as u32 },
            14 => Message::Attached { query: self.next() as u32, frontier: self.next() as i64 },
            15 => Message::Ok,
            16 => {
                // Round-trip every error code.
                let codes = [
                    tilt_server::protocol::ErrorCode::Version,
                    tilt_server::protocol::ErrorCode::UnknownQuery,
                    tilt_server::protocol::ErrorCode::UnknownName,
                    tilt_server::protocol::ErrorCode::Detached,
                    tilt_server::protocol::ErrorCode::Protocol,
                    tilt_server::protocol::ErrorCode::ShuttingDown,
                    tilt_server::protocol::ErrorCode::Conflict,
                    tilt_server::protocol::ErrorCode::Internal,
                    tilt_server::protocol::ErrorCode::ResumeGap,
                ];
                Message::Error {
                    code: codes[self.small(codes.len() as u64) as usize],
                    message: self.string(),
                }
            }
            17 => Message::Eos { query: self.next() as u32 },
            18 => Message::StatsReply {
                fields: (0..self.small(6)).map(|_| (self.string(), self.next() as i64)).collect(),
            },
            19 => {
                let kinds = [TextKind::Metrics, TextKind::Journal, TextKind::Catalog];
                Message::Text {
                    kind: kinds[self.small(kinds.len() as u64) as usize],
                    text: self.string(),
                }
            }
            20 => Message::Checkpoint { path: self.string() },
            21 => Message::Restore {
                path: self.string(),
                queries: (0..self.small(4)).map(|_| self.string()).collect(),
            },
            22 => Message::Restored {
                queries: (0..self.small(4))
                    .map(|_| (self.next() as u32, self.next() as i64))
                    .collect(),
            },
            23 => Message::Resume { query: self.next() as u32, next_seq: self.next() },
            24 => Message::OutputSeq {
                query: self.next() as u32,
                seq: self.next(),
                key: self.next(),
                events: (0..self.small(5)).map(|_| self.event()).collect(),
            },
            _ => Message::Resumed { query: self.next() as u32, replayed: self.next() },
        }
    }
}

// ───────────────────────────── codec laws ──────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round-trip identity: every message survives encode → decode, both
    /// at the payload layer and through the framed transport.
    #[test]
    fn codec_roundtrips_arbitrary_messages(words in prop::collection::vec(any::<u64>(), 4..64)) {
        let msg = Tape::new(words).message();
        let payload = encode(&msg);
        prop_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
        prop_assert_eq!(decode(&payload).expect("payload decodes"), msg.clone());
        let frame = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(frame.clone());
        let (back, n) = read_message(&mut cursor).expect("frame decodes");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(n, frame.len());
    }

    /// One layout: an event's bytes inside an `Ingest` frame payload are
    /// the bytes a snapshot record payload holds for it (record payloads
    /// are built with `tilt_state::Enc`), so the formats cannot drift.
    #[test]
    fn events_encode_identically_on_the_wire_and_on_disk(
        words in prop::collection::vec(any::<u64>(), 4..64),
    ) {
        let event = Tape::new(words).event();
        let mut record = tilt_state::Enc::new();
        record.event(&event);
        let record = record.into_bytes();
        let frame = encode(&Message::Ingest {
            events: vec![WireEvent { key: 7, source: 1, event: event.clone() }],
        });
        // tag(1) + count(4) + key(8) + source(4), then the event.
        prop_assert_eq!(&frame[17..], &record[..]);
        prop_assert_eq!(tilt_state::Dec::new(&frame[17..]).event().expect("decodes"), event);
    }

    /// Every strict prefix of a valid payload is rejected (no prefix of
    /// a message is itself a message), and rejection never panics.
    #[test]
    fn truncated_frames_never_decode(words in prop::collection::vec(any::<u64>(), 4..64)) {
        let payload = encode(&Tape::new(words).message());
        for cut in 0..payload.len() {
            prop_assert!(decode(&payload[..cut]).is_err(), "prefix {}/{} decoded", cut, payload.len());
        }
    }

    /// Decoding arbitrary bytes is total: Ok or Err, never a panic, both
    /// for raw payloads and framed streams with hostile length headers.
    #[test]
    fn garbage_bytes_never_panic_the_decoder(
        words in prop::collection::vec(any::<u64>(), 0..40),
        header in any::<u64>(),
    ) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _ = decode(&bytes);
        // A stream starting with an arbitrary 4-byte header.
        let mut stream = (header as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&bytes);
        let mut cursor = std::io::Cursor::new(stream);
        match read_message(&mut cursor) {
            Ok(_) | Err(RecvError::Io(_)) | Err(RecvError::Decode(_)) => {}
            Err(RecvError::Closed) => prop_assert!(false, "non-empty stream reported Closed"),
        }
    }
}

// ─────────────────────── deterministic rejections ──────────────────────

#[test]
fn oversized_length_header_is_rejected_before_allocation() {
    let mut stream = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    stream.extend_from_slice(&[0u8; 16]);
    let mut cursor = std::io::Cursor::new(stream);
    match read_message(&mut cursor) {
        Err(RecvError::Decode(WireError::Oversize(len))) => assert_eq!(len, MAX_FRAME_LEN + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }
}

#[test]
fn unknown_tags_and_trailing_bytes_are_rejected() {
    assert!(matches!(decode(&[0x42]), Err(WireError::BadTag { .. })));
    let mut payload = encode(&Message::Stats);
    payload.push(0);
    assert!(matches!(decode(&payload), Err(WireError::TrailingBytes(1))));
    // Non-UTF-8 string bytes inside an Attach.
    let mut bad = vec![0x04];
    bad.extend_from_slice(&2u32.to_le_bytes());
    bad.extend_from_slice(&[0xFF, 0xFE]);
    bad.extend_from_slice(&[0, 0]); // both Options absent
    assert_eq!(decode(&bad), Err(WireError::BadUtf8));
}

// ───────────────────────── service under attack ────────────────────────

fn window_query(window: i64, agg: u8) -> Arc<CompiledQuery> {
    let op = match agg % 3 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Min,
        _ => ReduceOp::Max,
    };
    let mut b = Query::builder();
    let input = b.input("x", DataType::Float);
    let out = b.temporal("w", TDom::every_tick(), Expr::reduce_window(op, input, window));
    let q = b.finish(out).unwrap();
    Arc::new(Compiler::new().compile(&q).unwrap())
}

fn test_config(shards: usize, lateness: i64) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        allowed_lateness: lateness,
        emit_interval: 4,
        start: Time::ZERO,
        ..RuntimeConfig::default()
    }
}

fn test_server(shards: usize, lateness: i64) -> Server {
    Server::start(test_config(shards, lateness), vec![("w".into(), window_query(8, 0))])
        .expect("server starts")
}

/// Drives a well-formed client through the full surface to prove the
/// service is still healthy; returns the decode-error counter.
fn assert_service_alive(server: &Server) -> i64 {
    let client = Client::connect(server.addr()).expect("healthy client connects");
    let q = client.attach("w", None, None).expect("attach");
    let sub = client.subscribe(q).expect("subscribe");
    client
        .ingest(vec![KeyedEvent::new(1, 0, Event::point(Time::new(4), Value::Float(1.0)))])
        .expect("ingest");
    client.watermark(0, Time::new(100)).expect("watermark");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("conservation_balance"), Some(0));
    client.shutdown(Some(Time::new(64))).expect("shutdown");
    let per_key = sub.collect_per_key();
    assert!(per_key.contains_key(&1), "subscriber got key 1's output");
    client.stats().expect("stats after shutdown").get("decode_errors").expect("counter present")
}

/// Raw-socket helper: a connection that has completed the handshake.
fn greeted(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&encode_frame(&Message::Hello { version: PROTOCOL_VERSION })).expect("hello");
    let (ack, _) = read_message(&mut s).expect("hello ack");
    assert!(matches!(ack, Message::HelloAck { .. }), "expected HelloAck, got {ack:?}");
    s
}

/// Raw-socket helper: handshake properly, then deliver `attack` bytes.
/// Returns whatever the server sent back after the HelloAck.
fn attack_after_handshake(addr: std::net::SocketAddr, attack: &[u8]) -> Vec<u8> {
    let mut s = greeted(addr);
    s.write_all(attack).expect("attack bytes");
    // Half-close so a server blocked mid-frame sees EOF instead of
    // waiting for bytes that will never come.
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut tail = Vec::new();
    let _ = s.read_to_end(&mut tail); // server replies then closes
    tail
}

#[test]
fn hostile_frames_cannot_panic_the_service() {
    let server = test_server(2, 8);
    // 1. Oversized length header.
    let mut oversize = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    oversize.extend_from_slice(&[0xAB; 64]);
    let reply = attack_after_handshake(server.addr(), &oversize);
    assert!(!reply.is_empty(), "server sent an Error before closing");
    // 2. Garbage mid-stream: an unknown tag, then junk.
    let mut garbage = 5u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0x42, 1, 2, 3, 4]);
    garbage.extend_from_slice(&[0xFF; 200]);
    attack_after_handshake(server.addr(), &garbage);
    // 3. A truncated frame: valid header, half a payload, then close.
    let frame = encode_frame(&Message::Stats);
    attack_after_handshake(server.addr(), &frame[..frame.len().saturating_sub(1).max(4)]);
    // 4. An Ingest whose event interval is empty (end == start).
    let mut bad_ingest = vec![0x02];
    bad_ingest.extend_from_slice(&1u32.to_le_bytes());
    bad_ingest.extend_from_slice(&7u64.to_le_bytes());
    bad_ingest.extend_from_slice(&0u32.to_le_bytes());
    bad_ingest.extend_from_slice(&5i64.to_le_bytes());
    bad_ingest.extend_from_slice(&5i64.to_le_bytes());
    bad_ingest.push(0);
    let mut framed = (bad_ingest.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&bad_ingest);
    attack_after_handshake(server.addr(), &framed);
    // 5. A server-to-client tag sent by the client.
    attack_after_handshake(server.addr(), &encode_frame(&Message::Credit { grant: 1 }));
    // 6. A Restore claiming u32::MAX query names with a 1-byte body —
    // the hostile count must be refused before allocation.
    let mut hostile_restore = vec![0x0D];
    hostile_restore.extend_from_slice(&4u32.to_le_bytes());
    hostile_restore.extend_from_slice(b"snap");
    hostile_restore.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile_restore.push(0);
    let mut framed_restore = (hostile_restore.len() as u32).to_le_bytes().to_vec();
    framed_restore.extend_from_slice(&hostile_restore);
    attack_after_handshake(server.addr(), &framed_restore);
    // 7. A Checkpoint whose path bytes are not UTF-8.
    let mut bad_ckpt = vec![0x0C];
    bad_ckpt.extend_from_slice(&2u32.to_le_bytes());
    bad_ckpt.extend_from_slice(&[0xFF, 0xFE]);
    let mut framed_ckpt = (bad_ckpt.len() as u32).to_le_bytes().to_vec();
    framed_ckpt.extend_from_slice(&bad_ckpt);
    attack_after_handshake(server.addr(), &framed_ckpt);
    // The service survived all of it, counted the malformed frames
    // (attacks 1, 2, 4, 6, and 7 are decode errors; the torn frame
    // surfaces as EOF and the smuggled Credit decodes but violates the
    // protocol), and still serves a well-formed client end to end.
    let decode_errors = assert_service_alive(&server);
    assert!(decode_errors >= 5, "decode errors counted, got {decode_errors}");
    server.stop();
}

/// Satellite of the fault-injection PR: a peer dying after exactly K
/// bytes of a frame — for *every* K — must never panic a handler, leak
/// a connection slot, or bend conservation.
#[test]
fn peer_death_at_every_frame_offset_leaks_nothing() {
    let server = test_server(2, 8);
    let frame = encode_frame(&Message::Ingest {
        events: vec![WireEvent {
            key: 1,
            source: 0,
            event: Event::point(Time::new(4), Value::Float(1.0)),
        }],
    });
    for cut in 0..=frame.len() {
        let mut s = greeted(server.addr());
        s.write_all(&frame[..cut]).expect("partial frame");
        drop(s); // die mid-frame
    }
    // Every handler notices the death and releases its slot; the books
    // stay exact (the one complete frame at cut == len was applied).
    let client = Client::connect(server.addr()).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if stats.get("conns_open") == Some(1) {
            assert_eq!(stats.get("conservation_balance"), Some(0), "conservation exact");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection slots leaked: conns_open = {:?}",
            stats.get("conns_open")
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(client);
    // End-to-end health probe, at a time beyond any frontier the one
    // complete frame (cut == len) may have advanced pre-attach.
    let client = Client::connect(server.addr()).expect("healthy client connects");
    let q = client.attach("w", None, None).expect("attach");
    let sub = client.subscribe(q).expect("subscribe");
    client
        .ingest(vec![KeyedEvent::new(9, 0, Event::point(Time::new(50), Value::Float(1.0)))])
        .expect("ingest");
    client.watermark(0, Time::new(100)).expect("watermark");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("conservation_balance"), Some(0));
    client.shutdown(Some(Time::new(128))).expect("shutdown");
    let per_key = sub.collect_per_key();
    assert!(per_key.contains_key(&9), "subscriber got key 9's output");
    server.stop();
}

/// The decode-error budget: recoverable malformed frames are answered
/// and tolerated up to the budget, then the connection is dropped.
#[test]
fn decode_error_budget_tolerates_then_disconnects() {
    let server = test_server(1, 8);
    let mut s = greeted(server.addr());
    // An unknown tag in a fully read frame: recoverable.
    let mut bad = 1u32.to_le_bytes().to_vec();
    bad.push(0x42);
    for _ in 0..3 {
        s.write_all(&bad).unwrap();
        match read_message(&mut s) {
            Ok((Message::Error { code, .. }, _)) => {
                assert_eq!(code, tilt_server::protocol::ErrorCode::Protocol)
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }
    // Within budget: the connection still serves requests.
    s.write_all(&encode_frame(&Message::Stats)).unwrap();
    match read_message(&mut s) {
        Ok((Message::StatsReply { .. }, _)) => {}
        other => panic!("expected StatsReply, got {other:?}"),
    }
    // One past the budget: final Error, then the server closes.
    s.write_all(&bad).unwrap();
    match read_message(&mut s) {
        Ok((Message::Error { code, .. }, _)) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::Protocol)
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
    let mut rest = Vec::new();
    let _ = s.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection closed after budget exhaustion");
    assert_service_alive(&server);
    server.stop();
}

#[test]
fn wrong_version_and_missing_hello_are_refused() {
    let server = test_server(1, 8);
    // Any version but the one this build speaks, older or newer.
    for version in [1, 2, 3, PROTOCOL_VERSION + 9] {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(&encode_frame(&Message::Hello { version })).unwrap();
        match read_message(&mut s) {
            Ok((Message::Error { code, .. }, _)) => {
                assert_eq!(code, tilt_server::protocol::ErrorCode::Version, "version {version}")
            }
            other => panic!("version {version}: expected version Error, got {other:?}"),
        }
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "connection closed after refusing version {version}");
    }
    // First frame is not Hello.
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.write_all(&encode_frame(&Message::Stats)).unwrap();
    match read_message(&mut s) {
        Ok((Message::Error { code, .. }, _)) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::Protocol)
        }
        other => panic!("expected protocol Error, got {other:?}"),
    }
    assert_service_alive(&server);
    server.stop();
}

#[test]
fn control_plane_errors_are_reported_not_fatal() {
    let server = test_server(1, 8);
    let client = Client::connect(server.addr()).expect("connect");
    // Unknown catalog name.
    match client.attach("no-such-query", None, None) {
        Err(tilt_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::UnknownName)
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
    // The same connection keeps working afterwards.
    let q = client.attach("w", None, None).expect("attach");
    client.detach(q).expect("detach");
    match client.detach(q) {
        Err(tilt_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::Detached)
        }
        other => panic!("expected Detached, got {other:?}"),
    }
    assert!(client.catalog_text().expect("catalog").contains("w"));
    client.shutdown(None).expect("shutdown");
    server.stop();
}

// ───────────────────── durability over the wire ────────────────────────

fn snapshot_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tilt-wire-{tag}-{}.tiltsnp", std::process::id()));
    p
}

/// Durability control-plane errors are reported, never fatal: restores
/// of missing snapshots, unknown roster names, and checkpoints into
/// unwritable paths all leave the service healthy.
#[test]
fn durability_errors_are_reported_not_fatal() {
    let server = test_server(1, 8);
    let client = Client::connect(server.addr()).expect("connect");
    // Restore from a snapshot that does not exist.
    match client.restore("/nonexistent/dir/snap.tiltsnp", &[]) {
        Err(tilt_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::Internal)
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // Restore naming a query the catalog does not have.
    match client.restore("/tmp/snap.tiltsnp", &["no-such-query"]) {
        Err(tilt_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::UnknownName)
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
    // Checkpoint into a directory that does not exist.
    match client.checkpoint("/nonexistent/dir/snap.tiltsnp") {
        Err(tilt_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::Internal)
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // A busy service (attached query + ingested events) refuses restore.
    let q = client.attach("w", None, None).expect("attach");
    client
        .ingest(vec![KeyedEvent::new(1, 0, Event::point(Time::new(3), Value::Float(1.0)))])
        .expect("ingest");
    let path = snapshot_path("busy");
    client.checkpoint(path.to_str().unwrap()).expect("checkpoint of a busy service is fine");
    match client.restore(path.to_str().unwrap(), &["w"]) {
        Err(tilt_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, tilt_server::protocol::ErrorCode::Conflict)
        }
        other => panic!("expected Conflict, got {other:?}"),
    }
    // Everything above left the service healthy.
    client.detach(q).expect("detach");
    client.shutdown(None).expect("shutdown");
    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// The wire acceptance bar for durability: ingest a prefix into server
/// A, checkpoint over the wire, kill A, restore into a fresh server B,
/// ingest the suffix — the concatenated remote output equals one
/// uninterrupted in-process run, per key.
#[test]
fn wire_checkpoint_restore_is_invisible_in_the_output() {
    let cq = window_query(8, 0);
    let streams = [
        stream_from_segments(&[(1, 2, 8), (0, 3, -12), (2, 2, 20), (1, 4, 16), (0, 2, -8)]),
        stream_from_segments(&[(0, 4, 40), (3, 1, -4), (1, 3, 28), (2, 2, -16), (1, 1, 12)]),
        stream_from_segments(&[(2, 3, -20), (1, 2, 24), (0, 1, 36), (3, 3, -28), (0, 2, 44)]),
    ];
    let arrivals = arrival_sequence(&streams, 3);
    let lateness = lateness_needed(&arrivals).max(1);
    let end = Time::new(arrivals.iter().map(|ke| ke.event.end.ticks()).max().unwrap_or(0) + 8);
    let split = arrivals.len() / 2;
    let path = snapshot_path("invisible");
    for shards in [1usize, 2] {
        let cfg = test_config(shards, lateness);
        let local = in_process_reference(&cq, &arrivals, cfg, end);
        // Server A: prefix, then checkpoint, then die without draining.
        let server_a = Server::start(cfg, vec![("w".into(), Arc::clone(&cq))]).expect("server a");
        let client_a = Client::connect(server_a.addr()).expect("client a");
        let qa = client_a.attach("w", None, None).expect("attach");
        let sub_a = client_a.subscribe(qa).expect("subscribe a");
        client_a.ingest(arrivals[..split].iter().cloned()).expect("prefix");
        client_a.checkpoint(path.to_str().unwrap()).expect("checkpoint");
        // stop() severs connections before draining, so sub_a holds
        // exactly the output emitted up to the checkpoint.
        server_a.stop();
        drop(client_a);
        let mut wire = sub_a.collect_per_key();
        // Server B: restore, suffix, drain.
        let server_b = Server::start(cfg, vec![("w".into(), Arc::clone(&cq))]).expect("server b");
        let client_b = Client::connect(server_b.addr()).expect("client b");
        let restored = client_b.restore(path.to_str().unwrap(), &["w"]).expect("restore");
        assert_eq!(restored.len(), 1, "one live query restored");
        assert_eq!(restored[0].id(), qa.id(), "roster slot survives the restart");
        let sub_b = client_b.subscribe(restored[0]).expect("subscribe b");
        client_b.ingest(arrivals[split..].iter().cloned()).expect("suffix");
        let stats = client_b.stats().expect("stats");
        assert_eq!(
            stats.get("events_in"),
            Some(arrivals.len() as i64),
            "events_in resumes from the snapshot instead of restarting"
        );
        client_b.shutdown(Some(end)).expect("shutdown");
        let after = client_b.stats().expect("stats after shutdown");
        assert_eq!(after.get("conservation_balance"), Some(0), "conservation holds across restore");
        for (key, events) in sub_b.collect_per_key() {
            wire.entry(key).or_default().extend(events);
        }
        server_b.stop();
        assert_identical(&wire, &local, &format!("wire checkpoint/restore shards={shards}"));
        let _ = std::fs::remove_file(&path);
    }
}

// ───────────────────── wire ↔ in-process identity ──────────────────────

/// Per-key random event stream: (gap, len, value) segments, values
/// quantized so float aggregation is exact.
fn stream_from_segments(segments: &[(i64, i64, i64)]) -> Vec<Event<Value>> {
    let mut t = 0;
    let mut out = Vec::new();
    for (gap, len, val) in segments {
        let start = t + gap;
        let end = start + len;
        out.push(Event::new(
            Time::new(start),
            Time::new(end),
            Value::Float((val / 4) as f64 * 0.25),
        ));
        t = end;
    }
    out
}

/// Interleaves per-key streams into one arrival sequence, then scrambles
/// it by reversing consecutive blocks of `displacement` events.
fn arrival_sequence(streams: &[Vec<Event<Value>>], displacement: usize) -> Vec<KeyedEvent> {
    let mut all: Vec<KeyedEvent> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, evs)| evs.iter().map(move |e| KeyedEvent::new(k as u64, 0, e.clone())))
        .collect();
    all.sort_by_key(|ke| (ke.event.end, ke.key));
    if displacement > 1 {
        for block in all.chunks_mut(displacement) {
            block.reverse();
        }
    }
    all
}

/// The smallest allowed lateness absorbing the disorder of `arrivals`.
fn lateness_needed(arrivals: &[KeyedEvent]) -> i64 {
    let mut max_start = Time::MIN;
    let mut worst = 0i64;
    for ke in arrivals {
        if max_start > ke.event.start {
            worst = worst.max(max_start - ke.event.start);
        }
        max_start = max_start.max(ke.event.start);
    }
    worst
}

/// The in-process reference: one registered query, same config, drained
/// through the same horizon.
fn in_process_reference(
    cq: &Arc<CompiledQuery>,
    arrivals: &[KeyedEvent],
    cfg: RuntimeConfig,
    end: Time,
) -> HashMap<u64, Vec<Event<Value>>> {
    let mut builder = StreamService::builder(cfg);
    let q = builder.register(Arc::clone(cq));
    let service = builder.start().expect("single registration");
    service.ingest(arrivals.iter().cloned());
    service.finish_at(end).per_query.swap_remove(q.index())
}

/// The remote run: attach by name, subscribe, ingest over TCP, shut the
/// service down through the same horizon, and collect the subscription.
fn remote_run(
    server: &Server,
    arrivals: &[KeyedEvent],
    end: Time,
) -> HashMap<u64, Vec<Event<Value>>> {
    let client = Client::connect(server.addr()).expect("client connects");
    let q = client.attach("w", None, None).expect("attach");
    assert_eq!(q.frontier(), Time::ZERO, "attach-first frontier is config.start");
    let sub = client.subscribe(q).expect("subscribe");
    client.ingest(arrivals.iter().cloned()).expect("ingest");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("events_in"), Some(arrivals.len() as i64), "every event arrived");
    client.shutdown(Some(end)).expect("shutdown");
    let after = client.stats().expect("stats after shutdown");
    assert_eq!(after.get("conservation_balance"), Some(0), "conservation holds over the wire");
    assert_eq!(after.get("decode_errors"), Some(0), "well-formed traffic decodes cleanly");
    sub.collect_per_key()
}

fn assert_identical(
    wire: &HashMap<u64, Vec<Event<Value>>>,
    local: &HashMap<u64, Vec<Event<Value>>>,
    ctx: &str,
) {
    let mut keys: Vec<u64> = wire.keys().chain(local.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let w = wire.get(&key).cloned().unwrap_or_default();
        let l = local.get(&key).cloned().unwrap_or_default();
        assert!(
            streams_equivalent(&coalesce(&w), &coalesce(&l)),
            "{ctx}: key {key} diverged\n wire: {w:?}\n local: {l:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: remote output over loopback TCP is
    /// identical (per key) to the in-process run at 1, 2, and 4 shards,
    /// in order and under bounded disorder.
    #[test]
    fn remote_output_matches_in_process(
        segs_a in prop::collection::vec((0i64..6, 1i64..8, -64i64..64), 1..12),
        segs_b in prop::collection::vec((0i64..6, 1i64..8, -64i64..64), 1..12),
        segs_c in prop::collection::vec((0i64..6, 1i64..8, -64i64..64), 1..12),
        window in 2i64..16,
        agg in 0u8..3,
        displacement in 1usize..5,
    ) {
        let streams = [
            stream_from_segments(&segs_a),
            stream_from_segments(&segs_b),
            stream_from_segments(&segs_c),
        ];
        let arrivals = arrival_sequence(&streams, displacement);
        let lateness = lateness_needed(&arrivals).max(1);
        let end = Time::new(
            arrivals.iter().map(|ke| ke.event.end.ticks()).max().unwrap_or(0) + window,
        );
        let cq = window_query(window, agg);
        for shards in [1usize, 2, 4] {
            let cfg = test_config(shards, lateness);
            let local = in_process_reference(&cq, &arrivals, cfg, end);
            let server = Server::start(cfg, vec![("w".into(), Arc::clone(&cq))])
                .expect("server starts");
            let wire = remote_run(&server, &arrivals, end);
            server.stop();
            assert_identical(&wire, &local, &format!("shards={shards} disp={displacement}"));
        }
    }
}

// ──────────────────────────── the frame cap ────────────────────────────

/// A hot key releasing more than a frame's worth of output in one sink
/// call: the subscriber must see consecutive frames that each fit the
/// cap, with contiguous sequence numbers, carrying every event exactly
/// once and in order.
#[test]
fn oversize_output_is_split_into_frames_that_fit() {
    let cq = window_query(8, 0);
    // Every tick a distinct sum, nothing final until the one watermark.
    let n = 50_000i64;
    let arrivals: Vec<KeyedEvent> = (1..=n)
        .map(|t| KeyedEvent::new(1, 0, Event::point(Time::new(t), Value::Float(t as f64))))
        .collect();
    let cfg = test_config(1, 2 * n);
    let end = Time::new(n + 16);
    let local = in_process_reference(&cq, &arrivals, cfg, end);
    assert!(local[&1].len() as u64 * 25 > MAX_FRAME_LEN as u64, "workload exceeds one frame");

    let server = Server::start(cfg, vec![("w".into(), Arc::clone(&cq))]).expect("server starts");
    let producer = Client::connect(server.addr()).expect("producer connects");
    let q = producer.attach("w", None, None).expect("attach");
    let mut s = greeted(server.addr());
    s.write_all(&encode_frame(&Message::Subscribe { query: q.id() })).unwrap();
    assert!(matches!(read_message(&mut s), Ok((Message::Ok, _))));

    producer.ingest(arrivals).expect("ingest");
    producer.watermark(0, end).expect("watermark releases everything at once");
    producer.shutdown(Some(end)).expect("shutdown");
    let mut got: Vec<Event<Value>> = Vec::new();
    let mut frames = 0u64;
    loop {
        match read_message(&mut s).expect("every frame fits the cap and decodes") {
            (Message::OutputSeq { seq, key, events, .. }, _) => {
                assert_eq!(seq, frames, "sequence numbers are contiguous");
                assert_eq!(key, 1);
                frames += 1;
                got.extend(events);
            }
            (Message::Eos { .. }, _) => break,
            (other, _) => panic!("unexpected frame {other:?}"),
        }
    }
    server.stop();
    assert!(frames >= 2, "the release spans several frames, got {frames}");
    assert!(got.windows(2).all(|w| w[0].end <= w[1].start), "in order, nothing twice");
    assert_identical(&HashMap::from([(1, got)]), &local, "split output");
}

/// `Client::ingest` chunks by bytes as well as by credit: a full credit
/// window of string payloads is larger than one frame.
#[test]
fn ingest_splits_a_credit_window_that_exceeds_one_frame() {
    let server = test_server(1, 8);
    let client = Client::connect(server.addr()).expect("connect");
    let payload = "x".repeat(300);
    let n = tilt_server::INITIAL_CREDIT as usize;
    let report = client
        .ingest((0..n).map(|i| {
            KeyedEvent::new(i as u64, 0, Event::point(Time::new(1), Value::str(&payload)))
        }))
        .expect("a credit window of large events is delivered");
    assert_eq!(report.events, n);
    assert!(report.frames >= 2, "split by bytes, got {} frame(s)", report.frames);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("events_in"), Some(n as i64), "every event arrived");
    assert_eq!(stats.get("decode_errors"), Some(0));
    // A single event no frame can hold is refused before anything is sent.
    let huge = Value::str(&"x".repeat(MAX_FRAME_LEN as usize));
    assert!(client.ingest([KeyedEvent::new(0, 0, Event::point(Time::new(1), huge))]).is_err());
    assert_eq!(client.stats().expect("connection survives").get("events_in"), Some(n as i64));
    server.stop();
}

/// Shard backpressure reaches the remote producer. One shard with the
/// smallest legal queue (two messages of 256 events) serves an every-tick
/// window over 64-tick events, so each event it accepts becomes 64 ticks
/// of output for the subscriber; the producer sends a credit window of
/// 4096 events — 16 messages — per frame. The shard cannot keep up, the
/// server answers `Busy` instead of `Credit`, and both sides count it:
/// `busy` in the producer's report, `credit_stalls` on the server. Nothing
/// is lost or misread on the way: conservation is exact and no frame fails
/// to decode.
#[test]
fn a_starved_shard_pushes_back_on_the_remote_producer() {
    const LEN: i64 = 64;
    let events: Vec<KeyedEvent> = (0..8_192i64)
        .map(|i| {
            let t = Time::new(i * LEN);
            let v = Value::Float((i % 16) as f64 * 0.25);
            KeyedEvent::new((i % 4) as u64, 0, Event::new(t, t + LEN, v))
        })
        .collect();
    let config = RuntimeConfig {
        shards: 1,
        allowed_lateness: 0,
        emit_interval: 1,
        channel_capacity: 512,
        ingest_batch: 256,
        start: Time::ZERO,
        ..RuntimeConfig::default()
    };
    let server = Server::start(config, vec![("w".into(), window_query(128, 0))]).expect("starts");
    let producer = Client::connect(server.addr()).expect("producer connects");
    let q = producer.attach("w", None, None).expect("attach");
    let consumer = Client::connect(server.addr()).expect("consumer connects");
    let sub = consumer.subscribe(q).expect("subscribe");
    let reader = std::thread::spawn(move || sub.collect_per_key());

    let report = producer.ingest(events).expect("ingest");
    producer.shutdown(None).expect("shutdown");
    let output = reader.join().expect("subscriber thread");
    let stats = producer.stats().expect("final stats");
    server.stop();

    assert_eq!(output.len(), 4, "every key's output reached the subscriber");
    assert!(report.busy > 0, "no Busy reply in {} frames", report.frames);
    assert!(stats.get("credit_stalls").unwrap_or(0) > 0, "server counted no credit stall");
    assert_eq!(stats.get("decode_errors"), Some(0));
    assert_eq!(stats.get("conservation_balance"), Some(0));
    assert_eq!(stats.get("events_in"), Some(report.events as i64), "every event arrived");
    assert!(stats.get("bytes_in").unwrap_or(0) > 0 && stats.get("bytes_out").unwrap_or(0) > 0);
}

// ───────────────────────── fan-out and teardown ────────────────────────

#[test]
fn two_subscribers_receive_identical_streams() {
    let server = test_server(2, 8);
    let producer = Client::connect(server.addr()).expect("producer connects");
    let q = producer.attach("w", None, None).expect("attach");
    let consumer_a = Client::connect(server.addr()).expect("consumer a connects");
    let consumer_b = Client::connect(server.addr()).expect("consumer b connects");
    let sub_a = consumer_a.subscribe(q).expect("subscribe a");
    let sub_b = consumer_b.subscribe(q).expect("subscribe b");
    let arrivals: Vec<KeyedEvent> = (0..200)
        .map(|i| {
            KeyedEvent::new(i % 5, 0, Event::point(Time::new(i as i64 + 1), Value::Float(1.0)))
        })
        .collect();
    producer.ingest(arrivals).expect("ingest");
    producer.shutdown(Some(Time::new(256))).expect("shutdown");
    let a = sub_a.collect_per_key();
    let b = sub_b.collect_per_key();
    assert!(!a.is_empty(), "subscribers saw output");
    assert_identical(&a, &b, "fan-out");
    // The journal recorded the network control plane.
    let journal = producer.journal_text().expect("journal");
    assert!(journal.contains("connect"), "journal records connects: {journal}");
    assert!(journal.contains("subscribe"), "journal records subscribes: {journal}");
    server.stop();
}

/// The YSB shape: a tumbling count of `window` ticks over the matching ads.
fn tumbling_count_query(window: i64) -> Arc<CompiledQuery> {
    let mut b = Query::builder();
    let x = b.input("ads", DataType::Int);
    let views = b.temporal(
        "views",
        TDom::every_tick(),
        Expr::if_else(Expr::at(x).eq(Expr::c(0i64)), Expr::at(x), Expr::null()),
    );
    let counts = b.temporal(
        "counts",
        TDom::unbounded(window),
        Expr::reduce_window(ReduceOp::Count, views, window),
    );
    let q = b.finish(counts).unwrap();
    Arc::new(Compiler::new().compile(&q).unwrap())
}

#[test]
fn subscriber_gets_window_e_once_ingest_through_start_e_is_acknowledged() {
    // Release timing through the socket: the events that carry every
    // shard's watermark to `e` are in once `ingest` returns (each frame is
    // acknowledged), and then every campaign's frame for the window ending
    // at `e` must reach the subscriber with nothing further sent. The
    // subscriber is a raw socket so a held window fails on the read timeout
    // instead of hanging; the timeout plays no part in a passing run.
    let (window, campaigns) = (10i64, 4u64);
    for lateness in [0i64, 3] {
        let config = RuntimeConfig {
            shards: 2,
            allowed_lateness: lateness,
            emit_interval: window,
            ..RuntimeConfig::default()
        };
        let server = Server::start(config, vec![("ysb".into(), tumbling_count_query(window))])
            .expect("server starts");
        let producer = Client::connect(server.addr()).expect("producer connects");
        let q = producer.attach("ysb", None, None).expect("attach");
        let mut sub = greeted(server.addr());
        sub.set_read_timeout(Some(std::time::Duration::from_secs(20))).expect("read timeout");
        sub.write_all(&encode_frame(&Message::Subscribe { query: q.id() })).expect("subscribe");
        let (reply, _) = read_message(&mut sub).expect("subscribe reply");
        assert_eq!(reply, Message::Ok);

        let mut next_start = 0i64;
        for e in [window, 2 * window, 5 * window] {
            // One event per campaign per tick, through the start that puts
            // the watermark (newest start − lateness) at `e`.
            let batch: Vec<KeyedEvent> = (next_start..=e + lateness)
                .flat_map(|t| {
                    (0..campaigns).map(move |k| {
                        KeyedEvent::new(
                            k,
                            0,
                            Event::new(Time::new(t), Time::new(t + 1), Value::Int(0)),
                        )
                    })
                })
                .collect();
            next_start = e + lateness + 1;
            producer.ingest(batch).expect("ingest acknowledged");

            let mut waiting: std::collections::HashSet<u64> = (0..campaigns).collect();
            while !waiting.is_empty() {
                let (msg, _) = read_message(&mut sub).unwrap_or_else(|err| {
                    panic!(
                        "lateness {lateness}: window {e} of campaigns {waiting:?} was not \
                         released by the ingest that carried the watermark to it: {err:?}"
                    )
                });
                let Message::OutputSeq { key, events, .. } = msg else {
                    panic!("unexpected frame on a subscription: {msg:?}")
                };
                let newest = events.iter().map(|ev| ev.end.ticks()).max().unwrap_or(0);
                assert!(newest <= e, "window {newest} left before the watermark reached it");
                if newest == e {
                    waiting.remove(&key);
                }
            }
        }
        producer.shutdown(None).expect("shutdown");
        server.stop();
    }
}

#[test]
fn detach_ends_subscriptions_with_eos() {
    let server = test_server(1, 4);
    let client = Client::connect(server.addr()).expect("connect");
    let q = client.attach("w", None, None).expect("attach");
    let sub = client.subscribe(q).expect("subscribe");
    client
        .ingest(vec![KeyedEvent::new(3, 0, Event::point(Time::new(2), Value::Float(2.0)))])
        .expect("ingest");
    client.detach(q).expect("detach");
    // The subscription terminates (Eos) rather than hanging.
    let _ = sub.collect_per_key();
    client.shutdown(None).expect("shutdown");
    server.stop();
}
