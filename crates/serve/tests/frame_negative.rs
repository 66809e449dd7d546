//! Negative-path tests for the bounded wire framing (ISSUE 7, satellite 1):
//! oversized frames, garbage bytes, non-JSON lines and truncated frames
//! must produce typed errors and bounded memory — never a pinned
//! connection thread, never a wedged daemon.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use fewner_core::ServeOptions;
use fewner_serve::{Client, Server, ServerConfig};
use fewner_util::Json;

use common::with_server;

fn tiny_server(cfg: ServerConfig) -> Server {
    let (learner, enc, _tasks) = common::tiny();
    Server::new(learner, enc, ServeOptions::new(), cfg).unwrap()
}

/// Writes `bytes` raw and reads back one response line.
fn raw_round_trip(addr: &str, bytes: &[u8]) -> (TcpStream, BufReader<TcpStream>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    (stream, reader, line)
}

#[test]
fn oversized_frame_gets_a_typed_error_and_the_connection_closes() {
    // 1 KiB cap (the enforced floor); send a 5 KiB line.
    let server = tiny_server(ServerConfig::new().max_frame_bytes(1 << 10));
    with_server(&server, |addr| {
        let mut huge = vec![b'x'; 5 << 10];
        huge.push(b'\n');
        let (_stream, mut reader, line) = raw_round_trip(addr, &huge);
        let resp = Json::parse(line.trim()).expect("error response is valid JSON");
        assert!(!resp.field("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            resp.field("error").unwrap().as_str().unwrap(),
            "frame_too_large"
        );
        // After an oversized frame the server closes the connection: the
        // stream is not trustworthy mid-frame.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);

        // The daemon itself is unharmed: a fresh connection works.
        Client::connect(addr).unwrap().ping().unwrap();
    });
    assert!(
        server.cache().stats().misses == 0,
        "no adapt work was triggered by garbage"
    );
}

#[test]
fn non_utf8_bytes_get_bad_request_and_the_connection_survives() {
    let server = tiny_server(ServerConfig::new());
    with_server(&server, |addr| {
        let (mut stream, mut reader, line) = raw_round_trip(addr, b"\xff\xfe\x80 garbage\n");
        let resp = Json::parse(line.trim()).expect("valid JSON error");
        assert_eq!(
            resp.field("error").unwrap().as_str().unwrap(),
            "bad_request"
        );

        // Same connection, valid request: still served.
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        let resp = Json::parse(pong.trim()).unwrap();
        assert!(resp.field("ok").unwrap().as_bool().unwrap());
    });
}

#[test]
fn non_json_line_gets_bad_request() {
    let server = tiny_server(ServerConfig::new());
    with_server(&server, |addr| {
        let (_stream, _reader, line) = raw_round_trip(addr, b"this is not json\n");
        let resp = Json::parse(line.trim()).expect("valid JSON error");
        assert!(!resp.field("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            resp.field("error").unwrap().as_str().unwrap(),
            "bad_request"
        );
    });
}

#[test]
fn truncated_frame_closes_cleanly_and_the_server_keeps_serving() {
    let server = tiny_server(ServerConfig::new());
    with_server(&server, |addr| {
        // A client that dies mid-line: partial frame, no newline, then EOF.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"{\"op\":\"pi").expect("partial send");
            stream.flush().ok();
            // Dropping the stream closes it mid-frame.
        }
        // Other clients are unaffected, before and after the dead peer's
        // connection thread notices the EOF.
        Client::connect(addr).unwrap().ping().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        Client::connect(addr).unwrap().ping().unwrap();
    });
}

#[test]
fn many_oversized_frames_do_not_exhaust_the_daemon() {
    // A small herd of abusive clients, each sending an oversized frame:
    // every one gets the typed error, and the daemon stays healthy. This is
    // the "slow or malicious client cannot pin a connection thread" claim
    // exercised at the memory level — 16 clients × 1 MiB declared would be
    // unbounded growth without the cap.
    let server = Arc::new(tiny_server(ServerConfig::new().max_frame_bytes(1 << 10)));
    with_server(&server, |addr| {
        std::thread::scope(|s| {
            for _ in 0..16 {
                let addr = addr.to_string();
                s.spawn(move || {
                    let mut huge = vec![b'a'; 64 << 10];
                    huge.push(b'\n');
                    let (_stream, _reader, line) = raw_round_trip(&addr, &huge);
                    let resp = Json::parse(line.trim()).expect("valid JSON error");
                    assert_eq!(
                        resp.field("error").unwrap().as_str().unwrap(),
                        "frame_too_large"
                    );
                });
            }
        });
        Client::connect(addr).unwrap().ping().unwrap();
    });
}
