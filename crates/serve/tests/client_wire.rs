//! The request lines `Client` writes, pinned byte for byte against a
//! scripted stand-in for the daemon.
//!
//! A `Client::connect` client sends each request exactly as
//! `Request::to_json` serialises it: no `id`, no `attempt`, no
//! `deadline_ms`. A `Client::with_policy` client adds the envelope: an `id`
//! the daemon echoes (a reply with another id is refused and retried), an
//! `attempt` counter on every retry, and the policy's `deadline_ms` on
//! adapt, extend and predict. The typed ops are the same code either way;
//! only the envelope differs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

use fewner_serve::{Client, Response, RetryPolicy, RetryStats, SupportSentence};
use fewner_text::Tag;
use fewner_util::{Error, Json};

/// How the scripted daemon answers one request line.
enum Reply {
    /// The op's canned success reply, echoing the request's `id` if any.
    Ok,
    /// Close the connection without replying.
    Drop,
    /// An `overloaded` error reply (retryable).
    Shed,
    /// The success reply under an `id` the client never sent.
    StaleId,
}

/// Canned success reply for a request line's op.
fn canned(request: &Json) -> Response {
    match request.field("op").unwrap().as_str().unwrap() {
        "ping" => Response::Pong,
        "adapt" => Response::Adapted {
            source: "cold".into(),
        },
        "extend" => Response::Extended {
            revision: 2,
            source: "extended".into(),
        },
        "predict" => {
            let sentences = request.field("sentences").unwrap().as_arr().unwrap();
            Response::Predictions {
                tags: sentences
                    .iter()
                    .map(|s| vec!["O".to_string(); s.as_arr().unwrap().len()])
                    .collect(),
            }
        }
        "stats" => Response::Stats {
            counters: vec![("cache_hits".into(), 1)],
        },
        "shutdown" => Response::ShuttingDown,
        op => panic!("unexpected op `{op}`"),
    }
}

/// Serves connections one after another on an ephemeral port until it has
/// answered a `shutdown`, answering line `i` (counted across connections)
/// as `script(i)` says. Returns the address and the recorded lines.
fn scripted_daemon(
    script: impl Fn(usize) -> Reply + Send + 'static,
) -> (String, Arc<Mutex<Vec<String>>>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let recorded = Arc::clone(&lines);
    let daemon = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut writer = stream.unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                let request = Json::parse(line.trim_end()).unwrap();
                let index = {
                    let mut lines = recorded.lock().unwrap();
                    lines.push(line.trim_end().to_string());
                    lines.len() - 1
                };
                line.clear();
                let (reply, echo) = match script(index) {
                    Reply::Drop => break,
                    Reply::Ok => (canned(&request), request.get("id").cloned()),
                    Reply::StaleId => (canned(&request), Some(Json::from("stale"))),
                    Reply::Shed => (
                        Response::from_error(&Error::Overloaded {
                            queue_depth: 4,
                            limit: 4,
                        }),
                        request.get("id").cloned(),
                    ),
                };
                let mut json = reply.to_json();
                if let (Some(id), Json::Obj(fields)) = (echo, &mut json) {
                    fields.push(("id".into(), id));
                }
                writer.write_all(format!("{json}\n").as_bytes()).unwrap();
                if reply == Response::ShuttingDown {
                    return;
                }
            }
        }
    });
    (addr, lines, daemon)
}

fn support() -> Vec<SupportSentence> {
    vec![SupportSentence {
        tokens: vec!["flu".into(), "shot".into()],
        tags: vec![Tag::B(0), Tag::O],
    }]
}

/// Every typed op once, in a fixed order.
fn drive(client: &mut Client) {
    let query = vec![vec!["flu".to_string(), "season".to_string()]];
    client.ping().unwrap();
    assert_eq!(client.adapt("acme", "t", 2, support()).unwrap(), "cold");
    assert_eq!(
        client.extend("acme", "t", 2, support()).unwrap(),
        (2, "extended".to_string())
    );
    assert_eq!(client.predict("acme", "t", &query).unwrap(), [["O", "O"]]);
    assert_eq!(
        client
            .predict_with_support("acme", "u", &query, 2, support())
            .unwrap(),
        [["O", "O"]]
    );
    assert_eq!(client.stats().unwrap(), [("cache_hits".to_string(), 1u64)]);
    client.shutdown().unwrap();
}

const SUPPORT: &str = r#"[{"tokens":["flu","shot"],"tags":["B-0","O"]}]"#;
const QUERY: &str = r#"[["flu","season"]]"#;

#[test]
fn a_connect_client_writes_each_request_without_an_envelope() {
    let (addr, lines, daemon) = scripted_daemon(|_| Reply::Ok);
    let mut client = Client::connect(&addr).unwrap();
    drive(&mut client);
    daemon.join().unwrap();
    assert_eq!(client.retry_stats(), RetryStats::default());
    let expected = [
        r#"{"op":"ping"}"#.to_string(),
        format!(r#"{{"op":"adapt","tenant":"acme","task":"t","ways":2,"support":{SUPPORT}}}"#),
        format!(r#"{{"op":"extend","tenant":"acme","task":"t","ways":2,"support":{SUPPORT}}}"#),
        format!(r#"{{"op":"predict","tenant":"acme","task":"t","sentences":{QUERY}}}"#),
        format!(
            r#"{{"op":"predict","tenant":"acme","task":"u","sentences":{QUERY},"ways":2,"support":{SUPPORT}}}"#
        ),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ];
    assert_eq!(*lines.lock().unwrap(), expected);
}

#[test]
fn a_connect_client_surfaces_errors_without_retrying() {
    let (addr, lines, daemon) = scripted_daemon(|i| match i {
        0 => Reply::Shed,
        _ => Reply::Ok,
    });
    let mut client = Client::connect(&addr).unwrap();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, Error::Overloaded { limit: 4, .. }), "{err}");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert_eq!(
        *lines.lock().unwrap(),
        [r#"{"op":"ping"}"#, r#"{"op":"shutdown"}"#]
    );
    assert_eq!(client.retry_stats(), RetryStats::default());
}

#[test]
fn a_policy_client_adds_ids_attempts_and_the_deadline() {
    // Line 0 is dropped (reconnect), line 2 shed (same connection), line 7
    // answered under a stale id (refused, reconnect); each is retried.
    let (addr, lines, daemon) = scripted_daemon(|i| match i {
        0 => Reply::Drop,
        2 => Reply::Shed,
        7 => Reply::StaleId,
        _ => Reply::Ok,
    });
    let policy = RetryPolicy::new().deadline_ms(250).backoff_ms(1, 1).seed(5);
    let mut client = Client::with_policy(addr, policy);
    drive(&mut client);
    daemon.join().unwrap();
    assert_eq!(
        client.retry_stats(),
        RetryStats {
            retries: 3,
            reconnects: 2,
            deadline_misses: 0,
        }
    );
    let adapt = format!(
        r#"{{"op":"adapt","tenant":"acme","task":"t","ways":2,"support":{SUPPORT},"deadline_ms":250"#
    );
    let expected = [
        r#"{"op":"ping","id":"r0"}"#.to_string(),
        r#"{"op":"ping","id":"r0","attempt":1}"#.to_string(),
        format!(r#"{adapt},"id":"r1"}}"#),
        format!(r#"{adapt},"id":"r1","attempt":1}}"#),
        format!(
            r#"{{"op":"extend","tenant":"acme","task":"t","ways":2,"support":{SUPPORT},"deadline_ms":250,"id":"r2"}}"#
        ),
        format!(
            r#"{{"op":"predict","tenant":"acme","task":"t","sentences":{QUERY},"deadline_ms":250,"id":"r3"}}"#
        ),
        format!(
            r#"{{"op":"predict","tenant":"acme","task":"u","sentences":{QUERY},"ways":2,"support":{SUPPORT},"deadline_ms":250,"id":"r4"}}"#
        ),
        r#"{"op":"stats","id":"r5"}"#.to_string(),
        r#"{"op":"stats","id":"r5","attempt":1}"#.to_string(),
        r#"{"op":"shutdown","id":"r6"}"#.to_string(),
    ];
    assert_eq!(*lines.lock().unwrap(), expected);
}
