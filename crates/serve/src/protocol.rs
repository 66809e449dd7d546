//! The serving wire protocol: newline-delimited JSON.
//!
//! One request object per line, one response object per line, over a plain
//! TCP stream — trivially scriptable (`nc`, any language's socket + JSON)
//! and requiring nothing beyond the in-tree [`fewner_util::Json`]. Tags
//! travel in their textual form (`O`, `B-0`, `I-3`; see
//! [`fewner_text::Tag::parse`]).
//!
//! ```text
//! → {"op":"adapt","tenant":"acme","task":"triage","ways":2,
//!    "support":[{"tokens":["flu","shot"],"tags":["B-0","O"]}]}
//! ← {"ok":true,"op":"adapt","source":"cold"}
//! → {"op":"predict","tenant":"acme","task":"triage",
//!    "sentences":[["flu","season"]]}
//! ← {"ok":true,"op":"predict","tags":[["B-0","O"]]}
//! → {"op":"extend","tenant":"acme","task":"triage","ways":2,
//!    "support":[{"tokens":["booster"],"tags":["B-1"]}]}
//! ← {"ok":true,"op":"extend","revision":2,"source":"extended"}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","counters":{"hits":1,...}}
//! ← {"ok":false,"error":"overloaded","message":"...","queue_depth":64,"limit":64}
//! ```
//!
//! `predict` may carry an inline `ways` + `support` to adapt-on-miss in one
//! round trip; without them, an unknown `(tenant, task)` is an
//! `unknown_task` error.
//!
//! Three optional request fields support the resilience layer: a
//! `deadline_ms` budget (enforced server-side at every checkpoint), a
//! client-chosen `id` echoed verbatim on the response (so a retrying client
//! can discard a stale reply after a timeout), and an `attempt` counter
//! (`0` = first try) that lets the server count retried requests. Frames
//! are **bounded**: [`read_frame`] caps how many bytes a line may occupy
//! before its newline arrives, so a slow or malicious client can never pin
//! a connection thread behind an unbounded buffer.

use std::io::BufRead;

use fewner_text::Tag;
use fewner_util::{Error, Json, Result};

/// Default cap on one NDJSON frame (1 MiB — far above any sane request,
/// far below memory exhaustion).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Outcome of one bounded frame read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRead {
    /// One complete line (newline stripped, may be empty).
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary: the peer closed after a full line.
    Eof,
    /// EOF mid-frame: the peer died partway through a line.
    Truncated,
    /// The frame exceeded `max` bytes before its newline arrived; carries
    /// the byte count observed. The stream is no longer at a frame
    /// boundary, so the connection should be closed after reporting.
    TooLarge(usize),
}

/// Reads one newline-terminated frame from `reader`, buffering partial
/// bytes in `buf` (so a read timeout — `WouldBlock`/`TimedOut`, propagated
/// as the `Err` — can be retried without losing the prefix). The frame is
/// abandoned as [`FrameRead::TooLarge`] the moment more than `max` bytes
/// arrive without a newline: memory stays bounded no matter what the peer
/// sends.
pub fn read_frame(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<FrameRead> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                FrameRead::Eof
            } else {
                FrameRead::Truncated
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let total = buf.len() + pos;
                if total > max {
                    reader.consume(pos + 1);
                    buf.clear();
                    return Ok(FrameRead::TooLarge(total));
                }
                buf.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                return Ok(FrameRead::Frame(std::mem::take(buf)));
            }
            None => {
                let n = available.len();
                if buf.len() + n > max {
                    reader.consume(n);
                    let seen = buf.len() + n;
                    buf.clear();
                    return Ok(FrameRead::TooLarge(seen));
                }
                buf.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

/// One labelled support sentence as it arrives over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportSentence {
    /// Whitespace-split tokens.
    pub tokens: Vec<String>,
    /// One BIO tag per token.
    pub tags: Vec<Tag>,
}

impl SupportSentence {
    fn from_json(json: &Json) -> Result<SupportSentence> {
        let tokens = str_list(json.field("tokens")?)?;
        let tags = json
            .field("tags")?
            .as_arr()?
            .iter()
            .map(|t| Tag::parse(t.as_str()?))
            .collect::<Result<Vec<Tag>>>()?;
        if tokens.len() != tags.len() {
            return Err(Error::InvalidConfig(format!(
                "support sentence has {} tokens but {} tags",
                tokens.len(),
                tags.len()
            )));
        }
        if tokens.is_empty() {
            return Err(Error::InvalidConfig("empty support sentence".into()));
        }
        Ok(SupportSentence { tokens, tags })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("tokens".into(), str_arr(&self.tokens)),
            (
                "tags".into(),
                Json::Arr(self.tags.iter().map(|t| Json::Str(tag_name(t))).collect()),
            ),
        ])
    }
}

fn tag_name(tag: &Tag) -> String {
    match tag {
        Tag::O => "O".to_string(),
        Tag::B(s) => format!("B-{s}"),
        Tag::I(s) => format!("I-{s}"),
    }
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn str_list(json: &Json) -> Result<Vec<String>> {
    json.as_arr()?
        .iter()
        .map(|t| Ok(t.as_str()?.to_string()))
        .collect()
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Adapt (or warm) the φ for `(tenant, task)` from a support set.
    Adapt {
        /// Namespace for task ids.
        tenant: String,
        /// Task id within the tenant.
        task: String,
        /// Way count; fixes the tag inventory.
        ways: usize,
        /// Labelled support sentences.
        support: Vec<SupportSentence>,
        /// Optional time budget in milliseconds, enforced server-side.
        deadline_ms: Option<u64>,
    },
    /// Grow an existing adapted context with additional support sentences
    /// (incremental online adaptation): a few warm-started inner steps over
    /// the merged support instead of a full re-adapt.
    Extend {
        /// Namespace for task ids.
        tenant: String,
        /// Task id within the tenant.
        task: String,
        /// Way count; must match the existing context.
        ways: usize,
        /// Newly arrived labelled support sentences.
        support: Vec<SupportSentence>,
        /// Optional time budget in milliseconds, enforced server-side.
        deadline_ms: Option<u64>,
    },
    /// Decode query sentences under the task's adapted φ.
    Predict {
        /// Namespace for task ids.
        tenant: String,
        /// Task id within the tenant.
        task: String,
        /// Query sentences, as token lists.
        sentences: Vec<Vec<String>>,
        /// Optional inline way count (required with `support`).
        ways: Option<usize>,
        /// Optional inline support set for adapt-on-miss.
        support: Option<Vec<SupportSentence>>,
        /// Optional time budget in milliseconds, enforced server-side.
        deadline_ms: Option<u64>,
    },
    /// Counter snapshot (cache + queue).
    Stats,
    /// Liveness probe.
    Ping,
    /// Orderly shutdown: drain queued work, stop accepting.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn from_json(json: &Json) -> Result<Request> {
        let op = json.field("op")?.as_str()?;
        match op {
            "adapt" => Ok(Request::Adapt {
                tenant: json.field("tenant")?.as_str()?.to_string(),
                task: json.field("task")?.as_str()?.to_string(),
                ways: json.field("ways")?.as_usize()?,
                support: support_list(json.field("support")?)?,
                deadline_ms: match json.get("deadline_ms") {
                    Some(d) => Some(d.as_u64()?),
                    None => None,
                },
            }),
            "extend" => Ok(Request::Extend {
                tenant: json.field("tenant")?.as_str()?.to_string(),
                task: json.field("task")?.as_str()?.to_string(),
                ways: json.field("ways")?.as_usize()?,
                support: support_list(json.field("support")?)?,
                deadline_ms: match json.get("deadline_ms") {
                    Some(d) => Some(d.as_u64()?),
                    None => None,
                },
            }),
            "predict" => Ok(Request::Predict {
                tenant: json.field("tenant")?.as_str()?.to_string(),
                task: json.field("task")?.as_str()?.to_string(),
                sentences: json
                    .field("sentences")?
                    .as_arr()?
                    .iter()
                    .map(str_list)
                    .collect::<Result<Vec<_>>>()?,
                ways: match json.get("ways") {
                    Some(w) => Some(w.as_usize()?),
                    None => None,
                },
                support: match json.get("support") {
                    Some(s) => Some(support_list(s)?),
                    None => None,
                },
                deadline_ms: match json.get("deadline_ms") {
                    Some(d) => Some(d.as_u64()?),
                    None => None,
                },
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Error::InvalidConfig(format!("unknown op `{other}`"))),
        }
    }

    /// Serialises to one line's worth of JSON.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Adapt {
                tenant,
                task,
                ways,
                support,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), Json::from("adapt")),
                    ("tenant".into(), Json::Str(tenant.clone())),
                    ("task".into(), Json::Str(task.clone())),
                    ("ways".into(), Json::from(*ways)),
                    (
                        "support".into(),
                        Json::Arr(support.iter().map(SupportSentence::to_json).collect()),
                    ),
                ];
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::from(*d)));
                }
                Json::Obj(fields)
            }
            Request::Extend {
                tenant,
                task,
                ways,
                support,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), Json::from("extend")),
                    ("tenant".into(), Json::Str(tenant.clone())),
                    ("task".into(), Json::Str(task.clone())),
                    ("ways".into(), Json::from(*ways)),
                    (
                        "support".into(),
                        Json::Arr(support.iter().map(SupportSentence::to_json).collect()),
                    ),
                ];
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::from(*d)));
                }
                Json::Obj(fields)
            }
            Request::Predict {
                tenant,
                task,
                sentences,
                ways,
                support,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), Json::from("predict")),
                    ("tenant".into(), Json::Str(tenant.clone())),
                    ("task".into(), Json::Str(task.clone())),
                    (
                        "sentences".into(),
                        Json::Arr(sentences.iter().map(|s| str_arr(s)).collect()),
                    ),
                ];
                if let Some(w) = ways {
                    fields.push(("ways".into(), Json::from(*w)));
                }
                if let Some(s) = support {
                    fields.push((
                        "support".into(),
                        Json::Arr(s.iter().map(SupportSentence::to_json).collect()),
                    ));
                }
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::from(*d)));
                }
                Json::Obj(fields)
            }
            Request::Stats => Json::Obj(vec![("op".into(), Json::from("stats"))]),
            Request::Ping => Json::Obj(vec![("op".into(), Json::from("ping"))]),
            Request::Shutdown => Json::Obj(vec![("op".into(), Json::from("shutdown"))]),
        }
    }
}

fn support_list(json: &Json) -> Result<Vec<SupportSentence>> {
    let list = json
        .as_arr()?
        .iter()
        .map(SupportSentence::from_json)
        .collect::<Result<Vec<_>>>()?;
    if list.is_empty() {
        return Err(Error::InvalidConfig("empty support set".into()));
    }
    Ok(list)
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The task's φ is ready; `source` is `hot`, `warm` or `cold`.
    Adapted {
        /// Where the context came from (cache / disk / fresh inner loop).
        source: String,
    },
    /// The task's φ was grown in place. `revision` is the context's new
    /// revision counter; `source` is `extended` (warm-started incremental
    /// steps) or `cold` (the key was unknown, so a full adapt ran over the
    /// new support alone).
    Extended {
        /// Monotonic per-context revision after this operation.
        revision: u32,
        /// How the context was produced (`extended` / `cold`).
        source: String,
    },
    /// One tag sequence per query sentence, in textual form.
    Predictions {
        /// Predicted tags, outer = sentence, inner = token.
        tags: Vec<Vec<String>>,
    },
    /// Counter snapshot, sorted by name.
    Stats {
        /// `(name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
    /// Liveness reply.
    Pong,
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
    /// The request failed. `kind` is `overloaded`, `bad_request`,
    /// `unknown_task`, `deadline_exceeded`, `frame_too_large` or
    /// `internal`.
    Error {
        /// Machine-readable failure class.
        kind: String,
        /// Human-readable detail.
        message: String,
        /// Queue depth at admission (only for `overloaded`).
        queue_depth: u64,
        /// Admission limit (only for `overloaded`).
        limit: u64,
        /// The request's time budget (only for `deadline_exceeded`).
        budget_ms: u64,
    },
}

impl Response {
    /// Classifies a library error for the wire. Load shedding and deadline
    /// expiry keep their numbers so clients can log real backpressure and
    /// size retry budgets; caller mistakes map to `bad_request`; everything
    /// else is `internal`.
    pub fn from_error(e: &Error) -> Response {
        let (kind, queue_depth, limit, budget_ms) = match e {
            Error::Overloaded { queue_depth, limit } => {
                ("overloaded", *queue_depth as u64, *limit as u64, 0)
            }
            Error::DeadlineExceeded { budget_ms, .. } => ("deadline_exceeded", 0, 0, *budget_ms),
            Error::FrameTooLarge { .. } => ("frame_too_large", 0, 0, 0),
            Error::InvalidConfig(_) | Error::InvalidTagSequence(_) | Error::Serde(_) => {
                ("bad_request", 0, 0, 0)
            }
            _ => ("internal", 0, 0, 0),
        };
        Response::Error {
            kind: kind.to_string(),
            message: e.to_string(),
            queue_depth,
            limit,
            budget_ms,
        }
    }

    /// The `unknown_task` error: no cached, persisted or inline support for
    /// the key.
    pub fn unknown_task(tenant: &str, task: &str) -> Response {
        Response::Error {
            kind: "unknown_task".to_string(),
            message: format!(
                "no adapted context for `{tenant}/{task}`; send an adapt request \
                 or inline `ways` + `support`"
            ),
            queue_depth: 0,
            limit: 0,
            budget_ms: 0,
        }
    }

    /// Reconstructs a library error from an error response (client side).
    /// `overloaded` and `deadline_exceeded` come back typed — they are the
    /// retryable classes a client must be able to match on.
    pub fn to_error(&self) -> Option<Error> {
        match self {
            Response::Error {
                kind,
                message,
                queue_depth,
                limit,
                budget_ms,
            } => Some(match kind.as_str() {
                "overloaded" => Error::Overloaded {
                    queue_depth: *queue_depth as usize,
                    limit: *limit as usize,
                },
                "deadline_exceeded" => Error::DeadlineExceeded {
                    budget_ms: *budget_ms,
                    stage: "server".into(),
                },
                _ => Error::InvalidConfig(format!("server error ({kind}): {message}")),
            }),
            _ => None,
        }
    }

    /// Serialises to one line's worth of JSON.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Adapted { source } => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::from("adapt")),
                ("source".into(), Json::Str(source.clone())),
            ]),
            Response::Extended { revision, source } => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::from("extend")),
                ("revision".into(), Json::from(*revision as u64)),
                ("source".into(), Json::Str(source.clone())),
            ]),
            Response::Predictions { tags } => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::from("predict")),
                (
                    "tags".into(),
                    Json::Arr(tags.iter().map(|s| str_arr(s)).collect()),
                ),
            ]),
            Response::Stats { counters } => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::from("stats")),
                (
                    "counters".into(),
                    Json::Obj(
                        counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::from(*v)))
                            .collect(),
                    ),
                ),
            ]),
            Response::Pong => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::from("ping")),
            ]),
            Response::ShuttingDown => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::from("shutdown")),
            ]),
            Response::Error {
                kind,
                message,
                queue_depth,
                limit,
                budget_ms,
            } => {
                let mut fields = vec![
                    ("ok".into(), Json::Bool(false)),
                    ("error".into(), Json::Str(kind.clone())),
                    ("message".into(), Json::Str(message.clone())),
                ];
                if kind == "overloaded" {
                    fields.push(("queue_depth".into(), Json::from(*queue_depth)));
                    fields.push(("limit".into(), Json::from(*limit)));
                }
                if kind == "deadline_exceeded" {
                    fields.push(("budget_ms".into(), Json::from(*budget_ms)));
                }
                Json::Obj(fields)
            }
        }
    }

    /// Parses one response line (client side).
    pub fn from_json(json: &Json) -> Result<Response> {
        if !json.field("ok")?.as_bool()? {
            return Ok(Response::Error {
                kind: json.field("error")?.as_str()?.to_string(),
                message: json.field("message")?.as_str()?.to_string(),
                queue_depth: json.get("queue_depth").map_or(Ok(0), Json::as_u64)?,
                limit: json.get("limit").map_or(Ok(0), Json::as_u64)?,
                budget_ms: json.get("budget_ms").map_or(Ok(0), Json::as_u64)?,
            });
        }
        match json.field("op")?.as_str()? {
            "adapt" => Ok(Response::Adapted {
                source: json.field("source")?.as_str()?.to_string(),
            }),
            "extend" => Ok(Response::Extended {
                revision: json.field("revision")?.as_u32()?,
                source: json.field("source")?.as_str()?.to_string(),
            }),
            "predict" => Ok(Response::Predictions {
                tags: json
                    .field("tags")?
                    .as_arr()?
                    .iter()
                    .map(str_list)
                    .collect::<Result<Vec<_>>>()?,
            }),
            "stats" => {
                let obj = match json.field("counters")? {
                    Json::Obj(fields) => fields,
                    _ => return Err(Error::Serde("stats counters must be an object".into())),
                };
                Ok(Response::Stats {
                    counters: obj
                        .iter()
                        .map(|(k, v)| Ok((k.clone(), v.as_u64()?)))
                        .collect::<Result<Vec<_>>>()?,
                })
            }
            "ping" => Ok(Response::Pong),
            "shutdown" => Ok(Response::ShuttingDown),
            other => Err(Error::Serde(format!("unknown response op `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let line = req.to_json().to_string();
        assert!(!line.contains('\n'), "wire format is one line");
        let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(&back, req);
    }

    fn round_trip_response(resp: &Response) {
        let line = resp.to_json().to_string();
        assert!(!line.contains('\n'));
        let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(&back, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Ping);
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Shutdown);
        round_trip_request(&Request::Adapt {
            tenant: "acme".into(),
            task: "triage".into(),
            ways: 2,
            support: vec![SupportSentence {
                tokens: vec!["flu".into(), "shot".into()],
                tags: vec![Tag::B(0), Tag::O],
            }],
            deadline_ms: Some(250),
        });
        round_trip_request(&Request::Extend {
            tenant: "acme".into(),
            task: "triage".into(),
            ways: 2,
            support: vec![SupportSentence {
                tokens: vec!["booster".into()],
                tags: vec![Tag::B(1)],
            }],
            deadline_ms: None,
        });
        round_trip_request(&Request::Predict {
            tenant: "acme".into(),
            task: "triage".into(),
            sentences: vec![vec!["flu".into(), "season".into()]],
            ways: None,
            support: None,
            deadline_ms: None,
        });
        round_trip_request(&Request::Predict {
            tenant: "acme".into(),
            task: "triage".into(),
            sentences: vec![vec!["x".into()]],
            ways: Some(3),
            support: Some(vec![SupportSentence {
                tokens: vec!["x".into()],
                tags: vec![Tag::I(2)],
            }]),
            deadline_ms: Some(1_000),
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Pong);
        round_trip_response(&Response::ShuttingDown);
        round_trip_response(&Response::Adapted {
            source: "warm".into(),
        });
        round_trip_response(&Response::Extended {
            revision: 3,
            source: "extended".into(),
        });
        round_trip_response(&Response::Predictions {
            tags: vec![vec!["O".into(), "B-1".into()]],
        });
        round_trip_response(&Response::Stats {
            counters: vec![("hits".into(), 3), ("misses".into(), 1)],
        });
        round_trip_response(&Response::unknown_task("acme", "triage"));
    }

    #[test]
    fn overloaded_error_round_trips_its_numbers() {
        let resp = Response::from_error(&Error::Overloaded {
            queue_depth: 64,
            limit: 64,
        });
        let line = resp.to_json().to_string();
        let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(
            back.to_error(),
            Some(Error::Overloaded {
                queue_depth: 64,
                limit: 64
            })
        );
    }

    #[test]
    fn deadline_error_round_trips_its_budget() {
        let resp = Response::from_error(&Error::DeadlineExceeded {
            budget_ms: 150,
            stage: "queue_wait".into(),
        });
        let line = resp.to_json().to_string();
        let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        match back.to_error() {
            Some(Error::DeadlineExceeded { budget_ms, .. }) => assert_eq!(budget_ms, 150),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn frame_too_large_maps_to_its_own_kind() {
        let resp = Response::from_error(&Error::FrameTooLarge {
            len: 2048,
            limit: 1024,
        });
        match &resp {
            Response::Error { kind, .. } => assert_eq!(kind, "frame_too_large"),
            other => panic!("expected Error, got {other:?}"),
        }
        round_trip_response(&resp);
    }

    #[test]
    fn read_frame_splits_lines_and_reports_eof() {
        let mut reader = std::io::Cursor::new(b"alpha\nbeta\n".to_vec());
        let mut buf = Vec::new();
        let max = 64;
        assert_eq!(
            read_frame(&mut reader, &mut buf, max).unwrap(),
            FrameRead::Frame(b"alpha".to_vec())
        );
        assert_eq!(
            read_frame(&mut reader, &mut buf, max).unwrap(),
            FrameRead::Frame(b"beta".to_vec())
        );
        assert_eq!(
            read_frame(&mut reader, &mut buf, max).unwrap(),
            FrameRead::Eof
        );
    }

    #[test]
    fn read_frame_reports_truncation_mid_line() {
        let mut reader = std::io::Cursor::new(b"no newline here".to_vec());
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut reader, &mut buf, 64).unwrap(),
            FrameRead::Truncated
        );
    }

    #[test]
    fn read_frame_caps_oversized_frames() {
        // 100 bytes without a newline against a 16-byte cap: memory must stay
        // bounded and the reader must report how much it saw.
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut reader = std::io::Cursor::new(data);
        let mut buf = Vec::new();
        match read_frame(&mut reader, &mut buf, 16).unwrap() {
            FrameRead::TooLarge(seen) => assert!(seen > 16, "seen {seen} must exceed cap"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(buf.is_empty(), "oversized prefix must be discarded");
    }

    /// A revision past `u32::MAX` is refused, not wrapped: 2³²+1 would
    /// otherwise read as revision 1.
    #[test]
    fn an_out_of_range_revision_is_refused() {
        let line = r#"{"ok":true,"op":"extend","revision":4294967297,"source":"extended"}"#;
        let err = Response::from_json(&Json::parse(line).unwrap()).unwrap_err();
        assert!(matches!(err, Error::Serde(_)), "{err}");
    }

    #[test]
    fn malformed_support_is_rejected() {
        let bad = r#"{"op":"adapt","tenant":"t","task":"k","ways":2,
                      "support":[{"tokens":["a","b"],"tags":["O"]}]}"#;
        assert!(Request::from_json(&Json::parse(bad).unwrap()).is_err());
        let bad_tag = r#"{"op":"adapt","tenant":"t","task":"k","ways":2,
                          "support":[{"tokens":["a"],"tags":["Q-9"]}]}"#;
        assert!(Request::from_json(&Json::parse(bad_tag).unwrap()).is_err());
        let empty = r#"{"op":"adapt","tenant":"t","task":"k","ways":2,"support":[]}"#;
        assert!(Request::from_json(&Json::parse(empty).unwrap()).is_err());
    }
}
