//! End-to-end daemon tests over real TCP: protocol round trips, restart
//! warm-start from persisted φ, micro-batching, and overload shedding.

mod common;

use std::time::{Duration, Instant};

use fewner_core::{CachePolicy, ServeOptions};
use fewner_episode::Task;
use fewner_obs::{MemorySink, MonotonicClock, TraceSummary, Tracer};
use fewner_serve::{Client, Request, Response, Server, ServerConfig, SupportSentence};
use fewner_util::fault::{self, FaultPlan};
use fewner_util::Error;

fn wire_support(task: &Task) -> Vec<SupportSentence> {
    task.support
        .iter()
        .map(|s| SupportSentence {
            tokens: s.tokens.clone(),
            tags: s.tags.clone(),
        })
        .collect()
}

fn query_sentences(task: &Task) -> Vec<Vec<String>> {
    task.query.iter().map(|s| s.tokens.clone()).collect()
}

/// [`common::with_server`] under an empty fault plan. Fault plans are
/// process-wide, so every test here holds the plan lock while its daemon
/// runs: the stall the overload test arms can then only fire in its own
/// adapt.
fn with_server<T: Send>(server: &Server, drive: impl FnOnce(&str) -> T + Send) -> T {
    fault::with_plan(FaultPlan::default(), || common::with_server(server, drive))
}

#[test]
fn protocol_round_trip_over_tcp() {
    let (learner, enc, tasks) = common::tiny();
    let task = &tasks[0];
    let server = Server::new(
        learner,
        enc,
        ServeOptions::new(),
        ServerConfig::new().workers(2),
    )
    .unwrap();

    with_server(&server, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();

        // Unknown task without support: typed error, not a hang.
        let err = client.predict("acme", "nope", &[vec!["x".to_string()]]);
        assert!(matches!(err, Err(Error::InvalidConfig(msg)) if msg.contains("unknown_task")));

        // Adapt, then predict over the same connection.
        let source = client
            .adapt("acme", "t0", task.n_ways, wire_support(task))
            .unwrap();
        assert_eq!(source, "cold");
        let preds = client
            .predict("acme", "t0", &query_sentences(task))
            .unwrap();
        assert_eq!(preds.len(), task.query.len());
        for (pred, sent) in preds.iter().zip(&task.query) {
            assert_eq!(pred.len(), sent.tokens.len(), "one tag per token");
            for tag in pred {
                assert!(fewner_text::Tag::parse(tag).is_ok(), "wire tags parse");
            }
        }

        // A second adapt of the same key is a cache hit.
        let source = client
            .adapt("acme", "t0", task.n_ways, wire_support(task))
            .unwrap();
        assert_eq!(source, "hot");

        // Another tenant with the same task id gets its own context.
        let source = client
            .adapt("zeta", "t0", task.n_ways, wire_support(task))
            .unwrap();
        assert_eq!(source, "cold", "tenants must not share φ");

        let stats = client.stats().unwrap();
        let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("cache_hits"), Some(2), "adapt hit + predict hit");
        assert_eq!(get("cache_misses"), Some(2), "two cold adapts");
        assert_eq!(get("resident_contexts"), Some(2));

        // Malformed lines get a typed bad_request, not a dropped connection.
        let resp = client
            .request(&Request::Predict {
                tenant: "acme".into(),
                task: "t0".into(),
                sentences: vec![],
                ways: None,
                support: None,
                deadline_ms: None,
            })
            .unwrap();
        assert!(matches!(resp, Response::Error { ref kind, .. } if kind == "bad_request"));
    });
}

#[test]
fn a_way_count_the_head_does_not_take_is_a_bad_request() {
    // The tiny model's dense head is 2-way; a 1-way support set is within
    // 1..=max_ways but would reach the head's shape assertion.
    let (learner, enc, tasks) = common::tiny();
    let task = &tasks[0];
    let server = Server::new(learner, enc, ServeOptions::new(), ServerConfig::new()).unwrap();
    let one_way = vec![SupportSentence {
        tokens: vec!["x".to_string()],
        tags: vec![fewner_text::Tag::B(0)],
    }];
    fn is_bad_request<T>(r: fewner_util::Result<T>) -> bool {
        matches!(r, Err(Error::InvalidConfig(msg)) if msg.contains("bad_request"))
    }

    with_server(&server, |addr| {
        let mut client = Client::connect(addr).unwrap();
        assert!(is_bad_request(client.adapt(
            "acme",
            "t0",
            1,
            one_way.clone()
        )));
        client.ping().unwrap();
        assert!(is_bad_request(client.extend(
            "acme",
            "t1",
            1,
            one_way.clone()
        )));
        client.ping().unwrap();
        assert!(is_bad_request(client.predict_with_support(
            "acme",
            "t2",
            &query_sentences(task),
            1,
            one_way.clone()
        )));
        client.ping().unwrap();
        // The right way count still adapts on the same connection.
        client
            .adapt("acme", "t0", task.n_ways, wire_support(task))
            .unwrap();
    });
}

#[test]
fn extend_grows_a_served_context_incrementally() {
    let (learner, enc, tasks) = common::tiny();
    let (task, task2) = (&tasks[0], &tasks[1]);
    let sink = MemorySink::new();
    let tracer = Tracer::new(MonotonicClock::new(), sink.clone());
    let server = Server::new(
        learner,
        enc,
        ServeOptions::new().tracer(tracer),
        ServerConfig::new(),
    )
    .unwrap();

    with_server(&server, |addr| {
        let mut client = Client::connect(addr).unwrap();

        // Unknown key: nothing to extend, so the new support alone feeds a
        // full adapt — reported as `cold` at revision 1.
        let (rev, source) = client
            .extend("acme", "t0", task.n_ways, wire_support(task))
            .unwrap();
        assert_eq!((rev, source.as_str()), (1, "cold"));

        // Known key: warm-started incremental steps over the merged
        // support; each extend bumps the revision and supersedes the
        // cached context.
        let (rev, source) = client
            .extend("acme", "t0", task2.n_ways, wire_support(task2))
            .unwrap();
        assert_eq!((rev, source.as_str()), (2, "extended"));
        let (rev, source) = client
            .extend("acme", "t0", task.n_ways, wire_support(task))
            .unwrap();
        assert_eq!((rev, source.as_str()), (3, "extended"));

        // A way count that contradicts the resident context is a typed
        // bad_request, not a silent re-adapt.
        let err = client.extend(
            "acme",
            "t0",
            1,
            vec![SupportSentence {
                tokens: vec!["x".to_string()],
                tags: vec![fewner_text::Tag::O],
            }],
        );
        assert!(
            matches!(err, Err(Error::InvalidConfig(ref msg)) if msg.contains("bad_request")),
            "expected bad_request on a ways mismatch, got {err:?}"
        );

        // Prediction flows through the latest extended revision.
        let preds = client
            .predict("acme", "t0", &query_sentences(task))
            .unwrap();
        assert_eq!(preds.len(), task.query.len());
    });

    let summary = TraceSummary::parse(&sink.text()).unwrap();
    assert!(
        summary.spans.contains_key("serve/adapt_extend"),
        "incremental adaptation is timed separately from cold adapts"
    );
    assert_eq!(
        summary.counters.get("serve/extends").copied().unwrap_or(0),
        2,
        "two warm extends ran ({:?})",
        summary.counters
    );
}

#[test]
fn restart_reuses_persisted_phi_with_identical_predictions() {
    let (learner, enc, tasks) = common::tiny();
    let task = &tasks[0];
    let dir = std::env::temp_dir().join(format!("fewner-e2e-phi-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let policy = CachePolicy::lru(8).persist_dir(&dir);

    // First boot: adapt-on-miss predict persists the φ.
    let server1 = Server::new(
        learner,
        enc,
        ServeOptions::new().cache(policy.clone()),
        ServerConfig::new(),
    )
    .unwrap();
    let first = with_server(&server1, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client
            .predict_with_support(
                "acme",
                "t0",
                &query_sentences(task),
                task.n_ways,
                wire_support(task),
            )
            .unwrap()
    });
    assert_eq!(server1.cache().stats().persists, 1);

    // Second boot over the same directory: NO support is sent, yet the
    // predict succeeds (warm reload) and the predictions are identical —
    // the persisted φ round-tripped bitwise. Fewner init is seed-driven,
    // so rebuilding the fixture reproduces the exact same frozen θ.
    let (learner2, enc2, _) = common::tiny();
    let server2 = Server::new(
        learner2,
        enc2,
        ServeOptions::new().cache(policy),
        ServerConfig::new(),
    )
    .unwrap();
    let second = with_server(&server2, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client
            .predict("acme", "t0", &query_sentences(task))
            .unwrap()
    });
    assert_eq!(first, second, "restart must not change predictions");
    let stats = server2.cache().stats();
    assert_eq!(stats.reloads, 1, "the context came from disk");
    assert_eq!(stats.misses, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_typed_error_and_batching_merges_queued_work() {
    let (learner, enc, tasks) = common::tiny();
    let task = &tasks[0];
    let sink = MemorySink::new();
    let tracer = Tracer::new(MonotonicClock::new(), sink.clone());
    let server = Server::new(
        learner,
        enc,
        ServeOptions::new().tracer(tracer).batch(64),
        ServerConfig::new().workers(1).queue_limit(2),
    )
    .unwrap();

    // The wedge is the stall fault, not model slowness: the opener's
    // adapt-on-miss is the first adapt, and the armed stall freezes the
    // single worker in it for 400 ms while the burst arrives.
    let stall = FaultPlan::parse("serve_adapt_stall:1").expect("valid fault spec");
    let (ok, shed) = fault::with_plan(stall, || {
        common::with_server(&server, |addr| {
            // Request 1: adapt-on-miss — the worker enters the stalled adapt.
            let addr = addr.to_string();
            let opener = {
                let addr = addr.clone();
                let sentences = query_sentences(task);
                let ways = task.n_ways;
                let support = wire_support(task);
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    c.predict_with_support("acme", "slow", &sentences, ways, support)
                })
            };
            // Wait until the worker has entered the stall: its counter
            // ticks at stall start. Mid-run flushes are safe: counters
            // re-emit as snapshots and the summary keeps the last one.
            let stall_deadline = Instant::now() + Duration::from_secs(30);
            loop {
                server.tracer().flush().unwrap();
                let summary = TraceSummary::parse(&sink.text()).unwrap();
                if summary.counters.get("serve/fault_adapt_stall").copied() >= Some(1) {
                    break;
                }
                assert!(
                    Instant::now() < stall_deadline,
                    "timed out waiting for the opener to enter the armed stall"
                );
                std::thread::sleep(Duration::from_millis(5));
            }

            // A burst of follow-up predicts: queue_limit is 2, so at most two
            // queue behind the wedged worker and the rest shed immediately.
            let burst = 6;
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..burst)
                    .map(|_| {
                        let addr = addr.clone();
                        let sentences = query_sentences(task);
                        s.spawn(move || {
                            let mut c = Client::connect(&addr).unwrap();
                            c.predict("acme", "slow", &sentences)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            opener.join().unwrap().unwrap();

            let mut ok = 0u64;
            let mut shed = 0u64;
            for r in results {
                match r {
                    Ok(preds) => {
                        assert_eq!(preds.len(), task.query.len());
                        ok += 1;
                    }
                    Err(Error::Overloaded { queue_depth, limit }) => {
                        assert_eq!(limit, 2, "limit travels over the wire");
                        assert!(queue_depth >= limit);
                        shed += 1;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            (ok, shed)
        })
    });

    assert!(shed >= 1, "bounded queue must shed under overload");
    assert_eq!(ok + shed, 6);
    // The queued (non-shed) predicts were drained as one micro-batch when
    // the worker finally freed up: the trace shows merged requests.
    let summary = TraceSummary::parse(&sink.text()).unwrap();
    if ok >= 2 {
        assert!(
            summary
                .counters
                .get("serve/batch_merged")
                .copied()
                .unwrap_or(0)
                >= 1,
            "same-key queued jobs must merge into one decode"
        );
    }
    assert!(summary.counters.get("serve/shed").copied().unwrap_or(0) >= 1);
    assert!(summary.spans.contains_key("serve/adapt"), "cold adapt span");
}
