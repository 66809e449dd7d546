//! Chaos suite: a real TCP daemon driven under armed fault plans (ISSUE 7
//! tentpole). Every test asserts one of the resilience invariants:
//!
//! * no request outlives its deadline by more than a poll interval,
//! * responses that succeed under faults are bitwise-identical to a
//!   fault-free run (same seeded fixture ⇒ same frozen θ ⇒ same φ),
//! * a retried adapt triggers exactly one inner loop (`serve/adapt` span
//!   count stays 1 — the single-flight cache absorbs the retry),
//! * saturation sheds only cold adapts while warm tenants keep being
//!   served,
//! * shutdown drains cleanly even with faults still armed.
//!
//! `fault::with_plan` serialises armed-plan sections process-wide. Every
//! test body here runs inside `with_plan` — fault-free sections use an
//! **empty** plan — so a plan armed by one test can never leak into
//! another's baseline when the test harness runs them in parallel.

mod common;

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fewner_core::{MetaConfig, ServeOptions};
use fewner_episode::Task;
use fewner_obs::{MemorySink, MonotonicClock, TraceSummary, Tracer};
use fewner_serve::{Client, RetryPolicy, Server, ServerConfig, SupportSentence};
use fewner_util::fault::{self, FaultPlan};
use fewner_util::Error;

use common::with_server;

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

/// A parsed, armed fault plan — or the empty plan for fault-free sections
/// that still need the process-wide serialisation `with_plan` provides.
fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).expect("valid fault spec")
}

fn traced_server(cfg: ServerConfig) -> (Server, MemorySink) {
    let (learner, enc, _tasks) = common::tiny();
    let sink = MemorySink::new();
    let tracer = Tracer::new(MonotonicClock::new(), sink.clone());
    let server = Server::new(learner, enc, ServeOptions::new().tracer(tracer), cfg).unwrap();
    (server, sink)
}

/// The fault-free reference: adapt + predict on a clean daemon. The tiny
/// fixture is fully seed-driven, so every fresh build reproduces the same
/// frozen θ and the same adapted φ — this is the bitwise baseline the
/// chaos runs are compared against.
fn clean_predictions(task: &Task) -> Vec<Vec<String>> {
    let (server, _sink) = traced_server(ServerConfig::new());
    with_server(&server, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client
            .adapt("acme", "t0", task.n_ways, wire_support(task))
            .unwrap();
        client
            .predict("acme", "t0", &query_sentences(task))
            .unwrap()
    })
}

fn summary_of(sink: &MemorySink, server: &Server) -> TraceSummary {
    server.tracer().flush().unwrap();
    TraceSummary::parse(&sink.text()).unwrap()
}

#[test]
fn conn_drop_is_retried_to_a_bitwise_identical_response_with_one_adapt() {
    let (_, _, tasks) = common::tiny();
    let task = &tasks[0];
    let baseline = fault::with_plan(plan(""), || clean_predictions(task));

    let (server, sink) = traced_server(ServerConfig::new());
    let (preds, stats) = fault::with_plan(plan("serve_conn_drop:1"), || {
        with_server(&server, |addr| {
            let mut client = Client::with_policy(addr, RetryPolicy::new().seed(11));
            // The first response write is dropped mid-connection; the retry
            // reconnects, re-sends the adapt, and lands on the settled
            // single-flight cell instead of a second inner loop.
            let source = client
                .adapt("acme", "t0", task.n_ways, wire_support(task))
                .unwrap();
            assert_eq!(source, "hot", "the retry found the settled cell");
            let preds = client
                .predict("acme", "t0", &query_sentences(task))
                .unwrap();
            (preds, client.retry_stats())
        })
    });

    assert_eq!(preds, baseline, "faulted run must match the clean run");
    assert!(stats.retries >= 1, "the drop must have forced a retry");
    assert!(stats.reconnects >= 1);
    let summary = summary_of(&sink, &server);
    assert_eq!(
        summary.spans.get("serve/adapt").map(|s| s.count()),
        Some(1),
        "exactly one inner loop despite the client retrying the adapt"
    );
    assert_eq!(
        summary.counters.get("serve/fault_conn_drop").copied(),
        Some(1)
    );
    assert!(
        summary.counters.get("serve/request_retries").copied() >= Some(1),
        "the server saw the attempt counter"
    );
}

#[test]
fn frame_corruption_is_retried_to_a_bitwise_identical_response() {
    let (_, _, tasks) = common::tiny();
    let task = &tasks[0];
    let baseline = fault::with_plan(plan(""), || clean_predictions(task));

    let (server, sink) = traced_server(ServerConfig::new());
    let (preds, stats) = fault::with_plan(plan("serve_frame_corrupt:1"), || {
        with_server(&server, |addr| {
            let mut client = Client::with_policy(addr, RetryPolicy::new().seed(23));
            // The first response frame is garbled on the wire; the client's
            // parse fails, it reconnects and retries.
            client
                .adapt("acme", "t0", task.n_ways, wire_support(task))
                .unwrap();
            let preds = client
                .predict("acme", "t0", &query_sentences(task))
                .unwrap();
            (preds, client.retry_stats())
        })
    });

    assert_eq!(preds, baseline, "faulted run must match the clean run");
    assert!(stats.retries >= 1, "corruption must have forced a retry");
    let summary = summary_of(&sink, &server);
    assert_eq!(
        summary.spans.get("serve/adapt").map(|s| s.count()),
        Some(1),
        "exactly one inner loop despite the retry"
    );
    assert_eq!(
        summary.counters.get("serve/fault_frame_corrupt").copied(),
        Some(1)
    );
}

#[test]
fn adapt_stall_cannot_pin_a_request_past_its_deadline() {
    let (_, _, tasks) = common::tiny();
    let task = &tasks[0];
    let (server, sink) = traced_server(ServerConfig::new());

    fault::with_plan(plan("serve_adapt_stall:1"), || {
        with_server(&server, |addr| {
            // 150 ms budget vs a 400 ms injected stall. The stall checks
            // the deadline every 10 ms, so the typed error must come back
            // within budget + one poll interval + wire slack.
            let mut client = Client::with_policy(
                addr,
                RetryPolicy::new().max_retries(0).deadline_ms(150).seed(3),
            );
            let started = Instant::now();
            let err = client
                .adapt("acme", "t0", task.n_ways, wire_support(task))
                .unwrap_err();
            let elapsed = started.elapsed();
            match err {
                Error::DeadlineExceeded { budget_ms, .. } => assert_eq!(budget_ms, 150),
                other => panic!("expected DeadlineExceeded, got {other}"),
            }
            assert!(
                elapsed < Duration::from_millis(600),
                "deadline overshoot: {elapsed:?} for a 150ms budget"
            );
            assert_eq!(client.retry_stats().deadline_misses, 1);

            // The stall fired once; the failed cell was removed, so the
            // daemon recovers to a clean cold adapt.
            let mut retry = Client::connect(addr).unwrap();
            let source = retry
                .adapt("acme", "t0", task.n_ways, wire_support(task))
                .unwrap();
            assert_eq!(
                source, "cold",
                "failed adapt must not leave a poisoned cell"
            );
        })
    });

    let summary = summary_of(&sink, &server);
    assert!(
        summary.counters.get("serve/deadline_missed").copied() >= Some(1),
        "the miss must be counted"
    );
    assert_eq!(
        summary.counters.get("serve/fault_adapt_stall").copied(),
        Some(1)
    );
}

#[test]
fn saturation_sheds_only_cold_adapts_while_warm_tenants_keep_serving() {
    let (learner, enc, tasks) = common::tiny();
    let task = &tasks[0];
    // The e2e wedge: many inner steps make every cold adapt slow enough to
    // deterministically pile the queue up behind one worker — even when
    // this test shares the machine with the rest of the workspace suite.
    let slow = {
        let cfg = MetaConfig {
            inner_steps_test: 2_000,
            meta_batch: 2,
            ..MetaConfig::default()
        };
        let mut bb = learner.backbone.config().clone();
        bb.dropout = 0.0;
        fewner_core::Fewner::new(bb, &enc, cfg).unwrap()
    };
    let sink = MemorySink::new();
    let tracer = Tracer::new(MonotonicClock::new(), sink.clone());
    let server = Server::new(
        slow,
        enc,
        ServeOptions::new().tracer(tracer),
        ServerConfig::new().workers(1).queue_limit(2),
    )
    .unwrap();

    // The wedge is manufactured with the stall fault, not model slowness:
    // the warm-up adapt is stall-stream tick #1 (unarmed), the wedge adapt
    // is tick #2 and freezes the single worker for a deterministic 400 ms —
    // wide enough to pile the queue up and fire the cold burst into it.
    fault::with_plan(plan("serve_adapt_stall:2"), || {
        with_server(&server, |addr| {
            // Warm the tenant up front (slow, but runs once).
            Client::connect(addr)
                .unwrap()
                .adapt("acme", "warm", task.n_ways, wire_support(task))
                .unwrap();

            // Wedge the single worker in a cold adapt for another key, and
            // wait until the worker has actually *entered* the stall (its
            // counter ticks at stall start; cache counters only move once
            // the adapt finishes) — sleeps are not a synchronisation
            // primitive. Mid-run flushes are safe: counters re-emit as
            // snapshots and the summary keeps the last one.
            let wedge = {
                let addr = addr.to_string();
                let sentences = query_sentences(task);
                let ways = task.n_ways;
                let support = wire_support(task);
                std::thread::spawn(move || {
                    Client::connect(&addr)
                        .unwrap()
                        .predict_with_support("acme", "wedge", &sentences, ways, support)
                })
            };
            let stall_deadline = Instant::now() + Duration::from_secs(30);
            while summary_of(&sink, &server)
                .counters
                .get("serve/fault_adapt_stall")
                .copied()
                .unwrap_or(0)
                < 1
            {
                assert!(
                    Instant::now() < stall_deadline,
                    "timed out waiting for the wedge to enter the armed stall"
                );
                std::thread::sleep(Duration::from_millis(5));
            }

            // Three warm predicts enqueue behind the wedge (overflow allowance
            // is 2 × queue_limit = 4) — they are slow but must all be served.
            let warm_handles: Vec<_> = (0..3)
                .map(|_| {
                    let addr = addr.to_string();
                    let sentences = query_sentences(task);
                    std::thread::spawn(move || {
                        Client::connect(&addr)
                            .unwrap()
                            .predict("acme", "warm", &sentences)
                    })
                })
                .collect();
            // The `stats` op is answered inline (never queued), so it can
            // observe the queue without getting stuck behind the wedge.
            let mut stats_client = Client::connect(addr).unwrap();
            let queue_deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let stats = stats_client.stats().unwrap();
                let depth = stats
                    .iter()
                    .find(|(n, _)| n == "queue_depth")
                    .map_or(0, |(_, v)| *v);
                if depth >= 3 {
                    break;
                }
                assert!(
                    Instant::now() < queue_deadline,
                    "timed out waiting for the warm predicts to queue up; last stats: {stats:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }

            // The worker is pinned inside the wedge adapt with ≥ 3 jobs
            // queued: every cold adapt-on-miss is now shed at the cold
            // limit — warm work keeps its place in the queue.
            for i in 0..4 {
                let err = Client::connect(addr)
                    .unwrap()
                    .predict_with_support(
                        "acme",
                        &format!("cold-{i}"),
                        &query_sentences(task),
                        task.n_ways,
                        wire_support(task),
                    )
                    .unwrap_err();
                match err {
                    Error::Overloaded { limit, .. } => {
                        assert_eq!(limit, 2, "cold work sheds at the base limit")
                    }
                    other => panic!("expected Overloaded, got {other}"),
                }
            }

            for h in warm_handles {
                let preds = h.join().unwrap().expect("warm predict survives saturation");
                assert_eq!(preds.len(), task.query.len());
            }
            wedge.join().unwrap().expect("the wedge itself completes");

            let stats = Client::connect(addr).unwrap().stats().unwrap();
            let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
            assert_eq!(get("shed_cold"), Some(4), "all four cold adapts shed");
            assert_eq!(get("worker_panics"), Some(0));
        })
    });

    let summary = {
        server.tracer().flush().unwrap();
        TraceSummary::parse(&sink.text()).unwrap()
    };
    assert_eq!(summary.counters.get("serve/shed_cold").copied(), Some(4));
    assert!(summary.counters.get("serve/shed").copied() >= Some(4));
}

#[test]
fn shutdown_drains_cleanly_with_faults_still_armed() {
    let (server, _sink) = traced_server(ServerConfig::new());
    fault::with_plan(plan("serve_conn_drop:2"), || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|s| {
            let daemon = s.spawn(|| server.run(listener));
            let mut client = Client::connect(&addr).unwrap();
            client.ping().unwrap();
            // The shutdown ack is the second response — the armed fault
            // eats it. The client sees a dead connection, but the daemon
            // must already be draining and exit cleanly regardless.
            let ack = client.shutdown();
            assert!(ack.is_err(), "the ack was dropped by the fault plan");
            daemon
                .join()
                .expect("daemon thread")
                .expect("drain stays clean under armed faults");
        });
    });
}
