//! `serve_load` — an open-loop load generator for `fewner serve`.
//!
//! Samples real N-way K-shot tasks from a corpus profile, then drives a
//! running daemon from concurrent client connections: the first request per
//! task carries an inline support set (adapt-on-miss), the rest are plain
//! predicts that should hit the φ-cache. Arrivals are paced by `--rate`
//! (per-client requests/sec) independent of completions — open loop — so
//! an overloaded server shows up as shed requests, not a slower generator.
//! (Each connection is synchronous NDJSON, so a response slower than the
//! period delays that client's schedule; add clients to keep pressure up.)
//!
//! ```text
//! serve_load --addr 127.0.0.1:4077 [--clients 4] [--requests 50]
//!            [--tasks 4] [--rate 0 (= as fast as possible)]
//!            [--scale 0.05] [--seed 42] [--shutdown true]
//!            [--deadline-ms 0 (= none)] [--retries 0] [--backoff-ms 10]
//!            [--arrivals 0 (= off)]
//! ```
//!
//! Reports p50/p99 request latency, tokens/sec, shed/failure counts, the
//! resilience tallies (retries, reconnects, deadline misses), and the
//! server's own counters (cache hits, queue depth) from the `stats` op.
//! Deadline misses and shed requests are reported separately from hard
//! failures and do not fail the run — only `failed > 0` exits non-zero.
//!
//! `--arrivals W` switches to the incremental-adaptation benchmark: each
//! task's support set arrives in `W` waves, and after every wave the two
//! online strategies are compared on the same daemon — `extend` (warm-start
//! the cached φ, few inner steps over the merged support) vs a full
//! re-adapt from scratch over everything seen so far (forced cold by using
//! a fresh task key per wave). Per wave it reports the mean latency of each
//! strategy plus the entity F1 each one's context reaches on the task's
//! query set — the latency/quality tradeoff of incremental serving.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::{EpisodeSampler, Task};
use fewner_serve::{Client, RetryPolicy, SupportSentence};
use fewner_util::Error;

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse() -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let (Some(key), Some(value)) = (key.strip_prefix("--"), it.next()) else {
                eprintln!(
                    "usage: serve_load --addr <ip:port> [--clients N] [--requests N] \
                           [--tasks N] [--rate RPS] [--scale F] [--seed N] [--shutdown true] \
                           [--deadline-ms MS] [--retries N] [--backoff-ms MS] [--arrivals W]"
                );
                std::process::exit(2);
            };
            map.insert(key.to_string(), value.clone());
        }
        Flags(map)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// One client's tally.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    tokens: u64,
    ok: u64,
    shed: u64,
    deadline_missed: u64,
    failed: u64,
    retries: u64,
    reconnects: u64,
}

fn wire_support(task: &Task) -> Vec<SupportSentence> {
    task.support
        .iter()
        .map(|s| SupportSentence {
            tokens: s.tokens.clone(),
            tags: s.tags.clone(),
        })
        .collect()
}

fn run_client(
    addr: &str,
    id: usize,
    requests: usize,
    rate: f64,
    policy: &RetryPolicy,
    tasks: &[Task],
) -> Result<Tally, Error> {
    // Per-client jitter seed so retry backoffs don't synchronise.
    let mut client = Client::with_policy(addr, policy.clone().seed(policy.seed ^ id as u64));
    let mut tally = Tally::default();
    let mut adapted = vec![false; tasks.len()];
    let start = Instant::now();
    for i in 0..requests {
        if rate > 0.0 {
            // Open-loop pacing: request i is *scheduled* at i/rate seconds,
            // regardless of how long earlier requests took.
            let due = Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        let ti = (id + i) % tasks.len();
        let task = &tasks[ti];
        let name = format!("task-{ti}");
        let sentences: Vec<Vec<String>> = task
            .query
            .iter()
            .cycle()
            .skip(i % task.query.len())
            .take(2)
            .map(|s| s.tokens.clone())
            .collect();
        let sent_tokens: u64 = sentences.iter().map(|s| s.len() as u64).sum();
        let t0 = Instant::now();
        let outcome = if adapted[ti] {
            client.predict("load", &name, &sentences)
        } else {
            client.predict_with_support("load", &name, &sentences, task.n_ways, wire_support(task))
        };
        let us = t0.elapsed().as_micros() as u64;
        match outcome {
            Ok(_) => {
                adapted[ti] = true;
                tally.ok += 1;
                tally.tokens += sent_tokens;
                tally.latencies_us.push(us);
            }
            Err(Error::Overloaded { .. }) => tally.shed += 1,
            Err(Error::DeadlineExceeded { .. }) => tally.deadline_missed += 1,
            Err(_) => tally.failed += 1,
        }
    }
    let stats = client.retry_stats();
    tally.retries = stats.retries;
    tally.reconnects = stats.reconnects;
    Ok(tally)
}

/// Splits a task's support set into `n` arrival waves, round-robin so
/// every wave carries a mix of classes.
fn waves(task: &Task, n: usize) -> Vec<Vec<SupportSentence>> {
    let all = wire_support(task);
    let n = n.clamp(1, all.len());
    let mut out: Vec<Vec<SupportSentence>> = vec![Vec::new(); n];
    for (i, s) in all.into_iter().enumerate() {
        out[i % n].push(s);
    }
    out
}

/// Entity F1 of the server's current context for `(tenant, name)` over the
/// task's query set.
fn f1_of(client: &mut Client, tenant: &str, name: &str, task: &Task) -> Result<f64, Error> {
    let sentences: Vec<Vec<String>> = task.query.iter().map(|s| s.tokens.clone()).collect();
    let preds = client.predict(tenant, name, &sentences)?;
    let mut counts = fewner_eval::F1Counts::default();
    for (pred, gold) in preds.iter().zip(&task.query) {
        let tags = pred
            .iter()
            .map(|t| fewner_text::Tag::parse(t))
            .collect::<fewner_util::Result<Vec<_>>>()?;
        counts.add_tags(&gold.tags, &tags);
    }
    Ok(counts.f1())
}

/// The incremental-adaptation benchmark: support arrives in waves, and
/// after each wave `extend` (warm incremental steps) is compared against a
/// forced full re-adapt over the cumulative support. Returns the number of
/// hard failures.
fn run_arrivals(addr: &str, tasks: &[Task], n_waves: usize) -> u64 {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("arrivals: connect failed: {e}");
            return 1;
        }
    };
    println!(
        "arrivals: {n_waves} waves x {} tasks, extend vs full re-adapt",
        tasks.len()
    );
    // Per wave, across tasks: summed latencies and F1s for each strategy.
    let mut ext_us = vec![0u64; n_waves];
    let mut full_us = vec![0u64; n_waves];
    let mut ext_f1 = vec![0.0f64; n_waves];
    let mut full_f1 = vec![0.0f64; n_waves];
    // Tasks with fewer support sentences than waves run fewer waves, so
    // per-wave means divide by the tasks that actually reached the wave.
    let mut ran = vec![0u64; n_waves];
    let mut failed = 0u64;
    for (ti, task) in tasks.iter().enumerate() {
        let arriving = waves(task, n_waves);
        let ext_name = format!("ext-{ti}");
        let mut cumulative: Vec<SupportSentence> = Vec::new();
        let mut revision = 0u32;
        for (w, wave) in arriving.iter().enumerate() {
            cumulative.extend(wave.iter().cloned());
            ran[w] += 1;

            // Incremental: the first wave adapts, later waves extend the
            // resident context in place.
            let t0 = Instant::now();
            let outcome = if w == 0 {
                client
                    .adapt("load", &ext_name, task.n_ways, wave.clone())
                    .map(|_| 1)
            } else {
                client
                    .extend("load", &ext_name, task.n_ways, wave.clone())
                    .map(|(rev, _)| rev)
            };
            ext_us[w] += t0.elapsed().as_micros() as u64;
            match outcome {
                Ok(rev) => revision = rev,
                Err(e) => {
                    eprintln!("arrivals: extend wave {w} failed: {e}");
                    failed += 1;
                    continue;
                }
            }

            // Full re-adapt: a fresh key per wave defeats the φ-cache, so
            // the complete inner loop runs over all support seen so far.
            let full_name = format!("full-{ti}-w{w}");
            let t0 = Instant::now();
            let outcome = client.adapt("load", &full_name, task.n_ways, cumulative.clone());
            full_us[w] += t0.elapsed().as_micros() as u64;
            if let Err(e) = outcome {
                eprintln!("arrivals: re-adapt wave {w} failed: {e}");
                failed += 1;
                continue;
            }

            match (
                f1_of(&mut client, "load", &ext_name, task),
                f1_of(&mut client, "load", &full_name, task),
            ) {
                (Ok(e), Ok(f)) => {
                    ext_f1[w] += e;
                    full_f1[w] += f;
                }
                (e, f) => {
                    for err in [e.err(), f.err()].into_iter().flatten() {
                        eprintln!("arrivals: scoring wave {w} failed: {err}");
                        failed += 1;
                    }
                }
            }
        }
        println!(
            "  task {ti}: context revision {revision} after {} waves",
            arriving.len()
        );
    }
    for w in 0..n_waves {
        let n = ran[w].max(1) as f64;
        let op = if w == 0 { "adapt " } else { "extend" };
        println!(
            "  wave {}: {op} {:7.1}ms vs re-adapt {:7.1}ms | F1 extend {:.3} vs re-adapt {:.3}",
            w + 1,
            ext_us[w] as f64 / n / 1000.0,
            full_us[w] as f64 / n / 1000.0,
            ext_f1[w] / n,
            full_f1[w] / n,
        );
    }
    failed
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

fn main() {
    let flags = Flags::parse();
    let Some(addr) = flags.0.get("addr").cloned() else {
        eprintln!("serve_load: --addr <ip:port> is required");
        std::process::exit(2);
    };
    let clients = flags.get("clients", 4usize).max(1);
    let requests = flags.get("requests", 50usize);
    let n_tasks = flags.get("tasks", 4usize).max(1);
    let rate = flags.get("rate", 0.0f64);
    let scale = flags.get("scale", 0.05f64);
    let seed = flags.get("seed", 42u64);
    let deadline_ms = flags.get("deadline-ms", 0u64);
    let retries = flags.get("retries", 0u32);
    let backoff_ms = flags.get("backoff-ms", 10u64);
    let mut policy = RetryPolicy::new()
        .max_retries(retries)
        .backoff_ms(backoff_ms, backoff_ms * 50)
        .seed(seed);
    if deadline_ms > 0 {
        policy = policy.deadline_ms(deadline_ms);
    }

    // Real episodic traffic: the same profile/split conventions as the CLI,
    // so the server's encoder knows these tokens.
    let data = DatasetProfile::genia().generate(scale).expect("corpus");
    let split = split_types(&data, (18, 8, 10), seed).expect("split");
    let sampler = EpisodeSampler::new(&split.test, 5, 1, 6).expect("sampler");
    let tasks = sampler.eval_set(0xE7A1, n_tasks).expect("tasks");

    let arrivals = flags.get("arrivals", 0usize);
    if arrivals > 0 {
        let failed = run_arrivals(&addr, &tasks, arrivals);
        if flags.get("shutdown", false) {
            match Client::connect(&addr).and_then(|mut c| c.shutdown()) {
                Ok(()) => println!("  sent shutdown"),
                Err(e) => eprintln!("  shutdown failed: {e}"),
            }
        }
        std::process::exit(if failed > 0 { 1 } else { 0 });
    }

    println!(
        "serve_load: {clients} clients x {requests} requests against {addr} ({n_tasks} tasks)"
    );
    let wall = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let addr = addr.as_str();
                let tasks = tasks.as_slice();
                let policy = &policy;
                s.spawn(move || run_client(addr, id, requests, rate, policy, tasks))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(t)) => t,
                Ok(Err(e)) => {
                    eprintln!("client error: {e}");
                    Tally::default()
                }
                Err(_) => {
                    eprintln!("client panicked");
                    Tally::default()
                }
            })
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64().max(1e-9);

    let mut latencies: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies_us.clone())
        .collect();
    latencies.sort_unstable();
    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();
    let deadline_missed: u64 = tallies.iter().map(|t| t.deadline_missed).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let tokens: u64 = tallies.iter().map(|t| t.tokens).sum();
    let client_retries: u64 = tallies.iter().map(|t| t.retries).sum();
    let reconnects: u64 = tallies.iter().map(|t| t.reconnects).sum();
    let total = ok + shed + deadline_missed + failed;

    println!(
        "  requests: {ok} ok, {shed} shed, {deadline_missed} deadline-missed, {failed} failed \
         in {elapsed:.2}s ({:.1} req/s)",
        total as f64 / elapsed
    );
    println!(
        "  latency: p50 {:.1}ms p99 {:.1}ms",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99)
    );
    println!(
        "  resilience: {client_retries} retries, {reconnects} reconnects, \
         deadline-miss rate {:.1}%",
        if total > 0 {
            100.0 * deadline_missed as f64 / total as f64
        } else {
            0.0
        }
    );
    println!(
        "  throughput: {tokens} tokens in {elapsed:.2}s ({:.1} tokens/sec)",
        tokens as f64 / elapsed
    );

    match Client::connect(&addr).and_then(|mut c| c.stats()) {
        Ok(counters) => {
            let rendered: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("  server counters: {}", rendered.join(" "));
        }
        Err(e) => eprintln!("  (stats unavailable: {e})"),
    }

    if flags.get("shutdown", false) {
        match Client::connect(&addr).and_then(|mut c| c.shutdown()) {
            Ok(()) => println!("  sent shutdown"),
            Err(e) => eprintln!("  shutdown failed: {e}"),
        }
    }

    if failed > 0 {
        std::process::exit(1);
    }
}
