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

const USAGE: &str = "usage: serve_load --addr <ip:port> [--clients N] [--requests N] \
                     [--tasks N] [--rate RPS] [--scale F] [--seed N] [--shutdown true] \
                     [--deadline-ms MS] [--retries N] [--backoff-ms MS] [--arrivals W]";

/// Every flag `serve_load` takes (each takes one value).
const FLAGS: &[&str] = &[
    "addr",
    "clients",
    "requests",
    "tasks",
    "rate",
    "scale",
    "seed",
    "shutdown",
    "deadline-ms",
    "retries",
    "backoff-ms",
    "arrivals",
];

struct Flags(HashMap<String, String>);

impl Flags {
    /// Parses `--key value` pairs (without the program name). A flag
    /// `serve_load` does not take, a flag given twice and a flag without a
    /// value are errors naming the flag.
    fn parse(args: &[String]) -> Result<Flags, Error> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--").filter(|k| FLAGS.contains(k)) else {
                return Err(Error::InvalidConfig(format!(
                    "serve_load does not take `{arg}`"
                )));
            };
            let Some(value) = it.next() else {
                return Err(Error::InvalidConfig(format!("--{key} needs a value")));
            };
            if map.insert(key.to_string(), value.clone()).is_some() {
                return Err(Error::InvalidConfig(format!("--{key} is given twice")));
            }
        }
        Ok(Flags(map))
    }

    /// A typed flag with a default. A value that does not parse is an
    /// error naming the flag and the value, never the default.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Error> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                Error::InvalidConfig(format!(
                    "--{key} `{v}` is not a valid {}",
                    std::any::type_name::<T>()
                ))
            }),
        }
    }
}

/// Everything `serve_load` reads from its flags, checked before any work.
struct Args {
    addr: String,
    clients: usize,
    requests: usize,
    n_tasks: usize,
    rate: f64,
    scale: f64,
    seed: u64,
    shutdown: bool,
    deadline_ms: u64,
    retries: u32,
    backoff_ms: u64,
    arrivals: usize,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, Error> {
        let flags = Flags::parse(args)?;
        let Some(addr) = flags.0.get("addr").cloned() else {
            return Err(Error::InvalidConfig("--addr <ip:port> is required".into()));
        };
        Ok(Args {
            addr,
            clients: flags.get("clients", 4usize)?.max(1),
            requests: flags.get("requests", 50usize)?,
            n_tasks: flags.get("tasks", 4usize)?.max(1),
            rate: flags.get("rate", 0.0f64)?,
            scale: flags.get("scale", 0.05f64)?,
            seed: flags.get("seed", 42u64)?,
            shutdown: flags.get("shutdown", false)?,
            deadline_ms: flags.get("deadline-ms", 0u64)?,
            retries: flags.get("retries", 0u32)?,
            backoff_ms: flags.get("backoff-ms", 10u64)?,
            arrivals: flags.get("arrivals", 0usize)?,
        })
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        addr,
        clients,
        requests,
        n_tasks,
        rate,
        scale,
        seed,
        shutdown,
        deadline_ms,
        retries,
        backoff_ms,
        arrivals,
    } = Args::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
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

    if arrivals > 0 {
        let failed = run_arrivals(&addr, &tasks, arrivals);
        if shutdown {
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

    if shutdown {
        match Client::connect(&addr).and_then(|mut c| c.shutdown()) {
            Ok(()) => println!("  sent shutdown"),
            Err(e) => eprintln!("  shutdown failed: {e}"),
        }
    }

    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_ci_invocation_parses() {
        let a = Args::parse(&args(
            "--addr 127.0.0.1:1 --clients 3 --requests 20 --tasks 3 --scale 0.05 \
             --shutdown true --retries 3 --deadline-ms 2000 --backoff-ms 10",
        ))
        .unwrap();
        assert_eq!((a.clients, a.requests, a.n_tasks, a.retries), (3, 20, 3, 3));
        assert_eq!((a.deadline_ms, a.backoff_ms, a.scale), (2000, 10, 0.05));
        assert!(a.shutdown);
        let a = Args::parse(&args(
            "--addr 127.0.0.1:1 --tasks 2 --scale 0.05 --arrivals 3 --shutdown true",
        ))
        .unwrap();
        assert_eq!((a.n_tasks, a.arrivals, a.clients, a.rate), (2, 3, 4, 0.0));
    }

    #[test]
    fn bad_flags_are_refused_by_name() {
        for (line, needle) in [
            ("--addr a:1 --client 3", "does not take `--client`"),
            ("--addr a:1 stray", "does not take `stray`"),
            ("--addr a:1 --clients x", "--clients `x`"),
            ("--addr a:1 --rate fast", "--rate `fast`"),
            ("--addr a:1 --shutdown yes", "--shutdown `yes`"),
            ("--addr a:1 --tasks", "--tasks needs a value"),
            ("--addr a:1 --addr b:2", "--addr is given twice"),
            ("--clients 3", "--addr <ip:port> is required"),
        ] {
            match Args::parse(&args(line)) {
                Err(Error::InvalidConfig(msg)) => assert!(msg.contains(needle), "{line}: {msg}"),
                Err(other) => panic!("{line}: expected InvalidConfig, got {other:?}"),
                Ok(_) => panic!("{line}: expected an error naming `{needle}`"),
            }
        }
    }
}
