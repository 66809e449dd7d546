//! Regenerates the **§4.5.2 time-consumption analysis**: per-inner-loop
//! step time, full outer-loop (meta-batch) time, test-time adaptation time
//! and per-task evaluation time on the NNE intra-domain configuration, for
//! 5-way 1-shot and 5-way 5-shot; plus the linear-scaling check in the
//! support-set size.
//!
//! An adapt encodes its support set once and then takes K φ steps, so the
//! two costs are reported apart: the encode is timed on its own, and a step
//! as (K-step adapt − 1-step adapt) / (K − 1). A training task's gradient
//! adds the query loss of the adapted model on a training tape; its
//! forward and backward are timed apart too, next to the tape's size in
//! nodes per query token.
//!
//! Every figure is sampled [`ROUNDS`] times and printed as the median with
//! its first and third quartiles. A round samples every figure once, so
//! each figure's samples spread over the whole run: a shared host's speed
//! drifts by up to 2× within a minute, and samples taken back to back
//! would all land in one phase of that drift and hide it.
//!
//! Hardware differs from the paper (CPU vs V100), so the claims under test
//! are the *relative* ones: adaptation ≪ training, inner-step cost roughly
//! independent of K, linear growth with data size.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use fewner_bench::{backbone_config, embedding_spec, meta_config, Scale, EVAL_SEED};
use fewner_core::{EpisodicLearner, Fewner, Maml, ParallelTrainer};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::{EpisodeSampler, Task};
use fewner_models::{encode_task, Conditioning, LabeledSentence, TokenEncoder};
use fewner_obs::Tracer;
use fewner_tensor::{Exec, Graph, ParamId, ParamStore};
use fewner_text::TagSet;
use fewner_util::Rng;

/// How many times every figure is sampled (once per round).
const ROUNDS: usize = 9;

/// How a figure's samples read.
#[derive(Clone, Copy)]
enum Unit {
    /// Seconds, printed as milliseconds.
    Ms,
    /// Tokens per second.
    TokensPerSec,
}

/// A row of the report: a line of text, or a figure sampled once per round.
enum Row<'a> {
    Text(String),
    Figure {
        label: String,
        unit: Unit,
        sample: Box<dyn FnMut() -> f64 + 'a>,
        samples: Vec<f64>,
    },
}

/// The report's rows, in print order.
#[derive(Default)]
struct Report<'a>(Vec<Row<'a>>);

impl<'a> Report<'a> {
    fn text(&mut self, line: impl Into<String>) {
        self.0.push(Row::Text(line.into()));
    }

    fn figure(&mut self, label: impl Into<String>, unit: Unit, sample: impl FnMut() -> f64 + 'a) {
        self.0.push(Row::Figure {
            label: label.into(),
            unit,
            sample: Box::new(sample),
            samples: Vec::with_capacity(ROUNDS),
        });
    }

    /// Samples every figure once per round, for [`ROUNDS`] rounds.
    fn measure(&mut self) {
        for _ in 0..ROUNDS {
            for row in &mut self.0 {
                if let Row::Figure {
                    sample, samples, ..
                } = row
                {
                    samples.push(sample());
                }
            }
        }
    }

    /// The rows as text, each figure as its median [q1–q3].
    fn render(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|row| match row {
                Row::Text(line) => line.clone(),
                Row::Figure {
                    label,
                    unit,
                    samples,
                    ..
                } => {
                    let mut xs = samples.clone();
                    xs.sort_by(f64::total_cmp);
                    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
                    let (q1, median, q3) = (at(0.25), at(0.5), at(0.75));
                    match unit {
                        Unit::Ms => format!(
                            "  {label:<28} {:.2} ms [{:.2}–{:.2}]",
                            median * 1e3,
                            q1 * 1e3,
                            q3 * 1e3
                        ),
                        Unit::TokensPerSec => {
                            format!("  {label:<28} {median:.0} tokens/sec [{q1:.0}–{q3:.0}]")
                        }
                    }
                }
            })
            .collect()
    }
}

/// Mean wall seconds of one `f()` call over `reps` calls.
fn mean_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Mean wall seconds per task of `f` over `tasks`.
fn per_task(tasks: &[Task], f: impl FnMut(&Task)) -> f64 {
    let t0 = Instant::now();
    tasks.iter().for_each(f);
    t0.elapsed().as_secs_f64() / tasks.len() as f64
}

/// Adds the support encode and one inner step for `support` to `report`.
/// A step sample is (K-step adapt − 1-step adapt) / (K − 1), which cancels
/// the encode every adapt pays once.
fn inner_loop_figures<'a>(
    report: &mut Report<'a>,
    prefix: &str,
    learner: &'a Fewner,
    support: &'a [LabeledSentence],
    tags: &'a TagSet,
    k: usize,
    reps: usize,
) {
    report.figure(format!("{prefix}support encode"), Unit::Ms, move || {
        mean_secs(reps, || {
            std::hint::black_box(learner.backbone.encode_support(&learner.theta, support));
        })
    });
    let adapt = move |steps| {
        mean_secs(reps, || {
            learner.adapt_context(support, tags, steps).unwrap();
        })
    };
    report.figure(format!("{prefix}inner step"), Unit::Ms, move || {
        let one = adapt(1);
        (adapt(k) - one) / (k - 1) as f64
    });
}

/// One training task's query loss input: φ adapted as the outer loop
/// adapts it, the encoded query set and the tag set.
struct QueryLoss {
    phi: (ParamStore, ParamId),
    query: Vec<LabeledSentence>,
    tags: TagSet,
}

impl QueryLoss {
    fn new(learner: &Fewner, task: &Task, enc: &TokenEncoder, steps: usize) -> QueryLoss {
        let (support, query) = encode_task(enc, task);
        let tags = task.tag_set();
        let (store, id, _) = learner
            .adapt_context(&support, &tags, steps)
            .expect("adapt");
        QueryLoss {
            phi: (store, id),
            query,
            tags,
        }
    }

    /// The query loss on a training tape (dropout on, as in the outer
    /// loop), as the tape and its loss.
    fn tape(&self, learner: &Fewner, seed: u64) -> (Graph, fewner_tensor::Var) {
        let g = Graph::new();
        let phi = g.param(&self.phi.0, self.phi.1);
        let loss = learner.backbone.batch_loss(
            &g,
            &learner.theta,
            Some(phi),
            &self.query,
            &self.tags,
            &mut Rng::new(seed),
        );
        (g, loss)
    }
}

/// Adds a task gradient's query-loss forward and backward to `report`,
/// each a sample's mean over `losses`, and returns the tape's nodes per
/// query token. One sample times both halves of the same tapes; the
/// backward figure reads what the forward figure's sample measured.
fn query_loss_figures<'a>(
    report: &mut Report<'a>,
    learner: &'a Fewner,
    losses: &'a [QueryLoss],
) -> f64 {
    let nodes: usize = losses.iter().map(|l| l.tape(learner, 0).0.len()).sum();
    let tokens: usize = losses
        .iter()
        .flat_map(|l| &l.query)
        .map(|(sent, _)| sent.len())
        .sum();
    let backward = Rc::new(Cell::new(0.0));
    let measured = Rc::clone(&backward);
    report.figure("query-loss forward / task", Unit::Ms, move || {
        let (mut forward, mut back) = (0.0, 0.0);
        for (i, loss) in losses.iter().enumerate() {
            let t0 = Instant::now();
            let (g, value) = loss.tape(learner, i as u64);
            let t1 = Instant::now();
            std::hint::black_box(g.backward(value).expect("finite loss"));
            forward += (t1 - t0).as_secs_f64();
            back += t1.elapsed().as_secs_f64();
        }
        measured.set(back / losses.len() as f64);
        forward / losses.len() as f64
    });
    report.figure("query-loss backward / task", Unit::Ms, move || {
        backward.get()
    });
    nodes as f64 / tokens as f64
}

/// One shot setting's fixtures: a learner, a training meta-batch with each
/// task's query loss input, its first task's support set, and held-out
/// tasks to adapt and evaluate.
struct Shots {
    k: usize,
    learner: Fewner,
    tasks: Vec<Task>,
    losses: Vec<QueryLoss>,
    support: Vec<LabeledSentence>,
    tags: TagSet,
    eval_tasks: Vec<Task>,
}

fn main() {
    let scale = Scale::from_env();
    let d = DatasetProfile::nne().generate(scale.corpus).expect("NNE");
    let split = split_types(&d, (52, 10, 15), 42).expect("split");
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
    let meta = meta_config();
    let fresh_fewner =
        || Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta.clone()).expect("build");

    // Every fixture is built before any timing starts.
    let shots: Vec<Shots> = [1usize, 5]
        .into_iter()
        .map(|k| {
            let sampler =
                EpisodeSampler::new(&split.train, 5, k, scale.query_size).expect("sampler");
            let mut rng = Rng::new(3);
            let tasks: Vec<Task> = (0..meta.meta_batch)
                .map(|_| sampler.sample(&mut rng).unwrap())
                .collect();
            let (support, _) = encode_task(&enc, &tasks[0]);
            let tags = tasks[0].tag_set();
            let eval_tasks = EpisodeSampler::new(&split.test, 5, k, scale.query_size)
                .expect("sampler")
                .eval_set(EVAL_SEED, 5)
                .expect("eval set");
            let learner = fresh_fewner();
            let losses = tasks
                .iter()
                .map(|task| QueryLoss::new(&learner, task, &enc, meta.inner_steps_train))
                .collect();
            Shots {
                k,
                learner,
                tasks,
                losses,
                support,
                tags,
                eval_tasks,
            }
        })
        .collect();

    let fewner = fresh_fewner();
    let maml =
        Maml::new(backbone_config(5, Conditioning::None), &enc, meta.clone()).expect("build");
    let one_shot_eval = EpisodeSampler::new(&split.test, 5, 1, scale.query_size)
        .expect("sampler")
        .eval_set(EVAL_SEED, 4)
        .expect("eval set");

    let serving = fresh_fewner();
    let serve_task = EpisodeSampler::new(&split.test, 5, 1, scale.query_size)
        .expect("sampler")
        .eval_set(EVAL_SEED, 1)
        .expect("eval set")
        .remove(0);
    let (serve_support, query) = encode_task(&enc, &serve_task);
    let serve_tags = serve_task.tag_set();
    let (phi_store, phi_id, _) = serving
        .adapt_context(&serve_support, &serve_tags, meta.inner_steps_test)
        .expect("adapt");

    let linear = fresh_fewner();
    let linear_task = EpisodeSampler::new(&split.train, 5, 1, scale.query_size)
        .expect("sampler")
        .sample(&mut Rng::new(4))
        .unwrap();
    let (linear_support, _) = encode_task(&enc, &linear_task);
    let linear_tags = linear_task.tag_set();
    let supports: Vec<Vec<LabeledSentence>> = [1usize, 2, 4]
        .into_iter()
        .map(|mult| {
            linear_support
                .iter()
                .cycle()
                .take(linear_support.len() * mult)
                .cloned()
                .collect()
        })
        .collect();

    let (enc, meta) = (&enc, &meta);
    let mut report = Report::default();
    report.text("Timing analysis (§4.5.2), NNE intra-domain, CPU");
    report.text(format!(
        "Every figure: median [q1–q3] of {ROUNDS} rounds; a round samples every figure once."
    ));
    for s in &shots {
        report.text(format!("\n5-way {}-shot:", s.k));
        // Inner-loop cost on a support set: its one-off encode and one φ
        // gradient step.
        inner_loop_figures(
            &mut report,
            "",
            &s.learner,
            &s.support,
            &s.tags,
            meta.inner_steps_test,
            10,
        );
        // Outer loop: one full meta-batch through the trainer's step, on
        // one thread (the path serial training runs) and fanned over four.
        // Each sample starts from a fresh learner, so every one pays for
        // the same initialisation and step seed.
        for threads in [1usize, 4] {
            let unit = if threads == 1 { "thread" } else { "threads" };
            report.figure(
                format!("outer meta-batch, {threads} {unit}"),
                Unit::Ms,
                move || {
                    let mut trainee =
                        Fewner::new(backbone_config(5, Conditioning::Film), enc, meta.clone())
                            .expect("build");
                    let pool = ParallelTrainer::new(threads);
                    let t0 = Instant::now();
                    pool.meta_step(&mut trainee, &s.tasks, enc, &Tracer::disabled())
                        .unwrap();
                    t0.elapsed().as_secs_f64()
                },
            );
        }
        // Where a task gradient's query loss goes: its tape's forward and
        // backward, and the tape's size.
        let per_token = query_loss_figures(&mut report, &s.learner, &s.losses);
        report.text(format!(
            "  query tape                   {per_token:.1} nodes / query token"
        ));
        // Test-time adaptation + evaluation per task.
        report.figure("adapt / task", Unit::Ms, move || {
            per_task(&s.eval_tasks, |task| {
                let (support, _) = encode_task(enc, task);
                s.learner
                    .adapt_context(&support, &task.tag_set(), meta.inner_steps_test)
                    .unwrap();
            })
        });
        report.figure("evaluate / task", Unit::Ms, move || {
            per_task(&s.eval_tasks, |task| {
                s.learner.adapt_and_predict(task, enc).unwrap();
            })
        });
    }

    // FEWNER vs MAML adaptation cost — the paper's efficiency argument:
    // FEWNER updates |φ| scalars per step, MAML the whole network.
    report.text("\nAdaptation cost, FEWNER vs MAML (5-way 1-shot):");
    for (name, learner) in [
        ("FewNER", &fewner as &dyn EpisodicLearner),
        ("MAML", &maml as &dyn EpisodicLearner),
    ] {
        let tasks = &one_shot_eval;
        report.figure(
            format!("{name} adapt+predict / task"),
            Unit::Ms,
            move || {
                per_task(tasks, |task| {
                    learner.adapt_and_predict(task, enc).unwrap();
                })
            },
        );
    }
    report.text(format!(
        "  adapted scalars: FEWNER {} vs MAML {}",
        fewner.backbone.config().phi_total(),
        maml.theta.num_scalars()
    ));

    // Inference throughput: the serving path's gradient-free executor
    // (`decode_task` on `Infer`, context hoisted per task) vs the tape's
    // full forward (`batch_loss` on an eval-mode `Graph`) over the same
    // adapted task — the unit `fewner predict` reports. A sample is the
    // rate over 30 sweeps of the query set.
    let reps = 30;
    let tokens: usize = query.iter().map(|(s, _)| s.len()).sum();
    report.text(format!(
        "\nInference throughput (5-way 1-shot query sweep of {tokens} tokens in {} sentences):",
        query.len()
    ));
    let (serving, phi_store, query, serve_tags) = (&serving, &phi_store, &query, &serve_tags);
    report.figure("Infer decode_task", Unit::TokensPerSec, move || {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(serving.backbone.decode_task(
                &serving.theta,
                Some((phi_store, phi_id)),
                query.iter().map(|(s, _)| s),
                serve_tags,
            ));
        }
        (tokens * reps) as f64 / t0.elapsed().as_secs_f64()
    });
    report.figure("tape batch forward", Unit::TokensPerSec, move || {
        let t0 = Instant::now();
        for _ in 0..reps {
            let g = Graph::eval();
            let phi = g.param(phi_store, phi_id);
            let mut rng = Rng::new(0);
            let loss = serving.backbone.batch_loss(
                &g,
                &serving.theta,
                Some(phi),
                query,
                serve_tags,
                &mut rng,
            );
            std::hint::black_box(g.value(loss).scalar_value());
        }
        (tokens * reps) as f64 / t0.elapsed().as_secs_f64()
    });

    // Linearity in data size: adaptation time vs support-set multiples.
    report.text("\nLinearity check (inner-loop time vs support sentences):");
    for support in &supports {
        inner_loop_figures(
            &mut report,
            &format!("{} sentences: ", support.len()),
            &linear,
            support,
            &linear_tags,
            meta.inner_steps_test,
            5,
        );
    }

    report.measure();
    let lines = report.render();
    for line in &lines {
        println!("{line}");
    }
    let path = fewner_bench::write_report("timing.txt", &lines.join("\n")).expect("report");
    println!("\nwrote {}", path.display());
}
