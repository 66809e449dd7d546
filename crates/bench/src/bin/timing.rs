//! Regenerates the **§4.5.2 time-consumption analysis**: per-inner-loop
//! step time, full outer-loop (meta-batch) time, test-time adaptation time
//! and per-task evaluation time on the NNE intra-domain configuration, for
//! 5-way 1-shot and 5-way 5-shot; plus the linear-scaling check in the
//! support-set size.
//!
//! An adapt encodes its support set once and then takes K φ steps, so the
//! two costs are reported apart: the encode is timed on its own, and a step
//! as (K-step adapt − 1-step adapt) / (K − 1).
//!
//! Hardware differs from the paper (CPU vs V100), so the claims under test
//! are the *relative* ones: adaptation ≪ training, inner-step cost roughly
//! independent of K, linear growth with data size.

use std::time::Instant;

use fewner_bench::{backbone_config, embedding_spec, meta_config, Scale, EVAL_SEED};
use fewner_core::{EpisodicLearner, Fewner, Maml, ParallelTrainer};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::EpisodeSampler;
use fewner_eval::{measure_predictions, Throughput};
use fewner_models::{encode_task, Conditioning, LabeledSentence, TokenEncoder};
use fewner_tensor::Graph;
use fewner_text::TagSet;
use fewner_util::Rng;

/// Mean wall seconds of one `f()` call over `reps` calls.
fn mean_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// (support encode, one inner step) in seconds for `support`. The step is
/// (K-step adapt − 1-step adapt) / (K − 1), which cancels the encode every
/// adapt pays once.
fn inner_loop_costs(
    learner: &Fewner,
    support: &[LabeledSentence],
    tags: &TagSet,
    k: usize,
    reps: usize,
) -> (f64, f64) {
    let encode = mean_secs(reps, || {
        std::hint::black_box(learner.backbone.encode_support(&learner.theta, support));
    });
    let adapt = |steps| {
        mean_secs(reps, || {
            learner.adapt_context(support, tags, steps).unwrap();
        })
    };
    let one = adapt(1);
    (encode, (adapt(k) - one) / (k - 1) as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    let d = DatasetProfile::nne().generate(scale.corpus).expect("NNE");
    let split = split_types(&d, (52, 10, 15), 42).expect("split");
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
    let meta = meta_config();

    println!("Timing analysis (§4.5.2), NNE intra-domain, CPU\n");
    let mut lines = Vec::new();
    for k in [1usize, 5] {
        let learner =
            Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta.clone()).expect("build");
        let sampler = EpisodeSampler::new(&split.train, 5, k, scale.query_size).expect("sampler");
        let mut rng = Rng::new(3);
        let tasks: Vec<_> = (0..meta.meta_batch)
            .map(|_| sampler.sample(&mut rng).unwrap())
            .collect();

        // Inner-loop cost on a support set: its one-off encode and one φ
        // gradient step.
        let (support, _) = encode_task(&enc, &tasks[0]);
        let tags = tasks[0].tag_set();
        let (encode, inner_step) =
            inner_loop_costs(&learner, &support, &tags, meta.inner_steps_test, 10);

        // Outer loop: one full meta-batch, serially and fanned over worker
        // threads (fresh learners so the runs are comparable — both start
        // from the same initialisation and consume the same step seed).
        let mut trainee =
            Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta.clone()).expect("build");
        let t0 = Instant::now();
        trainee.meta_step(&tasks, &enc).unwrap();
        let outer = t0.elapsed().as_secs_f64();

        let pool = ParallelTrainer::new(4);
        let mut trainee =
            Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta.clone()).expect("build");
        let t0 = Instant::now();
        pool.meta_step(&mut trainee, &tasks, &enc).unwrap();
        let outer_parallel = t0.elapsed().as_secs_f64();

        // Test-time adaptation + evaluation per task.
        let eval_sampler =
            EpisodeSampler::new(&split.test, 5, k, scale.query_size).expect("sampler");
        let eval_tasks = eval_sampler.eval_set(EVAL_SEED, 5).expect("eval set");
        let t0 = Instant::now();
        for task in &eval_tasks {
            let (support, _) = encode_task(&enc, task);
            learner
                .adapt_context(&support, &task.tag_set(), meta.inner_steps_test)
                .unwrap();
        }
        let adapt = t0.elapsed().as_secs_f64() / eval_tasks.len() as f64;
        let t0 = Instant::now();
        for task in &eval_tasks {
            learner.adapt_and_predict(task, &enc).unwrap();
        }
        let eval_per_task = t0.elapsed().as_secs_f64() / eval_tasks.len() as f64;

        let line = format!(
            "5-way {k}-shot: support encode {:.4}s + inner step {:.4}s | outer meta-batch {:.2}s serial / {:.2}s on {} threads | adapt/task {:.3}s | evaluate/task {:.3}s",
            encode, inner_step, outer, outer_parallel, pool.threads(), adapt, eval_per_task
        );
        println!("{line}");
        lines.push(line);
    }

    // FEWNER vs MAML adaptation cost — the paper's efficiency argument:
    // FEWNER updates |φ| scalars per step, MAML the whole network.
    println!("\nAdaptation cost, FEWNER vs MAML (5-way 1-shot, per task):");
    {
        let fewner =
            Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta.clone()).expect("build");
        let maml =
            Maml::new(backbone_config(5, Conditioning::None), &enc, meta.clone()).expect("build");
        let eval_sampler =
            EpisodeSampler::new(&split.test, 5, 1, scale.query_size).expect("sampler");
        let eval_tasks = eval_sampler.eval_set(EVAL_SEED, 4).expect("eval set");
        for (name, learner) in [
            ("FewNER", &fewner as &dyn EpisodicLearner),
            ("MAML", &maml as &dyn EpisodicLearner),
        ] {
            let t0 = Instant::now();
            for task in &eval_tasks {
                learner.adapt_and_predict(task, &enc).unwrap();
            }
            let per_task = t0.elapsed().as_secs_f64() / eval_tasks.len() as f64;
            let line = format!("  {name:<7} adapt+predict: {per_task:.3}s / task");
            println!("{line}");
            lines.push(line);
        }
        let line = format!(
            "  adapted scalars: FEWNER {} vs MAML {}",
            fewner.backbone.config().phi_total(),
            maml.theta.num_scalars()
        );
        println!("{line}");
        lines.push(line);
    }

    // Inference throughput: the serving path's gradient-free executor
    // (`decode_task` on `Infer`, context hoisted per task) vs the tape's
    // full forward (`batch_loss` on an eval-mode `Graph`) over the same
    // adapted task — the unit `fewner predict` reports.
    println!("\nInference throughput (5-way 1-shot query sweep, tape vs Infer):");
    {
        let learner = Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta_config())
            .expect("build");
        let eval_sampler =
            EpisodeSampler::new(&split.test, 5, 1, scale.query_size).expect("sampler");
        let task = eval_sampler
            .eval_set(EVAL_SEED, 1)
            .expect("eval set")
            .remove(0);
        let (support, query) = encode_task(&enc, &task);
        let tags = task.tag_set();
        let (phi_store, phi_id, _) = learner
            .adapt_context(&support, &tags, meta_config().inner_steps_test)
            .expect("adapt");
        let reps = 30;

        let mut infer_t = Throughput::default();
        for _ in 0..reps {
            let (paths, t) = measure_predictions(|| {
                Ok(learner.backbone.decode_task(
                    &learner.theta,
                    Some((&phi_store, phi_id)),
                    query.iter().map(|(s, _)| s),
                    &tags,
                ))
            })
            .expect("decode");
            std::hint::black_box(paths);
            infer_t.merge(&t);
        }

        let tokens: usize = query.iter().map(|(s, _)| s.len()).sum();
        let t0 = Instant::now();
        for _ in 0..reps {
            let g = Graph::eval();
            let phi = g.param(&phi_store, phi_id);
            let mut rng = Rng::new(0);
            let loss =
                learner
                    .backbone
                    .batch_loss(&g, &learner.theta, Some(phi), &query, &tags, &mut rng);
            std::hint::black_box(g.value(loss).scalar_value());
        }
        let tape_t = Throughput {
            tokens: tokens * reps,
            sentences: query.len() * reps,
            seconds: t0.elapsed().as_secs_f64(),
        };

        for (name, t) in [
            ("Infer decode_task", &infer_t),
            ("tape batch forward", &tape_t),
        ] {
            let line = format!("  {name:<20} {}", t.render());
            println!("{line}");
            lines.push(line);
        }
    }

    // Linearity in data size: adaptation time vs support-set multiples.
    println!("\nLinearity check (inner-loop time vs support sentences):");
    let k = meta.inner_steps_test;
    let learner = Fewner::new(backbone_config(5, Conditioning::Film), &enc, meta).expect("build");
    let sampler = EpisodeSampler::new(&split.train, 5, 1, scale.query_size).expect("sampler");
    let task = sampler.sample(&mut Rng::new(4)).unwrap();
    let (support, _) = encode_task(&enc, &task);
    let tags = task.tag_set();
    for mult in [1usize, 2, 4] {
        let big: Vec<_> = support
            .iter()
            .cycle()
            .take(support.len() * mult)
            .cloned()
            .collect();
        let (encode, step) = inner_loop_costs(&learner, &big, &tags, k, 5);
        let line = format!(
            "  {} sentences: encode {encode:.4}s + {step:.4}s / inner step",
            big.len()
        );
        println!("{line}");
        lines.push(line);
    }
    let path = fewner_bench::write_report("timing.txt", &lines.join("\n")).expect("report");
    println!("\nwrote {}", path.display());
}
