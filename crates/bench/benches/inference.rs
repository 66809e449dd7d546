//! Criterion comparison of the two executors on the FEWNER backbone:
//! tape-recording forward ([`Graph::eval`]) vs the gradient-free [`Infer`]
//! executor with its recycled scratch arena.
//!
//! Three views, coarse to fine:
//!
//! * `forward_per_sentence` — one backbone forward (`Backbone::hidden`,
//!   char-CNN + BiGRU + FiLM) for a single query sentence; the same math
//!   runs on both executors, so the gap is pure executor overhead.
//! * `forward_per_task` — the same forward swept over a task's full query
//!   set, one sentence at a time on both executors; the tape builds a
//!   fresh graph per sentence while `Infer` reuses one arena via
//!   mark/reset.
//! * `decode_per_task` — the end-to-end serving cost: the tape side runs
//!   `batch_loss`'s full forward (emissions + CRF partition), one sentence
//!   at a time, and the infer side runs `decode_task`: one batched pass
//!   over the whole query set (char-CNN over every token's windows at
//!   once, the BiGRU stepping all sentences together, emissions once over
//!   all rows, φ-conditioned context hoisted once) plus Viterbi per
//!   sentence. So the gap is tape bookkeeping, repeated context work and
//!   per-sentence op dispatch.
//!
//! After the criterion samples, a tokens/sec summary (the unit used by
//! `fewner predict` and the timing binary) is printed for the per-task
//! sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::EpisodeSampler;
use fewner_eval::Throughput;
use fewner_models::{encode_task, Conditioning, LabeledSentence, TokenEncoder};
use fewner_tensor::{Exec, Graph, Infer, ParamId, ParamStore, WeightFormat};
use fewner_text::TagSet;
use fewner_util::Rng;

struct Fixture {
    learner: fewner_core::Fewner,
    phi_store: ParamStore,
    phi_id: ParamId,
    query: Vec<LabeledSentence>,
    tags: TagSet,
}

/// A trained-shape FEWNER learner adapted to one 5-way 1-shot GENIA task.
fn fixture() -> Fixture {
    let d = DatasetProfile::genia().generate(0.01).unwrap();
    let split = split_types(&d, (18, 8, 10), 42).unwrap();
    let enc = TokenEncoder::build(&[&d], &fewner_bench::embedding_spec(), 4);
    let sampler = EpisodeSampler::new(&split.train, 5, 1, 6).unwrap();
    let task = sampler.sample(&mut Rng::new(5)).unwrap();
    let learner = fewner_core::Fewner::new(
        fewner_bench::backbone_config(5, Conditioning::Film),
        &enc,
        fewner_bench::meta_config(),
    )
    .unwrap();
    let (support, query) = encode_task(&enc, &task);
    let tags = task.tag_set();
    let (phi_store, phi_id, _) = learner.adapt_context(&support, &tags, 3).unwrap();
    Fixture {
        learner,
        phi_store,
        phi_id,
        query,
        tags,
    }
}

fn bench_forward_per_sentence(c: &mut Criterion) {
    let f = fixture();
    let sent = &f.query[0].0;
    let mut group = c.benchmark_group("forward_per_sentence");
    group.bench_function("tape", |b| {
        b.iter(|| {
            let g = Graph::eval();
            let phi = g.param(&f.phi_store, f.phi_id);
            let mut rng = Rng::new(0);
            let h = f
                .learner
                .backbone
                .hidden(&g, &f.learner.theta, Some(phi), sent, &mut rng);
            black_box(g.value(h))
        });
    });
    group.bench_function("infer", |b| {
        let ex = Infer::new();
        let mark = ex.mark();
        b.iter(|| {
            let phi = ex.param(&f.phi_store, f.phi_id);
            let mut rng = Rng::new(0);
            let h = f
                .learner
                .backbone
                .hidden(&ex, &f.learner.theta, Some(phi), sent, &mut rng);
            let out = black_box(ex.value(h));
            ex.reset_to(mark);
            out
        });
    });
    group.finish();
}

fn bench_forward_per_task(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("forward_per_task");
    group.bench_function("tape", |b| {
        b.iter(|| {
            // Pre-executor inference pattern: one fresh tape per sentence.
            for (sent, _) in &f.query {
                let g = Graph::eval();
                let phi = g.param(&f.phi_store, f.phi_id);
                let mut rng = Rng::new(0);
                let h = f
                    .learner
                    .backbone
                    .hidden(&g, &f.learner.theta, Some(phi), sent, &mut rng);
                black_box(g.value(h));
            }
        });
    });
    group.bench_function("infer", |b| {
        let ex = Infer::new();
        let mark = ex.mark();
        b.iter(|| {
            // Serving pattern: one arena, recycled between sentences.
            for (sent, _) in &f.query {
                let phi = ex.param(&f.phi_store, f.phi_id);
                let mut rng = Rng::new(0);
                let h = f
                    .learner
                    .backbone
                    .hidden(&ex, &f.learner.theta, Some(phi), sent, &mut rng);
                black_box(ex.value(h));
                ex.reset_to(mark);
            }
        });
    });
    group.finish();
}

fn bench_decode_per_task(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("decode_per_task");
    group.bench_function("tape_batch_loss_forward", |b| {
        b.iter(|| {
            let g = Graph::eval();
            let phi = g.param(&f.phi_store, f.phi_id);
            let mut rng = Rng::new(0);
            let loss = f.learner.backbone.batch_loss(
                &g,
                &f.learner.theta,
                Some(phi),
                &f.query,
                &f.tags,
                &mut rng,
            );
            black_box(g.value(loss).scalar_value())
        });
    });
    group.bench_function("infer_decode_task", |b| {
        b.iter(|| {
            black_box(f.learner.backbone.decode_task(
                &f.learner.theta,
                Some((&f.phi_store, f.phi_id)),
                f.query.iter().map(|(s, _)| s),
                &f.tags,
            ))
        });
    });
    // Quantized serving (`--weights i8`): same decode over a dequantized-i8
    // copy of θ — the F1 contract lives in tests/quantized_serving.rs, this
    // pins that the quantized path costs the same as f32 (it is plain f32
    // math after dequantization, not a slower integer path).
    let mut theta_i8 = f.learner.theta.clone();
    theta_i8.quantize_all(WeightFormat::I8);
    group.bench_function("infer_decode_task/i8_theta", |b| {
        b.iter(|| {
            black_box(f.learner.backbone.decode_task(
                &theta_i8,
                Some((&f.phi_store, f.phi_id)),
                f.query.iter().map(|(s, _)| s),
                &f.tags,
            ))
        });
    });
    group.finish();
}

/// Tokens/sec for the per-task sweeps, in `fewner predict`'s unit.
fn report_tokens_per_sec(_c: &mut Criterion) {
    let f = fixture();
    const REPS: usize = 30;

    let mut infer_t = Throughput::default();
    for _ in 0..REPS {
        let (paths, t) = fewner_eval::measure_predictions(|| {
            Ok(f.learner.backbone.decode_task(
                &f.learner.theta,
                Some((&f.phi_store, f.phi_id)),
                f.query.iter().map(|(s, _)| s),
                &f.tags,
            ))
        })
        .unwrap();
        black_box(paths);
        infer_t.merge(&t);
    }

    let mut tape_t = Throughput::default();
    for _ in 0..REPS {
        let (hs, t) = fewner_eval::measure_predictions(|| {
            Ok(f.query
                .iter()
                .map(|(sent, _)| {
                    let g = Graph::eval();
                    let phi = g.param(&f.phi_store, f.phi_id);
                    let mut rng = Rng::new(0);
                    let h =
                        f.learner
                            .backbone
                            .hidden(&g, &f.learner.theta, Some(phi), sent, &mut rng);
                    vec![0; g.value(h).rows()]
                })
                .collect())
        })
        .unwrap();
        black_box(hs);
        tape_t.merge(&t);
    }

    println!(
        "tokens_per_sec/infer_decode_task        {}",
        infer_t.render()
    );
    println!(
        "tokens_per_sec/tape_hidden_sweep        {}",
        tape_t.render()
    );
}

criterion_group! {
    name = inference;
    config = Criterion::default().sample_size(40);
    targets = bench_forward_per_sentence, bench_forward_per_task,
              bench_decode_per_task, report_tokens_per_sec
}
criterion_main!(inference);
