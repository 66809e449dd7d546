//! Criterion smoke benchmarks: one per paper table, exercising the exact
//! pipeline the corresponding `table*` binary runs at full scale. These
//! exist so `cargo bench --workspace` touches every experiment's code path
//! and tracks its cost over time; the real numbers come from the binaries
//! (see `fewner-bench`'s crate docs and EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fewner_bench::{embedding_spec, run_method, Cell, Method, Scale};
use fewner_corpus::{
    full_view, holdout_target, split_sentences, split_types, AceDomain, DatasetProfile,
};
use fewner_models::TokenEncoder;

fn table1_smoke(c: &mut Criterion) {
    c.bench_function("table1_corpus_stats", |b| {
        b.iter(|| {
            let d = DatasetProfile::genia().generate(0.01).unwrap();
            black_box(d.stats());
        });
    });
}

fn table2_smoke(c: &mut Criterion) {
    let d = DatasetProfile::genia().generate(0.01).unwrap();
    let split = split_types(&d, (18, 8, 10), 42).unwrap();
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
    let scale = Scale::smoke();
    c.bench_function("table2_intra_domain_cell_fewner", |b| {
        b.iter(|| {
            let cell = Cell {
                train: &split.train,
                test: &split.test,
                enc: &enc,
                n_ways: 5,
                k_shots: 1,
            };
            black_box(run_method(Method::FewNer, &cell, &scale).unwrap());
        });
    });
}

fn table3_smoke(c: &mut Criterion) {
    let src = DatasetProfile::ace2005(AceDomain::Bn)
        .generate(0.06)
        .unwrap();
    let dst = DatasetProfile::ace2005(AceDomain::Cts)
        .generate(0.06)
        .unwrap();
    let src_split = split_sentences(&src, (8.0, 1.0, 1.0), 7).unwrap();
    let dst_split = split_sentences(&dst, (8.0, 1.0, 1.0), 7).unwrap();
    let enc = TokenEncoder::build(&[&src, &dst], &embedding_spec(), 4);
    let scale = Scale::smoke();
    c.bench_function("table3_cross_domain_cell_fewner", |b| {
        b.iter(|| {
            let cell = Cell {
                train: &src_split.train,
                test: &dst_split.test,
                enc: &enc,
                n_ways: 5,
                k_shots: 1,
            };
            black_box(run_method(Method::FewNer, &cell, &scale).unwrap());
        });
    });
}

fn table4_smoke(c: &mut Criterion) {
    let src = DatasetProfile::genia().generate(0.01).unwrap();
    let dst = DatasetProfile::bionlp13cg().generate(0.04).unwrap();
    let train = full_view(&src);
    let (_v, test) = holdout_target(&dst, 11).unwrap();
    let enc = TokenEncoder::build(&[&src, &dst], &embedding_spec(), 4);
    let scale = Scale::smoke();
    c.bench_function("table4_cross_type_cell_fewner", |b| {
        b.iter(|| {
            let cell = Cell {
                train: &train,
                test: &test,
                enc: &enc,
                n_ways: 5,
                k_shots: 1,
            };
            black_box(run_method(Method::FewNer, &cell, &scale).unwrap());
        });
    });
}

fn table5_smoke(c: &mut Criterion) {
    // The ablation that matters most in the paper: with vs without the
    // character CNN.
    let d = DatasetProfile::nne().generate(0.004).unwrap();
    let split = split_types(&d, (52, 10, 15), 42).unwrap();
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
    let scale = Scale::smoke();
    let mut group = c.benchmark_group("table5_ablation");
    for (name, use_cnn) in [("with_char_cnn", true), ("without_char_cnn", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut bb = fewner_bench::backbone_config(5, fewner_models::Conditioning::Film);
                bb.use_char_cnn = use_cnn;
                let meta = fewner_bench::meta_config();
                let mut learner = fewner_core::Fewner::new(bb, &enc, meta.clone()).unwrap();
                let cell = Cell {
                    train: &split.train,
                    test: &split.test,
                    enc: &enc,
                    n_ways: 5,
                    k_shots: 1,
                };
                fewner_bench::train_learner(&mut learner, &cell, &scale, &meta).unwrap();
                black_box(fewner_bench::score_learner(&learner, &cell, &scale).unwrap());
            });
        });
    }
    group.finish();
}

fn table6_smoke(c: &mut Criterion) {
    // Qualitative path: adapt + render bracketed predictions.
    let d = DatasetProfile::genia().generate(0.01).unwrap();
    let split = split_types(&d, (18, 8, 10), 42).unwrap();
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
    let meta = fewner_bench::meta_config();
    let learner = fewner_core::Fewner::new(
        fewner_bench::backbone_config(5, fewner_models::Conditioning::Film),
        &enc,
        meta,
    )
    .unwrap();
    let sampler = fewner_episode::EpisodeSampler::new(&split.test, 5, 1, 4).unwrap();
    let task = sampler
        .eval_set(fewner_bench::EVAL_SEED, 1)
        .unwrap()
        .remove(0);
    c.bench_function("table6_qualitative_adapt_and_render", |b| {
        b.iter(|| {
            use fewner_core::EpisodicLearner as _;
            let preds = learner.adapt_and_predict(&task, &enc).unwrap();
            let tags = task.tag_set();
            let mut lines = Vec::new();
            for (pred_idx, sent) in preds.iter().zip(&task.query) {
                let pred: Vec<fewner_text::Tag> = pred_idx.iter().map(|&i| tags.tag(i)).collect();
                lines.push(fewner_eval::qualitative_line(
                    &sent.tokens,
                    &sent.tags,
                    &pred,
                    |s| format!("slot{s}"),
                ));
            }
            black_box(lines);
        });
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(10);
    targets = table1_smoke, table2_smoke, table3_smoke, table4_smoke, table5_smoke, table6_smoke
}
criterion_main!(tables);
