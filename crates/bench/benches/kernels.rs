//! Criterion micro-benchmarks for the computational kernels behind the
//! paper's timing analysis (§4.5.2): forward/backward of the backbone's
//! layers, the CRF recursions, Viterbi decoding and one FEWNER inner-loop
//! step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::EpisodeSampler;
use fewner_models::{encode_task, viterbi, TokenEncoder};
use fewner_tensor::array::matmul_into;
use fewner_tensor::nn::BiGru;
use fewner_tensor::{kernels, Array, Exec, Graph, ParamStore};
use fewner_text::TagSet;
use fewner_util::Rng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let a = Array::uniform(64, 64, -1.0, 1.0, &mut rng);
    let b = Array::uniform(64, 64, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()));
    });
    // The allocation-free kernel at a square shape, a shape past the
    // L1-friendly sizes, and a BiGRU-sized one (14 tokens, 96 → 48).
    for (m, k, n) in [(64, 64, 64), (128, 128, 128), (14, 96, 48)] {
        let a = Array::uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Array::uniform(k, n, -1.0, 1.0, &mut rng);
        let mut out = Array::zeros(m, n);
        c.bench_function(&format!("matmul_{m}x{k}x{n}"), |bench| {
            bench.iter(|| {
                matmul_into(&a, &b, &mut out, false);
                black_box(out.at(0, 0))
            });
        });
    }
}

/// A tape backward through 30 steps of the BiGRU's step matmuls: 6
/// sentences, input 48, hidden 24, three gates. Every step reads the same
/// two weights, so the sweep's `grad · Wᵀ` runs at `[6×72]·[48×72]ᵀ` and
/// `[6×72]·[24×72]ᵀ` over transposes it makes once.
fn bench_matmul_backward(c: &mut Criterion) {
    let mut rng = Rng::new(7);
    let mut store = ParamStore::new();
    let wx = store.add("wx", Array::uniform(48, 72, -0.2, 0.2, &mut rng));
    let wh = store.add("wh", Array::uniform(24, 72, -0.2, 0.2, &mut rng));
    let x = store.add("x", Array::uniform(6, 48, -1.0, 1.0, &mut rng));
    let h0 = Array::uniform(6, 24, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_backward_30_steps_6x48x24x72", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let (wx, wh, x) = (g.param(&store, wx), g.param(&store, wh), g.param(&store, x));
            let mut h = g.constant(h0.clone());
            for _ in 0..30 {
                let z = g.add(g.matmul(x, wx), g.matmul(h, wh));
                h = g.slice_cols(g.tanh(z), 0, 24);
            }
            let loss = g.sum_all(h);
            black_box(g.backward(loss).unwrap().for_store(&store));
        });
    });
}

fn bench_pointwise_kernels(c: &mut Criterion) {
    let mut rng = Rng::new(6);
    let scores = Array::uniform(128, 32, -4.0, 4.0, &mut rng);
    c.bench_function("logsumexp_cols_128x32", |bench| {
        bench.iter(|| black_box(kernels::logsumexp_cols(&scores)));
    });
    c.bench_function("log_softmax_rows_128x32", |bench| {
        bench.iter(|| black_box(kernels::log_softmax_rows(&scores)));
    });
}

fn bench_bigru(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let mut store = ParamStore::new();
    let gru = BiGru::new(&mut store, "g", 48, 24, &mut rng);
    let x = Array::uniform(14, 48, -1.0, 1.0, &mut rng);
    c.bench_function("bigru_forward_L14", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            black_box(g.value(gru.apply(&g, &store, xv, &[14])));
        });
    });
    c.bench_function("bigru_forward_backward_L14", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            let h = gru.apply(&g, &store, xv, &[14]);
            let loss = g.mean_all(g.mul(h, h));
            black_box(g.backward(loss).unwrap().for_store(&store));
        });
    });
}

fn bench_crf(c: &mut Criterion) {
    let mut rng = Rng::new(3);
    let tags = TagSet::new(5).unwrap();
    let t = tags.len();
    let emissions = Array::uniform(14, t, -1.0, 1.0, &mut rng);
    let trans = Array::uniform(t, t, -1.0, 1.0, &mut rng);
    let start = Array::uniform(1, t, -1.0, 1.0, &mut rng);
    let gold: Vec<usize> = vec![0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0, 0];

    c.bench_function("crf_nll_forward_backward_L14_T11", |bench| {
        bench.iter(|| {
            let mut store = ParamStore::new();
            let e_id = store.add("e", emissions.clone());
            let g = Graph::new();
            let e = g.param(&store, e_id);
            let tr = g.constant(trans.clone());
            let s = g.constant(start.clone());
            let nll = fewner_models::crf_nll(&g, e, tr, s, &gold);
            black_box(g.backward(nll).unwrap());
        });
    });
    c.bench_function("viterbi_L14_T11", |bench| {
        bench.iter(|| black_box(viterbi(emissions.data(), &trans, &start, &tags)));
    });
}

fn bench_inner_loop(c: &mut Criterion) {
    // One FEWNER inner-loop φ step on a real 5-way 1-shot support set —
    // the paper reports 0.04 s per inner loop on a V100 (§4.5.2).
    let d = DatasetProfile::genia().generate(0.01).unwrap();
    let split = split_types(&d, (18, 8, 10), 42).unwrap();
    let enc = TokenEncoder::build(&[&d], &fewner_bench::embedding_spec(), 4);
    let sampler = EpisodeSampler::new(&split.train, 5, 1, 4).unwrap();
    let task = sampler.sample(&mut Rng::new(5)).unwrap();
    let learner = fewner_core::Fewner::new(
        fewner_bench::backbone_config(5, fewner_models::Conditioning::Film),
        &enc,
        fewner_bench::meta_config(),
    )
    .unwrap();
    let (support, _) = encode_task(&enc, &task);
    let tags = task.tag_set();
    c.bench_function("fewner_inner_step_5way_1shot", |bench| {
        bench.iter(|| {
            black_box(learner.adapt_context(&support, &tags, 1).unwrap());
        });
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_matmul_backward, bench_pointwise_kernels, bench_bigru, bench_crf, bench_inner_loop
}
criterion_main!(kernels);
