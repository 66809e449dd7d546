//! Quick calibration: one intra-domain cross-type cell (GENIA profile),
//! all methods, small scale — prints F1 per method to sanity-check the
//! reproduction shape before running the full tables.

use fewner_bench::{embedding_spec, run_method, Cell, Method, Scale};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_models::TokenEncoder;
use fewner_util::ci95;

fn main() {
    let scale = Scale::from_env();
    let d = DatasetProfile::genia().generate(scale.corpus).unwrap();
    let split = split_types(&d, (18, 8, 10), 42).unwrap();
    eprintln!(
        "corpus: {} sentences; train {} / test {} sentences",
        d.sentences.len(),
        split.train.len(),
        split.test.len()
    );
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
    for k in [1usize, 5] {
        let cell = Cell {
            train: &split.train,
            test: &split.test,
            enc: &enc,
            n_ways: 5,
            k_shots: k,
        };
        for m in [
            Method::FineTune,
            Method::ProtoNet,
            Method::Maml,
            Method::Snail,
            Method::FewNer,
            Method::Lm(fewner_models::LmFlavor::Bert),
        ] {
            let t0 = std::time::Instant::now();
            let f1 = ci95(&run_method(m, &cell, &scale).unwrap());
            println!(
                "{}-shot {:>9}: {}  ({:.1}s)",
                k,
                m.name(),
                f1.as_percent(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
}
