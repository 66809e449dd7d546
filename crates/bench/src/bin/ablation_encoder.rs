//! Architectural-choice analysis (paper §1, §3.2.2): the backbone is
//! "model-agnostic"; the BiGRU was chosen for computational cost. This
//! binary compares FEWNER with a BiGRU vs a BiLSTM context encoder on the
//! GENIA intra-domain cell — same θ/φ mechanics, same episodes.

use std::time::Instant;

use fewner_bench::{
    backbone_config, embedding_spec, meta_config, score_learner, train_learner, write_report, Cell,
    Scale,
};
use fewner_core::Fewner;
use fewner_corpus::{split_types, DatasetProfile};
use fewner_models::{BackboneConfig, Conditioning, EncoderKind, TokenEncoder};
use fewner_util::ci95;

fn main() {
    let scale = Scale::from_env();
    let d = DatasetProfile::genia()
        .generate(scale.corpus)
        .expect("GENIA");
    let split = split_types(&d, (18, 8, 10), 42).expect("split");
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);

    let mut lines = vec!["Encoder ablation, GENIA intra-domain 5-way:".to_string()];
    for (name, kind) in [
        ("BiGRU", EncoderKind::BiGru),
        ("BiLSTM", EncoderKind::BiLstm),
    ] {
        for k in [1usize, 5] {
            let bb = BackboneConfig {
                encoder: kind,
                ..backbone_config(5, Conditioning::Film)
            };
            let meta = meta_config();
            let mut learner = Fewner::new(bb, &enc, meta.clone()).expect("build");
            let cell = Cell {
                train: &split.train,
                test: &split.test,
                enc: &enc,
                n_ways: 5,
                k_shots: k,
            };
            let t0 = Instant::now();
            train_learner(&mut learner, &cell, &scale, &meta).expect("train");
            let train_secs = t0.elapsed().as_secs_f64();
            let f1 = ci95(&score_learner(&learner, &cell, &scale).expect("eval"));
            let line = format!(
                "  {name:<6} {k}-shot: F1 {}  (train {train_secs:.0}s)",
                f1.as_percent()
            );
            println!("{line}");
            lines.push(line);
        }
    }
    let path = write_report("ablation_encoder.txt", &lines.join("\n")).expect("report");
    println!("wrote {}", path.display());
}
