//! Regenerates **Table 6**: qualitative analysis — positive and negative
//! 5-way 1-shot predictions produced by FEWNER across the three adaptation
//! scenarios, printed in the paper's bracketed-entity notation.

use fewner_bench::{
    backbone_config, embedding_spec, meta_config, train_learner, write_report, Cell, Scale,
};
use fewner_core::{EpisodicLearner, Fewner};
use fewner_corpus::{full_view, holdout_target, split_types, DatasetProfile};
use fewner_eval::{qualitative_line, DetectionVsTyping, ErrorBreakdown};
use fewner_models::{Conditioning, TokenEncoder};
use fewner_text::Tag;

fn main() {
    let scale = Scale::from_env();
    let mut report = Vec::new();

    // Scenario 1: intra-domain cross-type (GENIA → GENIA novel types).
    {
        let d = DatasetProfile::genia()
            .generate(scale.corpus)
            .expect("GENIA");
        let split = split_types(&d, (18, 8, 10), 42).expect("split");
        let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
        run_scenario(
            "GENIA → GENIA",
            &split.train,
            &split.test,
            &enc,
            &d,
            &scale,
            &mut report,
        );
    }
    // Scenario 2: cross-domain cross-type (OntoNotes → BioNLP13CG).
    {
        let src = DatasetProfile::ontonotes()
            .generate(scale.corpus)
            .expect("Onto");
        let dst = DatasetProfile::bionlp13cg()
            .generate(scale.corpus)
            .expect("BioNLP");
        let train = full_view(&src);
        let (_, test) = holdout_target(&dst, 11).expect("holdout");
        let enc = TokenEncoder::build(&[&src, &dst], &embedding_spec(), 4);
        run_scenario(
            "OntoNotes → BioNLP13CG",
            &train,
            &test,
            &enc,
            &dst,
            &scale,
            &mut report,
        );
    }

    let text = report.join("\n");
    println!("{text}");
    let path = write_report("table6.txt", &text).expect("report");
    println!("\nwrote {}", path.display());
}

fn run_scenario(
    name: &str,
    train: &fewner_corpus::SplitView,
    test: &fewner_corpus::SplitView,
    enc: &TokenEncoder,
    target: &fewner_corpus::Dataset,
    scale: &Scale,
    report: &mut Vec<String>,
) {
    let meta = meta_config();
    let mut learner =
        Fewner::new(backbone_config(5, Conditioning::Film), enc, meta.clone()).expect("build");
    let cell = Cell {
        train,
        test,
        enc,
        n_ways: 5,
        k_shots: 1,
    };
    train_learner(&mut learner, &cell, scale, &meta).expect("train");

    let sampler =
        fewner_episode::EpisodeSampler::new(test, 5, 1, scale.query_size).expect("sampler");
    let tasks = sampler
        .eval_set(fewner_bench::EVAL_SEED, 3)
        .expect("eval set");
    report.push(format!("== {name} (5-way 1-shot) =="));
    let mut breakdown = ErrorBreakdown::default();
    let mut det = DetectionVsTyping::default();
    for task in &tasks {
        let preds = learner.adapt_and_predict(task, enc).expect("predict");
        let tags = task.tag_set();
        for (i, (pred_idx, sent)) in preds.iter().zip(&task.query).enumerate() {
            let pred: Vec<Tag> = pred_idx.iter().map(|&i| tags.tag(i)).collect();
            breakdown.add_tags(&sent.tags, &pred);
            det.add_tags(&sent.tags, &pred);
            if i < 2 {
                report.push(qualitative_line(&sent.tokens, &sent.tags, &pred, |slot| {
                    target.type_name(task.slot_types[slot]).to_string()
                }));
            }
        }
    }
    // §4.5.3: errors should be dominated by boundaries/misses, not typing.
    report.push(format!("error breakdown: {}", breakdown.render()));
    report.push(format!(
        "strict F1 {:.2}% vs detection-only F1 {:.2}% (typing gap {:.2})",
        det.strict.f1() * 100.0,
        det.detection.f1() * 100.0,
        det.typing_gap()
    ));
    report.push(String::new());
}
