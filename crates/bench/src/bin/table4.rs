//! Regenerates **Table 4**: cross-domain cross-type adaptation —
//! GENIA → BioNLP13CG, OntoNotes → BioNLP13CG, OntoNotes → FG-NER.
//! Training episodes come entirely from the source corpus; 20 % of the
//! target is held out for validation and the remaining 80 % is the test
//! pool (§4.4.1).

use fewner_bench::{cell_stat, embedding_spec, run_method, write_report, Cell, Method, Scale};
use fewner_corpus::{full_view, holdout_target, DatasetProfile};
use fewner_eval::Table;
use fewner_models::TokenEncoder;

fn main() {
    let scale = Scale::from_env();
    // (source, target, label, target corpus multiplier) — the small target
    // corpora need a boost at reduced scales for 5-shot construction.
    let pairs = [
        (
            DatasetProfile::genia(),
            DatasetProfile::bionlp13cg(),
            "GENIA→BioNLP",
            4.0f64,
        ),
        (
            DatasetProfile::ontonotes(),
            DatasetProfile::bionlp13cg(),
            "Onto→BioNLP",
            4.0,
        ),
        (
            DatasetProfile::ontonotes(),
            DatasetProfile::fg_ner(),
            "Onto→FG-NER",
            25.0,
        ),
    ];

    let mut columns = Vec::new();
    for (_, _, name, _) in &pairs {
        columns.push(format!("{name} 1-shot"));
        columns.push(format!("{name} 5-shot"));
    }
    let mut table = Table::new(
        "Table 4: cross-domain cross-type adaptation (5-way)",
        columns,
    );
    let mut per_method: Vec<(Method, Vec<fewner_eval::Cell>)> =
        Method::all().into_iter().map(|m| (m, Vec::new())).collect();

    for (src_profile, dst_profile, name, mult) in &pairs {
        let source = src_profile.generate(scale.corpus).expect("source");
        let target = dst_profile
            .generate((scale.corpus * mult).min(1.0))
            .expect("target");
        let train = full_view(&source);
        let (_val, test) = holdout_target(&target, 11).expect("holdout");
        let enc = TokenEncoder::build(&[&source, &target], &embedding_spec(), 4);
        for k in [1usize, 5] {
            let cell = Cell {
                train: &train,
                test: &test,
                enc: &enc,
                n_ways: 5,
                k_shots: k,
            };
            for (method, cells) in per_method.iter_mut() {
                let t0 = std::time::Instant::now();
                let f1 = cell_stat(&run_method(*method, &cell, &scale));
                eprintln!(
                    "{name} {}-shot {:>9}: {}  ({:.0}s)",
                    k,
                    method.name(),
                    f1.as_percent(),
                    t0.elapsed().as_secs_f64()
                );
                cells.push(f1.into());
            }
        }
    }
    for (method, cells) in per_method {
        table.push_row(method.name(), cells);
    }
    println!("\n{}", table.render());
    let path = write_report("table4.json", &table.to_json()).expect("report");
    println!("wrote {}", path.display());
}
