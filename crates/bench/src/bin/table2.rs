//! Regenerates **Table 2**: intra-domain cross-type adaptation on NNE,
//! FG-NER and GENIA — 5-way 1-shot and 5-shot, all ten methods, average
//! episode F1 ± 95 % CI on the seed-fixed evaluation task set.
//!
//! Type splits follow §4.2.1: 52/10/15 (NNE), 163/15/20 (FG-NER),
//! 18/8/10 (GENIA); test types never appear during training.

use fewner_bench::{cell_stat, embedding_spec, run_method, write_report, Cell, Method, Scale};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_eval::paired_compare;
use fewner_eval::Table;
use fewner_models::TokenEncoder;

fn main() {
    let scale = Scale::from_env();
    // Corpus multipliers keep every dataset's *test split* big enough for
    // 5-shot episode construction at reduced scales (FG-NER has only ~20
    // sentences per test type at 4 % scale otherwise).
    let datasets = [
        (DatasetProfile::nne(), (52usize, 10usize, 15usize), 2.0f64),
        (DatasetProfile::fg_ner(), (163, 15, 20), 25.0),
        (DatasetProfile::genia(), (18, 8, 10), 1.0),
    ];

    let mut columns = Vec::new();
    for (p, _, _) in &datasets {
        columns.push(format!("{} 1-shot", p.name));
        columns.push(format!("{} 5-shot", p.name));
    }
    let mut table = Table::new(
        "Table 2: intra-domain cross-type adaptation (5-way)",
        columns,
    );

    // Per method: table cells plus the per-episode scores behind them
    // (needed for the paired significance tests the paper reports).
    let mut per_method: Vec<(Method, Vec<fewner_eval::Cell>, Vec<Vec<f64>>)> = Method::all()
        .into_iter()
        .map(|m| (m, Vec::new(), Vec::new()))
        .collect();

    for (profile, counts, mult) in &datasets {
        let d = profile
            .generate((scale.corpus * mult).min(1.0))
            .expect("generation");
        let split = split_types(&d, *counts, 42).expect("split");
        let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
        for k in [1usize, 5] {
            let cell = Cell {
                train: &split.train,
                test: &split.test,
                enc: &enc,
                n_ways: 5,
                k_shots: k,
            };
            for (method, cells, scores) in per_method.iter_mut() {
                let t0 = std::time::Instant::now();
                let outcome = run_method(*method, &cell, &scale);
                let f1 = cell_stat(&outcome);
                eprintln!(
                    "{} {}-shot {:>9}: {}  ({:.0}s)",
                    profile.name,
                    k,
                    method.name(),
                    f1.as_percent(),
                    t0.elapsed().as_secs_f64()
                );
                cells.push(f1.into());
                // A skipped cell has no scores, so its significance is n/a.
                scores.push(outcome.unwrap_or_default());
            }
        }
    }
    let fewner_scores = per_method
        .iter()
        .find(|(m, _, _)| *m == Method::FewNer)
        .map(|(_, _, s)| s.clone())
        .expect("FewNER row");
    for (method, cells, _) in &per_method {
        table.push_row(method.name(), cells.clone());
    }
    println!("\n{}", table.render());

    // Paired significance: FEWNER vs every baseline, per column (paper's
    // "significant margins" claim, testable because episodes are shared).
    println!("Paired significance (FewNER − baseline), p < 0.05 marked *:");
    for (method, _, scores) in &per_method {
        if *method == Method::FewNer {
            continue;
        }
        let mut line = format!("  vs {:>9}:", method.name());
        for (col, baseline) in scores.iter().enumerate() {
            if baseline.len() != fewner_scores[col].len() || baseline.len() < 2 {
                line.push_str("      n/a");
                continue;
            }
            match paired_compare(&fewner_scores[col], baseline, 17) {
                Ok(c) => {
                    line.push_str(&format!(
                        " {:+5.1}{}",
                        c.mean_diff * 100.0,
                        if c.significant_at(0.05) { "*" } else { " " }
                    ));
                }
                Err(_) => line.push_str("      n/a"),
            }
        }
        println!("{line}");
    }
    let path = write_report("table2.json", &table.to_json()).expect("report");
    println!("wrote {}", path.display());
}
