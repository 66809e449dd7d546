//! Regenerates **Table 3**: cross-domain intra-type adaptation on ACE2005
//! (54 fine-grained types shared across domains; nested annotations
//! flattened to the innermost span). Three adaptations: BC → UN,
//! BN → CTS, NW → WL; 8/1/1 sentence splits per domain (§4.3.1).

use fewner_bench::{cell_stat, embedding_spec, run_method, write_report, Cell, Method, Scale};
use fewner_corpus::{split_sentences, AceDomain, DatasetProfile};
use fewner_eval::Table;
use fewner_models::TokenEncoder;

fn main() {
    let scale = Scale::from_env();
    let pairs = [
        (AceDomain::Bc, AceDomain::Un, "BC→UN"),
        (AceDomain::Bn, AceDomain::Cts, "BN→CTS"),
        (AceDomain::Nw, AceDomain::Wl, "NW→WL"),
    ];

    let mut columns = Vec::new();
    for (_, _, name) in &pairs {
        columns.push(format!("{name} 1-shot"));
        columns.push(format!("{name} 5-shot"));
    }
    let mut table = Table::new(
        "Table 3: cross-domain intra-type adaptation on ACE2005 (5-way)",
        columns,
    );
    let mut per_method: Vec<(Method, Vec<fewner_eval::Cell>)> =
        Method::all().into_iter().map(|m| (m, Vec::new())).collect();

    for (src, dst, name) in &pairs {
        // ACE domains hold only ~2–4k sentences at full scale; a ×25
        // multiplier keeps reduced-scale splits rich enough for 5-shot
        // episode construction.
        let ace_scale = (scale.corpus * 25.0).min(1.0);
        let source = DatasetProfile::ace2005(*src)
            .generate(ace_scale)
            .expect("source generation");
        let target = DatasetProfile::ace2005(*dst)
            .generate(ace_scale)
            .expect("target generation");
        // 8/1/1 per domain; train on the source train portion, evaluate on
        // the target test portion. Types are shared (intra-type).
        let src_split = split_sentences(&source, (8.0, 1.0, 1.0), 7).expect("split");
        let dst_split = split_sentences(&target, (8.0, 1.0, 1.0), 7).expect("split");
        let enc = TokenEncoder::build(&[&source, &target], &embedding_spec(), 4);
        for k in [1usize, 5] {
            let cell = Cell {
                train: &src_split.train,
                test: &dst_split.test,
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
    let path = write_report("table3.json", &table.to_json()).expect("report");
    println!("wrote {}", path.display());
}
