//! Regenerates **Table 1**: dataset statistics (genre, #types, #sentences,
//! #mentions) for the six synthetic corpus profiles.
//!
//! At `--scale paper` the sentence counts match Table 1 exactly and the
//! mention counts match via the calibrated densities; smaller scales shrink
//! sentence counts proportionally.

use fewner_bench::{write_report, Scale};
use fewner_corpus::{AceDomain, DatasetProfile};
use fewner_util::{json, Json};

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table 1: dataset statistics (corpus scale {})\n",
        scale.corpus
    );
    println!(
        "{:<12} {:>10} {:>8} {:>11} {:>10} {:>14}",
        "Dataset", "Genre", "#Types", "#Sentences", "#Mentions", "Paper #Sent"
    );

    let mut rows = Vec::new();
    let profiles = vec![
        DatasetProfile::nne(),
        DatasetProfile::fg_ner(),
        DatasetProfile::genia(),
        DatasetProfile::ontonotes(),
        DatasetProfile::bionlp13cg(),
    ];
    for p in profiles {
        let d = p.generate(scale.corpus).expect("generation");
        let s = d.stats();
        println!(
            "{:<12} {:>10} {:>8} {:>11} {:>10} {:>14}",
            p.name,
            d.genre.name(),
            s.types,
            s.sentences,
            s.mentions,
            p.n_sentences
        );
        rows.push(json!({
            "dataset": p.name, "genre": d.genre.name(), "types": s.types,
            "sentences": s.sentences, "mentions": s.mentions,
            "paper_sentences": p.n_sentences,
        }));
    }
    // ACE2005 is the union of its six domains.
    let mut total = (0usize, 0usize);
    for dom in AceDomain::ALL {
        let p = DatasetProfile::ace2005(dom);
        let d = p.generate(scale.corpus).expect("generation");
        let s = d.stats();
        total.0 += s.sentences;
        total.1 += s.mentions;
    }
    println!(
        "{:<12} {:>10} {:>8} {:>11} {:>10} {:>14}",
        "ACE2005", "Various", 54, total.0, total.1, 17_399
    );
    rows.push(json!({
        "dataset": "ACE2005", "genre": "Various", "types": 54,
        "sentences": total.0, "mentions": total.1, "paper_sentences": 17_399,
    }));

    let path = write_report("table1.json", &Json::Arr(rows).to_string_pretty()).expect("report");
    println!("\nwrote {}", path.display());
}
