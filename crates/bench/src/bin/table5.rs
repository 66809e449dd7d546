//! Regenerates **Table 5**: the ablation study on NNE intra-domain
//! cross-type adaptation.
//!
//! Variants, as in the paper:
//! * conditioning method A (concatenation) instead of B (FiLM);
//! * removing the character CNN;
//! * more inner gradient steps during training;
//! * halving / doubling the φ dimensionality;
//! * training with 3 / 10 / 15 ways while always testing 5-way (these rows
//!   use the way-agnostic slot-shared CRF head; a slot-shared 5-way row is
//!   included as their reference point).

use fewner_bench::{
    backbone_config, embedding_spec, meta_config, score_learner, train_learner, write_report, Cell,
    Scale,
};
use fewner_core::{Fewner, MetaConfig};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_eval::Table;
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_util::ci95;

struct Variant {
    name: &'static str,
    bb: BackboneConfig,
    meta: MetaConfig,
    train_ways: usize,
}

fn main() {
    let scale = Scale::from_env();
    let d = DatasetProfile::nne().generate(scale.corpus).expect("NNE");
    let split = split_types(&d, (52, 10, 15), 42).expect("split");
    let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);

    let base_bb = backbone_config(5, Conditioning::Film);
    let base_meta = meta_config();
    let slot_shared = HeadKind::SlotShared {
        slot_dim: 12,
        max_slots: 16,
    };

    let mut variants = vec![
        Variant {
            name: "FewNER (default)",
            bb: base_bb.clone(),
            meta: base_meta.clone(),
            train_ways: 5,
        },
        Variant {
            name: "Conditioning method A",
            bb: BackboneConfig {
                conditioning: Conditioning::ConcatInput,
                ..base_bb.clone()
            },
            meta: base_meta.clone(),
            train_ways: 5,
        },
        Variant {
            name: "Remove character CNN",
            bb: BackboneConfig {
                use_char_cnn: false,
                ..base_bb.clone()
            },
            meta: base_meta.clone(),
            train_ways: 5,
        },
    ];
    for steps in [4usize, 6, 8] {
        variants.push(Variant {
            name: match steps {
                4 => "Inner gradient steps: 4",
                6 => "Inner gradient steps: 6",
                _ => "Inner gradient steps: 8",
            },
            bb: base_bb.clone(),
            meta: MetaConfig {
                inner_steps_train: steps,
                ..base_meta.clone()
            },
            train_ways: 5,
        });
    }
    for phi in [12usize, 48] {
        variants.push(Variant {
            name: if phi == 12 {
                "Dimensions of phi: half"
            } else {
                "Dimensions of phi: double"
            },
            bb: BackboneConfig {
                phi_dim: phi,
                ..base_bb.clone()
            },
            meta: base_meta.clone(),
            train_ways: 5,
        });
    }
    variants.push(Variant {
        name: "Slot-shared head (5-way ref)",
        bb: BackboneConfig {
            head: slot_shared,
            ..base_bb.clone()
        },
        meta: base_meta.clone(),
        train_ways: 5,
    });
    for ways in [3usize, 10, 15] {
        variants.push(Variant {
            name: match ways {
                3 => "Training way: 3",
                10 => "Training way: 10",
                _ => "Training way: 15",
            },
            bb: BackboneConfig {
                head: slot_shared,
                ..base_bb.clone()
            },
            meta: base_meta.clone(),
            train_ways: ways,
        });
    }

    let mut table = Table::new(
        "Table 5: ablation study on NNE (tested 5-way)",
        vec!["1-shot".into(), "5-shot".into()],
    );
    for v in &variants {
        let mut cells = Vec::new();
        for k in [1usize, 5] {
            let train_cell = Cell {
                train: &split.train,
                test: &split.test,
                enc: &enc,
                n_ways: v.train_ways,
                k_shots: k,
            };
            let eval_cell = Cell {
                train: &split.train,
                test: &split.test,
                enc: &enc,
                n_ways: 5,
                k_shots: k,
            };
            let mut learner = Fewner::new(v.bb.clone(), &enc, v.meta.clone()).expect("build");
            train_learner(&mut learner, &train_cell, &scale, &v.meta).expect("train");
            let f1 = ci95(&score_learner(&learner, &eval_cell, &scale).expect("eval"));
            eprintln!("{} {k}-shot: {}", v.name, f1.as_percent());
            cells.push(f1.into());
        }
        table.push_row(v.name, cells);
    }
    println!("\n{}", table.render());
    let path = write_report("table5.json", &table.to_json()).expect("report");
    println!("wrote {}", path.display());
}
