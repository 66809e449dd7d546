//! `fewner-bench` — the benchmark harness that regenerates every table in
//! the paper's evaluation section.
//!
//! Binaries (`cargo run -p fewner-bench --release --bin <name>`):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | dataset statistics |
//! | `table2` | intra-domain cross-type adaptation |
//! | `table3` | cross-domain intra-type adaptation (ACE2005) |
//! | `table4` | cross-domain cross-type adaptation |
//! | `table5` | ablations on NNE |
//! | `table6` | qualitative analysis |
//! | `timing` | §4.5.2 time-consumption analysis |
//!
//! The table binaries accept `--scale smoke|small|paper`, `--episodes N`
//! and `--iterations N` ([`Scale::from_env`]) and refuse any other
//! argument, naming it, before any work; results are printed and written
//! to `reports/*.json`. `serve_load`, the load generator for `fewner
//! serve`, likewise refuses a flag it does not take or a value that does
//! not parse.
//!
//! Every scored cell goes through one of two runners, both returning
//! per-episode F1 scores in episode order: [`run_method`] builds,
//! meta-trains and scores a method; [`score_learner`] scores an
//! already-trained learner (Table 5's variants, the encoder ablation).
//! Episodes are scored on all cores, as training runs. [`cell_stat`] turns
//! a runner's outcome into a table cell, a skipped cell into a NaN mean
//! with `n` 0.

#![warn(missing_docs)]

pub mod harness;

pub use harness::{
    backbone_config, build_method, cell_stat, embedding_spec, meta_config, run_method,
    score_learner, train_learner, Cell, Method, Scale, EVAL_SEED,
};

/// Writes a report JSON file under `reports/`, creating the directory.
pub fn write_report(name: &str, json: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("reports");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, json)?;
    Ok(path)
}
