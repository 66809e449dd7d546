//! `fewner-perfbench` — end-to-end and per-layer benchmark of FEWNER
//! serving and meta-training. See `README.md` next to this crate for the
//! workloads, metric definitions and sizing.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_predict|serve_adapt|train|train_sharded> \
//!     [--seed 1] [--seconds 20] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it holds
//! run details (host facts, tail percentiles, failed checks). A run whose
//! outputs fail a check prints `"correct": false` and exits with status 1.

mod common;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{Catalogue, Host, Metrics};

const USAGE: &str =
    "usage: fewner-perfbench --workload <serve_predict|serve_adapt|train|train_sharded> \
[--seed <u64>, default 1] [--seconds <1..=600>, default 20] [--trace <0|1>, default 0]";

/// Per-layer values a traced run measured. `finish` reports them with the
/// units of `BENCHMARK.json` and fills every other catalogue entry with 0
/// (a layer that does no work on the workload). `*_share` is the layer's
/// time per operation over the workload's p50 operation time (serving) or
/// median iteration time (training).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Sets a layer time and its share: `value / share_of`, where
    /// `share_of` is the operation time in the layer metric's unit.
    pub fn set_with_share(
        &mut self,
        name: &'static str,
        share: &'static str,
        value: f64,
        share_of: f64,
    ) {
        self.set(name, value);
        self.set(
            share,
            if share_of > 0.0 {
                value / share_of
            } else {
                0.0
            },
        );
    }

    pub fn finish(
        mut self,
        catalogue: &[(String, String)],
        detail: Vec<(String, fewner::util::Json)>,
    ) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in catalogue {
            m.push(
                name.as_str(),
                unit.as_str(),
                self.0.remove(name.as_str()).unwrap_or(0.0),
            );
        }
        // A value the catalogue does not name is still reported, so that
        // the check in `report::print` catches the mismatch.
        for (name, value) in self.0 {
            m.push(name, "unknown", value);
        }
        m.detail = detail;
        m
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePredict,
    ServeAdapt,
    Train,
    TrainSharded,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "serve_predict" => Workload::ServePredict,
            "serve_adapt" => Workload::ServeAdapt,
            "train" => Workload::Train,
            "train_sharded" => Workload::TrainSharded,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePredict => "serve_predict",
            Workload::ServeAdapt => "serve_adapt",
            Workload::Train => "train",
            Workload::TrainSharded => "train_sharded",
        }
    }
}

/// What a run is asked to do: the parsed command line, plus the metric
/// catalogue every run reports against.
pub struct Args {
    pub workload: Workload,
    /// Seeds every generated input (default 1).
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    pub trace: bool,
    /// The metric catalogue read from `BENCHMARK.json`.
    pub catalogue: Catalogue,
}

impl Args {
    fn parse(argv: &[String], catalogue: Catalogue) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 20u64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}`")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds as f64,
            trace,
            catalogue,
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Run from the repository root, where `BENCHMARK.json` names the
    // metrics a run must report.
    let catalogue = match Catalogue::load(std::path::Path::new("BENCHMARK.json")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read the metric catalogue: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match Args::parse(&argv, catalogue) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `FEWNER_*` variables switch kernels, thread counts, timeouts and
    // fault injection inside the program: a run under any of them would
    // not measure the configuration the benchmark names.
    let overrides: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("FEWNER_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!("refusing to run with {} set", overrides.join(", "));
        return ExitCode::from(2);
    }
    let host = Host::start();
    let outcome =
        common::WorkDir::create(args.workload.name()).and_then(|work| match args.workload {
            Workload::ServePredict => serve::run(serve::Traffic::Predict, &args, &work),
            Workload::ServeAdapt => serve::run(serve::Traffic::Adapt, &args, &work),
            Workload::Train => train::run(false, &args, &work),
            Workload::TrainSharded => train::run(true, &args, &work),
        });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let expected = if args.trace {
        &args.catalogue.per_layer
    } else {
        &args.catalogue.end_to_end
    };
    if report::print(args.workload.name(), args.seed, &host, outcome, expected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn catalogue() -> Catalogue {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Catalogue::load(&path).expect("BENCHMARK.json parses")
    }

    #[test]
    fn catalogue_names_are_unique_and_name_setup_time() {
        let c = catalogue();
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(c.end_to_end.contains(&("setup_s".into(), "s".into())));
        assert!(!c.per_layer.is_empty() && c.per_layer.len() <= 128);
    }

    #[test]
    fn layers_report_the_catalogue_and_flag_unknown_names() {
        let c = catalogue();
        let mut layers = Layers::default();
        layers.set("serve.parse_us", 12.5);
        let (list, _) = layers.finish(&c.per_layer, Vec::new()).into_list();
        assert_eq!(list.len(), c.per_layer.len());
        let parse = list.iter().find(|m| m.name == "serve.parse_us").unwrap();
        assert_eq!((parse.unit.as_str(), parse.value), ("us", 12.5));
        let mut layers = Layers::default();
        layers.set("not.in_catalogue", 1.0);
        let (list, _) = layers.finish(&c.per_layer, Vec::new()).into_list();
        assert_eq!(list.len(), c.per_layer.len() + 1);
    }

    #[test]
    fn args_parse_strictly_with_documented_defaults() {
        let a = Args::parse(&argv("--workload train"), catalogue()).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Train, 1, 20.0, false)
        );
        let a = Args::parse(
            &argv("--workload serve_adapt --seed 9 --seconds 3 --trace 1"),
            catalogue(),
        )
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeAdapt, 9, 3.0, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload train --seed x",
            "--workload train --seconds 0",
            "--workload train --trace 2",
            "--workload train --bogus 1",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad), catalogue()).is_err(), "{bad:?}");
        }
    }
}
