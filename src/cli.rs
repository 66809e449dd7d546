//! Shared command-line conventions for the `fewner` binary and tools.
//!
//! One place defines flag parsing, the unified flag vocabulary (`--model`,
//! `--trace`, `--checkpoint-dir`, `--seed` mean the same thing in every
//! subcommand) and the reproduction's model-scale conventions (encoder
//! spec, backbone dimensions, meta-configuration). `fewner train`,
//! `fewner predict`, `fewner serve` and the bench tools all call these
//! helpers, so a checkpoint written by one subcommand always matches the
//! encoder another one builds from the same `--profile`/`--scale` flags.
//!
//! The help text ([`USAGE`]) is pinned by a snapshot test
//! (`tests/cli_help.rs`): flag renames are a deliberate, reviewed act.
//!
//! Input is never silently replaced by a default: a flag a subcommand does
//! not take ([`check_flags`]) and a value that does not parse ([`flag`])
//! are both [`Error::InvalidConfig`] naming the flag.

use std::collections::HashMap;

use fewner_core::MetaConfig;
use fewner_corpus::{split_types, AceDomain, Dataset, DatasetProfile, TypeSplit};
use fewner_models::{BackboneConfig, TokenEncoder};
use fewner_tensor::WeightFormat;
use fewner_text::embed::EmbeddingSpec;
use fewner_util::{Error, Result};

/// The `fewner` binary's help text. Kept here (not in the binary) so the
/// snapshot test and external tools see the same source of truth.
pub const USAGE: &str =
    "usage: fewner <corpus|train|train-sharded|evaluate|demo|predict|serve|trace> [flags]
  Every flag takes a value. A flag the subcommand does not take, a flag
  given twice, or a value that does not parse is an error.
  common flags:
    --profile <nne|fg-ner|genia|ontonotes|bionlp13cg|slot-filling|conll-like|
               ace-bc|ace-bn|ace-cts|ace-nw|ace-un|ace-wl>
    --scale <f64>          corpus scale, 1.0 = paper size (default 0.05;
                           demo 0.2)
    --seed <u64>           experiment seed (default 42; not corpus/serve)
    --model <path>         checkpoint file (written by train, read by
                           evaluate/predict/serve)
    --trace <path>         write a structured JSONL trace of the run
                           (train, train-sharded, predict, serve)
    --weights <f32|f16|i8> serve-time θ precision for evaluate/predict/serve
                           (default f32; f16/i8 round the loaded checkpoint)
  train/evaluate/predict:
    --ways <N> --shots <K> (default 5, 1; demo's task is 1-shot and
                           min(5, test-split types) ways)
  train/demo:
    --iterations <N>       meta-iterations (default 300; demo 150)
    --threads <N>          meta-gradient worker threads, 0 = all cores
                           (default 1)
  evaluate only:
    --episodes <N>         evaluation episodes (default 50)
  train only:
    --checkpoint-every <N> write a full training snapshot every N iterations
                           (rolling, newest two kept; default 0 = off)
    --checkpoint-dir <dir> snapshot directory (default `checkpoints`)
    --resume <dir>         continue a killed run from the newest valid
                           snapshot in <dir>
    --shards <S>           total workers of a sharded run (default 1; with
                           S > 1 this process is one worker)
    --shard-id <i>         this worker's shard id, 0 <= i < S (default 0)
    --coordinator <addr>   host:port of the shard coordinator (required
                           when --shards > 1)
    --corpus-chunk-size <N> stream the corpus in N-sentence chunks instead of
                           materializing it up front (default 0 = off); the
                           sampler then keeps only a bounded window resident
    --corpus-sentences <N> streamed corpus length override (default: sized by
                           the corpus scale, like the materialized path)
    --stream-window <N>    resident streaming window, in routed sentences
                           (default 512)
    --stream-stride <N>    sentences the window advances per refill
                           (default 64)
  train-sharded only:
    one-machine driver: binds a coordinator, spawns S `fewner train`
    worker processes, and waits; takes every train flag except the two
    it sets itself (--shard-id, --coordinator), plus
    --shards <S>           worker processes to spawn (default 2)
  predict only:
    --episodes <N>         tasks to serve (default 3)
    --show <N>             query sentences to print per task (default 5)
  serve only:
    --addr <ip:port>       listen address (default 127.0.0.1:0 = ephemeral;
                           the bound address is printed on stdout)
    --workers <N>          prediction worker threads (default 2)
    --queue-limit <N>      queued jobs before admission sheds (default 64)
    --batch <N>            micro-batch sentence cap (default 32)
    --cache-capacity <N>   resident adapted contexts before LRU eviction
                           (default 64)
    --ttl-secs <N>         adapted-context TTL (default: never expires)
    --phi-dir <dir>        persist adapted contexts for warm restarts
    --deadline-ms <N>      default per-request deadline when the client sends
                           none (default 0 = unbounded)
    --max-frame-kb <N>     largest accepted request frame in KiB (default
                           1024; floor 1)
  trace:
    fewner trace summarize <path>...  per-phase latency percentiles, counters,
                                      and the adaptation-vs-serving cost split";

/// Splits `args` into a subcommand plus `--key value` flags. Returns `None`
/// on malformed input (missing value, flag without `--`, a flag given
/// twice).
pub fn parse_args(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let mut it = args.iter();
    let command = it.next()?.clone();
    let mut flags = HashMap::new();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--")?;
        let value = it.next()?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return None;
        }
    }
    Some((command, flags))
}

/// The flags of `fewner train`; `train-sharded` forwards all of them but
/// the two it sets itself.
const TRAIN_FLAGS: &[&str] = &[
    "profile",
    "scale",
    "seed",
    "model",
    "out",
    "trace",
    "ways",
    "shots",
    "iterations",
    "threads",
    "checkpoint-every",
    "checkpoint-dir",
    "resume",
    "shards",
    "shard-id",
    "coordinator",
    "corpus-chunk-size",
    "corpus-sentences",
    "stream-window",
    "stream-stride",
];

/// The flags (without `--`) a subcommand takes, or `None` for an unknown
/// subcommand. `--out` is the old, undocumented name of `--model` and is
/// taken wherever `--model` is.
pub fn accepted_flags(command: &str) -> Option<Vec<&'static str>> {
    let flags: &[&str] = match command {
        "corpus" => &["profile", "scale"],
        "train" => TRAIN_FLAGS,
        "train-sharded" => {
            return Some(
                TRAIN_FLAGS
                    .iter()
                    .copied()
                    .filter(|f| !matches!(*f, "shard-id" | "coordinator"))
                    .collect(),
            )
        }
        "evaluate" => &[
            "profile", "scale", "seed", "model", "out", "weights", "ways", "shots", "episodes",
        ],
        "demo" => &["profile", "scale", "seed", "iterations", "threads"],
        "predict" => &[
            "profile", "scale", "seed", "model", "out", "weights", "trace", "ways", "shots",
            "episodes", "show",
        ],
        "serve" => &[
            "profile",
            "scale",
            "model",
            "out",
            "weights",
            "trace",
            "addr",
            "workers",
            "queue-limit",
            "batch",
            "cache-capacity",
            "ttl-secs",
            "phi-dir",
            "deadline-ms",
            "max-frame-kb",
        ],
        _ => return None,
    };
    Some(flags.to_vec())
}

/// Fails on any flag `command` does not take, naming it and listing the
/// ones it does take.
pub fn check_flags(command: &str, flags: &HashMap<String, String>) -> Result<()> {
    let accepted = accepted_flags(command)
        .ok_or_else(|| Error::InvalidConfig(format!("unknown command `{command}`")))?;
    let mut unknown: Vec<&String> = flags
        .keys()
        .filter(|k| !accepted.contains(&k.as_str()))
        .collect();
    unknown.sort();
    match unknown.first() {
        None => Ok(()),
        Some(key) => {
            let takes: Vec<String> = accepted
                .iter()
                .filter(|f| **f != "out")
                .map(|f| format!("--{f}"))
                .collect();
            Err(Error::InvalidConfig(format!(
                "`fewner {command}` does not take --{key}; it takes {}",
                takes.join(" ")
            )))
        }
    }
}

/// The `fewner train` flags that do nothing unless another flag is set:
/// `(flag, the flag it needs, the least value that flag must have)`.
const TRAIN_FLAG_NEEDS: &[(&str, &str, usize)] = &[
    ("shard-id", "shards", 2),
    ("coordinator", "shards", 2),
    ("corpus-sentences", "corpus-chunk-size", 1),
    ("stream-window", "corpus-chunk-size", 1),
    ("stream-stride", "corpus-chunk-size", 1),
    ("checkpoint-dir", "checkpoint-every", 1),
];

/// Fails on a `fewner train` (or `train-sharded`) flag that another flag's
/// absence would make dead — a shard id on an in-process run, a stream
/// window on a materialized corpus, a snapshot directory with no snapshots
/// — naming the flag and the flag it needs; and on `--shards 0`, which
/// would otherwise fail only after the corpus is built.
pub fn check_train_flags(flags: &HashMap<String, String>) -> Result<()> {
    if flag(flags, "shards", 1usize)? == 0 {
        return Err(Error::InvalidConfig(
            "--shards must be at least 1 (1 trains in-process)".into(),
        ));
    }
    for &(key, needs, least) in TRAIN_FLAG_NEEDS {
        if flags.contains_key(key) && flag(flags, needs, 0usize)? < least {
            return Err(Error::InvalidConfig(format!(
                "--{key} takes effect only with --{needs} {least} or more"
            )));
        }
    }
    Ok(())
}

/// A typed flag, `None` when absent. A value that does not parse is an
/// error naming the flag and the value.
pub fn opt_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>> {
    flags
        .get(key)
        .map(|v| {
            v.parse().map_err(|_| {
                Error::InvalidConfig(format!(
                    "--{key} `{v}` is not a valid {}",
                    std::any::type_name::<T>()
                ))
            })
        })
        .transpose()
}

/// A typed flag with a default. A value that does not parse is an error
/// naming the flag and the value, never a silent fall-back to the default.
pub fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T> {
    Ok(opt_flag(flags, key)?.unwrap_or(default))
}

/// Resolves `--profile` to one of the paper's dataset profiles
/// (default `genia`).
pub fn profile(flags: &HashMap<String, String>) -> Result<DatasetProfile> {
    let name = flags.get("profile").map(String::as_str).unwrap_or("genia");
    Ok(match name {
        "nne" => DatasetProfile::nne(),
        "fg-ner" => DatasetProfile::fg_ner(),
        "genia" => DatasetProfile::genia(),
        "ontonotes" => DatasetProfile::ontonotes(),
        "bionlp13cg" => DatasetProfile::bionlp13cg(),
        "slot-filling" => DatasetProfile::slot_filling(),
        "conll-like" => DatasetProfile::conll_like(),
        "ace-bc" => DatasetProfile::ace2005(AceDomain::Bc),
        "ace-bn" => DatasetProfile::ace2005(AceDomain::Bn),
        "ace-cts" => DatasetProfile::ace2005(AceDomain::Cts),
        "ace-nw" => DatasetProfile::ace2005(AceDomain::Nw),
        "ace-un" => DatasetProfile::ace2005(AceDomain::Un),
        "ace-wl" => DatasetProfile::ace2005(AceDomain::Wl),
        other => return Err(Error::InvalidConfig(format!("unknown profile `{other}`"))),
    })
}

/// Resolves `--weights` to the serve-time θ precision (default `f32`).
/// Unknown formats are a hard error, not a silent fall-back: serving with
/// the wrong precision would quietly change scores.
pub fn weights(flags: &HashMap<String, String>) -> Result<WeightFormat> {
    match flags.get("weights") {
        None => Ok(WeightFormat::F32),
        Some(s) => s.parse().map_err(Error::InvalidConfig),
    }
}

/// The profile's type-split sizes over an `n_types` inventory (paper
/// splits where defined, a 60/15/25 type partition otherwise). Shared by
/// the materialized ([`split_for`]) and streaming train paths so both
/// partition the same inventory identically.
pub fn split_counts(p: &DatasetProfile, n_types: usize) -> (usize, usize, usize) {
    match p.name {
        "NNE" => (52, 10, 15),
        "FG-NER" => (163, 15, 20),
        "GENIA" => (18, 8, 10),
        _ => {
            let train = (n_types * 3) / 5;
            let val = n_types / 5;
            (train, val, n_types - train - val)
        }
    }
}

/// A type split sized to the profile (paper splits where defined, a
/// 60/15/25 type partition otherwise).
pub fn split_for(p: &DatasetProfile, data: &Dataset, seed: u64) -> Result<TypeSplit> {
    split_types(data, split_counts(p, data.types.len()), seed)
}

/// The CLI's token-encoder convention (32-dim synthetic embeddings,
/// characters kept for tokens of ≥ 4 occurrences). Checkpoints are only
/// portable across subcommands because everyone builds this same encoder.
pub fn build_encoder(data: &Dataset) -> TokenEncoder {
    let spec = EmbeddingSpec {
        dim: 32,
        ..EmbeddingSpec::default()
    };
    TokenEncoder::build(&[data], &spec, 4)
}

/// The CLI's reduced-scale backbone configuration.
pub fn backbone(ways: usize) -> BackboneConfig {
    BackboneConfig {
        word_dim: 32,
        char_dim: 10,
        char_filters: 8,
        char_widths: vec![2, 3],
        hidden: 24,
        phi_dim: 24,
        slot_ctx_dim: 8,
        ..BackboneConfig::default_for(ways)
    }
}

/// The CLI's meta-training configuration.
pub fn meta() -> MetaConfig {
    MetaConfig {
        meta_lr: 1e-2,
        inner_lr: 0.25,
        inner_steps_train: 3,
        inner_steps_test: 10,
        meta_batch: 4,
        ..MetaConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_splits_command_and_flags() {
        let (cmd, flags) = parse_args(&argv("train --scale 0.1 --seed 7")).unwrap();
        assert_eq!(cmd, "train");
        assert_eq!(flag(&flags, "scale", 0.0f64).unwrap(), 0.1);
        assert_eq!(flag(&flags, "seed", 0u64).unwrap(), 7);
        assert_eq!(flag(&flags, "missing", 42usize).unwrap(), 42);
    }

    #[test]
    fn unparseable_values_name_the_flag_and_the_value() {
        let (_, flags) = parse_args(&argv("train --iterations abc --scale 1e")).unwrap();
        for (key, value) in [("iterations", "abc"), ("scale", "1e")] {
            let err = flag(&flags, key, 0usize).unwrap_err().to_string();
            assert!(err.contains(&format!("--{key}")), "{err}");
            assert!(err.contains(value), "{err}");
        }
        assert_eq!(opt_flag::<u64>(&flags, "ttl-secs").unwrap(), None);
    }

    #[test]
    fn flags_a_command_does_not_take_are_refused() {
        let (_, flags) = parse_args(&argv("train --iterations 3 --bogus-flag 1")).unwrap();
        let err = check_flags("train", &flags).unwrap_err().to_string();
        assert!(err.contains("--bogus-flag"), "{err}");
        let (_, flags) = parse_args(&argv("x --coordinator h:1")).unwrap();
        assert!(check_flags("train", &flags).is_ok());
        assert!(check_flags("train-sharded", &flags).is_err());
        assert!(check_flags("no-such-command", &HashMap::new()).is_err());
    }

    #[test]
    fn train_flags_need_the_flags_that_make_them_live() {
        // What `train-sharded` hands each worker, plus streaming and
        // snapshots: every flag here takes effect.
        let (_, flags) = parse_args(&argv(
            "train --shards 2 --shard-id 1 --coordinator h:1 --checkpoint-every 4 \
             --checkpoint-dir d --corpus-chunk-size 128 --corpus-sentences 6000 \
             --stream-window 400 --stream-stride 50",
        ))
        .unwrap();
        assert!(check_train_flags(&flags).is_ok());
        for (key, needs) in TRAIN_FLAG_NEEDS.iter().map(|&(k, n, _)| (k, n)) {
            let (_, flags) = parse_args(&argv(&format!("train --{key} 1"))).unwrap();
            let err = check_train_flags(&flags).unwrap_err().to_string();
            assert!(
                err.contains(&format!("--{key} ")) && err.contains(&format!("--{needs} ")),
                "{err}"
            );
        }
    }

    #[test]
    fn accepted_flags_match_the_help_text() {
        let commands = [
            "corpus",
            "train",
            "train-sharded",
            "evaluate",
            "demo",
            "predict",
            "serve",
        ];
        let mut all = Vec::new();
        for cmd in commands {
            let flags = accepted_flags(cmd).unwrap();
            // `--out` is taken exactly where `--model` is.
            assert_eq!(flags.contains(&"out"), flags.contains(&"model"), "{cmd}");
            for f in flags.into_iter().filter(|f| *f != "out") {
                assert!(
                    USAGE.contains(&format!("--{f} ")),
                    "`--{f}` of {cmd} undocumented"
                );
                all.push(f);
            }
        }
        // …and every documented flag is taken by some subcommand.
        for word in USAGE.split_whitespace() {
            if let Some(f) = word.strip_prefix("--") {
                let f = f.trim_end_matches([',', ')']);
                assert!(
                    all.contains(&f),
                    "documented `--{f}` is taken by no subcommand"
                );
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_flags() {
        assert!(
            parse_args(&argv("train --scale")).is_none(),
            "missing value"
        );
        assert!(parse_args(&argv("train scale 0.1")).is_none(), "missing --");
        assert!(parse_args(&[]).is_none(), "missing command");
        assert!(
            parse_args(&argv("train --seed 1 --seed 2")).is_none(),
            "a repeated flag must not silently override the first"
        );
    }

    #[test]
    fn weights_flag_resolves_strictly() {
        let mut flags = HashMap::new();
        assert_eq!(weights(&flags).unwrap(), WeightFormat::F32);
        for (name, want) in [
            ("f32", WeightFormat::F32),
            ("f16", WeightFormat::F16),
            ("i8", WeightFormat::I8),
        ] {
            flags.insert("weights".to_string(), name.to_string());
            assert_eq!(weights(&flags).unwrap(), want);
        }
        flags.insert("weights".to_string(), "int4".to_string());
        assert!(weights(&flags).is_err(), "unknown formats must not default");
    }

    #[test]
    fn every_profile_name_resolves() {
        for name in [
            "nne",
            "fg-ner",
            "genia",
            "ontonotes",
            "bionlp13cg",
            "slot-filling",
            "conll-like",
            "ace-bc",
            "ace-bn",
            "ace-cts",
            "ace-nw",
            "ace-un",
            "ace-wl",
        ] {
            let mut flags = HashMap::new();
            flags.insert("profile".to_string(), name.to_string());
            assert!(profile(&flags).is_ok(), "profile `{name}` must resolve");
        }
        let mut flags = HashMap::new();
        flags.insert("profile".to_string(), "nope".to_string());
        assert!(profile(&flags).is_err());
    }
}
