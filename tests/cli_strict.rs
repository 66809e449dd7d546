//! The `fewner` binary refuses bad input instead of running on defaults.
//!
//! Driven through the built binary, so the check covers what a user sees:
//! the exit status and the message on stderr.

use std::process::{Command, Output};

fn fewner(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fewner"))
        .args(args.split_whitespace())
        .output()
        .expect("the fewner binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_unparseable_value_fails_naming_the_flag_and_the_value() {
    for (args, key, value) in [
        ("train --iterations abc", "--iterations", "abc"),
        (
            "evaluate --episodes 1.5 --model m.json",
            "--episodes",
            "1.5",
        ),
        ("corpus --scale big", "--scale", "big"),
    ] {
        let out = fewner(args);
        assert!(!out.status.success(), "`{args}` must fail");
        let err = stderr(&out);
        assert!(err.contains(key) && err.contains(value), "`{args}`: {err}");
    }
}

#[test]
fn a_flag_the_subcommand_does_not_take_fails_before_any_work() {
    for (args, key) in [
        ("train --iterations abc --bogus-flag 1", "--bogus-flag"),
        ("evaluate --iterations 3", "--iterations"),
        ("corpus --weights f16", "--weights"),
        ("train-sharded --coordinator 127.0.0.1:1", "--coordinator"),
    ] {
        let out = fewner(args);
        assert!(!out.status.success(), "`{args}` must fail");
        let err = stderr(&out);
        assert!(
            err.contains(key) && err.contains("does not take"),
            "`{args}`: {err}"
        );
        assert!(out.stdout.is_empty(), "`{args}` started work");
    }
}

#[test]
fn a_flag_another_flag_makes_dead_fails_before_any_work() {
    for (args, key, needs) in [
        ("train --shards 2", "--shards", "--coordinator"),
        ("train --shards 0", "--shards", "at least 1"),
        (
            "train --shard-id 5 --coordinator 10.0.0.1:9",
            "--shard-id",
            "--shards",
        ),
        (
            "train --coordinator 10.0.0.1:9 --shards 1",
            "--coordinator",
            "--shards",
        ),
        (
            "train --stream-window 0 --stream-stride 0 --corpus-sentences 1",
            "--corpus-sentences",
            "--corpus-chunk-size",
        ),
        (
            "train --stream-stride 8 --corpus-chunk-size 0",
            "--stream-stride",
            "--corpus-chunk-size",
        ),
        (
            "train --checkpoint-dir ckpt",
            "--checkpoint-dir",
            "--checkpoint-every",
        ),
        (
            "train-sharded --checkpoint-dir ckpt --checkpoint-every 0",
            "--checkpoint-dir",
            "--checkpoint-every",
        ),
    ] {
        let out = fewner(args);
        assert!(!out.status.success(), "`{args}` must fail");
        let err = stderr(&out);
        assert!(err.contains(key) && err.contains(needs), "`{args}`: {err}");
        assert!(out.stdout.is_empty(), "`{args}` started work");
    }
}

#[test]
fn out_is_taken_wherever_model_is() {
    // The checkpoint does not exist, so the run fails — but on loading
    // it, not on the flag.
    for cmd in ["evaluate", "predict", "serve"] {
        let out = fewner(&format!("{cmd} --scale 0.01 --out no-such-checkpoint.json"));
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(!err.contains("does not take"), "{cmd}: {err}");
        assert!(err.contains("no-such-checkpoint.json"), "{cmd}: {err}");
    }
}

#[test]
fn demo_fits_its_task_to_a_four_type_test_split() {
    // bionlp13cg's test split has 4 types; a fixed 5-way demo could not
    // draw a task there.
    let out = fewner("demo --profile bionlp13cg --scale 0.05 --iterations 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}{stdout}", stderr(&out));
    assert!(stdout.contains("brand-new 4-way 1-shot task"), "{stdout}");
}

#[test]
fn a_sharded_run_whose_workers_all_exit_ends_at_once() {
    // Both workers refuse the value and exit before connecting; the
    // coordinator must stop waiting for them instead of running out its
    // 30-s rendezvous budget.
    let start = std::time::Instant::now();
    let out = fewner("train-sharded --shards 2 --iterations abc");
    let took = start.elapsed();
    assert!(!out.status.success(), "the run must fail");
    let err = stderr(&out);
    assert!(err.contains("--iterations") && err.contains("abc"), "{err}");
    assert!(err.contains("workers exited"), "{err}");
    assert!(
        took < std::time::Duration::from_secs(10),
        "took {took:?}: {err}"
    );
}

#[test]
fn a_fault_plan_that_does_not_parse_fails_before_any_work() {
    // A misspelled kind or a bad count must not run as no plan at all.
    let dir = std::env::temp_dir().join(format!("fewner-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("model.json");
    let args = format!(
        "train --profile bionlp13cg --scale 0.05 --ways 3 --shots 1 --iterations 4 --out {}",
        ckpt.display()
    );
    for (spec, arm) in [
        ("task_grad_pnic:2", "task_grad_pnic"),
        ("task_grad_panic:x", "task_grad_panic:x"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fewner"))
            .args(args.split_whitespace())
            .env("FEWNER_FAULTS", spec)
            .output()
            .expect("the fewner binary runs");
        assert!(!out.status.success(), "`{spec}` must fail");
        let err = stderr(&out);
        assert!(
            err.contains("FEWNER_FAULTS") && err.contains(arm),
            "`{spec}`: {err}"
        );
        assert!(out.stdout.is_empty(), "`{spec}` started work");
        assert!(!ckpt.exists(), "`{spec}` wrote a checkpoint");
    }
    std::fs::remove_dir_all(&dir).ok();
}
