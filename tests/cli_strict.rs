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
