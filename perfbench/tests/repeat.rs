//! Two invocations of the benchmark agree exactly on every simulated
//! output and every per-layer work count, and a traced invocation
//! reports the same simulated outputs as an untraced one.
//!
//! `mc` runs by default (a few seconds per invocation); the longer
//! workloads run with `cargo test --release -- --ignored`.

use std::process::Command;

struct Run {
    digest: String,
    counts: Vec<(String, String)>,
    correct: bool,
}

fn invoke(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix("outputs digest: "))
        .expect("a digest line")
        .to_string();
    let counts = text
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter(|l| l.ends_with(" count"))
        .map(|l| {
            let (name, value) = l.split_once(" = ").expect("metric line shape");
            (name.to_string(), value.to_string())
        })
        .collect();
    let last = text.lines().last().expect("a result line");
    Run {
        digest,
        counts,
        correct: last.contains("\"correct\": true"),
    }
}

fn agree(workload: &str) {
    let a = invoke(workload, 1);
    let b = invoke(workload, 1);
    let plain = invoke(workload, 0);
    assert!(a.correct && b.correct && plain.correct);
    assert_eq!(a.digest, b.digest, "outputs differ across processes");
    assert_eq!(a.digest, plain.digest, "traced and untraced outputs differ");
    assert!(!a.counts.is_empty());
    assert_eq!(
        a.counts, b.counts,
        "per-layer work counts differ across processes"
    );
}

#[test]
fn mc_repeats_exactly() {
    agree("mc");
}

#[test]
#[ignore = "about a minute"]
fn synth_repeats_exactly() {
    agree("synth");
}

#[test]
#[ignore = "a few seconds in release, minutes in debug"]
fn stamp_repeats_exactly() {
    agree("stamp");
}
