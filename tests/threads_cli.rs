//! CLI-level contract for `--threads`: a count outside 1..=cores (the
//! simulated machine has 8) is a usage error — exit 2 with one line on
//! stderr — at every entry point, never a panic inside the simulator.

use std::process::Command;

#[test]
fn out_of_range_threads_exit_2_without_a_panic() {
    let cases: &[&[&str]] = &[
        &["synth", "--threads", "0"],
        &["synth", "--threads", "9"],
        &["synth", "--threads", "x"],
        &["stamp", "--app", "kmeans", "--threads", "0"],
        &["threadtest", "--threads", "0"],
        &["sweep", "--threads", "1,9", "--out", "/dev/null"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .args(*args)
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("--threads"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
