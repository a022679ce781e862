//! Determinism gate for the schedule model checker's artifacts.
//!
//! An `tm-mc-report/v1` document is a function of `(programs, configs,
//! depth)` alone: the explorer runs fixed schedule sweeps over a
//! deterministic simulation, so the full JSON — verdicts, exploration
//! counters, and every shrunk counterexample delay vector — must be
//! byte-identical run-to-run and equal to a committed golden. If an
//! intentional model change shifts the numbers, re-bless with
//! `GOLDEN_BLESS=1 cargo test -p tm-mc --test mc_determinism`.

use tm_alloc::AllocatorKind;
use tm_stm::{BackendKind, CmKind, InjectedBug};

/// A compact but representative mc report: one caught mutant (with its
/// shrunk counterexample), one clean exhaustive cell per backend, and
/// the sparse program that exercises conflict pruning.
fn mc_json() -> String {
    let mut report = tm_obs::McReport::new("mc_determinism").meta("depth", 2);
    let catalog = tm_mc::mutation_catalog();
    let recipe = catalog
        .iter()
        .find(|r| r.bug == InjectedBug::SkipWriteValidation)
        .expect("catalog always carries the lost-update mutant");
    report.cells.push(tm_mc::run_mutant_cell(recipe));
    for backend in BackendKind::ALL {
        report.cells.push(tm_mc::run_clean_cell(
            &tm_mc::small_program(),
            AllocatorKind::TbbMalloc,
            backend,
            CmKind::Suicide,
            &tm_mc::quick_clean_config(2),
        ));
    }
    report.cells.push(tm_mc::run_clean_cell(
        &tm_mc::sparse_program(),
        AllocatorKind::TbbMalloc,
        BackendKind::Etl,
        CmKind::Suicide,
        &tm_mc::quick_clean_config(2),
    ));
    report.to_json_string()
}

fn check_golden(name: &str, actual: &str) {
    let full = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&full, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("missing golden file {full} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden — the explorer's verdicts or \
         counterexamples are no longer reproducible; bless only if the \
         model intentionally changed"
    );
}

#[test]
fn mc_report_replays_across_runs() {
    let first = mc_json();
    let second = mc_json();
    assert_eq!(first, second, "two runs disagree on the report");
    assert!(
        first.contains("tm-mc-report/v1"),
        "report schema changed: {first}"
    );
    assert!(
        first.contains("\"caught\"") && first.contains("\"clean\""),
        "report lost its expected verdict mix: {first}"
    );
    check_golden("mc_determinism.json", &first);
}
