//! Determinism regression gate for the scheduler fast paths.
//!
//! The simulator promises bit-level determinism: the same configuration
//! produces the same virtual clocks, the same commit/abort counts and the
//! same cache statistics on every run, on every host, at every thread
//! count. The fast paths added for performance (solo mode, fiber
//! hand-off, the cached thread-local clock, the exclusive-line cache
//! shortcut, the generation-stamped STM tables) all argue they preserve
//! this; here the claim is enforced end-to-end: run a synthetic exhibit and
//! a STAMP application at 1 and 8 threads, twice each, and require the full
//! `tm-run-report/v1` JSON to be byte-identical run-to-run *and* equal to a
//! committed golden.
//!
//! If an intentional model change shifts the numbers, re-bless with
//! `GOLDEN_BLESS=1 cargo test -p tm-bench --test determinism`.

use tm_alloc::AllocatorKind;
use tm_core::synthetic::{run_synthetic, SyntheticConfig};
use tm_ds::StructureKind;
use tm_stamp::runner::{run_kind, StampOpts};
use tm_stamp::AppKind;
use tm_stm::{BackendKind, CmKind};

/// One synthetic run, small enough for debug-build CI, rendered as the
/// canonical run-report JSON. The ETL default keeps the historical golden
/// name (and the v1 schema); the other backends get their own goldens
/// with a backend-tagged name and the v1.1 schema.
fn synth_backend_json(backend: BackendKind, threads: usize) -> String {
    let mut cfg =
        SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::TbbMalloc, threads);
    cfg.initial_size = 64;
    cfg.key_range = 128;
    cfg.ops_per_thread = 200;
    cfg.buckets = 1 << 11;
    cfg.backend = backend;
    let m = run_synthetic(&cfg);
    let name = match backend {
        BackendKind::Etl => format!("determinism_synth_t{threads}"),
        other => format!("determinism_synth_{}_t{threads}", other.name()),
    };
    let mut report = tm_obs::RunReport::new(name, "determinism");
    if backend != BackendKind::Etl {
        report = report.backend(backend.name());
    }
    report
        .meta("structure", "hash")
        .meta("alloc", "tbb")
        .meta("threads", threads)
        .section("metrics", m.section())
        .to_json_string()
}

fn synth_json(threads: usize) -> String {
    synth_backend_json(BackendKind::Etl, threads)
}

/// One STAMP run (Genome: interleaving-independent checksum) as JSON.
fn stamp_backend_json(backend: BackendKind, threads: usize) -> String {
    let opts = StampOpts {
        backend,
        ..StampOpts::default()
    };
    let r = run_kind(AppKind::Genome, AllocatorKind::Glibc, threads, &opts, 1);
    let name = match backend {
        BackendKind::Etl => format!("determinism_stamp_t{threads}"),
        other => format!("determinism_stamp_{}_t{threads}", other.name()),
    };
    let mut report = tm_obs::RunReport::new(name, "determinism");
    if backend != BackendKind::Etl {
        report = report.backend(backend.name());
    }
    report
        .meta("app", "genome")
        .meta("alloc", "glibc")
        .meta("threads", threads)
        .meta("checksum", format!("{:?}", r.checksum))
        .section("metrics", r.section())
        .to_json_string()
}

fn stamp_json(threads: usize) -> String {
    stamp_backend_json(BackendKind::Etl, threads)
}

/// One synthetic run per contention manager, as JSON. Every policy gets a
/// cm-tagged v1.1 report — including suicide, whose *simulated numbers*
/// must equal the untagged ETL golden at the same thread count (the CM
/// layer's byte-identity contract, asserted separately below).
fn synth_cm_json(cm: CmKind, threads: usize) -> String {
    let mut cfg =
        SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::TbbMalloc, threads);
    cfg.initial_size = 64;
    cfg.key_range = 128;
    cfg.ops_per_thread = 200;
    cfg.buckets = 1 << 11;
    cfg.cm = cm;
    let m = run_synthetic(&cfg);
    tm_obs::RunReport::new(
        format!("determinism_synth_cm_{}_t{threads}", cm.name()),
        "determinism",
    )
    .cm(cm.name())
    .meta("structure", "hash")
    .meta("alloc", "tbb")
    .meta("threads", threads)
    .section("metrics", m.section())
    .to_json_string()
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
        "{name} drifted from its golden — the simulation is no longer \
         reproducing the committed numbers; bless only if the model \
         intentionally changed"
    );
}

fn assert_deterministic(name: &str, run: impl Fn() -> String) {
    let first = run();
    let second = run();
    assert_eq!(first, second, "{name}: two in-process runs disagree");
    assert!(
        first.contains("tm-run-report/v1"),
        "{name}: report schema changed"
    );
    check_golden(name, &first);
}

#[test]
fn synthetic_solo_is_deterministic() {
    assert_deterministic("determinism_synth_t1.json", || synth_json(1));
}

#[test]
fn synthetic_8_threads_is_deterministic() {
    assert_deterministic("determinism_synth_t8.json", || synth_json(8));
}

#[test]
fn stamp_solo_is_deterministic() {
    assert_deterministic("determinism_stamp_t1.json", || stamp_json(1));
}

#[test]
fn stamp_8_threads_is_deterministic() {
    assert_deterministic("determinism_stamp_t8.json", || stamp_json(8));
}

#[test]
fn backend_synth_runs_are_deterministic() {
    for backend in [BackendKind::Norec, BackendKind::SimHtm] {
        for threads in [1, 8] {
            assert_deterministic(
                &format!("determinism_synth_{}_t{threads}.json", backend.name()),
                || synth_backend_json(backend, threads),
            );
        }
    }
}

#[test]
fn cm_synth_runs_are_deterministic() {
    for cm in CmKind::ALL {
        for threads in [1, 8] {
            assert_deterministic(
                &format!("determinism_synth_cm_{}_t{threads}.json", cm.name()),
                || synth_cm_json(cm, threads),
            );
        }
    }
}

/// The default-CM byte-identity contract: a run tagged `cm: suicide` must
/// simulate the exact same events as the untagged baseline — same clocks,
/// same commit/abort counts, same cache statistics. Only the report header
/// (name, schema, cm field) may differ.
#[test]
fn suicide_cm_is_byte_identical_to_the_untagged_baseline() {
    for threads in [1, 8] {
        let base = synth_json(threads);
        let tagged = synth_cm_json(CmKind::Suicide, threads);
        let body = |s: &str| s[s.find("\"sections\"").unwrap()..].to_string();
        assert_eq!(
            body(&base),
            body(&tagged),
            "t{threads}: the suicide CM perturbed the simulation"
        );
    }
}

#[test]
fn backend_stamp_runs_are_deterministic() {
    for backend in [BackendKind::Norec, BackendKind::SimHtm] {
        for threads in [1, 8] {
            assert_deterministic(
                &format!("determinism_stamp_{}_t{threads}.json", backend.name()),
                || stamp_backend_json(backend, threads),
            );
        }
    }
}
