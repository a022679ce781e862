//! The adaptive contention manager's switch transcript is part of the
//! determinism contract: every policy change is driven only by per-thread
//! window counters and the virtual clock, so the exact `(thread, window,
//! virtual-time, from → to)` sequence must replay identically run-to-run.

use tm_alloc::AllocatorKind;
use tm_core::synthetic::{run_synthetic_cm, SyntheticConfig};
use tm_ds::StructureKind;
use tm_stm::{CmKind, CmStats, CmSwitch};

fn transcript() -> (Vec<(usize, CmSwitch)>, CmStats, u64) {
    let mut cfg = SyntheticConfig::scaled(StructureKind::LinkedList, AllocatorKind::TbbMalloc, 8);
    cfg.cm = CmKind::Adaptive;
    let (m, stats, switches) = run_synthetic_cm(&cfg);
    (switches, stats, m.commits)
}

#[test]
fn adaptive_switch_points_replay_across_runs() {
    let first = transcript();
    let second = transcript();
    assert_eq!(first, second, "two runs disagree on the transcript");
    assert!(
        !first.0.is_empty(),
        "the high-contention list must trigger at least one policy switch"
    );
    assert_ne!(
        first.1.dominant_policy(),
        CmKind::Suicide,
        "the controller must escalate away from the initial policy"
    );
}
