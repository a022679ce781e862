//! Per-layer metrics of the traced run, and its self-time summary.
//!
//! Counts come from the 8-thread cells and are exact: every traced pass
//! must repeat them, or the run fails. Host times are medians over the
//! traced passes; per-call allocator and set-operation times and all
//! self times come from the 1-thread cells, where spans nest.

use crate::check::Checker;
use crate::stack::{cause_key, Acc};
use crate::{median, stamp, synth, Metric, Workload};
use tm_stm::AbortCause;

const COUNT: &str = "count";

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric of one traced pass, in a fixed order. Metrics
/// a workload does not exercise read 0.
fn pass_metrics(a: &Acc) -> Vec<Metric> {
    let builds = a.get("build.count");
    let solo_ns_per_event = ratio(a.get("solo.run_ns"), a.get("solo.events"));
    let ns_per_event = ratio(a.get("n8.run_ns"), a.get("n8.events"));
    let mut m: Vec<Metric> = vec![
        ("sim.events".into(), a.get("n8.events"), COUNT),
        ("sim.ns_per_event".into(), ns_per_event, "ns"),
        ("sim.solo_ns_per_event".into(), solo_ns_per_event, "ns"),
        (
            "sim.handoff_ns_per_event".into(),
            if ns_per_event > 0.0 && solo_ns_per_event > 0.0 {
                ns_per_event - solo_ns_per_event
            } else {
                0.0
            },
            "ns",
        ),
    ];
    for k in [
        "l1_accesses",
        "l1_misses",
        "l2_misses",
        "coherence_transfers",
        "invalidations",
        "virtual_cycles",
        "lock_wait_cycles",
    ] {
        m.push((format!("sim.{k}"), a.get(&format!("n8.{k}")), COUNT));
    }
    m.extend([
        (
            "sim.new_ms".into(),
            ratio(a.get("build.sim_new_ns"), builds) / 1e6,
            "ms",
        ),
        (
            "stm.new_ms".into(),
            ratio(a.get("build.stm_new_ns"), builds) / 1e6,
            "ms",
        ),
        (
            "core.build_stack_ms".into(),
            ratio(a.get("build.stack_ns"), builds) / 1e6,
            "ms",
        ),
        (
            "stamp.init_ms".into(),
            ratio(a.get("stamp.init_ns"), builds) / 1e6,
            "ms",
        ),
        ("alloc.mallocs".into(), a.get("n8.mallocs"), COUNT),
        ("alloc.frees".into(), a.get("n8.frees"), COUNT),
        ("alloc.failed".into(), a.get("n8.alloc_failed"), COUNT),
    ]);
    for k in ["glibc", "hoard", "tbb", "tc"] {
        for op in ["malloc", "free"] {
            let calls = a.get(&format!("alloc.{k}.{op}s"));
            let ns = a.get(&format!("alloc.{k}.{op}_ns"));
            m.push((format!("alloc.{k}.{op}_ns"), ratio(ns, calls), "ns"));
        }
    }
    m.push((
        "alloc.self_share".into(),
        ratio(a.get("solo.alloc_ns"), a.get("solo.total_ns")),
        "share",
    ));
    let commits = a.get("n8.commits");
    let aborts = a.get("n8.aborts");
    m.push(("stm.commits".into(), commits, COUNT));
    m.push(("stm.aborts".into(), aborts, COUNT));
    for c in AbortCause::ALL {
        let k = cause_key(c);
        m.push((format!("stm.{k}"), a.get(&format!("n8.{k}")), COUNT));
    }
    m.push((
        "stm.commit_ratio".into(),
        ratio(commits, commits + aborts),
        "share",
    ));
    for k in ["reads", "writes", "tx_mallocs", "tx_frees", "extensions"] {
        m.push((format!("stm.{k}"), a.get(&format!("n8.{k}")), COUNT));
    }
    let ops = a.get("ds.ops");
    m.extend([
        ("ds.op_ns".into(), ratio(a.get("ds.op_ns"), ops), "ns"),
        (
            "ds.op_self_ns".into(),
            ratio(a.get("solo.op_self_ns"), ops),
            "ns",
        ),
        (
            "stamp.worker_self_share".into(),
            ratio(a.get("solo.worker_self_ns"), a.get("solo.total_ns")),
            "share",
        ),
        (
            "stamp.verify_ms".into(),
            ratio(a.get("stamp.verify_ns"), builds) / 1e6,
            "ms",
        ),
        (
            "mc.session_new_ms".into(),
            ratio(a.get("mc.session_new_ns"), a.get("mc.sessions")) / 1e6,
            "ms",
        ),
        (
            "mc.run_ns_per_schedule".into(),
            ratio(a.get("mc.run_ns"), a.get("mc.runs")),
            "ns",
        ),
    ]);
    for k in [
        "explored",
        "pruned",
        "deduped",
        "restores",
        "replay_steps_saved",
        "oom_sites",
    ] {
        m.push((format!("mc.{k}"), a.get(&format!("mc.{k}")), COUNT));
    }
    m
}

/// Medians over the traced passes; a count that differs between passes
/// fails the run.
pub fn finish(accs: &[Acc], chk: &mut Checker) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = accs.iter().map(pass_metrics).collect();
    let Some(first) = per_pass.first() else {
        return pass_metrics(&Acc::default());
    };
    let mut out = Vec::with_capacity(first.len());
    for (j, (name, v0, unit)) in first.iter().enumerate() {
        let vals: Vec<f64> = per_pass.iter().map(|p| p[j].1).collect();
        if *unit == COUNT && vals.iter().any(|v| v != v0) {
            chk.fail(format!(
                "work count {name} differs between traced passes: {vals:?}"
            ));
        }
        out.push((name.clone(), median(&vals), *unit));
    }
    out
}

/// Print the self-time shares of the traced passes (largest named),
/// check that they do not exceed the measured time, and print the
/// tracing overhead. `mc` has no 1-thread variant: its shares split the
/// time in the cell entry points using per-call costs measured apart.
pub fn summary(
    wl: &Workload,
    accs: &[Acc],
    untraced_run_ns: u64,
    traced_run_ns: &[u64],
    chk: &mut Checker,
) {
    // The traced pass of median length: the first traced pass also pays
    // one-time costs (heap growth for the sessions kept for replays).
    let mut order: Vec<&Acc> = accs.iter().collect();
    order.sort_by(|x, y| x.get("pass_ns").total_cmp(&y.get("pass_ns")));
    let Some(&mid) = order.get(order.len() / 2) else {
        return;
    };
    let mut a = mid.clone();
    let mut other_name = "other (unattributed)";
    let (layers, total_key, what): (&[(&str, &str)], &str, &str) = match wl {
        Workload::Synth(_) => (synth::SOLO_LAYERS, "solo.total_ns", "1-thread synth cells"),
        Workload::Stamp(_) => (stamp::SOLO_LAYERS, "solo.total_ns", "1-thread stamp cells"),
        Workload::Mc(..) => {
            let per_run = ratio(a.get("mc.run_ns"), a.get("mc.runs"));
            a.add("mc.cell_ckpt_run_ns", a.get("mc.cell_ckpt_runs") * per_run);
            other_name = "other (traversal, shrinking, from-scratch replays)";
            (
                &[
                    (
                        "root checkpoint builds (one Session/OomSession::try_new per cell)",
                        "mc.session_new_ns",
                    ),
                    (
                        "schedule runs from the checkpoint (count x measured Session/OomSession::run)",
                        "mc.cell_ckpt_run_ns",
                    ),
                ],
                "mc.cell_ns",
                "mc cell entry points (3 simulated threads; estimated from per-call costs)",
            )
        }
    };
    let total = a.get(total_key);
    println!(
        "self-time shares of the {what}, {:.3} s measured:",
        total / 1e9
    );
    let mut sum = 0.0;
    let mut largest = ("", 0.0);
    for (name, key) in layers {
        let v = a.get(key);
        sum += v;
        if v > largest.1 {
            largest = (name, v);
        }
        println!("  {:>6.2} %  {name}", 100.0 * ratio(v, total));
    }
    let other = total - sum;
    println!("  {:>6.2} %  {other_name}", 100.0 * ratio(other, total));
    if other > largest.1 {
        largest = (other_name, other);
    }
    println!("largest layer: {}", largest.0);
    if sum > total && !matches!(wl, Workload::Mc(..)) {
        chk.fail(format!(
            "self times sum to {sum} ns, more than the measured {total} ns"
        ));
    }
    let traced = median(
        &traced_run_ns
            .iter()
            .map(|&ns| ns as f64)
            .collect::<Vec<_>>(),
    );
    println!(
        "tracing overhead: traced run_s {:.3} s (median of {} passes) - untraced {:.3} s = {:+.3} s",
        traced / 1e9,
        traced_run_ns.len(),
        untraced_run_ns as f64 / 1e9,
        (traced - untraced_run_ns as f64) / 1e9
    );
}
