//! `synth`: the paper's §5 matrix ({list, hash, rbtree} × four
//! allocators, 8 simulated threads, 60 % updates, `SyntheticConfig::scaled`),
//! rebuilt from public calls so set-up is timed apart from the measured
//! phase. The phases mirror `tm_core::synthetic::run_synthetic` exactly;
//! the reference check holds them to it.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tm_alloc::AllocatorKind;
use tm_core::synthetic::{run_synthetic, SyntheticConfig};
use tm_core::Metrics;
use tm_ds::{StructureKind, TxHashSet, TxList, TxRbTree, TxSet};
use tm_stm::{Stm, StmConfig};

use crate::probe::{ns_since, timed, AllocTally};
use crate::stack::{self, Acc, CellRun};

/// Repository default seed of the synthetic benchmark.
pub const DEFAULT_SEED: u64 = 0x5eed;

pub fn cells(seed: u64) -> Vec<SyntheticConfig> {
    let mut out = Vec::new();
    for s in StructureKind::ALL {
        for a in AllocatorKind::ALL {
            let mut cfg = SyntheticConfig::scaled(s, a, 8);
            cfg.seed = seed;
            out.push(cfg);
        }
    }
    out
}

pub fn label(cfg: &SyntheticConfig) -> String {
    let s = match cfg.structure {
        StructureKind::LinkedList => "list",
        StructureKind::HashSet => "hash",
        StructureKind::RbTree => "rbtree",
    };
    format!("{s}/{}/{}t", stack::alloc_token(cfg.allocator), cfg.threads)
}

/// The fields `run_synthetic` reports, as exact bit patterns.
pub fn reference(cfg: &SyntheticConfig) -> Vec<u64> {
    metrics_bits(&run_synthetic(cfg))
}

fn metrics_bits(m: &Metrics) -> Vec<u64> {
    vec![
        m.seconds.to_bits(),
        m.throughput.to_bits(),
        m.abort_ratio.to_bits(),
        m.l1_miss.to_bits(),
        m.l2_miss.to_bits(),
        m.commits,
        m.aborts,
        m.alloc_failed_aborts,
        m.lock_wait_cycles,
        m.cache_hits,
    ]
}

fn stm_config(cfg: &SyntheticConfig) -> StmConfig {
    StmConfig {
        backend: cfg.backend,
        cm: cfg.cm,
        shift: cfg.shift,
        object_cache: cfg.object_cache,
        design: cfg.design,
        write_mode: cfg.write_mode,
        ort_hash: cfg.ort_hash,
        ..StmConfig::default()
    }
}

#[derive(Clone, Copy)]
enum AnySet {
    List(TxList),
    Hash(TxHashSet),
    Tree(TxRbTree),
}

impl AnySet {
    fn as_set(&self) -> &dyn TxSet {
        match self {
            AnySet::List(s) => s,
            AnySet::Hash(s) => s,
            AnySet::Tree(s) => s,
        }
    }
}

/// Host time inside `TxSet` calls and inside the allocator during them.
#[derive(Default)]
struct OpClock {
    ops: AtomicU64,
    op_ns: AtomicU64,
    alloc_ns: AtomicU64,
}

/// One set operation, timed when `clock` is present.
fn op<R>(clock: Option<(&OpClock, &AllocTally)>, f: impl FnOnce() -> R) -> R {
    let Some((clock, tally)) = clock else {
        return f();
    };
    let a0 = tally.busy_ns();
    let t = Instant::now();
    let r = f();
    clock.op_ns.fetch_add(ns_since(t), Relaxed);
    clock.alloc_ns.fetch_add(tally.busy_ns() - a0, Relaxed);
    clock.ops.fetch_add(1, Relaxed);
    r
}

/// Run one cell: build and populate (set-up), then the measured phase.
/// `acc` is present in the traced run; set operations are timed only in
/// 1-thread cells, where spans nest.
pub fn run(cfg: &SyntheticConfig, acc: Option<&mut Acc>) -> CellRun {
    let traced = acc.is_some();
    let t_cell = Instant::now();
    let st = stack::build(cfg.allocator, stm_config(cfg), traced);
    let stm: &Stm = &st.stm;

    // ---- Sequential phase: the main thread builds the structure. ----
    let set_cell = parking_lot::Mutex::new(None::<AnySet>);
    let alloc_before_populate = st.tally.as_ref().map_or(0, |t| t.busy_ns());
    let (_, populate_ns) = timed(|| {
        st.sim.run(1, |ctx| {
            let set = match cfg.structure {
                StructureKind::LinkedList => AnySet::List(TxList::new(stm, ctx)),
                StructureKind::HashSet => AnySet::Hash(TxHashSet::new(stm, ctx, cfg.buckets)),
                StructureKind::RbTree => AnySet::Tree(TxRbTree::new(stm, ctx)),
            };
            let mut th = stm.thread(0);
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let mut inserted = 0;
            while inserted < cfg.initial_size {
                let key = rng.gen_range(0..cfg.key_range);
                if set.as_set().insert(stm, ctx, &mut th, key) {
                    inserted += 1;
                }
            }
            stm.retire(th);
            *set_cell.lock() = Some(set);
        })
    });
    let populate_alloc_ns = st.tally.as_ref().map_or(0, |t| t.busy_ns()) - alloc_before_populate;
    stm.reset_stats();
    let setup_ns = ns_since(t_cell);

    // ---- Parallel phase: the measured region. ----
    let clock = OpClock::default();
    let timing = match &st.tally {
        Some(t) if cfg.threads == 1 => Some((&clock, &**t)),
        _ => None,
    };
    let events0 = st.sim.events();
    let alloc_before_run = st.tally.as_ref().map_or(0, |t| t.busy_ns());
    let (report, run_ns) = timed(|| {
        st.sim.run(cfg.threads, |ctx| {
            let any = set_cell
                .lock()
                .expect("populated before the parallel phase");
            let set = any.as_set();
            let mut th = stm.thread(ctx.tid());
            let mut rng = SmallRng::seed_from_u64(
                cfg.seed ^ (ctx.tid() as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let mut pending_remove: Option<u64> = None;
            for _ in 0..cfg.ops_per_thread {
                let is_update = rng.gen_range(0..100) < cfg.update_pct;
                if is_update {
                    match pending_remove.take() {
                        Some(key) => {
                            op(timing, || set.remove(stm, ctx, &mut th, key));
                        }
                        None => {
                            let key = rng.gen_range(0..cfg.key_range);
                            op(timing, || set.insert(stm, ctx, &mut th, key));
                            pending_remove = Some(key);
                        }
                    }
                } else {
                    let key = rng.gen_range(0..cfg.key_range);
                    op(timing, || set.contains(stm, ctx, &mut th, key));
                }
            }
            stm.retire(th);
        })
    });
    let events = st.sim.events() - events0;
    let run_alloc_ns = st.tally.as_ref().map_or(0, |t| t.busy_ns()) - alloc_before_run;
    let stats = stm.stats();
    let out = stack::outputs(&report, &stats, events);
    let expected = cfg.threads as u64 * cfg.ops_per_thread;
    let violation = (stats.commits != expected).then(|| {
        format!(
            "{} commits, expected threads x ops = {expected}",
            stats.commits
        )
    });
    // The same fields `run_synthetic` derives from the same two reports.
    let refview = metrics_bits(&Metrics {
        seconds: report.seconds,
        throughput: report.throughput(stats.commits),
        abort_ratio: stats.abort_ratio(),
        l1_miss: report.cache_total.l1_miss_ratio(),
        l2_miss: report.cache_total.l2_miss_ratio(),
        commits: stats.commits,
        aborts: stats.aborts(),
        alloc_failed_aborts: stats.by_cause[tm_stm::AbortCause::AllocFailed as usize],
        lock_wait_cycles: report.locks.wait_cycles,
        cache_hits: stats.cache_hits,
    });
    let total_ns = ns_since(t_cell);

    if let Some(acc) = acc {
        let tally = st.tally.as_ref().expect("traced stacks carry a tally");
        stack::record(
            acc,
            cfg.allocator,
            cfg.threads,
            &st,
            tally,
            &report,
            &stats,
            events,
            run_ns,
        );
        if cfg.threads == 1 {
            let ops_ns = clock.op_ns.load(Relaxed);
            let ops_alloc_ns = clock.alloc_ns.load(Relaxed);
            acc.add("solo.total_ns", total_ns as f64);
            acc.add("solo.build_ns", st.build_ns as f64);
            acc.add("solo.alloc_ns", tally.busy_ns() as f64);
            acc.add(
                "solo.populate_self_ns",
                (populate_ns - populate_alloc_ns) as f64,
            );
            acc.add("solo.op_self_ns", (ops_ns - ops_alloc_ns) as f64);
            // Allocator calls outside set operations (deferred frees at
            // retire) are the allocator's, not the loop's.
            let loop_alloc_ns = run_alloc_ns - ops_alloc_ns;
            acc.add("solo.harness_ns", (run_ns - ops_ns - loop_alloc_ns) as f64);
            acc.add("ds.ops", clock.ops.load(Relaxed) as f64);
            acc.add("ds.op_ns", ops_ns as f64);
        }
    }
    CellRun {
        setup_ns,
        run_ns,
        events,
        commits: stats.commits,
        out,
        refview,
        violation,
    }
}

/// The same cell at one simulated thread: the traced run's self-time
/// variant, where spans nest and host intervals hold no other thread.
pub fn solo(cfg: &SyntheticConfig) -> SyntheticConfig {
    SyntheticConfig {
        threads: 1,
        ..cfg.clone()
    }
}

/// Self-time layers of a 1-thread synth cell, as `(name, acc key)`.
pub const SOLO_LAYERS: &[(&str, &str)] = &[
    ("stack build (tm-sim, tm-alloc, tm-stm)", "solo.build_ns"),
    ("populate (tm-ds, tm-stm, tm-sim)", "solo.populate_self_ns"),
    (
        "set operations minus allocator (tm-ds, tm-stm, tm-sim)",
        "solo.op_self_ns",
    ),
    ("allocator (tm-alloc)", "solo.alloc_ns"),
    ("worker loop outside set operations", "solo.harness_ns"),
];
