//! The (machine, allocator, STM) stack as `tm_core::build_stack` builds
//! it, assembled call by call so each constructor is timed and the
//! allocator can be wrapped; plus what synth and stamp share: the
//! simulated output fields of a cell and the traced-run accumulator.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tm_alloc::AllocatorKind;
use tm_sim::{MachineConfig, Sim, SimReport};
use tm_stm::{AbortCause, Stm, StmConfig, StmStats};

use crate::probe::{ns_since, timed, AllocTally, TimedAlloc};

/// Scheduler-event budget of every benchmark-built simulator, about
/// 20 s of host time. A cell that exhausts it panics and is counted as a
/// timed-out (failed) cell; the largest cell runs well under 5 % of it.
pub const FUEL: u64 = 200_000_000;

/// One cell execution: host times, simulated work, and the simulated
/// outputs the output check compares.
pub struct CellRun {
    /// Host ns to build the stack and populate / `init` it.
    pub setup_ns: u64,
    /// Host ns of the measured phase.
    pub run_ns: u64,
    /// Scheduler events of the measured phase (schedules plus OOM sites
    /// for mc).
    pub events: u64,
    /// Committed transactions of the measured phase.
    pub commits: u64,
    /// Host-independent output fields.
    pub out: Vec<(&'static str, u64)>,
    /// The fields the crate's own entry point also reports, as exact bit
    /// patterns, in that entry point's order.
    pub refview: Vec<u64>,
    /// A broken seed-independent invariant, if any.
    pub violation: Option<String>,
}

/// Named sums of the traced run.
#[derive(Default, Clone, Debug)]
pub struct Acc(BTreeMap<String, f64>);

impl Acc {
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// A built stack with its constructor timings.
pub struct Stack {
    pub sim: Sim,
    pub stm: Arc<Stm>,
    /// Present in the traced run: the allocator handed to `Stm::new` is
    /// then wrapped in a [`TimedAlloc`] reporting here.
    pub tally: Option<Arc<AllocTally>>,
    pub sim_new_ns: u64,
    pub stm_new_ns: u64,
    pub build_ns: u64,
}

/// Build machine, allocator and STM exactly as `tm_core::build_stack`
/// does for a fault-free configuration.
pub fn build(kind: AllocatorKind, cfg: StmConfig, traced: bool) -> Stack {
    let t = Instant::now();
    let (sim, sim_new_ns) = timed(|| Sim::new(MachineConfig::xeon_e5405()));
    sim.set_fuel(FUEL);
    let mut alloc = kind.build(&sim);
    let tally = traced.then(|| Arc::new(AllocTally::default()));
    if let Some(t) = &tally {
        alloc = TimedAlloc::wrap(alloc, Arc::clone(t));
    }
    let (stm, stm_new_ns) = timed(|| Arc::new(Stm::new(&sim, alloc, cfg)));
    Stack {
        sim,
        stm,
        tally,
        sim_new_ns,
        stm_new_ns,
        build_ns: ns_since(t),
    }
}

pub fn alloc_token(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::Glibc => "glibc",
        AllocatorKind::Hoard => "hoard",
        AllocatorKind::TbbMalloc => "tbb",
        AllocatorKind::TcMalloc => "tc",
    }
}

/// Simulated output fields of one measured phase: counts and virtual
/// cycles only, never a host time.
pub fn outputs(report: &SimReport, stats: &StmStats, events: u64) -> Vec<(&'static str, u64)> {
    let c = &report.cache_total;
    let mut out = vec![
        ("commits", stats.commits),
        ("reads", stats.reads),
        ("writes", stats.writes),
        ("extensions", stats.extensions),
        ("tx_mallocs", stats.tx_mallocs),
        ("tx_frees", stats.tx_frees),
        ("cache_hits", stats.cache_hits),
        ("virtual_cycles", report.cycles),
        ("events", events),
        ("l1_accesses", c.l1_accesses),
        ("l1_misses", c.l1_misses),
        ("l2_accesses", c.l2_accesses),
        ("l2_misses", c.l2_misses),
        ("coherence_transfers", c.coherence_transfers),
        ("invalidations", c.invalidations),
        ("lock_acquisitions", report.locks.acquisitions),
        ("lock_contended", report.locks.contended),
        ("lock_wait_cycles", report.locks.wait_cycles),
        ("os_allocated", report.os_allocated),
    ];
    for cause in AbortCause::ALL {
        out.push((cause_key(cause), stats.by_cause[cause as usize]));
    }
    out
}

/// Output / metric key of an abort cause.
pub fn cause_key(cause: AbortCause) -> &'static str {
    match cause {
        AbortCause::ReadLocked => "aborts.read-locked",
        AbortCause::WriteLocked => "aborts.write-locked",
        AbortCause::Validation => "aborts.validation",
        AbortCause::ReadRace => "aborts.read-race",
        AbortCause::Explicit => "aborts.explicit",
        AbortCause::Capacity => "aborts.capacity",
        AbortCause::Coherence => "aborts.coherence-conflict",
        AbortCause::AllocFailed => "aborts.alloc-failed",
    }
}

/// Fold one traced cell into the accumulator: constructor times for
/// every cell, exact work counts from the 8-thread cells, and per-call
/// allocator times and solo event costs from the 1-thread cells.
#[allow(clippy::too_many_arguments)]
pub fn record(
    acc: &mut Acc,
    kind: AllocatorKind,
    threads: usize,
    st: &Stack,
    tally: &AllocTally,
    report: &SimReport,
    stats: &StmStats,
    events: u64,
    run_ns: u64,
) {
    use std::sync::atomic::Ordering::Relaxed;
    acc.add("build.count", 1.0);
    acc.add("build.sim_new_ns", st.sim_new_ns as f64);
    acc.add("build.stm_new_ns", st.stm_new_ns as f64);
    acc.add("build.stack_ns", st.build_ns as f64);
    if threads == 8 {
        acc.add("n8.events", events as f64);
        acc.add("n8.run_ns", run_ns as f64);
        for (k, v) in outputs(report, stats, events) {
            acc.add(&format!("n8.{k}"), v as f64);
        }
        acc.add("n8.aborts", stats.aborts() as f64);
        acc.add("n8.mallocs", tally.mallocs.load(Relaxed) as f64);
        acc.add("n8.frees", tally.frees.load(Relaxed) as f64);
        acc.add("n8.alloc_failed", tally.failed.load(Relaxed) as f64);
    }
    if threads == 1 {
        acc.add("solo.events", events as f64);
        acc.add("solo.run_ns", run_ns as f64);
        let k = alloc_token(kind);
        acc.add(
            &format!("alloc.{k}.mallocs"),
            tally.mallocs.load(Relaxed) as f64,
        );
        acc.add(
            &format!("alloc.{k}.frees"),
            tally.frees.load(Relaxed) as f64,
        );
        acc.add(
            &format!("alloc.{k}.malloc_ns"),
            tally.malloc_ns.load(Relaxed) as f64,
        );
        acc.add(
            &format!("alloc.{k}.free_ns"),
            tally.free_ns.load(Relaxed) as f64,
        );
    }
}
