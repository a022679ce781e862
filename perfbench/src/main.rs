//! Host-time benchmark of the simulator stack.
//!
//! ```text
//! perfbench --workload synth|stamp|mc [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one OS thread: simulated threads are fibers on it. A run
//!
//! 1. repeats passes over the workload's cells for `--seconds`, each cell
//!    rebuilt from public calls so set-up is timed apart from the
//!    measured phase, and checks every pass against the crates' own
//!    entry points (`run_synthetic`, `run_app`, `quick_report` /
//!    `oom_quick_report`), the seed-independent invariants, the first
//!    pass, and (at the default seed) the stored output digest;
//! 2. runs a cell's entry point once, outside any timed region, right
//!    after the cell's first run has finished within its event budget:
//!    the entry points have no budget, so a cell that would not end
//!    fails on the benchmark's own run instead of hanging the process.
//!    A cell that failed is not run again;
//! 3. prints every metric by name with its unit, then one JSON line:
//!    the end-to-end metrics with `--trace 0`, the per-layer metrics with
//!    `--trace 1`.
//!
//! The traced run wraps the allocator handed to `Stm::new`, times the
//! constructors and each layer call from outside, and adds a 1-thread
//! variant of every synth cell (STAMP's grid already has one). Its
//! first pass is untraced, which gives the tracing overhead and holds
//! traced outputs equal to untraced ones.

mod check;
mod layers;
mod mc;
mod probe;
mod stack;
mod stamp;
mod synth;

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use probe::timed;
use stack::{Acc, CellRun};

/// No new pass starts once a run is this old, so every run ends well
/// inside the 180 s a run may take.
const HARD_LIMIT_S: f64 = 120.0;

/// Untraced passes before the deadline may end the measurement.
const MIN_PASSES: usize = 3;

pub enum Workload {
    Synth(Vec<tm_core::synthetic::SyntheticConfig>),
    Stamp(Vec<stamp::Cell>),
    /// The cells and, once asked for, the entry points' results for all
    /// of them (the crate computes them in one report).
    Mc(Vec<mc::Cell>, OnceCell<Vec<Reference>>),
}

/// A cell's fields as the crate's own entry point reports them; `Err`
/// when that entry point panicked.
pub type Reference = Result<Vec<u64>, String>;

impl Workload {
    /// Build the workload's cells; the seed is mixed into the repository
    /// default, so seed 0 reproduces the repository's artifacts.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "synth" => Workload::Synth(synth::cells(synth::DEFAULT_SEED ^ seed)),
            "stamp" => Workload::Stamp(stamp::cells(stamp::default_seed() ^ seed)),
            "mc" => Workload::Mc(mc::cells(), OnceCell::new()),
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Synth(_) => "synth",
            Workload::Stamp(_) => "stamp",
            Workload::Mc(..) => "mc",
        }
    }

    pub fn cell_count(&self) -> usize {
        match self {
            Workload::Synth(c) => c.len(),
            Workload::Stamp(c) => c.len(),
            Workload::Mc(c, _) => c.len(),
        }
    }

    pub fn label(&self, i: usize) -> String {
        match self {
            Workload::Synth(c) => synth::label(&c[i]),
            Workload::Stamp(c) => stamp::label(&c[i]),
            Workload::Mc(c, _) => mc::label(&c[i]),
        }
    }

    pub fn run(&self, i: usize, acc: Option<&mut Acc>) -> CellRun {
        match self {
            Workload::Synth(c) => synth::run(&c[i], acc),
            Workload::Stamp(c) => stamp::run(&c[i], acc),
            Workload::Mc(c, _) => mc::run(&c[i], acc),
        }
    }

    /// The traced run's 1-thread variant of cell `i`, when the workload
    /// needs one.
    pub fn run_solo(&self, i: usize, acc: &mut Acc) -> Option<CellRun> {
        match self {
            Workload::Synth(c) => Some(synth::run(&synth::solo(&c[i]), Some(acc))),
            _ => None,
        }
    }

    /// Cell `i`'s fields as the crate's own entry point reports them.
    pub fn reference(&self, i: usize) -> Reference {
        let guarded =
            |f: &dyn Fn() -> Vec<u64>| catch_unwind(AssertUnwindSafe(f)).map_err(panic_text);
        match self {
            Workload::Synth(c) => guarded(&|| synth::reference(&c[i])),
            Workload::Stamp(c) => guarded(&|| stamp::reference(&c[i])),
            Workload::Mc(c, all) => all.get_or_init(|| match catch_unwind(mc::reference) {
                Ok(v) => v.into_iter().map(Ok).collect(),
                Err(p) => vec![Err(panic_text(p)); c.len()],
            })[i]
                .clone(),
        }
    }

    /// Cross-cell invariants of one pass.
    pub fn pass_violations(&self, runs: &[Option<&CellRun>]) -> Vec<(usize, String)> {
        match self {
            Workload::Stamp(c) => stamp::checksum_violations(c, runs),
            _ => Vec::new(),
        }
    }
}

pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{val}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload synth|stamp|mc [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let Some(wl) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload '{}' (synth, stamp, mc)",
            args.workload
        );
        std::process::exit(2);
    };
    fix_mmap_threshold();
    let started = Instant::now();
    let n = wl.cell_count();
    println!(
        "perfbench: workload {} ({n} cells), seed {}, {} s, trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let labels = (0..n).map(|i| wl.label(i)).collect();
    let mut chk = check::Checker::new(labels);
    let mut ref_ns = 0u64;

    // Samples of the passes that feed the reported metrics: untraced
    // passes with --trace 0, traced passes with --trace 1.
    let mut setup_ns: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut run_ns: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut work: Vec<(u64, u64)> = vec![(0, 0); n];
    let mut accs: Vec<Acc> = Vec::new();
    let mut untraced_run_ns = 0u64;
    let mut traced_run_ns: Vec<u64> = Vec::new();

    let measure_start = Instant::now();
    let mut passes = 0usize;
    loop {
        // With --trace 1 the first pass is untraced.
        let traced = args.trace && passes > 0;
        let pass_start = Instant::now();
        let mut acc = Acc::default();
        let mut runs: Vec<Option<CellRun>> = Vec::with_capacity(n);
        let mut pass_run_ns = 0u64;
        for i in 0..n {
            if chk.has_failed(i) {
                runs.push(None);
                continue;
            }
            let r = catch_unwind(AssertUnwindSafe(|| wl.run(i, traced.then_some(&mut acc))));
            if r.is_ok() && !chk.has_reference(i) {
                let (reference, ns) = timed(|| wl.reference(i));
                ref_ns += ns;
                chk.set_reference(i, reference);
            }
            let r = chk.cell(i, traced, r.map_err(panic_text));
            if let Some(r) = &r {
                pass_run_ns += r.run_ns;
                if traced == args.trace {
                    setup_ns[i].push(r.setup_ns);
                    run_ns[i].push(r.run_ns);
                    work[i] = (r.events, r.commits);
                }
            }
            runs.push(r);
            if traced && !chk.has_failed(i) {
                let solo = catch_unwind(AssertUnwindSafe(|| wl.run_solo(i, &mut acc)));
                chk.solo(i, solo.map_err(panic_text));
            }
        }
        chk.pass(&wl, &runs);
        if traced {
            acc.add("pass_ns", pass_start.elapsed().as_nanos() as f64);
            traced_run_ns.push(pass_run_ns);
            accs.push(acc);
        } else if args.trace {
            untraced_run_ns = pass_run_ns;
        }
        passes += 1;
        if passes == 1 {
            println!(
                "reference: crate entry points, {:.2} s (untimed)",
                ref_ns as f64 / 1e9
            );
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        println!(
            "pass {passes}{}: measured phases {:.4} s, pass {pass_s:.3} s",
            if traced { " (traced)" } else { "" },
            pass_run_ns as f64 / 1e9
        );
        // A traced run needs its untraced first pass plus one traced pass.
        let min_passes = if args.trace { 2 } else { MIN_PASSES };
        let measured_s = measure_start.elapsed().as_secs_f64() - ref_ns as f64 / 1e9;
        let enough = measured_s >= args.seconds && passes >= min_passes;
        if enough || started.elapsed().as_secs_f64() + pass_s > HARD_LIMIT_S {
            break;
        }
    }
    if args.trace && accs.is_empty() {
        chk.fail("no traced pass fitted in the time limit".into());
    }

    let digest = chk.digest();
    println!("outputs digest: {digest:016x}");
    if args.seed == 0 {
        chk.golden(wl.name(), digest);
    }

    let metrics = if args.trace {
        let ls = layers::finish(&accs, &mut chk);
        layers::summary(&wl, &accs, untraced_run_ns, &traced_run_ns, &mut chk);
        ls
    } else {
        end_to_end(&wl, &setup_ns, &run_ns, &work)
    };
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    let (attempted, failed) = chk.counts();
    println!(
        "cells: {attempted} attempted, {failed} failed (failed_ratio {}), passes {passes}, wall {:.1} s",
        failed as f64 / attempted.max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    chk.print_failures();
    println!(
        "{}",
        result_json(chk.correct(), attempted, failed, &metrics)
    );
}

/// Fix glibc's mmap threshold at its ceiling, 32 MiB. By default glibc
/// serves blocks from 128 KiB up with fresh `mmap`s and raises that
/// threshold only after such a block is freed; whether and when it does
/// varied from run to run, and the page faults of the fresh mappings made
/// the same `mc` pass take 0.45 s in one run and 1.4 s (two thirds of it
/// in the kernel) in the next. Fixed at the ceiling, large blocks are
/// reused from the heap as glibc does once fully adapted.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: sets one malloc parameter; no other thread exists yet.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) } != 1 {
        eprintln!("perfbench: mallopt(M_MMAP_THRESHOLD) refused");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

/// Median of host-time samples; 0 for none.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub type Metric = (String, f64, &'static str);

/// End-to-end metrics. A cell's time is the fastest of its passes,
/// summed over cells: every pass does the same simulated work, and on a
/// shared host interference only adds time, so the fastest pass is the
/// estimate of the code's own cost that repeats from run to run (per-cell
/// medians moved by a quarter between runs as the host's speed drifted;
/// they are printed beside the metrics for reading).
fn end_to_end(
    wl: &Workload,
    setup: &[Vec<u64>],
    run: &[Vec<u64>],
    work: &[(u64, u64)],
) -> Vec<Metric> {
    let secs = |samples: &[Vec<u64>], pick: fn(&[f64]) -> f64| -> f64 {
        samples
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| pick(&v.iter().map(|&ns| ns as f64).collect::<Vec<_>>()))
            .sum::<f64>()
            / 1e9
    };
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_s = secs(setup, fastest);
    let run_s = secs(run, fastest);
    let passes: Vec<usize> = run.iter().map(Vec::len).collect();
    println!(
        "passes per cell: {}..{}; per-cell medians: setup {} s, run {} s",
        passes.iter().min().unwrap_or(&0),
        passes.iter().max().unwrap_or(&0),
        secs(setup, median),
        secs(run, median)
    );
    let units: u64 = work.iter().map(|w| w.0).sum();
    let commits: u64 = work.iter().map(|w| w.1).sum();
    let per_s = |x: u64| if run_s > 0.0 { x as f64 / run_s } else { 0.0 };
    // The same figure under its per-workload name, for reading.
    match wl {
        Workload::Mc(..) => println!("schedules_per_s = {} 1/s", per_s(units)),
        _ => {
            println!("events_per_s = {} 1/s", per_s(units));
            println!("commits_per_s = {} 1/s", per_s(commits));
        }
    }
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("run_s".into(), run_s, "s"),
        ("work_per_s".into(), per_s(units), "1/s"),
        ("peak_rss_mb".into(), peak_rss_mib(), "MiB"),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
