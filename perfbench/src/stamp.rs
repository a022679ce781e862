//! `stamp`: all eight STAMP apps × four allocators × {1, 2, 4, 8}
//! threads at the exhibit scale (`tm_bench::stamp_scale`), the Fig. 7/8
//! grid. The phases mirror `tm_stamp::runner::run_app`; the reference
//! check holds them to it.

use std::time::Instant;

use tm_alloc::AllocatorKind;
use tm_stamp::runner::{make_app, run_app, StampOpts, StampResult};
use tm_stamp::AppKind;
use tm_stm::StmConfig;

use crate::probe::{ns_since, timed};
use crate::stack::{self, Acc, CellRun};

/// Repository default seed of the STAMP runs.
pub fn default_seed() -> u64 {
    StampOpts::default().seed
}

pub const THREADS: [usize; 4] = [1, 2, 4, 8];

#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub app: AppKind,
    pub alloc: AllocatorKind,
    pub threads: usize,
    pub seed: u64,
}

pub fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for app in AppKind::ALL {
        for alloc in AllocatorKind::ALL {
            for threads in THREADS {
                out.push(Cell {
                    app,
                    alloc,
                    threads,
                    seed,
                });
            }
        }
    }
    out
}

pub fn label(c: &Cell) -> String {
    format!(
        "{}/{}/{}t",
        c.app.name().to_ascii_lowercase(),
        stack::alloc_token(c.alloc),
        c.threads
    )
}

fn opts(seed: u64) -> StampOpts {
    StampOpts {
        seed,
        ..StampOpts::default()
    }
}

/// `checksum` as two exact fields: presence, then value.
fn checksum_bits(c: Option<u64>) -> [u64; 2] {
    [c.is_some() as u64, c.unwrap_or(0)]
}

/// The fields `run_app` reports, as exact bit patterns.
pub fn reference(c: &Cell) -> Vec<u64> {
    let o = opts(c.seed);
    let app = make_app(c.app, tm_bench::stamp_scale(c.app), o.seed);
    result_bits(&run_app(app.as_ref(), c.alloc, c.threads, &o))
}

fn result_bits(r: &StampResult) -> Vec<u64> {
    let mut v = vec![
        r.seq_seconds.to_bits(),
        r.par_seconds.to_bits(),
        r.commits,
        r.aborts,
        r.alloc_failed_aborts,
        r.abort_ratio.to_bits(),
        r.l1_miss.to_bits(),
        r.l2_miss.to_bits(),
        r.lock_wait_cycles,
        r.cache_hits,
        r.heap_violations,
    ];
    v.extend(checksum_bits(r.checksum));
    v
}

/// Run one cell: input generation, stack build and `init` (set-up), the
/// parallel phase (measured), then `verify` and `checksum`.
pub fn run(c: &Cell, acc: Option<&mut Acc>) -> CellRun {
    let o = opts(c.seed);
    let t_cell = Instant::now();
    let app = make_app(c.app, tm_bench::stamp_scale(c.app), o.seed);
    let st = stack::build(
        c.alloc,
        StmConfig {
            backend: o.backend,
            cm: o.cm,
            shift: o.shift,
            object_cache: o.object_cache,
            design: o.design,
            write_mode: o.write_mode,
            ort_hash: o.ort_hash,
            ..StmConfig::default()
        },
        acc.is_some(),
    );
    let stm = &st.stm;
    let busy = || st.tally.as_ref().map_or(0, |t| t.busy_ns());

    let a0 = busy();
    let (seq, init_ns) = timed(|| st.sim.run(1, |ctx| app.init(stm, ctx)));
    let init_alloc_ns = busy() - a0;
    stm.reset_stats();
    let setup_ns = ns_since(t_cell);

    let events0 = st.sim.events();
    let a1 = busy();
    let (par, run_ns) = timed(|| {
        st.sim.run(c.threads, |ctx| {
            let mut th = stm.thread(ctx.tid());
            app.worker(stm, ctx, &mut th);
            stm.retire(th);
        })
    });
    let run_alloc_ns = busy() - a1;
    let events = st.sim.events() - events0;

    let checksum = parking_lot::Mutex::new(None);
    let (_, verify_ns) = timed(|| {
        st.sim.run(1, |ctx| {
            app.verify(stm, ctx);
            *checksum.lock() = app.checksum(stm, ctx);
        })
    });
    let checksum = checksum.into_inner();
    let total_ns = ns_since(t_cell);

    let stats = stm.stats();
    let mut out = stack::outputs(&par, &stats, events);
    out.push(("seq_cycles", seq.cycles));
    let [has, value] = checksum_bits(checksum);
    out.push(("has_checksum", has));
    out.push(("checksum", value));
    // The same fields `run_app` derives from the same reports.
    let refview = result_bits(&StampResult {
        seq_seconds: seq.seconds,
        par_seconds: par.seconds,
        commits: stats.commits,
        aborts: stats.aborts(),
        alloc_failed_aborts: stats.by_cause[tm_stm::AbortCause::AllocFailed as usize],
        abort_ratio: stats.abort_ratio(),
        l1_miss: par.cache_total.l1_miss_ratio(),
        l2_miss: par.cache_total.l2_miss_ratio(),
        lock_wait_cycles: par.locks.wait_cycles,
        cache_hits: stats.cache_hits,
        checksum,
        heap_violations: 0,
    });

    if let Some(acc) = acc {
        let tally = st.tally.as_ref().expect("traced stacks carry a tally");
        stack::record(
            acc, c.alloc, c.threads, &st, tally, &par, &stats, events, run_ns,
        );
        acc.add("stamp.init_ns", init_ns as f64);
        acc.add("stamp.verify_ns", verify_ns as f64);
        if c.threads == 1 {
            acc.add("solo.total_ns", total_ns as f64);
            acc.add("solo.build_ns", st.build_ns as f64);
            acc.add("solo.input_ns", (setup_ns - init_ns - st.build_ns) as f64);
            acc.add("solo.alloc_ns", tally.busy_ns() as f64);
            acc.add("solo.init_self_ns", (init_ns - init_alloc_ns) as f64);
            acc.add("solo.worker_self_ns", (run_ns - run_alloc_ns) as f64);
            acc.add("solo.verify_self_ns", verify_ns as f64);
        }
    }
    CellRun {
        setup_ns,
        run_ns,
        events,
        commits: stats.commits,
        out,
        refview,
        violation: None,
    }
}

/// Self-time layers of a 1-thread STAMP cell, as `(name, acc key)`.
/// `verify` allocates nothing, so its span is its self time.
pub const SOLO_LAYERS: &[(&str, &str)] = &[
    ("input generation (make_app)", "solo.input_ns"),
    ("stack build (tm-sim, tm-alloc, tm-stm)", "solo.build_ns"),
    (
        "init minus allocator (tm-stamp, tm-stm, tm-sim)",
        "solo.init_self_ns",
    ),
    (
        "worker minus allocator (tm-stamp, tm-stm, tm-sim)",
        "solo.worker_self_ns",
    ),
    ("allocator (tm-alloc)", "solo.alloc_ns"),
    ("verify + checksum (tm-stamp)", "solo.verify_self_ns"),
];

/// The N-thread checksum of each (app, allocator) must equal the
/// 1-thread one: the final logical state does not depend on the
/// interleaving.
pub fn checksum_violations(cells: &[Cell], outs: &[Option<&CellRun>]) -> Vec<(usize, String)> {
    let field = |r: &CellRun, k: &str| {
        r.out
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| *v)
            .expect("stamp outputs carry checksum fields")
    };
    let mut bad = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        if c.threads == 1 {
            continue;
        }
        let solo = cells
            .iter()
            .position(|s| s.app == c.app && s.alloc == c.alloc && s.threads == 1);
        let (Some(r), Some(Some(base))) = (outs[i], solo.map(|j| outs[j])) else {
            continue;
        };
        if field(r, "has_checksum") == 1
            && (field(base, "has_checksum") != 1 || field(r, "checksum") != field(base, "checksum"))
        {
            bad.push((
                i,
                format!(
                    "{}: checksum {:#x} differs from the 1-thread checksum {:#x}",
                    label(c),
                    field(r, "checksum"),
                    field(base, "checksum")
                ),
            ));
        }
    }
    bad
}
