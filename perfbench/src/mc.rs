//! `mc`: the `tmstudy mc --quick` matrix (the mutation catalog, the
//! depth-3 exhaustive clean sweep over backend × contention manager, and
//! the sparse pruning cell) plus the `mc --oom` quick every-site sweep.
//! Each cell runs through the crate's own cell entry point; set-up is
//! the cell's root checkpoint, built by a separate, timed
//! `Session::try_new` / `OomSession::try_new`.
//!
//! The matrix is fixed by the catalog, so this workload does not depend
//! on the seed: its verdicts are the seed-independent invariant.

use tm_alloc::{AllocFaultPlan, AllocatorKind};
use tm_mc::{
    mutation_catalog, oom_cell, oom_program, oom_quick_report, quick_clean_config, quick_report,
    run_clean_cell_opt, run_mutant_cell_opt, small_program, sparse_program, EnumConfig, McProgram,
    MutantRecipe, OomSession, RunConfig, Session, Strategy, SweepWork,
};
use tm_obs::{McCell, McVerdict, OomCell};
use tm_stm::{BackendKind, CmKind, InjectedBug};

use crate::probe::timed;
use crate::stack::{Acc, CellRun};

/// Depth of the quick clean sweep (`tmstudy mc --quick` default).
const CLEAN_DEPTH: usize = 3;

pub enum Cell {
    Mutant(MutantRecipe),
    Clean {
        program: McProgram,
        run: RunConfig,
        ecfg: EnumConfig,
    },
    Oom(RunConfig),
}

/// The cells of `quick_report` then `oom_quick_report`, in their order.
pub fn cells() -> Vec<Cell> {
    let mut out: Vec<Cell> = mutation_catalog().into_iter().map(Cell::Mutant).collect();
    let clean = |program, backend, cm, depth| Cell::Clean {
        program,
        run: RunConfig {
            alloc: AllocatorKind::TbbMalloc,
            backend,
            cm,
            ..RunConfig::clean()
        },
        ecfg: quick_clean_config(depth),
    };
    for backend in BackendKind::ALL {
        for cm in CmKind::ALL {
            out.push(clean(small_program(), backend, cm, CLEAN_DEPTH));
        }
    }
    out.push(clean(
        sparse_program(),
        BackendKind::Etl,
        CmKind::Suicide,
        2,
    ));
    for alloc in AllocatorKind::ALL {
        for backend in [BackendKind::Etl, BackendKind::Norec] {
            for cm in [CmKind::Suicide, CmKind::Adaptive] {
                out.push(Cell::Oom(RunConfig {
                    alloc,
                    backend,
                    cm,
                    ..RunConfig::clean()
                }));
            }
        }
    }
    out.push(Cell::Oom(RunConfig {
        bug: InjectedBug::LeakOnAllocFail,
        ..RunConfig::clean()
    }));
    out
}

pub fn label(c: &Cell) -> String {
    match c {
        Cell::Mutant(r) => format!("mutant/{}", r.bug.name()),
        Cell::Clean { program, run, .. } => format!(
            "clean/{}/{}/{}/{}",
            program.kind.name(),
            program.base.cells,
            run.backend.name(),
            run.cm.name()
        ),
        Cell::Oom(run) => format!(
            "oom/{}/{}/{}/{}",
            run.alloc.name(),
            run.backend.name(),
            run.cm.name(),
            run.bug.name()
        ),
    }
}

fn verdict_code(v: McVerdict) -> u64 {
    match v {
        McVerdict::Clean => 0,
        McVerdict::Caught => 1,
        McVerdict::Violation => 2,
        McVerdict::Escaped => 3,
    }
}

/// Every verdict, count and minimal delay vector of a schedule cell.
fn mc_fields(c: &McCell) -> Vec<(&'static str, u64)> {
    let mut out = vec![
        ("verdict", verdict_code(c.verdict)),
        ("explored", c.explored),
        ("pruned", c.pruned),
        ("deduped", c.deduped),
        ("capped", c.capped as u64),
        ("has_counterexample", c.counterexample.is_some() as u64),
    ];
    if let Some(cx) = &c.counterexample {
        out.push(("found_at", cx.found_at));
        out.push(("shrink_steps", cx.shrink_steps));
        out.extend(cx.schedule.iter().map(|&d| ("schedule", d)));
    }
    out
}

fn oom_fields(c: &OomCell) -> Vec<(&'static str, u64)> {
    vec![
        ("verdict", verdict_code(c.verdict)),
        ("sites", c.sites),
        ("injected", c.injected),
        ("committed_retries", c.committed_retries),
        ("alloc_aborts", c.alloc_aborts),
        ("has_failing_site", c.failing_site.is_some() as u64),
        ("failing_site", c.failing_site.unwrap_or(0)),
    ]
}

fn bits(fields: &[(&'static str, u64)]) -> Vec<u64> {
    fields.iter().map(|&(_, v)| v).collect()
}

/// Every cell of the crate's own quick reports, in [`cells`] order.
pub fn reference() -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = quick_report("perfbench", CLEAN_DEPTH)
        .cells
        .iter()
        .map(|c| bits(&mc_fields(c)))
        .collect();
    out.extend(
        oom_quick_report("perfbench")
            .cells
            .iter()
            .map(|c| bits(&oom_fields(c))),
    );
    out
}

/// Schedules the traced run replays through `Session::run`: the
/// undisturbed schedule plus one delay at each point in turn.
fn replay_set(points: usize, magnitude: u64) -> Vec<Vec<u64>> {
    let mut set = vec![vec![0; points]];
    for p in 0..points {
        let mut d = vec![0; points];
        d[p] = magnitude;
        set.push(d);
    }
    set
}

enum Root {
    Schedules(Session, u64),
    Sites(OomSession),
    None,
}

/// Run one cell: its root checkpoint (set-up), then the cell entry point
/// (measured). In the traced run the checkpoint is reused to time
/// `Session::run` / `OomSession::run` directly.
pub fn run(c: &Cell, acc: Option<&mut Acc>) -> CellRun {
    let (mut root, setup_ns) = timed(|| match c {
        Cell::Mutant(MutantRecipe {
            program,
            run,
            strategy: Strategy::Exhaustive(e),
            ..
        })
        | Cell::Clean {
            program,
            run,
            ecfg: e,
        } => Session::try_new(program, run)
            .map_or(Root::None, |s| Root::Schedules(s, e.magnitudes[0])),
        Cell::Mutant(_) => Root::None,
        Cell::Oom(run) => OomSession::try_new(&oom_program(), run).map_or(Root::None, Root::Sites),
    });
    if acc.is_none() {
        root = Root::None;
    }
    let mut work = SweepWork::default();
    let (out, run_ns) = timed(|| match c {
        Cell::Mutant(r) => mc_fields(&run_mutant_cell_opt(r, true, &mut work)),
        Cell::Clean { program, run, ecfg } => mc_fields(&run_clean_cell_opt(
            program,
            run.alloc,
            run.backend,
            run.cm,
            ecfg,
            true,
            &mut work,
        )),
        Cell::Oom(run) => oom_fields(&oom_cell(&oom_program(), run)),
    });
    let field = |k: &str| out.iter().find(|(n, _)| *n == k).map_or(0, |&(_, v)| v);
    let verdict = field("verdict");
    let expected = match c {
        Cell::Mutant(_) => McVerdict::Caught,
        Cell::Clean { .. } => McVerdict::Clean,
        Cell::Oom(run) if run.bug == InjectedBug::None => McVerdict::Clean,
        Cell::Oom(_) => McVerdict::Caught,
    };
    let violation = (verdict != verdict_code(expected))
        .then(|| format!("verdict code {verdict}, expected {expected:?}"));
    let schedules = field("explored") + field("sites");

    let cell_run = CellRun {
        setup_ns,
        run_ns,
        events: schedules,
        commits: 0,
        refview: bits(&out),
        out: out.clone(),
        violation,
    };
    if let Some(acc) = acc {
        acc.add("mc.cell_ns", run_ns as f64);
        acc.add("mc.explored", field("explored") as f64);
        acc.add("mc.pruned", field("pruned") as f64);
        acc.add("mc.deduped", field("deduped") as f64);
        acc.add("mc.oom_sites", field("sites") as f64);
        acc.add("mc.replay_steps_saved", work.replay_steps_saved as f64);
        if !matches!(root, Root::None) {
            acc.add("mc.sessions", 1.0);
            acc.add("mc.session_new_ns", setup_ns as f64);
        }
        match root {
            Root::Schedules(mut s, magnitude) => {
                // The cell's own traversal ran `explored` schedules from
                // its checkpoint.
                acc.add("mc.cell_ckpt_runs", field("explored") as f64);
                // Replays run on clean cells only: a seeded mutant's
                // delayed schedules may spin until the fuel budget runs
                // out, which says nothing about the cost of a schedule.
                if let Cell::Clean { program, .. } = c {
                    for d in replay_set(program.points(), magnitude) {
                        let (_, ns) = timed(|| s.run(&d));
                        acc.add("mc.runs", 1.0);
                        acc.add("mc.run_ns", ns as f64);
                    }
                    acc.add("mc.restores", s.restores() as f64);
                }
            }
            Root::Sites(mut s) => {
                let (_, ns) = timed(|| s.run(AllocFaultPlan::None));
                let mut runs = 1;
                let mut total = ns;
                for site in s.seed_sites()..s.sites() {
                    let (_, ns) = timed(|| s.run(AllocFaultPlan::NthSite(site)));
                    runs += 1;
                    total += ns;
                }
                acc.add("mc.runs", runs as f64);
                acc.add("mc.run_ns", total as f64);
                acc.add("mc.restores", runs as f64);
                // The cell's sweep ran the same dry run and sites, plus
                // one pressure run.
                acc.add("mc.cell_ckpt_runs", (runs + 1) as f64);
            }
            Root::None => {}
        }
    }
    cell_run
}
