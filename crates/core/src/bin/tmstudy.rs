//! `tmstudy` — command-line front end for the whole reproduction stack.
//!
//! ```sh
//! tmstudy synth --structure list --alloc glibc --threads 8 --shift 5
//! tmstudy stamp --app yada --alloc tc --threads 8 --object-cache
//! tmstudy threadtest --alloc hoard --size 512
//! tmstudy profile --app intruder
//! tmstudy machine
//! tmstudy report results/fig4.json
//! tmstudy report results/fig4.json old-results/fig4.json
//! tmstudy sweep --structure list --alloc glibc,hoard,tbb,tc --threads 1,2,4,8
//! tmstudy check --quick
//! tmstudy book --check
//! ```
//!
//! Every run is deterministic; flags map 1:1 onto the library types, so
//! anything printed here can be reproduced programmatically.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use tm_alloc::profile::{bucket_label, Region};
use tm_alloc::AllocatorKind;
use tm_core::synthetic::{run_synthetic, SyntheticConfig};
use tm_core::threadtest::{run_threadtest, ThreadtestConfig};
use tm_ds::StructureKind;
use tm_stamp::runner::{make_app, profile_app, run_app, StampOpts};
use tm_stamp::AppKind;
use tm_stm::{LockDesign, OrtHash, WriteMode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return;
    };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "synth" => synth(&flags),
        "stamp" => stamp(&flags),
        "threadtest" => threadtest(&flags),
        "profile" => profile(&flags),
        "machine" => machine(),
        "report" => report(rest),
        "sweep" => sweep(&flags),
        "check" => check(&flags),
        "mc" => mc(&flags),
        "book" => book(&flags),
        _ => usage(),
    }
}

fn usage() {
    eprintln!(
        "usage: tmstudy <synth|stamp|threadtest|profile|machine|report|sweep|check|mc|book> [flags]\n\
         synth:      --structure list|hash|rbtree --alloc <a> --threads N \
         [--backend etl|norec|htm] [--cm <policy>] [--update-pct P] [--shift S] \
         [--size N] [--ops N] [--ctl] [--mix-hash] [--object-cache] \
         [--alloc-fault PLAN]\n\
         stamp:      --app <name> --alloc <a> --threads N [--scale S] \
         [--backend etl|norec|htm] [--cm <policy>] [--shift S] [--ctl] [--mix-hash] \
         [--object-cache] [--alloc-fault PLAN]\n\
         threadtest: --alloc <a> [--size BYTES] [--threads N] [--pairs N]\n\
         profile:    --app <name> [--alloc <a>] [--scale S]\n\
         report:     <a.json> — pretty-print; <a.json> <b.json> — diff \
         (run reports or sweep matrices, by schema)\n\
         sweep:      [--workload synth|stamp|threadtest] axes as comma lists \
         (--structure --app --alloc --backend --cm --alloc-fault --threads --shift \
         --update-pct --size --ops --pairs --scale --seeds) [--quick] [--reps N] \
         [--name S] [--out FILE] [--workers N] [--timeout-ms N] [--retries N] \
         [--backoff-ms N]\n\
         check:      correctness matrix (serial oracles, heap audit, \
         cross-backend and cross-CM diffs, interleaving explorer) [--quick] \
         [--backend B] [--cm C] [--name S] [--out FILE]\n\
         mc:         systematic schedule exploration (bounded-exhaustive \
         enumeration with conflict pruning, checkpoint/restore prefix-tree \
         execution) [--quick] [--backend B] [--cm C] [--alloc A] [--depth N] \
         [--budget N] [--magnitudes A,B,..] [--no-checkpoint] [--alloc-fault PLAN] \
         [--name S] [--out FILE]; --oom runs the every-site allocation-failure \
         sweep instead (writes results/<name>.oom.json)\n\
         book:       [--results DIR] [--out FILE] [--stdout] [--check]\n\
         allocators: glibc hoard tbb tc\n\
         cm (contention manager): suicide backoff karma timestamp serialize adaptive\n\
         alloc-fault plans: none | budget:<bytes> | class:<size>:<max-live> | \
         site:<n> | prob:<seed>:<denom>"
    );
}

/// Any schema that `tmstudy report` can show or diff.
enum AnyReport {
    Run(tm_obs::RunReport),
    Sweep(tm_obs::SweepReport),
    Check(tm_obs::CheckReport),
    Mc(tm_obs::McReport),
    Oom(tm_obs::OomReport),
}

/// The schemas this binary understands, for error messages.
const KNOWN_SCHEMAS: [&str; 7] = [
    tm_obs::report::SCHEMA,
    tm_obs::report::SCHEMA_V1_1,
    tm_obs::sweep::SWEEP_SCHEMA,
    tm_obs::check::CHECK_SCHEMA,
    tm_obs::mc::MC_SCHEMA,
    tm_obs::mc::MC_SCHEMA_V1_1,
    tm_obs::oom::OOM_SCHEMA,
];

impl AnyReport {
    /// Load a results JSON file, dispatching on its `schema` field. A file
    /// with an unrecognised schema gets a clear error naming the schemas
    /// this binary understands, not a parse panic.
    fn load(path: &str) -> Result<AnyReport, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&src).map_err(|e| format!("{path}: {e}"))
    }

    fn parse(src: &str) -> Result<AnyReport, String> {
        let tree = tm_obs::json::Json::parse(src).map_err(|e| format!("not JSON: {e}"))?;
        match tree.get("schema").and_then(tm_obs::json::Json::as_str) {
            Some(tm_obs::report::SCHEMA | tm_obs::report::SCHEMA_V1_1) => {
                tm_obs::RunReport::from_json(&tree)
                    .map(AnyReport::Run)
                    .map_err(|e| format!("malformed run report: {e}"))
            }
            Some(tm_obs::sweep::SWEEP_SCHEMA) => tm_obs::SweepReport::from_json(&tree)
                .map(AnyReport::Sweep)
                .map_err(|e| format!("malformed sweep matrix: {e}")),
            Some(tm_obs::check::CHECK_SCHEMA) => tm_obs::CheckReport::from_json(&tree)
                .map(AnyReport::Check)
                .map_err(|e| format!("malformed check report: {e}")),
            Some(tm_obs::mc::MC_SCHEMA | tm_obs::mc::MC_SCHEMA_V1_1) => {
                tm_obs::McReport::from_json(&tree)
                    .map(AnyReport::Mc)
                    .map_err(|e| format!("malformed mc report: {e}"))
            }
            Some(tm_obs::oom::OOM_SCHEMA) => tm_obs::OomReport::from_json(&tree)
                .map(AnyReport::Oom)
                .map_err(|e| format!("malformed oom report: {e}")),
            Some(other) => Err(format!(
                "unknown schema '{other}' (known schemas: {})",
                KNOWN_SCHEMAS.join(", ")
            )),
            None => Err(format!(
                "no 'schema' field (known schemas: {})",
                KNOWN_SCHEMAS.join(", ")
            )),
        }
    }

    fn load_or_exit(path: &str) -> AnyReport {
        AnyReport::load(path).unwrap_or_else(|e| {
            eprintln!("report: {e}");
            std::process::exit(2);
        })
    }
}

/// Pretty-print one results JSON file (run report, sweep matrix, or check
/// report, chosen by its `schema` field), or structurally diff two of the
/// same schema (exit code 1 when they differ, for scripting).
fn report(args: &[String]) {
    match args {
        [one] => match AnyReport::load_or_exit(one) {
            AnyReport::Run(r) => print!("{}", r.render()),
            AnyReport::Sweep(s) => print!("{}", s.render()),
            AnyReport::Check(c) => print!("{}", c.render()),
            AnyReport::Mc(m) => print!("{}", m.render()),
            AnyReport::Oom(o) => print!("{}", o.render()),
        },
        [a, b] => {
            let d = match (AnyReport::load_or_exit(a), AnyReport::load_or_exit(b)) {
                (AnyReport::Run(ra), AnyReport::Run(rb)) => ra.diff(&rb),
                (AnyReport::Sweep(sa), AnyReport::Sweep(sb)) => sa.diff(&sb),
                (AnyReport::Mc(ma), AnyReport::Mc(mb)) => ma.diff(&mb),
                (AnyReport::Oom(oa), AnyReport::Oom(ob)) => oa.diff(&ob),
                (AnyReport::Check(_), AnyReport::Check(_)) => {
                    eprintln!("report: check reports have no diff; rerun `tmstudy check`");
                    std::process::exit(2);
                }
                _ => {
                    eprintln!("report: cannot diff reports of different schemas");
                    std::process::exit(2);
                }
            };
            match d {
                None => println!("reports are identical"),
                Some(d) => {
                    print!("{d}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// Run a declarative sweep on the worker pool and write the matrix.
fn sweep(flags: &HashMap<String, String>) {
    let spec = match tm_core::sweeps::spec_from_flags(flags) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };
    let policy = tm_sweep::Policy {
        workers: get(flags, "workers", 4),
        timeout: Some(Duration::from_millis(get(flags, "timeout-ms", 60_000))),
        retries: get(flags, "retries", 1),
        backoff: Duration::from_millis(get(flags, "backoff-ms", 50)),
        fault: tm_sweep::Fault::from_env(),
    };
    eprintln!(
        "sweep '{}': {} cells on {} workers (timeout {:?})",
        spec.name,
        spec.cell_count(),
        policy.workers,
        policy.timeout.unwrap()
    );
    let runner: Arc<tm_sweep::CellRunner> = Arc::new(tm_core::sweeps::run_cell);
    let report = tm_sweep::run_spec(&spec, runner, &policy);
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("results/{}.sweep.json", report.name));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, report.to_json_string()).expect("write sweep matrix");
    print!("{}", report.render());
    println!("\nmatrix written to {out}");
    if report.degraded() > 0 {
        eprintln!(
            "warning: {} degraded cell(s), see matrix",
            report.degraded()
        );
    }
}

/// Run the correctness matrix (tm-check) and write a `tm-check-report/v1`
/// document. Exit 1 when any cell fails — the gate CI and `verify.sh` use.
fn check(flags: &HashMap<String, String>) {
    use tm_check::SynthCheckConfig;
    use tm_check::{
        run_backend_cell, run_cm_cell, run_explore_cell, run_heap_cell, run_stamp_cell,
        run_synth_cell,
    };
    use tm_stm::{BackendKind, CmKind, InjectedBug};

    let quick = flags.contains_key("quick");
    // Cross-backend differential suite: `--backend X` narrows it to one
    // backend (unknown values exit 2 inside backend_of); by default every
    // non-ETL backend is diffed against the serial ETL reference.
    let diff_backends: Vec<BackendKind> = if flags.contains_key("backend") {
        vec![backend_of(flags)]
    } else {
        BackendKind::ALL
            .into_iter()
            .filter(|b| *b != BackendKind::Etl)
            .collect()
    };
    // Cross-CM differential suite: `--cm X` narrows it to one policy
    // (unknown values exit 2 inside cm_of); by default every non-SUICIDE
    // policy is diffed against the serial SUICIDE reference, trimmed to two
    // representative policies under `--quick`.
    let diff_cms: Vec<CmKind> = if flags.contains_key("cm") {
        vec![cm_of(flags)]
    } else if quick {
        vec![CmKind::BackoffExp, CmKind::Adaptive]
    } else {
        CmKind::ALL
            .into_iter()
            .filter(|c| *c != CmKind::Suicide)
            .collect()
    };
    let name = flags.get("name").cloned().unwrap_or_else(|| {
        if quick {
            "check-quick".into()
        } else {
            "check".into()
        }
    });
    let allocs: Vec<AllocatorKind> = if quick {
        vec![AllocatorKind::Glibc, AllocatorKind::TbbMalloc]
    } else {
        AllocatorKind::ALL.to_vec()
    };
    let synth_threads: &[usize] = if quick { &[4] } else { &[2, 8] };
    let apps: Vec<AppKind> = if quick {
        // The two apps with interleaving-independent checksums: the cells
        // that actually diff parallel state against the serial reference.
        vec![AppKind::Genome, AppKind::Intruder]
    } else {
        AppKind::ALL.to_vec()
    };
    let explore_budget = if quick { 8 } else { 24 };

    let mut cells = Vec::new();
    eprintln!("check '{name}': synthetic serial oracles…");
    for structure in StructureKind::ALL {
        for &alloc in &allocs {
            for &threads in synth_threads {
                cells.push(run_synth_cell(&SynthCheckConfig::quick(
                    structure, alloc, threads,
                )));
            }
        }
    }
    eprintln!("check '{name}': STAMP parallel-vs-serial checksums…");
    for &app in &apps {
        for &alloc in &allocs {
            cells.push(run_stamp_cell(app, alloc, 4, 1));
        }
    }
    eprintln!("check '{name}': cross-backend differentials…");
    let diff_apps: &[AppKind] = if quick {
        &[AppKind::Genome]
    } else {
        &[AppKind::Genome, AppKind::Intruder]
    };
    for &backend in &diff_backends {
        for &app in diff_apps {
            cells.push(run_backend_cell(
                backend,
                app,
                AllocatorKind::TbbMalloc,
                4,
                1,
            ));
        }
    }
    eprintln!("check '{name}': cross-CM differentials…");
    for &cm in &diff_cms {
        cells.push(run_cm_cell(
            cm,
            AppKind::Genome,
            AllocatorKind::TbbMalloc,
            4,
            1,
        ));
    }
    eprintln!("check '{name}': heap invariants…");
    for &alloc in &allocs {
        cells.push(run_heap_cell(alloc, 4));
    }
    eprintln!("check '{name}': interleaving explorer…");
    cells.push(run_explore_cell(InjectedBug::None, explore_budget, 0x51ee7));
    // Self-test: the harness must catch a deliberately broken STM.
    cells.push(run_explore_cell(
        InjectedBug::SkipWriteValidation,
        64,
        0x51ee7,
    ));
    eprintln!("check '{name}': schedule model checker…");
    cells.extend(tm_mc::check_cells());
    eprintln!("check '{name}': every-site OOM sweep…");
    cells.extend(tm_mc::oom_check_cells());

    let mut report = tm_obs::CheckReport::new(&name)
        .meta("quick", quick)
        .meta("allocators", allocs.len())
        .meta("apps", apps.len());
    for cell in cells {
        report.cells.push(cell);
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("results/{name}.check.json"));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, report.to_json_string()).expect("write check report");
    print!("{}", report.render());
    println!("\ncheck report written to {out}");
    if report.degraded() > 0 {
        eprintln!("error: {} failing cell(s)", report.degraded());
        std::process::exit(1);
    }
}

/// Validate the bare `--no-checkpoint` escape hatch: it takes no value,
/// so anything but the parser's implicit `true` is a stray token (e.g.
/// `--no-checkpoint bogus`) that must be rejected, not silently eaten.
/// Returns whether checkpointed exploration is enabled.
fn checkpoint_of(flags: &HashMap<String, String>) -> Result<bool, String> {
    match flags.get("no-checkpoint").map(String::as_str) {
        None => Ok(true),
        Some("true") => Ok(false),
        Some(other) => Err(format!(
            "--no-checkpoint takes no value (stray token '{other}')"
        )),
    }
}

/// Validate the bare `--oom` mode switch the same way as
/// `--no-checkpoint`: it takes no value, stray tokens are rejected.
fn oom_of(flags: &HashMap<String, String>) -> Result<bool, String> {
    match flags.get("oom").map(String::as_str) {
        None => Ok(false),
        Some("true") => Ok(true),
        Some(other) => Err(format!("--oom takes no value (stray token '{other}')")),
    }
}

/// `tmstudy mc --oom`: the every-site allocation-failure sweep. A
/// counting dry run enumerates the fallible program's allocation sites,
/// each site is re-executed from a root checkpoint with exactly that
/// allocation failing, a byte-budget pressure run exhausts the retry
/// budget, and the `leak-on-alloc-fail` mutant must be caught at its
/// minimal failing site. Writes a `tm-oom-report/v1` document; exit 1
/// on any unexpected verdict.
fn mc_oom(flags: &HashMap<String, String>) {
    if flags.contains_key("alloc-fault") {
        eprintln!(
            "error: --oom owns its fault injector (it sweeps every site); \
             --alloc-fault only applies to the schedule sweep"
        );
        std::process::exit(2);
    }
    let name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| "oom-quick".into());
    eprintln!("mc '{name}': every-site OOM sweep (4 allocators × etl/norec × suicide/adaptive)…");
    let report = tm_mc::oom_quick_report(&name);
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("results/{name}.oom.json"));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, report.to_json_string()).expect("write oom report");
    print!("{}", report.render());
    println!("\noom report written to {out}");
    if report.degraded() > 0 {
        eprintln!("error: {} unexpected verdict(s)", report.degraded());
        std::process::exit(1);
    }
}

/// Run the schedule model checker (tm-mc) and write a `tm-mc-report/v1`
/// (or, with throughput accounting, `v1.1`) document. `--quick` runs the
/// mutation catalog plus the exhaustive clean sweep across every backend
/// × CM; otherwise a targeted bounded-exhaustive clean sweep over the
/// requested axes. Cells execute via the checkpoint/restore explorer
/// unless `--no-checkpoint` forces the from-scratch enumerator (which
/// also omits the throughput block, keeping the artifact plain v1). Exit
/// 1 when any cell ends with an unexpected verdict (a violation on the
/// clean STM or an escaped mutant), 2 on bad flags.
fn mc(flags: &HashMap<String, String>) {
    use tm_stm::{BackendKind, CmKind};
    match oom_of(flags) {
        Ok(true) => return mc_oom(flags),
        Ok(false) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let quick = flags.contains_key("quick");
    let depth = get(flags, "depth", 3usize);
    let budget = get(flags, "budget", 200_000u64);
    let checkpoint = checkpoint_of(flags).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let alloc_fault = alloc_fault_of(flags);
    if quick && alloc_fault != tm_alloc::AllocFaultPlan::None {
        eprintln!(
            "error: --alloc-fault applies to the targeted sweep; \
             the --quick catalog always runs fault-free (use `mc --oom` \
             for systematic allocation-failure coverage)"
        );
        std::process::exit(2);
    }
    let name = flags.get("name").cloned().unwrap_or_else(|| {
        if quick {
            "mc-quick".into()
        } else {
            "mc".into()
        }
    });
    let started = std::time::Instant::now();
    let (mut report, work) = if quick {
        eprintln!("mc '{name}': mutation catalog + exhaustive clean sweep (depth {depth})…");
        tm_mc::quick_report_opt(&name, depth, checkpoint)
    } else {
        let backends: Vec<BackendKind> = if flags.contains_key("backend") {
            vec![backend_of(flags)]
        } else {
            BackendKind::ALL.to_vec()
        };
        let cms: Vec<CmKind> = if flags.contains_key("cm") {
            vec![cm_of(flags)]
        } else {
            CmKind::ALL.to_vec()
        };
        let alloc = match flags.get("alloc") {
            None => AllocatorKind::TbbMalloc,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: unknown allocator '{v}' (glibc hoard tbb tc)");
                std::process::exit(2);
            }),
        };
        let magnitudes: Vec<u64> = match flags.get("magnitudes") {
            None => vec![400],
            Some(list) => {
                let parsed: Result<Vec<u64>, _> =
                    list.split(',').map(|v| v.trim().parse()).collect();
                match parsed {
                    Ok(m) if !m.is_empty() => m,
                    _ => {
                        eprintln!(
                            "error: --magnitudes takes a comma-separated list of \
                             delay cycles (got '{list}')"
                        );
                        std::process::exit(2);
                    }
                }
            }
        };
        // A fault plan makes the transfer program's allocations fallible,
        // so explore the allocating program when one is requested.
        let program = if alloc_fault == tm_alloc::AllocFaultPlan::None {
            tm_mc::small_program()
        } else {
            tm_mc::oom_program()
        };
        let ecfg = tm_mc::EnumConfig {
            depth,
            magnitudes,
            max_schedules: budget,
            ..tm_mc::EnumConfig::default()
        };
        eprintln!(
            "mc '{name}': exhaustive clean sweep, depth {depth}, {} backend(s) × {} CM(s), \
             budget {budget}…",
            backends.len(),
            cms.len()
        );
        let mut report = tm_obs::McReport::new(&name)
            .meta("mode", "sweep")
            .meta("depth", depth)
            .meta("budget", budget)
            .meta("alloc", alloc.name());
        if alloc_fault != tm_alloc::AllocFaultPlan::None {
            report = report.meta("alloc-fault", alloc_fault);
        }
        let mut work = tm_mc::SweepWork::default();
        for &backend in &backends {
            for &cm in &cms {
                report.cells.push(tm_mc::run_clean_cell_fault_opt(
                    &program,
                    alloc,
                    alloc_fault,
                    backend,
                    cm,
                    &ecfg,
                    checkpoint,
                    &mut work,
                ));
            }
        }
        (report, work)
    };
    // The throughput block records what checkpointing bought; a
    // from-scratch run stays plain v1 so frozen baselines diff cleanly.
    if checkpoint {
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        report.throughput = Some(tm_obs::mc::McThroughput {
            schedules_per_sec: work.schedules as f64 / secs,
            replay_steps_saved: work.replay_steps_saved,
            checkpoints_taken: work.checkpoints_taken,
            deduped: work.deduped,
        });
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("results/{name}.mc.json"));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, report.to_json_string()).expect("write mc report");
    print!("{}", report.render());
    println!("\nmc report written to {out}");
    if report.degraded() > 0 {
        eprintln!("error: {} unexpected verdict(s)", report.degraded());
        std::process::exit(1);
    }
}

/// Render REPRODUCTION.md from results/*.json; `--check` compares against
/// the committed copy instead of writing (exit 1 on drift).
fn book(flags: &HashMap<String, String>) {
    let dir = flags
        .get("results")
        .cloned()
        .unwrap_or_else(|| "results".into());
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "REPRODUCTION.md".into());
    let reports = tm_core::book::load_results_dir(&dir).unwrap_or_else(|e| panic!("book: {e}"));
    let text = tm_core::book::render_book(&reports);
    if flags.contains_key("stdout") {
        print!("{text}");
    } else if flags.contains_key("check") {
        let committed = std::fs::read_to_string(&out)
            .unwrap_or_else(|e| panic!("book --check: cannot read {out}: {e}"));
        if committed == text {
            println!("{out} is up to date with {dir}/*.json");
        } else {
            eprintln!(
                "{out} drifted from {dir}/*.json — regenerate with `tmstudy book` \
                 and commit the result"
            );
            std::process::exit(1);
        }
    } else {
        std::fs::write(&out, &text).unwrap_or_else(|e| panic!("book: cannot write {out}: {e}"));
        println!("wrote {out} ({} exhibits)", reports.len());
    }
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut m = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let val = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".into());
            if val != "true" {
                i += 1;
            }
            m.insert(name.to_string(), val);
        }
        i += 1;
    }
    m
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    flags
        .get(key)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --{key}: {e:?}")))
        .unwrap_or(default)
}

fn alloc_of(flags: &HashMap<String, String>) -> AllocatorKind {
    flags
        .get("alloc")
        .map(|v| v.parse().expect("allocator"))
        .unwrap_or(AllocatorKind::TbbMalloc)
}

/// Parse `--threads N` (default 8). A count outside 1..=cores exits 2
/// with one line instead of panicking inside `Sim::run`.
fn threads_of(flags: &HashMap<String, String>) -> usize {
    match flags.get("threads") {
        None => 8,
        Some(v) => tm_core::sweeps::parse_threads(v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

fn backend_of(flags: &HashMap<String, String>) -> tm_stm::BackendKind {
    match flags.get("backend") {
        None => tm_stm::BackendKind::Etl,
        Some(v) => tm_core::sweeps::parse_backend(v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

/// Parse `--alloc-fault <plan>` (default: no injection). Unknown plan
/// grammar exits 2 with the parser's error, which names the full token
/// set — same contract as `backend_of`/`cm_of`.
fn alloc_fault_of(flags: &HashMap<String, String>) -> tm_alloc::AllocFaultPlan {
    match flags.get("alloc-fault") {
        None => tm_alloc::AllocFaultPlan::None,
        Some(v) => tm_alloc::AllocFaultPlan::parse(v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

fn cm_of(flags: &HashMap<String, String>) -> tm_stm::CmKind {
    match flags.get("cm") {
        None => tm_stm::CmKind::Suicide,
        Some(v) => tm_core::sweeps::parse_cm(v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

fn design_of(flags: &HashMap<String, String>) -> LockDesign {
    if flags.contains_key("ctl") {
        LockDesign::Ctl
    } else {
        LockDesign::Etl
    }
}

fn write_mode_of(flags: &HashMap<String, String>) -> WriteMode {
    if flags.contains_key("write-through") {
        WriteMode::Through
    } else {
        WriteMode::Back
    }
}

fn hash_of(flags: &HashMap<String, String>) -> OrtHash {
    if flags.contains_key("mix-hash") {
        OrtHash::Mix
    } else {
        OrtHash::ShiftMod
    }
}

fn synth(flags: &HashMap<String, String>) {
    let structure = match flags.get("structure").map(|s| s.as_str()) {
        Some("list") | Some("linked-list") => StructureKind::LinkedList,
        Some("hash") | Some("hashset") => StructureKind::HashSet,
        Some("rbtree") | Some("tree") | None => StructureKind::RbTree,
        Some(other) => panic!("unknown structure '{other}'"),
    };
    let mut cfg = SyntheticConfig::scaled(structure, alloc_of(flags), threads_of(flags));
    cfg.update_pct = get(flags, "update-pct", 60);
    cfg.shift = get(flags, "shift", 5);
    cfg.object_cache = flags.contains_key("object-cache");
    cfg.backend = backend_of(flags);
    cfg.cm = cm_of(flags);
    cfg.design = design_of(flags);
    cfg.write_mode = write_mode_of(flags);
    cfg.ort_hash = hash_of(flags);
    cfg.alloc_fault = alloc_fault_of(flags);
    if let Some(n) = flags.get("size") {
        cfg.initial_size = n.parse().expect("--size");
        cfg.key_range = cfg.initial_size * 2;
        cfg.buckets = (cfg.initial_size * 32).next_power_of_two();
    }
    if let Some(n) = flags.get("ops") {
        cfg.ops_per_thread = n.parse().expect("--ops");
    }
    println!("config: {cfg:?}\n");
    let m = run_synthetic(&cfg);
    println!("virtual time : {:.6} s", m.seconds);
    println!("throughput   : {:.0} tx/s", m.throughput);
    println!("commits      : {}", m.commits);
    println!(
        "aborts       : {} ({:.2} %)",
        m.aborts,
        m.abort_ratio * 100.0
    );
    println!("L1 miss      : {:.3} %", m.l1_miss * 100.0);
    println!("L2 miss      : {:.3} %", m.l2_miss * 100.0);
    println!("lock waits   : {} cycles", m.lock_wait_cycles);
    println!("cache hits   : {}", m.cache_hits);
}

fn stamp(flags: &HashMap<String, String>) {
    let app: AppKind = flags
        .get("app")
        .map(|v| v.parse().expect("app"))
        .unwrap_or(AppKind::Yada);
    let opts = StampOpts {
        object_cache: flags.contains_key("object-cache"),
        shift: get(flags, "shift", 5),
        backend: backend_of(flags),
        cm: cm_of(flags),
        design: design_of(flags),
        write_mode: write_mode_of(flags),
        ort_hash: hash_of(flags),
        seed: get(flags, "seed", 0xace),
        alloc_fault: alloc_fault_of(flags),
        ..StampOpts::default()
    };
    let scale = get(flags, "scale", 2u64);
    let threads = threads_of(flags);
    let a = make_app(app, scale, opts.seed);
    println!(
        "app: {} | alloc: {} | threads: {threads} | scale: {scale}\n",
        app.name(),
        alloc_of(flags).name()
    );
    let r = run_app(a.as_ref(), alloc_of(flags), threads, &opts);
    println!("seq time     : {:.6} s", r.seq_seconds);
    println!("par time     : {:.6} s", r.par_seconds);
    println!("commits      : {}", r.commits);
    println!(
        "aborts       : {} ({:.2} %)",
        r.aborts,
        r.abort_ratio * 100.0
    );
    println!("L1 miss      : {:.3} %", r.l1_miss * 100.0);
    println!("lock waits   : {} cycles", r.lock_wait_cycles);
    println!("cache hits   : {}", r.cache_hits);
}

fn threadtest(flags: &HashMap<String, String>) {
    let r = run_threadtest(&ThreadtestConfig {
        allocator: alloc_of(flags),
        threads: threads_of(flags),
        block_size: get(flags, "size", 64),
        pairs_per_thread: get(flags, "pairs", 1000),
    });
    println!("throughput : {:.2} M pairs/s", r.mops);
    println!("L1 miss    : {:.3} %", r.l1_miss * 100.0);
}

fn profile(flags: &HashMap<String, String>) {
    let app: AppKind = flags
        .get("app")
        .map(|v| v.parse().expect("app"))
        .unwrap_or(AppKind::Genome);
    let scale = get(flags, "scale", 2u64);
    let a = make_app(app, scale, 0xace);
    let prof = profile_app(a.as_ref(), alloc_of(flags));
    println!("{} allocation profile (scale {scale}):", app.name());
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "region", "<=16", "32", "48", "64", "96", "128", "256", ">256", "mallocs", "frees", "bytes"
    );
    for region in Region::ALL {
        let s = prof[region as usize];
        print!("{:>6}", region.name());
        for b in 0..8 {
            let _ = bucket_label(b);
            print!(" {:>9}", s.by_bucket[b]);
        }
        println!(" {:>9} {:>9} {:>12}", s.mallocs, s.frees, s.bytes);
    }
}

fn machine() {
    let m = tm_sim::MachineConfig::xeon_e5405();
    println!("simulated machine (paper Table 2):");
    println!(
        "  cores        : {} ({} sockets x {})",
        m.cores,
        m.sockets(),
        m.cores_per_socket
    );
    println!(
        "  L1d per core : {} KB, {}-way, 64 B lines",
        m.l1.size / 1024,
        m.l1.ways
    );
    println!(
        "  L2 per socket: {} MB, {}-way",
        m.l2.size / (1024 * 1024),
        m.l2.ways
    );
    println!("  frequency    : {} GHz (virtual)", m.freq_hz as f64 / 1e9);
    println!(
        "  costs        : L1 {} / L2 {} / mem {} / xfer {}-{} / rmw +{} / os {}",
        m.cost.l1_hit,
        m.cost.l2_hit,
        m.cost.mem,
        m.cost.transfer_same_socket,
        m.cost.transfer_cross_socket,
        m.cost.atomic_rmw,
        m.cost.os_alloc
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_load_rejects_unknown_schema_with_clear_error() {
        let err = AnyReport::parse(r#"{"schema": "tm-mystery/v9", "name": "x"}"#)
            .err()
            .expect("unknown schema must not parse");
        assert!(err.contains("unknown schema 'tm-mystery/v9'"), "{err}");
        for known in KNOWN_SCHEMAS {
            assert!(err.contains(known), "error must list {known}: {err}");
        }
    }

    #[test]
    fn report_load_rejects_missing_schema_and_non_json() {
        let err = AnyReport::parse(r#"{"name": "x"}"#).err().unwrap();
        assert!(err.contains("no 'schema' field"), "{err}");
        let err = AnyReport::parse("not json at all").err().unwrap();
        assert!(err.contains("not JSON"), "{err}");
    }

    #[test]
    fn report_load_dispatches_mc_schema() {
        let mc = tm_obs::McReport::new("m");
        assert!(matches!(
            AnyReport::parse(&mc.to_json_string()),
            Ok(AnyReport::Mc(_))
        ));
        // A v1.1 artifact (throughput block present) dispatches the same way.
        let mut mc = tm_obs::McReport::new("m");
        mc.throughput = Some(tm_obs::mc::McThroughput {
            schedules_per_sec: 1.0,
            replay_steps_saved: 0,
            checkpoints_taken: 0,
            deduped: 0,
        });
        assert!(mc.to_json_string().contains(tm_obs::mc::MC_SCHEMA_V1_1));
        assert!(matches!(
            AnyReport::parse(&mc.to_json_string()),
            Ok(AnyReport::Mc(_))
        ));
    }

    #[test]
    fn no_checkpoint_flag_rejects_stray_tokens() {
        let ok = parse_flags(&["--no-checkpoint".to_string()]);
        assert_eq!(checkpoint_of(&ok), Ok(false));
        assert_eq!(checkpoint_of(&HashMap::new()), Ok(true));
        let bad = parse_flags(&["--no-checkpoint".to_string(), "bogus".to_string()]);
        let err = checkpoint_of(&bad).unwrap_err();
        assert!(err.contains("stray token 'bogus'"), "{err}");
    }

    #[test]
    fn report_load_dispatches_oom_schema() {
        let oom = tm_obs::OomReport::new("o");
        assert!(oom.to_json_string().contains(tm_obs::oom::OOM_SCHEMA));
        assert!(matches!(
            AnyReport::parse(&oom.to_json_string()),
            Ok(AnyReport::Oom(_))
        ));
    }

    #[test]
    fn oom_flag_rejects_stray_tokens() {
        let ok = parse_flags(&["--oom".to_string()]);
        assert_eq!(oom_of(&ok), Ok(true));
        assert_eq!(oom_of(&HashMap::new()), Ok(false));
        let bad = parse_flags(&["--oom".to_string(), "bogus".to_string()]);
        let err = oom_of(&bad).unwrap_err();
        assert!(err.contains("stray token 'bogus'"), "{err}");
    }

    #[test]
    fn report_load_dispatches_all_three_schemas() {
        let run = tm_obs::RunReport::new("r", "figure");
        assert!(matches!(
            AnyReport::parse(&run.to_json_string()),
            Ok(AnyReport::Run(_))
        ));
        let sweep = tm_obs::SweepReport::new("s");
        assert!(matches!(
            AnyReport::parse(&sweep.to_json_string()),
            Ok(AnyReport::Sweep(_))
        ));
        let check = tm_obs::CheckReport::new("c");
        assert!(matches!(
            AnyReport::parse(&check.to_json_string()),
            Ok(AnyReport::Check(_))
        ));
    }
}
