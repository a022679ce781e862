//! The output check. It compares only simulated, host-independent
//! fields — commits, aborts by cause, virtual cycles, cache and lock
//! counters, checksums, mc verdicts, counts and delay vectors — never a
//! wall-derived one. Every cell of every pass must
//!
//! * hold its seed-independent invariants (synth commits = threads × ops,
//!   STAMP `verify()` and N-thread checksum = 1-thread checksum, mc
//!   verdicts);
//! * report exactly what the crate's own entry point reports;
//! * repeat the first pass exactly (traced passes included);
//!
//! and at the default seed the digest of all outputs must equal the one
//! stored in `golden.txt`.

use crate::stack::CellRun;

/// Output digests at the default seed, one `workload hex` line each.
const GOLDEN: &str = include_str!("../golden.txt");

type Fields = Vec<(&'static str, u64)>;

pub struct Checker {
    labels: Vec<String>,
    /// The crate entry point's result per cell, once it has run.
    reference: Vec<Option<crate::Reference>>,
    first: Vec<Option<Fields>>,
    solo_first: Vec<Option<Fields>>,
    /// Cells that failed once; deterministic, so they are not run again.
    failed_cells: Vec<bool>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    pub fn new(labels: Vec<String>) -> Checker {
        let n = labels.len();
        Checker {
            labels,
            reference: vec![None; n],
            first: vec![None; n],
            solo_first: vec![None; n],
            failed_cells: vec![false; n],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn has_reference(&self, i: usize) -> bool {
        self.reference[i].is_some()
    }

    /// Record cell `i`'s entry-point result; an entry point that
    /// panicked is a failed cell.
    pub fn set_reference(&mut self, i: usize, r: crate::Reference) {
        self.attempted += 1;
        if let Err(e) = &r {
            let msg = format!("{}: entry point panicked: {e}", self.labels[i]);
            self.fail_cell(i, msg);
        }
        self.reference[i] = Some(r);
    }

    pub fn has_failed(&self, i: usize) -> bool {
        self.failed_cells[i]
    }

    fn fail_cell(&mut self, i: usize, msg: String) {
        self.failed_cells[i] = true;
        self.failed += 1;
        self.failures.push(msg);
    }

    /// A failure that is not one cell's.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Check one cell execution; returns it only if it passed.
    pub fn cell(&mut self, i: usize, traced: bool, r: Result<CellRun, String>) -> Option<CellRun> {
        self.attempted += 1;
        let problem = match &r {
            Err(e) => Some(format!("panicked: {e}")),
            Ok(run) => run.violation.clone().or_else(|| {
                match &self.reference[i] {
                    Some(Ok(refv)) if *refv != run.refview => {
                        Some("differs from the crate entry point's result".into())
                    }
                    _ => None,
                }
                .or_else(|| match &self.first[i] {
                    Some(f) if *f != run.out => Some(format!(
                        "simulated outputs differ from the first pass ({} pass)",
                        if traced { "traced" } else { "untraced" }
                    )),
                    _ => None,
                })
            }),
        };
        if let Some(p) = problem {
            let msg = format!("{}: {p}", self.labels[i]);
            self.fail_cell(i, msg);
            return None;
        }
        let run = r.ok()?;
        if self.first[i].is_none() {
            self.first[i] = Some(run.out.clone());
        }
        Some(run)
    }

    /// Check the traced run's 1-thread variant of cell `i`.
    pub fn solo(&mut self, i: usize, r: Result<Option<CellRun>, String>) {
        let run = match r {
            Ok(None) => return,
            Ok(Some(run)) => run,
            Err(e) => {
                self.attempted += 1;
                let msg = format!("{} (1 thread): panicked: {e}", self.labels[i]);
                return self.fail_cell(i, msg);
            }
        };
        self.attempted += 1;
        let problem = run.violation.clone().or_else(|| match &self.solo_first[i] {
            Some(f) if *f != run.out => Some("simulated outputs differ between passes".into()),
            _ => None,
        });
        match problem {
            Some(p) => {
                let msg = format!("{} (1 thread): {p}", self.labels[i]);
                self.fail_cell(i, msg);
            }
            None => self.solo_first[i] = Some(run.out),
        }
    }

    /// Cross-cell invariants of one pass.
    pub fn pass(&mut self, wl: &crate::Workload, runs: &[Option<CellRun>]) {
        let refs: Vec<Option<&CellRun>> = runs.iter().map(Option::as_ref).collect();
        for (i, v) in wl.pass_violations(&refs) {
            self.fail_cell(i, v);
        }
    }

    /// FNV-1a over every cell's label and first-pass output fields.
    pub fn digest(&self) -> u64 {
        digest(&self.labels, &self.first)
    }

    /// Hold a default-seed digest to the stored one.
    pub fn golden(&mut self, workload: &str, digest: u64) {
        let stored = GOLDEN.lines().find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(workload))
                .then(|| it.next().and_then(|h| u64::from_str_radix(h, 16).ok()))?
        });
        match stored {
            Some(s) if s == digest => println!("golden: default-seed outputs match golden.txt"),
            Some(s) => self.fail(format!(
                "default-seed outputs digest {digest:016x} differs from golden.txt {s:016x}"
            )),
            None => self.fail(format!("golden.txt has no digest for {workload}")),
        }
    }

    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn print_failures(&self) {
        for f in self.failures.iter().take(20) {
            println!("FAIL {f}");
        }
        if self.failures.len() > 20 {
            println!("FAIL ... {} more", self.failures.len() - 20);
        }
    }
}

pub fn digest(labels: &[String], outs: &[Option<Fields>]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (label, out) in labels.iter().zip(outs) {
        eat(label.as_bytes());
        match out {
            None => eat(b"<failed>"),
            Some(fields) => {
                for (k, v) in fields {
                    eat(k.as_bytes());
                    eat(&v.to_le_bytes());
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_alloc::AllocatorKind;
    use tm_core::synthetic::SyntheticConfig;
    use tm_ds::StructureKind;

    fn small() -> SyntheticConfig {
        let mut cfg = SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::TcMalloc, 4);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 100;
        cfg.buckets = 1 << 11;
        cfg
    }

    fn checker(cfg: &SyntheticConfig) -> Checker {
        let mut chk = Checker::new(vec![crate::synth::label(cfg)]);
        chk.set_reference(0, Ok(crate::synth::reference(cfg)));
        chk
    }

    #[test]
    fn rebuilt_cell_matches_the_entry_point_traced_and_untraced() {
        let cfg = small();
        let mut chk = checker(&cfg);
        let plain = crate::synth::run(&cfg, None);
        let mut acc = crate::stack::Acc::default();
        let traced = crate::synth::run(&cfg, Some(&mut acc));
        assert!(chk.cell(0, false, Ok(plain)).is_some());
        assert!(chk.cell(0, true, Ok(traced)).is_some());
        assert!(chk.correct(), "{:?}", chk.failures);
        assert_eq!(acc.get("build.count"), 1.0);
    }

    #[test]
    fn perturbing_one_simulated_field_fails_the_check() {
        let cfg = small();
        let mut chk = checker(&cfg);
        assert!(chk
            .cell(0, false, Ok(crate::synth::run(&cfg, None)))
            .is_some());
        let mut run = crate::synth::run(&cfg, None);
        let slot = run.out.iter_mut().find(|(k, _)| *k == "l1_misses").unwrap();
        slot.1 += 1;
        assert!(chk.cell(0, false, Ok(run)).is_none());
        assert_eq!(chk.counts(), (3, 1));
        assert!(!chk.correct());
    }

    #[test]
    fn disagreeing_with_the_entry_point_fails_the_check() {
        let cfg = small();
        let mut chk = checker(&cfg);
        let mut run = crate::synth::run(&cfg, None);
        run.refview[5] += 1; // commits
        assert!(chk.cell(0, false, Ok(run)).is_none());
        assert!(!chk.correct());
    }

    #[test]
    fn a_panicking_entry_point_fails_the_cell() {
        let mut chk = Checker::new(vec!["cell".into()]);
        chk.set_reference(0, Err("boom".into()));
        assert!(chk.has_failed(0));
        assert_eq!(chk.counts(), (1, 1));
        assert!(!chk.correct());
    }

    #[test]
    fn digest_sees_every_field() {
        let labels = vec!["a".to_string()];
        let base = vec![Some(vec![("x", 1u64), ("y", 2)])];
        let moved = vec![Some(vec![("x", 1u64), ("y", 3)])];
        assert_ne!(digest(&labels, &base), digest(&labels, &moved));
        assert_eq!(digest(&labels, &base), digest(&labels, &base.clone()));
    }
}
