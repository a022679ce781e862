//! The conservative virtual-time scheduler.
//!
//! A thread may only execute its next *event* (shared-memory access, atomic,
//! lock operation, OS call) when its virtual clock is the minimum among all
//! runnable threads (ties broken by thread id). All machine state is mutated
//! in that order, so a run is a deterministic function of the workload —
//! independent of host scheduling, core count, or load. Pure compute between
//! events is charged lazily via [`Ctx::tick`] and flushed at the next event,
//! which keeps the event rate (and host-side synchronization) proportional
//! to the number of *shared* operations only.
//!
//! Multi-thread runs execute every logical thread as a stackful coroutine
//! ("fiber") on the calling OS thread: a thread that is not the minimum
//! suspends in user space and a driver loop resumes whichever thread is.
//! The scheduler lock is taken once per run instead of once per event, and
//! a hand-off costs a ~20 ns context switch. Single-thread runs skip the
//! hand-off machinery entirely: the closure runs on the caller under the
//! run-scoped lock. Which of the two paths runs is decided by the thread
//! count alone.

use std::panic::AssertUnwindSafe;
use std::ptr;
use std::sync::Arc;

use parking_lot::Mutex;
// The `TM_WATCH` write-watchpoint lives in the observability crate now;
// re-exported from this crate's root for compatibility.
use tm_obs::trace::check_watch;
use tm_obs::{EventKind, Obs};

use crate::cache::CacheStats;
use crate::config::MachineConfig;
use crate::fiber;
use crate::machine::{MachineState, SimMutex};
use crate::report::SimReport;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    /// Waiting for the given simulated lock to be released.
    Blocked(usize),
    Done,
}

struct Inner {
    machine: MachineState,
    time: Vec<u64>,
    state: Vec<TState>,
    /// Remaining scheduler events before the run panics with
    /// [`FUEL_EXHAUSTED`]. Defaults to effectively-unlimited; the schedule
    /// explorer lowers it to turn virtual-time livelocks (e.g. a leaked
    /// serialization token spun on forever) into catchable panics.
    fuel: u64,
    /// Scheduler events executed since construction (or the last restore).
    /// Monotone across runs; the checkpoint layer uses before/after deltas
    /// to report how much replay work a restore avoided.
    events: u64,
    /// Rolling 64-bit execution fingerprint: every *committed* clock update
    /// mixes `(tid, new clock)` in scheduler order (see [`Inner::commit`]).
    /// Two runs from the same state with equal fingerprints executed the
    /// same event sequence with the same clocks — the dedup signal for the
    /// `tm-mc` prefix-tree explorer.
    hash: u64,
    /// Optional scheduling-point hook (see [`Ctx::sched_point`]). Lives
    /// here because the run holds this state for its whole duration, so a
    /// workload thread reads it without any lock; [`Sim::set_sched_hook`]
    /// only changes it between runs.
    sched_hook: Option<Arc<SchedHook>>,
}

/// Panic message prefix raised when the event budget set by
/// [`Sim::set_fuel`] runs out. Model-checking harnesses match on this to
/// classify a run as a livelock rather than an assertion failure.
pub const FUEL_EXHAUSTED: &str = "virtual-time fuel exhausted";

/// A scheduling-point hook: maps `(tid, point)` — a logical thread and a
/// workload-chosen point id — to the virtual delay (in cycles) to inject
/// there. Installed per [`Sim`] via [`Sim::set_sched_hook`] and consulted by
/// [`Ctx::sched_point`]. Must be deterministic: the same `(tid, point)` pair
/// must always yield the same delay (transaction retries re-visit points).
pub type SchedHook = dyn Fn(usize, u64) -> u64 + Send + Sync;

impl Inner {
    fn min_runnable(&self) -> Option<(u64, usize)> {
        self.state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TState::Runnable)
            .map(|(t, _)| (self.time[t], t))
            .min()
    }

    /// Charge one scheduler event against the fuel budget; panics when the
    /// budget set by [`Sim::set_fuel`] is exhausted. Saturating, so every
    /// event after exhaustion raises the same clean message (relevant when
    /// sibling threads keep executing while the first panic unwinds).
    #[inline]
    fn burn_fuel(&mut self) {
        self.events += 1;
        self.fuel = self.fuel.saturating_sub(1);
        if self.fuel == 0 {
            panic!("{FUEL_EXHAUSTED}: event budget ran out (possible livelock; see Sim::set_fuel)");
        }
    }

    /// Commit thread `tid`'s clock to `t` and fold the update into the
    /// execution fingerprint. Every clock write that can influence future
    /// scheduling goes through here; the one deliberate exception is the
    /// pending-flush of a thread that immediately blocks on a held lock —
    /// that value is either overwritten by the release (wait absorbed,
    /// clock irrelevant) or committed here at wake-up.
    #[inline]
    fn commit(&mut self, tid: usize, t: u64) {
        self.time[tid] = t;
        let x = (t ^ ((tid as u64) << 56)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.hash = (self.hash ^ x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }

    /// Is `tid` (which must be runnable) the thread that may execute next?
    #[inline]
    fn is_min(&self, tid: usize) -> bool {
        debug_assert_eq!(self.state[tid], TState::Runnable);
        let me = (self.time[tid], tid);
        for t in 0..self.state.len() {
            if t != tid && self.state[t] == TState::Runnable && (self.time[t], t) < me {
                return false;
            }
        }
        true
    }
}

/// A simulated machine plus scheduler. Create one per experiment
/// configuration; call [`Sim::run`] one or more times (e.g. a sequential
/// initialization phase followed by the parallel measurement phase — cache
/// and memory state persist across runs, virtual clocks restart at zero).
pub struct Sim {
    inner: Mutex<Inner>,
    /// Observability context (named metrics + event trace), sized to the
    /// machine's core count and shared with every layer built on top.
    obs: Arc<Obs>,
    cfg: MachineConfig,
}

impl Sim {
    /// Build a simulator for one machine configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Sim {
            inner: Mutex::new(Inner {
                machine: MachineState::new(cfg.clone()),
                time: Vec::new(),
                state: Vec::new(),
                fuel: u64::MAX,
                events: 0,
                hash: 0,
                sched_hook: None,
            }),
            obs: Arc::new(Obs::new(cfg.cores)),
            cfg,
        }
    }

    /// The machine configuration this simulator was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// This machine's observability context. Layers built on the simulator
    /// (allocators, the STM, harnesses) mint counters and record trace
    /// events through this; clone the `Arc` to hold on to it.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Create a simulated mutex ahead of a run (allocator constructors use
    /// this; locks can also be created mid-run via [`Ctx::new_mutex`]).
    pub fn new_mutex(&self) -> SimMutex {
        self.inner.lock().machine.new_lock()
    }

    /// Install (or replace) the scheduling-point hook consulted by
    /// [`Ctx::sched_point`]. The hook turns a `(tid, point)` pair into a
    /// virtual delay, letting an external controller — e.g. the `tm-mc`
    /// schedule enumerator — decide exactly where delays are injected
    /// instead of the workload pre-sampling them. Must not be called while
    /// a run is in progress.
    pub fn set_sched_hook(&self, hook: Arc<SchedHook>) {
        self.inner.lock().sched_hook = Some(hook);
    }

    /// Bound the number of scheduler events the remaining runs on this
    /// simulator may execute. When the budget is exhausted the offending
    /// event panics with a message starting with [`FUEL_EXHAUSTED`], which
    /// unwinds like a workload panic (locks released, threads marked done).
    /// This converts virtual-time livelocks — spins that make host-side
    /// progress forever without the run terminating — into catchable,
    /// deterministic failures. `events` must be non-zero; the default is
    /// effectively unlimited.
    pub fn set_fuel(&self, events: u64) {
        assert!(events > 0, "fuel budget must be non-zero");
        self.inner.lock().fuel = events;
    }

    /// Escape hatch for tests and post-run inspection: direct, untimed
    /// access to machine state (memory contents, OS bump pointer, ...).
    /// Must not be called while a run is in progress.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut MachineStateView<'_>) -> R) -> R {
        let mut g = self.inner.lock();
        f(&mut MachineStateView { m: &mut g.machine })
    }

    /// Scheduler events executed so far (monotone across runs; rewound by
    /// [`Sim::restore`]). Used by the `tm-mc` explorer to account for the
    /// replay work a checkpoint restore avoided.
    pub fn events(&self) -> u64 {
        self.inner.lock().events
    }

    /// The rolling execution fingerprint: a 64-bit hash folding every
    /// committed `(tid, clock)` update in scheduler order. Deterministic in
    /// the executed schedule and rewound by [`Sim::restore`] — so the value
    /// after a run is a fingerprint of that run relative to the restored
    /// checkpoint.
    pub fn trace_hash(&self) -> u64 {
        self.inner.lock().hash
    }

    /// Capture the complete simulator state — machine (sparse memory via
    /// COW page snapshot, cache hierarchy, locks, OS bump allocator), the
    /// event-trace cursor, and the event/fingerprint counters. Must be
    /// called at quiescence (between runs): there is then no live thread
    /// stack to capture, which is what makes snapshots cheap and exact.
    /// `parent` enables page sharing between related snapshots.
    pub fn snapshot(&self, parent: Option<&SimSnapshot>) -> SimSnapshot {
        let mut g = self.inner.lock();
        SimSnapshot {
            machine: g.machine.snapshot(parent.map(|p| &p.machine)),
            trace: self.obs.trace().checkpoint(),
            events: g.events,
            hash: g.hash,
        }
    }

    /// Rewind the simulator to `snap` (same quiescence contract as
    /// [`Sim::snapshot`]). The fuel budget is *not* part of a snapshot —
    /// re-arm it with [`Sim::set_fuel`] if the previous run may have
    /// drained it.
    pub fn restore(&self, snap: &SimSnapshot) {
        let mut g = self.inner.lock();
        g.machine.restore(&snap.machine);
        g.events = snap.events;
        g.hash = snap.hash;
        self.obs.trace().restore(&snap.trace);
    }

    /// Execute `f` once per logical thread on `n` virtual cores and return
    /// the virtual-time report for this run. Thread `tid` is pinned to core
    /// `tid`. Panics if `n` exceeds the machine's core count.
    pub fn run<F>(&self, n: usize, f: F) -> SimReport
    where
        F: Fn(&mut Ctx<'_>) + Sync,
    {
        assert!(n >= 1, "need at least one thread");
        assert!(
            n <= self.cfg.cores,
            "cannot run {n} threads on {} simulated cores",
            self.cfg.cores
        );
        let (stats_before, locks_before, os_before) = {
            let mut g = self.inner.lock();
            g.time = vec![0; n];
            g.state = vec![TState::Runnable; n];
            for l in &g.machine.locks {
                assert!(l.holder.is_none(), "lock held across run boundary");
            }
            let sb: Vec<CacheStats> = (0..self.cfg.cores)
                .map(|c| g.machine.caches.stats(c))
                .collect();
            (sb, g.machine.lock_stats(), g.machine.os_allocated)
        };

        if n == 1 {
            // Single thread: it is trivially always the minimum, so no
            // hand-off machinery at all — the closure runs on the caller
            // under the run-scoped lock.
            self.run_solo(&f);
        } else {
            self.run_fibers(n, &f);
        }

        let g = self.inner.lock();
        let cycles = g.time.iter().copied().max().unwrap_or(0);
        let mut per_core = Vec::with_capacity(n);
        let mut total = CacheStats::default();
        for (c, before) in stats_before.iter().enumerate().take(n) {
            let now = g.machine.caches.stats(c);
            let d = CacheStats {
                l1_accesses: now.l1_accesses - before.l1_accesses,
                l1_misses: now.l1_misses - before.l1_misses,
                l2_accesses: now.l2_accesses - before.l2_accesses,
                l2_misses: now.l2_misses - before.l2_misses,
                coherence_transfers: now.coherence_transfers - before.coherence_transfers,
                invalidations: now.invalidations - before.invalidations,
            };
            total.merge(&d);
            per_core.push(d);
        }
        let locks_now = g.machine.lock_stats();
        SimReport {
            threads: n,
            cycles,
            seconds: cycles as f64 / self.cfg.freq_hz as f64,
            cache_per_core: per_core,
            cache_total: total,
            locks: crate::machine::LockStats {
                acquisitions: locks_now.acquisitions - locks_before.acquisitions,
                contended: locks_now.contended - locks_before.contended,
                wait_cycles: locks_now.wait_cycles - locks_before.wait_cycles,
            },
            os_allocated: g.machine.os_allocated - os_before,
        }
    }

    fn run_solo<F>(&self, f: &F)
    where
        F: Fn(&mut Ctx<'_>) + Sync,
    {
        let mut g = self.inner.lock();
        let inner: *mut Inner = &mut *g;
        let mut ctx = Ctx {
            tid: 0,
            n: 1,
            obs: &self.obs,
            inner,
            rt: ptr::null_mut(),
            pending: 0,
            local_time: 0,
            finished: false,
        };
        f(&mut ctx);
        ctx.finish();
    }

    fn run_fibers<F>(&self, n: usize, f: &F)
    where
        F: Fn(&mut Ctx<'_>) + Sync,
    {
        // The scheduler lock is held for the whole run; fibers reach the
        // machine through a raw pointer. The discipline that makes this
        // sound: references into `Inner` are created fresh after every
        // context switch and never held across one.
        let mut g = self.inner.lock();
        let inner_ptr: *mut Inner = &mut *g;
        let mut rt = FiberRt {
            inner: inner_ptr,
            driver_sp: ptr::null_mut(),
            sps: vec![ptr::null_mut(); n],
            panic: None,
        };
        let rt_ptr: *mut FiberRt = &mut rt;
        let boots: Vec<FiberBoot<'_, F>> = (0..n)
            .map(|tid| FiberBoot {
                rt: rt_ptr,
                obs: &self.obs,
                f,
                tid,
                n,
            })
            .collect();
        let fibers: Vec<fiber::Fiber> = boots
            .iter()
            .map(|b| fiber::Fiber::spawn(fiber_main::<F>, b as *const FiberBoot<'_, F> as *mut u8))
            .collect();
        unsafe {
            {
                let rt = &mut *rt_ptr;
                for (t, fb) in fibers.iter().enumerate() {
                    rt.sps[t] = fb.sp();
                }
            }
            // The driver: resume whichever fiber holds the minimum clock;
            // it runs until it must wait (then switches back here), so one
            // iteration per hand-off, zero for events executed in turn.
            // References into `Inner`/`FiberRt` are scoped to single
            // statements — never live across a switch.
            while let Some((_, t)) = { (&*inner_ptr).min_runnable() } {
                let to = { (&*rt_ptr).sps[t] };
                fiber::switch(ptr::addr_of_mut!((*rt_ptr).driver_sp), to);
            }
            assert!(
                (&*inner_ptr).state.iter().all(|s| *s == TState::Done),
                "virtual deadlock: every unfinished thread is blocked on a simulated lock"
            );
        }
        drop(fibers);
        drop(boots);
        drop(g);
        if let Some(p) = rt.panic.take() {
            std::panic::resume_unwind(p);
        }
    }
}

/// Frozen simulator state produced by [`Sim::snapshot`]: the machine image
/// plus the trace cursor and the event/fingerprint counters. Restoring is
/// `O(pages + cache tags)` and leaves the `Sim` exactly as captured, so a
/// deterministic workload re-run from a snapshot is bit-identical to one
/// from a fresh simulator that executed the same prefix.
pub struct SimSnapshot {
    machine: crate::machine::MachineSnapshot,
    trace: tm_obs::TraceCheckpoint,
    events: u64,
    hash: u64,
}

impl SimSnapshot {
    /// Scheduler events executed when this snapshot was taken (the cost of
    /// the prefix a restore avoids replaying).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Materialized memory pages captured (diagnostic).
    pub fn pages(&self) -> usize {
        self.machine.pages()
    }
}

/// Driver-side state of a fiber run; lives on the driver's stack and is
/// reached from fibers through a raw pointer.
struct FiberRt {
    inner: *mut Inner,
    /// Saved driver context while a fiber runs.
    driver_sp: *mut u8,
    /// Saved context per suspended fiber.
    sps: Vec<*mut u8>,
    /// First panic payload from a fiber, re-raised once every thread has
    /// finished (the panicking thread's `Ctx` drop marks it Done and
    /// releases its locks, so the others run to completion first).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct FiberBoot<'a, F> {
    rt: *mut FiberRt,
    obs: &'a Obs,
    f: &'a F,
    tid: usize,
    n: usize,
}

unsafe extern "C" fn fiber_main<F: Fn(&mut Ctx<'_>) + Sync>(arg: *mut u8) -> ! {
    let boot = &*(arg as *const FiberBoot<'_, F>);
    let (rt, tid) = (boot.rt, boot.tid);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx {
            tid,
            n: boot.n,
            obs: boot.obs,
            inner: (*rt).inner,
            rt,
            pending: 0,
            local_time: 0,
            finished: false,
        };
        (boot.f)(&mut ctx);
        ctx.finish();
        // On a panic the `Ctx` drop marks the thread Done and releases its
        // locks, and the payload is re-raised by `run` once every thread
        // has finished.
    }));
    if let Err(p) = result {
        let rt_ref = &mut *rt;
        if rt_ref.panic.is_none() {
            rt_ref.panic = Some(p);
        }
    }
    loop {
        yield_to_driver(rt, tid);
    }
}

/// Suspend the calling fiber and resume the driver, which will pick the
/// next minimal runnable thread. No references into `Inner` may be live.
unsafe fn yield_to_driver(rt: *mut FiberRt, tid: usize) {
    let save = {
        let sps = &mut (*rt).sps;
        sps.as_mut_ptr().add(tid)
    };
    let to = (*rt).driver_sp;
    fiber::switch(save, to);
}

/// Untimed view of machine state for setup/inspection (see
/// [`Sim::with_state`]).
pub struct MachineStateView<'a> {
    m: &'a mut MachineState,
}

impl MachineStateView<'_> {
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.m.mem.read(addr)
    }
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.m.mem.write(addr, val)
    }
    pub fn os_alloc(&mut self, size: u64, align: u64) -> u64 {
        self.m.os_alloc(size, align)
    }
    pub fn os_allocated(&self) -> u64 {
        self.m.os_allocated
    }
    /// Host memory pressure proxy: 4 KiB pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.m.mem.resident_pages()
    }
}

/// Per-thread execution context handed to workload closures. All simulated
/// machine interaction goes through this handle.
pub struct Ctx<'a> {
    tid: usize,
    n: usize,
    obs: &'a Obs,
    /// The run's scheduler state, locked by [`Sim::run`] for the whole run:
    /// machine state is reached directly, no per-event lock.
    inner: *mut Inner,
    /// The fiber runtime of a multi-thread run (null on the solo path,
    /// whose one thread is always the minimum): a thread that must wait
    /// suspends its fiber.
    rt: *mut FiberRt,
    pending: u64,
    /// Mirror of this thread's committed clock, maintained at every event
    /// so [`Ctx::now`] and the tracing path need no lock. Exact: another
    /// thread only ever advances our clock while we are blocked on a
    /// simulated lock, and the blocked path refreshes the mirror.
    local_time: u64,
    finished: bool,
}

impl Drop for Ctx<'_> {
    fn drop(&mut self) {
        // A panicking workload thread must still be marked Done, or every
        // other thread would wait on its (never-advancing) clock forever
        // and the run would deadlock instead of propagating the panic.
        if !self.finished {
            self.finish();
        }
    }
}

impl Ctx<'_> {
    /// This logical thread's id == the core it is pinned to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of logical threads in this run.
    pub fn n_threads(&self) -> usize {
        self.n
    }

    /// Charge `cycles` of local compute. O(1), no synchronization; the cost
    /// is folded into this thread's clock at its next shared event.
    #[inline]
    pub fn tick(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    /// Current virtual time of this thread (including pending local work).
    /// Lock-free: reads the locally mirrored clock.
    #[inline]
    pub fn now(&mut self) -> u64 {
        self.local_time + self.pending
    }

    /// Named scheduling point: if a hook is installed ([`Sim::set_sched_hook`]),
    /// ask it how many cycles to delay this thread here and inject that
    /// delay via [`Ctx::tick`]; with no hook this is free. `point` is a
    /// workload-chosen stable id (e.g. the transaction index), *not* a call
    /// counter — a retried transaction re-announces the same point and must
    /// receive the same delay, keeping replays deterministic. Returns the
    /// injected delay.
    pub fn sched_point(&mut self, point: u64) -> u64 {
        // SAFETY: `inner` is the state `Sim::run` holds locked for the run.
        // The hook cannot change mid-run and calling it cannot switch
        // fibers, so the reference into `Inner` is never held across one.
        let d = match unsafe { &(*self.inner).sched_hook } {
            Some(h) => h(self.tid, point),
            None => return 0,
        };
        self.tick(d);
        d
    }

    /// The machine's observability context (same as [`Sim::obs`]).
    pub fn obs(&self) -> &Obs {
        self.obs
    }

    /// Record a trace event stamped with this thread's current virtual
    /// time. One relaxed load when tracing is disabled; no scheduler
    /// interaction either way.
    #[inline]
    pub fn trace_event(&mut self, kind: EventKind, a: u64, b: u64) {
        if !self.obs.trace().is_enabled() {
            return;
        }
        let t = self.now();
        self.obs.trace().emit(self.tid, t, kind, a, b);
    }

    /// Take this thread's turn: flush pending compute into its clock,
    /// suspend until it holds the minimum clock among runnable threads, run
    /// `f` on the scheduler state, and mirror the resulting clock. Every
    /// event, lock attempt and unlock goes through here.
    fn turn<R>(&mut self, f: impl FnOnce(&mut Inner, usize) -> R) -> R {
        let tid = self.tid;
        // SAFETY: `inner` is the state `Sim::run` holds locked for the
        // run; each reference into it is created after the last switch
        // and dropped before the next.
        unsafe {
            (&mut *self.inner).time[tid] += self.pending;
            self.pending = 0;
            if !self.rt.is_null() {
                while !{ (&*self.inner).is_min(tid) } {
                    yield_to_driver(self.rt, tid);
                }
            }
            let g = &mut *self.inner;
            let r = f(g, tid);
            self.local_time = g.time[tid];
            r
        }
    }

    /// Run one event against the machine in this thread's turn. `f`
    /// returns (cycle cost, result).
    fn event<R>(&mut self, f: impl FnOnce(&mut MachineState, usize) -> (u64, R)) -> R {
        self.turn(|g, tid| {
            g.burn_fuel();
            let (cost, r) = f(&mut g.machine, tid);
            g.commit(tid, g.time[tid] + cost);
            r
        })
    }

    /// Zero-cost synchronization event: flush pending compute and block
    /// until this thread's clock is globally minimal. After `fence`
    /// returns, every other thread has either finished or advanced its
    /// clock past this thread's — so host-side shared state they published
    /// before that point (e.g. a test handing addresses across threads) is
    /// visible. Workloads that exchange host-side data keyed on virtual
    /// time must fence before reading it; `tick` alone imposes no ordering.
    pub fn fence(&mut self) {
        self.event(|_, _| (0, ()));
    }

    /// Read the aligned 64-bit word at `addr` through the cache model.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, false);
            (cost, m.mem.read(addr))
        })
    }

    /// Read two words in one scheduling slot (both charged through the
    /// cache model, no interleaving between them). The STM's read path
    /// uses this for its data-load + lock-recheck pair: collapsing the
    /// window is semantically harmless (it can only *reduce* read races)
    /// and removes a third of the scheduler hand-offs on read-heavy
    /// workloads.
    pub fn read_u64_pair(&mut self, addr_a: u64, addr_b: u64) -> (u64, u64) {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr_a, false) + m.caches.access(tid, addr_b, false);
            (cost, (m.mem.read(addr_a), m.mem.read(addr_b)))
        })
    }

    /// Write the aligned 64-bit word at `addr` through the cache model.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        check_watch(addr, val, "write");
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, true);
            m.mem.write(addr, val);
            (cost, ())
        })
    }

    /// Atomic compare-and-swap on the word at `addr`. Returns `Ok(expected)`
    /// on success, `Err(actual)` on failure. Charged as a write access plus
    /// the atomic RMW premium (both success and failure pay it, like a real
    /// `lock cmpxchg`).
    pub fn cas_u64(&mut self, addr: u64, expected: u64, new: u64) -> Result<u64, u64> {
        check_watch(addr, new, "cas");
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, true) + m.cfg.cost.atomic_rmw;
            let cur = m.mem.read(addr);
            if cur == expected {
                m.mem.write(addr, new);
                (cost, Ok(expected))
            } else {
                (cost, Err(cur))
            }
        })
    }

    /// Start a best-effort hardware transaction on this core: subsequent
    /// [`Ctx::htm_read_u64`] / [`Ctx::htm_write_mark`] accesses join the
    /// transactional footprint tracked by the cache model, and coherence
    /// invalidations or L1 evictions of tracked lines doom the transaction.
    pub fn htm_begin(&mut self) {
        self.event(|m, tid| (0, m.caches.htm_begin(tid)))
    }

    /// End hardware tracking without committing and return the doom
    /// verdict, if any. Idempotent: calling with no transaction active
    /// returns `None`.
    pub fn htm_abort(&mut self) -> Option<crate::HtmAbort> {
        self.event(|m, tid| (0, m.caches.htm_end(tid)))
    }

    /// Transactional read: charge the access, add the line to the hardware
    /// read set, and return the current memory value. Fails if the
    /// transaction is already doomed or this access itself overflows the L1
    /// (the value cannot be trusted once tracking is lost).
    pub fn htm_read_u64(&mut self, addr: u64) -> Result<u64, crate::HtmAbort> {
        self.event(|m, tid| {
            if let Some(doom) = m.caches.htm_doomed(tid) {
                return (0, Err(doom));
            }
            let cost = m.caches.access(tid, addr, false);
            match m.caches.htm_doomed(tid) {
                Some(doom) => (cost, Err(doom)),
                None => (cost, Ok(m.mem.read(addr))),
            }
        })
    }

    /// Transactional write *marking*: charge a write access and add the
    /// line to the hardware write set, but do not change memory — buffered
    /// transactional stores stay invisible until [`Ctx::htm_commit`]
    /// applies them (the cache model is tags-only, so "invisible" is
    /// simply "not yet written to the central memory").
    pub fn htm_write_mark(&mut self, addr: u64) -> Result<(), crate::HtmAbort> {
        self.event(|m, tid| {
            if let Some(doom) = m.caches.htm_doomed(tid) {
                return (0, Err(doom));
            }
            let cost = m.caches.access(tid, addr, true);
            match m.caches.htm_doomed(tid) {
                Some(doom) => (cost, Err(doom)),
                None => (cost, Ok(())),
            }
        })
    }

    /// Atomically commit a hardware transaction: in one scheduling slot,
    /// check the doom verdict and — if clear — apply every buffered write
    /// to memory and end tracking. The single-event application is the
    /// model's analogue of the cache making all transactional stores
    /// visible at once at commit. Ends tracking in both outcomes.
    pub fn htm_commit(&mut self, writes: &[(u64, u64)]) -> Result<(), crate::HtmAbort> {
        for &(addr, val) in writes {
            check_watch(addr, val, "htm-commit");
        }
        self.event(|m, tid| {
            if let Some(doom) = m.caches.htm_end(tid) {
                return (0, Err(doom));
            }
            let mut cost = 0;
            for &(addr, val) in writes {
                cost += m.caches.access(tid, addr, true);
                m.mem.write(addr, val);
            }
            (cost, Ok(()))
        })
    }

    /// Atomic fetch-add on the word at `addr`; returns the previous value.
    pub fn fetch_add_u64(&mut self, addr: u64, delta: u64) -> u64 {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, true) + m.cfg.cost.atomic_rmw;
            let cur = m.mem.read(addr);
            m.mem.write(addr, cur.wrapping_add(delta));
            (cost, cur)
        })
    }

    /// Reserve a fresh aligned region from the simulated OS (mmap-like);
    /// charges the OS-call cost.
    pub fn os_alloc(&mut self, size: u64, align: u64) -> u64 {
        let addr = self.event(|m, _| {
            let cost = m.cfg.cost.os_alloc;
            (cost, m.os_alloc(size, align))
        });
        self.trace_event(EventKind::OsAlloc, addr, size);
        addr
    }

    /// Create a new simulated mutex mid-run.
    pub fn new_mutex(&mut self) -> SimMutex {
        self.event(|m, _| (0, m.new_lock()))
    }

    /// Acquire `mx`, blocking in virtual time while another thread holds it.
    pub fn lock(&mut self, mx: SimMutex) {
        let mut counted = false;
        while !self.lock_attempt(mx, true, &mut counted) {
            // We were enqueued as Blocked; wait until the releaser makes us
            // runnable again, then re-contend.
            assert!(
                !self.rt.is_null(),
                "virtual deadlock: lone thread blocked on a simulated lock"
            );
            // SAFETY: as in `turn` — each reference into `Inner` ends
            // before the switch and is created afresh after it.
            unsafe {
                while { (&*self.inner).state[self.tid] } == TState::Blocked(mx.id) {
                    yield_to_driver(self.rt, self.tid);
                }
                // The releaser advanced our clock to the release time.
                self.local_time = (&*self.inner).time[self.tid];
            }
        }
    }

    /// Try to acquire `mx` without blocking; returns whether it was taken.
    /// This models Glibc's `pthread_mutex_trylock` arena probing.
    pub fn try_lock(&mut self, mx: SimMutex) -> bool {
        let mut counted = true; // try_lock never counts as contended
        self.lock_attempt(mx, false, &mut counted)
    }

    fn lock_attempt(&mut self, mx: SimMutex, block: bool, counted: &mut bool) -> bool {
        let obs = self.obs;
        self.turn(|g, tid| acquire_locked(g, obs, tid, mx, block, counted))
    }

    /// Release `mx`; all threads blocked on it become runnable with their
    /// clocks advanced to the release time (their wait is recorded in the
    /// lock statistics).
    pub fn unlock(&mut self, mx: SimMutex) {
        self.turn(|g, tid| release_lock(g, tid, mx));
    }

    /// Run `f` under `mx` (convenience for lock/unlock pairs).
    pub fn with_lock<R>(&mut self, mx: SimMutex, f: impl FnOnce(&mut Self) -> R) -> R {
        self.lock(mx);
        let r = f(self);
        self.unlock(mx);
        r
    }

    fn finish(&mut self) {
        self.finished = true;
        // SAFETY: `inner` is the state `Sim::run` holds locked for the
        // run, and no other reference into it is live here.
        unsafe {
            finish_thread(&mut *self.inner, self.tid, self.pending);
        }
        self.pending = 0;
    }
}

/// Lock-acquisition attempt for a thread that holds the scheduling minimum.
/// Returns whether the lock was taken; on failure with `block`, the thread
/// is marked Blocked (the caller suspends until it is runnable again).
fn acquire_locked(
    g: &mut Inner,
    obs: &Obs,
    tid: usize,
    mx: SimMutex,
    block: bool,
    counted: &mut bool,
) -> bool {
    let now = g.time[tid];
    let l = &mut g.machine.locks[mx.id];
    if l.holder.is_none() {
        l.holder = Some(tid);
        l.acquisitions += 1;
        let mut cost = g.machine.cfg.cost.atomic_rmw + g.machine.cfg.cost.l1_hit;
        if let Some(prev) = g.machine.locks[mx.id].last_holder {
            if prev != tid {
                // The lock line must migrate from the previous holder.
                cost += if g.machine.cfg.socket_of(prev) == g.machine.cfg.socket_of(tid) {
                    g.machine.cfg.cost.transfer_same_socket
                } else {
                    g.machine.cfg.cost.transfer_cross_socket
                };
            }
        }
        g.machine.locks[mx.id].last_holder = Some(tid);
        g.commit(tid, now + cost);
        obs.trace()
            .emit(tid, g.time[tid], EventKind::LockAcquire, mx.id as u64, 0);
        true
    } else {
        if !*counted {
            g.machine.locks[mx.id].contended += 1;
            *counted = true;
            let holder = g.machine.locks[mx.id].holder.unwrap_or(0) as u64;
            obs.trace()
                .emit(tid, now, EventKind::LockContend, mx.id as u64, holder);
        }
        if block {
            g.state[tid] = TState::Blocked(mx.id);
        } else {
            // Failed trylock still pays for probing the lock word.
            g.commit(tid, now + g.machine.cfg.cost.atomic_rmw);
        }
        false
    }
}

/// Lock release for a thread that holds the scheduling minimum. Unblocked
/// threads need no wake-up: the fiber driver rescans every runnable thread.
fn release_lock(g: &mut Inner, tid: usize, mx: SimMutex) {
    assert_eq!(
        g.machine.locks[mx.id].holder,
        Some(tid),
        "unlock of a mutex not held by this thread"
    );
    let now = g.time[tid] + g.machine.cfg.cost.l1_hit;
    g.commit(tid, now);
    g.machine.locks[mx.id].holder = None;
    for t in 0..g.state.len() {
        if g.state[t] == TState::Blocked(mx.id) {
            let waited = now.saturating_sub(g.time[t]);
            g.machine.locks[mx.id].wait_cycles += waited;
            g.commit(t, g.time[t].max(now));
            g.state[t] = TState::Runnable;
        }
    }
}

/// Mark `tid` Done (possibly mid-panic): flush its clock, release any locks
/// it still holds so survivors can make progress (poisoning is not
/// modelled; tests assert on the propagated panic instead), and unblock
/// their waiters to re-contend.
fn finish_thread(g: &mut Inner, tid: usize, pending: u64) {
    g.commit(tid, g.time[tid] + pending);
    g.state[tid] = TState::Done;
    let mut released = Vec::new();
    for (id, l) in g.machine.locks.iter_mut().enumerate() {
        if l.holder == Some(tid) {
            l.holder = None;
            released.push(id);
        }
    }
    if !released.is_empty() {
        for t in 0..g.state.len() {
            if let TState::Blocked(id) = g.state[t] {
                if released.contains(&id) {
                    g.state[t] = TState::Runnable;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as HostMutex;

    fn sim() -> Sim {
        Sim::new(MachineConfig::tiny_test())
    }

    #[test]
    fn single_thread_time_accumulates() {
        let s = sim();
        let r = s.run(1, |ctx| {
            ctx.tick(100);
            ctx.write_u64(0x100, 7);
        });
        let miss = s.config().cost.l1_hit + s.config().cost.l2_hit + s.config().cost.mem;
        assert_eq!(r.cycles, 100 + miss);
    }

    #[test]
    fn memory_visible_across_threads() {
        let s = sim();
        s.run(1, |ctx| ctx.write_u64(0x200, 99));
        s.run(2, |ctx| {
            // Both threads observe the value written in the previous run.
            assert_eq!(ctx.read_u64(0x200), 99);
        });
    }

    #[test]
    fn deterministic_interleaving() {
        let run_once = || {
            let s = sim();
            let order = HostMutex::new(Vec::new());
            let r = s.run(4, |ctx| {
                for i in 0..20u64 {
                    ctx.tick((ctx.tid() as u64 + 1) * 13);
                    let v = ctx.fetch_add_u64(0x300, 1);
                    order.lock().push((ctx.tid(), i, v));
                }
            });
            // The host-side push order is unspecified, but the value each
            // thread observed at each step encodes the simulated
            // interleaving exactly.
            let mut o = order.into_inner();
            o.sort_unstable();
            (r.cycles, o)
        };
        let (c1, o1) = run_once();
        let (c2, o2) = run_once();
        assert_eq!(c1, c2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn panic_in_worker_propagates_and_releases() {
        let s = sim();
        let mx = s.new_mutex();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(2, |ctx| {
                if ctx.tid() == 0 {
                    ctx.tick(10);
                    ctx.lock(mx);
                    panic!("worker 0 exploded");
                }
                // Worker 1 must still complete: the panicking thread's lock
                // is released by its Ctx drop.
                ctx.tick(100);
                ctx.lock(mx);
                ctx.write_u64(0xa00, 1);
                ctx.unlock(mx);
            });
        }));
        assert!(caught.is_err());
        s.with_state(|m| assert_eq!(m.read_u64(0xa00), 1));
    }

    #[test]
    fn now_tracks_clock_without_lock() {
        let s = sim();
        s.run(2, |ctx| {
            let t0 = ctx.now();
            ctx.tick(40);
            assert_eq!(ctx.now(), t0 + 40);
            ctx.fence();
            // After an event the mirror equals the committed clock.
            let t1 = ctx.now();
            ctx.tick(1);
            assert_eq!(ctx.now(), t1 + 1);
        });
    }

    #[test]
    fn fetch_add_is_atomic_in_order() {
        let s = sim();
        s.run(4, |ctx| {
            for _ in 0..50 {
                ctx.fetch_add_u64(0x400, 1);
            }
        });
        s.with_state(|m| assert_eq!(m.read_u64(0x400), 200));
    }

    #[test]
    fn cas_success_and_failure() {
        let s = sim();
        s.run(1, |ctx| {
            assert_eq!(ctx.cas_u64(0x500, 0, 5), Ok(0));
            assert_eq!(ctx.cas_u64(0x500, 0, 9), Err(5));
            assert_eq!(ctx.read_u64(0x500), 5);
        });
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let s = sim();
        let mx = s.new_mutex();
        s.run(4, |ctx| {
            for _ in 0..25 {
                ctx.lock(mx);
                // Non-atomic read-modify-write protected by the lock.
                let v = ctx.read_u64(0x600);
                ctx.tick(10);
                ctx.write_u64(0x600, v + 1);
                ctx.unlock(mx);
            }
        });
        s.with_state(|m| assert_eq!(m.read_u64(0x600), 100));
    }

    #[test]
    fn contended_lock_records_waits() {
        let s = sim();
        let mx = s.new_mutex();
        let r = s.run(2, |ctx| {
            for _ in 0..10 {
                ctx.lock(mx);
                ctx.tick(1000); // long critical section
                ctx.unlock(mx);
            }
        });
        assert!(r.locks.contended > 0);
        assert!(r.locks.wait_cycles > 0);
        assert_eq!(r.locks.acquisitions, 20);
    }

    #[test]
    fn try_lock_does_not_block() {
        let s = sim();
        let mx = s.new_mutex();
        let grabbed = HostMutex::new([false; 2]);
        s.run(2, |ctx| {
            if ctx.tid() == 0 {
                ctx.lock(mx);
                ctx.tick(100_000);
                ctx.unlock(mx);
            } else {
                ctx.tick(50); // arrive while t0 holds the lock
                let ok = ctx.try_lock(mx);
                grabbed.lock()[1] = ok;
                if ok {
                    ctx.unlock(mx);
                }
            }
        });
        assert!(!grabbed.lock()[1], "trylock during a held period must fail");
    }

    #[test]
    fn serial_section_time_is_sum() {
        // Two threads each hold the lock for ~1000 cycles: total run length
        // must be at least 2x the critical section because they serialize.
        let s = sim();
        let mx = s.new_mutex();
        let r = s.run(2, |ctx| {
            ctx.lock(mx);
            for i in 0..10 {
                ctx.write_u64(0x700 + 64 * i, 1);
                ctx.tick(100);
            }
            ctx.unlock(mx);
        });
        assert!(r.cycles >= 2_000);
    }

    #[test]
    fn os_alloc_in_run_is_aligned_and_charged() {
        let s = sim();
        let r = s.run(1, |ctx| {
            let a = ctx.os_alloc(1 << 16, 1 << 16);
            assert_eq!(a % (1 << 16), 0);
        });
        assert!(r.cycles >= s.config().cost.os_alloc);
        assert_eq!(r.os_allocated, 1 << 16);
    }

    #[test]
    fn report_cache_stats_are_per_run_deltas() {
        let s = sim();
        let r1 = s.run(1, |ctx| {
            for i in 0..10u64 {
                ctx.read_u64(0x8000 + i * 64);
            }
        });
        assert_eq!(r1.cache_total.l1_misses, 10);
        let r2 = s.run(1, |ctx| {
            for i in 0..10u64 {
                ctx.read_u64(0x8000 + i * 64);
            }
        });
        // Second run hits the warm cache: zero new misses.
        assert_eq!(r2.cache_total.l1_misses, 0);
        assert_eq!(r2.cache_total.l1_accesses, 10);
    }

    #[test]
    #[should_panic]
    fn too_many_threads_panics() {
        let s = sim();
        s.run(64, |_| {});
    }

    #[test]
    fn sched_point_without_hook_is_free() {
        let s = sim();
        s.run(2, |ctx| {
            let t0 = ctx.now();
            assert_eq!(ctx.sched_point(0), 0);
            assert_eq!(ctx.now(), t0);
        });
    }

    #[test]
    fn sched_point_hook_injects_requested_delay() {
        let s = sim();
        // Thread 1 is held back 500 cycles at point 0, so thread 0 wins the
        // race to the counter deterministically.
        s.set_sched_hook(Arc::new(
            |tid, point| {
                if tid == 1 && point == 0 {
                    500
                } else {
                    0
                }
            },
        ));
        let order = HostMutex::new(Vec::new());
        s.run(2, |ctx| {
            ctx.sched_point(0);
            let v = ctx.fetch_add_u64(0xb00, 1);
            order.lock().push((ctx.tid(), v));
        });
        let mut o = order.into_inner();
        o.sort_unstable();
        assert_eq!(o, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let s = sim();
        let mx = s.new_mutex();
        s.run(1, |ctx| ctx.write_u64(0x100, 7)); // prefix state
        let snap = s.snapshot(None);
        let workload = |ctx: &mut Ctx<'_>| {
            ctx.tick((ctx.tid() as u64 + 1) * 11);
            ctx.lock(mx);
            let v = ctx.read_u64(0x100);
            ctx.write_u64(0x100, v + 1);
            ctx.unlock(mx);
            ctx.fetch_add_u64(0x180, 3);
        };
        let r1 = s.run(3, workload);
        let (h1, e1) = (s.trace_hash(), s.events());
        let v1 = s.with_state(|m| (m.read_u64(0x100), m.read_u64(0x180)));
        s.restore(&snap);
        assert_eq!(s.events(), snap.events());
        let r2 = s.run(3, workload);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.cache_total.l1_misses, r2.cache_total.l1_misses);
        assert_eq!(r1.locks.acquisitions, r2.locks.acquisitions);
        assert_eq!(r1.locks.wait_cycles, r2.locks.wait_cycles);
        assert_eq!(r1.os_allocated, r2.os_allocated);
        assert_eq!((s.trace_hash(), s.events()), (h1, e1));
        assert_eq!(s.with_state(|m| (m.read_u64(0x100), m.read_u64(0x180))), v1);
    }

    #[test]
    fn restore_drops_post_snapshot_locks_and_os_state() {
        let s = sim();
        s.run(1, |ctx| {
            ctx.write_u64(0x100, 1);
        });
        let snap = s.snapshot(None);
        let os0 = s.with_state(|m| m.os_allocated());
        s.run(1, |ctx| {
            let mx = ctx.new_mutex();
            ctx.lock(mx);
            ctx.unlock(mx);
            ctx.os_alloc(1 << 16, 1 << 16);
            ctx.write_u64(0x200, 9);
        });
        s.restore(&snap);
        assert_eq!(s.with_state(|m| m.os_allocated()), os0);
        s.with_state(|m| assert_eq!(m.read_u64(0x200), 0));
        // Deterministic lock-id reuse: a re-run mints the same id afresh.
        s.run(1, |ctx| {
            let mx = ctx.new_mutex();
            ctx.lock(mx);
            ctx.unlock(mx);
        });
    }

    #[test]
    fn trace_hash_separates_schedules() {
        let hash_for = |delay: u64| {
            let s = sim();
            s.set_sched_hook(Arc::new(move |tid, _| if tid == 1 { delay } else { 0 }));
            s.run(2, |ctx| {
                ctx.sched_point(0);
                ctx.fetch_add_u64(0xd00, 1);
            });
            s.trace_hash()
        };
        assert_eq!(hash_for(700), hash_for(700), "fingerprint must replay");
        assert_ne!(
            hash_for(0),
            hash_for(700),
            "a delay that shifts clocks must change the fingerprint"
        );
    }

    #[test]
    fn fuel_exhaustion_panics_with_marker() {
        let s = sim();
        s.set_fuel(50);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(2, |ctx| loop {
                // Unbounded spin: only the fuel bound can end this run.
                let _ = ctx.cas_u64(0xc00, 1, 2);
            });
        }));
        let payload = caught.expect_err("the spin must be cut short");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.starts_with(crate::FUEL_EXHAUSTED),
            "unexpected panic message: {msg}"
        );
    }
}
