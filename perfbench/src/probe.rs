//! Host-side probes placed around the calls into each layer: a counting
//! and timing wrapper for the allocator handed to `Stm::new`, and a
//! stopwatch for spans taken in the benchmark's own code.
//!
//! Every probe is outside the program: nothing here changes simulated
//! behaviour, which the output check confirms by comparing traced and
//! untraced cells field by field.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use tm_alloc::{AllocError, Allocator, AllocatorAttrs, HeapSnapshot};
use tm_sim::Ctx;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run `f` and return its result with the host nanoseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, ns_since(t))
}

/// Allocator calls seen by a [`TimedAlloc`]. Relaxed atomics: these are
/// statistics, read only after the simulation run that wrote them ended.
#[derive(Default)]
pub struct AllocTally {
    pub mallocs: AtomicU64,
    pub frees: AtomicU64,
    pub failed: AtomicU64,
    pub malloc_ns: AtomicU64,
    pub free_ns: AtomicU64,
}

impl AllocTally {
    /// Host nanoseconds spent inside the allocator so far.
    pub fn busy_ns(&self) -> u64 {
        self.malloc_ns.load(Relaxed) + self.free_ns.load(Relaxed)
    }
}

/// Forwards every [`Allocator`] call to `inner`, counting and timing
/// malloc and free. Under one simulated thread allocator calls never
/// overlap other work, so the accumulated time is the allocator's self
/// time; with several fibers it also holds the hand-offs taken inside.
pub struct TimedAlloc {
    inner: Arc<dyn Allocator>,
    tally: Arc<AllocTally>,
}

impl TimedAlloc {
    pub fn wrap(inner: Arc<dyn Allocator>, tally: Arc<AllocTally>) -> Arc<dyn Allocator> {
        Arc::new(TimedAlloc { inner, tally })
    }

    fn count_malloc(&self, t: Instant, ok: bool) {
        self.tally.malloc_ns.fetch_add(ns_since(t), Relaxed);
        self.tally.mallocs.fetch_add(1, Relaxed);
        if !ok {
            self.tally.failed.fetch_add(1, Relaxed);
        }
    }

    fn count_free(&self, t: Instant) {
        self.tally.free_ns.fetch_add(ns_since(t), Relaxed);
        self.tally.frees.fetch_add(1, Relaxed);
    }
}

impl Allocator for TimedAlloc {
    fn malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> u64 {
        let t = Instant::now();
        let a = self.inner.malloc(ctx, size);
        self.count_malloc(t, true);
        a
    }

    fn free(&self, ctx: &mut Ctx<'_>, addr: u64) {
        let t = Instant::now();
        self.inner.free(ctx, addr);
        self.count_free(t);
    }

    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        let t = Instant::now();
        let r = self.inner.try_malloc(ctx, size);
        self.count_malloc(t, r.is_ok());
        r
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        let t = Instant::now();
        let r = self.inner.try_free(ctx, addr);
        self.count_free(t);
        r
    }

    fn min_block(&self) -> u64 {
        self.inner.min_block()
    }

    fn attributes(&self) -> AllocatorAttrs {
        self.inner.attributes()
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        self.inner.snapshot()
    }

    fn restore(&self, snap: &HeapSnapshot) {
        self.inner.restore(snap)
    }
}
