//! Stackful coroutines ("fibers") for the scheduler's multi-thread runs.
//!
//! The conservative scheduler serializes logical threads anyway — at any
//! instant exactly one thread is allowed to execute its next event — so
//! giving each logical thread its own OS thread would buy no parallelism
//! and pay a futex wake plus a kernel context switch per hand-off. This
//! module provides the primitive that avoids that cost: a minimal stackful
//! coroutine with an assembly context switch (~tens of nanoseconds) and an
//! mmap-backed, guard-paged stack, so `Sim::run` can multiplex all logical
//! threads onto the calling OS thread and suspend/resume them wherever a
//! thread must wait for its turn.
//!
//! Only the switching *mechanism* lives here; every scheduling decision
//! (who runs next) stays in `exec.rs`.
//!
//! Supported targets: x86-64 Linux and AArch64 Linux. Each has its own
//! context-switch assembly and raw `syscall6`; the stack pool and the
//! `Fiber` handle are shared.

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "tm-sim's fiber executor supports only x86_64-unknown-linux-* and aarch64-unknown-linux-* targets"
);

use arch::{syscall6, SYS_MMAP, SYS_MPROTECT, SYS_MUNMAP};

/// Usable stack bytes per fiber. Matches the default for spawned OS
/// threads (`std::thread` uses 2 MiB), which the workloads already fit in;
/// a guard region below the stack turns overflow into a fault instead of
/// silent corruption.
const STACK_BYTES: usize = 2 << 20;
/// Guard region size: 64 KiB, the largest page size Linux uses on either
/// supported target, so the `mprotect` boundary is page-aligned whatever
/// the kernel's page size is.
const GUARD: usize = 64 << 10;

const PROT_NONE: usize = 0;
const PROT_RW: usize = 1 | 2;
const MAP_PRIVATE_ANON: usize = 0x02 | 0x20;

/// `mmap` the whole region `PROT_NONE`, then open up everything above the
/// guard — the stack grows down into it.
struct Stack {
    base: *mut u8,
    len: usize,
}

// A fiber stack costs an mmap + mprotect to create, an munmap to destroy,
// and — the dominant, hidden cost — a fresh round of page faults to fault
// its hot pages back in on every reuse. `Sim::run` spawns fibers per
// *run*, and the checkpointed schedule explorer performs tens of thousands
// of runs per second, so stacks are pooled process-wide: a retired stack
// keeps its mapping (guard intact) and the next spawn picks it up with its
// pages still resident. Stale stack *contents* are harmless —
// `Fiber::spawn` builds the boot frame from scratch.
static STACK_POOL: std::sync::Mutex<Vec<Stack>> = std::sync::Mutex::new(Vec::new());
/// Mapped-but-idle stacks kept at most; beyond this, retirement unmaps.
/// 64 × ~2 MiB bounds the idle pool at ~128 MiB of mostly untouched (hence
/// unbacked) address space.
const POOL_MAX: usize = 64;

// Raw pointers make Stack !Send by default; the region is exclusively
// owned (mmap'd by us, handed over whole), so moving it across threads
// through the pool is sound.
unsafe impl Send for Stack {}

impl Stack {
    fn new() -> Stack {
        if let Some(s) = STACK_POOL.lock().unwrap().pop() {
            return s;
        }
        let len = GUARD + STACK_BYTES;
        unsafe {
            let p = syscall6(SYS_MMAP, 0, len, PROT_NONE, MAP_PRIVATE_ANON, usize::MAX, 0);
            assert!(
                (p as isize) > 0,
                "fiber stack mmap failed (errno {})",
                -(p as isize)
            );
            let r = syscall6(SYS_MPROTECT, p + GUARD, STACK_BYTES, PROT_RW, 0, 0, 0);
            assert_eq!(r as isize, 0, "fiber stack mprotect failed");
            Stack {
                base: p as *mut u8,
                len,
            }
        }
    }

    fn top(&self) -> *mut u8 {
        // mmap returns page-aligned memory, so the top is 16-aligned.
        unsafe { self.base.add(self.len) }
    }

    fn unmap(&mut self) {
        unsafe {
            syscall6(SYS_MUNMAP, self.base as usize, self.len, 0, 0, 0, 0);
        }
        self.base = core::ptr::null_mut();
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if self.base.is_null() {
            return;
        }
        let mut pool = STACK_POOL.lock().unwrap();
        if pool.len() < POOL_MAX {
            pool.push(Stack {
                base: self.base,
                len: self.len,
            });
            self.base = core::ptr::null_mut();
        } else {
            drop(pool);
            self.unmap();
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    pub(super) const SYS_MMAP: usize = 9;
    pub(super) const SYS_MPROTECT: usize = 10;
    pub(super) const SYS_MUNMAP: usize = 11;

    #[inline]
    pub(super) unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> usize {
        let r: usize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => r,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        r
    }

    // The context switch: save the System V callee-saved state (rbx, rbp,
    // r12–r15, the x87 control word and mxcsr) plus the stack pointer into
    // `*save`, then resume the context whose stack pointer is `to`. A fiber
    // is born with a hand-built frame whose "return address" is
    // `tm_sim_fiber_boot`, which forwards the two values planted in r12/r13
    // (argument pointer and entry function) into a normal `call`.
    core::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".hidden tm_sim_fiber_switch",
        ".globl tm_sim_fiber_switch",
        "tm_sim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp + 4]",
        "fnstcw word ptr [rsp]",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "fldcw word ptr [rsp]",
        "ldmxcsr dword ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".hidden tm_sim_fiber_boot",
        ".globl tm_sim_fiber_boot",
        "tm_sim_fiber_boot:",
        "mov rdi, r12",
        "call r13",
        "ud2",
    );

    extern "C" {
        pub(super) fn tm_sim_fiber_switch(save: *mut *mut u8, to: *mut u8);
        fn tm_sim_fiber_boot();
    }

    /// Default x87 control word (0x037F) at offset 0 and default mxcsr
    /// (0x1F80) at offset 4, matching the frame layout the switch restores.
    const FPU_DEFAULTS: u64 = (0x1F80 << 32) | 0x037F;

    /// Build the boot frame below `top` and return the fiber's initial
    /// saved stack pointer.
    ///
    /// # Safety
    /// `top` must be the 16-aligned top of a writable stack with room for
    /// the frame.
    pub(super) unsafe fn boot_frame(
        top: *mut u8,
        entry: unsafe extern "C" fn(*mut u8) -> !,
        arg: *mut u8,
    ) -> *mut u8 {
        // Frame layout (from the saved stack pointer, upward):
        //   +0  fcw/mxcsr   +8 r15   +16 r14   +24 r13 (entry)
        //   +32 r12 (arg)   +40 rbx  +48 rbp   +56 ret (boot shim)
        //   +64.. padding to the 16-aligned stack top.
        // The boot shim is entered with rsp ≡ 0 (mod 16), so its `call`
        // leaves the stack ABI-aligned for `entry`.
        let sp = top.sub(80) as *mut u64;
        sp.write_bytes(0, 10);
        *sp = FPU_DEFAULTS;
        *sp.add(3) = entry as *const () as u64;
        *sp.add(4) = arg as u64;
        *sp.add(7) = tm_sim_fiber_boot as *const () as u64;
        sp as *mut u8
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    pub(super) const SYS_MMAP: usize = 222;
    pub(super) const SYS_MPROTECT: usize = 226;
    pub(super) const SYS_MUNMAP: usize = 215;

    #[inline]
    pub(super) unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> usize {
        let r: usize;
        core::arch::asm!(
            "svc #0",
            inlateout("x0") a => r,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            in("x8") n,
            options(nostack),
        );
        r
    }

    // The context switch: save the AAPCS64 callee-saved state (x19–x28,
    // the frame pointer x29, the link register x30, d8–d15 and FPCR) in a
    // 176-byte frame on the current stack, store the stack pointer into
    // `*save`, then restore the frame found at `to` and return through its
    // x30. A fiber is born with a hand-built frame whose x30 is
    // `tm_sim_fiber_boot`, which forwards the two values planted in
    // x19/x20 (argument pointer and entry function) into a normal call.
    core::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".hidden tm_sim_fiber_switch",
        ".globl tm_sim_fiber_switch",
        "tm_sim_fiber_switch:",
        "sub sp, sp, #176",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mrs x9, fpcr",
        "str x9, [sp, #160]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldr x9, [sp, #160]",
        "msr fpcr, x9",
        "ldp d14, d15, [sp, #144]",
        "ldp d12, d13, [sp, #128]",
        "ldp d10, d11, [sp, #112]",
        "ldp d8, d9, [sp, #96]",
        "ldp x29, x30, [sp, #80]",
        "ldp x27, x28, [sp, #64]",
        "ldp x25, x26, [sp, #48]",
        "ldp x23, x24, [sp, #32]",
        "ldp x21, x22, [sp, #16]",
        "ldp x19, x20, [sp, #0]",
        "add sp, sp, #176",
        "ret",
        ".hidden tm_sim_fiber_boot",
        ".globl tm_sim_fiber_boot",
        "tm_sim_fiber_boot:",
        "mov x0, x19",
        "blr x20",
        "brk #1",
    );

    extern "C" {
        pub(super) fn tm_sim_fiber_switch(save: *mut *mut u8, to: *mut u8);
        fn tm_sim_fiber_boot();
    }

    /// Build the boot frame below `top` and return the fiber's initial
    /// saved stack pointer.
    ///
    /// # Safety
    /// `top` must be the 16-aligned top of a writable stack with room for
    /// the frame.
    pub(super) unsafe fn boot_frame(
        top: *mut u8,
        entry: unsafe extern "C" fn(*mut u8) -> !,
        arg: *mut u8,
    ) -> *mut u8 {
        // Frame layout (from the saved stack pointer, upward, 8-byte
        // slots): +0 x19 (arg)  +8 x20 (entry)  +16..+72 x21–x28
        //   +80 x29 (0: ends the frame chain)  +88 x30 (boot shim)
        //   +96..+152 d8–d15  +160 FPCR (0: the Linux default)  +168 pad.
        // The switch pops all 176 bytes, so the boot shim starts with sp at
        // the 16-aligned stack top.
        let sp = top.sub(176) as *mut u64;
        sp.write_bytes(0, 22);
        *sp = arg as u64;
        *sp.add(1) = entry as *const () as u64;
        *sp.add(11) = tm_sim_fiber_boot as *const () as u64;
        sp as *mut u8
    }
}

/// A suspended logical thread: its stack and saved stack pointer.
pub(crate) struct Fiber {
    sp: *mut u8,
    _stack: Stack,
}

impl Fiber {
    /// Create a fiber that, when first switched to, calls `entry(arg)`.
    /// `entry` must never return (it must switch away forever once
    /// finished).
    pub(crate) fn spawn(entry: unsafe extern "C" fn(*mut u8) -> !, arg: *mut u8) -> Fiber {
        let stack = Stack::new();
        // SAFETY: a fresh or pooled stack is writable and 16-aligned at the
        // top, and far larger than a boot frame.
        let sp = unsafe { arch::boot_frame(stack.top(), entry, arg) };
        Fiber { sp, _stack: stack }
    }

    /// Saved stack pointer of this (suspended) fiber.
    pub(crate) fn sp(&self) -> *mut u8 {
        self.sp
    }
}

/// Suspend the current context into `*save` and resume `to`.
///
/// # Safety
/// `to` must be a stack pointer previously produced by this module (either
/// `Fiber::spawn` or a prior switch out), and no references to data the
/// resumed context may mutate may be live across the call.
pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
    arch::tm_sim_fiber_switch(save, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ptr;

    // A fiber that counts and yields back, exercising spawn + repeated
    // round trips through the raw switch.
    struct Shuttle {
        driver_sp: *mut u8,
        fiber_sp: *mut u8,
        hits: u32,
    }

    unsafe extern "C" fn shuttle_entry(arg: *mut u8) -> ! {
        let s = arg as *mut Shuttle;
        for _ in 0..3 {
            (*s).hits += 1;
            switch(ptr::addr_of_mut!((*s).fiber_sp), (*s).driver_sp);
        }
        (*s).hits += 100;
        loop {
            switch(ptr::addr_of_mut!((*s).fiber_sp), (*s).driver_sp);
        }
    }

    #[test]
    fn spawn_switch_roundtrip() {
        let mut s = Shuttle {
            driver_sp: ptr::null_mut(),
            fiber_sp: ptr::null_mut(),
            hits: 0,
        };
        let fiber = Fiber::spawn(shuttle_entry, &mut s as *mut Shuttle as *mut u8);
        s.fiber_sp = fiber.sp();
        for expect in [1u32, 2, 3, 103] {
            unsafe {
                let to = s.fiber_sp;
                switch(ptr::addr_of_mut!(s.driver_sp), to);
            }
            assert_eq!(s.hits, expect);
        }
    }
}
