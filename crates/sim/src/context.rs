//! Stackful contexts on the caller's thread — and all of the workspace's
//! `unsafe`.
//!
//! A cluster's nodes take turns: the scheduler ([`crate::sched`]) releases
//! one event at a time, so an OS thread per node would buy no parallelism,
//! only a kernel hand-off per turn. Here a node is a *context* instead: a 16 MB `mmap`'d stack (lowest 64 KiB a `PROT_NONE`
//! guard) plus a saved stack pointer. [`run`] starts `n` of them on the
//! thread that calls it and resumes them one at a time; a context runs
//! until it calls [`suspend`] or its body returns, and nothing else on the
//! thread moves meanwhile. Which suspended context goes next is not this
//! module's business: the suspender names a [`Driver`], and `run` asks it.
//!
//! The switch is ~15 instructions of `global_asm!` per architecture (save
//! the callee-saved registers on the old stack, swap stack pointers,
//! restore from the new one) — a few nanoseconds, no system call, no
//! signal-mask save (glibc's `swapcontext` pays a `rt_sigprocmask` per
//! switch). It exists for Linux on x86_64 and aarch64 (the aarch64 half has
//! been assembled and disassembled, never executed); on any other target
//! [`run`] — and so every `run_cluster` — panics naming the target.
//!
//! What a reader with a debugger should know: a suspended context is not a
//! thread. `info threads` shows one thread per *cluster*; the stacks of the
//! nodes that are not running are plain anonymous mappings that only the
//! saved stack pointers in this module's thread-local lead to.
//!
//! # Failure
//!
//! * A body's panic is caught at the context's entry and re-raised by
//!   [`run`] on the caller's stack *with its own payload*, after every
//!   stack has been unmapped.
//! * The sibling contexts of a panicked one — and all of them when the
//!   driver reports a deadlock — are **abandoned, not unwound**: their
//!   stacks are unmapped with their frames still on them, so destructors
//!   of values living there never run and whatever heap they own leaks.
//!   That is the price of not needing every suspension point to be an
//!   unwind point; the process is about to report a failure anyway.
//! * One executor per thread: a nested [`run`] is rejected with a message.
//!   Two clusters on two OS threads cannot see each other — every piece of
//!   state here is thread-local.

use std::rc::Rc;

/// Decides which suspended context runs next: the scheduler.
pub trait Driver {
    /// The context to resume now — one released earlier (first released,
    /// first resumed), failing that the owner of the minimum pending event,
    /// which this call releases. `None` when nothing can be released.
    fn next(&self) -> Option<usize>;

    /// Every node's state, one line each, for the deadlock message.
    fn describe(&self) -> String;
}

pub use imp::{current, run, suspend};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::any::Any;
    use std::cell::RefCell;
    use std::ffi::{c_int, c_void};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    use super::{Driver, Rc};

    type Payload = Box<dyn Any + Send>;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;

        /// Save the callee-saved registers on the current stack, store the
        /// resulting stack pointer in `*save`, load `to` as the stack
        /// pointer, restore the registers found there and return — on the
        /// other stack.
        fn tm_sim_ctx_switch(save: *mut usize, to: usize);
    }

    // Linux, identical on x86_64 and aarch64.
    const PROT_NONE: c_int = 0;
    const PROT_READ_WRITE: c_int = 1 | 2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`.
    const MAP_FLAGS: c_int = 0x2 | 0x20 | 0x4000 | 0x2_0000;
    /// A multiple of every page size Linux runs these targets with.
    const GUARD: usize = 64 << 10;

    // System V x86-64: rbx, rbp, r12–r15 and rsp are the callee-saved
    // registers. A fresh stack holds six zeros, the entry's address and a
    // zero return address, so the first switch "returns" into the entry
    // with the stack aligned as after a `call` and a backtrace that ends.
    #[cfg(target_arch = "x86_64")]
    std::arch::global_asm!(
        ".balign 16",
        ".global tm_sim_ctx_switch",
        ".type tm_sim_ctx_switch,@function",
        "tm_sim_ctx_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size tm_sim_ctx_switch, . - tm_sim_ctx_switch",
    );
    #[cfg(target_arch = "x86_64")]
    const FRAME_WORDS: usize = 8;
    /// Index, in a fresh frame, of the word the first switch jumps through.
    #[cfg(target_arch = "x86_64")]
    const FRAME_ENTRY: usize = 6;

    // AAPCS64: x19–x28, the frame pointer x29, the link register x30, sp
    // and the low halves of v8–v15 are callee-saved. A fresh frame's x30
    // slot points at `tm_sim_ctx_boot`, which zeroes the link register (the
    // frame pointer slot is already zero) so backtraces end, and jumps to
    // the entry left in x19 — through x16, as BTI wants of an indirect
    // branch to a function.
    #[cfg(target_arch = "aarch64")]
    std::arch::global_asm!(
        ".balign 16",
        ".global tm_sim_ctx_switch",
        ".type tm_sim_ctx_switch,%function",
        "tm_sim_ctx_switch:",
        "sub sp, sp, #160",
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
        "mov x2, sp",
        "str x2, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
        ".size tm_sim_ctx_switch, . - tm_sim_ctx_switch",
        ".balign 16",
        ".global tm_sim_ctx_boot",
        ".type tm_sim_ctx_boot,%function",
        "tm_sim_ctx_boot:",
        "mov x16, x19",
        "mov x30, xzr",
        "br x16",
        ".size tm_sim_ctx_boot, . - tm_sim_ctx_boot",
    );
    #[cfg(target_arch = "aarch64")]
    const FRAME_WORDS: usize = 20;
    #[cfg(target_arch = "aarch64")]
    const FRAME_ENTRY: usize = 0;

    /// One context: an anonymous mapping — `GUARD` inaccessible bytes, then
    /// the stack — and where on it to resume.
    struct Ctx {
        base: *mut c_void,
        len: usize,
        /// The stack pointer to switch to, while the context is not running.
        sp: usize,
        finished: bool,
    }

    impl Ctx {
        /// A context that has not started: its stack holds only the frame
        /// the first switch into it restores from.
        fn new(usable: usize) -> Ctx {
            let len = GUARD + usable.next_multiple_of(GUARD);
            // SAFETY: an anonymous private mapping at an address of the
            // kernel's choosing aliases nothing this program owns.
            let base =
                unsafe { mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_FLAGS, -1, 0) };
            assert!(
                base as isize != -1,
                "mmap of a {len}-byte context stack failed"
            );
            let frame = (base as usize + len - FRAME_WORDS * 8) as *mut usize;
            let ctx = Ctx {
                base,
                len,
                sp: frame as usize,
                finished: false,
            };
            // SAFETY: the first `GUARD` bytes of the mapping made above,
            // which nothing has touched yet; `GUARD` is page-aligned.
            let rc = unsafe { mprotect(base, GUARD, PROT_NONE) };
            assert!(rc == 0, "mprotect of a context stack's guard failed");
            // SAFETY: `frame + FRAME_ENTRY` (and on aarch64 `frame + 11`)
            // lie in the topmost `FRAME_WORDS` words of the mapping, which
            // `ctx` owns exclusively, read-write and at least `GUARD` bytes
            // long above the guard; its end is page-aligned, so the words
            // are aligned. The kernel zero-filled the rest.
            unsafe {
                frame.add(FRAME_ENTRY).write(entry as *const () as usize);
                #[cfg(target_arch = "aarch64")]
                {
                    extern "C" {
                        fn tm_sim_ctx_boot();
                    }
                    frame.add(11).write(tm_sim_ctx_boot as *const () as usize);
                }
            }
            ctx
        }
    }

    impl Drop for Ctx {
        fn drop(&mut self) {
            // SAFETY: exactly the mapping `new` made. Whoever drops a `Ctx`
            // is not running on it: `Exec` is only dropped from `run`, on
            // the thread's own stack.
            unsafe { munmap(self.base, self.len) };
        }
    }

    /// One running [`run`] call: the thread's executor.
    struct Exec {
        body: Rc<dyn Fn(usize)>,
        ctxs: Vec<Ctx>,
        /// The caller's stack pointer while a context runs.
        home_sp: usize,
        current: Option<usize>,
        driver: Option<Rc<dyn Driver>>,
        /// The panic that ended the context that just switched home.
        panic: Option<Payload>,
    }

    thread_local! {
        static EXEC: RefCell<Option<Exec>> = const { RefCell::new(None) };
    }

    /// Borrow the thread's executor for the length of `f` — never across a
    /// switch, or the next context to look would find it borrowed.
    fn with_exec<T>(f: impl FnOnce(&mut Exec) -> T) -> T {
        EXEC.with(|e| {
            f(e.borrow_mut()
                .as_mut()
                .expect("no lockstep cluster runs on this thread"))
        })
    }

    /// The executor's presence in the thread-local; dropping it unmaps
    /// every stack, on every way out of [`run`].
    struct Installed;

    impl Drop for Installed {
        fn drop(&mut self) {
            // Out of the cell first: dropping the body drops what it
            // captured, and that code may ask `current()`.
            let exec = EXEC.with(|e| e.borrow_mut().take());
            drop(exec);
        }
    }

    /// Index of the context running on this thread, `None` on a plain
    /// thread stack. Code that blocks in the operating system (a channel
    /// receive, a sleep) must not run inside a context: it would stop the
    /// whole cluster, since the context that would unblock it shares the
    /// thread.
    pub fn current() -> Option<usize> {
        EXEC.with(|e| e.borrow().as_ref().and_then(|e| e.current))
    }

    /// Run `body(0)` … `body(n - 1)`, each on a stack of its own of at
    /// least `stack_bytes`, on this thread, until all have returned: first
    /// each once in index order, then whichever `Driver::next` names.
    ///
    /// # Panics
    ///
    /// With the payload of the first body that panicked; if the driver has
    /// nothing to release while a context is still suspended (a deadlock:
    /// the message carries `Driver::describe`); and if this thread is
    /// already inside a `run`.
    pub fn run(n: usize, stack_bytes: usize, body: impl Fn(usize) + 'static) {
        let exec = Exec {
            body: Rc::new(body),
            ctxs: (0..n).map(|_| Ctx::new(stack_bytes)).collect(),
            home_sp: 0,
            current: None,
            driver: None,
            panic: None,
        };
        EXEC.with(|e| {
            let mut e = e.borrow_mut();
            assert!(
                e.is_none(),
                "nested lockstep cluster: this thread is already running one (a `run_cluster` \
                 inside a node body needs a thread of its own)"
            );
            *e = Some(exec);
        });
        let installed = Installed;
        let outcome = drive(n);
        // Every stack is unmapped before a body's panic is re-raised. (A
        // panic *here* — the deadlock — unmaps them as it unwinds.)
        drop(installed);
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }

    fn drive(n: usize) -> Result<(), Payload> {
        for i in 0..n {
            resume(i)?;
        }
        // Registered by the first context to suspend; with none, all have
        // finished.
        let driver = with_exec(|e| e.driver.clone());
        while let Some(i) = driver.as_ref().and_then(|d| d.next()) {
            resume(i)?;
        }
        let stuck: Vec<usize> = with_exec(|e| (0..n).filter(|&i| !e.ctxs[i].finished).collect());
        assert!(
            stuck.is_empty(),
            "lockstep deadlock: no context is ready and no event is pending, but contexts \
             {stuck:?} have not finished (protocol deadlock or premature peer exit)\n{}",
            driver.map_or_else(String::new, |d| d.describe())
        );
        Ok(())
    }

    /// Switch to context `i` and come back when it suspends or finishes;
    /// `Err` carries the panic that finished it.
    fn resume(i: usize) -> Result<(), Payload> {
        let (save, to) = with_exec(|e| {
            let ctx = e
                .ctxs
                .get(i)
                .expect("driver named a context that does not exist");
            assert!(
                !ctx.finished,
                "driver named context {i}, which has finished"
            );
            e.current = Some(i);
            (&raw mut e.home_sp, ctx.sp)
        });
        // SAFETY: no context is running (this is the thread's own stack), so
        // unfinished context `i` is suspended and `to` is its stack pointer:
        // `fresh_frame`'s, or the one `tm_sim_ctx_switch` stored when it last
        // suspended — either way a register frame on a mapped stack nothing
        // has run on since. `save` points into the thread-local `Exec`,
        // which is neither moved nor dropped while a context runs (only
        // `Installed::drop` takes it out, on this stack, after `drive`), and
        // no borrow of the cell is live.
        unsafe { tm_sim_ctx_switch(save, to) };
        with_exec(|e| {
            e.current = None;
            e.panic.take().map_or(Ok(()), Err)
        })
    }

    /// From inside a context: switch back to [`run`], which resumes this
    /// context when `driver` names it. The first suspender's driver becomes
    /// the run's driver; every later one must be the same object — a
    /// cluster has one scheduler.
    ///
    /// # Panics
    ///
    /// Outside a context.
    pub fn suspend<D: Driver + 'static>(driver: &Rc<D>) {
        let (save, to) = with_exec(|e| {
            let i = e.current.expect("suspend outside a context");
            match &e.driver {
                None => e.driver = Some(Rc::clone(driver) as Rc<dyn Driver>),
                Some(d) => assert!(
                    std::ptr::addr_eq(Rc::as_ptr(d), Rc::as_ptr(driver)),
                    "one lockstep cluster, two schedulers: its nodes wait on different fabrics"
                ),
            }
            (&raw mut e.ctxs[i].sp, e.home_sp)
        });
        // SAFETY: `to` is what `tm_sim_ctx_switch` stored when `resume`
        // switched here, and `resume`'s frame has been waiting on that
        // stack since. `save` points into `Exec::ctxs`, whose buffer is
        // never reallocated after `run` built it and lives until `run`
        // drops it — which it cannot do while this context runs.
        unsafe { tm_sim_ctx_switch(save, to) };
    }

    /// Where the first switch into a fresh stack lands.
    extern "C" fn entry() -> ! {
        let (i, body) = with_exec(|e| (e.current.expect("entered by resume"), Rc::clone(&e.body)));
        let result = catch_unwind(AssertUnwindSafe(|| body(i)));
        // Nothing that needs dropping may be left in this frame: its stack
        // is unmapped, not unwound.
        drop(body);
        let (save, to) = with_exec(|e| {
            e.ctxs[i].finished = true;
            e.panic = result.err();
            (&raw mut e.ctxs[i].sp, e.home_sp)
        });
        // SAFETY: as in `suspend`. The context is finished, so `resume`
        // refuses to come back here.
        unsafe { tm_sim_ctx_switch(save, to) };
        unreachable!("a finished context was resumed")
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::{Driver, Rc};

    pub fn current() -> Option<usize> {
        None
    }

    pub fn run(_n: usize, _stack_bytes: usize, _body: impl Fn(usize) + 'static) {
        panic!(
            "run_cluster runs nodes as stackful contexts, which tm-sim implements for Linux on \
             x86_64 and aarch64; this target is {}-{}",
            std::env::consts::ARCH,
            std::env::consts::OS
        );
    }

    pub fn suspend<D: Driver + 'static>(_driver: &Rc<D>) {
        unreachable!("no context exists on this target");
    }
}

/// The message `f` panics with, whether it was formatted or a literal.
#[cfg(test)]
pub(crate) fn panic_message(f: impl FnOnce()) -> String {
    let run = std::panic::AssertUnwindSafe(f);
    let payload = std::panic::catch_unwind(run).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => (*p.downcast::<&str>().expect("a message")).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    const STACK: usize = 256 << 10;

    /// Resumes contexts in the order they suspended.
    #[derive(Default)]
    struct Fifo(RefCell<VecDeque<usize>>);

    impl Driver for Fifo {
        fn next(&self) -> Option<usize> {
            self.0.borrow_mut().pop_front()
        }

        fn describe(&self) -> String {
            "  fifo: empty\n".into()
        }
    }

    fn yield_to(fifo: &Rc<Fifo>) {
        fifo.0
            .borrow_mut()
            .push_back(current().expect("in a context"));
        suspend(fifo);
    }

    #[test]
    fn bodies_run_on_the_stacks_they_were_given() {
        let here = 0u8;
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        assert_eq!(current(), None);
        run(3, STACK, move |i| {
            let local = 0u8;
            sink.borrow_mut()
                .push((i, current(), &raw const local as usize));
        });
        assert_eq!(current(), None);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        let mut addrs = vec![&raw const here as usize];
        for (k, &(i, cur, addr)) in seen.iter().enumerate() {
            assert_eq!((i, cur), (k, Some(k)));
            assert!(
                addrs.iter().all(|a| a.abs_diff(addr) >= STACK / 2),
                "context {i} shares a stack: {addr:#x} vs {addrs:x?}"
            );
            addrs.push(addr);
        }
    }

    #[test]
    fn suspended_contexts_resume_in_the_order_the_driver_names() {
        let fifo = Rc::new(Fifo::default());
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        run(3, STACK, move |i| {
            for step in 0..3 {
                sink.borrow_mut().push((step, i));
                yield_to(&fifo);
            }
        });
        let want: Vec<_> = (0..3)
            .flat_map(|step| (0..3).map(move |i| (step, i)))
            .collect();
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn a_megabyte_of_recursion_fits_and_survives_a_suspension() {
        /// Recurse until the stack is 1 MB deeper than `top`, suspend
        /// there, and count the frames on the way back up.
        fn dive(top: usize, fifo: &Rc<Fifo>) -> usize {
            let pad = std::hint::black_box([1u8; 512]);
            if top - (&raw const pad as usize) >= 1 << 20 {
                yield_to(fifo);
                return 0;
            }
            dive(top, fifo) + pad[0] as usize
        }
        let fifo = Rc::new(Fifo::default());
        let depths = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&depths);
        run(2, 2 << 20, move |_| {
            let top = 0u8;
            let depth = dive(&raw const top as usize, &fifo);
            sink.borrow_mut().push(depth);
        });
        let depths = depths.borrow();
        assert!(
            depths.len() == 2 && depths[0] == depths[1] && depths[0] > 100,
            "{depths:?}"
        );
    }

    #[test]
    fn a_panic_keeps_its_payload_and_the_thread_stays_usable() {
        let fifo = Rc::new(Fifo::default());
        let f = Rc::clone(&fifo);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run(3, STACK, move |i| {
                yield_to(&f);
                if i == 1 {
                    std::panic::panic_any(0xdead_beef_u32);
                }
            })
        }))
        .expect_err("context 1 panicked");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&0xdead_beef));
        // Context 2 was abandoned mid-suspension; nothing of that run is left.
        assert_eq!(current(), None);
        let ran = Rc::new(RefCell::new(0));
        let sink = Rc::clone(&ran);
        run(2, STACK, move |_| *sink.borrow_mut() += 1);
        assert_eq!(*ran.borrow(), 2);
    }

    #[test]
    fn a_nested_run_is_rejected() {
        let msg = panic_message(|| run(1, STACK, |_| run(1, STACK, |_| ())));
        assert!(msg.contains("nested lockstep cluster"), "{msg}");
    }

    #[test]
    fn a_driver_with_nothing_to_release_is_a_deadlock() {
        let fifo = Rc::new(Fifo::default());
        let msg = panic_message(|| {
            run(2, STACK, move |i| {
                if i == 1 {
                    // Suspended, and nobody will ever name it.
                    suspend(&fifo);
                }
            })
        });
        assert!(msg.starts_with("lockstep deadlock"), "{msg}");
        assert!(
            msg.contains("contexts [1]") && msg.contains("fifo: empty"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "no lockstep cluster runs on this thread")]
    fn suspend_needs_a_context() {
        suspend(&Rc::new(Fifo::default()));
    }
}
