//! Allocation budget for the diff data path.
//!
//! A diff is one buffer from twin-compare to apply. What that buys is a
//! *count* — heap allocations per diff operation and per DSM run — so it is
//! pinned as a count: exact enough to be host-independent, and loud the
//! day a per-run allocation creeps back in (a diff of a red-black SOR page
//! has 512 runs; one `Vec` per run is 512 allocations per create, clone
//! and decode, and that is what this binary's own counting allocator would
//! see).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tm_apps::{sor_parallel, sor_seq, SorConfig};
use tm_fast::{run_fast_dsm, FastConfig};
use tm_sim::SimParams;
use tmk::diff::Diff;
use tmk::wire::{WireReader, WireWriter};
use tmk::TmkConfig;

/// Counts every `alloc` and `realloc`, per thread: a cluster's nodes are
/// contexts on the thread that runs it, so a test's own count is all of its
/// run's and none of its neighbours' or the harness's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Not counted during thread teardown, when the slot is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.get();
    let r = f();
    (ALLOCS.get() - before, r)
}

/// Every other word changed: the 512-run page a red-black sweep leaves.
fn alternating_page() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; 4096];
    let mut cur = twin.clone();
    for i in (0..cur.len()).step_by(8) {
        cur[i] = 0xA5;
    }
    (twin, cur)
}

#[test]
fn a_512_run_diff_costs_a_constant_number_of_allocations() {
    let (twin, cur) = alternating_page();
    // Warm the thread's buffer pool and size the writer up front: neither
    // is a per-diff cost.
    let d = Diff::create(&twin, &cur);
    assert_eq!(d.run_count(), 512);
    let mut w = WireWriter::with_capacity(2 * d.encoded_len());
    let mut target = twin.clone();

    let (create, d) = allocs_during(|| Diff::create(&twin, &cur));
    let (clone, copy) = allocs_during(|| d.clone());
    let (encode, ()) = allocs_during(|| d.encode(&mut w));
    let (decode, back) = allocs_during(|| Diff::decode(&mut WireReader::new(w.as_slice())));
    let (apply, ()) = allocs_during(|| d.apply(&mut target));

    assert_eq!(back.as_ref(), Some(&d));
    assert_eq!(copy, d);
    assert_eq!(target, cur);
    for (op, n) in [
        ("create", create),
        ("clone", clone),
        ("encode", encode),
        ("decode", decode),
        ("apply", apply),
    ] {
        assert!(
            n <= 2,
            "{op} of a 512-run diff made {n} heap allocations (budget 2)"
        );
    }
}

/// Allocations one small SOR run may make, cluster set-up and scheduler
/// included. One buffer per diff: 3 704. One `Vec` per run: more than ten
/// times the budget.
const SOR_BUDGET: u64 = 7_000;

#[test]
fn a_small_lockstep_sor_run_stays_inside_its_allocation_budget() {
    let cfg = SorConfig::new(64, 512, 2);
    let (want, _) = sor_seq(&cfg);
    let params = Arc::new(SimParams::paper_testbed());
    let fast = FastConfig::paper(&params);
    let (allocs, out) = allocs_during(|| {
        run_fast_dsm(4, params, fast, TmkConfig::default(), move |tmk| {
            sor_parallel(tmk, &cfg).0
        })
    });
    for o in &out {
        assert_eq!(o.result, want, "node {} computed a different grid", o.id);
    }
    assert!(
        allocs <= SOR_BUDGET,
        "4-node 64x512 SOR made {allocs} heap allocations (budget {SOR_BUDGET})"
    );
}
