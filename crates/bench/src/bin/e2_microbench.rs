//! E2 — Figure 3: the TreadMarks distribution microbenchmarks.
//!
//! Barrier (4/8/16 nodes), Lock (direct & indirect), Page and Diff (small
//! & large), each on UDP/GM and FAST/GM. The paper's quoted improvement
//! factors: barrier ~2.5×, locks ~3–4×, Page ~6.2×, Diff similar.

use std::sync::Arc;

use tm_bench::{diff_multi_body, paper_config, print_header, print_row, print_row_header};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::stats::NodeStats;
use tm_sim::{Ns, SimParams};
use tmk::{Substrate, Tmk};

const ROUNDS: u64 = 20;
const PAGES: usize = 64;

/// Paper testbed + the fault plan under test ([`tm_bench::fault_plan`],
/// `E2_FAULT_LOSS`). Two invocations of this binary produce
/// byte-identical stdout for every row.
fn bench_params() -> SimParams {
    let mut p = SimParams::paper_testbed();
    p.faults = tm_bench::fault_plan();
    p
}

/// Fault counters accumulated across every workload in the run (UDP and
/// FAST sides both), reported at the end when the plan injects anything.
static TALLY: std::sync::Mutex<Option<NodeStats>> = std::sync::Mutex::new(None);

fn tally<R>(outcomes: &[tm_sim::runner::NodeOutcome<R>]) {
    let mut t = TALLY.lock().unwrap();
    let acc = t.get_or_insert_with(NodeStats::default);
    for o in outcomes {
        acc.merge(&o.stats);
    }
}

// The bodies are generic functions; a tiny macro instantiates them for
// both substrates without boxing, under `tm_bench::paper_config()`.
macro_rules! on_both {
    ($n:expr, $f:expr) => {{
        let udp = {
            let params = Arc::new(bench_params());
            run_udp_dsm($n, params, paper_config(), $f)
        };
        let fast = {
            let params = Arc::new(bench_params());
            let cfg = FastConfig::paper(&params);
            run_fast_dsm($n, params, cfg, paper_config(), $f)
        };
        tally(&udp);
        tally(&fast);
        (udp, fast)
    }};
}

/// Average barrier time, measured on every node after a warmup barrier.
fn barrier_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    tmk.barrier(0); // warmup: pays first-touch costs
    let t0 = tmk.clock().borrow().now();
    for k in 1..=ROUNDS {
        tmk.barrier(k as u32);
    }
    (tmk.clock().borrow().now() - t0).0 / ROUNDS
}

/// Direct lock: the manager (node 0) is the owner; node 1 measures its
/// acquire.
fn lock_direct_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let me = tmk.proc_id();
    let mut acquire_ns = 0u64;
    tmk.barrier(0);
    for k in 0..ROUNDS {
        // Node 0 (the manager) takes and releases the lock so it is the
        // last owner — the "direct" case for node 1.
        if me == 0 {
            tmk.acquire(0);
            tmk.release(0);
        }
        tmk.barrier(1 + 2 * k as u32);
        if me == 1 {
            let t0 = tmk.clock().borrow().now();
            tmk.acquire(0);
            acquire_ns += (tmk.clock().borrow().now() - t0).0;
            tmk.release(0);
        }
        tmk.barrier(2 + 2 * k as u32);
    }
    acquire_ns / ROUNDS
}

/// Indirect lock: a third node (2) is the owner; node 1's acquire goes
/// requester → manager → owner → requester.
fn lock_indirect_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let me = tmk.proc_id();
    let mut acquire_ns = 0u64;
    tmk.barrier(0);
    for k in 0..ROUNDS {
        if me == 2 {
            tmk.acquire(0);
            tmk.release(0);
        }
        tmk.barrier(1 + 2 * k as u32);
        if me == 1 {
            let t0 = tmk.clock().borrow().now();
            tmk.acquire(0);
            acquire_ns += (tmk.clock().borrow().now() - t0).0;
            tmk.release(0);
        }
        tmk.barrier(2 + 2 * k as u32);
    }
    acquire_ns / ROUNDS
}

/// Page: node 1 first-touches PAGES pages homed at node 0 (page managers
/// are round-robin, so only even pages of a 2-node region live on node 0).
fn page_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let region = tmk.malloc(2 * PAGES * 4096);
    tmk.distribute(region);
    let me = tmk.proc_id();
    if me == 0 {
        // Creator touches one word of each of its pages (all local).
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, 2 * p * 1024);
        }
    }
    tmk.barrier(0);
    let mut per_page = 0u64;
    if me == 1 {
        let t0 = tmk.clock().borrow().now();
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, 2 * p * 1024);
        }
        per_page = (tmk.clock().borrow().now() - t0).0 / PAGES as u64;
    }
    tmk.barrier(1);
    per_page
}

/// Diff: node 0 writes one word (small) or every word (large) of each
/// page; node 1, holding stale copies, re-reads one word per page.
fn diff_body<S: Substrate>(tmk: &mut Tmk<S>, large: bool) -> u64 {
    let region = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    // Warmup: node 1 faults every page in so the next access is a diff
    // fetch, not a page fetch. (Writes below are partial-page on purpose
    // for the small case; the large case writes whole pages but after a
    // warm interval, so the diff path is exercised either way.)
    if me == 1 {
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, p * 1024);
        }
    }
    tmk.barrier(0);
    if me == 0 {
        // Warm node 0's copies first so its writes are diff-producing
        // writes, not whole-page overwrites of unmapped pages.
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, p * 1024);
        }
        if large {
            let full = vec![7f32; 1024];
            for p in 0..PAGES {
                tmk.write_f32s(region, p * 1024, &full);
            }
        } else {
            for p in 0..PAGES {
                tmk.set_u32(region, p * 1024, 7);
            }
        }
    }
    tmk.barrier(1);
    let mut per_page = 0u64;
    if me == 1 {
        let t0 = tmk.clock().borrow().now();
        for p in 0..PAGES {
            let v = tmk.get_u32(region, p * 1024);
            assert_ne!(v, 0, "diff must have been applied");
        }
        per_page = (tmk.clock().borrow().now() - t0).0 / PAGES as u64;
    }
    tmk.barrier(2);
    per_page
}

fn diff_small_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    diff_body(tmk, false)
}

fn diff_large_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    diff_body(tmk, true)
}

fn avg_nonzero(v: &[tm_sim::runner::NodeOutcome<u64>]) -> Ns {
    let vals: Vec<u64> = v.iter().map(|o| o.result).filter(|&x| x > 0).collect();
    Ns(vals.iter().sum::<u64>() / vals.len().max(1) as u64)
}

fn main() {
    print_header("E2: TreadMarks microbenchmarks (Figure 3)");
    print_row_header();

    for n in [4usize, 8, 16] {
        let (udp, fast) = on_both!(n, barrier_body);
        print_row(
            &format!("Barrier ({n})"),
            avg_nonzero(&udp),
            avg_nonzero(&fast),
        );
    }
    {
        let (udp, fast) = on_both!(2, lock_direct_body);
        print_row("Lock (direct)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(3, lock_indirect_body);
        print_row("Lock (indirect)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(2, page_body);
        print_row("Page (per page)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(2, diff_small_body);
        print_row(
            "Diff small (per page)",
            Ns(udp[1].result),
            Ns(fast[1].result),
        );
    }
    {
        let (udp, fast) = on_both!(2, diff_large_body);
        print_row(
            "Diff large (per page)",
            Ns(udp[1].result),
            Ns(fast[1].result),
        );
    }
    {
        let (udp, fast) = on_both!(2, |tmk| diff_multi_body(tmk, PAGES));
        print_row(
            "Diff 1-writer (per page)",
            Ns(udp[1].result),
            Ns(fast[1].result),
        );
    }
    {
        let (udp, fast) = on_both!(5, |tmk| diff_multi_body(tmk, PAGES));
        print_row(
            "Diff 4-writer (per page)",
            Ns(udp[4].result),
            Ns(fast[4].result),
        );
    }
    println!();
    println!("paper factors: Barrier ~2.5x, Lock ~3-4x, Page ~6.2x, Diff comparable");

    // Fault-injection report: only when the plan actually injects
    // something, so the zero-fault output above stays byte-identical.
    let plan = tm_bench::fault_plan();
    if plan.enabled() {
        let t = TALLY.lock().unwrap();
        let s = t.as_ref().cloned().unwrap_or_default();
        println!();
        println!(
            "fault plan: seed={:#x} drop={} dup={} reorder={}",
            plan.seed, plan.drop_probability, plan.duplicate_probability, plan.reorder_probability
        );
        println!(
            "fault counters: dropped={} duplicated={} reordered={} \
             retransmits={} dup_requests_suppressed={} stale_responses_dropped={} \
             malformed_dropped={} token_stalls={}",
            s.dgrams_dropped,
            s.dgrams_duplicated,
            s.dgrams_reordered,
            s.retransmits,
            s.dup_requests_suppressed,
            s.stale_responses_dropped,
            s.malformed_dropped,
            s.token_stalls
        );
    }
}
