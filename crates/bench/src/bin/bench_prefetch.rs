//! Pipelined-synchronization microbenchmark, recorded as
//! `results/BENCH_prefetch.json` so successive PRs have a perf
//! trajectory for the lock pipeline and the stride prefetcher.
//!
//! Two workloads:
//!
//! - **lock storm** (TSP-like): node 0 writes a block of pages inside
//!   the critical section, node 1 acquires the lock and reads them. The
//!   only ordering is the lock handoff, so the grant carries the write
//!   notices; `LockPath::Overlapped` batch-fetches the diffs they imply
//!   at acquire time instead of faulting one round trip at a time.
//! - **strided sweep** (SOR-like): a writer dirties every page, the
//!   reader sweeps them in ascending order. With `prefetch_depth > 0`
//!   the stride detector runs volleys ahead of the fault stream and the
//!   sweep converges toward one overlapped fetch per window.
//!
//! All times are *simulated* cluster nanoseconds on FAST/GM (the paper
//! testbed); the committed JSON is diffed byte for byte in CI.
//!
//! Usage: `cargo run --release -p tm-bench --bin bench_prefetch [out.json]`

use std::sync::Arc;

use tm_fast::{run_fast_dsm, FastConfig};

use tm_bench::{lock_storm_body, strided_sweep_body, tallied};
use tmk::{LockPath, TmkConfig};

const STORM_PAGES: usize = 16;
const STORM_ROUNDS: u64 = 8;
const SWEEP_PAGES: usize = 48;

fn run_storm(lp: LockPath) -> u64 {
    let params = Arc::new(tm_sim::SimParams::paper_testbed());
    let cfg = FastConfig::paper(&params);
    let tcfg = TmkConfig {
        lock_path: lp,
        ..TmkConfig::default()
    };
    let out = run_fast_dsm(2, params, cfg, tcfg, |tmk| {
        lock_storm_body(tmk, STORM_PAGES, STORM_ROUNDS)
    });
    out[1].result
}

/// Reader's per-page cost of the ascending sweep plus its prefetch
/// tallies: `(ns_per_page, issued, hits, wasted)`.
fn run_sweep(depth: usize) -> (u64, u64, u64, u64) {
    let params = Arc::new(tm_sim::SimParams::paper_testbed());
    let cfg = FastConfig::paper(&params);
    let tcfg = TmkConfig {
        prefetch_depth: depth,
        ..TmkConfig::default()
    };
    let out = run_fast_dsm(2, params, cfg, tcfg, |tmk| {
        let (ns, m) = tallied(tmk, |tmk| strided_sweep_body(tmk, SWEEP_PAGES));
        let count = |k: &str| m.get(k).map_or(0, |e| e.count);
        (
            ns,
            count("prefetch_issued"),
            count("prefetch_hit"),
            count("prefetch_wasted"),
        )
    });
    out[1].result
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_prefetch.json".into());

    let serial = run_storm(LockPath::Serial);
    let overlapped = run_storm(LockPath::Overlapped);
    let storm_speedup = serial as f64 / overlapped.max(1) as f64;
    println!(
        "lock storm ({STORM_PAGES} pages/round): serial={serial}ns \
         overlapped={overlapped}ns ({storm_speedup:.2}x)"
    );
    assert!(
        overlapped < serial,
        "overlapped lock path ({overlapped}) must beat serial ({serial})"
    );

    let mut json = String::from("{\n  \"bench\": \"BENCH_prefetch\",\n");
    json.push_str(&format!(
        "  \"lock_storm\": {{ \"pages\": {STORM_PAGES}, \"rounds\": {STORM_ROUNDS}, \
         \"serial_ns\": {serial}, \"overlapped_ns\": {overlapped}, \
         \"serial_over_overlapped\": {storm_speedup:.2} }},\n"
    ));

    json.push_str(&format!(
        "  \"strided_sweep\": {{ \"pages\": {SWEEP_PAGES}, \"rows\": [\n"
    ));
    let (base, _, base_hits, _) = run_sweep(0);
    assert_eq!(base_hits, 0, "depth 0 must keep the prefetcher inert");
    let depths = [0usize, 4, 8];
    let mut best = 0.0f64;
    for (i, &d) in depths.iter().enumerate() {
        let (ns, issued, hits, wasted) = if d == 0 { (base, 0, 0, 0) } else { run_sweep(d) };
        let speedup = base as f64 / ns.max(1) as f64;
        best = best.max(speedup);
        println!(
            "strided sweep depth={d}: {ns}ns/page issued={issued} hits={hits} \
             wasted={wasted} ({speedup:.2}x vs depth 0)"
        );
        if d > 0 {
            assert!(hits > 0, "depth {d}: stride prefetcher must land hits");
            assert!(ns < base, "depth {d}: sweep ({ns}) must beat depth 0 ({base})");
        }
        let comma = if i + 1 < depths.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"depth\": {d}, \"ns_per_page\": {ns}, \"issued\": {issued}, \
             \"hits\": {hits}, \"wasted\": {wasted}, \"speedup\": {speedup:.2} }}{comma}\n"
        ));
    }
    json.push_str("  ] }\n}\n");

    assert!(
        storm_speedup.max(best) >= 1.5,
        "at least one scenario must show a >= 1.5x win \
         (storm {storm_speedup:.2}x, sweep {best:.2}x)"
    );

    std::fs::write(&out_path, &json).expect("write BENCH_prefetch.json");
    println!("wrote {out_path}");
}
