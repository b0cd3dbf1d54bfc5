//! Overlapped-RPC microbenchmark, recorded as `results/BENCH_overlap.json`
//! so successive PRs have a perf trajectory for the RPC engine and the
//! lock pipeline.
//!
//! The `rows` are a k-writer diff storm: nodes `0..k` each write a
//! disjoint word of every page of a shared region, then the last node
//! reads the whole region back in one `read_bytes`. That read faults
//! every page with pending write notices from all k writers, so the
//! fetch engine decides the cost:
//!
//! - `serial` — one outstanding RPC at a time: k × PAGES round trips,
//!   paid end to end (the spec baseline);
//! - `coalesced` — one `MultiDiff` request per writer covering all of
//!   its pages, all k issued before any response is collected.
//!
//! (An in-between engine — the k × PAGES single-page requests issued up
//! front — measured 2.04 ms against 7.70 ms serial and 1.21 ms coalesced
//! at four writers, and was deleted.)
//!
//! The `lock_storm` is TSP-like: node 0 writes a block of pages inside
//! the critical section, node 1 acquires the lock and reads them. The
//! only ordering is the lock handoff, so the grant carries the write
//! notices; `Profile::Tuned`'s overlapped lock path batch-fetches the
//! diffs they imply at acquire time instead of faulting one round trip at
//! a time, as `Profile::Spec`'s serial one does. The
//! `cold_grant` is the case that path loses: the same storm over one more
//! page, in which node 1 reads only the turn marker — the grant's notices
//! name 16 pages it mapped and never reads, and the overlapped path
//! fetches them all.
//!
//! All times are *simulated* cluster nanoseconds on FAST/GM (the paper
//! testbed); the committed JSON is diffed byte for byte in CI.
//!
//! Usage: `cargo run --release -p tm-bench --bin bench_overlap [out.json]`

use std::sync::Arc;

use tm_fast::{run_fast_dsm, FastConfig};

use tm_bench::{diff_storm_body, lock_storm_body};
use tmk::{DiffFetch, Profile, Substrate, Tmk, TmkConfig};

const PAGES: usize = 64;
const STORM_PAGES: usize = 16;
const STORM_ROUNDS: u64 = 8;

/// Reader's virtual cost of the whole-region read (zero on writers).
fn storm_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    diff_storm_body(tmk, PAGES, |tmk, region| {
        let writers = tmk.nprocs() - 1;
        let mut buf = vec![0u8; PAGES * 4096];
        let t0 = tmk.clock().borrow().now();
        tmk.read_bytes(region, 0, &mut buf);
        let cost = (tmk.clock().borrow().now() - t0).0;
        // Every writer's word must have landed on every page.
        for p in 0..PAGES {
            for w in 0..writers {
                let at = p * 4096 + w * 64;
                let v = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
                assert_eq!(v, 1 + w as u32, "page {p} writer {w}");
            }
        }
        cost
    })
}

fn run(writers: usize, engine: DiffFetch) -> u64 {
    let params = Arc::new(tm_sim::SimParams::paper_testbed());
    let cfg = FastConfig::paper(&params);
    let tcfg = TmkConfig {
        diff_fetch: engine,
        ..TmkConfig::default()
    };
    let out = run_fast_dsm(writers + 1, params, cfg, tcfg, storm_body);
    out[writers].result
}

/// Node 1's per-round cost of the lock storm over `pages` pages under
/// `profile`, reading them back if `read`.
fn run_storm(profile: Profile, pages: usize, read: bool) -> u64 {
    let params = Arc::new(tm_sim::SimParams::paper_testbed());
    let cfg = FastConfig::paper(&params);
    let tcfg = TmkConfig {
        profile,
        ..TmkConfig::default()
    };
    let out = run_fast_dsm(2, params, cfg, tcfg, move |tmk| {
        lock_storm_body(tmk, pages, STORM_ROUNDS, read)
    });
    out[1].result
}

/// Run the lock storm over `pages` pages under both profiles' lock paths,
/// print it and append it to `json` as `name`; returns (serial,
/// overlapped).
fn storm_object(json: &mut String, name: &str, pages: usize, read: bool) -> (u64, u64) {
    let serial = run_storm(Profile::Spec, pages, read);
    let overlapped = run_storm(Profile::Tuned, pages, read);
    let ratio = serial as f64 / overlapped.max(1) as f64;
    println!("{name}: serial={serial}ns overlapped={overlapped}ns ({ratio:.2}x)");
    json.push_str(&format!(
        "  \"{name}\": {{ \"pages\": {STORM_PAGES}, \"rounds\": {STORM_ROUNDS}, \
         \"serial_ns\": {serial}, \"overlapped_ns\": {overlapped}, \
         \"serial_over_overlapped\": {ratio:.2} }}"
    ));
    (serial, overlapped)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_overlap.json".into());

    let mut json = String::from("{\n  \"bench\": \"BENCH_overlap\",\n");
    json.push_str(&format!("  \"pages\": {PAGES},\n  \"rows\": [\n"));
    let ks = [1usize, 2, 4];
    for (i, &k) in ks.iter().enumerate() {
        let serial = run(k, DiffFetch::Serial);
        let coalesced = run(k, DiffFetch::Coalesced);
        println!(
            "writers={k}: serial={serial}ns coalesced={coalesced}ns \
             (serial/coalesced = {:.2}x)",
            serial as f64 / coalesced.max(1) as f64
        );
        assert!(
            coalesced < serial,
            "k={k}: coalesced ({coalesced}) must beat serial ({serial})"
        );
        let comma = if i + 1 < ks.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"writers\": {k}, \"serial_ns\": {serial}, \
             \"coalesced_ns\": {coalesced}, \"serial_over_coalesced\": {:.2} }}{comma}\n",
            serial as f64 / coalesced.max(1) as f64
        ));
    }
    json.push_str("  ],\n");

    let (serial, overlapped) = storm_object(&mut json, "cold_grant", STORM_PAGES + 1, false);
    assert!(
        serial < overlapped,
        "a cold grant must cost the overlapped path ({overlapped}) more than serial ({serial})"
    );
    json.push_str(",\n");
    let (serial, overlapped) = storm_object(&mut json, "lock_storm", STORM_PAGES, true);
    assert!(
        overlapped < serial,
        "overlapped lock path ({overlapped}) must beat serial ({serial})"
    );
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_overlap.json");
    println!("wrote {out_path}");
}
