//! The `TmkEvent` seam ticks where `NodeStats` ticks: summed over a
//! cluster, the event tally and the protocol counters agree, on FAST/GM,
//! on lossless UDP/GM and on UDP/GM under loss.
//!
//! Each node installs `MetricsHandle` and returns it from its body; the
//! tally is read after `run_*_dsm` returns, so the exit barrier and the
//! lossy shutdown linger (which serve requests and retransmit) are
//! counted as `NodeStats` counts them.

use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::runner::NodeOutcome;
use tm_sim::{FaultPlan, NodeStats, SimParams};
use tmk::{LayerMetrics, MetricsHandle, Substrate, Tmk, TmkConfig};

const NODES: usize = 4;
const ROUNDS: u32 = 10;
const LOCKS: u32 = 2;

/// Lock + compute loop: every node bumps a shared counter per lock,
/// computing between critical sections.
fn lock_loop<S: Substrate>(tmk: &mut Tmk<S>) -> MetricsHandle {
    let handle = MetricsHandle::install(tmk);
    let r = tmk.malloc(LOCKS as usize * 4096);
    tmk.barrier(0);
    for round in 0..ROUNDS {
        let lock = round % LOCKS;
        tmk.acquire(lock);
        let at = lock as usize * 1024;
        let v = tmk.get_u32(r, at);
        tmk.set_u32(r, at, v + 1);
        tmk.release(lock);
        tmk.compute(50 + 10 * tmk.proc_id() as u64);
    }
    tmk.barrier(1);
    let total: u32 = (0..LOCKS).map(|l| tmk.get_u32(r, l as usize * 1024)).sum();
    assert_eq!(
        total,
        NODES as u32 * ROUNDS,
        "node {} lost an increment",
        tmk.proc_id()
    );
    handle
}

/// Sum the cluster's counters and its event tallies, read after the run.
fn totals(out: &[NodeOutcome<MetricsHandle>]) -> (NodeStats, LayerMetrics) {
    let mut stats = NodeStats::default();
    let mut events = LayerMetrics::default();
    for o in out {
        stats.merge(&o.stats);
        events.merge(&o.result.snapshot());
    }
    (stats, events)
}

fn assert_seam_agrees(what: &str, out: &[NodeOutcome<MetricsHandle>]) {
    let (s, m) = totals(out);
    let count = |kind: &str| m.get(kind).map_or(0, |e| e.count);
    assert!(s.remote_acquires > 0, "{what}: no remote acquire");
    assert_eq!(
        count("lock_granted"),
        s.remote_acquires,
        "{what}: lock_granted"
    );
    assert_eq!(
        count("retransmit_fired"),
        s.retransmits,
        "{what}: retransmit_fired"
    );
    assert_eq!(
        count("request_served") + s.dup_requests_suppressed,
        s.requests_served,
        "{what}: request_served"
    );
}

fn udp(plan: FaultPlan) -> Vec<NodeOutcome<MetricsHandle>> {
    let mut p = SimParams::paper_testbed();
    p.faults = plan;
    run_udp_dsm(NODES, Arc::new(p), TmkConfig::default(), lock_loop)
}

#[test]
fn events_agree_with_node_stats_on_fast_gm() {
    let params = Arc::new(SimParams::paper_testbed());
    let cfg = FastConfig::paper(&params);
    let out = run_fast_dsm(NODES, params, cfg, TmkConfig::default(), lock_loop);
    assert_seam_agrees("FAST/GM", &out);
}

#[test]
fn events_agree_with_node_stats_on_lossless_udp_gm() {
    let out = udp(FaultPlan::default());
    assert_eq!(totals(&out).0.retransmits, 0);
    assert_seam_agrees("UDP/GM", &out);
}

#[test]
fn events_agree_with_node_stats_under_loss() {
    let mut retransmits = 0;
    for seed in 1..=5 {
        let out = udp(FaultPlan {
            seed,
            drop_probability: 0.05,
            ..FaultPlan::default()
        });
        retransmits += totals(&out).0.retransmits;
        assert_seam_agrees(&format!("UDP/GM 5% loss, seed {seed}"), &out);
    }
    assert!(
        retransmits > 0,
        "5% loss over five seeds retransmitted nothing"
    );
}
