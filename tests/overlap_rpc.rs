//! Overlapped-RPC engine correctness: with several requests in flight
//! per fault, responses may come back out of order, duplicated, or not
//! at all (forcing per-rid retransmission). Whatever the schedule, the
//! overlapped engine must produce shared memory byte-identical to the
//! one-outstanding-RPC serial engine on a clean network.
//!
//! The workload keeps >= 3 rids outstanding: three writers update
//! disjoint words of every page, so the fourth node's page faults fan
//! out to three peers at once (and each writer's own re-read keeps two
//! outstanding).

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::run_udp_dsm;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::{DiffFetch, Substrate, Tmk, TmkConfig};

const NODES: usize = 4;
const WRITERS: usize = 3;
const PAGES: usize = 8;

fn with_plan(f: FaultPlan) -> Arc<SimParams> {
    let mut p = SimParams::paper_testbed();
    p.faults = f;
    Arc::new(p)
}

/// Multi-writer diff storm; every node returns its full memory snapshot.
fn storm<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    // Warm every copy so the measured round is pure diff traffic.
    for p in 0..PAGES {
        let _ = tmk.get_u32(r, p * 1024);
    }
    tmk.barrier(0);
    if me < WRITERS {
        for p in 0..PAGES {
            tmk.set_u32(r, p * 1024 + me * 16, ((me as u32) << 8) | p as u32);
        }
    }
    tmk.barrier(1);
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(2);
    snap
}

/// Run the storm under `engine` and `plan`; assert all nodes converge on
/// one snapshot and return it.
fn run_storm(engine: DiffFetch, plan: FaultPlan) -> Vec<u8> {
    let cfg = TmkConfig {
        diff_fetch: engine,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(NODES, with_plan(plan), cfg, storm);
    for o in &out {
        assert_eq!(
            o.result, out[0].result,
            "node {} snapshot diverges under {engine:?}",
            o.id
        );
    }
    out[0].result.clone()
}

#[test]
fn overlapped_engine_matches_serial_on_clean_network() {
    let serial = run_storm(DiffFetch::Serial, FaultPlan::default());
    assert_eq!(
        run_storm(DiffFetch::Coalesced, FaultPlan::default()),
        serial
    );
    // The content itself: every writer's word on every page.
    for p in 0..PAGES {
        for w in 0..WRITERS {
            let at = p * 4096 + w * 64;
            let v = u32::from_le_bytes(serial[at..at + 4].try_into().unwrap());
            assert_eq!(v, ((w as u32) << 8) | p as u32, "page {p} writer {w}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Seeded drop/duplicate/reorder schedules against the overlapped
    /// engine: responses for >= 3 outstanding rids arrive late, twice,
    /// or never (retransmitted), and memory must still match the clean
    /// serial reference byte for byte.
    #[test]
    fn overlap_survives_random_fault_schedules(
        seed in any::<u64>(),
        drop_pm in 0u32..120,      // 0..12% loss
        dup_pm in 0u32..150,       // 0..15% duplication
        reorder_pm in 0u32..200,   // 0..20% reordering
    ) {
        let clean = run_storm(DiffFetch::Serial, FaultPlan::default());
        let plan = FaultPlan {
            seed,
            drop_probability: f64::from(drop_pm) / 1000.0,
            duplicate_probability: f64::from(dup_pm) / 1000.0,
            reorder_probability: f64::from(reorder_pm) / 1000.0,
            reorder_delay: Ns::from_us(250),
            ..FaultPlan::default()
        };
        prop_assert_eq!(run_storm(DiffFetch::Coalesced, plan), clean);
    }
}
