//! Pipelined-synchronization correctness: the overlapped lock path
//! changes *when* diffs move, never *what* a fault applies. Whatever the
//! schedule — clean, lossy, duplicated, reordered — shared memory must
//! stay byte-identical to the serial spec baseline.
//!
//! The workload is the TSP-like storm: the holder writes a block of
//! pages under the lock, the reader acquires and reads it back, with the
//! lock handoff as the only ordering (so the grant carries the write
//! notices the pipeline overlaps). The overlapped path is the tuned
//! profile's, the default; the spec profile's is the lazy acquire. The
//! last test prices it on the benchmark's migratory shape.

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::runner::cluster_time;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::{Profile, Substrate, Tmk, TmkConfig};

const PAGES: usize = 8;
const ROUNDS: u32 = 4;

/// Paper testbed under fault plan `f`.
fn with_plan(f: FaultPlan) -> Arc<SimParams> {
    let mut p = SimParams::paper_testbed();
    p.faults = f;
    Arc::new(p)
}

/// Lock-handoff storm; every node returns its full memory snapshot.
fn storm<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    for p in 0..PAGES {
        let _ = tmk.get_u32(r, p * 1024);
    }
    tmk.barrier(0);
    for round in 0..ROUNDS {
        let want = round + 1;
        if me == 0 {
            tmk.acquire(0);
            // Payload first, turn marker (page 0) last: a reader that
            // observes the marker holds notices for the whole interval.
            for p in 1..PAGES {
                tmk.set_u32(r, p * 1024 + 4, (want << 8) | p as u32);
            }
            tmk.set_u32(r, 4, want);
            tmk.release(0);
        } else {
            loop {
                tmk.acquire(0);
                if tmk.get_u32(r, 4) == want {
                    break;
                }
                tmk.release(0);
            }
            for p in 1..PAGES {
                assert_eq!(tmk.get_u32(r, p * 1024 + 4), (want << 8) | p as u32);
            }
            tmk.release(0);
        }
        tmk.barrier(1 + round);
    }
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(1 + ROUNDS);
    snap
}

/// Run the storm under `profile` and `plan`; assert both nodes
/// converge on one snapshot and return it.
fn run_storm(profile: Profile, plan: FaultPlan) -> Vec<u8> {
    let cfg = TmkConfig {
        profile,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(2, with_plan(plan), cfg, storm);
    for o in &out {
        assert_eq!(
            o.result, out[0].result,
            "node {} snapshot diverges under {profile:?}",
            o.id
        );
    }
    out[0].result.clone()
}

#[test]
fn pipelined_paths_match_serial_on_clean_network() {
    let serial = run_storm(Profile::Spec, FaultPlan::default());
    assert_eq!(run_storm(Profile::Tuned, FaultPlan::default()), serial);
    // The content itself: the last round's interval on every page
    // (u32 index `p * 1024 + 4` is byte offset `p * 4096 + 16`).
    for p in 1..PAGES {
        let at = p * 4096 + 16;
        let v = u32::from_le_bytes(serial[at..at + 4].try_into().unwrap());
        assert_eq!(v, (ROUNDS << 8) | p as u32, "page {p}");
    }
}

/// Barriers and lock handoffs that touch no shared page: there is nothing
/// for an acquire or a first touch to fetch, so the profile must not show.
/// Every node's finish time and message count are the same under both
/// profiles, on both transports — a barrier release is one response either
/// way.
#[test]
fn the_profile_changes_only_what_an_acquire_or_a_first_touch_fetches() {
    fn sync_only<S: Substrate>(tmk: &mut Tmk<S>) {
        let me = tmk.proc_id() as u32;
        for round in 0..3 {
            tmk.acquire(round % 2);
            tmk.compute_ns(Ns::from_us(u64::from(me)));
            tmk.release(round % 2);
            tmk.barrier(round);
        }
    }
    let params = Arc::new(SimParams::paper_testbed());
    let cfg = |profile| TmkConfig {
        profile,
        ..TmkConfig::default()
    };
    let fast = |lp| {
        let f = FastConfig::paper(&params);
        run_fast_dsm(8, Arc::clone(&params), f, cfg(lp), sync_only)
    };
    let udp = |lp| run_udp_dsm(8, Arc::clone(&params), cfg(lp), sync_only);
    let signature = |out: Vec<tm_sim::runner::NodeOutcome<()>>| -> Vec<(Ns, u64)> {
        out.iter().map(|o| (o.finish, o.stats.msgs_sent)).collect()
    };
    assert_eq!(
        signature(fast(Profile::Tuned)),
        signature(fast(Profile::Spec)),
        "FAST/GM"
    );
    assert_eq!(
        signature(udp(Profile::Tuned)),
        signature(udp(Profile::Spec)),
        "UDP/GM"
    );
}

const MIG_NODES: usize = 8;
const MIG_LOCKS: usize = 8;
const MIG_PAGES: usize = 8;
const MIG_ROUNDS: usize = 40;

/// The benchmark's `mig8_udp_loss` shape, shortened: lock `l` guards word
/// `l` of each of 8 pages, and node `me` takes lock `(me + r) % 8` in
/// round `r` to add to its word on every page. Nothing but lock traffic
/// runs between the barriers, so every page an acquire needs arrives as a
/// write notice on its grant. Returns the 8 × 8 words.
fn migratory<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u32> {
    let me = tmk.proc_id();
    let region = tmk.malloc(MIG_PAGES * 4096);
    tmk.barrier(0);
    for r in 0..MIG_ROUNDS {
        let l = (me + r) % MIG_LOCKS;
        tmk.acquire(l as u32);
        for p in 0..MIG_PAGES {
            let v = tmk.get_u32(region, p * 1024 + l);
            tmk.set_u32(region, p * 1024 + l, v + (me * MIG_ROUNDS + r) as u32);
        }
        tmk.release(l as u32);
    }
    tmk.barrier(1);
    let words = (0..MIG_PAGES * MIG_LOCKS)
        .map(|i| tmk.get_u32(region, i / MIG_LOCKS * 1024 + i % MIG_LOCKS))
        .collect();
    tmk.barrier(2);
    words
}

/// The default is the tuned profile, whose lock path is the overlapped
/// one, and on the migratory shape over UDP/GM at 0.5 % loss (fixed fault
/// seed) it changes only timing: the
/// same words, reached strictly sooner in fewer messages than the paper's
/// lazy acquire, whose faults each cost a round trip inside the critical
/// section.
#[test]
fn the_default_profile_is_the_tuned_one_and_only_finishes_sooner() {
    assert_eq!(TmkConfig::default().profile, Profile::Tuned);
    let run = |cfg: TmkConfig| {
        let plan = FaultPlan {
            seed: 0x6d69_6738,
            drop_probability: 0.005,
            ..FaultPlan::default()
        };
        let out = run_udp_dsm(MIG_NODES, with_plan(plan), cfg, migratory);
        for o in &out {
            assert_eq!(o.result, out[0].result, "node {} words diverge", o.id);
        }
        let msgs: u64 = out.iter().map(|o| o.stats.msgs_sent).sum();
        (out[0].result.clone(), cluster_time(&out), msgs)
    };
    let serial = run(TmkConfig {
        profile: Profile::Spec,
        ..TmkConfig::default()
    });
    let default = run(TmkConfig::default());
    let mut want = vec![0u32; MIG_PAGES * MIG_LOCKS];
    for me in 0..MIG_NODES {
        for r in 0..MIG_ROUNDS {
            for p in 0..MIG_PAGES {
                want[p * MIG_LOCKS + (me + r) % MIG_LOCKS] += (me * MIG_ROUNDS + r) as u32;
            }
        }
    }
    assert_eq!(serial.0, want, "the lazy acquire's words");
    assert_eq!(default.0, serial.0, "the profile changed memory");
    assert!(
        default.1 < serial.1,
        "the default ({}) must finish before the lazy acquire ({})",
        default.1,
        serial.1
    );
    assert!(
        default.2 < serial.2,
        "the default ({} messages) must send fewer than the lazy acquire ({})",
        default.2,
        serial.2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Seeded drop/duplicate/reorder schedules against the pipelined
    /// lock path: grants, notice sends and batched fetches arrive late,
    /// twice, or never (retransmitted), and memory must still match the
    /// clean serial reference byte for byte.
    #[test]
    fn pipelined_sync_survives_random_fault_schedules(
        seed in any::<u64>(),
        drop_pm in 0u32..120,      // 0..12% loss
        dup_pm in 0u32..150,       // 0..15% duplication
        reorder_pm in 0u32..200,   // 0..20% reordering
    ) {
        let clean = run_storm(Profile::Spec, FaultPlan::default());
        let plan = FaultPlan {
            seed,
            drop_probability: f64::from(drop_pm) / 1000.0,
            duplicate_probability: f64::from(dup_pm) / 1000.0,
            reorder_probability: f64::from(reorder_pm) / 1000.0,
            reorder_delay: Ns::from_us(250),
            ..FaultPlan::default()
        };
        prop_assert_eq!(run_storm(Profile::Tuned, plan), clean);
    }
}
