//! End-to-end fault-injection tests: the DSM must survive a seeded,
//! deterministic schedule of datagram drops, duplicates and reorders, GM
//! token starvation and receive-buffer overflow — with
//! byte-identical shared memory and exact, reproducible fault counters.
//!
//! The workload is the ISSUE's canonical round: 4 nodes run barriers, a
//! lock-guarded shared counter, striped page writes and full-memory
//! reads (page fetches + diffs). Any reliability bug has a visible
//! signature here: a double-granted lock loses counter increments, a
//! replayed diff corrupts page bytes, a lost message without
//! retransmission deadlocks the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, UdpSubstrate};
use tm_myrinet::Fabric;
use tm_sim::clock::shared_clock;
use tm_sim::{run_cluster_with, FaultPlan, NodeStats, Ns, SimParams};
use tmk::{DiffFetch, Profile, Substrate, Tmk, TmkConfig, TmkEvent};

const NODES: usize = 4;
const PAGES: usize = 6;
/// Lock-guarded increments per node; the counter must end at exactly
/// `NODES * INCRS` or mutual exclusion was violated.
const INCRS: u32 = 8;

fn with_plan(f: FaultPlan) -> Arc<SimParams> {
    let mut p = SimParams::paper_testbed();
    p.faults = f;
    Arc::new(p)
}

/// Barrier + lock + page-fetch round. Returns (full memory snapshot,
/// final counter value) so callers can compare runs byte for byte.
fn workload<S: Substrate>(tmk: &mut Tmk<S>) -> (Vec<u8>, u32) {
    let r = tmk.malloc(PAGES * 4096);
    tmk.barrier(0);
    let me = tmk.proc_id();
    for _ in 0..INCRS {
        tmk.acquire(0);
        let v = tmk.get_u32(r, 0);
        tmk.set_u32(r, 0, v + 1);
        tmk.release(0);
    }
    tmk.barrier(1);
    // Striped writes: node `me` owns page `me + 1` (page 0 holds the
    // counter), so every reader below needs a remote fetch per stripe.
    for w in 0..1024usize {
        tmk.set_u32(r, (me + 1) * 1024 + w, ((me as u32) << 16) | w as u32);
    }
    tmk.barrier(2);
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(3);
    (snap, tmk.get_u32(r, 0))
}

/// Run the UDP workload under `plan`; assert correctness invariants and
/// return (reference snapshot, aggregated stats).
fn run_udp_under(plan: FaultPlan) -> (Vec<u8>, NodeStats) {
    let out = run_udp_dsm(NODES, with_plan(plan), TmkConfig::default(), workload);
    let mut agg = NodeStats::default();
    for o in &out {
        agg.merge(&o.stats);
        assert_eq!(o.result.1, NODES as u32 * INCRS, "node {} counter", o.id);
        assert_eq!(
            o.result.0, out[0].result.0,
            "node {} snapshot diverges from node 0",
            o.id
        );
    }
    (out[0].result.0.clone(), agg)
}

#[test]
fn lossless_run_has_zero_fault_counters() {
    // Zero-fault invariance: with the plan disabled no reliability
    // machinery may fire — not one drop, retransmission or replayed
    // request.
    let (_, s) = run_udp_under(FaultPlan::default());
    assert!(!s.any_faults(), "fault counters on a clean run: {s:?}");
}

#[test]
fn ten_percent_loss_completes_with_identical_memory() {
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        drop_probability: 0.10,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean, "shared memory corrupted by loss recovery");
    assert!(s.dgrams_dropped > 0, "plan injected no drops: {s:?}");
    assert!(
        s.retransmits > 0,
        "drops recovered without retransmits? {s:?}"
    );
}

#[test]
fn one_percent_loss_completes_with_identical_memory() {
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        drop_probability: 0.01,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(
        s.dgrams_dropped > 0,
        "1% over this workload still drops: {s:?}"
    );
    assert!(
        s.retransmits >= s.dgrams_dropped,
        "every drop needs a resend"
    );
}

/// A fully serialized 2-node round: every message is ordered by a data
/// or barrier dependency, so each node's send sequence is its program
/// order and the seeded drop schedule lands on the same datagrams every
/// run. (So does it on the concurrent 4-node workload above, since the
/// scheduler orders every send — `tests/lockstep.rs` pins that one.)
fn serialized_workload<S: Substrate>(tmk: &mut Tmk<S>) -> u32 {
    let r = tmk.malloc(2 * 4096);
    tmk.barrier(0);
    let me = tmk.proc_id();
    for it in 0..6u32 {
        if me == it as usize % 2 {
            tmk.acquire(0);
            let v = tmk.get_u32(r, 0);
            tmk.set_u32(r, 0, v + 1);
            tmk.release(0);
        }
        tmk.barrier(1 + it);
    }
    tmk.get_u32(r, 0)
}

#[test]
fn retransmission_counts_are_deterministic() {
    // Same seed, same workload → the identical fault schedule, down to
    // exact counter values. This is the tentpole's reproducibility
    // guarantee: a failure seen once can be replayed forever.
    let run = || {
        let plan = FaultPlan {
            drop_probability: 0.10,
            ..FaultPlan::default()
        };
        let out = run_udp_dsm(
            2,
            with_plan(plan),
            TmkConfig::default(),
            serialized_workload,
        );
        let mut agg = NodeStats::default();
        for o in &out {
            agg.merge(&o.stats);
            assert_eq!(o.result, 6);
        }
        agg
    };
    let a = run();
    let b = run();
    assert_eq!(a.dgrams_dropped, b.dgrams_dropped);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.dup_requests_suppressed, b.dup_requests_suppressed);
    assert_eq!(a.stale_responses_dropped, b.stale_responses_dropped);
    // The seeded schedule's exact signature for this workload. If a code
    // change legitimately alters message order (new protocol traffic,
    // different rto), re-pin these numbers — the point is that they
    // never drift without a code change. (Last re-pinned for the
    // overlapped RPC engine, whose serve-queue draining shifts response
    // send order slightly.)
    assert_eq!(a.dgrams_dropped, 5);
    assert_eq!(a.retransmits, 5);
    assert_eq!(a.dup_requests_suppressed, 2);
    assert_eq!(a.stale_responses_dropped, 0);
}

#[test]
fn replayed_requests_are_idempotent() {
    // Duplicate delivery replays Acquire/Diff/BarrierArrive requests at
    // the responder. A double-granted acquire would let two nodes run
    // the critical section concurrently (counter < 32); a re-served diff
    // or page request must not disturb page state (snapshot equality).
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        duplicate_probability: 0.25,
        drop_probability: 0.05,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean, "replayed request mutated page state");
    assert!(
        s.dgrams_duplicated > 0,
        "plan injected no duplicates: {s:?}"
    );
    assert!(
        s.dup_requests_suppressed + s.stale_responses_dropped > 0,
        "no duplicate was ever absorbed: {s:?}"
    );
}

#[test]
fn reordering_is_survived() {
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        reorder_probability: 0.20,
        reorder_delay: Ns::from_us(300),
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(s.dgrams_reordered > 0, "plan reordered nothing: {s:?}");
}

#[test]
fn recvbuf_overflow_pressure_is_survived() {
    // A shallow socket buffer drops bursts silently, as the wire drops
    // its datagrams: recovery rides on the virtual-time retransmission
    // timer alone.
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, _) = run_udp_under(FaultPlan {
        recvbuf_datagrams: 4,
        drop_probability: 0.02,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
}

#[test]
fn everything_at_once() {
    // The full gauntlet: drop + duplicate + reorder on one run.
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        reorder_probability: 0.05,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(s.dgrams_dropped > 0 && s.dgrams_duplicated > 0 && s.dgrams_reordered > 0);
}

/// Three-writer diff storm so every page fault keeps three RPCs in
/// flight; every node snapshots the whole region at the end.
fn multi_writer_storm<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    for p in 0..PAGES {
        let _ = tmk.get_u32(r, p * 1024);
    }
    tmk.barrier(0);
    if me < 3 {
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

fn run_storm_under(engine: DiffFetch, plan: FaultPlan) -> (Vec<u8>, NodeStats) {
    let cfg = TmkConfig {
        diff_fetch: engine,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(NODES, with_plan(plan), cfg, multi_writer_storm);
    let mut agg = NodeStats::default();
    for o in &out {
        agg.merge(&o.stats);
        assert_eq!(
            o.result, out[0].result,
            "node {} snapshot diverges under {engine:?}",
            o.id
        );
    }
    (out[0].result.clone(), agg)
}

#[test]
fn overlapped_diff_fetch_survives_ten_percent_loss() {
    // The overlapped engine's per-rid retransmission timers, out-of-order
    // collection and full-outstanding-set stale discard all under fire at
    // once: three rids in flight per fault, 10% of datagrams vanish.
    // Memory must match a clean serial run byte for byte.
    let (clean, _) = run_storm_under(DiffFetch::Serial, FaultPlan::default());
    let (snap, s) = run_storm_under(
        DiffFetch::Coalesced,
        FaultPlan {
            drop_probability: 0.10,
            ..FaultPlan::default()
        },
    );
    assert_eq!(snap, clean, "memory corrupted by loss recovery");
    assert!(s.dgrams_dropped > 0, "plan injected no drops: {s:?}");
    assert!(
        s.retransmits > 0,
        "drops recovered without retransmits? {s:?}"
    );
}

/// Run the FAST workload under `plan`; return node 0's snapshot and the
/// aggregated stats.
fn run_fast_under(plan: FaultPlan) -> (Vec<u8>, NodeStats) {
    let params = with_plan(plan);
    let cfg = FastConfig::paper(&params);
    let out = run_fast_dsm(NODES, params, cfg, TmkConfig::default(), workload);
    let mut agg = NodeStats::default();
    for o in &out {
        agg.merge(&o.stats);
        assert_eq!(o.result.1, NODES as u32 * INCRS, "node {} counter", o.id);
        assert_eq!(o.result.0, out[0].result.0, "node {} snapshot", o.id);
    }
    (out[0].result.0.clone(), agg)
}

#[test]
fn fast_survives_token_starvation() {
    // GM-side fault: the send-token pool runs dry for 20us out of every
    // 200us of virtual time. FAST must back off and poll, never panic,
    // and the DSM outcome must be unchanged.
    let plan = FaultPlan {
        token_starvation_period: Ns::from_us(200),
        token_starvation_duration: Ns::from_us(20),
        ..FaultPlan::default()
    };
    let (_, agg) = run_fast_under(plan);
    assert!(
        agg.token_stalls > 0,
        "starvation windows never bit: {agg:?}"
    );
}

#[test]
fn fast_stays_reliable_under_a_datagram_fault_plan() {
    // A plan's datagram faults reach UDP's sockets only: GM delivers every
    // frame exactly once and in order (it resends a frame that fails its
    // link-level CRC in firmware), so FAST carries no retransmission.
    let (clean, _) = run_fast_under(FaultPlan::default());
    let (snap, s) = run_fast_under(FaultPlan {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        reorder_probability: 0.05,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(!s.any_faults(), "{s:?}");
}

// ----- the lossy lock chain -------------------------------------------------

const MIG_NODES: usize = 8;
const MIG_LOCKS: usize = 8;
const MIG_PAGES: usize = 8;
const MIG_ROUNDS: usize = 150;
/// A request retransmitted more often than this is stuck, not unlucky: the
/// worst rid over seeds 1–100 at 10 % loss needs 16 attempts.
const MIG_MAX_ATTEMPTS: u32 = 24;

/// What node `me` adds under its lock in round `r` (times `page + 1`).
fn mig_inc(me: usize, r: usize) -> u32 {
    ((me * MIG_ROUNDS + r) as u32).wrapping_mul(2_654_435_761)
}

/// The benchmark's `mig8_udp_loss` body, half as long again: lock `l`
/// guards word `l` of each of 8 pages, so every page has 8 writers under
/// 8 locks, and nothing but lock traffic runs between the two barriers —
/// ~90 % of what a node serves is an idempotent diff fetch, and the few
/// acquires among them are the requests that must be served at most once.
/// A rid retransmitted past [`MIG_MAX_ATTEMPTS`] panics the run: a stuck
/// chain retransmits forever, it does not deadlock.
fn lock_chain<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u32> {
    let me = tmk.proc_id();
    tmk.set_event_hook(move |ev| {
        if let TmkEvent::RetransmitFired { rid, attempt } = *ev {
            assert!(
                attempt <= MIG_MAX_ATTEMPTS,
                "node {me}: rid {rid} retransmitted {attempt} times"
            );
        }
    });
    let region = tmk.malloc(MIG_PAGES * 4096);
    tmk.barrier(0);
    for r in 0..MIG_ROUNDS {
        let l = (me + r) % MIG_LOCKS;
        tmk.acquire(l as u32);
        for p in 0..MIG_PAGES {
            let v = tmk.get_u32(region, p * 1024 + l);
            let add = mig_inc(me, r).wrapping_mul(p as u32 + 1);
            tmk.set_u32(region, p * 1024 + l, v.wrapping_add(add));
        }
        tmk.release(l as u32);
    }
    tmk.barrier(1);
    let mut out = Vec::with_capacity(MIG_PAGES * MIG_LOCKS);
    for p in 0..MIG_PAGES {
        for l in 0..MIG_LOCKS {
            out.push(tmk.get_u32(region, p * 1024 + l));
        }
    }
    out
}

/// Run the chain under `profile` at `loss` on fault seed `seed`; every
/// node must read the closed-form sums.
fn lock_chain_finishes(profile: Profile, loss: f64, seed: u64) {
    let mut want = vec![0u32; MIG_PAGES * MIG_LOCKS];
    for me in 0..MIG_NODES {
        for r in 0..MIG_ROUNDS {
            for p in 0..MIG_PAGES {
                let w = &mut want[p * MIG_LOCKS + (me + r) % MIG_LOCKS];
                *w = w.wrapping_add(mig_inc(me, r).wrapping_mul(p as u32 + 1));
            }
        }
    }
    let plan = FaultPlan {
        seed,
        drop_probability: loss,
        ..FaultPlan::default()
    };
    let cfg = TmkConfig {
        profile,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(MIG_NODES, with_plan(plan), cfg, lock_chain);
    for o in &out {
        assert_eq!(
            o.result, want,
            "{profile:?} loss {loss} seed {seed}: node {} sums",
            o.id
        );
    }
}

#[test]
fn lossy_lock_chain_keeps_its_obligations() {
    // With one FIFO for every replay record these two schedules never
    // finished: the diff fetches' responses evicted, on seed 5, a manager's
    // forward (the duplicate acquire re-ran against an owner hint that
    // already named the requester) and, on seed 72, an owner's grant 6 ms
    // after the grant itself was lost (the waiter was queued twice). Both
    // schedules were the paper's lazy acquire's.
    lock_chain_finishes(Profile::Spec, 0.02, 5);
    lock_chain_finishes(Profile::Spec, 0.02, 72);
}

/// The sweep behind the two seeds above, under both profiles: the
/// default's, and the paper's lazy acquire, which the default no longer
/// runs anywhere else under loss (CI's `fault-matrix` job runs it by name
/// in a release build).
#[test]
#[ignore]
fn lossy_lock_chain_sweep() {
    for profile in [Profile::Spec, Profile::Tuned] {
        for loss in [0.02, 0.10] {
            for seed in 1..=100 {
                lock_chain_finishes(profile, loss, seed);
            }
        }
    }
}

// ----- how a node learns that a peer is gone ---------------------------------

/// Node 0, lock 0's manager, holds the lock across 10 s of computation
/// while node 1 waits for it on a lossy wire. Node 1's acquire is queued,
/// so its retransmissions are swallowed and it hears nothing for ten
/// seconds — but that is a peer holding a request, not a peer gone. The
/// backoff reaches its 1.64 s ceiling after 12 timeouts and only the
/// timeouts at the ceiling count toward giving up: 5 here, of 12 allowed.
/// A rule that counted every silent timeout would give up at the 13th,
/// about 3.3 s in.
#[test]
fn a_lock_held_across_ten_seconds_of_compute_is_waited_out() {
    let plan = FaultPlan {
        seed: 3,
        drop_probability: 0.01,
        ..FaultPlan::default()
    };
    let out = run_udp_dsm(2, with_plan(plan), TmkConfig::default(), |tmk| {
        tmk.barrier(0);
        tmk.acquire(0);
        if tmk.proc_id() == 0 {
            tmk.compute_ns(Ns::from_secs(10));
        }
        tmk.release(0);
        tmk.clock().borrow().now()
    });
    let got_lock = out[1].result;
    assert!(got_lock > Ns::from_secs(10), "got the lock at {got_lock}");
    assert_eq!(out[1].stats.retransmits, 17, "{:?}", out[1].stats);
}

/// Node 0 holds lock 0 for 30 s, fetching one page from node 1 every 5 s
/// of it. Node 1's acquire sits at the ceiling for far longer than the
/// 13 silent timeouts it may count, but each fetch is a frame from node 0
/// and starts its silence over: a peer that is heard from is waited out,
/// however long it holds the request. Node 1 writes its pages before the
/// first barrier, so a notice names each and every touch is a fetch.
#[test]
fn a_peer_that_is_heard_from_is_waited_out_however_long_it_holds_a_request() {
    let plan = FaultPlan {
        seed: 3,
        drop_probability: 0.01,
        ..FaultPlan::default()
    };
    let out = run_udp_dsm(2, with_plan(plan), TmkConfig::default(), |tmk| {
        let r = tmk.malloc(12 * 4096);
        if tmk.proc_id() == 1 {
            for odd in (1..12).step_by(2) {
                tmk.set_u32(r, odd * 1024, 1);
            }
        }
        tmk.barrier(0);
        tmk.acquire(0);
        if tmk.proc_id() == 0 {
            for odd in (1..12).step_by(2) {
                tmk.compute_ns(Ns::from_secs(5));
                // Page `odd` is managed and written by node 1: a first
                // touch fetches it.
                let _ = tmk.get_u32(r, odd * 1024);
            }
        }
        tmk.release(0);
        tmk.clock().borrow().now()
    });
    let got_lock = out[1].result;
    assert!(got_lock > Ns::from_secs(30), "got the lock at {got_lock}");
}

/// An rpc to a peer that has left gives up once its timer has sat at the
/// backoff ceiling 13 times with nothing heard: 12 timeouts climbing to
/// 1.64 s, then 13 of 1.64 s each — 25 attempts, and a pinned virtual
/// time just short of 23 s.
#[test]
fn an_rpc_to_a_departed_peer_gives_up_after_silence_at_the_ceiling() {
    let params = with_plan(FaultPlan {
        drop_probability: 0.01,
        ..FaultPlan::default()
    });
    let (_fabric, nics) = Fabric::new(2, Arc::clone(&params));
    let clock = shared_clock();
    let requester = Rc::clone(&clock);
    let gave_up = catch_unwind(AssertUnwindSafe(|| {
        run_cluster_with(Arc::clone(&params), nics, move |env, nic| {
            if env.id == 0 {
                let sub = UdpSubstrate::new(nic, Rc::clone(&requester), Arc::clone(&env.params));
                let mut tmk = Tmk::new(sub, TmkConfig::default());
                // Lock 1's manager is node 1, which has already left.
                tmk.acquire(1);
            }
        })
    }));
    let Err(payload) = gave_up else {
        panic!("an rpc nobody answers must give up")
    };
    let msg = payload.downcast_ref::<String>().expect("a message");
    assert!(
        msg.contains("to 1: gave up after 12 silent retransmissions (25 total)"),
        "{msg}"
    );
    let gave_up_at = clock.borrow().now();
    assert_eq!(gave_up_at, Ns(22_937_370_450), "gave up at {gave_up_at}");
}
