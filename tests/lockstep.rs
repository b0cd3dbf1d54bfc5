//! Reproducibility tests.
//!
//! A cluster's nodes are contexts on the caller's thread and the
//! scheduler releases one event at a time, in virtual-key order
//! (`tm_sim::sched`), so a run's observable outcome — shared memory,
//! per-node stats, per-node virtual clocks — is a function of the program
//! alone, on every substrate. Four batteries: the same workload run twice
//! (and from two OS threads at once) must agree byte for byte, over
//! FAST/GM, UDP/GM and the in-memory substrate; over randomized
//! drop/duplicate/reorder fault schedules a faulty run must converge to
//! the fault-free run's shared memory (faults may reorder recovery, never
//! corrupt it); and the schedule itself is pinned: fingerprints recorded
//! under the threaded, fully serial scheduler this one descends from, and
//! every double run's finish times and digest, recorded under the default
//! config.

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::memsub::run_mem_dsm;
use tmk::{Profile, Substrate, Tmk, TmkConfig};

const NODES: usize = 4;
const PAGES: usize = 4;
const INCRS: u32 = 6;

fn params() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

/// Contended barrier + lock + multi-writer round. Returns the node's full
/// memory snapshot — the byte-identity payload.
fn workload<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    tmk.barrier(0);
    for _ in 0..INCRS {
        tmk.acquire(0);
        let v = tmk.get_u32(r, 0);
        tmk.set_u32(r, 0, v + 1);
        tmk.release(0);
    }
    tmk.barrier(1);
    // Multi-writer pages: everyone writes its own stripe of every page.
    // Stripes start at word 16 so the lock-guarded counter in word 0
    // survives to the final snapshot.
    for p in 0..PAGES {
        for w in 0..8usize {
            tmk.set_u32(
                r,
                p * 1024 + 16 + me * 8 + w,
                ((me as u32) << 16) | w as u32,
            );
        }
    }
    tmk.barrier(2);
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(3);
    snap
}

/// One run's complete observable signature: per node, the final virtual
/// clock, every stat counter (Debug format covers all fields, so a new
/// counter is automatically included) and the memory snapshot.
fn fingerprint(out: &[tm_sim::runner::NodeOutcome<Vec<u8>>]) -> Vec<(u64, String, Vec<u8>)> {
    out.iter()
        .map(|o| (o.finish.0, format!("{:?}", o.stats), o.result.clone()))
        .collect()
}

fn fast_run() -> Vec<(u64, String, Vec<u8>)> {
    let p = params();
    let cfg = FastConfig::paper(&p);
    fingerprint(&run_fast_dsm(NODES, p, cfg, TmkConfig::default(), workload))
}

fn udp_run() -> Vec<(u64, String, Vec<u8>)> {
    fingerprint(&run_udp_dsm(
        NODES,
        params(),
        TmkConfig::default(),
        workload,
    ))
}

#[test]
fn fast_lockstep_double_run_is_byte_identical() {
    let a = fast_run();
    assert_eq!(
        a,
        fast_run(),
        "FAST/GM lockstep run diverged from its repeat"
    );
    assert_eq!(
        a[0].2[..4],
        (NODES as u32 * INCRS).to_le_bytes(),
        "lock-guarded counter wrong"
    );
    // Re-recorded three times on purpose (−58 577 ns on every node), when
    // the default profile began mapping a page no write notice names as
    // zeroes instead of fetching it from its manager, (−157 602 ns) when it
    // stopped asking the manager for a named one too, (+11 080 ns) when
    // a tuned acquire began taking a page whole from its granter, and
    // (−5 223 ns) when a tuned interval record began carrying its `Σvc`
    // instead of its vector clock.
    let (finish, h) = pinned(&a);
    assert_eq!(
        finish,
        [2_720_893, 2_726_164, 2_727_721, 2_729_278],
        "finish times left the recorded schedule"
    );
    assert_eq!(
        h, 0x18ca_e8cd_8a9f_0d23,
        "counters or memory left the recorded schedule"
    );
}

#[test]
fn udp_lockstep_double_run_is_byte_identical() {
    let a = udp_run();
    assert_eq!(a, udp_run(), "UDP/GM lockstep run diverged from its repeat");
    // Re-recorded five times on purpose: +2 520 ns on every node when a collect
    // began serving the requests gathered with its response before handing
    // it back, −222 227 ns when the default profile began mapping a page no
    // write notice names as zeroes instead of fetching it, −272 334 ns
    // when it stopped asking the manager for a named one too, −61 626 ns
    // when a tuned acquire began taking a page whole from its granter,
    // −6 282 ns when a tuned interval record began carrying its `Σvc`
    // instead of its vector clock.
    let (finish, h) = pinned(&a);
    assert_eq!(
        finish,
        [4_242_214, 4_253_449, 4_260_469, 4_267_489],
        "finish times left the recorded schedule"
    );
    assert_eq!(
        h, 0x0108_c650_97fe_e02e,
        "counters or memory left the recorded schedule"
    );
}

/// Two lockstep clusters at once, one per OS thread, each fingerprint
/// equal to the same cluster run alone: the executor and everything it
/// switches between are thread-local, so concurrent clusters (parallel
/// `cargo test`) cannot see each other. The barrier forces the overlap.
#[test]
fn concurrent_lockstep_clusters_do_not_see_each_other() {
    let (fast_alone, udp_alone) = (fast_run(), udp_run());
    let start = std::sync::Barrier::new(2);
    let (fast_both, udp_both) = std::thread::scope(|s| {
        let fast = s.spawn(|| {
            start.wait();
            (0..3).map(|_| fast_run()).collect::<Vec<_>>()
        });
        let udp = s.spawn(|| {
            start.wait();
            (0..3).map(|_| udp_run()).collect::<Vec<_>>()
        });
        (fast.join().unwrap(), udp.join().unwrap())
    });
    assert!(
        fast_both.iter().all(|f| *f == fast_alone),
        "FAST/GM cluster was disturbed"
    );
    assert!(
        udp_both.iter().all(|f| *f == udp_alone),
        "UDP/GM cluster was disturbed"
    );
}

/// What goes into a cluster and what comes out of it is plain data and
/// does cross threads — the scope above, the repo benchmark's rep thread.
/// The cluster itself (`NicHandle`, `MemEndpoint`, `Fabric`, `Mailboxes`)
/// does not: `compile_fail` doctests on those types.
#[test]
fn what_enters_and_leaves_a_cluster_crosses_threads() {
    fn crosses_threads<T: Send>() {}
    crosses_threads::<tm_sim::runner::NodeOutcome<Vec<u8>>>();
    crosses_threads::<tm_sim::NodeStats>();
    crosses_threads::<tmk::LayerMetrics>();
    crosses_threads::<SimParams>();
    crosses_threads::<TmkConfig>();
    crosses_threads::<FastConfig>();
}

const STORM_NODES: usize = 16;

/// The repo benchmark's `sync64_fast` in small: rounds of {lock; one-word
/// update; unlock; barrier}, almost no data, so hand-offs between nodes
/// are all there is. Returns the lock-guarded words.
fn storm<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    const ROUNDS: usize = 5;
    const LOCKS: usize = 4;
    let me = tmk.proc_id();
    let words = tmk.malloc(4096);
    tmk.barrier(0);
    for r in 0..ROUNDS {
        let l = (me + r) % LOCKS;
        tmk.acquire(l as u32);
        let v = tmk.get_u32(words, l);
        tmk.set_u32(words, l, v + (me * 31 + r) as u32 + 1);
        tmk.release(l as u32);
        tmk.barrier(1 + r as u32);
    }
    (0..LOCKS)
        .flat_map(|l| tmk.get_u32(words, l).to_le_bytes())
        .collect()
}

/// A cluster is exact wherever it is launched from — no external
/// `taskset`, whatever the caller's affinity mask. 16 nodes × 5 rounds of
/// [`storm`] over FAST/GM is the smallest shape that diverged reliably
/// while nodes were threads on every core of a 2-CPU host (7 and 12
/// distinct outcomes in 12 and 18 runs). As contexts on one thread there is
/// no interleaving left to diverge on; the test stays as the regression it
/// was written to be.
#[test]
fn fast_lockstep_is_exact_on_all_cores() {
    const RUNS: usize = 6;
    let run = || {
        let p = params();
        let cfg = FastConfig::paper(&p);
        fingerprint(&run_fast_dsm(
            STORM_NODES,
            p,
            cfg,
            TmkConfig::default(),
            storm,
        ))
    };
    let first = run();
    for i in 1..RUNS {
        assert_eq!(run(), first, "run {i} of {RUNS} diverged from run 0");
    }
    // Re-recorded four times on purpose (latest finish 4 146 623 →
    // 4 047 233 ns when a collect began serving the requests gathered with
    // its response before handing it back; → 4 004 868 ns when the default
    // profile began mapping a page no write notice names as zeroes without
    // a fetch; → 3 796 781 ns when it stopped asking the manager for a
    // named one too; → 2 995 436 ns when a tuned acquire began taking a
    // page whole from its granter; → 2 967 844 ns when a tuned interval
    // record began carrying its `Σvc` instead of its vector clock).
    let (finish, h) = pinned(&first);
    assert_eq!(
        latest_and_sum(&finish),
        (2_967_844, 47_313_058),
        "finish times left the recorded schedule"
    );
    assert_eq!(
        h, 0xae94_b158_89a3_0cb5,
        "counters or memory left the recorded schedule"
    );
}

/// The in-memory substrate is a scheduler client like the fabric: the same
/// storm over `run_mem_dsm` fingerprints identically twice — finish times
/// and idle counters included, which no run on OS threads could repeat.
#[test]
fn memsub_double_run_is_byte_identical() {
    let run = || {
        let cfg = TmkConfig::default();
        fingerprint(&run_mem_dsm(
            STORM_NODES,
            params(),
            Ns::from_us(5),
            cfg,
            storm,
        ))
    };
    let first = run();
    assert_eq!(run(), first, "memsub run diverged from its repeat");
    assert!(
        first.iter().all(|f| f.2 == first[0].2 && f.0 > 0),
        "nodes disagree on the lock-guarded words"
    );
    // Re-recorded four times on purpose (latest finish 2 014 671 → 2 127 552 ns
    // when a collect began serving the requests gathered with its response
    // before handing it back; → 2 101 187 ns when the default profile began
    // mapping a page no write notice names as zeroes without a fetch;
    // → 1 924 583 ns when it stopped asking the manager for a named one
    // too; → 1 669 394 ns when a tuned acquire began taking a page whole
    // from its granter), and
    // its digest alone twice more, when memsub began counting `msgs_recv` /
    // `bytes_recv` for a message a poll hands over, as the transports do,
    // and when a tuned interval record began carrying its `Σvc` instead of
    // its vector clock (fewer bytes received; memsub prices no byte).
    let (finish, h) = pinned(&first);
    assert_eq!(
        latest_and_sum(&finish),
        (1_669_394, 26_600_304),
        "finish times left the recorded schedule"
    );
    assert_eq!(
        h, 0x6e17_1fb9_21cb_42b9,
        "counters or memory left the recorded schedule"
    );
}

/// [`storm`] behind a stretch of computation, 40 us shorter on each next
/// node — the barrier's root computes longest, so its children's arrivals
/// interrupt its segment one by one — so no time bucket the stack can fill
/// is empty.
fn storm_after_compute<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    tmk.compute_ns(Ns::from_us(40 * (STORM_NODES - tmk.proc_id()) as u64));
    storm(tmk)
}

/// The coarse half of the time ledger: `NodeClock` moves `now` in three
/// methods and each books what it adds, so a node's five buckets —
/// compute, service, idle, protocol, async overhead — sum to its finish
/// time to the nanosecond, on both transports and with retransmission and
/// the shutdown linger in play.
#[test]
fn time_buckets_sum_to_finish_on_every_node() {
    fn check(what: &str, out: &[tm_sim::runner::NodeOutcome<Vec<u8>>]) -> tm_sim::NodeStats {
        for o in out {
            let s = &o.stats;
            assert_eq!(
                s.booked_time(),
                o.finish,
                "{what}: node {}'s buckets ({s:?})",
                o.id
            );
        }
        let all = tm_sim::runner::cluster_stats(out);
        let filled = [
            all.compute_time,
            all.service_time,
            all.idle_time,
            all.protocol_time,
            all.async_overhead_time,
        ];
        assert!(
            filled.iter().all(|&t| t > Ns::ZERO),
            "{what}: an empty bucket ({all:?})"
        );
        all
    }
    let (p, tcfg) = (params(), TmkConfig::default());
    let cfg = FastConfig::paper(&p);
    let out = run_fast_dsm(
        STORM_NODES,
        p,
        cfg.clone(),
        tcfg.clone(),
        storm_after_compute,
    );
    check("FAST/GM x16", &out);
    // The fifth bucket is what delivery costs a node that was computing:
    // a run that never computes books none.
    let out = run_fast_dsm(STORM_NODES, params(), cfg, tcfg.clone(), storm);
    let all = tm_sim::runner::cluster_stats(&out);
    assert_eq!(
        (all.compute_time, all.async_overhead_time),
        (Ns::ZERO, Ns::ZERO)
    );
    let out = run_udp_dsm(STORM_NODES, params(), tcfg.clone(), storm_after_compute);
    check("UDP/GM x16", &out);
    let mut lossy = SimParams::paper_testbed();
    lossy.faults = plan_pm(7, 50, 0, 0);
    let out = run_udp_dsm(8, Arc::new(lossy), tcfg, storm_after_compute);
    let all = check("lossy UDP/GM x8", &out);
    assert!(all.retransmits > 0, "the lossy run lost nothing: {all:?}");
}

/// A compute segment is a park on the scheduler — an event like a transmit
/// or a blocked wait — so a run that computes fingerprints identically
/// twice on every substrate, segment ends and the requests served inside
/// them included. Re-recorded once on purpose, when a collect began serving
/// the requests gathered with its response before handing it back (latest
/// finish: FAST/GM 4 842 606 → 4 743 216 ns, UDP/GM 9 651 970 → 9 604 225
/// ns, memsub 2 649 171 → 2 762 052 ns), and again when the default
/// profile began mapping a page no write notice names as zeroes without a
/// fetch (FAST/GM → 4 700 851 ns, UDP/GM → 9 466 001 ns, memsub →
/// 2 735 687 ns), and again when it stopped asking the manager for a
/// named one too (→ 4 492 764, 9 189 226 and 2 559 083 ns), and when a
/// tuned acquire began taking a page whole from its granter (→ 3 691 419,
/// 6 824 222 and 2 303 894 ns). memsub's digest alone moved once more, with no finish
/// time, when memsub began counting `msgs_recv` / `bytes_recv` for a
/// message a poll hands over, as the transports do. FAST/GM and UDP/GM
/// moved again when a tuned interval record began carrying its `Σvc`
/// instead of its vector clock (→ 3 663 827 and 6 742 011 ns), and
/// memsub's digest alone with them (fewer bytes received).
#[test]
fn a_run_that_computes_is_byte_identical_on_every_substrate() {
    type Run = fn() -> Vec<(u64, String, Vec<u8>)>;
    // (substrate, run, (latest finish, sum of finishes) in ns, digest)
    let runs: [(&str, Run, (u64, u64), u64); 3] = [
        (
            "FAST/GM",
            || {
                let (p, tcfg) = (params(), TmkConfig::default());
                let cfg = FastConfig::paper(&p);
                fingerprint(&run_fast_dsm(
                    STORM_NODES,
                    p,
                    cfg,
                    tcfg,
                    storm_after_compute,
                ))
            },
            (3_663_827, 58_448_786),
            0xca4e_5069_907e_b7dd,
        ),
        (
            "UDP/GM",
            || {
                let tcfg = TmkConfig::default();
                fingerprint(&run_udp_dsm(
                    STORM_NODES,
                    params(),
                    tcfg,
                    storm_after_compute,
                ))
            },
            (6_742_011, 107_108_145),
            0x80f6_97ec_348c_88f9,
        ),
        (
            "memsub",
            || {
                let (lat, tcfg) = (Ns::from_us(5), TmkConfig::default());
                fingerprint(&run_mem_dsm(
                    STORM_NODES,
                    params(),
                    lat,
                    tcfg,
                    storm_after_compute,
                ))
            },
            (2_303_894, 36_752_304),
            0xb9ea_fa67_f5f2_509f,
        ),
    ];
    for (what, run, finish, digest) in runs {
        let a = run();
        assert_eq!(
            a,
            run(),
            "{what}: a run that computes diverged from its repeat"
        );
        let (got, h) = pinned(&a);
        assert_eq!(
            latest_and_sum(&got),
            finish,
            "{what}: finish times left the recorded schedule"
        );
        assert_eq!(
            h, digest,
            "{what}: counters or memory left the recorded schedule"
        );
    }
}

#[test]
fn udp_lockstep_pins_faulty_run_signatures() {
    // The 4-node concurrent workload whose fault counters depended on the
    // wall clock while nodes were threads: it must reproduce exactly — the
    // barrier manager's shutdown linger included: it ends on the leaves'
    // `Gone` frames (or on silence, if one is lost), which are messages
    // like any other, so node 0's finish, idle time and linger-served
    // duplicate counters are as pinned as everyone else's. Run twice, and
    // held to the `pinned` values recorded under the default config. A
    // finish time that moves means the schedule moved: do not re-pin it.
    // Re-recorded once on purpose (9 177 358 → 9 107 795 ns on node 0),
    // when a dropped datagram stopped reaching its receiver as a loss
    // tombstone and a lost response came to be recovered by the
    // requester's timer alone. Re-recorded a second time on purpose (node 0
    // 9 107 795 → 1 645 157 832 ns), when the default profile began mapping
    // a page no write notice names as zeroes without a fetch: the fault
    // plan is kept, and on the schedule that left, one leaf's `Gone` is
    // dropped, so node 0's linger ends on silence at the retransmission
    // timeout's 1.64 s ceiling. Re-recorded a third time on purpose (node 0
    // → 9 651 810 ns, leaves 6.73 → 9.60 ms), when the default profile
    // stopped asking the manager for a named page: on the new schedule no
    // `Gone` is lost. Re-recorded a fourth time on purpose (node 0
    // 9 651 810 → 9 668 842 ns, leaves 9.60 → 9.68 ms), when a `Gone`
    // became a request the parent answers: each leaf now leaves on its
    // answer, after node 0, and no exit wait outlasts a quiet period of
    // four `rto`s. Re-recorded a fifth time on purpose (node 0 → 9 666 686
    // ns, every node −2 156 ns), when a tuned interval record began
    // carrying its `Σvc` instead of its vector clock.
    let run = || {
        let mut p = SimParams::paper_testbed();
        p.faults = FaultPlan {
            drop_probability: 0.08,
            duplicate_probability: 0.05,
            ..FaultPlan::default()
        };
        fingerprint(&run_udp_dsm(
            NODES,
            Arc::new(p),
            TmkConfig::default(),
            workload,
        ))
    };
    let a = run();
    assert_eq!(a, run(), "lossy lockstep run diverged from its repeat");
    assert!(
        a.iter().all(|(_, _, mem)| *mem == a[0].2),
        "nodes disagree on final memory"
    );
    assert!(
        a.iter().any(|(_, s, _)| s.contains("retransmits: ")),
        "stats format changed under test"
    );
    let (finish, h) = pinned(&a);
    assert_eq!(
        finish,
        [9_666_686, 9_675_879, 9_683_887, 9_691_895],
        "finish times left the recorded schedule"
    );
    assert_eq!(
        h, 0x338d_54a9_ab3b_26ef,
        "counters or memory left the recorded schedule"
    );
}

/// The body of `udp_lockstep_pins_faulty_run_signatures` — four UDP/GM
/// nodes, 8 % drop, 5 % duplicate — over fault seeds 1–100: on every seed
/// the nodes agree on memory and every node finishes within the quiet
/// period (four initial `rto`s) of the last leaf, however the exit's
/// releases, `Gone`s and answers are dropped; no exit waits out the 1.64 s
/// backoff ceiling. CI's `fault-matrix` job runs it by name in a release
/// build.
#[test]
#[ignore]
fn lossy_exit_sweep() {
    for seed in 1..=100 {
        let mut p = SimParams::paper_testbed();
        p.faults = FaultPlan {
            seed,
            drop_probability: 0.08,
            duplicate_probability: 0.05,
            ..FaultPlan::default()
        };
        let quiet = (p.udp.rto * 4).0;
        let out = run_udp_dsm(NODES, Arc::new(p), TmkConfig::default(), workload);
        assert!(
            out.iter().all(|o| o.result == out[0].result),
            "seed {seed}: nodes disagree on final memory"
        );
        let finish: Vec<u64> = out.iter().map(|o| o.finish.0).collect();
        let last_leaf = finish[1..].iter().copied().max().unwrap_or(0);
        assert!(
            finish.iter().all(|&f| f <= last_leaf + quiet),
            "seed {seed}: finish times {finish:?} outlast the last leaf's quiet period"
        );
    }
}

/// Shared-memory outcome of the workload under a fault plan.
fn memory_under(faults: FaultPlan) -> Vec<u8> {
    let mut p = SimParams::paper_testbed();
    p.faults = faults;
    let out = run_udp_dsm(3, Arc::new(p), TmkConfig::default(), workload);
    for o in &out {
        assert_eq!(o.result, out[0].result, "node {} snapshot diverges", o.id);
    }
    out[0].result.clone()
}

/// A fault plan from per-mille rates, as both batteries below state them.
fn plan_pm(seed: u64, drop_pm: u32, dup_pm: u32, reorder_pm: u32) -> FaultPlan {
    FaultPlan {
        seed,
        drop_probability: f64::from(drop_pm) / 1000.0,
        duplicate_probability: f64::from(dup_pm) / 1000.0,
        reorder_probability: f64::from(reorder_pm) / 1000.0,
        reorder_delay: Ns::from_us(250),
        ..FaultPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over randomized drop/duplicate/reorder schedules the faulty run
    /// recovers to the *same* shared memory as the fault-free run. Faults
    /// may only change when things happen, never what the DSM computes.
    #[test]
    fn faulty_and_fault_free_runs_agree_on_memory(
        seed in 1u64..1_000_000,
        drop_pm in 0u32..80,      // ‰ (per-mille) → ≤ 8% loss
        dup_pm in 0u32..60,
        reorder_pm in 0u32..60,
    ) {
        let faulty = memory_under(plan_pm(seed, drop_pm, dup_pm, reorder_pm));
        let clean = memory_under(FaultPlan::default());
        prop_assert_eq!(faulty, clean, "faults changed the final memory");
    }
}

/// FNV-1a, 64 bit: folds the parts of a fingerprint too long to pin in
/// the clear (25 counters and 16 KiB of memory per node).
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A fingerprint as the pins hold it: every node's finish time in ns, in
/// the clear, and one FNV-1a digest over every node's stat counters and
/// memory snapshot.
fn pinned(fp: &[(u64, String, Vec<u8>)]) -> (Vec<u64>, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (_, stats, mem) in fp {
        fnv1a(&mut h, stats.as_bytes());
        fnv1a(&mut h, mem);
    }
    (fp.iter().map(|(t, _, _)| *t).collect(), h)
}

/// A wide cluster's finish times as its pins hold them: the latest and
/// the sum, in ns.
fn latest_and_sum(finish: &[u64]) -> (u64, u64) {
    (
        finish.iter().copied().max().unwrap_or(0),
        finish.iter().sum(),
    )
}

/// The scheduler produces the *serial* schedule: release the global
/// minimum key, only when no node is running. These goldens predate it by
/// two schedulers: every row was RECORDED AT COMMIT f107a49 UNDER THE
/// THREADED `Single` TOKEN MODE — one cluster-wide reservation token, the
/// serial reference, run twice — confirmed equal there under the
/// per-receiver-token scheduler that replaced it (ISSUE 15), and
/// reproduced unchanged by the one-thread quiescence scheduler that
/// replaced that (ISSUE 17): `(fault seed, drop ‰, dup ‰, reorder ‰)` →
/// the three nodes' finish times in ns, in the clear, and an FNV-1a digest
/// over every node's full stat counters (`Debug` format) and memory
/// snapshot. Any per-inbox delivery reordering shifts virtual arrival
/// times and therefore clocks and counters, so equality pins the per-inbox
/// delivery order, not just the converged memory. A finish time that moves
/// means the schedule moved: do not re-pin it. (A new or removed
/// `NodeStats` field changes only the digests; re-record those only while
/// every finish time still matches. Done twice: for the two new time
/// buckets `protocol_time` and `async_overhead_time` — with those cut from
/// the `Debug` text the digests recorded at f107a49 still reproduced —
/// and when the two corruption counters went, with every digest equal to
/// its predecessor's fingerprint once their two `: 0, ` entries are cut
/// from the old `Debug` text.) One re-pin moved the
/// seven lossy rows on purpose, when a lossy node stopped asking the
/// scheduler whether its peers had left and started hearing it from the
/// wire: each leaf now sends one `Gone` to node 0 after the exit barrier
/// (+6 508 ns on its finish), and node 0 lingers until the last one has
/// arrived instead of leaving at the leaves' departure (+43 701 ns of
/// cluster time; +57 746 ns on the (31 337, 10, 40, 20) row). The digests
/// move with them (one more request served and sent per leaf). The
/// fault-free row is untouched. Every row runs the paper's lazy acquire
/// (`Profile::Spec`), the path they were recorded under. A second
/// re-pin moved the five lossy rows of each table on purpose, when a
/// dropped datagram stopped reaching its receiver as a loss tombstone: a
/// lost response is recovered by the requester's timer alone, no longer
/// resent the moment its tombstone landed. The finish times moved both
/// ways (lazy `(7, 50, 0, 0)` 5 113 214 → 4 732 587 ns, `(987 654, 60, 5,
/// 0)` 3 532 772 → 5 273 266 ns): once one recovery takes a different
/// time, each node's fault stream draws its drops on other datagrams. The
/// `4242` rows moved only their digests; the drop-free rows did not move.
/// The second
/// table is the same eight plans under `TmkConfig::default()`, which
/// fetches what a grant invalidates at the grant, maps a first-touched
/// page as zeroes, and finishes earlier; it
/// was recorded at commit 7c33cad. Applying fetched diffs from the frames
/// that carried them, instead of decoding each into a held copy, left
/// every row of both tables as it was. A third re-pin moved four rows of
/// each table on purpose, when a collect began serving the requests
/// gathered with its response before handing it back: the `(13, 0, 0,
/// 50)`, `4242` and `31 337` rows finish earlier (lazy `(13, 0, 0, 50)`
/// 5 396 209 → 5 235 598 ns), the `(7, 50, 0, 0)` rows moved only their
/// digests, and the other four rows did not move. The second table alone
/// was re-pinned once more, every row, when the default profile began
/// mapping a page no write notice names as zeroes instead of fetching it
/// from its manager (fault-free row 3 154 188 → 3 016 201 ns on node 0),
/// and again when it stopped asking the manager for a named page too
/// (→ 2 798 320 ns; the `(42, 79, 59, 59)` row alone finished later,
/// 5 651 225 → 6 146 879 ns, its drops landing on other datagrams); the
/// first, `Profile::Spec`, reproduced byte for byte each time. Both
/// tables' seven lossy rows moved once more on purpose, when a `Gone`
/// became a request its parent answers: node 0 leaves 8 029 ns later
/// (it answers each leaf) and each leaf leaves on the answer, after node
/// 0, instead of at its send (lazy `(7, 50, 0, 0)` 4 732 587 → 4 740 616
/// ns on node 0, 4 688 375 → 4 757 817 ns on node 1); on the default
/// `(987 654, 60, 5, 0)` row node 1's answer is dropped and it leaves a
/// quiet period after its `Gone` (4 396 576 → 5 996 576 ns). The
/// fault-free row did not move. The second table alone was re-pinned once
/// more, every row, when a tuned interval record began carrying its `Σvc`
/// instead of its vector clock (fault-free row 2 798 320 → 2 796 122 ns on
/// node 0); the first, `Profile::Spec`, reproduced byte for byte.
#[test]
fn lockstep_schedule_matches_the_recorded_serial_schedule() {
    let serial = TmkConfig {
        profile: Profile::Spec,
        ..TmkConfig::default()
    };
    #[rustfmt::skip]
    let lazy: [Golden; 8] = [
        (1,        0,  0,  0, [3_254_188, 3_272_438, 3_279_457], 0x8857_c648_5b36_7c85),
        (7,       50,  0,  0, [4_740_616, 4_757_817, 4_765_825], 0x0eae_fbfc_69a8_1a38),
        (11,       0, 50,  0, [3_339_624, 3_356_825, 3_364_833], 0x341f_57e7_2c87_35bc),
        (13,       0,  0, 50, [5_243_627, 5_260_828, 5_268_836], 0xa70e_fe43_0137_1e6b),
        (42,      79, 59, 59, [6_837_189, 6_846_382, 6_854_390], 0x8c59_070f_58f9_ea6a),
        (4242,    20, 10, 30, [4_252_609, 4_269_810, 4_277_818], 0x5025_d430_5669_f692),
        (987_654, 60,  5,  0, [5_281_295, 5_298_496, 5_306_504], 0x6ab2_6e5d_e4df_53c1),
        (31_337,  10, 40, 20, [3_100_599, 3_117_800, 3_125_808], 0x05e6_1a5f_d77c_7723),
    ];
    matches_goldens(&serial, &lazy);
    #[rustfmt::skip]
    let default: [Golden; 8] = [
        (1,        0,  0,  0, [2_796_122, 2_814_372, 2_821_391], 0xbd48_fdd1_6cbc_d440),
        (7,       50,  0,  0, [4_266_742, 4_283_943, 4_291_951], 0x51ad_a3cb_af7f_bb1b),
        (11,       0, 50,  0, [2_875_023, 2_892_224, 2_900_232], 0x6902_959b_c6dd_65e2),
        (13,       0,  0, 50, [4_870_783, 4_887_984, 4_895_992], 0x8aba_8216_e80a_609b),
        (42,      79, 59, 59, [6_153_363, 6_170_564, 6_178_572], 0x44cd_3226_531f_4708),
        (4242,    20, 10, 30, [3_887_377, 3_904_578, 3_912_586], 0x9627_5f28_6adc_f67e),
        (987_654, 60,  5,  0, [4_446_783, 5_994_542, 4_471_992], 0x5eb3_a21e_4b52_c2e3),
        (31_337,  10, 40, 20, [2_761_387, 2_778_588, 2_786_596], 0xca6a_5de1_c3ba_32d4),
    ];
    matches_goldens(&TmkConfig::default(), &default);
}

/// `(fault seed, drop ‰, dup ‰, reorder ‰)`, the three nodes' finish times
/// in ns and the digest of their counters and memory.
type Golden = (u64, u32, u32, u32, [u64; 3], u64);

/// Run `workload` on three UDP/GM nodes under `cfg` at every golden's
/// fault plan, and hold its finish times and digest to the row.
fn matches_goldens(cfg: &TmkConfig, goldens: &[Golden]) {
    for &(seed, drop_pm, dup_pm, reorder_pm, finish, digest) in goldens {
        let mut p = SimParams::paper_testbed();
        p.faults = plan_pm(seed, drop_pm, dup_pm, reorder_pm);
        let out = run_udp_dsm(3, Arc::new(p), cfg.clone(), workload);
        let plan = (seed, drop_pm, dup_pm, reorder_pm);
        let (got, h) = pinned(&fingerprint(&out));
        assert_eq!(
            got, finish,
            "{cfg:?}, plan {plan:?}: finish times left the recorded schedule"
        );
        assert_eq!(
            h, digest,
            "{cfg:?}, plan {plan:?}: counters or memory left the recorded schedule"
        );
    }
}
