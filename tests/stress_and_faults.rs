//! Stress and failure-path integration tests: big fragmented messages,
//! lock storms, GM's buffer-exhaustion failure mode, UDP loss, pinned
//! memory budgets, and randomized (proptest) lock/data schedules.

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_gm::{gm_cluster, gm_size, DmaPool, GmError, GmNode};
use tm_sim::clock::shared_clock;
use tm_sim::{Ns, SimParams};
use tmk::memsub::run_mem_dsm;
use tmk::TmkConfig;

fn params() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

/// A single write interval touching hundreds of pages: the barrier
/// release's interval records must survive the 32 KB GM message limit
/// (run-length page encoding + substrate fragmentation).
#[test]
fn huge_write_notice_sets_cross_the_wire() {
    let pages = 1200usize;
    let out = run_fast_dsm(
        4,
        params(),
        FastConfig::paper(&params()),
        TmkConfig::default(),
        move |tmk| {
            let r = tmk.malloc(pages * 4096);
            tmk.barrier(0);
            // Every node writes a word on every page (multi-writer on all
            // of them) — worst-case notice volume.
            let me = tmk.proc_id();
            for p in 0..pages {
                tmk.set_u32(r, p * 1024 + me, (me + 1) as u32);
            }
            tmk.barrier(1);
            // Spot-check a few pages for all four writers.
            let mut ok = true;
            for p in [0usize, 577, pages - 1] {
                for w in 0..4 {
                    ok &= tmk.get_u32(r, p * 1024 + w) == (w + 1) as u32;
                }
            }
            ok
        },
    );
    assert!(out.iter().all(|o| o.result));
}

/// The same storm over the kernel path exercises UDP fragmentation.
#[test]
fn huge_write_notice_sets_over_udp() {
    let pages = 900usize;
    let out = run_udp_dsm(3, params(), TmkConfig::default(), move |tmk| {
        let r = tmk.malloc(pages * 4096);
        tmk.barrier(0);
        let me = tmk.proc_id();
        for p in 0..pages {
            tmk.set_u32(r, p * 1024 + me, (me + 7) as u32);
        }
        tmk.barrier(1);
        tmk.get_u32(r, 1024 + 1) // page 1, writer 1
    });
    assert!(out.iter().all(|o| o.result == 8));
}

/// Lock convoy: every node hammers the same lock; mutual exclusion and
/// fairness (eventual completion) hold, and the counter is exact.
#[test]
fn lock_convoy_is_exact() {
    let n = 8;
    let rounds = 30;
    let out = run_fast_dsm(
        n,
        params(),
        FastConfig::paper(&params()),
        TmkConfig::default(),
        move |tmk| {
            let r = tmk.malloc(4096);
            tmk.barrier(0);
            for _ in 0..rounds {
                tmk.acquire(3);
                let v = tmk.get_u32(r, 0);
                tmk.set_u32(r, 0, v + 1);
                tmk.release(3);
            }
            tmk.barrier(1);
            tmk.get_u32(r, 0)
        },
    );
    assert!(out.iter().all(|o| o.result == (n * rounds) as u32));
}

/// Raw GM failure path: flooding a receiver that never preposts enough
/// buffers disables the sending port; re-enabling recovers it. (The DSM
/// substrates provision so this never fires — this pins the model.)
#[test]
fn gm_buffer_exhaustion_disables_and_recovers() {
    let p = params();
    let (_f, board, mut nics) = gm_cluster(2, Arc::clone(&p));
    let n1 = nics.pop().unwrap();
    let n0 = nics.pop().unwrap();
    let mut a = GmNode::new(
        n0,
        shared_clock(),
        Arc::clone(&p),
        Arc::clone(&board),
        64 << 20,
    );
    let mut b = GmNode::new(n1, shared_clock(), p, board, 64 << 20);
    a.open_port(2, false).unwrap();
    b.open_port(2, false).unwrap();
    let mut pool = DmaPool::new(&mut a.book, 4, 64).unwrap();
    let buf = pool.take(&[9u8; 16]).unwrap();
    pool.recycle();
    // One buffer for two messages: the second waits, then times out.
    b.provide_receive_buffer(2, gm_size(16)).unwrap();
    a.send(2, 1, 2, &buf, 16).unwrap();
    a.send(2, 1, 2, &buf, 16).unwrap();
    // Receiver consumes one...
    b.clock().borrow_mut().advance(Ns::from_us(100));
    assert!(b.receive(2).unwrap().is_some());
    // ...and lets the other rot past the resend window.
    b.clock().borrow_mut().advance(Ns::from_secs(4));
    assert!(b.receive(2).unwrap().is_none());
    assert!(a.port_disabled(2));
    a.reenable_port(2).unwrap();
    b.provide_receive_buffer(2, gm_size(16)).unwrap();
    assert!(a.send(2, 1, 2, &buf, 16).is_ok());
}

/// UDP loss: with the fault plan dropping, datagrams vanish after the
/// sender pays its costs (socket-level check; DSM timing runs keep loss at
/// 0, as documented in DESIGN.md).
#[test]
fn udp_loss_model_loses() {
    let mut p = SimParams::paper_testbed();
    p.faults.drop_probability = 0.5;
    let p = Arc::new(p);
    let (_f, mut nics) = tm_myrinet::Fabric::new(2, Arc::clone(&p));
    let mut b = tm_udp::UdpStack::new(nics.pop().unwrap(), shared_clock(), Arc::clone(&p));
    let mut a = tm_udp::UdpStack::new(nics.pop().unwrap(), shared_clock(), p);
    a.bind(1, false);
    b.bind(1, false);
    for _ in 0..64 {
        a.sendto(1, 1, 1, b"maybe");
    }
    let drops = a.clock().borrow().stats.dgrams_dropped;
    assert!(drops > 5, "expected some losses, got {drops}");
    assert!(drops < 60, "expected some arrivals, got {drops} drops");
}

/// Pinned-memory budget: pinning fails loudly when the physical budget is
/// exhausted (the failure §2.2.2's sizing avoids).
#[test]
fn pin_budget_is_enforced_end_to_end() {
    let p = params();
    let (_f, board, mut nics) = gm_cluster(2, Arc::clone(&p));
    let nic = nics.remove(0);
    let mut gm = GmNode::new(nic, shared_clock(), p, board, 1 << 20); // 1 MB
    assert!(gm.book.pin(512 << 10).is_ok());
    assert!(gm.book.pin(768 << 10).is_err());
}

/// GM send with no tokens errors rather than blocking silently.
#[test]
fn gm_no_send_tokens_is_reported() {
    let p = params();
    let (_f, board, mut nics) = gm_cluster(2, Arc::clone(&p));
    let n1 = nics.pop().unwrap();
    let n0 = nics.pop().unwrap();
    let mut a = GmNode::new(
        n0,
        shared_clock(),
        Arc::clone(&p),
        Arc::clone(&board),
        64 << 20,
    );
    let _b = GmNode::new(n1, shared_clock(), p, board, 64 << 20);
    a.open_port(2, false).unwrap();
    let mut pool = DmaPool::new(&mut a.book, 4, 64).unwrap();
    let buf = pool.take(&[1u8]).unwrap();
    pool.recycle();
    // send_at with a fixed timestamp never reaps tokens (they return at
    // inject time, which equals `at`), so the 17th send must fail.
    let mut failures = 0;
    for _ in 0..32 {
        if matches!(
            a.send_at(2, 1, 2, &buf, 1, Ns(0)),
            Err(GmError::NoSendTokens)
        ) {
            failures += 1;
        }
    }
    assert!(failures > 0);
}

fn run_schedule(n: usize, ops: Vec<(u8, u8)>) -> bool {
    // ops: (node affinity, slot) — each op increments slot under a lock.
    let expected: Vec<u32> = {
        let mut v = vec![0u32; 8];
        for &(_, slot) in &ops {
            v[slot as usize % 8] += 1;
        }
        v
    };
    let ops = Arc::new(ops);
    let expected2 = expected.clone();
    let out = run_mem_dsm(
        n,
        params(),
        Ns::from_us(5),
        TmkConfig::default(),
        move |tmk| {
            let r = tmk.malloc(4096);
            tmk.barrier(0);
            let me = tmk.proc_id();
            for &(who, slot) in ops.iter() {
                if who as usize % n == me {
                    let s = slot as usize % 8;
                    tmk.acquire(s as u32 + 1);
                    let v = tmk.get_u32(r, s);
                    tmk.set_u32(r, s, v + 1);
                    tmk.release(s as u32 + 1);
                }
            }
            tmk.barrier(1);
            let mut got = Vec::new();
            for s in 0..8 {
                got.push(tmk.get_u32(r, s));
            }
            got
        },
    );
    out.iter().all(|o| o.result == expected2)
}

/// Default 12 cases keeps the suite fast; `PROPTEST_CASES` overrides for
/// deeper sweeps (the hard-coded `with_cases` would otherwise shadow it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Randomized lock/data schedules across 3 nodes and 8 locks keep
    /// per-slot counters exact — mutual exclusion plus LRC visibility
    /// under arbitrary interleavings.
    #[test]
    fn random_lock_schedules_are_linearizable(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40)
    ) {
        prop_assert!(run_schedule(3, ops));
    }

    /// The same on 5 nodes, where an acquire's page can owe three writers
    /// and the tuned profile takes it whole from the granter — including a
    /// granter inside its own fetch, whose copy is behind its clock.
    #[test]
    fn random_lock_schedules_on_five_nodes_are_linearizable(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..60)
    ) {
        prop_assert!(run_schedule(5, ops));
    }
}
