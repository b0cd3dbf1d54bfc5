//! Combining-tree barrier correctness.
//!
//! There is one barrier algorithm — a gather-broadcast tree of some radix
//! — and the centralized manager is its radix n−1 case, byte for byte.
//! Five properties:
//!
//! 1. **Visibility** — after a barrier, every node observes every other
//!    node's pre-barrier writes, whatever the combining topology. Swept
//!    over radix {2, 4, 8, n-ary} and the centralized baseline on 4, 8
//!    and 16 nodes, the final shared-memory image must be byte-identical
//!    across *all* configurations: the barrier algorithm is a pure
//!    performance knob, never a semantic one.
//! 2. **Loss recovery** — tree arrivals and releases are ordinary
//!    requests/responses, so they must retransmit through the same
//!    reliability layer (rto + replay records) as everything else. A 10%
//!    drop plan over UDP must complete with memory identical to a clean
//!    run.
//! 3. **One tree, one vocabulary** — `Centralized` and
//!    `Tree { radix: n-1 }` are the same tree on the wire: every node's
//!    counters (bytes and time buckets included), finish time and memory
//!    are equal, on UDP/GM and FAST/GM.
//! 4. **Send before drain** — a childless node's arrival leaves before it
//!    looks at its serve queue, the order the paper's barrier client has
//!    and every golden prices.
//! 5. **It pays, the same every time** — E7's claims at the sizes a test
//!    affords: on FAST/GM the radix-8 tree beats the centralized barrier
//!    from 16 nodes on and grows sub-linearly, and at 128 nodes every rep
//!    prices the barrier alike on every node.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::runner::cluster_stats;
use tm_sim::{FaultPlan, NodeStats, Ns, SimParams};
use tmk::memsub::run_mem_dsm;
use tmk::{BarrierAlgo, Substrate, Tmk, TmkConfig, TmkEvent};

const ROUNDS: u32 = 3;

fn cfg(algo: BarrierAlgo) -> TmkConfig {
    TmkConfig {
        barrier_algo: algo,
        ..TmkConfig::default()
    }
}

/// Each node writes a distinctive word into its own page each round;
/// after every barrier it checks all peers' current-round writes, and at
/// the end returns the full memory image.
fn visibility_workload<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let n = tmk.nprocs();
    let me = tmk.proc_id();
    let r = tmk.malloc(n * 4096);
    tmk.barrier(0);
    for round in 1..=ROUNDS {
        // Pre-barrier: my writes for this round, in my page.
        for w in 0..8usize {
            tmk.set_u32(r, me * 1024 + w, (me as u32) << 24 | round << 16 | w as u32);
        }
        tmk.barrier(round);
        // Post-barrier: every peer's writes for this round must be
        // visible, no matter where each of us sat in the tree.
        for peer in 0..n {
            for w in 0..8usize {
                let got = tmk.get_u32(r, peer * 1024 + w);
                let want = (peer as u32) << 24 | round << 16 | w as u32;
                assert_eq!(
                    got, want,
                    "node {me} missed node {peer}'s round-{round} write {w}"
                );
            }
        }
        tmk.barrier(ROUNDS + round);
    }
    let mut snap = vec![0u8; n * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(2 * ROUNDS + 1);
    snap
}

/// Run the visibility workload on the in-memory substrate and return the
/// (consensus) memory image.
fn mem_image(n: usize, algo: BarrierAlgo) -> Vec<u8> {
    let params = Arc::new(SimParams::paper_testbed());
    let out = run_mem_dsm(n, params, Ns(1_000), cfg(algo), visibility_workload);
    for o in &out {
        assert_eq!(
            o.result, out[0].result,
            "{algo:?}/{n}: node {} image diverges from node 0",
            o.id
        );
    }
    out[0].result.clone()
}

#[test]
fn barrier_visibility_is_radix_independent() {
    for n in [4usize, 8, 16] {
        let algos = [
            BarrierAlgo::Centralized,
            BarrierAlgo::Tree { radix: 2 },
            BarrierAlgo::Tree { radix: 4 },
            BarrierAlgo::Tree { radix: 8 },
            // n-ary: the whole cluster as the root's children — the
            // centralized barrier under its tree name.
            BarrierAlgo::Tree {
                radix: (n - 1) as u16,
            },
        ];
        let reference = mem_image(n, algos[0]);
        for algo in &algos[1..] {
            let image = mem_image(n, *algo);
            assert_eq!(
                image, reference,
                "{algo:?} on {n} nodes changed the memory image"
            );
        }
    }
}

/// Run the visibility workload over UDP/GM under `plan`; returns the
/// (consensus) memory image and the cluster's counters.
fn udp_run(n: usize, algo: BarrierAlgo, plan: FaultPlan) -> (Vec<u8>, NodeStats) {
    let mut p = SimParams::paper_testbed();
    p.faults = plan;
    let out = run_udp_dsm(n, Arc::new(p), cfg(algo), visibility_workload);
    for o in &out {
        assert_eq!(
            o.result, out[0].result,
            "{algo:?}/{n}: node {} image diverges",
            o.id
        );
    }
    (out[0].result.clone(), cluster_stats(&out))
}

#[test]
fn tree_barrier_survives_ten_percent_loss() {
    let run = |plan| udp_run(8, BarrierAlgo::Tree { radix: 2 }, plan);
    let (clean, s) = run(FaultPlan::default());
    assert!(
        !s.any_faults(),
        "clean run fired reliability machinery: {s:?}"
    );
    let (lossy, s) = run(FaultPlan {
        drop_probability: 0.10,
        ..FaultPlan::default()
    });
    assert!(s.dgrams_dropped > 0, "plan injected no drops: {s:?}");
    assert!(
        s.retransmits > 0,
        "tree arrivals/releases recovered without retransmits? {s:?}"
    );
    assert_eq!(lossy, clean, "loss recovery corrupted shared memory");
}

/// Every node's finish time, stat counters (`Debug` text: bytes and every
/// time bucket included) and memory image after the visibility workload
/// on `n` nodes under `algo`, over FAST/GM or UDP/GM.
fn outcome(n: usize, algo: BarrierAlgo, fast: bool) -> Vec<(u64, String, Vec<u8>)> {
    let params = Arc::new(SimParams::paper_testbed());
    let out = if fast {
        let fc = FastConfig::paper(&params);
        run_fast_dsm(n, params, fc, cfg(algo), visibility_workload)
    } else {
        run_udp_dsm(n, params, cfg(algo), visibility_workload)
    };
    out.iter()
        .map(|o| (o.finish.0, format!("{:?}", o.stats), o.result.clone()))
        .collect()
}

/// The centralized manager is the tree of radix n−1, byte for byte: every
/// node sends the same bytes, serves the same requests, spends its time
/// the same way and ends with the same memory.
#[test]
fn centralized_is_the_radix_n_minus_one_tree() {
    let runs = [(4usize, false), (8, false), (16, false), (16, true)];
    for (n, fast) in runs {
        let nary = BarrierAlgo::Tree {
            radix: (n - 1) as u16,
        };
        let c = outcome(n, BarrierAlgo::Centralized, fast);
        let t = outcome(n, nary, fast);
        assert_eq!(c.len(), t.len());
        for (node, (c, t)) in c.iter().zip(&t).enumerate() {
            let at = format!("{n} nodes (fast: {fast}), node {node}, against {nary:?}");
            assert_eq!((c.0, &c.1), (t.0, &t.1), "{at}: finish and counters");
            assert!(c.2 == t.2, "{at}: memory image");
        }
    }
}

/// What node `LEAF` did, in order, in one [`in_flight`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// It issued an rpc (its page fetch, then its barrier arrival).
    Issued,
    /// It served `ASKER`'s lock request.
    Served,
    /// Its page fetch returned; the next thing it does is enter the barrier.
    Fetched,
}

const LEAF: usize = 5;
const ASKER: usize = 6;
/// The page `LEAF` faults in, and the node that manages it.
const PAGE: usize = 9;

/// 16 nodes, one barrier. `LEAF` — childless, like every node but the
/// root — page-faults (an rpc) and walks straight into the barrier;
/// `ASKER` computes for `delay`, then asks for a lock `LEAF` manages.
/// The faulted page's manager writes it before barrier 0, so a notice
/// names it and the first touch is a fetch. Returns `LEAF`'s steps.
fn in_flight(delay: Ns) -> Vec<Step> {
    let params = Arc::new(SimParams::paper_testbed());
    let out = run_udp_dsm(16, params, cfg(BarrierAlgo::Centralized), move |tmk| {
        let me = tmk.proc_id();
        let steps = Rc::new(RefCell::new(Vec::new()));
        let r = tmk.malloc(16 * 4096);
        if me == PAGE {
            tmk.set_u32(r, PAGE * 1024, 1);
        }
        tmk.barrier(0);
        if me == LEAF {
            let sink = Rc::clone(&steps);
            tmk.set_event_hook(move |ev| match *ev {
                TmkEvent::RpcIssued { .. } => sink.borrow_mut().push(Step::Issued),
                TmkEvent::RequestServed { from: ASKER, .. } => sink.borrow_mut().push(Step::Served),
                _ => {}
            });
            // First touch of a page homed and written elsewhere: one
            // blocking rpc.
            let _ = tmk.get_u32(r, PAGE * 1024);
            steps.borrow_mut().push(Step::Fetched);
        } else if me == ASKER {
            tmk.compute_ns(delay);
            tmk.acquire(LEAF as u32);
            tmk.release(LEAF as u32);
        }
        tmk.barrier(1);
        tmk.clear_event_hook();
        steps.take()
    });
    out[LEAF].result.clone()
}

/// A leaf's serve queue is empty at barrier entry: a request that landed
/// before the response of its last rpc was served inside that collect (the
/// collect looks for its response only after it drains), and one that lands
/// later is served inside the arrival rpc, after the send. So no request
/// the leaf gathered before the barrier is left to delay its arrival, and
/// none that comes after is served ahead of it. Where the boundary lies is
/// the cost model's business, so the lock request is swept across the
/// fetch in 2 µs steps: early ones are served inside the fetch, late ones
/// inside the arrival rpc, and none in between.
#[test]
fn a_leaf_sends_its_arrival_before_it_drains_its_serve_queue() {
    use Step::*;
    let (mut inside_fetch, mut inside_arrival) = (0, 0);
    for us in (0..120).step_by(2) {
        let steps = in_flight(Ns::from_us(us));
        if steps == [Issued, Served, Fetched, Issued] {
            inside_fetch += 1;
        } else if steps == [Issued, Fetched, Issued, Served] {
            inside_arrival += 1;
        } else {
            panic!("lock request {us} us in: the leaf drained before it sent ({steps:?})");
        }
    }
    assert!(
        inside_fetch > 0 && inside_arrival > 0,
        "the sweep must cross the end of the fetch \
         ({inside_fetch} served inside it, {inside_arrival} after it)"
    );
}

/// Every node's price per barrier on `n` FAST/GM nodes under `algo`:
/// E7's barrier body, 60 barriers after a warmup one.
fn barrier_prices(n: usize, algo: BarrierAlgo) -> Vec<u64> {
    const ROUNDS: u64 = 60;
    let params = Arc::new(SimParams::paper_testbed());
    let fc = FastConfig::paper(&params);
    let out = run_fast_dsm(n, params, fc, cfg(algo), |tmk| {
        tmk.barrier(0);
        let t0 = tmk.clock().borrow().now();
        for k in 1..=ROUNDS {
            tmk.barrier(k as u32);
        }
        (tmk.clock().borrow().now() - t0).0 / ROUNDS
    });
    out.iter().map(|o| o.result).collect()
}

/// E7's barrier block, held to what it claims without its 64- and
/// 128-node centralized runs. 128 nodes is the scale at which the
/// scheduler's liveness bugs showed; there, three reps must price the
/// barrier identically on every node.
#[test]
fn the_tree_barrier_pays_off_and_every_rep_prices_it_alike() {
    let tree = BarrierAlgo::Tree { radix: 8 };
    let mean = |n: usize, algo| barrier_prices(n, algo).iter().sum::<u64>() / n as u64;
    let [t8, t16, t32] = [8, 16, 32].map(|n| mean(n, tree));
    for (n, t) in [(16, t16), (32, t32)] {
        let c = mean(n, BarrierAlgo::Centralized);
        assert!(
            t < c,
            "tree barrier must beat centralized at {n} nodes ({t} vs {c} ns)"
        );
    }
    assert!(
        t32 < 2 * t8,
        "tree barrier 32 nodes ({t32} ns) must stay under 2x its 8-node cost ({t8} ns)"
    );
    let reps: Vec<Vec<u64>> = (0..3).map(|_| barrier_prices(128, tree)).collect();
    assert!(
        reps.windows(2).all(|w| w[0] == w[1]),
        "reps at 128 nodes priced the barrier differently"
    );
}
