//! A tuned acquire takes a migratory page whole from its granter.
//!
//! When a lock grant invalidates a page the acquirer holds, the tuned
//! profile fetches what the page is owed at the grant. If the page owes
//! the granter, the grant's clock covers every seq the page owes and, on
//! every axis but the acquirer's, every seq it applied, and asking the
//! granter alone takes at least two requests out of the fetch's first
//! round, the acquirer asks the granter for the page whole instead of each
//! writer for its diffs. It keeps the page only if the page is behind its
//! own copy on no axis but its own; otherwise it asks the writers. Each
//! rule is checked on the in-memory substrate, FAST/GM and UDP/GM.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, FastSubstrate, UdpSubstrate};
use tm_sim::runner::NodeOutcome;
use tm_sim::{Ns, SimParams};
use tmk::memsub::{run_mem_dsm, MemSubstrate};
use tmk::{Substrate, Tmk, TmkConfig, TmkEvent};

/// Each node's result of a body on `n` nodes of each substrate, under the
/// default (tuned) configuration, with the substrate's name.
fn on_all<R: 'static>(
    n: usize,
    mem: fn(&mut Tmk<MemSubstrate>) -> R,
    fast: fn(&mut Tmk<FastSubstrate>) -> R,
    udp: fn(&mut Tmk<UdpSubstrate>) -> R,
) -> [(&'static str, Vec<R>); 3] {
    let params = || Arc::new(SimParams::paper_testbed());
    let results = |out: Vec<NodeOutcome<R>>| out.into_iter().map(|o| o.result).collect();
    let cfg = TmkConfig::default;
    let p = params();
    let fast_cfg = FastConfig::paper(&p);
    [
        (
            "memsub",
            results(run_mem_dsm(n, params(), Ns::from_us(5), cfg(), mem)),
        ),
        (
            "FAST/GM",
            results(run_fast_dsm(n, p, fast_cfg, cfg(), fast)),
        ),
        ("UDP/GM", results(run_udp_dsm(n, params(), cfg(), udp))),
    ]
}

/// What one acquire cost the node that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Acquire {
    /// Rpcs issued: the acquire's own, then its fetch's requests.
    rpcs: u64,
    pages_fetched: u64,
    diffs_applied: u64,
}

/// Acquire `lock` and count what the acquire cost.
fn counted_acquire<S: Substrate>(tmk: &mut Tmk<S>, lock: u32) -> Acquire {
    let rpcs = Rc::new(Cell::new(0));
    let sink = Rc::clone(&rpcs);
    tmk.set_event_hook(move |ev| {
        if let TmkEvent::RpcIssued { .. } = ev {
            sink.set(sink.get() + 1);
        }
    });
    let before = tmk.clock().borrow().stats.clone();
    tmk.acquire(lock);
    let after = tmk.clock().borrow().stats.clone();
    tmk.clear_event_hook();
    Acquire {
        rpcs: rpcs.get(),
        pages_fetched: after.pages_fetched - before.pages_fetched,
        diffs_applied: after.diffs_applied - before.diffs_applied,
    }
}

/// Compute until virtual time `t`.
fn until<S: Substrate>(tmk: &mut Tmk<S>, t: Ns) {
    let now = tmk.clock().borrow().now();
    tmk.compute_ns(t.saturating_sub(now));
}

const COUNTER_NODES: usize = 16;
const ROUNDS: usize = 3;

/// A migratory counter: in turn `t` node `t mod 16` takes lock 0 and
/// increments word 0, each turn starting 1 ms after the last, three
/// times round. Returns each of the node's turns: the acquire's cost and
/// the value it read.
fn counter<S: Substrate>(tmk: &mut Tmk<S>) -> (Vec<(usize, Acquire, u32)>, u32) {
    let region = tmk.malloc(4096);
    let me = tmk.proc_id();
    tmk.barrier(0);
    let start = tmk.clock().borrow().now();
    let mut turns = Vec::new();
    for t in (me..ROUNDS * COUNTER_NODES).step_by(COUNTER_NODES) {
        until(tmk, start + Ns::from_us(1000 * t as u64));
        let acquire = counted_acquire(tmk, 0);
        let v = tmk.get_u32(region, 0);
        tmk.set_u32(region, 0, v + 1);
        tmk.release(0);
        turns.push((t, acquire, v));
    }
    tmk.barrier(1);
    (turns, tmk.get_u32(region, 0))
}

#[test]
fn a_migratory_counter_asks_only_its_granter_after_the_first_round() {
    for (what, out) in on_all(COUNTER_NODES, counter, counter, counter) {
        for (node, (turns, last)) in out.iter().enumerate() {
            assert_eq!(*last, (ROUNDS * COUNTER_NODES) as u32, "{what} node {node}");
            for &(t, acquire, v) in turns {
                assert_eq!(v, t as u32, "{what}: turn {t} read {v}");
                if t < COUNTER_NODES {
                    continue;
                }
                // One request besides the acquire's, answered with a page
                // and no diff: the page, whole, from the granter — the only
                // node a fetch asks for a page, as no writer trimmed a diff.
                let whole = Acquire {
                    rpcs: 2,
                    pages_fetched: 1,
                    diffs_applied: 0,
                };
                assert_eq!(acquire, whole, "{what}: turn {t}");
            }
        }
    }
}

// The lagging granter: five nodes, a page `P` (page 1), lock `A` (managed
// by `G`) and lock `B` (managed by `X`).
const R: usize = 0;
const X: usize = 1;
const G: usize = 2;
const W1: usize = 3;
const W2: usize = 4;
const LOCK_A: u32 = 2;
const LOCK_B: u32 = 1;
const P: usize = 1024;
/// Pages `X` writes whole beside `P`, and `G` maps beforehand: `G`'s
/// fetch of them takes several rounds of `max_msg` answers.
const BULK: std::ops::Range<usize> = 8..40;

/// `W1`, `W2` and `G` write their words of `P` under `A`, in that order;
/// `X` writes its word of `P` and the bulk pages under `B`. `R` takes `B`
/// from `X`, reads `P`, and holds `B` until `G`'s acquire of it is queued;
/// its release grants `B` to `G`, and it asks `G` for `A` at once. `G`
/// answers while its own fetch of `P` and the bulk pages from `X` is in
/// flight: the grant's clock covers `X`'s write, `G`'s copy of `P` does not
/// hold it, and `R`'s does. Returns `R`'s acquire of `A` and every node's
/// view of `P`'s five words at the end.
fn lagging_granter<S: Substrate>(tmk: &mut Tmk<S>) -> (Option<Acquire>, Vec<u32>) {
    let region = tmk.malloc(BULK.end * 4096);
    let me = tmk.proc_id();
    tmk.barrier(0);
    let t0 = tmk.clock().borrow().now();
    let at = |us: u64| t0 + Ns::from_us(us);
    let mut taken = None;
    match me {
        W1 | W2 => {
            until(tmk, at(100 * (me - W1) as u64));
            tmk.acquire(LOCK_A);
            tmk.set_u32(region, P + me, 10 * me as u32 + 1);
            tmk.release(LOCK_A);
        }
        G => {
            for page in BULK {
                tmk.get_u32(region, page * 1024);
            }
            until(tmk, at(200));
            tmk.acquire(LOCK_A);
            tmk.set_u32(region, P + G, 21);
            tmk.release(LOCK_A);
            until(tmk, at(1500));
            tmk.acquire(LOCK_B);
            tmk.release(LOCK_B);
        }
        X => {
            until(tmk, at(300));
            tmk.acquire(LOCK_B);
            tmk.set_u32(region, P + X, 11);
            for page in BULK {
                tmk.write_bytes(region, page * 4096, &[0xab; 4096]);
            }
            tmk.release(LOCK_B);
        }
        _ => {
            until(tmk, at(1000));
            tmk.acquire(LOCK_B);
            assert_eq!(tmk.get_u32(region, P + X), 11);
            until(tmk, at(2500));
            tmk.release(LOCK_B);
            taken = Some(counted_acquire(tmk, LOCK_A));
            tmk.release(LOCK_A);
        }
    }
    tmk.barrier(1);
    (taken, (0..5).map(|w| tmk.get_u32(region, P + w)).collect())
}

#[test]
fn a_page_from_a_granter_behind_the_acquirer_is_dropped() {
    for (what, out) in on_all(5, lagging_granter, lagging_granter, lagging_granter) {
        // The ask of `G` for `P` whole, dropped; then `G`, `W1` and `W2`
        // each asked for their diffs.
        let dropped = Acquire {
            rpcs: 1 + 1 + 3,
            pages_fetched: 0,
            diffs_applied: 3,
        };
        assert_eq!(out[R].0, Some(dropped), "{what}");
        for (node, (_, words)) in out.iter().enumerate() {
            assert_eq!(words, &[0, 11, 21, 31, 41], "{what} node {node}");
        }
    }
}

/// Nodes 1 and 2 write their words of page 0 under lock 0, in turn, and
/// node 0, which holds the page, then takes the lock from node 2: its
/// page owes two writers. Returns node 0's acquire and the page's words.
fn two_writers<S: Substrate>(tmk: &mut Tmk<S>) -> (Option<Acquire>, Vec<u32>) {
    let region = tmk.malloc(4096);
    let me = tmk.proc_id();
    tmk.barrier(0);
    let t0 = tmk.clock().borrow().now();
    until(tmk, t0 + Ns::from_us(300 * ((me + 2) % 3) as u64));
    let taken = if me == 0 {
        let acquire = counted_acquire(tmk, 0);
        tmk.release(0);
        Some(acquire)
    } else {
        tmk.acquire(0);
        tmk.set_u32(region, me, me as u32);
        tmk.release(0);
        None
    };
    let words = (0..3).map(|w| tmk.get_u32(region, w)).collect();
    tmk.barrier(1);
    (taken, words)
}

#[test]
fn a_page_owing_two_writers_is_not_taken_whole() {
    for (what, out) in on_all(3, two_writers, two_writers, two_writers) {
        // One request to each writer: taking the page whole would take
        // one request out of the round, not two.
        let each = Acquire {
            rpcs: 1 + 2,
            pages_fetched: 0,
            diffs_applied: 2,
        };
        assert_eq!(out[0].0, Some(each), "{what}");
        assert_eq!(out[0].1, [0, 1, 2], "{what}");
    }
}
