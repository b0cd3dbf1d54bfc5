//! Lock grant-forwarding chain tests over the in-memory substrate — no
//! fabric, no threads. Each test drives the `serve` dispatcher by hand
//! with wire-encoded requests, so the manager → owner → requester chain
//! and its replay records under retransmission are exercised at the layer
//! seam, deterministically.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use tm_sim::clock::shared_clock;
use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Wait};

use crate::memsub::{mem_cluster, MemSubstrate};
use crate::protocol::{Request, Response};
use crate::substrate::{Chan, IncomingMsg, Substrate};
use crate::vc::VectorClock;
use crate::{Tmk, TmkConfig, TmkEvent};

/// [`MemSubstrate`] plus a fixed retransmission timeout: flips the rpc
/// layer onto its lossy path (replay records kept) without any loss
/// model underneath — the tests inject duplicates by calling `serve`
/// twice with the same bytes, and losses by not sending. The list holds
/// when this node sent each of its `Gone` frames.
struct LossyMem(MemSubstrate, Vec<Ns>);

/// Retransmission timeout of [`LossyMem`].
const RTO: Ns = Ns::from_us(500);

impl Substrate for LossyMem {
    fn my_id(&self) -> usize {
        self.0.my_id()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn clock(&self) -> &SharedClock {
        self.0.clock()
    }
    fn params(&self) -> &Arc<SimParams> {
        self.0.params()
    }
    fn scheme(&self) -> AsyncScheme {
        self.0.scheme()
    }
    fn send(&mut self, to: usize, chan: Chan, data: &[u8], at: Option<Ns>) {
        if chan == Chan::Request && Request::decode(data).is_some_and(|(_, r)| r == Request::Gone) {
            let now = self.0.clock().borrow().now();
            self.1.push(now);
        }
        self.0.send(to, chan, data, at)
    }
    fn response_cost(&self, len: usize) -> Ns {
        self.0.response_cost(len)
    }
    fn poll(&mut self, chans: &[Chan]) -> Option<IncomingMsg> {
        self.0.poll(chans)
    }
    fn wait(&mut self, deadline: Option<Ns>) -> Wait<IncomingMsg> {
        self.0.wait(deadline)
    }
    fn retransmit_timeout(&self) -> Option<Ns> {
        Some(RTO)
    }
}

/// Three-node cluster: node 0 is lock 0's manager, node 1 the (eventual)
/// owner, node 2 the requester — the requester side needs no runtime, a
/// bare substrate receives its grants.
fn chain() -> (Tmk<LossyMem>, Tmk<LossyMem>, MemSubstrate) {
    let params = Arc::new(SimParams::paper_testbed());
    let mut eps = mem_cluster(3);
    let e2 = eps.pop().unwrap();
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let t0 = Tmk::new(LossyMem(mk(e0), Vec::new()), TmkConfig::default());
    let t1 = Tmk::new(LossyMem(mk(e1), Vec::new()), TmkConfig::default());
    let s2 = mk(e2);
    (t0, t1, s2)
}

fn encode(req: Request, rid: u32) -> Vec<u8> {
    let mut w = crate::wire::WireWriter::pooled(64);
    req.encode_into(rid, &mut w);
    let bytes = w.as_slice().to_vec();
    w.recycle();
    bytes
}

fn acquire_bytes(rid: u32) -> Vec<u8> {
    encode(
        Request::Acquire {
            lock: 0,
            vc: VectorClock::new(3),
        },
        rid,
    )
}

/// Run the real manager-side handoff that makes node 1 lock 0's owner,
/// mirroring the grant in node 1's local token state.
fn seed_owner(t0: &mut Tmk<LossyMem>, t1: &mut Tmk<LossyMem>) {
    t0.serve(1, &acquire_bytes(1), Ns(0));
    let grant = t1.sub.next_incoming();
    assert_eq!(grant.chan, Chan::Response);
    t1.ensure_lock(0);
    t1.locks[0].have_token = true;
}

#[test]
fn grant_forwarding_chain_over_memsub() {
    let (mut t0, mut t1, mut s2) = chain();
    let granted = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&granted);
    t1.set_event_hook(move |e| {
        if let TmkEvent::LockGranted { lock, to } = *e {
            sink.borrow_mut().push((lock, to));
        }
    });
    seed_owner(&mut t0, &mut t1);
    // Node 2's acquire reaches the manager, which no longer holds the
    // token: it must forward to node 1, not answer.
    let rid2 = 77;
    t0.serve(2, &acquire_bytes(rid2), Ns(100));
    let fwd = t1.sub.next_incoming();
    assert_eq!(fwd.chan, Chan::Request);
    assert_eq!(fwd.from, 0);
    t1.serve(fwd.from, &fwd.data, fwd.arrival);
    // The owner's grant goes straight to node 2, correlated with node 2's
    // *original* rid — the forwarding hop is invisible to the requester.
    let msg = s2.next_incoming();
    assert_eq!(msg.chan, Chan::Response);
    assert_eq!(msg.from, 1);
    let (rid, resp) = Response::decode(&msg.data).unwrap();
    assert_eq!(rid, rid2);
    assert!(matches!(resp, Response::Grant { lock: 0, .. }));
    assert_eq!(granted.borrow().as_slice(), &[(0u32, 2u16)]);
    assert!(!t1.locks[0].have_token, "token must migrate with the grant");
}

#[test]
fn retransmitted_acquire_replays_forward_and_grant() {
    let (mut t0, mut t1, mut s2) = chain();
    seed_owner(&mut t0, &mut t1);
    let rid2 = 9;
    let acq = acquire_bytes(rid2);
    t0.serve(2, &acq, Ns(100));
    let fwd1 = t1.sub.next_incoming();
    // Node 2 retransmits (its grant hasn't arrived): the manager must
    // re-forward the identical bytes, not re-run the handler — a re-run
    // would re-read the (now stale) owner hint.
    t0.serve(2, &acq, Ns(700));
    let fwd2 = t1.sub.next_incoming();
    assert_eq!(
        fwd1.data, fwd2.data,
        "replayed forward must be byte-identical"
    );
    assert_eq!(t0.clock().borrow().stats.dup_requests_suppressed, 1);
    // The owner grants on the first copy and replays the recorded grant
    // on the duplicate, found in the requester's slot.
    t1.serve(fwd1.from, &fwd1.data, fwd1.arrival);
    t1.serve(fwd2.from, &fwd2.data, fwd2.arrival);
    assert_eq!(t1.clock().borrow().stats.dup_requests_suppressed, 1);
    let g1 = s2.next_incoming();
    let g2 = s2.next_incoming();
    assert_eq!(g1.data, g2.data, "replayed grant must be byte-identical");
    let (rid, resp) = Response::decode(&g1.data).unwrap();
    assert_eq!(rid, rid2);
    assert!(matches!(resp, Response::Grant { lock: 0, .. }));
}

#[test]
fn queued_forward_grants_at_release_then_replays() {
    let (_t0, mut t1, mut s2) = chain();
    t1.ensure_lock(0);
    t1.locks[0].have_token = true;
    t1.locks[0].busy = true;
    let fwd = encode(
        Request::AcquireFwd {
            lock: 0,
            requester: 2,
            rid: 31,
            vc: VectorClock::new(3),
        },
        900,
    );
    // Owner is busy: the forward parks in the wait queue, Pending in the
    // requester's slot.
    t1.serve(0, &fwd, Ns(10));
    assert_eq!(t1.locks[0].waiting.len(), 1);
    // A retransmitted forward meanwhile is swallowed, not double-queued.
    t1.serve(0, &fwd, Ns(600));
    assert_eq!(t1.locks[0].waiting.len(), 1);
    assert_eq!(t1.clock().borrow().stats.dup_requests_suppressed, 1);
    // Release hands the token over; the grant answers the requester's
    // original rid...
    t1.release(0);
    let g1 = s2.next_incoming();
    let (rid, resp) = Response::decode(&g1.data).unwrap();
    assert_eq!(rid, 31);
    assert!(matches!(resp, Response::Grant { lock: 0, .. }));
    assert!(!t1.locks[0].have_token, "token must migrate with the grant");
    // ...and upgrades the Pending record in place, so a late duplicate of
    // the forward replays the grant instead of re-queueing.
    t1.serve(0, &fwd, Ns(2000));
    let g2 = s2.next_incoming();
    assert_eq!(
        g1.data, g2.data,
        "post-release duplicate must replay the grant"
    );
    assert!(t1.locks[0].waiting.is_empty());
}

/// A forward and a grant are obligations; the page fetches around them are
/// not. Hundreds of fetches, served between an acquire and its
/// retransmission, displace neither the manager's forward (its loss
/// re-ran the acquire against an owner hint naming the requester itself)
/// nor the owner's grant (its loss queued a waiter twice).
#[test]
fn data_traffic_displaces_neither_a_forward_nor_a_grant() {
    let (mut t0, mut t1, mut s2) = chain();
    seed_owner(&mut t0, &mut t1);
    let fetch_storm = |t: &mut Tmk<LossyMem>, s2: &mut MemSubstrate| {
        // Each node serves the page it is home to.
        let page = t.me as u32;
        for i in 0..256 {
            t.serve(2, &encode(Request::Page { page }, 1000 + i), Ns(1000));
            assert_eq!(s2.next_incoming().chan, Chan::Response);
        }
    };
    let acq = acquire_bytes(9);
    t0.serve(2, &acq, Ns(100));
    let fwd1 = t1.sub.next_incoming();
    fetch_storm(&mut t0, &mut s2);
    t0.serve(2, &acq, Ns(2000));
    let fwd2 = t1.sub.next_incoming();
    assert_eq!(fwd1.data, fwd2.data, "the forward must replay, not re-run");
    assert_eq!(t0.locks[0].owner_hint, 2);

    t1.serve(fwd1.from, &fwd1.data, fwd1.arrival);
    let g1 = s2.next_incoming();
    fetch_storm(&mut t1, &mut s2);
    t1.serve(fwd2.from, &fwd2.data, fwd2.arrival);
    let g2 = s2.next_incoming();
    assert_eq!(g1.data, g2.data, "the grant must replay, not re-queue");
    assert!(t1.locks[0].waiting.is_empty(), "phantom waiter");
}

/// A fetch's record is its requester's slot: a retransmitted fetch gets
/// the answer already sent, byte for byte, without re-running the
/// handler; a late copy of a fetch the requester has since followed with
/// another is swallowed, and the next answer out is the next fetch's.
#[test]
fn a_duplicate_fetch_replays_and_a_late_one_is_swallowed() {
    let (mut t0, _t1, mut s2) = chain();
    let page = |rid| encode(Request::Page { page: 0 }, rid);
    let answered = |s2: &mut MemSubstrate| {
        let msg = s2.next_incoming();
        assert_eq!(msg.chan, Chan::Response);
        (Response::decode(&msg.data).expect("an answer").0, msg.data)
    };
    t0.serve(2, &page(5), Ns(100));
    let (rid, first) = answered(&mut s2);
    assert_eq!(rid, 5);
    t0.serve(2, &page(5), Ns(700));
    assert_eq!(
        answered(&mut s2).1,
        first,
        "the duplicate must replay the answer"
    );
    t0.serve(2, &page(6), Ns(900));
    assert_eq!(answered(&mut s2).0, 6);
    t0.serve(2, &page(5), Ns(1200));
    t0.serve(2, &page(7), Ns(1500));
    assert_eq!(
        answered(&mut s2).0,
        7,
        "the late copy of rid 5 must be swallowed"
    );
    assert_eq!(t0.clock().borrow().stats.dup_requests_suppressed, 2);
}

/// A second fetch to a peer while one is open would have the peer's fetch
/// slot swallow one of the two: a debug build refuses to issue it. Fetches
/// to two peers at once are a coalesced fault round, and fine.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "a second fetch to 1 while one is outstanding")]
fn a_second_open_fetch_to_one_peer_is_refused() {
    let (mut t0, _t1, _s2) = chain();
    t0.rpc_issue(1, Request::Page { page: 1 });
    t0.rpc_issue(2, Request::Page { page: 2 });
    t0.rpc_issue(
        1,
        Request::Diff {
            page: 1,
            lo: 1,
            hi: 1,
        },
    );
}

/// Node 0 of a two-node memsub cluster, and node 1's bare substrate, once
/// node 0 has collected a page fetch whose answer landed in the same
/// instant (50 µs) as node 1's `request` (rid 100).
fn collect_beside(request: Request) -> (Tmk<MemSubstrate>, MemSubstrate) {
    let params = Arc::new(SimParams::paper_testbed());
    let mut eps = mem_cluster(2);
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let mut t0 = Tmk::new(mk(e0), TmkConfig::default());
    let mut s1 = mk(e1);

    let rid = t0.rpc_issue(1, Request::Page { page: 0 });
    let _ = s1.next_incoming();
    let at = Ns::from_us(50);
    s1.send(0, Chan::Request, &encode(request, 100), Some(at));
    let answer = Response::ZeroPage {
        page: 0,
        applied: vec![0, 0],
    };
    s1.send_response_at(0, &answer.encode(rid), at);
    assert_eq!(
        Response::decode(&t0.rpc_collect(rid).1),
        Some((rid, answer))
    );
    (t0, s1)
}

/// The gather-burst deadlock, through the engine's one blocking step: a
/// barrier arrival that lands in the same instant as the response being
/// collected is gathered into the serve queue by that collect and served
/// before the collect returns. The manager's arrival wait then finds it
/// counted and does not block: its sender is blocked on the release and
/// will send nothing more. A decoy request far in the virtual future turns
/// a regression into a failure instead of a hang: a manager that blocked
/// would wake on the decoy, a second later.
#[test]
fn request_gathered_during_a_collect_is_served_before_the_next_block() {
    let (mut t0, mut s1) = collect_beside(Request::BarrierArrive {
        barrier: 5,
        floor: None,
        vc: VectorClock::new(2),
        records: Vec::new(),
    });
    assert!(
        t0.serve_q.is_empty(),
        "a request left queued by the collect"
    );
    assert!(
        matches!(t0.barrier.clients[..], [Some((100, None, _))]),
        "arrival gathered with the response, not served inside the collect"
    );
    let decoy = encode(Request::Page { page: 0 }, 101);
    s1.send(0, Chan::Request, &decoy, Some(Ns::from_secs(1)));

    t0.barrier(5);
    assert!(
        t0.clock().borrow().now() < Ns::from_secs(1),
        "manager blocked with the arrival still in its serve queue"
    );
    let release = s1.next_incoming();
    let (rid, resp) = Response::decode(&release.data).unwrap();
    assert_eq!(rid, 100);
    assert!(matches!(resp, Response::BarrierRelease { .. }));
}

/// The serve queue is empty whenever the application runs: a peer's
/// request gathered in the same burst as the response being collected is
/// answered before the collect returns, not held through the computation
/// that follows it. A request left queued would wait for the node's next
/// block, a second later.
#[test]
fn a_request_gathered_with_a_response_is_answered_before_the_next_computation_ends() {
    let (mut t0, mut s1) = collect_beside(Request::Page { page: 0 });
    let end = t0.clock().borrow().now() + Ns::from_secs(1);
    t0.compute_ns(Ns::from_secs(1));
    let Wait::Got(reply) = s1.wait(Some(end)) else {
        panic!("the gathered request was not answered before the computation ended");
    };
    assert_eq!(Response::decode(&reply.data).map(|(rid, _)| rid), Some(100));
}

/// A `Diffs` response that decodes cleanly but whose diff reaches past
/// the page goes down the malformed-message path — counted, dropped,
/// the slot left waiting — instead of reaching an index panic in `apply`.
/// The well-formed retransmission behind it completes the rpc.
#[test]
fn well_framed_diff_past_the_page_is_dropped_as_malformed() {
    let params = Arc::new(SimParams::paper_testbed());
    let page_size = params.dsm.page_size;
    let mut eps = mem_cluster(2);
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let mut t0 = Tmk::new(LossyMem(mk(e0), Vec::new()), TmkConfig::default());
    let mut s1 = mk(e1);

    let (page, lo, hi) = (0, 1, 1);
    let rid = t0.rpc_issue(1, Request::Diff { page, lo, hi });
    let _ = s1.next_incoming();
    // A `Diffs` answer carrying one diff with one 8-byte run at `off`.
    let diffs_with_run_at = |off: usize| {
        let mut w = crate::wire::WireWriter::new();
        w.u32(rid).u8(1).u32(0).u32(1).u16(1).u32(1);
        w.u16(1).u16(off as u16).u16(8).raw(&[0xEE; 8]);
        w.finish()
    };
    let bad = diffs_with_run_at(page_size - 4);
    assert!(Response::decode(&bad).is_some(), "framing is fine");
    assert_eq!(Response::check(&bad, 2, page_size + 4), Some(rid));
    assert_eq!(Response::check(&bad, 2, page_size), None);
    s1.send_response_at(0, &bad, Ns::from_us(10));
    s1.send_response_at(0, &diffs_with_run_at(page_size - 8), Ns::from_us(20));

    match Response::decode(&t0.rpc_collect(rid).1) {
        Some((_, Response::Diffs { diffs, .. })) => assert_eq!(diffs.extent(), page_size),
        other => panic!("expected Diffs, got {other:?}"),
    }
    assert_eq!(t0.clock().borrow().stats.malformed_dropped, 1);
}

/// A `Diffs` response whose diff image is cut short, or whose runs are not
/// the canonical form an encoder writes (off a word, or out of order),
/// goes down the malformed-message path too: counted, dropped, the slot
/// left waiting for the well-formed retransmission behind them.
#[test]
fn a_truncated_or_non_canonical_diff_image_is_dropped_as_malformed() {
    let params = Arc::new(SimParams::paper_testbed());
    let page_size = params.dsm.page_size;
    let mut eps = mem_cluster(2);
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let mut t0 = Tmk::new(LossyMem(mk(e0), Vec::new()), TmkConfig::default());
    let mut s1 = mk(e1);

    let rid = t0.rpc_issue(
        1,
        Request::Diff {
            page: 0,
            lo: 1,
            hi: 1,
        },
    );
    let _ = s1.next_incoming();
    // A `Diffs` answer carrying one diff with these `(off, payload)` runs.
    let diffs_with = |runs: &[(u16, &[u8])]| {
        let mut w = crate::wire::WireWriter::new();
        w.u32(rid).u8(1).u32(0).u32(1).u16(1).u32(1);
        w.u16(runs.len() as u16);
        for (off, data) in runs {
            w.u16(*off).u16(data.len() as u16).raw(data);
        }
        w.finish()
    };
    let good = diffs_with(&[(0, &[1; 4]), (16, &[2; 4])]);
    let off_a_word = diffs_with(&[(2, &[1; 4])]);
    let backwards = diffs_with(&[(16, &[2; 4]), (0, &[1; 4])]);
    let truncated = &good[..good.len() - 1];
    for bad in [&off_a_word[..], &backwards, truncated] {
        assert_eq!(Response::decode(bad), None);
        assert_eq!(Response::check(bad, 2, page_size), None);
    }
    for (at, frame) in [off_a_word.as_slice(), &backwards, truncated, &good]
        .into_iter()
        .enumerate()
    {
        s1.send_response_at(0, frame, Ns::from_us(10 * (at as u64 + 1)));
    }

    match Response::decode(&t0.rpc_collect(rid).1) {
        Some((_, Response::Diffs { diffs, .. })) => assert_eq!(diffs.len(), 1),
        other => panic!("expected Diffs, got {other:?}"),
    }
    assert_eq!(t0.clock().borrow().stats.malformed_dropped, 3);
}

/// A `FullPage` that decodes cleanly but carries one applied seq on a
/// 2-node cluster is not a page of this cluster: it goes down the
/// malformed-message path instead of reaching the page table's seq
/// column. The well-formed retransmission behind it completes the rpc.
#[test]
fn full_page_of_the_wrong_shape_is_dropped_as_malformed() {
    let params = Arc::new(SimParams::paper_testbed());
    let page_size = params.dsm.page_size;
    let mut eps = mem_cluster(2);
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let mut t0 = Tmk::new(LossyMem(mk(e0), Vec::new()), TmkConfig::default());
    let mut s1 = mk(e1);

    let rid = t0.rpc_issue(1, Request::Page { page: 0 });
    let _ = s1.next_incoming();
    let full = |applied: Vec<u32>| Response::FullPage {
        page: 0,
        applied,
        data: vec![0xEE; page_size],
    };
    let bad = full(vec![3]).encode(rid);
    assert!(Response::decode(&bad).is_some(), "framing is fine");
    assert_eq!(Response::check(&bad, 2, page_size), None);
    s1.send_response_at(0, &bad, Ns::from_us(10));
    s1.send_response_at(0, &full(vec![3, 0]).encode(rid), Ns::from_us(20));

    assert_eq!(
        Response::decode(&t0.rpc_collect(rid).1),
        Some((rid, full(vec![3, 0])))
    );
    assert_eq!(t0.clock().borrow().stats.malformed_dropped, 1);
}

/// A reliable transport builds no reliability: no replay records, and an
/// issued rpc keeps no frame and arms no timer.
#[test]
fn a_reliable_transport_builds_no_resend_state() {
    let params = Arc::new(SimParams::paper_testbed());
    let mut eps = mem_cluster(2);
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let mut t0 = Tmk::new(mk(e0), TmkConfig::default());
    let _s1 = mk(e1);
    assert!(t0.rel.is_none());
    t0.rpc_issue(1, Request::Page { page: 0 });
    assert!(t0.outstanding[0].resend.is_none());
}

/// A lossy transport keeps one replay slot pair per node of the cluster.
#[test]
fn a_lossy_transport_keeps_a_replay_slot_per_node() {
    let (t0, _t1, _s2) = chain();
    let rel = t0
        .rel
        .as_ref()
        .expect("a retransmit timeout builds reliability");
    assert_eq!(rel.requesters(), t0.nprocs());
    assert_eq!(t0.nprocs(), 3);
}

/// A request whose answer is lost is resent by its timer alone: exactly
/// `RTO` after it was sent, then `2 · RTO` after that. A frame landing
/// from the same peer before the deadline — here the answer to another
/// request — resends nothing early, since no node sees a dropped datagram.
#[test]
fn an_unanswered_request_is_resent_rto_after_it_was_sent_and_not_earlier() {
    let params = Arc::new(SimParams::paper_testbed());
    let page_size = params.dsm.page_size;
    let send_cost = Ns(500);
    let mut eps = mem_cluster(2);
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, send_cost);
    let mut t0 = Tmk::new(LossyMem(mk(e0), Vec::new()), TmkConfig::default());
    let mut s1 = mk(e1);
    let fired = Rc::new(RefCell::new(Vec::new()));
    let (sink, clock) = (Rc::clone(&fired), Rc::clone(t0.clock()));
    t0.set_event_hook(move |e| {
        if let TmkEvent::RetransmitFired { rid, attempt } = *e {
            sink.borrow_mut().push((rid, attempt, clock.borrow().now()));
        }
    });

    // Lock 1's manager is node 1. Its grant is lost: node 1 sends none.
    let vc = VectorClock::new(2);
    let acquire = t0.rpc_issue(1, Request::Acquire { lock: 1, vc });
    let sent = t0.clock().borrow().now();
    let fetch = t0.rpc_issue(1, Request::Page { page: 0 });
    let first = s1.next_incoming();
    let _ = s1.next_incoming();
    let page = Response::FullPage {
        page: 0,
        applied: vec![0, 0],
        data: vec![0; page_size],
    };
    s1.send_response_at(0, &page.encode(fetch), sent + RTO / 2);
    let _ = t0.rpc_collect(fetch);
    assert_eq!(t0.clock().borrow().now(), sent + RTO / 2);
    assert!(fired.borrow().is_empty(), "resent early: {fired:?}");

    let step = |t: &mut Tmk<LossyMem>| t.wait_step(|_| None::<()>).is_continue();
    assert!(step(&mut t0));
    assert_eq!(fired.borrow().as_slice(), &[(acquire, 1, sent + RTO)]);
    let copy = s1.next_incoming();
    assert_eq!(copy.data, first.data, "the resend is the request's frame");
    assert_eq!(copy.arrival, sent + RTO + send_cost);
    assert!(step(&mut t0));
    let backoff = sent + RTO + send_cost + RTO * 2;
    assert_eq!(fired.borrow()[1], (acquire, 2, backoff));
    assert_eq!(t0.clock().borrow().stats.retransmits, 2);
}

// ----- how a node learns that a peer is gone --------------------------------

/// Node 0 of an `n`-node memsub cluster on the lossy path
/// and bare substrates for the others, which the test drives by hand.
fn root_and_peers(n: usize) -> (Tmk<LossyMem>, Vec<MemSubstrate>) {
    let params = Arc::new(SimParams::paper_testbed());
    let mut eps = mem_cluster(n).into_iter();
    let mut mk = || {
        let ep = eps.next().expect("one endpoint per node");
        MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500))
    };
    let t0 = Tmk::new(LossyMem(mk(), Vec::new()), TmkConfig::default());
    (t0, (1..n).map(|_| mk()).collect())
}

/// `peer`'s arrival at the exit barrier, at `at`.
fn exit_arrival(peer: &mut MemSubstrate, at: Ns) {
    let n = peer.nprocs();
    let arrive = Request::BarrierArrive {
        barrier: u32::MAX,
        floor: None,
        vc: VectorClock::new(n),
        records: Vec::new(),
    };
    peer.send(0, Chan::Request, &encode(arrive, 1), Some(at));
}

/// `peer` says `Gone` at `at`.
fn gone(peer: &mut MemSubstrate, at: Ns) {
    peer.send(0, Chan::Request, &encode(Request::Gone, 2), Some(at));
}

/// The quiet period that ends an exit's wait.
fn quiet() -> Ns {
    RTO * crate::tmk::reliable::QUIET_RTOS
}

/// On the lossy path every node but the root says `Gone` exactly once,
/// to its tree parent and after its own children have, and the parent
/// answers it: every parent leaves after each of its children said
/// `Gone`, and each child leaves on its answer, long before a resend —
/// on the 3-node centralized barrier and down a 7-node binary tree, where
/// an interior node's `Gone` stands for its whole subtree.
#[test]
fn every_child_says_gone_once_and_its_parent_leaves_after_it() {
    use crate::BarrierAlgo::{Centralized, Tree};
    for (n, algo) in [(3, Centralized), (7, Tree { radix: 2 })] {
        let params = Arc::new(SimParams::paper_testbed());
        let cfg = TmkConfig {
            barrier_algo: algo,
            ..TmkConfig::default()
        };
        let out = tm_sim::run_cluster_with(params, mem_cluster(n), move |env, ep| {
            let params = Arc::clone(&env.params);
            let sub = MemSubstrate::new(ep, env.clock.clone(), params, Ns::from_us(5), Ns(500));
            let mut tmk = Tmk::new(LossyMem(sub, Vec::new()), cfg.clone());
            tmk.barrier(0);
            tmk.acquire(0);
            tmk.release(0);
            tmk.exit();
            std::mem::take(&mut tmk.sub.1)
        });
        for o in &out[1..] {
            let (node, gones) = (o.id, &o.result);
            assert_eq!(gones.len(), 1, "{algo:?}: node {node} sent {gones:?}");
            // Both trees have radix 2 (the centralized one is radix n - 1).
            let parent = &out[(o.id - 1) / 2];
            assert!(
                parent.finish > gones[0],
                "{algo:?}: node {} left before its child {} said Gone",
                parent.id,
                o.id
            );
            assert!(
                o.finish > gones[0] && o.finish < gones[0] + RTO,
                "{algo:?}: node {node} left at {:?}, not on its answer",
                o.finish
            );
        }
        assert!(
            out[0].result.is_empty(),
            "{algo:?}: the root has no parent to tell"
        );
    }
}

/// A child's `Gone` is lost for good: the root re-sends that child its
/// release every `rto`, and its linger ends the quiet period after the
/// last frame it heard — the other child's `Gone`, which it answered — to
/// the nanosecond, not at the backoff ceiling.
#[test]
fn a_lost_gone_ends_the_linger_a_quiet_period_after_the_last_frame_heard() {
    let (mut t0, mut peers) = root_and_peers(3);
    exit_arrival(&mut peers[0], Ns::from_us(10));
    exit_arrival(&mut peers[1], Ns::from_us(20));
    let last_heard = Ns::from_ms(1);
    gone(&mut peers[0], last_heard);
    t0.exit();
    assert_eq!(t0.clock().borrow().now(), last_heard + quiet());
    let mut kinds = Vec::new();
    for peer in &mut peers {
        let mut got = Vec::new();
        while let Wait::Got(msg) = peer.wait(Some(Ns::from_ms(10))) {
            got.push(match Response::decode(&msg.data) {
                Some((1, Response::BarrierRelease { .. })) => "release",
                Some((2, Response::Gone)) => "gone",
                other => panic!("expected a release or a Gone's answer, got {other:?}"),
            });
        }
        kinds.push(got);
    }
    // Node 1 was re-sent its release once, an `rto` into the linger,
    // before it said `Gone` at 1 ms.
    assert_eq!(kinds[0], ["release", "release", "gone"]);
    // Node 2 got its release, then a re-send every `rto` of the linger,
    // which began just past 20 µs and ended at 3 ms.
    assert_eq!(kinds[1], ["release"; 6]);
}
