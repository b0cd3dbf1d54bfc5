//! A computing node waits like everything else.
//!
//! `Tmk::compute_ns(d)` is a wait on the node's transport with deadline
//! `now + d`, so a request that arrives inside the segment is served when
//! the async scheme delivers it — not when the computation is over — and
//! the segment ends later by exactly what the request displaced. That
//! needs one contract for `Substrate::wait`'s deadline on every substrate;
//! the second test holds it.

use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, FastSubstrate};
use tm_gm::gm_cluster;
use tm_myrinet::Fabric;
use tm_sim::clock::shared_clock;
use tm_sim::runner::NodeOutcome;
use tm_sim::{Ns, SimParams, Wait};
use tm_udp::UdpSubstrate;
use tmk::memsub::{mem_cluster, MemSubstrate};
use tmk::{Substrate, Tmk, TmkConfig};

/// What one node saw of the probe: how long its step after the barrier
/// took, and what it served and booked meanwhile.
struct Seen {
    took: Ns,
    served: u64,
    service_time: Ns,
    async_overhead_time: Ns,
}

/// Node 1 writes one word; after a barrier node 0 reads it (a page fetch
/// from node 1) while node 1 computes for `d`.
fn probe<S: Substrate>(tmk: &mut Tmk<S>, d: Ns) -> Seen {
    let r = tmk.malloc(4096);
    tmk.barrier(0);
    if tmk.proc_id() == 1 {
        tmk.set_u32(r, 0, 0xfeed);
    }
    tmk.barrier(1);
    let before = tmk.clock().borrow().stats.clone();
    let t0 = tmk.clock().borrow().now();
    if tmk.proc_id() == 0 {
        assert_eq!(tmk.get_u32(r, 0), 0xfeed);
    } else {
        tmk.compute_ns(d);
    }
    let c = tmk.clock().borrow();
    Seen {
        took: c.now() - t0,
        served: c.stats.requests_served - before.requests_served,
        service_time: c.stats.service_time - before.service_time,
        async_overhead_time: c.stats.async_overhead_time - before.async_overhead_time,
    }
}

/// `latency` is the async scheme's delivery latency on the transport —
/// and, for an interrupt or a signal, the CPU time it costs the receiver.
fn check(what: &str, latency: Ns, run: impl Fn(Ns) -> Vec<NodeOutcome<Seen>>) {
    let idle_fetch = run(Ns::ZERO)[0].result.took;
    for d in [Ns::from_ms(1), Ns::from_ms(10)] {
        let out = run(d);
        let (fetch, peer) = (out[0].result.took, &out[1].result);
        assert!(
            fetch <= idle_fetch + latency,
            "{what}: a fetch into a peer computing {d} took {fetch}, {idle_fetch} into an idle one"
        );
        assert_eq!(
            peer.served, 1,
            "{what}: the fetch was not served inside the segment"
        );
        assert_eq!(
            peer.took,
            d + peer.service_time + latency,
            "{what}: a {d} segment that served one request ({} of handler)",
            peer.service_time
        );
        assert!(
            peer.async_overhead_time > Ns::ZERO,
            "{what}: the delivery cost nothing"
        );
    }
}

#[test]
fn a_fetch_into_a_computing_peer_does_not_wait_out_its_segment() {
    let p = Arc::new(SimParams::paper_testbed());
    check("FAST/GM", p.net.host_interrupt, |d| {
        let cfg = FastConfig::paper(&p);
        run_fast_dsm(2, Arc::clone(&p), cfg, TmkConfig::default(), move |t| {
            probe(t, d)
        })
    });
    check("UDP/GM", p.host.sigio, |d| {
        run_udp_dsm(2, Arc::clone(&p), TmkConfig::default(), move |t| {
            probe(t, d)
        })
    });
}

/// The deadline half of [`Substrate::wait`], on a pair driven by hand: a
/// deadline earlier than the only queued arrival is reported with the
/// clock at the deadline and the message left queued; a later one hands
/// the message over at its arrival.
fn deadline_is_honoured<S: Substrate>(what: &str, mut a: S, mut b: S) {
    // Both ends were built alike, so their clocks agree.
    let t0 = b.clock().borrow().now();
    let (early, late) = (t0 + Ns::from_us(3), t0 + Ns::from_ms(1));
    a.send_request(1, b"req");
    assert!(
        matches!(b.wait(Some(early)), Wait::Deadline),
        "{what}: a message was handed over before it arrived"
    );
    assert_eq!(b.clock().borrow().now(), early, "{what}");
    let Wait::Got(msg) = b.wait(Some(late)) else {
        panic!("{what}: the message was lost to an earlier deadline");
    };
    assert_eq!(msg.data, b"req", "{what}");
    let now = b.clock().borrow().now();
    assert!(
        early < msg.arrival && msg.arrival <= now && now < late,
        "{what}: {msg:?} at {now}"
    );
    assert!(matches!(b.wait(Some(late)), Wait::Deadline), "{what}");
    assert_eq!(b.clock().borrow().now(), late, "{what}");
}

#[test]
fn wait_honours_its_deadline_on_every_substrate() {
    let p = Arc::new(SimParams::paper_testbed());

    let mut eps = mem_cluster(2);
    let mem = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&p), Ns::from_us(5), Ns(500));
    let b = mem(eps.pop().unwrap());
    deadline_is_honoured("memsub", mem(eps.pop().unwrap()), b);

    let (_fabric, board, mut nics) = gm_cluster(2, Arc::clone(&p));
    let fast = |nic| {
        let cfg = FastConfig::paper(&p);
        FastSubstrate::new(nic, shared_clock(), Arc::clone(&p), Arc::clone(&board), cfg)
    };
    let b = fast(nics.pop().unwrap());
    deadline_is_honoured("FAST/GM", fast(nics.pop().unwrap()), b);

    let (_fabric, mut nics) = Fabric::new(2, Arc::clone(&p));
    let udp = |nic| UdpSubstrate::new(nic, shared_clock(), Arc::clone(&p));
    let b = udp(nics.pop().unwrap());
    deadline_is_honoured("UDP/GM", udp(nics.pop().unwrap()), b);
}
