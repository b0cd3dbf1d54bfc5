//! One substrate contract, checked once on every transport.
//!
//! What the runtime relies on a [`Substrate`] for is written in the
//! trait's docs (`crates/core/src/substrate.rs`). Each clause is a generic
//! function here, run on FAST/GM, UDP/GM and memsub alike, so a
//! transport that breaks one fails a test named after the clause rather
//! than a whole-cluster golden. The one receive rule of every clause:
//! hand over what has arrived by the deadline, otherwise wait for a
//! delivery or the deadline — a poll is that wait with deadline *now*.

use std::sync::Arc;

use tm_fast::{FastConfig, FastSubstrate};
use tm_gm::{gm_cluster, FailureBoard};
use tm_myrinet::{Fabric, NicHandle};
use tm_sim::clock::shared_clock;
use tm_sim::{run_cluster_with, FaultPlan, Ns, SharedClock, SimParams, Wait};
use tm_udp::UdpSubstrate;
use tmk::memsub::{mem_cluster, MemEndpoint, MemSubstrate};
use tmk::{Chan, IncomingMsg, Substrate};

/// How to build one transport's substrates: from one part per node, on a
/// clock the caller owns.
trait Rig {
    type Part: 'static;
    type Sub: Substrate;
    /// Whether the transport can lose a frame under an unreliable plan.
    const CAN_LOSE: bool;
    fn parts(n: usize, params: &Arc<SimParams>) -> Vec<Self::Part>;
    fn build(part: Self::Part, clock: SharedClock, params: Arc<SimParams>) -> Self::Sub;
}

struct Fast;
struct Udp;
struct Mem;

impl Rig for Fast {
    type Part = (NicHandle, Arc<FailureBoard>);
    type Sub = FastSubstrate;
    const CAN_LOSE: bool = false;
    fn parts(n: usize, params: &Arc<SimParams>) -> Vec<Self::Part> {
        let (_fabric, board, nics) = gm_cluster(n, Arc::clone(params));
        nics.into_iter()
            .map(|nic| (nic, Arc::clone(&board)))
            .collect()
    }
    fn build(
        (nic, board): Self::Part,
        clock: SharedClock,
        params: Arc<SimParams>,
    ) -> FastSubstrate {
        let cfg = FastConfig::paper(&params);
        FastSubstrate::new(nic, clock, params, board, cfg)
    }
}

impl Rig for Udp {
    type Part = NicHandle;
    type Sub = UdpSubstrate;
    const CAN_LOSE: bool = true;
    fn parts(n: usize, params: &Arc<SimParams>) -> Vec<NicHandle> {
        Fabric::new(n, Arc::clone(params)).1
    }
    fn build(nic: NicHandle, clock: SharedClock, params: Arc<SimParams>) -> UdpSubstrate {
        UdpSubstrate::new(nic, clock, params)
    }
}

impl Rig for Mem {
    type Part = MemEndpoint;
    type Sub = MemSubstrate;
    const CAN_LOSE: bool = false;
    fn parts(n: usize, _params: &Arc<SimParams>) -> Vec<MemEndpoint> {
        mem_cluster(n)
    }
    fn build(ep: MemEndpoint, clock: SharedClock, params: Arc<SimParams>) -> MemSubstrate {
        MemSubstrate::new(ep, clock, params, Ns::from_us(5), Ns(500))
    }
}

fn testbed() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

/// Two nodes driven by hand from the test thread, under `params`: there
/// program order is the order.
fn pair_with<R: Rig>(params: Arc<SimParams>) -> (R::Sub, R::Sub) {
    let mut parts = R::parts(2, &params).into_iter();
    let mut next = || {
        R::build(
            parts.next().expect("two parts"),
            shared_clock(),
            Arc::clone(&params),
        )
    };
    let a = next();
    (a, next())
}

fn pair<R: Rig>() -> (R::Sub, R::Sub) {
    pair_with::<R>(testbed())
}

/// What each node of an `n`-node cluster returned from `body`.
fn cluster<R: Rig, T: 'static>(n: usize, body: impl Fn(&mut R::Sub) -> T + 'static) -> Vec<T> {
    let params = testbed();
    let parts = R::parts(n, &params);
    let out = run_cluster_with(params, parts, move |env, part| {
        body(&mut R::build(
            part,
            env.clock.clone(),
            Arc::clone(&env.params),
        ))
    });
    out.into_iter().map(|o| o.result).collect()
}

fn now<S: Substrate>(s: &S) -> Ns {
    s.clock().borrow().now()
}

fn data(m: Option<IncomingMsg>) -> Option<Vec<u8>> {
    m.map(|m| m.data)
}

/// A deadline nothing reaches is reported with the clock at the deadline,
/// and a message that lands later stays queued for the next wait. (Each
/// deadline lies past what entering the wait costs: UDP/GM's `select()`
/// alone is several microseconds.)
fn a_deadline_nothing_reaches_leaves_the_clock_there<R: Rig>() {
    let (mut a, mut b) = pair::<R>();
    let idle = now(&b) + Ns::from_us(50);
    assert_eq!(b.wait(Some(idle)), Wait::Deadline, "nothing sent");
    assert_eq!(now(&b), idle);
    a.send(1, Chan::Request, b"later", Some(idle + Ns::from_ms(1)));
    let early = idle + Ns::from_us(100);
    assert_eq!(
        b.wait(Some(early)),
        Wait::Deadline,
        "handed over before it arrived"
    );
    assert_eq!(now(&b), early);
    let msg = b.wait(None).got();
    assert_eq!(msg.data, b"later");
    assert!(early < msg.arrival, "{msg:?}");
}

/// On `Got` an idle node's clock stands at the arrival: what it reads past
/// the arrival is the transport's receive cost, the same however long the
/// node idled.
fn an_idle_node_takes_a_message_at_its_arrival<R: Rig>() {
    let (mut a, mut b) = pair::<R>();
    let mut past_arrival = Vec::new();
    for idle in [Ns::ZERO, Ns::from_ms(1)] {
        let before = now(&b);
        a.send(1, Chan::Request, b"ping", Some(before + idle));
        let msg = b.wait(None).got();
        assert!(before < msg.arrival && msg.arrival <= now(&b), "{msg:?}");
        past_arrival.push(now(&b) - msg.arrival);
    }
    assert_eq!(past_arrival[0], past_arrival[1]);
}

/// A poll yields only the channels it names, taken in the order given,
/// and only what has arrived.
fn a_poll_yields_only_arrived_messages_on_the_named_channels<R: Rig>() {
    let (mut a, mut b) = pair::<R>();
    a.send_request(1, b"req");
    a.send(1, Chan::Response, b"rep", None);
    assert_eq!(
        data(b.poll(&[Chan::Response, Chan::Request])),
        None,
        "not arrived"
    );
    b.clock().borrow_mut().advance(Ns::from_ms(1));
    assert_eq!(data(b.poll(&[Chan::Request])), Some(b"req".to_vec()));
    assert_eq!(
        data(b.poll(&[Chan::Request])),
        None,
        "a response is no request"
    );
    assert_eq!(data(b.poll(&[Chan::Response])), Some(b"rep".to_vec()));
    assert_eq!(data(b.poll(&[Chan::Response, Chan::Request])), None);

    a.send_request(1, b"req");
    a.send(1, Chan::Response, b"rep", None);
    b.clock().borrow_mut().advance(Ns::from_ms(1));
    let both = [Chan::Response, Chan::Request];
    let got: Vec<_> = (0..3).map(|_| data(b.poll(&both))).collect();
    assert_eq!(got, [Some(b"rep".to_vec()), Some(b"req".to_vec()), None]);
}

/// `send(.., Some(at))` leaves at `at` and charges nothing; `send(.., None)`
/// charges the send path.
fn a_send_at_a_set_time_charges_nothing<R: Rig>() {
    let (mut a, _b) = pair::<R>();
    let t0 = now(&a);
    a.send(1, Chan::Response, b"reply", Some(t0 + Ns::from_us(7)));
    assert_eq!(now(&a), t0);
    a.send(1, Chan::Request, b"request", None);
    assert!(now(&a) > t0);
}

/// Only a transport that can lose a frame under the current plan has a
/// retransmission timeout.
fn only_a_lossy_transport_retransmits<R: Rig>() {
    assert_eq!(pair::<R>().0.retransmit_timeout(), None, "clean plan");
    let mut lossy = SimParams::paper_testbed();
    lossy.faults = FaultPlan {
        drop_probability: 0.01,
        ..FaultPlan::default()
    };
    let timeout = pair_with::<R>(Arc::new(lossy)).0.retransmit_timeout();
    assert_eq!(timeout.is_some(), R::CAN_LOSE, "lossy plan: {timeout:?}");
}

/// Node 1 holds a message of its own due past its deadline while node 0's
/// earlier-keyed send is still pending: the wait hands node 0's message
/// over, and the far one stays queued.
fn an_earlier_keyed_send_lands_before_a_queued_later_one<R: Rig>() {
    let deadline = Ns::from_us(100);
    let saw = cluster::<R, _>(2, move |s| match s.my_id() {
        1 => {
            s.send(1, Chan::Response, b"far", Some(Ns::from_ms(10)));
            let first = s.wait(Some(deadline));
            let second = s.wait(Some(deadline + Ns::from_us(1)));
            [first, second].map(|w| match w {
                Wait::Got(m) => String::from_utf8(m.data).expect("utf-8"),
                Wait::Deadline => "deadline".into(),
            })
        }
        _ => {
            s.send(1, Chan::Request, b"near", Some(Ns::from_us(1)));
            Default::default()
        }
    });
    assert_eq!(saw[1], ["near", "deadline"]);
}

/// `msgs_recv` counts every message handed over, by a poll or a wait.
fn every_message_handed_over_is_counted<R: Rig>() {
    let (mut a, mut b) = pair::<R>();
    for body in [b"one", b"two", b"six"] {
        a.send_request(1, body);
    }
    b.clock().borrow_mut().advance(Ns::from_ms(1));
    assert!(b.poll(&[Chan::Request]).is_some());
    assert!(b.poll(&[Chan::Response, Chan::Request]).is_some());
    let _ = b.wait(None).got();
    let (sent, recv) = (
        a.clock().borrow().stats.msgs_sent,
        b.clock().borrow().stats.msgs_recv,
    );
    assert_eq!((sent, recv), (3, 3));
}

macro_rules! contract {
    ($($name:ident: $rig:ty),* $(,)?) => {$(
        mod $name {
            #[test]
            fn a_deadline_nothing_reaches_leaves_the_clock_there() {
                super::a_deadline_nothing_reaches_leaves_the_clock_there::<$rig>()
            }
            #[test]
            fn an_idle_node_takes_a_message_at_its_arrival() {
                super::an_idle_node_takes_a_message_at_its_arrival::<$rig>()
            }
            #[test]
            fn a_poll_yields_only_arrived_messages_on_the_named_channels() {
                super::a_poll_yields_only_arrived_messages_on_the_named_channels::<$rig>()
            }
            #[test]
            fn a_send_at_a_set_time_charges_nothing() {
                super::a_send_at_a_set_time_charges_nothing::<$rig>()
            }
            #[test]
            fn only_a_lossy_transport_retransmits() {
                super::only_a_lossy_transport_retransmits::<$rig>()
            }
            #[test]
            fn an_earlier_keyed_send_lands_before_a_queued_later_one() {
                super::an_earlier_keyed_send_lands_before_a_queued_later_one::<$rig>()
            }
            #[test]
            fn every_message_handed_over_is_counted() {
                super::every_message_handed_over_is_counted::<$rig>()
            }
        }
    )*};
}

contract!(fast_gm: super::Fast, udp_gm: super::Udp, memsub: super::Mem);
