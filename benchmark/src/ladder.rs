//! The layer ladder: a 2-node ping-pong at every rung of both transport
//! stacks, in the style of the paper's §3.1 (raw GM → FAST/GM → UDP/GM).
//! Each rung reports host nanoseconds per round trip (the simulator's cost)
//! and virtual nanoseconds per round trip (the modeled cluster's, exact).
//! A rung's host time minus the rung below it is that layer's self time
//! per round trip.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, FastSubstrate, UdpSubstrate};
use tm_gm::{gm_cluster, gm_size, DmaPool, GmNode};
use tm_myrinet::{Fabric, NicHandle};
use tm_sim::runner::{NodeEnv, NodeOutcome};
use tm_sim::{run_cluster, Ns, SimParams};
use tm_udp::UdpStack;
use tmk::memsub::run_mem_dsm;
use tmk::{Substrate, Tmk, TmkConfig};

type RungFn = fn(&Arc<SimParams>, u64) -> Rung;

/// Every rung, bottom up: the FAST/GM stack, the UDP/GM stack, and `Tmk`
/// with no fabric under it.
pub const RUNGS: [(&str, RungFn); 8] = [
    ("nic", nic),
    ("gm", gm),
    ("fast", fast),
    ("tmk_fast", tmk_fast),
    ("udp", udp),
    ("udpsub", udpsub),
    ("tmk_udp", tmk_udp),
    ("tmk_memsub", tmk_memsub),
];

#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub host_ns_rt: f64,
    pub virt_ns_rt: f64,
}

/// What node 0 measured around its loop: host ns, virtual ns, round trips.
type Measured = (f64, Ns, u64);

fn rung_of(out: &[NodeOutcome<Measured>]) -> Rung {
    let (host_ns, virt, trips) = out[0].result;
    Rung {
        host_ns_rt: host_ns / trips as f64,
        virt_ns_rt: virt.0 as f64 / trips as f64,
    }
}

type Nics = Arc<Mutex<Vec<Option<NicHandle>>>>;

fn share(nics: Vec<NicHandle>) -> Nics {
    Arc::new(Mutex::new(nics.into_iter().map(Some).collect()))
}

fn take(nics: &Nics, id: usize) -> NicHandle {
    nics.lock().expect("nic table")[id]
        .take()
        .expect("nic taken twice")
}

/// Node 0 pings, node 1 pongs, `trips` times over `layer`; node 0 times
/// the loop.
fn ping_pong<T>(
    env: &NodeEnv,
    trips: u64,
    mut layer: T,
    mut send: impl FnMut(&mut T),
    mut recv: impl FnMut(&mut T),
) -> Measured {
    let t0 = Instant::now();
    let v0 = env.clock.borrow().now();
    for _ in 0..trips {
        if env.id == 0 {
            send(&mut layer);
            recv(&mut layer);
        } else {
            recv(&mut layer);
            send(&mut layer);
        }
    }
    let virt = env.clock.borrow().now() - v0;
    (t0.elapsed().as_nanos() as f64, virt, trips)
}

fn nic(params: &Arc<SimParams>, trips: u64) -> Rung {
    let (_fabric, nics) = Fabric::new(2, Arc::clone(params));
    let nics = share(nics);
    let out = run_cluster(2, Arc::clone(params), move |env| {
        let peer = 1 - env.id;
        let clock = env.clock.clone();
        ping_pong(
            env,
            trips,
            take(&nics, env.id),
            |n| {
                let now = clock.borrow().now();
                n.inject(peer, 1, 1, Bytes::from_static(&[1]), now, None);
            },
            |n| {
                let pkt = n.recv_blocking();
                clock.borrow_mut().wait_until(pkt.arrival);
            },
        )
    });
    rung_of(&out)
}

fn gm(params: &Arc<SimParams>, trips: u64) -> Rung {
    const PORT: u8 = 2;
    let (_fabric, board, nics) = gm_cluster(2, Arc::clone(params));
    let nics = share(nics);
    let out = run_cluster(2, Arc::clone(params), move |env| {
        let peer = 1 - env.id;
        let mut gm = GmNode::new(
            take(&nics, env.id),
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            1 << 20,
        );
        gm.open_port(PORT, false).expect("open port");
        let mut pool = DmaPool::new(&mut gm.book, 1, 64).expect("dma pool");
        let one = pool.take(&[1u8]).expect("dma buffer");
        gm.provide_receive_buffer(PORT, gm_size(1))
            .expect("prepost");
        ping_pong(
            env,
            trips,
            gm,
            |g| {
                g.send(PORT, peer, PORT, &one, 1).expect("gm send");
            },
            |g| {
                let _ = g.blocking_receive(&[PORT]);
                g.provide_receive_buffer(PORT, gm_size(1)).expect("repost");
            },
        )
    });
    rung_of(&out)
}

/// The substrate rungs: node 0 sends requests, node 1 answers each with a
/// response, as `Tmk`'s rpc layer would.
fn substrate_ping_pong<S: Substrate>(env: &NodeEnv, trips: u64, sub: S) -> Measured {
    let peer = 1 - env.id;
    let me = env.id;
    ping_pong(
        env,
        trips,
        sub,
        |s| {
            if me == 0 {
                s.send_request(peer, &[1u8]);
            } else {
                let at = s.clock().borrow().now() + s.response_cost(1);
                s.send_response_at(peer, &[1u8], at);
            }
        },
        |s| {
            let m = s.next_incoming();
            tmk::wire::pool::give(m.data);
        },
    )
}

fn fast(params: &Arc<SimParams>, trips: u64) -> Rung {
    let (_fabric, board, nics) = gm_cluster(2, Arc::clone(params));
    let nics = share(nics);
    let out = run_cluster(2, Arc::clone(params), move |env| {
        let sub = FastSubstrate::new(
            take(&nics, env.id),
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            FastConfig::paper(&env.params),
        );
        substrate_ping_pong(env, trips, sub)
    });
    rung_of(&out)
}

fn udp(params: &Arc<SimParams>, trips: u64) -> Rung {
    const SOCK: u16 = 9;
    let (_fabric, nics) = Fabric::new(2, Arc::clone(params));
    let nics = share(nics);
    let out = run_cluster(2, Arc::clone(params), move |env| {
        let peer = 1 - env.id;
        let mut stack = UdpStack::new(
            take(&nics, env.id),
            env.clock.clone(),
            Arc::clone(&env.params),
        );
        stack.bind(SOCK, false);
        ping_pong(
            env,
            trips,
            stack,
            |u| {
                u.sendto(peer, SOCK, SOCK, &[1u8]);
            },
            |u| {
                let _ = u.recvfrom(SOCK);
            },
        )
    });
    rung_of(&out)
}

fn udpsub(params: &Arc<SimParams>, trips: u64) -> Rung {
    let (_fabric, nics) = Fabric::new(2, Arc::clone(params));
    let nics = share(nics);
    let out = run_cluster(2, Arc::clone(params), move |env| {
        let sub = UdpSubstrate::new(
            take(&nics, env.id),
            env.clock.clone(),
            Arc::clone(&env.params),
        );
        substrate_ping_pong(env, trips, sub)
    });
    rung_of(&out)
}

/// The `Tmk` rungs: a 2-node barrier, one arrival/release round trip per
/// episode. (A lock hand-off loop alternates under lockstep but not on the
/// free-running memsub, where one node finishes its loop before the other's
/// first request lands; a barrier blocks both sides on every substrate.)
fn barrier_ping_pong<S: Substrate>(tmk: &mut Tmk<S>, trips: u64) -> Measured {
    tmk.barrier(0);
    let t0 = Instant::now();
    let v0 = tmk.clock().borrow().now();
    for i in 0..trips {
        tmk.barrier(1 + i as u32);
    }
    let virt = tmk.clock().borrow().now() - v0;
    (t0.elapsed().as_nanos() as f64, virt, trips)
}

fn tmk_fast(params: &Arc<SimParams>, trips: u64) -> Rung {
    let cfg = FastConfig::paper(params);
    let out = run_fast_dsm(
        2,
        Arc::clone(params),
        cfg,
        TmkConfig::default(),
        move |tmk| barrier_ping_pong(tmk, trips),
    );
    rung_of(&out)
}

fn tmk_udp(params: &Arc<SimParams>, trips: u64) -> Rung {
    let out = run_udp_dsm(2, Arc::clone(params), TmkConfig::default(), move |tmk| {
        barrier_ping_pong(tmk, trips)
    });
    rung_of(&out)
}

fn tmk_memsub(params: &Arc<SimParams>, trips: u64) -> Rung {
    let out = run_mem_dsm(
        2,
        Arc::clone(params),
        Ns::from_us(5),
        TmkConfig::default(),
        move |tmk| barrier_ping_pong(tmk, trips),
    );
    rung_of(&out)
}

/// Run every rung, in [`RUNGS`] order.
pub fn run(trips: u64) -> Vec<(&'static str, Rung)> {
    let params = Arc::new(SimParams::lockstep_testbed());
    RUNGS
        .iter()
        .map(|(name, rung)| (*name, rung(&params, trips)))
        .collect()
}
