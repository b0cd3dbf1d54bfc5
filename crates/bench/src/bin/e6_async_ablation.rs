//! E6 — §2.2.4's asynchronous-message handling alternatives.
//!
//! The paper weighed three options for delivering GM's poll-only receives
//! to a busy TreadMarks process — a periodic timer, a dedicated polling
//! thread, and a NIC-firmware interrupt — and adopted the interrupt.
//! This ablation measures request/response latency through each scheme's
//! delivery model (the service window opens when the interrupt fires /
//! the poller notices / the timer ticks), plus the stock UDP SIGIO path,
//! and the virtual time the peer spends on servicing.

use std::sync::Arc;

use tm_bench::print_header;
use tm_fast::{FastConfig, FastSubstrate};
use tm_gm::gm_cluster;
use tm_sim::{run_cluster_with, AsyncScheme, Ns, SimParams};
use tm_udp::UdpStack;
use tmk::Substrate;

const ROUNDS: usize = 50;
/// Modeled handler work per request.
const HANDLER: Ns = Ns::from_us(5);

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
            // poll pass / interrupt would have delivered it.
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
        let sigio = AsyncScheme::Sigio {
            cost: env.params.host.sigio,
        };
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

fn main() {
    print_header("E6: async request handling alternatives (paper §2.2.4)");
    println!(
        "{:<34} {:>12} {:>16}",
        "scheme", "RPC (us)", "peer time (ms)"
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
            "FAST + polling thread",
            AsyncScheme::PollingThread {
                dispatch: Ns::from_us(1),
                cpu_tax: Ns::from_us(4),
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
    for (label, scheme) in cases {
        let (lat, busy) = fast_with_scheme(scheme);
        println!("{label:<34} {lat:>12.2} {:>16.3}", busy / 1000.0);
    }
    let (lat, busy) = udp_sigio();
    println!(
        "{:<34} {lat:>12.2} {:>16.3}",
        "UDP + SIGIO (stock TreadMarks)",
        busy / 1000.0
    );
    println!();
    println!("the interrupt gives a bounded response time without a polling");
    println!("thread's CPU tax — the paper's conclusion, and its choice.");
}
