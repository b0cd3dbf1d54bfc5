//! E1 — §3.1's latency/bandwidth table.
//!
//! Raw GM, FAST/GM and UDP/GM one-way small-message latency and large-
//! message streaming bandwidth on the simulated testbed, next to the
//! paper's measurements. (The provided paper text lost the UDP/GM digits
//! to OCR; contemporary sockets-over-GM sat at 25–35 µs.)

use std::sync::Arc;

use tm_bench::print_header;
use tm_fast::{FastConfig, FastSubstrate};
use tm_gm::{gm_cluster, gm_size, DmaPool};
use tm_sim::{run_cluster_with, Ns, SimParams};
use tm_udp::UdpStack;
use tmk::Substrate;

const PING_ROUNDS: u64 = 64;
const BW_MSGS: usize = 64;
const BW_MSG_BYTES: usize = 64 * 1024;

/// Raw GM ping-pong latency (one-way) and streaming bandwidth.
fn raw_gm() -> (f64, f64) {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, nics) = gm_cluster(2, Arc::clone(&params));
    let out = run_cluster_with(params, nics, move |env, nic| {
        let mut gm = tm_gm::GmNode::new(
            nic,
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            256 << 20,
        );
        gm.open_port(2, false).unwrap();
        let mut pool = DmaPool::new(&mut gm.book, 32, BW_MSG_BYTES).unwrap();
        // Prepost generously for both phases.
        for _ in 0..PING_ROUNDS + 4 {
            gm.provide_receive_buffer(2, gm_size(1)).unwrap();
        }
        for _ in 0..BW_MSGS + 4 {
            gm.provide_receive_buffer(2, gm_size(BW_MSG_BYTES)).unwrap();
        }
        let me = env.id;
        let peer = 1 - me;
        let one = pool.take(&[0u8]).unwrap();
        pool.recycle();

        // --- ping-pong ---
        let lat_us = if me == 0 {
            let t0 = env.clock.borrow().now();
            for _ in 0..PING_ROUNDS {
                gm.send(2, peer, 2, &one, 1).unwrap();
                let _ = gm.blocking_receive(&[2]);
            }
            let rtt = env.clock.borrow().now() - t0;
            rtt.as_us() / (2.0 * PING_ROUNDS as f64)
        } else {
            for _ in 0..PING_ROUNDS {
                let _ = gm.blocking_receive(&[2]);
                gm.send(2, peer, 2, &one, 1).unwrap();
            }
            0.0
        };

        // --- bandwidth: node 0 streams, node 1 sinks ---
        let bw = if me == 0 {
            let big = pool.take(&vec![7u8; BW_MSG_BYTES]).unwrap();
            pool.recycle();
            let t0 = env.clock.borrow().now();
            for _ in 0..BW_MSGS {
                loop {
                    match gm.send(2, peer, 2, &big, BW_MSG_BYTES) {
                        Ok(_) => break,
                        Err(tm_gm::GmError::NoSendTokens) => {
                            // Wait for callbacks: model by nudging time.
                            env.clock.borrow_mut().advance(Ns::from_us(5));
                        }
                        Err(e) => panic!("{e:?}"),
                    }
                }
            }
            // Wait for the sink's ack.
            let _ = gm.blocking_receive(&[2]);
            let total = env.clock.borrow().now() - t0;
            (BW_MSGS * BW_MSG_BYTES) as f64 / total.as_secs() / 1e6
        } else {
            for _ in 0..BW_MSGS {
                let _ = gm.blocking_receive(&[2]);
            }
            gm.send(2, peer, 2, &one, 1).unwrap();
            0.0
        };
        (lat_us, bw)
    });
    (out[0].result.0, out[0].result.1)
}

/// FAST/GM latency + bandwidth through the substrate API.
fn fast_gm() -> (f64, f64) {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, nics) = gm_cluster(2, Arc::clone(&params));
    let out = run_cluster_with(params, nics, move |env, nic| {
        let mut sub = FastSubstrate::new(
            nic,
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            FastConfig::paper(&env.params),
        );
        let me = env.id;
        let peer = 1 - me;
        let lat_us = if me == 0 {
            let t0 = env.clock.borrow().now();
            for _ in 0..PING_ROUNDS {
                sub.send_request(peer, &[1u8]);
                let _ = sub.next_incoming();
            }
            let rtt = env.clock.borrow().now() - t0;
            rtt.as_us() / (2.0 * PING_ROUNDS as f64)
        } else {
            for _ in 0..PING_ROUNDS {
                let _ = sub.next_incoming();
                // The responder pays its receive poll (charged by
                // next_incoming) and the response emission.
                let at = sub.clock().borrow().now() + sub.response_cost(1);
                sub.send_response_at(peer, &[1u8], at);
            }
            0.0
        };
        // Bandwidth: stream max-size requests.
        let chunk = sub.params().dsm.max_msg;
        let bw = if me == 0 {
            let payload = vec![7u8; chunk];
            let t0 = env.clock.borrow().now();
            for _ in 0..BW_MSGS {
                sub.send_request(peer, &payload);
            }
            let _ = sub.next_incoming(); // sink ack
            let total = env.clock.borrow().now() - t0;
            (BW_MSGS * chunk) as f64 / total.as_secs() / 1e6
        } else {
            for _ in 0..BW_MSGS {
                let _ = sub.next_incoming();
            }
            let now = env.clock.borrow().now();
            sub.send_response_at(peer, &[1u8], now);
            0.0
        };
        (lat_us, bw)
    });
    (out[0].result.0, out[0].result.1)
}

/// UDP/GM latency + bandwidth through the kernel socket model.
fn udp_gm() -> (f64, f64) {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, nics) = tm_myrinet::Fabric::new(2, Arc::clone(&params));
    let out = run_cluster_with(params, nics, move |env, nic| {
        let mut udp = UdpStack::new(nic, env.clock.clone(), Arc::clone(&env.params));
        udp.bind(9, false);
        let me = env.id;
        let peer = 1 - me;
        let lat_us = if me == 0 {
            let t0 = env.clock.borrow().now();
            for _ in 0..PING_ROUNDS {
                udp.sendto(peer, 9, 9, &[1u8]);
                let _ = udp.recvfrom(9);
            }
            let rtt = env.clock.borrow().now() - t0;
            rtt.as_us() / (2.0 * PING_ROUNDS as f64)
        } else {
            for _ in 0..PING_ROUNDS {
                let _ = udp.recvfrom(9);
                udp.sendto(peer, 9, 9, &[1u8]);
            }
            0.0
        };
        let chunk = 32 * 1024;
        let bw = if me == 0 {
            let payload = vec![7u8; chunk];
            let t0 = env.clock.borrow().now();
            for _ in 0..BW_MSGS {
                udp.sendto(peer, 9, 9, &payload);
            }
            let _ = udp.recvfrom(9);
            let total = env.clock.borrow().now() - t0;
            (BW_MSGS * chunk) as f64 / total.as_secs() / 1e6
        } else {
            for _ in 0..BW_MSGS {
                let _ = udp.recvfrom(9);
            }
            udp.sendto(peer, 9, 9, &[1u8]);
            0.0
        };
        (lat_us, bw)
    });
    (out[0].result.0, out[0].result.1)
}

fn main() {
    print_header("E1: latency and bandwidth (paper §3.1)");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "layer", "lat (us)", "paper (us)", "BW (MB/s)", "paper (MB/s)"
    );
    let (gl, gb) = raw_gm();
    println!(
        "{:<10} {:>12.2} {:>12} {:>14.0} {:>14}",
        "GM", gl, "8.99", gb, "~235"
    );
    let (fl, fb) = fast_gm();
    println!(
        "{:<10} {:>12.2} {:>12} {:>14.0} {:>14}",
        "FAST/GM", fl, "9.4", fb, "~215"
    );
    let (ul, ub) = udp_gm();
    println!(
        "{:<10} {:>12.2} {:>12} {:>14.0} {:>14}",
        "UDP/GM", ul, "(OCR lost)", ub, "unmeasurable*"
    );
    println!();
    println!("* the paper could not measure UDP/GM bandwidth (UDP loss);");
    println!("  our loss model is disabled here, so a number is produced.");
}
