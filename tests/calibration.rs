//! Workspace-level calibration tests: the cost model must keep producing
//! the §3.1 latency/bandwidth anchor points the rest of the evaluation
//! stands on.

use std::sync::Arc;

use tm_fast::{FastConfig, FastSubstrate};
use tm_gm::{gm_cluster, gm_size, DmaPool, MAX_SIZE_CLASS};
use tm_sim::{run_cluster_with, Ns, SimParams};
use tm_udp::UdpStack;
use tmk::Substrate;

/// Raw GM one-way small-message latency ≈ 8.99 µs.
#[test]
fn gm_latency_matches_paper() {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, nics) = gm_cluster(2, Arc::clone(&params));
    let out = run_cluster_with(params, nics, move |env, nic| {
        let mut gm = tm_gm::GmNode::new(
            nic,
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            64 << 20,
        );
        gm.open_port(2, false).unwrap();
        let mut pool = DmaPool::new(&mut gm.book, 8, 64).unwrap();
        for _ in 0..40 {
            gm.provide_receive_buffer(2, gm_size(1)).unwrap();
        }
        let buf = pool.take(&[0u8]).unwrap();
        pool.recycle();
        let peer = 1 - env.id;
        if env.id == 0 {
            let t0 = env.clock.borrow().now();
            for _ in 0..32 {
                gm.send(2, peer, 2, &buf, 1).unwrap();
                let _ = gm.blocking_receive(&[2]);
            }
            ((env.clock.borrow().now() - t0).as_us()) / 64.0
        } else {
            for _ in 0..32 {
                let _ = gm.blocking_receive(&[2]);
                gm.send(2, peer, 2, &buf, 1).unwrap();
            }
            0.0
        }
    });
    let lat = out[0].result;
    assert!(
        (8.0..10.0).contains(&lat),
        "raw GM one-way latency {lat:.2}us, paper 8.99us"
    );
}

/// FAST/GM latency sits just above raw GM (paper: 9.4 vs 8.99 µs), and
/// UDP/GM is several times higher.
#[test]
fn substrate_latency_ordering() {
    // FAST
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, nics) = gm_cluster(2, Arc::clone(&params));
    let fast = run_cluster_with(params, nics, move |env, nic| {
        let mut sub = FastSubstrate::new(
            nic,
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            FastConfig::paper(&env.params),
        );
        if env.id == 0 {
            let t0 = env.clock.borrow().now();
            sub.send_request(1, &[1u8]);
            let m = sub.next_incoming();
            let _ = m;
            (env.clock.borrow().now() - t0).as_us() / 2.0
        } else {
            let _ = sub.next_incoming();
            let at = sub.clock().borrow().now() + sub.response_cost(1);
            sub.send_response_at(0, &[1u8], at);
            0.0
        }
    });
    let fast_lat = fast[0].result;

    // UDP
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, nics) = tm_myrinet::Fabric::new(2, Arc::clone(&params));
    let udp = run_cluster_with(params, nics, move |env, nic| {
        let mut u = UdpStack::new(nic, env.clock.clone(), Arc::clone(&env.params));
        u.bind(3, false);
        if env.id == 0 {
            let t0 = env.clock.borrow().now();
            u.sendto(1, 3, 3, &[1u8]);
            let _ = u.recvfrom(3);
            (env.clock.borrow().now() - t0).as_us() / 2.0
        } else {
            let _ = u.recvfrom(3);
            u.sendto(0, 3, 3, &[1u8]);
            0.0
        }
    });
    let udp_lat = udp[0].result;

    assert!(
        (8.5..11.5).contains(&fast_lat),
        "FAST/GM latency {fast_lat:.2}us, paper 9.4us"
    );
    assert!(
        udp_lat > 2.0 * fast_lat,
        "UDP/GM ({udp_lat:.1}us) should be several times FAST/GM ({fast_lat:.1}us)"
    );
    assert!(
        udp_lat < 60.0,
        "UDP/GM latency {udp_lat:.1}us out of the plausible sockets-GM range"
    );
}

/// The §2.2.2 memory arithmetic: eager preposting needs roughly
/// 64KB·(n−1)+64KB, and the substrate preposts exactly what
/// `prepost_bytes` says at the top class; stopping at class 13 (the
/// rendezvous alternative the paper sizes) needs roughly a third of that.
#[test]
fn prepost_memory_matches_paper_formula() {
    for n in [4usize, 16, 256] {
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, board, mut nics) = gm_cluster(n, Arc::clone(&params));
        let cfg = FastConfig::paper(&params);
        let eager = FastSubstrate::new(
            nics.remove(0),
            tm_sim::clock::shared_clock(),
            Arc::clone(&params),
            board,
            cfg,
        )
        .prepost_bytes;
        assert_eq!(eager, tm_fast::prepost_bytes(n, MAX_SIZE_CLASS));
        let formula = 64 * 1024 * (n - 1) + 64 * 1024;
        let ratio = eager as f64 / formula as f64;
        assert!(
            (0.8..1.4).contains(&ratio),
            "n={n}: prepost {eager}B vs formula {formula}B (ratio {ratio:.2})"
        );
        let rdv = tm_fast::prepost_bytes(n, 13);
        assert!(
            (rdv as f64) < 0.45 * eager as f64,
            "n={n}: rendezvous {rdv}B should be well under eager {eager}B"
        );
    }
}

/// Timer-based async handling adds ~half a period of latency; the
/// interrupt stays bounded. (The §2.2.4 conclusion in miniature.)
#[test]
fn interrupt_beats_timer_scheme() {
    use tm_sim::AsyncScheme;
    let intr = AsyncScheme::Interrupt {
        cost: Ns::from_us(7),
    };
    let timer = AsyncScheme::Timer {
        period: Ns::from_ms(1),
        dispatch: Ns::from_us(2),
    };
    let arrival = Ns::from_us(123);
    assert!(intr.earliest_service(arrival) < Ns::from_us(131));
    assert!(timer.earliest_service(arrival) >= Ns::from_ms(1));
}
