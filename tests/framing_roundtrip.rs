//! Framing-path round-trip tests: a message of any size must survive
//! `send` → (fragmentation) → reassembly → surfacing *byte-identical* on
//! both substrates. Deterministic sweeps pin every GM size-class boundary;
//! proptest fills in random sizes.

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::{FastConfig, FastSubstrate, UdpSubstrate};
use tm_gm::{gm_cluster, gm_max_length, MAX_SIZE_CLASS};
use tm_myrinet::Fabric;
use tm_sim::clock::shared_clock;
use tm_sim::{Ns, SimParams};
use tmk::{Chan, Substrate};

fn params() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

fn fast_pair() -> (FastSubstrate, FastSubstrate) {
    let params = params();
    let (_f, board, mut nics) = gm_cluster(2, Arc::clone(&params));
    let cfg = FastConfig::paper(&params);
    let b = FastSubstrate::new(
        nics.pop().unwrap(),
        shared_clock(),
        Arc::clone(&params),
        Arc::clone(&board),
        cfg.clone(),
    );
    let a = FastSubstrate::new(nics.pop().unwrap(), shared_clock(), params, board, cfg);
    (a, b)
}

fn udp_pair() -> (UdpSubstrate, UdpSubstrate) {
    let params = params();
    let (_f, mut nics) = Fabric::new(2, Arc::clone(&params));
    let b = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), Arc::clone(&params));
    let a = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), params);
    (a, b)
}

/// Deterministic non-constant payload so off-by-one splices show up.
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131) + 7) as u8).collect()
}

fn roundtrip<S: Substrate>(a: &mut S, b: &mut S, len: usize) {
    let data = payload(len);
    a.send_request(1, &data);
    let req = b.next_incoming();
    assert_eq!(req.chan, Chan::Request);
    assert_eq!(req.data, data, "request of {len} bytes mangled");
    b.send_response_at(0, &data, req.arrival + Ns::from_us(5));
    let rep = a.next_incoming();
    assert_eq!(rep.chan, Chan::Response);
    assert_eq!(rep.data, data, "response of {len} bytes mangled");
}

/// Payload lengths whose one-byte-framed messages straddle every GM size
/// class, plus the fragmentation threshold above the largest class.
fn class_boundary_lengths() -> Vec<usize> {
    let mut lens = vec![0usize, 1];
    for s in 1..=MAX_SIZE_CLASS {
        let m = gm_max_length(s);
        lens.extend([m.saturating_sub(2), m - 1, m]);
    }
    let limit = gm_max_length(MAX_SIZE_CLASS);
    lens.extend([limit + 1, 2 * limit, 3 * limit + 17]);
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[test]
fn fast_roundtrips_every_size_class_boundary() {
    let (mut a, mut b) = fast_pair();
    for len in class_boundary_lengths() {
        roundtrip(&mut a, &mut b, len);
    }
}

/// A body travels whole while `[DATA] ++ body` fits one datagram; past it
/// the stream cuts at `DGRAM_LIMIT − 10`, so bodies of `k·(limit − 10)`
/// bytes and one either side straddle each later split.
#[test]
fn udp_roundtrips_across_the_datagram_limit() {
    use tm_udp::substrate::DGRAM_LIMIT;
    let chunk = DGRAM_LIMIT - 10;
    let (mut a, mut b) = udp_pair();
    let mut lens = vec![0, 1, 63, 64, DGRAM_LIMIT - 2, DGRAM_LIMIT - 1, DGRAM_LIMIT];
    for k in [2, 3] {
        lens.extend([k * chunk - 2, k * chunk - 1, k * chunk]);
    }
    lens.push(2 * DGRAM_LIMIT + 333);
    for len in lens {
        roundtrip(&mut a, &mut b, len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_random_lengths_roundtrip(len in 0usize..100_000) {
        let (mut a, mut b) = fast_pair();
        roundtrip(&mut a, &mut b, len);
    }

    #[test]
    fn udp_random_lengths_roundtrip(len in 0usize..200_000) {
        let (mut a, mut b) = udp_pair();
        roundtrip(&mut a, &mut b, len);
    }
}
