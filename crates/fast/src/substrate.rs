//! The FAST/GM substrate proper.

use std::sync::Arc;

use tm_gm::{DmaPool, GmEvent, GmNode, MAX_SIZE_CLASS};
use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Wait};
use tmk::framing::{Codec, Malformed};
use tmk::{Chan, IncomingMsg, Substrate};

/// GM port carrying asynchronous requests (interrupt-enabled: the
/// modified-firmware scheme).
pub const REQ_PORT: u8 = 1;
/// GM port carrying synchronous responses (polled).
pub const REP_PORT: u8 = 2;

/// The GM port `chan` travels on.
fn port_of(chan: Chan) -> u8 {
    match chan {
        Chan::Request => REQ_PORT,
        Chan::Response => REP_PORT,
    }
}

/// Host cost of building/parsing the FAST frame header and demultiplexing
/// the connectionless GM id to a connection (§2.2.1) — the small tax that
/// puts FAST/GM at 9.4 µs where raw GM sits at 8.99 µs.
const DEMUX: Ns = Ns(150);

/// Give up after this many token-starvation polls for a single frame —
/// past it the run is wedged, not congested.
const TOKEN_STALL_CAP: u32 = 4096;

/// Substrate configuration.
#[derive(Debug, Clone)]
pub struct FastConfig {
    /// How asynchronous requests reach the host (§2.2.4). The paper's
    /// adopted choice is the NIC interrupt.
    pub scheme: AsyncScheme,
}

/// `o`: outstanding small requests allowed per peer (§2.2.2).
const OUTSTANDING_PER_PEER: usize = 4;
/// Physical memory a node may pin (the GM registration budget).
const PIN_BUDGET: usize = 256 << 20;

impl FastConfig {
    /// The configuration the paper adopted, for a cluster of `params`'
    /// testbed type.
    pub fn paper(params: &SimParams) -> Self {
        FastConfig {
            scheme: params.interrupt_scheme(),
        }
    }
}

/// Request-port buffers of class `size` an `n`-node substrate preposts:
/// `o·(n−1)` for the small request classes, one per peer for the larger
/// ones (barrier arrivals).
fn request_buffers(n: usize, size: u8) -> usize {
    if size <= 10 {
        OUTSTANDING_PER_PEER * (n - 1)
    } else {
        n - 1
    }
}

/// §2.2.2's arithmetic: the registered bytes an `n`-node substrate
/// preposts when `top` is its largest size class — the request port's
/// buffers plus one per class for the single outstanding synchronous
/// response. [`FastSubstrate::new`] posts at [`MAX_SIZE_CLASS`]; E5
/// evaluates class 13, the rendezvous alternative the paper sizes. The
/// paper counts from size 4 (8-byte requests); our wire framing can emit
/// messages down to 2 bytes, so classes 1–3 are provisioned too — they add
/// 14 bytes per peer, invisible in the paper's figures.
pub fn prepost_bytes(n: usize, top: u8) -> usize {
    (1..=top)
        .map(|size| (request_buffers(n, size) + 1) << size)
        .sum()
}

/// The per-node FAST/GM endpoint.
pub struct FastSubstrate {
    gm: GmNode,
    pool: DmaPool,
    cfg: FastConfig,
    /// Frames of at most the largest preposted class.
    codec: Codec,
    /// Registered bytes devoted to preposted receive buffers (E5).
    pub prepost_bytes: usize,
}

impl FastSubstrate {
    /// Open the two ports, register the send pool and prepost the receive
    /// buffers per the §2.2.2 strategy. `board` holds nothing; it is passed
    /// on to [`GmNode::new`], which ignores it.
    pub fn new(
        nic: tm_myrinet::NicHandle,
        clock: SharedClock,
        params: Arc<SimParams>,
        board: Arc<tm_gm::FailureBoard>,
        cfg: FastConfig,
    ) -> Self {
        let mut gm = GmNode::new(nic, clock, params, board, PIN_BUDGET);
        let interrupts = matches!(cfg.scheme, AsyncScheme::Interrupt { .. });
        gm.open_port(REQ_PORT, interrupts).expect("open REQ port");
        gm.open_port(REP_PORT, false).expect("open REP port");
        let pool = DmaPool::new(&mut gm.book, 16, 32 * 1024).expect("register send pool");

        let n = gm.nprocs();
        for size in 1..=MAX_SIZE_CLASS {
            for _ in 0..request_buffers(n, size) {
                gm.provide_receive_buffer(REQ_PORT, size).expect("prepost");
            }
            // A single outstanding request: one response buffer per class.
            gm.provide_receive_buffer(REP_PORT, size).expect("prepost");
        }
        // The prepost slabs live in pinned memory (accounting only: the
        // simulator never addresses them).
        let prepost = prepost_bytes(n, MAX_SIZE_CLASS);
        gm.book.pin(prepost).expect("pin prepost slabs");
        FastSubstrate {
            gm,
            pool,
            cfg,
            codec: Codec::new(tm_gm::gm_max_length(MAX_SIZE_CLASS)),
            prepost_bytes: prepost,
        }
    }

    /// Registered bytes pinned by this node (send pool + preposts).
    pub fn pinned_bytes(&self) -> usize {
        self.gm.book.pinned_bytes()
    }

    pub fn gm(&self) -> &GmNode {
        &self.gm
    }

    /// How many sends allocated fresh registered-buffer storage (should be
    /// flat in steady state — the pool-hit-rate counter).
    pub fn send_pool_fresh_takes(&self) -> usize {
        self.pool.fresh_takes()
    }

    /// Push one codec frame through GM, gathering its parts straight into
    /// a registered send buffer (no intermediate frame allocation) and
    /// reclaiming the buffer after completion. An
    /// immediate send (`at` is `None`) pays DEMUX + the fast-path copy
    /// cost; a scheduled one passes its pre-accounted departure time.
    fn push_frame(&mut self, to: usize, port: u8, parts: &[&[u8]], at: Option<Ns>) {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if at.is_none() {
            self.gm.clock().borrow_mut().advance(DEMUX);
            let cost = Ns::for_bytes(len, self.gm.params().host.fast_copy_mb_s);
            self.gm.clock().borrow_mut().advance(cost);
        }
        let buf = self.pool.take_parts(parts).expect("send pool exhausted");
        let mut at = at;
        // Token starvation (injected or burst backpressure): poll for
        // completion callbacks at the GM callback stride, bounded so a
        // wedged port fails loudly instead of spinning forever. The
        // stride matches the pre-fault constant so clean-run timing is
        // unchanged.
        let stall = Ns::from_us(3);
        let mut stalls = 0u32;
        loop {
            let res = match at {
                None => self.gm.send(port, to, port, &buf, len),
                Some(t) => self.gm.send_at(port, to, port, &buf, len, t),
            };
            match res {
                Ok(_) => break,
                Err(tm_gm::GmError::NoSendTokens) => {
                    stalls += 1;
                    assert!(
                        stalls <= TOKEN_STALL_CAP,
                        "node {}: no send tokens after {TOKEN_STALL_CAP} polls",
                        self.gm.node()
                    );
                    self.gm.clock().borrow_mut().stats.token_stalls += 1;
                    match at.as_mut() {
                        None => self.gm.clock().borrow_mut().advance(stall),
                        Some(t) => *t += stall,
                    }
                }
                Err(e) => panic!("GM send failed: {e:?}"),
            }
        }
        self.pool.recycle_buf(buf);
    }

    /// Handle one GM receive event; `Some` if it surfaces to the DSM
    /// runtime, `None` if it was a fragment of a frame still incomplete or
    /// a frame dropped as malformed (GM delivers every frame intact, so
    /// only a sender bug produces one).
    fn handle_event(&mut self, port: u8, ev: GmEvent) -> Option<IncomingMsg> {
        let GmEvent::Recv {
            src,
            data,
            arrival,
            size,
            ..
        } = ev;
        // Replenish the buffer class we just consumed, and pay the
        // connection demux.
        self.gm.clock().borrow_mut().advance(DEMUX);
        self.gm
            .provide_receive_buffer(port, size)
            .expect("replenish");
        let chan = if port == REQ_PORT {
            Chan::Request
        } else {
            Chan::Response
        };
        self.codec
            .accept(src, chan, &data, arrival)
            .unwrap_or_else(|Malformed| {
                self.gm.clock().borrow_mut().stats.malformed_dropped += 1;
                None
            })
    }
}

impl Substrate for FastSubstrate {
    fn my_id(&self) -> usize {
        self.gm.node()
    }

    fn nprocs(&self) -> usize {
        self.gm.nprocs()
    }

    fn clock(&self) -> &SharedClock {
        self.gm.clock()
    }

    fn params(&self) -> &Arc<SimParams> {
        self.gm.params()
    }

    fn scheme(&self) -> AsyncScheme {
        self.cfg.scheme
    }

    fn send(&mut self, to: usize, chan: Chan, data: &[u8], at: Option<Ns>) {
        let port = port_of(chan);
        for piece in self.codec.pieces(data, at) {
            self.push_frame(to, port, &piece.parts(), piece.at);
        }
    }

    fn response_cost(&self, len: usize) -> Ns {
        DEMUX
            + Ns::for_bytes(len, self.gm.params().host.fast_copy_mb_s)
            + self.gm.params().gm.send_overhead
    }

    fn poll(&mut self, chans: &[Chan]) -> Option<IncomingMsg> {
        for &chan in chans {
            let port = port_of(chan);
            // Incomplete or dropped frames surface nothing; keep polling.
            while let Some(ev) = self.gm.receive(port).expect("poll port") {
                if let Some(msg) = self.handle_event(port, ev) {
                    return Some(msg);
                }
            }
        }
        None
    }

    fn wait(&mut self, deadline: Option<Ns>) -> Wait<IncomingMsg> {
        loop {
            let Some((port, ev)) = self.gm.blocking_receive_by(&[REQ_PORT, REP_PORT], deadline)
            else {
                return Wait::Deadline;
            };
            if let Some(msg) = self.handle_event(port, ev) {
                return Wait::Got(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_gm::gm_cluster;
    use tm_sim::clock::shared_clock;
    use tmk::wire::pool;

    fn pair() -> (FastSubstrate, FastSubstrate) {
        let params = Arc::new(SimParams::paper_testbed());
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

    #[test]
    fn request_response_roundtrip() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"hello-req");
        let msg = b.next_incoming();
        assert_eq!(msg.chan, Chan::Request);
        assert_eq!(msg.data, b"hello-req");
        let at = msg.arrival + Ns::from_us(3);
        b.send_response_at(0, b"hello-rep", at);
        let rep = a.next_incoming();
        assert_eq!(rep.chan, Chan::Response);
        assert_eq!(rep.data, b"hello-rep");
        assert!(rep.arrival > at);
    }

    #[test]
    fn latency_is_near_calibration() {
        // One-way request latency should be ~9.4us (paper FAST/GM figure),
        // measured from just before the send (startup pins memory, which
        // costs real time too — but is not message latency).
        let (mut a, mut b) = pair();
        let t0 = a.clock().borrow().now();
        a.send_request(1, &[7u8; 1]);
        let msg = b.next_incoming();
        // Receiver-side user-visible delivery: arrival + the poll hit.
        let us = (msg.arrival - t0).as_us() + b.params().gm.recv_poll_hit.as_us();
        assert!(
            (8.0..11.0).contains(&us),
            "FAST one-way small-message latency {us:.2}us"
        );
    }

    /// A 20 KB response lands in a preposted class-15 buffer: nothing is
    /// registered per message, on either side.
    #[test]
    fn large_response_uses_a_preposted_buffer() {
        let (mut a, mut b) = pair();
        let pinned = (a.pinned_bytes(), b.pinned_bytes());
        let big = vec![0xCDu8; 20_000];
        a.send_request(1, b"want-big");
        let req = b.next_incoming();
        b.send_response_at(0, &big, req.arrival + Ns::from_us(10));
        let rep = a.next_incoming();
        assert_eq!(rep.data.len(), 20_000);
        assert!(rep.data.iter().all(|&x| x == 0xCD));
        assert_eq!((a.pinned_bytes(), b.pinned_bytes()), pinned);
    }

    /// E1's 32 KiB messages are the only FAST/GM traffic that fragments:
    /// the 32 769-byte stream cuts into a 32 766-byte and a 21-byte frame
    /// at the largest preposted class, and `results/e1.txt` prices both.
    #[test]
    fn a_32k_body_cuts_into_the_two_frames_e1_prices() {
        let (mut a, mut b) = pair();
        assert_eq!(tm_gm::gm_max_length(MAX_SIZE_CLASS), 32_767);
        let body = vec![0x5Au8; 32 * 1024];
        let lens: Vec<usize> = a
            .codec
            .pieces(&body, None)
            .map(|p| p.parts().iter().map(|s| s.len()).sum())
            .collect();
        assert_eq!(lens, [32_766, 21]);
        a.send_request(1, &body);
        assert_eq!(b.next_incoming().data, body);
    }

    #[test]
    fn steady_state_small_sends_reuse_both_pools() {
        // Once the pools are warm, a small request/response round trip
        // takes no fresh storage from either pool: every send gathers into
        // a recycled registered buffer and every receive surfaces in a
        // recycled wire buffer. (Not a zero-allocation claim: `GmNode::post`
        // still copies each send's payload into a fresh `Bytes`, which
        // neither pool counts.)
        let (mut a, mut b) = pair();
        // Warm-up: populate both DMA free lists and the wire pool.
        for _ in 0..4 {
            a.send_request(1, b"warm-up-msg");
            let req = b.next_incoming();
            b.send_response_at(0, b"warm-up-rep", req.arrival + Ns::from_us(2));
            let rep = a.next_incoming();
            pool::give(req.data);
            pool::give(rep.data);
        }
        let fresh_a = a.send_pool_fresh_takes();
        let fresh_b = b.send_pool_fresh_takes();
        pool::reset_stats();
        for _ in 0..64 {
            a.send_request(1, b"steady-state");
            let req = b.next_incoming();
            b.send_response_at(0, b"steady-reply", req.arrival + Ns::from_us(2));
            let rep = a.next_incoming();
            pool::give(req.data);
            pool::give(rep.data);
        }
        assert_eq!(
            a.send_pool_fresh_takes(),
            fresh_a,
            "sender allocated fresh DMA storage in steady state"
        );
        assert_eq!(
            b.send_pool_fresh_takes(),
            fresh_b,
            "responder allocated fresh DMA storage in steady state"
        );
        let stats = pool::stats();
        assert_eq!(stats.misses, 0, "receive surfacing missed the wire pool");
        assert!(stats.hits >= 128, "expected pooled receives, got {stats:?}");
    }

    #[test]
    fn a_request_poll_sees_only_arrived() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"later");
        assert!(
            b.poll(&[Chan::Request]).is_none(),
            "virtual time not reached"
        );
        b.clock().borrow_mut().advance(Ns::from_us(100));
        let msg = b.poll(&[Chan::Request]).expect("arrived by now");
        assert_eq!(msg.data, b"later");
    }

    #[test]
    fn two_ports_only() {
        // The whole point of connection multiplexing: the substrate uses
        // ports 1 and 2 regardless of cluster size.
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, board, nics) = gm_cluster(8, Arc::clone(&params));
        for nic in nics {
            let s = FastSubstrate::new(
                nic,
                shared_clock(),
                Arc::clone(&params),
                Arc::clone(&board),
                FastConfig::paper(&params),
            );
            assert!(s.gm().port_interrupts(REQ_PORT));
            assert!(!s.gm().port_interrupts(REP_PORT));
        }
    }
}
