//! UDP/GM: TreadMarks' stock sockets binding, as a [`Substrate`].
//!
//! Two UDP sockets per node mirror the original implementation's two
//! ports: one asynchronous (O_ASYNC — arrivals raise SIGIO) for requests,
//! one synchronous for responses. Every operation crosses the kernel;
//! compare with `FastSubstrate`, where the same operations stay in user
//! space.

use std::sync::Arc;

use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Wait};
use tmk::framing::{Codec, Malformed};
use tmk::wire::pool;
use tmk::{Chan, IncomingMsg, Substrate};

use crate::socket::{Datagram, UdpStack};

/// Socket number for asynchronous requests (SIGIO).
pub const REQ_SOCK: u16 = 1;
/// Socket number for synchronous responses.
pub const REP_SOCK: u16 = 2;

/// The socket `chan` travels on.
fn sock_of(chan: Chan) -> u16 {
    match chan {
        Chan::Request => REQ_SOCK,
        Chan::Response => REP_SOCK,
    }
}

/// Largest UDP datagram payload we send (IP reassembly limit, minus
/// headroom for the frame header).
pub const DGRAM_LIMIT: usize = 60 * 1024;

/// The per-node UDP/GM endpoint.
pub struct UdpSubstrate {
    udp: UdpStack,
    /// Frames of at most one datagram.
    codec: Codec,
}

impl UdpSubstrate {
    pub fn new(nic: tm_myrinet::NicHandle, clock: SharedClock, params: Arc<SimParams>) -> Self {
        let mut udp = UdpStack::new(nic, clock, params);
        udp.bind(REQ_SOCK, true);
        udp.bind(REP_SOCK, false);
        UdpSubstrate {
            udp,
            codec: Codec::new(DGRAM_LIMIT),
        }
    }

    /// Gather `parts` into a pooled buffer and push the datagram — no
    /// per-send frame allocation.
    fn send_dgram(&mut self, to: usize, sock: u16, parts: &[&[u8]], at: Option<Ns>) {
        let mut buf = pool::take(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            buf.extend_from_slice(p);
        }
        match at {
            None => self.udp.sendto(to, sock, sock, &buf),
            Some(t) => self.udp.sendto_at(to, sock, sock, &buf, t),
        }
        pool::give(buf);
    }

    /// Handle one datagram; `Some` when a full message is available. A
    /// malformed frame — one the codec cannot read — is counted and
    /// dropped.
    fn handle(&mut self, sock: u16, d: Datagram) -> Option<IncomingMsg> {
        let chan = if sock == REQ_SOCK {
            Chan::Request
        } else {
            Chan::Response
        };
        self.codec
            .accept(d.src, chan, &d.data, d.ready)
            .unwrap_or_else(|Malformed| {
                self.udp.clock().borrow_mut().stats.malformed_dropped += 1;
                None
            })
    }
}

impl Substrate for UdpSubstrate {
    fn my_id(&self) -> usize {
        self.udp.node()
    }

    fn nprocs(&self) -> usize {
        self.udp.nprocs()
    }

    fn clock(&self) -> &SharedClock {
        self.udp.clock()
    }

    fn params(&self) -> &Arc<SimParams> {
        self.udp.params()
    }

    fn scheme(&self) -> AsyncScheme {
        self.udp.params().sigio_scheme()
    }

    fn send(&mut self, to: usize, chan: Chan, data: &[u8], at: Option<Ns>) {
        let sock = sock_of(chan);
        for piece in self.codec.pieces(data, at) {
            self.send_dgram(to, sock, &piece.parts(), piece.at);
        }
    }

    fn response_cost(&self, len: usize) -> Ns {
        self.udp.tx_cost(len + 1)
    }

    fn poll(&mut self, chans: &[Chan]) -> Option<IncomingMsg> {
        for &chan in chans {
            let sock = sock_of(chan);
            while let Some(d) = self.udp.try_recvfrom(sock) {
                if let Some(msg) = self.handle(sock, d) {
                    return Some(msg);
                }
            }
        }
        None
    }

    fn wait(&mut self, deadline: Option<Ns>) -> Wait<IncomingMsg> {
        // One `recv` (one select()) per datagram: non-final fragments
        // and malformed frames are consumed here and the wait goes round
        // again under the same deadline.
        loop {
            let Wait::Got((sock, d)) = self.udp.recv(&[REQ_SOCK, REP_SOCK], deadline) else {
                return Wait::Deadline;
            };
            if let Some(msg) = self.handle(sock, d) {
                return Wait::Got(msg);
            }
        }
    }

    fn retransmit_timeout(&self) -> Option<Ns> {
        let p = self.udp.params();
        p.faults.unreliable().then_some(p.udp.rto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_myrinet::Fabric;
    use tm_sim::clock::shared_clock;

    fn pair() -> (UdpSubstrate, UdpSubstrate) {
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, mut nics) = Fabric::new(2, Arc::clone(&params));
        let b = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), Arc::clone(&params));
        let a = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), params);
        (a, b)
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"req");
        let msg = b.next_incoming();
        assert_eq!(msg.chan, Chan::Request);
        assert_eq!(msg.data, b"req");
        b.send_response_at(0, b"rep", msg.arrival + Ns::from_us(5));
        let rep = a.next_incoming();
        assert_eq!(rep.chan, Chan::Response);
        assert_eq!(rep.data, b"rep");
    }

    #[test]
    fn udp_latency_far_above_fast() {
        let (mut a, mut b) = pair();
        a.send_request(1, &[1u8]);
        let _ = b.next_incoming();
        // User-visible delivery time: kernel consume costs are charged by
        // next_incoming, so read the receiver's clock.
        let us = b.clock().borrow().now().as_us();
        assert!(
            us > 18.0,
            "UDP one-way latency {us:.1}us should dwarf GM's ~9us"
        );
    }

    #[test]
    fn sigio_scheme() {
        let (a, _) = pair();
        assert!(matches!(a.scheme(), AsyncScheme::Sigio { .. }));
    }
}
