//! The kernel UDP/IP socket model.
//!
//! Fault injection lives at this layer for the UDP path: every datagram
//! passes through `UdpStack::push_wire`, where the seeded per-node
//! fault stream decides drop / duplicate / reorder. A datagram's wire
//! image is its payload, with or without a fault stream. A dropped
//! datagram never reaches the wire: like a real one, it is silence, and
//! the requester recovers it with its own retransmission timer, as it
//! recovers a socket-buffer overflow. No corruption is injected: the
//! receiving kernel's checksum would turn a corrupted datagram into a
//! drop.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tm_myrinet::{NicHandle, NodeId, RawPacket};
use tm_sim::{Ns, SharedClock, SimParams, Wait};

/// Sockets live above the GM port namespace on the shared fabric.
pub const SOCKET_PORT_BASE: u16 = 1024;

/// Default socket receive-buffer capacity in datagrams (SO_RCVBUF-ish).
const SOCKBUF_DATAGRAMS: usize = 256;

/// Salt for the UDP datagram fault stream (see `FaultPlan::stream_seed`).
const FAULT_SALT_UDP: u64 = 0x0d47;

/// A datagram sitting in a socket's receive buffer.
#[derive(Debug, Clone)]
pub struct Datagram {
    pub src: NodeId,
    pub src_port: u16,
    pub data: Bytes,
    /// Virtual time at which the datagram is in the socket buffer:
    /// NIC arrival + receive interrupt + protocol processing + the copy
    /// into the socket buffer.
    pub ready: Ns,
}

struct SocketState {
    port: u16,
    queue: VecDeque<Datagram>,
    /// O_ASYNC: SIGIO on arrival. The signal's cost is charged by the
    /// substrate's async scheme at service time.
    pub sigio: bool,
}

/// One node's kernel socket layer. Owned by the node.
pub struct UdpStack {
    nic: NicHandle,
    clock: SharedClock,
    params: Arc<SimParams>,
    sockets: Vec<SocketState>,
    /// Fault-plan stream; `Some` only when the plan makes UDP unreliable
    /// ([`FaultPlan::unreliable`](tm_sim::FaultPlan::unreliable)), so
    /// zero-fault runs draw nothing and stay bit-identical.
    fault_rng: Option<SmallRng>,
    /// Receive-buffer depth (the fault plan can shrink it to force
    /// overflow pressure).
    sockbuf: usize,
    /// The NIC ports a blocking receive parks on, rebuilt in place on
    /// every park.
    filter: Vec<u16>,
}

impl UdpStack {
    pub fn new(nic: NicHandle, clock: SharedClock, params: Arc<SimParams>) -> Self {
        let f = &params.faults;
        let fault_rng = f
            .unreliable()
            .then(|| SmallRng::seed_from_u64(f.stream_seed(nic.node(), FAULT_SALT_UDP)));
        let sockbuf = if f.recvbuf_datagrams > 0 {
            f.recvbuf_datagrams
        } else {
            SOCKBUF_DATAGRAMS
        };
        UdpStack {
            nic,
            clock,
            params,
            sockets: Vec::new(),
            fault_rng,
            sockbuf,
            filter: Vec::new(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.nic.node()
    }

    pub fn nprocs(&self) -> usize {
        self.nic.fabric().nprocs()
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    pub fn params(&self) -> &Arc<SimParams> {
        &self.params
    }

    /// `socket() + bind()`: claim a local port. `sigio` models O_ASYNC.
    pub fn bind(&mut self, port: u16, sigio: bool) {
        assert!(
            !self.sockets.iter().any(|s| s.port == port),
            "port {port} already bound"
        );
        // Two syscalls: socket(), bind().
        let syscall = self.params.host.syscall;
        self.clock.borrow_mut().advance(syscall * 2);
        self.sockets.push(SocketState {
            port,
            queue: VecDeque::new(),
            sigio,
        });
    }

    fn fragments(&self, len: usize) -> u64 {
        tmk::framing::fragment_count(len, self.params.udp.mtu) as u64
    }

    /// `sendto()`: copy into the kernel, fragment, and inject. Like real
    /// UDP it tells the sender nothing about the datagram's fate: a drop
    /// reaches nobody, and the requester learns of it only from its own
    /// timer.
    pub fn sendto(&mut self, dst: NodeId, dst_port: u16, src_port: u16, data: &[u8]) {
        let cost = self.tx_cost(data.len());
        self.clock.borrow_mut().advance(cost);
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        // The kernel path still crosses the NIC.
        let inject = self.clock.borrow().now() + self.params.net.nic_tx;
        self.push_wire(dst, dst_port, src_port, data, inject)
    }

    /// Like [`sendto`](UdpStack::sendto) but injects at virtual time `at`
    /// without charging the clock — for responses emitted from signal
    /// handlers whose kernel work was already accounted by the caller
    /// (fold [`UdpStack::tx_cost`] into the handler's service time).
    pub fn sendto_at(&mut self, dst: NodeId, dst_port: u16, src_port: u16, data: &[u8], at: Ns) {
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        let inject = at + self.params.net.nic_tx;
        self.push_wire(dst, dst_port, src_port, data, inject)
    }

    /// Put one datagram on the wire, applying the fault plan: its stream
    /// may drop the datagram (it is counted, copied nowhere and sent
    /// nowhere), delay it past later traffic, or deliver it twice.
    fn push_wire(&mut self, dst: NodeId, dst_port: u16, src_port: u16, data: &[u8], inject: Ns) {
        let (mut at, mut twice) = (inject, false);
        if let Some(r) = self.fault_rng.as_mut() {
            let f = &self.params.faults;
            if f.drop_probability > 0.0 && r.random::<f64>() < f.drop_probability {
                self.clock.borrow_mut().stats.dgrams_dropped += 1;
                return;
            }
            if f.reorder_probability > 0.0 && r.random::<f64>() < f.reorder_probability {
                at += f.reorder_delay;
                self.clock.borrow_mut().stats.dgrams_reordered += 1;
            }
            twice = f.duplicate_probability > 0.0 && r.random::<f64>() < f.duplicate_probability;
        }
        let sp = SOCKET_PORT_BASE + src_port;
        let dp = SOCKET_PORT_BASE + dst_port;
        let payload = Bytes::copy_from_slice(data);
        let echo = twice.then(|| payload.clone());
        self.nic.inject(dst, sp, dp, payload, at, None);
        if let Some(copy) = echo {
            self.clock.borrow_mut().stats.dgrams_duplicated += 1;
            self.nic.inject(dst, sp, dp, copy, at + Ns(1), None);
        }
    }

    /// Host-side transmit cost of a datagram of `len` bytes (what
    /// [`sendto`](UdpStack::sendto) charges).
    pub fn tx_cost(&self, len: usize) -> Ns {
        let p = &self.params;
        let frags = self.fragments(len);
        p.host.syscall
            + p.udp.tx_proto
            + Ns::for_bytes(len, p.host.memcpy_mb_s)
            + Ns(p.udp.per_fragment.0 * (frags - 1))
    }

    /// Kernel cost between NIC arrival and the datagram becoming visible
    /// (the first receive interrupt fires regardless of what the CPU is
    /// doing).
    fn rx_kernel_cost(&self, _len: usize) -> Ns {
        self.params.udp.rx_interrupt
    }

    /// Kernel work consumed *serially on the CPU* to deliver one datagram:
    /// protocol processing, the per-fragment interrupts and bookkeeping
    /// beyond the first, the copy into the socket buffer and the copy out
    /// to user space. This is what caps sockets-over-GM streaming
    /// bandwidth well below the wire.
    fn rx_consume_cost(&self, len: usize) -> Ns {
        let p = &self.params;
        let frags = self.fragments(len);
        p.udp.rx_proto
            + Ns((p.udp.per_fragment.0 + p.udp.rx_interrupt.0) * (frags - 1))
            + Ns::for_bytes(len, p.host.memcpy_mb_s) * 2
    }

    /// Admit one NIC packet into its socket buffer, or drop it on
    /// overflow. The single admission point for both the polled drain and
    /// the blocking park path.
    fn admit(&mut self, pkt: RawPacket) {
        let port = pkt.dst_port - SOCKET_PORT_BASE;
        if !self.sockets.iter().any(|s| s.port == port) {
            // No such socket: the kernel discards (ICMP unreachable elided).
            return;
        }
        let ready = pkt.arrival + self.rx_kernel_cost(pkt.payload.len());
        let sockbuf = self.sockbuf;
        let sock = self
            .sockets
            .iter_mut()
            .find(|s| s.port == port)
            .expect("bound");
        if sock.queue.len() >= sockbuf {
            // Socket buffer overflow: silently dropped, like real UDP.
            self.clock.borrow_mut().stats.dgrams_dropped += 1;
            return;
        }
        sock.queue.push_back(Datagram {
            src: pkt.src,
            src_port: pkt.src_port - SOCKET_PORT_BASE,
            data: pkt.payload,
            ready,
        });
    }

    /// Pull NIC arrivals into socket buffers.
    fn drain(&mut self) {
        // By index: `admit` needs `&mut self`, and this runs on every poll.
        for i in 0..self.sockets.len() {
            let port = self.sockets[i].port;
            while let Some(pkt) = self.nic.poll_port(SOCKET_PORT_BASE + port) {
                self.admit(pkt);
            }
        }
    }

    fn sock_mut(&mut self, port: u16) -> &mut SocketState {
        self.sockets
            .iter_mut()
            .find(|s| s.port == port)
            .unwrap_or_else(|| panic!("port {port} not bound"))
    }

    /// Non-blocking `recvfrom(MSG_DONTWAIT)`: returns a datagram whose
    /// kernel processing completed by the node's current virtual time. A
    /// poll is a receive with deadline *now* (as `GmNode::receive` is in
    /// `tm-gm`); a miss costs the syscall.
    pub fn try_recvfrom(&mut self, port: u16) -> Option<Datagram> {
        let now = self.clock.borrow().now();
        let Some(port) = self.ready_by(&[port], Some(now)) else {
            self.clock.borrow_mut().advance(self.params.host.syscall);
            return None;
        };
        Some(self.pop_ready(port).1)
    }

    /// Earliest-ready datagram across `ports`, if any is queued (ignoring
    /// virtual readiness — used by blocking paths which then wait).
    fn earliest_queued(&mut self, ports: &[u16]) -> Option<(u16, Ns)> {
        self.drain();
        let mut best: Option<(u16, Ns)> = None;
        for s in &self.sockets {
            if ports.contains(&s.port) {
                if let Some(d) = s.queue.front() {
                    if best.is_none_or(|(_, r)| d.ready < r) {
                        best = Some((s.port, d.ready));
                    }
                }
            }
        }
        best
    }

    /// Pop the front datagram of `port`, waiting (in virtual time) for it
    /// to become ready and charging delivery costs.
    fn pop_ready(&mut self, port: u16) -> (u16, Datagram) {
        let p = self.params.clone();
        let ready = self.sock_mut(port).queue.front().expect("non-empty").ready;
        let was_waiting = {
            let mut c = self.clock.borrow_mut();
            let waited = ready > c.now();
            c.wait_until(ready);
            waited
        };
        let d = self.sock_mut(port).queue.pop_front().expect("non-empty");
        if was_waiting {
            // The kernel had to wake us.
            self.clock.borrow_mut().advance(p.host.sched_wakeup);
        }
        let consume = self.rx_consume_cost(d.data.len());
        self.clock.borrow_mut().advance(p.host.syscall + consume);
        let mut c = self.clock.borrow_mut();
        c.stats.msgs_recv += 1;
        c.stats.bytes_recv += d.data.len() as u64;
        drop(c);
        (port, d)
    }

    /// Blocking `recvfrom()` on one port.
    pub fn recvfrom(&mut self, port: u16) -> Datagram {
        self.recv(&[port], None).got().1
    }

    /// `select()` + `recvfrom()`, the one blocking receive: wait for a
    /// datagram to become ready on any of `ports`, or — when `deadline`
    /// is set — until that *virtual* time (the DSM's retransmission timer
    /// runs on this; determinism requires the timeout to be virtual).
    ///
    /// Charges the select syscall once per call, plus a scheduler wakeup
    /// and the delivery costs if a datagram is handed over. A datagram
    /// that becomes ready only after the deadline stays queued: the timer
    /// fires first. On [`Wait::Deadline`] the clock has advanced to the
    /// deadline.
    pub fn recv(&mut self, ports: &[u16], deadline: Option<Ns>) -> Wait<(u16, Datagram)> {
        self.clock.borrow_mut().advance(self.params.host.syscall); // select()
        let Some(port) = self.ready_by(ports, deadline) else {
            let deadline = deadline.expect("only a wait with a deadline times out");
            self.clock.borrow_mut().wait_until(deadline);
            return Wait::Deadline;
        };
        Wait::Got(self.pop_ready(port))
    }

    /// The socket of `ports` whose front datagram is ready first, once one
    /// is ready by `deadline`; `None` once the NIC reports the deadline
    /// ([`NicHandle::wait`], the one receive rule). Charges nothing.
    fn ready_by(&mut self, ports: &[u16], deadline: Option<Ns>) -> Option<u16> {
        loop {
            if let Some((port, ready)) = self.earliest_queued(ports) {
                if deadline.is_none_or(|d| ready <= d) {
                    return Some(port);
                }
            }
            self.filter.clear();
            self.filter
                .extend(ports.iter().map(|p| SOCKET_PORT_BASE + p));
            match self.nic.wait(Some(&self.filter), deadline) {
                Wait::Got(pkt) => self.admit(pkt),
                Wait::Deadline => return None,
            }
        }
    }

    /// Does any bound SIGIO socket have traffic (regardless of virtual
    /// readiness)? The substrate uses this to decide whether a signal
    /// would have been raised.
    pub fn sigio_pending(&mut self) -> bool {
        self.drain();
        self.sockets.iter().any(|s| s.sigio && !s.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_myrinet::Fabric;
    use tm_sim::clock::shared_clock;
    use tm_sim::FaultPlan;

    fn stacks(n: usize) -> Vec<UdpStack> {
        stacks_with(n, SimParams::paper_testbed())
    }

    fn stacks_with(n: usize, params: SimParams) -> Vec<UdpStack> {
        let params = Arc::new(params);
        let (_fabric, nics) = Fabric::new(n, Arc::clone(&params));
        nics.into_iter()
            .map(|nic| UdpStack::new(nic, shared_clock(), Arc::clone(&params)))
            .collect()
    }

    #[test]
    fn sendto_recvfrom_roundtrip() {
        let mut s = stacks(2);
        let (mut a, mut b) = {
            let b = s.pop().unwrap();
            (s.pop().unwrap(), b)
        };
        a.bind(7, false);
        b.bind(9, false);
        a.sendto(1, 9, 7, b"ping");
        assert_eq!(a.clock().borrow().stats.dgrams_dropped, 0);
        let d = b.recvfrom(9);
        assert_eq!(&d.data[..], b"ping");
        assert_eq!(d.src, 0);
        assert_eq!(d.src_port, 7);
        // UDP latency must be well above raw GM's ~9us.
        assert!(b.clock().borrow().now() > Ns::from_us(15));
    }

    #[test]
    fn nonblocking_respects_virtual_time() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        a.sendto(1, 2, 1, b"x");
        assert!(b.try_recvfrom(2).is_none(), "kernel path not done yet");
        b.clock().borrow_mut().advance(Ns::from_us(200));
        assert!(b.try_recvfrom(2).is_some());
    }

    #[test]
    fn recv_selects_earliest() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        b.bind(3, false);
        a.sendto(1, 2, 1, b"first");
        a.sendto(1, 3, 1, b"second");
        let (port, d) = b.recv(&[2, 3], None).got();
        assert_eq!(port, 2);
        assert_eq!(&d.data[..], b"first");
    }

    /// A dropped datagram is silence: a blocking receive sits out its
    /// whole timer, a poll finds nothing however late it looks, and the
    /// receiver counts nothing received.
    #[test]
    fn a_dropped_datagram_reaches_nobody() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                drop_probability: 1.0,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        a.sendto(1, 2, 1, b"doomed");
        assert_eq!(a.clock().borrow().stats.dgrams_dropped, 1);
        let got = b.recv(&[2], Some(Ns::from_ms(10)));
        assert!(matches!(got, Wait::Deadline), "{got:?}");
        assert_eq!(b.clock().borrow().now(), Ns::from_ms(10));
        a.sendto(1, 2, 1, b"doomed too");
        assert_eq!(a.clock().borrow().stats.dgrams_dropped, 2);
        assert!(b.try_recvfrom(2).is_none());
        assert_eq!(b.clock().borrow().stats.msgs_recv, 0);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                duplicate_probability: 1.0,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        a.sendto(1, 2, 1, b"twice");
        let stats = a.clock().borrow().stats.clone();
        assert_eq!((stats.dgrams_dropped, stats.dgrams_duplicated), (0, 1));
        let (_, d1) = b.recv(&[2], None).got();
        let (_, d2) = b.recv(&[2], None).got();
        assert_eq!(&d1.data[..], b"twice");
        assert_eq!(&d2.data[..], b"twice");
    }

    #[test]
    fn recvbuf_pressure_forces_overflow() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                recvbuf_datagrams: 2,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        for _ in 0..5 {
            a.sendto(1, 2, 1, b"flood");
        }
        b.clock().borrow_mut().advance(Ns::from_ms(10));
        let mut got = 0;
        while b.try_recvfrom(2).is_some() {
            got += 1;
        }
        assert_eq!(got, 2, "only the buffer depth survives");
        assert_eq!(b.clock().borrow().stats.dgrams_dropped, 3);
    }

    /// A deadline wait whose timer fires first: over a silent wire, and
    /// ahead of a datagram that is already queued but becomes ready only
    /// after the deadline. Either way the clock has advanced to the deadline
    /// (virtual, not wall time) and nothing is consumed.
    #[test]
    fn recv_deadline_fires_before_silence_and_late_arrivals() {
        for late_arrival in [false, true] {
            let mut s = stacks(2);
            let mut b = s.pop().unwrap();
            let mut a = s.pop().unwrap();
            a.bind(1, false);
            b.bind(2, false);
            let wait = if late_arrival {
                // Ready ~tens of µs in; the deadline is far earlier.
                a.sendto(1, 2, 1, b"late");
                Ns(10)
            } else {
                Ns::from_us(500)
            };
            let deadline = b.clock().borrow().now() + wait;
            let got = b.recv(&[2], Some(deadline));
            assert!(
                matches!(got, Wait::Deadline),
                "late_arrival={late_arrival}: {got:?}"
            );
            assert!(b.clock().borrow().now() >= deadline);
            if late_arrival {
                // The datagram is still there for a later receive.
                assert_eq!(&b.recvfrom(2).data[..], b"late");
            }
        }
    }

    #[test]
    fn sigio_pending_only_for_async_sockets() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false); // synchronous socket
        b.bind(3, true); // SIGIO socket
        a.sendto(1, 2, 1, b"sync");
        assert!(!b.sigio_pending());
        a.sendto(1, 3, 1, b"async");
        assert!(b.sigio_pending());
    }

    #[test]
    fn large_datagram_charges_fragment_costs() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        let t0 = a.clock().borrow().now();
        a.sendto(1, 2, 1, &vec![0u8; 32 * 1024]);
        let tx_cost = a.clock().borrow().now() - t0;
        // 8 fragments: 7 * per_fragment beyond base costs.
        assert!(tx_cost > Ns::from_us(14), "tx cost {tx_cost}");
        let d = b.recvfrom(2);
        assert_eq!(d.data.len(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut s = stacks(1);
        let mut a = s.pop().unwrap();
        a.bind(5, false);
        a.bind(5, false);
    }
}
