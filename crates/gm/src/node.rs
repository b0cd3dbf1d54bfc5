//! The per-node GM endpoint: ports, tokens, preposted buffers, sends,
//! polled receives, and the resend-timeout failure mode.
//!
//! A node learns of a rejected send the way every other fact about a peer
//! reaches it: by a packet. When a packet has waited at its receiver past
//! `gm.resend_timeout` without a buffer, the receiving NIC drops it and
//! sends its sender a NACK naming the sending port; the sender disables
//! that port when it next looks.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use tm_myrinet::{Fabric, NicHandle, NodeId, RawPacket};
use tm_sim::{Ns, SharedClock, SimParams, Wait};

use crate::memory::{PooledBuf, RegBook};
use crate::size::gm_size;

/// Max ports per NIC (GM exposes 8).
pub const NUM_PORTS: u8 = 8;
/// Port 0 belongs to the GM mapper daemon.
pub const MAPPER_PORT: u8 = 0;
/// What a blocked node listens on: every GM port, whatever ports the
/// caller asked for — an arrival on any of them is admitted (or left
/// unmatched) by `sort_arrivals` before the node looks again.
const GM_PORTS: [u16; NUM_PORTS as usize - 1] = [1, 2, 3, 4, 5, 6, 7];
/// The NIC port a NACK travels on: outside GM's user ports, so no receive
/// ever hands one over. Its one payload byte is the rejected sending port.
const NACK_PORT: u16 = NUM_PORTS as u16;

/// Errors surfaced by the GM API model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GmError {
    /// Port number out of range.
    BadPort(u8),
    /// Port 0 is reserved for the mapper (§2.1: "one of them is reserved
    /// for the mapper. That gives us only seven ports").
    MapperReserved,
    /// Port already open.
    PortInUse(u8),
    /// Port not open.
    PortClosed(u8),
    /// All send tokens outstanding.
    NoSendTokens,
    /// The port was disabled by a send failure and must be re-enabled.
    PortDisabled(u8),
}

/// Events returned by [`GmNode::receive`].
#[derive(Debug)]
pub enum GmEvent {
    /// A message landed in a preposted buffer.
    Recv {
        src: NodeId,
        src_port: u8,
        size: u8,
        data: Bytes,
        /// Virtual time the message was fully in host memory.
        arrival: Ns,
    },
}

/// Holds nothing: a rejected send reaches its sender as a NACK. The type
/// and the parameter of [`gm_cluster`] and [`GmNode::new`] that carry it
/// remain only because the repo benchmark's NIC rung passes one on.
pub struct FailureBoard;

impl FailureBoard {
    pub fn new() -> Arc<Self> {
        Arc::new(FailureBoard)
    }
}

/// Per-port state.
struct PortState {
    /// The firmware modification of §2.2.4: raise a host interrupt when a
    /// message arrives on this port. Plain GM has no such thing.
    interrupt_on_recv: bool,
    send_tokens: usize,
    /// Virtual times at which in-flight sends hand their token back.
    token_returns: Vec<Ns>,
    /// Preposted receive-buffer counts, indexed by size class.
    recv_buffers: [u32; 32],
    /// Arrived packets with no matching preposted buffer (yet).
    unmatched: VecDeque<RawPacket>,
    /// Matched packets ready to be returned by `receive`.
    ready: VecDeque<RawPacket>,
    disabled: bool,
}

impl PortState {
    /// Take a preposted buffer of the size class of a `len`-byte message,
    /// if one is left.
    fn take_buffer(&mut self, len: usize) -> bool {
        let free = &mut self.recv_buffers[gm_size(len) as usize];
        if *free == 0 {
            return false;
        }
        *free -= 1;
        true
    }

    /// Retry the unmatched packets in queue order against buffers provided
    /// since: a match moves to `ready`, a packet past the sender's resend
    /// window is rejected — `nic` sends its sender a NACK at `now`, charging
    /// no host time — and the rest stay where they are. A poll that changes
    /// nothing moves and allocates nothing; an emptied queue gives its
    /// capacity back, so a burst's deque does not outlive the burst.
    fn retry_unmatched(&mut self, now: Ns, timeout: Ns, nic: &NicHandle) {
        let mut i = 0;
        while i < self.unmatched.len() {
            let (len, arrival) = (self.unmatched[i].payload.len(), self.unmatched[i].arrival);
            if self.take_buffer(len) {
                let pkt = self.unmatched.remove(i).expect("in range");
                self.ready.push_back(pkt);
            } else if now.saturating_sub(arrival) > timeout {
                let pkt = self.unmatched.remove(i).expect("in range");
                let nack = Bytes::copy_from_slice(&[pkt.src_port as u8]);
                nic.inject(pkt.src, NACK_PORT, NACK_PORT, nack, now, None);
            } else {
                i += 1;
            }
        }
        if self.unmatched.is_empty() {
            self.unmatched = VecDeque::new();
        }
    }
}

/// One node's GM endpoint. Owned by the node.
pub struct GmNode {
    nic: NicHandle,
    clock: SharedClock,
    params: Arc<SimParams>,
    ports: Vec<Option<PortState>>,
    /// Registered-memory book for this node.
    pub book: RegBook,
}

/// Build the GM-level cluster state: the fabric, a [`FailureBoard`] (which
/// holds nothing) and the per-node NIC handles. Each node body then wraps
/// its handle with [`GmNode::new`].
pub fn gm_cluster(
    n: usize,
    params: Arc<SimParams>,
) -> (Rc<Fabric>, Arc<FailureBoard>, Vec<NicHandle>) {
    let (fabric, nics) = Fabric::new(n, params);
    (fabric, FailureBoard::new(), nics)
}

impl GmNode {
    /// `pin_limit`: bytes of physical memory this node may pin. `_board`
    /// is unused.
    pub fn new(
        nic: NicHandle,
        clock: SharedClock,
        params: Arc<SimParams>,
        _board: Arc<FailureBoard>,
        pin_limit: usize,
    ) -> Self {
        let book = RegBook::new(clock.clone(), &params, pin_limit);
        GmNode {
            nic,
            clock,
            params,
            ports: (0..NUM_PORTS).map(|_| None).collect(),
            book,
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

    /// Open a port. `interrupt_on_recv` models the modified firmware; stock
    /// GM passes `false`.
    pub fn open_port(&mut self, port: u8, interrupt_on_recv: bool) -> Result<(), GmError> {
        if port >= NUM_PORTS {
            return Err(GmError::BadPort(port));
        }
        if port == MAPPER_PORT {
            return Err(GmError::MapperReserved);
        }
        let slot = &mut self.ports[port as usize];
        if slot.is_some() {
            return Err(GmError::PortInUse(port));
        }
        *slot = Some(PortState {
            interrupt_on_recv,
            send_tokens: self.params.gm.send_tokens,
            token_returns: Vec::new(),
            recv_buffers: [0; 32],
            unmatched: VecDeque::new(),
            ready: VecDeque::new(),
            disabled: false,
        });
        Ok(())
    }

    pub fn port_interrupts(&self, port: u8) -> bool {
        self.ports[port as usize]
            .as_ref()
            .is_some_and(|p| p.interrupt_on_recv)
    }

    fn port_mut(&mut self, port: u8) -> Result<&mut PortState, GmError> {
        if port >= NUM_PORTS {
            return Err(GmError::BadPort(port));
        }
        self.ports[port as usize]
            .as_mut()
            .ok_or(GmError::PortClosed(port))
    }

    /// Prepost a receive buffer of the given size class. GM requires the
    /// buffer to be registered; the substrate registers its slabs through
    /// [`RegBook`] and this call only hands the NIC the token.
    pub fn provide_receive_buffer(&mut self, port: u8, size: u8) -> Result<(), GmError> {
        let p = self.port_mut(port)?;
        p.recv_buffers[size as usize] += 1;
        Ok(())
    }

    /// Reap tokens whose sends completed by `now`.
    fn reap_tokens(p: &mut PortState, now: Ns) {
        p.token_returns.retain(|&t| {
            if t <= now {
                p.send_tokens += 1;
                false
            } else {
                true
            }
        });
    }

    /// `gm_send_with_callback`: send `len` bytes of `buf` to
    /// `(dst, dst_port)`. The buffer must come from registered memory
    /// ([`PooledBuf`] is the proof). Returns the injection time.
    pub fn send(
        &mut self,
        port: u8,
        dst: NodeId,
        dst_port: u8,
        buf: &PooledBuf,
        len: usize,
    ) -> Result<Ns, GmError> {
        self.post(port, dst, dst_port, buf, len, None)
    }

    /// Like [`send`](GmNode::send) but injects at virtual time `at` without
    /// charging the clock — for responses emitted from request handlers,
    /// whose host work was already accounted through the service window.
    pub fn send_at(
        &mut self,
        port: u8,
        dst: NodeId,
        dst_port: u8,
        buf: &PooledBuf,
        len: usize,
        at: Ns,
    ) -> Result<Ns, GmError> {
        self.post(port, dst, dst_port, buf, len, Some(at))
    }

    /// The one send: take a token and hand `buf[..len]` to the NIC — at
    /// `at` with the host's work already charged, or now, charging
    /// `send_overhead`.
    fn post(
        &mut self,
        port: u8,
        dst: NodeId,
        dst_port: u8,
        buf: &PooledBuf,
        len: usize,
        at: Option<Ns>,
    ) -> Result<Ns, GmError> {
        assert!(len <= buf.data.len());
        // Take the NACKs first: a rejected earlier send disables the port
        // before anything else can happen on it.
        self.absorb_nacks();
        let when = at.unwrap_or_else(|| self.clock.borrow().now());
        if self.params.faults.token_starved(when) {
            // Injected starvation window: behave exactly as if every
            // token were outstanding.
            return Err(GmError::NoSendTokens);
        }
        let p = self.port_mut(port)?;
        if p.disabled {
            return Err(GmError::PortDisabled(port));
        }
        Self::reap_tokens(p, when);
        if p.send_tokens == 0 {
            return Err(GmError::NoSendTokens);
        }
        p.send_tokens -= 1;
        let start = match at {
            Some(t) => t,
            None => {
                // Host builds the descriptor and rings the doorbell…
                let mut c = self.clock.borrow_mut();
                c.advance(self.params.gm.send_overhead);
                c.now()
            }
        };
        let inject = start + self.params.net.nic_tx;
        // …then the NIC DMAs and drives the wire off-host.
        let payload = Bytes::copy_from_slice(&buf.data[..len]);
        self.nic
            .inject(dst, port as u16, dst_port as u16, payload, inject, None);
        self.port_mut(port)?.token_returns.push(inject);
        let mut c = self.clock.borrow_mut();
        c.stats.msgs_sent += 1;
        c.stats.bytes_sent += len as u64;
        Ok(inject)
    }

    /// Disable every port a NACK in the inbox names. A NACK counts once it
    /// has landed, whatever its arrival: the fabric delivered it in key
    /// order, so the rejection it reports has happened.
    fn absorb_nacks(&mut self) {
        let ports = &mut self.ports;
        self.nic.drain_ports(&[NACK_PORT], |nack| {
            if let Some(p) = ports[nack.payload[0] as usize].as_mut() {
                p.disabled = true;
            }
        });
    }

    /// Was this port disabled by a send failure?
    pub fn port_disabled(&mut self, port: u8) -> bool {
        self.absorb_nacks();
        self.ports[port as usize]
            .as_ref()
            .is_some_and(|p| p.disabled)
    }

    /// Re-enable a disabled port. Expensive: GM probes the network
    /// (§2.1: "an expensive operation requiring GM to probe the network").
    pub fn reenable_port(&mut self, port: u8) -> Result<(), GmError> {
        let cost = self.params.gm.port_reenable;
        let p = self.port_mut(port)?;
        p.disabled = false;
        self.clock.borrow_mut().advance(cost);
        Ok(())
    }

    /// Admit one arrived packet: it takes a preposted buffer of its size
    /// class, or waits unmatched for one.
    fn admit(ports: &mut [Option<PortState>], pkt: RawPacket) {
        if let Some(p) = ports[pkt.dst_port as usize].as_mut() {
            if p.take_buffer(pkt.payload.len()) {
                p.ready.push_back(pkt);
            } else {
                p.unmatched.push_back(pkt);
            }
        } // packets to closed ports vanish (GM drops them)
    }

    /// Sort newly arrived packets into per-port state: admit everything the
    /// NIC holds for a GM port (ports in number order, each in arrival
    /// order), then retry each port's unmatched packets in place. The order
    /// is part of the model — a fresh arrival takes a just-provided buffer
    /// ahead of an older unmatched packet of its class.
    fn sort_arrivals(&mut self) {
        let ports = &mut self.ports;
        self.nic
            .drain_ports(&GM_PORTS, |pkt| Self::admit(ports, pkt));
        let now = self.clock.borrow().now();
        let timeout = self.params.gm.resend_timeout;
        for p in self.ports.iter_mut().flatten() {
            p.retry_unmatched(now, timeout, &self.nic);
        }
    }

    /// Hand over the front ready packet of `port`: the clock waits for its
    /// arrival (a poll takes only a packet that has arrived, so there it
    /// stays put), charges the poll hit and counts the message.
    fn take_ready(&mut self, port: u8) -> GmEvent {
        let pkt = self.ports[port as usize]
            .as_mut()
            .and_then(|p| p.ready.pop_front())
            .expect("a ready packet");
        let mut c = self.clock.borrow_mut();
        c.wait_until(pkt.arrival);
        c.advance(self.params.gm.recv_poll_hit);
        c.stats.msgs_recv += 1;
        c.stats.bytes_recv += pkt.payload.len() as u64;
        GmEvent::Recv {
            src: pkt.src,
            src_port: pkt.src_port as u8,
            size: gm_size(pkt.payload.len()),
            data: pkt.payload,
            arrival: pkt.arrival,
        }
    }

    /// Poll one port (`gm_receive`): a message whose arrival is at or
    /// before the node's current virtual time, if any. A poll is a receive
    /// with deadline *now* ([`blocking_receive_by`](GmNode::blocking_receive_by)),
    /// plus the miss's cost.
    pub fn receive(&mut self, port: u8) -> Result<Option<GmEvent>, GmError> {
        self.port_mut(port)?;
        let now = self.clock.borrow().now();
        let got = self.blocking_receive_by(&[port], Some(now));
        if got.is_none() {
            let miss = self.params.gm.recv_poll_miss;
            self.clock.borrow_mut().advance(miss);
        }
        Ok(got.map(|(_, ev)| ev))
    }

    /// Block until a message is available on any of `ports`; advances the
    /// clock to the message's arrival (plus the poll-hit cost). Returns
    /// `(port, event)`.
    pub fn blocking_receive(&mut self, ports: &[u8]) -> (u8, GmEvent) {
        self.blocking_receive_by(ports, None)
            .expect("a receive without a deadline ends in a message")
    }

    /// [`blocking_receive`](GmNode::blocking_receive) that gives up at
    /// virtual time `deadline`: `None`, with the clock at the deadline,
    /// unless a message arrives by then.
    ///
    /// The clock moves only to an arrival it hands over or to a deadline
    /// the scheduler released. While a packet on `ports` waits unmatched,
    /// its sender's resend timer is a deadline of the park too: if nothing
    /// lands first, the clock moves there and the packet is rejected.
    pub fn blocking_receive_by(
        &mut self,
        ports: &[u8],
        deadline: Option<Ns>,
    ) -> Option<(u8, GmEvent)> {
        loop {
            self.absorb_nacks();
            self.sort_arrivals();
            // Earliest ready packet across the requested ports.
            let mut best: Option<(u8, Ns)> = None;
            for &port in ports {
                if let Some(p) = self.ports[port as usize].as_ref() {
                    if let Some(pkt) = p.ready.front() {
                        if best.is_none_or(|(_, a)| pkt.arrival < a) {
                            best = Some((port, pkt.arrival));
                        }
                    }
                }
            }
            if let Some((port, _)) = best.filter(|&(_, a)| deadline.is_none_or(|d| a <= d)) {
                return Some((port, self.take_ready(port)));
            }
            // Nothing due: park on the NIC until a packet lands, the
            // deadline passes or the earliest unmatched packet's resend
            // timer fires, whichever the scheduler orders first.
            let timer = ports
                .iter()
                .filter_map(|&port| self.ports[port as usize].as_ref()?.unmatched.front())
                .map(|pkt| pkt.arrival + self.params.gm.resend_timeout + Ns(1))
                .min();
            let until = [deadline, timer].into_iter().flatten().min();
            match self.nic.wait(Some(&GM_PORTS), until) {
                Wait::Got(pkt) => Self::admit(&mut self.ports, pkt),
                Wait::Deadline if until == timer => {
                    let fired = timer.expect("the timer is set");
                    self.clock.borrow_mut().wait_until(fired);
                }
                Wait::Deadline => break,
            }
        }
        let deadline = deadline.expect("only a receive with a deadline times out");
        self.clock.borrow_mut().wait_until(deadline);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::clock::shared_clock;

    /// A hand-driven `n`-node GM cluster.
    fn gm_nodes(n: usize) -> Vec<GmNode> {
        let params = Arc::new(SimParams::paper_testbed());
        let (_fabric, board, nics) = gm_cluster(n, Arc::clone(&params));
        let node = |nic| {
            let params = Arc::clone(&params);
            GmNode::new(nic, shared_clock(), params, Arc::clone(&board), 64 << 20)
        };
        nics.into_iter().map(node).collect()
    }

    fn two_nodes() -> (GmNode, GmNode) {
        let mut nodes = gm_nodes(2);
        let b = nodes.pop().unwrap();
        (nodes.pop().unwrap(), b)
    }

    fn pooled(node: &mut GmNode, data: &[u8]) -> PooledBuf {
        let mut pool = crate::memory::DmaPool::new(&mut node.book, 4, data.len().max(64)).unwrap();
        pool.take(data).unwrap()
    }

    #[test]
    fn port_rules() {
        let (mut a, _b) = two_nodes();
        assert_eq!(a.open_port(0, false), Err(GmError::MapperReserved));
        assert_eq!(a.open_port(9, false), Err(GmError::BadPort(9)));
        assert_eq!(a.open_port(2, false), Ok(()));
        assert_eq!(a.open_port(2, false), Err(GmError::PortInUse(2)));
    }

    #[test]
    fn send_and_blocking_receive() {
        let (mut a, mut b) = two_nodes();
        a.open_port(2, false).unwrap();
        b.open_port(3, false).unwrap();
        b.provide_receive_buffer(3, gm_size(5)).unwrap();
        let buf = pooled(&mut a, b"hello");
        a.send(2, 1, 3, &buf, 5).unwrap();
        let (port, ev) = b.blocking_receive(&[3]);
        assert_eq!(port, 3);
        let GmEvent::Recv { src, data, .. } = ev;
        assert_eq!(src, 0);
        assert_eq!(&data[..], b"hello");
        // The receiver's clock advanced to at least the arrival.
        assert!(b.clock().borrow().now() > Ns::from_us(5));
    }

    #[test]
    fn receive_poll_respects_virtual_time() {
        let (mut a, mut b) = two_nodes();
        a.open_port(2, false).unwrap();
        b.open_port(3, false).unwrap();
        b.provide_receive_buffer(3, gm_size(5)).unwrap();
        let buf = pooled(&mut a, b"hello");
        a.send(2, 1, 3, &buf, 5).unwrap();
        // b's clock is still ~0: the packet hasn't "arrived" in virtual
        // time, so a poll misses…
        assert!(b.receive(3).unwrap().is_none());
        // …until b's clock catches up.
        b.clock().borrow_mut().advance(Ns::from_us(50));
        assert!(b.receive(3).unwrap().is_some());
    }

    #[test]
    fn message_without_buffer_eventually_fails_sender() {
        let (mut a, mut b) = two_nodes();
        a.open_port(2, false).unwrap();
        b.open_port(3, false).unwrap();
        // No buffer provided on b.
        let buf = pooled(&mut a, b"orphan");
        a.send(2, 1, 3, &buf, 6).unwrap();
        // b polls well past the resend window.
        b.clock().borrow_mut().advance(Ns::from_secs(4));
        assert!(b.receive(3).unwrap().is_none());
        // a's port is now disabled.
        assert!(a.port_disabled(2));
        let err = a.send(2, 1, 3, &buf, 6).unwrap_err();
        assert_eq!(err, GmError::PortDisabled(2));
        // Re-enabling costs dearly but restores service.
        let before = a.clock().borrow().now();
        a.reenable_port(2).unwrap();
        assert!(a.clock().borrow().now() - before >= Ns::from_ms(50));
        b.provide_receive_buffer(3, gm_size(6)).unwrap();
        assert!(a.send(2, 1, 3, &buf, 6).is_ok());
    }

    #[test]
    fn late_buffer_rescues_waiting_message() {
        let (mut a, mut b) = two_nodes();
        a.open_port(2, false).unwrap();
        b.open_port(3, false).unwrap();
        let buf = pooled(&mut a, b"wait");
        a.send(2, 1, 3, &buf, 4).unwrap();
        b.clock().borrow_mut().advance(Ns::from_us(100));
        assert!(b.receive(3).unwrap().is_none()); // unmatched, parked
        b.provide_receive_buffer(3, gm_size(4)).unwrap();
        let ev = b.receive(3).unwrap();
        assert!(matches!(ev, Some(GmEvent::Recv { .. })));
        assert!(!a.port_disabled(2));
    }

    /// FAST's reply port under an overlapped fetch: one preposted buffer per
    /// size class and 63 same-class replies in flight, received one at a
    /// time with the buffer re-provided after each. They come out in
    /// arrival order; a packet that lands while the rest wait unmatched
    /// takes the next provided buffer ahead of them (admit, then retry);
    /// and whatever is still unmatched past the resend window fails its
    /// sender.
    #[test]
    fn a_burst_on_a_one_buffer_port_is_received_in_order() {
        const SENDERS: u8 = 63;
        let mut tx = gm_nodes(SENDERS as usize + 1);
        let mut rx = tx.remove(0);
        let class = gm_size(8);
        rx.open_port(3, false).unwrap();
        rx.provide_receive_buffer(3, class).unwrap();
        let send = |node: &mut GmNode, tag: u8| {
            let buf = pooled(node, &[tag; 8]);
            node.send(2, 0, 3, &buf, 8).unwrap();
        };
        for (w, node) in (1..=SENDERS).zip(&mut tx) {
            node.open_port(2, false).unwrap();
            send(node, w);
        }
        rx.clock().borrow_mut().advance(Ns::from_ms(1));
        let next = |rx: &mut GmNode| match rx.receive(3).unwrap() {
            Some(GmEvent::Recv { data, .. }) => {
                rx.provide_receive_buffer(3, class).unwrap();
                data[0]
            }
            other => panic!("expected a reply, got {other:?}"),
        };
        let first: Vec<u8> = (0..10).map(|_| next(&mut rx)).collect();
        assert_eq!(first, (1..=10).collect::<Vec<_>>());
        send(&mut tx[0], 200);
        let fresh = next(&mut rx);
        assert_eq!(
            fresh, 200,
            "a fresh arrival takes the provided buffer first"
        );
        let more: Vec<u8> = (0..20).map(|_| next(&mut rx)).collect();
        assert_eq!(more, (11..=30).collect::<Vec<_>>());
        // Past the resend window the provided buffer still goes to the
        // oldest waiting reply; every later one fails its sender.
        rx.clock().borrow_mut().advance(Ns::from_secs(4));
        assert_eq!(next(&mut rx), 31);
        assert!(rx.receive(3).unwrap().is_none());
        let disabled: Vec<bool> = tx.iter_mut().map(|node| node.port_disabled(2)).collect();
        assert_eq!(disabled, (1..=SENDERS).map(|w| w > 31).collect::<Vec<_>>());
    }

    /// What a node of the cluster test below saw.
    #[derive(Debug, PartialEq)]
    enum Saw {
        Receiver {
            src: NodeId,
            at: Ns,
        },
        Sender {
            disabled: [bool; 2],
            resend: Result<Ns, GmError>,
        },
    }

    /// In a running cluster a rejection is an event like any other. R has a
    /// buffer for S2's 8-byte packet but none for S1's 64-byte one, which
    /// lands first; R, blocked, takes S2's packet at its own arrival, 1 ms
    /// in, not once S1's resend timer has fired 3 s later. When it fires,
    /// R's NIC NACKs S1, and S1's port reads disabled once the NACK has
    /// landed — and only then.
    #[test]
    fn a_blocked_receiver_takes_a_later_match_before_the_orphan_times_out() {
        const R: NodeId = 0;
        let params = Arc::new(SimParams::paper_testbed());
        let timeout = params.gm.resend_timeout;
        let (_fabric, board, nics) = gm_cluster(3, Arc::clone(&params));
        let out = tm_sim::run_cluster_with(params, nics, move |env, nic| {
            let params = Arc::clone(&env.params);
            let mut gm = GmNode::new(nic, env.clock.clone(), params, Arc::clone(&board), 1 << 20);
            if env.id == R {
                gm.open_port(3, false).unwrap();
                gm.provide_receive_buffer(3, gm_size(8)).unwrap();
                let (_, GmEvent::Recv { src, .. }) = gm.blocking_receive(&[3]);
                let at = gm.clock().borrow().now();
                let past_the_timer = timeout + Ns::from_secs(1);
                assert!(gm.blocking_receive_by(&[3], Some(past_the_timer)).is_none());
                return Saw::Receiver { src, at };
            }
            gm.open_port(2, false).unwrap();
            let len = if env.id == 1 { 64 } else { 8 };
            if env.id == 2 {
                gm.clock().borrow_mut().advance(Ns::from_ms(1));
            }
            let buf = pooled(&mut gm, &vec![env.id as u8; len]);
            gm.send(2, R, 3, &buf, len).unwrap();
            let disabled_by = |gm: &mut GmNode, t: Ns| {
                assert!(gm.blocking_receive_by(&[2], Some(t)).is_none());
                gm.port_disabled(2)
            };
            let disabled = [
                disabled_by(&mut gm, Ns::from_secs(1)),
                disabled_by(&mut gm, timeout + Ns::from_secs(2)),
            ];
            let resend = gm.send(2, R, 3, &buf, len);
            Saw::Sender { disabled, resend }
        });
        let Saw::Receiver { src, at } = out[0].result else {
            panic!("{:?}", out[0].result);
        };
        assert_eq!(src, 2, "S2's packet is the one R has a buffer for");
        assert!(
            at > Ns::from_ms(1) && at < Ns::from_secs(1),
            "R took S2's packet at {at:?}"
        );
        assert_eq!(
            out[1].result,
            Saw::Sender {
                disabled: [false, true],
                resend: Err(GmError::PortDisabled(2)),
            }
        );
        assert!(
            matches!(
                out[2].result,
                Saw::Sender {
                    disabled: [false, false],
                    resend: Ok(_)
                }
            ),
            "{:?}",
            out[2].result
        );
        // The NACK is the NIC's: R's host sent nothing.
        assert_eq!(out[0].stats.msgs_sent, 0);
    }

    #[test]
    fn send_tokens_run_out_and_come_back() {
        let (mut a, mut b) = two_nodes();
        a.open_port(2, false).unwrap();
        b.open_port(3, false).unwrap();
        let tokens = a.params().gm.send_tokens;
        for _ in 0..tokens + 4 {
            b.provide_receive_buffer(3, gm_size(1)).unwrap();
        }
        let buf = pooled(&mut a, b"x");
        // Tokens return at inject time, and each send advances the clock by
        // send_overhead, so rapid-fire sends eventually hit the ceiling
        // only if injection lags. Force lag by zeroing time movement:
        // issue sends without letting the clock pass inject times.
        let mut sent = 0;
        loop {
            match a.send(2, 1, 3, &buf, 1) {
                Ok(_) => sent += 1,
                Err(GmError::NoSendTokens) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
            if sent > tokens * 2 {
                // Tokens recycled fast enough that we never block: also a
                // valid outcome given send_overhead < nic_tx; stop.
                break;
            }
        }
        assert!(sent >= tokens.min(8));
    }

    #[test]
    fn interrupt_flag_is_per_port() {
        let (mut a, _) = two_nodes();
        a.open_port(1, true).unwrap();
        a.open_port(2, false).unwrap();
        assert!(a.port_interrupts(1));
        assert!(!a.port_interrupts(2));
    }

    #[test]
    fn closed_port_errors() {
        let (mut a, _) = two_nodes();
        let buf = pooled(&mut a, b"x");
        assert_eq!(a.send(5, 1, 3, &buf, 1), Err(GmError::PortClosed(5)));
        assert!(matches!(a.receive(5), Err(GmError::PortClosed(5))));
    }
}
