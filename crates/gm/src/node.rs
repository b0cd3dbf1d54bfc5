//! The per-node GM endpoint: ports, tokens, preposted buffers, sends,
//! polled receives, and the resend-timeout failure mode.

use std::cell::RefCell;
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

/// Cross-node blackboard on which receivers report rejected sends
/// (sender-side resend timer expiry): the sending `(node, port)` of each,
/// until that sender absorbs it. Empty on every clean run.
pub struct FailureBoard {
    rejected: RefCell<Vec<(NodeId, u8)>>,
}

impl FailureBoard {
    // Cluster state like the fabric, so an `Rc` is what it wants to be in;
    // it is an `Arc` because the frozen `benchmark/src/ladder.rs` hands it
    // on as `Arc::clone(&board)`.
    #[allow(clippy::arc_with_non_send_sync)]
    pub fn new() -> Arc<Self> {
        Arc::new(FailureBoard {
            rejected: RefCell::new(Vec::new()),
        })
    }

    fn post(&self, src: NodeId, src_port: u8) {
        self.rejected.borrow_mut().push((src, src_port));
    }

    /// Clear the rejected sends of `(node, port)`; whether there were any.
    fn take(&self, node: NodeId, port: u8) -> bool {
        let mut rejected = self.rejected.borrow_mut();
        let before = rejected.len();
        rejected.retain(|&sender| sender != (node, port));
        rejected.len() < before
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
    /// window is rejected (its sender's port is disabled), and the rest stay
    /// where they are. A poll that changes nothing moves and allocates
    /// nothing; an emptied queue gives its capacity back, so a burst's
    /// deque does not outlive the burst.
    fn retry_unmatched(&mut self, now: Ns, timeout: Ns, board: &FailureBoard) {
        let mut i = 0;
        while i < self.unmatched.len() {
            let (len, arrival) = (self.unmatched[i].payload.len(), self.unmatched[i].arrival);
            if self.take_buffer(len) {
                let pkt = self.unmatched.remove(i).expect("in range");
                self.ready.push_back(pkt);
            } else if now.saturating_sub(arrival) > timeout {
                let pkt = self.unmatched.remove(i).expect("in range");
                board.post(pkt.src, pkt.src_port as u8);
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
    board: Arc<FailureBoard>,
    ports: Vec<Option<PortState>>,
    /// Registered-memory book for this node.
    pub book: RegBook,
}

/// Build the GM-level cluster state: the fabric, the shared failure board
/// and the per-node NIC handles. Each node body then wraps its handle
/// with [`GmNode::new`].
pub fn gm_cluster(
    n: usize,
    params: Arc<SimParams>,
) -> (Rc<Fabric>, Arc<FailureBoard>, Vec<NicHandle>) {
    let (fabric, nics) = Fabric::new(n, params);
    let board = FailureBoard::new();
    (fabric, board, nics)
}

impl GmNode {
    /// `pin_limit`: bytes of physical memory this node may pin.
    pub fn new(
        nic: NicHandle,
        clock: SharedClock,
        params: Arc<SimParams>,
        board: Arc<FailureBoard>,
        pin_limit: usize,
    ) -> Self {
        let book = RegBook::new(clock.clone(), &params, pin_limit);
        GmNode {
            nic,
            clock,
            params,
            board,
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
        // Check the failure board first: a rejected earlier send disables
        // the port before anything else can happen on it.
        self.absorb_failures(port);
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

    /// Move the failure-board flag (set by a remote receiver) into local
    /// port state.
    fn absorb_failures(&mut self, port: u8) {
        if self.board.take(self.node(), port) {
            if let Some(p) = self.ports[port as usize].as_mut() {
                p.disabled = true;
            }
        }
    }

    /// Was this port disabled by a send failure?
    pub fn port_disabled(&mut self, port: u8) -> bool {
        self.absorb_failures(port);
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
            p.retry_unmatched(now, timeout, &self.board);
        }
    }

    /// Poll one port (`gm_receive`): non-blocking; returns a message whose
    /// arrival is at or before the node's current virtual time.
    ///
    /// A miss is *settled* before it is reported
    /// ([`poll_quiesce`](tm_myrinet::NicHandle::poll_quiesce)): an event
    /// earlier than now that the scheduler has not released yet may still
    /// deliver a packet whose virtual arrival is ≤ now.
    pub fn receive(&mut self, port: u8) -> Result<Option<GmEvent>, GmError> {
        loop {
            self.absorb_failures(port);
            self.sort_arrivals();
            let now = self.clock.borrow().now();
            let gm = self.params.gm.clone();
            let p = self.port_mut(port)?;
            if let Some(pkt) = p.ready.front() {
                if pkt.arrival <= now {
                    let pkt = p.ready.pop_front().expect("non-empty");
                    self.clock.borrow_mut().advance(gm.recv_poll_hit);
                    let mut c = self.clock.borrow_mut();
                    c.stats.msgs_recv += 1;
                    c.stats.bytes_recv += pkt.payload.len() as u64;
                    drop(c);
                    return Ok(Some(GmEvent::Recv {
                        src: pkt.src,
                        src_port: pkt.src_port as u8,
                        size: gm_size(pkt.payload.len()),
                        data: pkt.payload,
                        arrival: pkt.arrival,
                    }));
                }
            }
            if self.nic.poll_quiesce(now) {
                self.clock.borrow_mut().advance(gm.recv_poll_miss);
                return Ok(None);
            }
            // A delivery came first: re-drain and look again.
        }
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
    pub fn blocking_receive_by(
        &mut self,
        ports: &[u8],
        deadline: Option<Ns>,
    ) -> Option<(u8, GmEvent)> {
        let expired = |at: Ns| deadline.is_some_and(|d| at > d);
        loop {
            self.absorb_failures_all(ports);
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
            if let Some((port, arrival)) = best {
                if expired(arrival) {
                    break;
                }
                let gm_hit = self.params.gm.recv_poll_hit;
                let p = self.ports[port as usize].as_mut().expect("open");
                let pkt = p.ready.pop_front().expect("non-empty");
                {
                    let mut c = self.clock.borrow_mut();
                    c.wait_until(arrival);
                    c.advance(gm_hit);
                    c.stats.msgs_recv += 1;
                    c.stats.bytes_recv += pkt.payload.len() as u64;
                }
                return Some((
                    port,
                    GmEvent::Recv {
                        src: pkt.src,
                        src_port: pkt.src_port as u8,
                        size: gm_size(pkt.payload.len()),
                        data: pkt.payload,
                        arrival,
                    },
                ));
            }
            // Nothing matched. If there are unmatched packets and nothing
            // else can arrive to change that, the sender's resend timer
            // is what fires next: jump the clock there so `sort_arrivals`
            // rejects them (and the failure becomes observable).
            let unmatched_since = ports
                .iter()
                .filter_map(|&port| self.ports[port as usize].as_ref()?.unmatched.front())
                .map(|pkt| pkt.arrival)
                .min();
            if let Some(earliest) = unmatched_since {
                let fires = earliest + self.params.gm.resend_timeout + Ns(1);
                if expired(fires) {
                    break;
                }
                self.clock.borrow_mut().wait_until(fires);
                continue;
            }
            // Genuinely idle: park on the NIC.
            match self.nic.wait(Some(&GM_PORTS), deadline) {
                Wait::Got(pkt) => Self::admit(&mut self.ports, pkt),
                Wait::Deadline => break,
            }
        }
        let deadline = deadline.expect("only a receive with a deadline times out");
        self.clock.borrow_mut().wait_until(deadline);
        None
    }

    fn absorb_failures_all(&mut self, ports: &[u8]) {
        for &p in ports {
            self.absorb_failures(p);
        }
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
