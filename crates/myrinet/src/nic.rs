//! Receive side of a node's NIC: demultiplexing and blocking waits.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use tm_sim::{Ns, Wait, WakeReason};

use crate::fabric::Fabric;
use crate::packet::{NodeId, RawPacket};

/// Ports below this value belong to GM; at or above, to the sockets layer.
pub const SOCKET_PORT_BASE: u16 = 1024;

/// Wall-clock backstop of a free-running wait that carries a virtual
/// deadline: if the channel stays silent this long in real time, nothing
/// is in flight at all (only a receive-buffer overflow swallows traffic
/// without a tombstone) and the wait reports its deadline. Virtual-time
/// behavior never depends on the value.
const HANG_GUARD: std::time::Duration = std::time::Duration::from_secs(1);

/// Liveness re-poll period of a free-running watch-only wait (a shutdown
/// linger, where "nothing arrives" is the expected steady state: peers
/// exit without a goodbye).
const LINGER_GUARD: std::time::Duration = std::time::Duration::from_millis(25);

/// A node's handle on its NIC. Owned by the node thread.
///
/// Incoming packets land on one channel; the handle demultiplexes them into
/// per-port queues on demand. Blocking receives park the OS thread — if the
/// protocol above deadlocks, the simulation visibly hangs rather than
/// producing wrong numbers.
pub struct NicHandle {
    node: NodeId,
    rx: Receiver<RawPacket>,
    fabric: Arc<Fabric>,
    /// Demux queues, keyed by dst_port. Sparse: allocated on first use.
    queues: Vec<(u16, VecDeque<RawPacket>)>,
}

impl NicHandle {
    pub(crate) fn new(node: NodeId, rx: Receiver<RawPacket>, fabric: Arc<Fabric>) -> Self {
        NicHandle {
            node,
            rx,
            fabric,
            queues: Vec::new(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Whether any of `nodes` still holds its NIC (see
    /// [`Fabric::any_alive`]).
    pub fn any_alive(&self, nodes: &[NodeId]) -> bool {
        self.fabric.any_alive(nodes)
    }

    /// Declare this node's substrate lookahead to the lockstep scheduler
    /// (no-op under free-run): a sound lower bound on the virtual time
    /// between the start of the node's preemptible window and its next
    /// packet reaching the wire. Transports call this once at
    /// construction.
    pub fn declare_lookahead(&self, la: Ns) {
        if let Some(sched) = self.fabric.sched() {
            sched.declare_lookahead(self.node, la);
        }
    }

    /// This node's current delivery count under lockstep (0 under
    /// free-run): the race-detection signature for
    /// [`NicHandle::poll_quiesce`]. Sample it *before* draining the
    /// channel, so a delivery that lands between the drain and the
    /// quiesce bounces the quiesce instead of being missed.
    pub fn delivery_signature(&self) -> u64 {
        self.fabric
            .sched()
            .map_or(0, |s| s.delivery_count(self.node))
    }

    /// Lockstep-only settlement of a non-blocking poll at virtual time
    /// `t`: returns `true` once the scheduler proves no packet with
    /// virtual arrival ≤ `t` can still be in flight (the poll's miss is
    /// then deterministic), or `false` if a delivery raced in first (the
    /// caller must re-drain and re-examine its queues). `seen` is the
    /// [`NicHandle::delivery_signature`] sampled before the caller's
    /// drain; `floor` as in [`NicHandle::wait`]. Under
    /// free-run this returns `true` immediately — free-run polls are
    /// allowed to race.
    pub fn poll_quiesce(&self, t: Ns, seen: u64, floor: Ns) -> bool {
        match self.fabric.sched() {
            Some(s) => s.poll_quiesce(self.node, t, seen, floor),
            None => true,
        }
    }

    /// Inject a packet from this node (sender side). Thin forwarding to
    /// [`Fabric::transmit`]; cost accounting is the caller's business.
    /// Under lockstep the sender's post-transmit floor defaults to the
    /// injection time — sound only for monotone injectors; transports
    /// with clock access use [`NicHandle::inject_floored`].
    pub fn inject(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
    ) -> Ns {
        self.fabric
            .transmit(self.node, dst, src_port, dst_port, payload, inject_time, directed)
    }

    /// [`NicHandle::inject`] with an explicit lockstep floor:
    /// `floor_after` bounds from below every packet this node may inject
    /// after this one (clock preemptible-window start + declared
    /// lookahead). Ignored under free-run.
    #[allow(clippy::too_many_arguments)]
    pub fn inject_floored(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
        floor_after: Ns,
    ) -> Ns {
        self.fabric.transmit_floored(
            self.node,
            dst,
            src_port,
            dst_port,
            payload,
            inject_time,
            directed,
            false,
            floor_after,
        )
    }

    /// Inject a fault-injection loss tombstone: the packet occupies the
    /// wire and wakes the receiver at its virtual arrival, but is flagged
    /// `lost` so the receiver layer discards (and counts) it instead of
    /// delivering the payload. `floor_after` as in
    /// [`NicHandle::inject_floored`] — a delayed or duplicated packet's
    /// injection time is *not* a sound floor for the node's next send.
    pub fn inject_lost_floored(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        floor_after: Ns,
    ) -> Ns {
        self.fabric.transmit_floored(
            self.node,
            dst,
            src_port,
            dst_port,
            payload,
            inject_time,
            None,
            true,
            floor_after,
        )
    }

    fn queue_mut(&mut self, port: u16) -> &mut VecDeque<RawPacket> {
        if let Some(i) = self.queues.iter().position(|(p, _)| *p == port) {
            &mut self.queues[i].1
        } else {
            self.queues.push((port, VecDeque::new()));
            let last = self.queues.len() - 1;
            &mut self.queues[last].1
        }
    }

    fn stash(&mut self, pkt: RawPacket) {
        let port = pkt.dst_port;
        self.queue_mut(port).push_back(pkt);
    }

    /// Drain everything currently sitting in the channel into the demux
    /// queues (non-blocking).
    pub fn drain(&mut self) {
        while let Ok(pkt) = self.rx.try_recv() {
            self.stash(pkt);
        }
    }

    /// Non-blocking poll of one port.
    pub fn poll_port(&mut self, port: u16) -> Option<RawPacket> {
        self.drain();
        self.queue_mut(port).pop_front()
    }

    /// Peek the earliest-queued packet on a port without consuming it.
    pub fn peek_port(&mut self, port: u16) -> Option<&RawPacket> {
        self.drain();
        // Split lookup to satisfy borrowck: position first, then index.
        let i = self.queues.iter().position(|(p, _)| *p == port)?;
        self.queues[i].1.front()
    }

    /// Number of packets queued for a port.
    pub fn queued(&mut self, port: u16) -> usize {
        self.drain();
        self.queues
            .iter()
            .find(|(p, _)| *p == port)
            .map_or(0, |(_, q)| q.len())
    }

    /// Index of the demux queue whose front packet has the smallest
    /// arrival time among `ports` (or all ports when `None`) —
    /// virtual-time fairness between ports. Callers drain first.
    fn best_queued_idx(&self, ports: Option<&[u16]>) -> Option<usize> {
        let mut best: Option<(usize, Ns)> = None;
        for (i, (p, q)) in self.queues.iter().enumerate() {
            if ports.is_none_or(|ps| ps.contains(p)) {
                if let Some(front) = q.front() {
                    if best.is_none_or(|(_, a)| front.arrival < a) {
                        best = Some((i, front.arrival));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The one blocking receive: wait for a packet on any of `ports`
    /// (all ports when `None`), or — when `deadline` is set — until that
    /// virtual time becomes the cluster's next event, or — when `watch`
    /// is set — until every node in it has deregistered its NIC,
    /// whichever the scheduler orders first.
    ///
    /// * A queued packet whose arrival lies past the deadline stays
    ///   queued: the timer fires first, deterministically, and
    ///   [`Wait::Deadline`] is reported without parking. Likewise after a
    ///   `Timeout` wake only a packet with `arrival <= deadline` is
    ///   handed over.
    /// * On `PeersDone` a final drain hands over a packet whatever its
    ///   arrival: the departing peers' last transmits were granted
    ///   (program order) before their drops. This is what lets the exit
    ///   fan cancel a retransmission timer the moment its consumer is
    ///   gone instead of firing into a dead node, and what makes the set
    ///   of packets a shutdown linger serves a pure function of the
    ///   program.
    /// * Selection among queued packets is by earliest virtual arrival;
    ///   per sender the wire is FIFO.
    ///
    /// `floor` is the lockstep park floor: a sound lower bound on any
    /// packet this node may inject after waking (clock
    /// preemptible-window start + declared lookahead). `Ns::ZERO` is
    /// always safe — the woken node then blocks all grants until its next
    /// scheduler interaction.
    ///
    /// This is the only place above [`Fabric`] that knows whether a
    /// scheduler exists. Without one (free-run) the wait sleeps on the
    /// channel: unbounded when neither condition is given (a protocol
    /// deadlock then visibly hangs), otherwise in wall-clock slices of
    /// `HANG_GUARD` (deadline set: true silence that long *is* the
    /// deadline) or `LINGER_GUARD` (watch only: re-check the liveness
    /// flags and sleep again).
    pub fn wait(
        &mut self,
        ports: Option<&[u16]>,
        deadline: Option<Ns>,
        watch: Option<&[NodeId]>,
        floor: Ns,
    ) -> Wait<RawPacket> {
        let sched = self.fabric.sched().cloned();
        loop {
            // Capture the delivery signature *before* draining: if a
            // delivery lands between our drain and our park, the
            // signature mismatch makes the park bounce back immediately
            // instead of sleeping through the wakeup.
            let sig = self.delivery_signature();
            self.drain();
            if let Some(i) = self.best_queued_idx(ports) {
                return self.pop_if_due(i, deadline).map_or(Wait::Deadline, Wait::Got);
            }
            let woke = match &sched {
                // Park on the scheduler (never the channel): cluster
                // deadlock panics there with the parked-node set.
                Some(s) => s.park(self.node, sig, deadline, watch, floor),
                None => self.sleep_unscheduled(deadline, watch),
            };
            // One last look at the queues: after a timeout only a packet
            // due by the deadline counts; after the peers' departure
            // whatever their final grants delivered does.
            let (due_by, otherwise) = match woke {
                WakeReason::Delivered => continue,
                WakeReason::Timeout => (deadline, Wait::Deadline),
                WakeReason::PeersDone => (None, Wait::PeersDone),
            };
            self.drain();
            return self
                .best_queued_idx(ports)
                .and_then(|i| self.pop_if_due(i, due_by))
                .map_or(otherwise, Wait::Got);
        }
    }

    /// Pop the front packet of demux queue `i` unless it arrives after
    /// `deadline` (no deadline: pop it whatever its arrival).
    fn pop_if_due(&mut self, i: usize, deadline: Option<Ns>) -> Option<RawPacket> {
        let q = &mut self.queues[i].1;
        let arrival = q.front().expect("best_queued_idx yields non-empty queues").arrival;
        if deadline.is_some_and(|d| arrival > d) {
            return None;
        }
        q.pop_front()
    }

    /// The free-run half of [`NicHandle::wait`]: sleep on the channel
    /// and report what ended the sleep in the scheduler's vocabulary.
    fn sleep_unscheduled(&mut self, deadline: Option<Ns>, watch: Option<&[NodeId]>) -> WakeReason {
        if watch.is_some_and(|w| !self.fabric.any_alive(w)) {
            return WakeReason::PeersDone;
        }
        let arrived = if deadline.is_none() && watch.is_none() {
            Some(self.rx.recv().unwrap_or_else(|_| {
                panic!(
                    "node {}: all senders shut down (protocol deadlock or premature exit)",
                    self.node
                )
            }))
        } else {
            let guard = if deadline.is_some() { HANG_GUARD } else { LINGER_GUARD };
            self.rx.recv_timeout(guard).ok()
        };
        match arrived {
            Some(pkt) => self.stash(pkt),
            None if deadline.is_some() => return WakeReason::Timeout,
            // Watch only: go round again and re-read the liveness flags.
            None => {}
        }
        WakeReason::Delivered
    }

    /// Block until any packet at all arrives (raw benchmarks and tests).
    pub fn recv_blocking(&mut self) -> RawPacket {
        self.wait(None, None, None, Ns::ZERO).got()
    }
}

impl Drop for NicHandle {
    fn drop(&mut self) {
        self.fabric.mark_dead(self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::SimParams;

    fn pair() -> (Arc<Fabric>, Vec<NicHandle>) {
        Fabric::new(2, Arc::new(SimParams::paper_testbed()))
    }

    #[test]
    fn poll_port_demuxes() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 9, 5, Bytes::from_static(b"a"), Ns(0), None);
        f.transmit(0, 1, 9, 6, Bytes::from_static(b"b"), Ns(0), None);
        // Give the channel a moment: sends are synchronous in-process, so
        // they're already there.
        let n1 = &mut nics[1];
        let on5 = n1.poll_port(5).expect("packet on port 5");
        assert_eq!(&on5.payload[..], b"a");
        assert!(n1.poll_port(5).is_none());
        let on6 = n1.poll_port(6).expect("packet on port 6");
        assert_eq!(&on6.payload[..], b"b");
    }

    #[test]
    fn wait_picks_earliest_arrival() {
        let (f, mut nics) = pair();
        // Loopback packet lands at 10ms on port 5; a wire packet from node
        // 0 lands microseconds in on port 6. Although the late one is
        // queued first, selection must follow virtual arrival time.
        f.transmit(1, 1, 0, 5, Bytes::from_static(b"late"), Ns::from_ms(10), None);
        f.transmit(0, 1, 0, 6, Bytes::from_static(b"early"), Ns(0), None);
        let got = nics[1].wait(Some(&[5, 6]), None, None, Ns::ZERO).got();
        assert_eq!(&got.payload[..], b"early");
    }

    #[test]
    fn wait_ignores_other_ports() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 0, 7, Bytes::from_static(b"other"), Ns(0), None);
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"mine"), Ns(0), None);
        let got = nics[1].wait(Some(&[5]), None, None, Ns::ZERO).got();
        assert_eq!(&got.payload[..], b"mine");
        // The port-7 packet is still queued.
        assert_eq!(nics[1].queued(7), 1);
    }

    #[test]
    fn blocking_wait_waits_for_sender_thread() {
        use std::thread;
        let (f, mut nics) = pair();
        let mut n1 = nics.remove(1);
        let t = thread::spawn(move || n1.wait(Some(&[3]), None, None, Ns::ZERO).got().payload);
        thread::sleep(std::time::Duration::from_millis(20));
        f.transmit(0, 1, 0, 3, Bytes::from_static(b"wake"), Ns(0), None);
        assert_eq!(&t.join().unwrap()[..], b"wake");
    }

    /// Free-run: a watch set that is already gone ends the wait at once,
    /// after one last look at the queues.
    #[test]
    fn free_run_watch_reports_departed_peers() {
        let (f, mut nics) = pair();
        let mut n1 = nics.remove(1);
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"last"), Ns(0), None);
        drop(nics);
        let got = n1.wait(Some(&[5]), None, Some(&[0]), Ns::ZERO);
        assert!(matches!(got, Wait::Got(p) if &p.payload[..] == b"last"));
        assert!(matches!(n1.wait(Some(&[5]), None, Some(&[0]), Ns::ZERO), Wait::PeersDone));
    }

    /// [`NicHandle::wait`] under lockstep, over its {deadline, no
    /// deadline} × {watch, no watch} matrix. Node 1 waits on port 5; node
    /// 0 is the sender and the watched peer. Every outcome is decided by
    /// virtual keys, so none of this depends on thread timing.
    #[test]
    fn lockstep_wait_matrix() {
        use std::thread;
        const DEADLINE: Ns = Ns(100_000);
        let cluster = |n: usize| {
            let (f, mut nics) = Fabric::new(n, Arc::new(SimParams::lockstep_testbed()));
            let waiter = nics.remove(1);
            let peer = nics.remove(0);
            // Any further node is gone from the start (its floor would
            // otherwise hold every grant back).
            drop(nics);
            (f, waiter, peer)
        };
        for deadline in [None, Some(DEADLINE)] {
            for watch in [None, Some([0usize])] {
                let cell = format!("deadline={deadline:?} watch={watch:?}");
                let watch = watch.as_ref().map(|w| &w[..]);

                // Delivery wins: an in-time packet is handed over.
                let (_f, mut waiter, peer) = cluster(2);
                let got = thread::scope(|s| {
                    let h = s.spawn(|| waiter.wait(Some(&[5]), deadline, watch, Ns::ZERO));
                    peer.inject(1, 0, 5, Bytes::from_static(b"hit"), Ns(1_000), None);
                    h.join().unwrap()
                });
                assert!(matches!(got, Wait::Got(p) if &p.payload[..] == b"hit"), "{cell}");

                if deadline.is_some() {
                    // Deadline wins over a later-keyed transmit, however
                    // early (in wall time) its sender asked; the packet
                    // is there for the next wait.
                    let (_f, mut waiter, peer) = cluster(2);
                    let (first, second) = thread::scope(|s| {
                        let h = s.spawn(|| {
                            let first = waiter.wait(Some(&[5]), deadline, watch, Ns::ZERO);
                            (first, waiter.wait(Some(&[5]), None, None, Ns::ZERO).got())
                        });
                        peer.inject(1, 0, 5, Bytes::from_static(b"late"), Ns::from_ms(1), None);
                        h.join().unwrap()
                    });
                    assert!(matches!(first, Wait::Deadline), "{cell}: got {first:?}");
                    assert_eq!(&second.payload[..], b"late", "{cell}");

                    // A queued packet past the deadline stays queued and
                    // reports Deadline without parking (a park would
                    // hang here: node 0 never commits to anything).
                    let (f, mut waiter, _peer) = cluster(2);
                    f.transmit(1, 1, 0, 5, Bytes::from_static(b"far"), Ns::from_ms(10), None);
                    let got = waiter.wait(Some(&[5]), deadline, watch, Ns::ZERO);
                    assert!(matches!(got, Wait::Deadline), "{cell}: got {got:?}");
                    assert_eq!(waiter.queued(5), 1, "{cell}");
                }

                if watch.is_some() {
                    // Peers-done wins: the watched peer leaves silently.
                    let (_f, mut waiter, peer) = cluster(2);
                    let got = thread::scope(|s| {
                        let h = s.spawn(|| waiter.wait(Some(&[5]), deadline, watch, Ns::ZERO));
                        drop(peer);
                        h.join().unwrap()
                    });
                    assert!(matches!(got, Wait::PeersDone), "{cell}: got {got:?}");

                    // The final drain on PeersDone hands over a packet
                    // whatever its arrival. The transmit to (departed)
                    // node 2 is granted only once node 1 is parked, so
                    // the loopback push that follows lands behind the
                    // waiter's drain, uncredited; the peer's departure
                    // is then what wakes it.
                    let (f, mut waiter, peer) = cluster(3);
                    let got = thread::scope(|s| {
                        let h = s.spawn(|| waiter.wait(Some(&[5]), deadline, watch, Ns::ZERO));
                        peer.inject(2, 0, 0, Bytes::new(), Ns(1_000), None);
                        f.transmit(1, 1, 0, 5, Bytes::from_static(b"far"), Ns::from_ms(10), None);
                        drop(peer);
                        h.join().unwrap()
                    });
                    assert!(
                        matches!(&got, Wait::Got(p) if p.arrival > DEADLINE && &p.payload[..] == b"far"),
                        "{cell}: got {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"x"), Ns(0), None);
        assert!(nics[1].peek_port(5).is_some());
        assert!(nics[1].peek_port(5).is_some());
        assert!(nics[1].poll_port(5).is_some());
        assert!(nics[1].peek_port(5).is_none());
    }
}
