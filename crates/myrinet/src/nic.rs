//! Receive side of a node's NIC: demultiplexing and blocking waits.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use tm_sim::{Ns, Wait};

use crate::fabric::Fabric;
use crate::packet::{NodeId, RawPacket};

/// Ports below this value belong to GM; at or above, to the sockets layer.
pub const SOCKET_PORT_BASE: u16 = 1024;

/// A node's handle on its NIC. Owned by the node.
///
/// Incoming packets land on one channel; the handle demultiplexes them into
/// per-port queues on demand. A blocking receive parks on the cluster's
/// scheduler, which suspends the node's context; if the protocol above
/// deadlocks, the run panics naming every node's state rather than
/// hanging or producing wrong numbers.
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

    /// Settlement of a non-blocking poll's miss at virtual time `t`:
    /// returns `true` once the scheduler has released every event earlier
    /// than `t` (the miss is then final), or `false` if one of them
    /// delivered a packet here first (the caller must re-drain and
    /// re-examine its queues).
    pub fn poll_quiesce(&self, t: Ns) -> bool {
        self.fabric.sched().park(self.node, Some(t), None) == Wait::Deadline
    }

    /// Inject a packet from this node (sender side). Thin forwarding to
    /// [`Fabric::transmit`]; cost accounting is the caller's business.
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
            .transmit(self.node, dst, src_port, dst_port, payload, inject_time, directed, false)
    }

    /// Inject a fault-injection loss tombstone: the packet occupies the
    /// wire and wakes the receiver at its virtual arrival, but is flagged
    /// `lost` so the receiver layer discards (and counts) it instead of
    /// delivering the payload.
    pub fn inject_lost(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
    ) -> Ns {
        self.fabric
            .transmit(self.node, dst, src_port, dst_port, payload, inject_time, None, true)
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
    /// The park is on the scheduler, never the channel: a cluster in which
    /// nothing can end the wait is a panic naming every node's state —
    /// from `run_cluster` when every node is stuck, from here when the
    /// fabric is driven by hand outside a cluster and the wait has neither
    /// a deadline nor a departed watch set to end it.
    pub fn wait(
        &mut self,
        ports: Option<&[u16]>,
        deadline: Option<Ns>,
        watch: Option<&[NodeId]>,
    ) -> Wait<RawPacket> {
        loop {
            self.drain();
            if let Some(i) = self.best_queued_idx(ports) {
                return self.pop_if_due(i, deadline).map_or(Wait::Deadline, Wait::Got);
            }
            // On one thread nothing can land between the drain and the
            // park. After it, one last look at the queues: after a timeout
            // only a packet due by the deadline counts; after the peers'
            // departure whatever their final grants delivered does.
            let (due_by, otherwise) = match self.fabric.sched().park(self.node, deadline, watch) {
                Wait::Got(()) => continue,
                Wait::Deadline => (deadline, Wait::Deadline),
                Wait::PeersDone => (None, Wait::PeersDone),
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

    /// Block until any packet at all arrives (raw benchmarks and tests).
    pub fn recv_blocking(&mut self) -> RawPacket {
        self.wait(None, None, None).got()
    }
}

impl Drop for NicHandle {
    fn drop(&mut self) {
        self.fabric.sched().mark_done(self.node);
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
        f.transmit(0, 1, 9, 5, Bytes::from_static(b"a"), Ns(0), None, false);
        f.transmit(0, 1, 9, 6, Bytes::from_static(b"b"), Ns(0), None, false);
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
        f.transmit(1, 1, 0, 5, Bytes::from_static(b"late"), Ns::from_ms(10), None, false);
        f.transmit(0, 1, 0, 6, Bytes::from_static(b"early"), Ns(0), None, false);
        let got = nics[1].wait(Some(&[5, 6]), None, None).got();
        assert_eq!(&got.payload[..], b"early");
    }

    #[test]
    fn wait_ignores_other_ports() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 0, 7, Bytes::from_static(b"other"), Ns(0), None, false);
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"mine"), Ns(0), None, false);
        let got = nics[1].wait(Some(&[5]), None, None).got();
        assert_eq!(&got.payload[..], b"mine");
        // The port-7 packet is still queued.
        assert_eq!(nics[1].queued(7), 1);
    }

    /// A watch set that is already gone ends the wait at once, after one
    /// last look at the queues.
    #[test]
    fn a_departed_watch_set_ends_the_wait_after_a_last_look() {
        let (f, mut nics) = pair();
        let mut n1 = nics.remove(1);
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"last"), Ns(0), None, false);
        drop(nics);
        let got = n1.wait(Some(&[5]), None, Some(&[0]));
        assert!(matches!(got, Wait::Got(p) if &p.payload[..] == b"last"));
        assert!(matches!(n1.wait(Some(&[5]), None, Some(&[0])), Wait::PeersDone));
    }

    /// A hand-driven wait that nothing can end — no packet queued, no
    /// deadline, no watch set — is a diagnosis, not a hang.
    #[test]
    fn a_hand_driven_wait_nothing_can_end_is_a_diagnosis() {
        let (_f, mut nics) = pair();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            nics[1].wait(None, None, None)
        }))
        .expect_err("must not block");
        let msg = payload.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("node 1 waits") && msg.contains("outside a cluster context"), "{msg}");
        assert!(msg.contains("node 0: Running"), "{msg}");
    }

    /// [`NicHandle::wait`] inside a cluster, over its {deadline, no
    /// deadline} × {watch, no watch} matrix. Node 1 waits on port 5; node
    /// 0 is the sender and the watched peer; any further node leaves at
    /// once. Every outcome is decided by virtual keys.
    #[test]
    fn wait_matrix() {
        use crate::fabric::cluster;
        const DEADLINE: Ns = Ns(100_000);
        fn show(w: Wait<RawPacket>) -> String {
            match w {
                Wait::Got(p) => format!("got {}", String::from_utf8_lossy(&p.payload)),
                Wait::Deadline => "deadline".into(),
                Wait::PeersDone => "peers done".into(),
            }
        }
        /// What node 1 saw when every node ran `body`.
        fn waiter_saw(
            n: usize,
            body: impl Fn(&Arc<Fabric>, NicHandle) -> Vec<String> + Send + Sync + 'static,
        ) -> Vec<String> {
            cluster(n, body).swap_remove(1)
        }
        for deadline in [None, Some(DEADLINE)] {
            for watch in [None, Some([0usize])] {
                let cell = format!("deadline={deadline:?} watch={watch:?}");
                let wait = move |nic: &mut NicHandle| {
                    show(nic.wait(Some(&[5]), deadline, watch.as_ref().map(|w| &w[..])))
                };

                // Delivery wins: an in-time packet is handed over.
                let saw = waiter_saw(2, move |_, mut nic| match nic.node() {
                    1 => vec![wait(&mut nic)],
                    _ => {
                        nic.inject(1, 0, 5, Bytes::from_static(b"hit"), Ns(1_000), None);
                        vec![]
                    }
                });
                assert_eq!(saw, ["got hit"], "{cell}");

                if deadline.is_some() {
                    // Deadline wins over a later-keyed transmit, although
                    // its sender asked first (node 0 runs first); the
                    // packet is there for the next wait.
                    let saw = waiter_saw(2, move |_, mut nic| match nic.node() {
                        1 => vec![wait(&mut nic), show(nic.wait(Some(&[5]), None, None))],
                        _ => {
                            nic.inject(1, 0, 5, Bytes::from_static(b"late"), Ns::from_ms(1), None);
                            vec![]
                        }
                    });
                    assert_eq!(saw, ["deadline", "got late"], "{cell}");

                    // A queued packet past the deadline stays queued and
                    // reports Deadline without parking.
                    let saw = waiter_saw(2, move |f, mut nic| match nic.node() {
                        1 => {
                            f.transmit(1, 1, 0, 5, Bytes::from_static(b"far"), Ns::from_ms(10), None, false);
                            vec![wait(&mut nic), format!("{} queued", nic.queued(5))]
                        }
                        _ => vec![],
                    });
                    assert_eq!(saw, ["deadline", "1 queued"], "{cell}");
                }

                if watch.is_some() {
                    // Peers-done wins: the watched peer leaves silently.
                    let saw = waiter_saw(2, move |_, mut nic| match nic.node() {
                        1 => vec![wait(&mut nic)],
                        _ => vec![],
                    });
                    assert_eq!(saw, ["peers done"], "{cell}");

                    // The final drain on PeersDone hands over a packet
                    // whatever its arrival. Node 0's transmit to (departed)
                    // node 2 is released only once node 1 is parked, so the
                    // loopback push it then makes on node 1's behalf lands
                    // behind the waiter's drain, uncredited; the peer's
                    // departure is what wakes the waiter.
                    let saw = waiter_saw(3, move |f, mut nic| match nic.node() {
                        1 => vec![wait(&mut nic)],
                        0 => {
                            nic.inject(2, 0, 0, Bytes::new(), Ns(1_000), None);
                            f.transmit(1, 1, 0, 5, Bytes::from_static(b"far"), Ns::from_ms(10), None, false);
                            vec![]
                        }
                        _ => vec![],
                    });
                    assert_eq!(saw, ["got far"], "{cell}");
                }
            }
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"x"), Ns(0), None, false);
        assert!(nics[1].peek_port(5).is_some());
        assert!(nics[1].peek_port(5).is_some());
        assert!(nics[1].poll_port(5).is_some());
        assert!(nics[1].peek_port(5).is_none());
    }
}
