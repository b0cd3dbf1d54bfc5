//! Receive side of a node's NIC: demultiplexing and blocking waits.
//!
//! A wait ends on a packet or a virtual deadline. Nothing here says
//! whether a peer's NIC is still on the fabric: like a real host, a node
//! learns that a peer has left only from the packets it receives.

use std::cell::RefMut;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use tm_sim::{Ns, Wait};

use crate::fabric::Fabric;
use crate::packet::{NodeId, RawPacket};

/// A node's inbox: one queue per destination port, in the order the ports
/// were first used by either side (which is how [`NicHandle::wait`] breaks
/// a tie between equal arrivals). Owned by the [`Fabric`], which pushes
/// into it; the node's [`NicHandle`] reads it in place.
#[derive(Default)]
pub(crate) struct Inbox(Vec<(u16, VecDeque<RawPacket>)>);

impl Inbox {
    /// The queue of `port`, allocated on first use.
    pub(crate) fn port(&mut self, port: u16) -> &mut VecDeque<RawPacket> {
        let found = self.0.iter().position(|(p, _)| *p == port);
        let i = found.unwrap_or_else(|| {
            self.0.push((port, VecDeque::new()));
            self.0.len() - 1
        });
        &mut self.0[i].1
    }
}

/// A node's handle on its NIC. Owned by the node, and — like the fabric
/// and scheduler behind it — bound to the cluster's thread:
///
/// ```compile_fail
/// fn crosses_threads<T: Send>() {}
/// crosses_threads::<tm_myrinet::NicHandle>();
/// ```
///
/// Incoming packets sit in the node's inbox, demultiplexed per port as
/// they land. A blocking receive parks on the cluster's scheduler, which
/// suspends the node's context; if the protocol above deadlocks, the run
/// panics naming every node's state rather than hanging or producing
/// wrong numbers.
pub struct NicHandle {
    node: NodeId,
    fabric: Rc<Fabric>,
}

impl NicHandle {
    pub(crate) fn new(node: NodeId, fabric: Rc<Fabric>) -> Self {
        NicHandle { node, fabric }
    }

    /// This node's inbox. Borrowed for the length of one queue operation
    /// and never across a park: the sender that ends the wait pushes here.
    fn inbox(&self) -> RefMut<'_, Inbox> {
        RefMut::map(self.fabric.inbox(self.node).borrow_mut(), |i| {
            i.as_mut().expect("closes when this handle drops")
        })
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn fabric(&self) -> &Rc<Fabric> {
        &self.fabric
    }

    /// Settlement of a non-blocking poll's miss at virtual time `t`:
    /// returns `true` once the scheduler has released every event earlier
    /// than `t` (the miss is then final), or `false` if one of them
    /// delivered a packet here first (the caller must re-examine its
    /// queues).
    pub fn poll_quiesce(&self, t: Ns) -> bool {
        self.fabric.sched().park(self.node, Some(t)) == Wait::Deadline
    }

    /// Inject a packet from this node (sender side). Thin forwarding to
    /// [`Fabric::transmit`]; cost accounting is the caller's business.
    ///
    /// `unused` must be `None`. It is what is left of GM's directed send,
    /// which no layer models; the parameter stays only because the repo
    /// benchmark's NIC rung passes `None` to it.
    pub fn inject(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        unused: Option<(u32, u64)>,
    ) -> Ns {
        assert!(unused.is_none(), "no layer models a directed send");
        self.fabric
            .transmit((self.node, src_port), (dst, dst_port), payload, inject_time)
    }

    /// Non-blocking poll of one port.
    pub fn poll_port(&mut self, port: u16) -> Option<RawPacket> {
        self.inbox().port(port).pop_front()
    }

    /// Hand every packet queued on `ports` to `take`, port by port in the
    /// order given and each port's queue in arrival order, under one borrow
    /// of the inbox. Unlike [`NicHandle::poll_port`] it allocates no queue
    /// for a port nothing has landed on. `take` must not touch this node's
    /// inbox.
    pub fn drain_ports(&mut self, ports: &[u16], mut take: impl FnMut(RawPacket)) {
        let mut inbox = self.inbox();
        for &port in ports {
            if let Some((_, q)) = inbox.0.iter_mut().find(|(p, _)| *p == port) {
                while let Some(pkt) = q.pop_front() {
                    take(pkt);
                }
            }
        }
    }

    /// Number of packets queued for a port.
    #[cfg(test)]
    fn queued(&self, port: u16) -> usize {
        let inbox = self.inbox();
        let queue = inbox.0.iter().find(|(p, _)| *p == port);
        queue.map_or(0, |(_, q)| q.len())
    }

    /// Index of the demux queue whose front packet has the smallest
    /// arrival time among `ports` (or all ports when `None`) —
    /// virtual-time fairness between ports.
    fn best_queued_idx(&self, ports: Option<&[u16]>) -> Option<usize> {
        let mut best: Option<(usize, Ns)> = None;
        for (i, (p, q)) in self.inbox().0.iter().enumerate() {
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
    /// virtual time becomes the cluster's next event, whichever the
    /// scheduler orders first.
    ///
    /// * A queued packet whose arrival lies past the deadline stays
    ///   queued: the timer fires first, deterministically, and
    ///   [`Wait::Deadline`] is reported without parking. Likewise after a
    ///   deadline wake only a packet with `arrival <= deadline` is handed
    ///   over.
    /// * Selection among queued packets is by earliest virtual arrival;
    ///   per sender the wire is FIFO.
    ///
    /// The park is on the scheduler: a cluster in which nothing can end
    /// the wait is a panic naming every node's state — from `run_cluster`
    /// when every node is stuck, from here when the fabric is driven by
    /// hand outside a cluster and the wait has no deadline to end it.
    pub fn wait(&mut self, ports: Option<&[u16]>, deadline: Option<Ns>) -> Wait<RawPacket> {
        loop {
            if let Some(i) = self.best_queued_idx(ports) {
                return self
                    .pop_if_due(i, deadline)
                    .map_or(Wait::Deadline, Wait::Got);
            }
            // On one thread nothing can land between the look and the
            // park. After a deadline wake, one last look at the queues:
            // a packet due by the deadline still counts.
            if self.fabric.sched().park(self.node, deadline) == Wait::Got(()) {
                continue;
            }
            return self
                .best_queued_idx(ports)
                .and_then(|i| self.pop_if_due(i, deadline))
                .map_or(Wait::Deadline, Wait::Got);
        }
    }

    /// Pop the front packet of demux queue `i` unless it arrives after
    /// `deadline` (no deadline: pop it whatever its arrival).
    fn pop_if_due(&mut self, i: usize, deadline: Option<Ns>) -> Option<RawPacket> {
        let mut inbox = self.inbox();
        let q = &mut inbox.0[i].1;
        let arrival = q
            .front()
            .expect("best_queued_idx yields non-empty queues")
            .arrival;
        if deadline.is_some_and(|d| arrival > d) {
            return None;
        }
        q.pop_front()
    }

    /// Block until any packet at all arrives (raw benchmarks and tests).
    pub fn recv_blocking(&mut self) -> RawPacket {
        self.wait(None, None).got()
    }
}

impl Drop for NicHandle {
    fn drop(&mut self) {
        self.fabric.inbox(self.node).take();
        self.fabric.sched().mark_done(self.node);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use tm_sim::SimParams;

    fn pair() -> (Rc<Fabric>, Vec<NicHandle>) {
        Fabric::new(2, Arc::new(SimParams::paper_testbed()))
    }

    #[test]
    fn poll_port_demuxes() {
        let (f, mut nics) = pair();
        f.transmit((0, 9), (1, 5), Bytes::from_static(b"a"), Ns(0));
        f.transmit((0, 9), (1, 6), Bytes::from_static(b"b"), Ns(0));
        let n1 = &mut nics[1];
        let on5 = n1.poll_port(5).expect("packet on port 5");
        assert_eq!(&on5.payload[..], b"a");
        assert!(n1.poll_port(5).is_none());
        let on6 = n1.poll_port(6).expect("packet on port 6");
        assert_eq!(&on6.payload[..], b"b");
    }

    /// One drain empties the named ports in the order named, each in
    /// arrival order, and leaves every other port queued.
    #[test]
    fn drain_ports_follows_the_named_order() {
        let (f, mut nics) = pair();
        for (port, body) in [(6, b"b1"), (5, b"a1"), (7, b"c0"), (6, b"b2"), (5, b"a2")] {
            f.transmit((0, 9), (1, port), Bytes::from_static(body), Ns(0));
        }
        let mut got = Vec::new();
        nics[1].drain_ports(&[5, 6, 8], |p| got.push(p.payload.to_vec()));
        assert_eq!(got, [b"a1", b"a2", b"b1", b"b2"]);
        assert_eq!((nics[1].queued(5), nics[1].queued(7)), (0, 1));
    }

    #[test]
    fn wait_picks_earliest_arrival() {
        let (f, mut nics) = pair();
        // Loopback packet lands at 10ms on port 5; a wire packet from node
        // 0 lands microseconds in on port 6. Although the late one is
        // queued first, selection must follow virtual arrival time.
        f.transmit((1, 0), (1, 5), Bytes::from_static(b"late"), Ns::from_ms(10));
        f.transmit((0, 0), (1, 6), Bytes::from_static(b"early"), Ns(0));
        let got = nics[1].wait(Some(&[5, 6]), None).got();
        assert_eq!(&got.payload[..], b"early");
    }

    #[test]
    fn wait_ignores_other_ports() {
        let (f, mut nics) = pair();
        f.transmit((0, 0), (1, 7), Bytes::from_static(b"other"), Ns(0));
        f.transmit((0, 0), (1, 5), Bytes::from_static(b"mine"), Ns(0));
        let got = nics[1].wait(Some(&[5]), None).got();
        assert_eq!(&got.payload[..], b"mine");
        // The port-7 packet is still queued.
        assert_eq!(nics[1].queued(7), 1);
    }

    /// A hand-driven wait that nothing can end — no packet queued, no
    /// deadline — is a diagnosis, not a hang.
    #[test]
    fn a_hand_driven_wait_nothing_can_end_is_a_diagnosis() {
        let (_f, mut nics) = pair();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| nics[1].wait(None, None)))
                .expect_err("must not block");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            msg.contains("node 1 waits") && msg.contains("outside a cluster context"),
            "{msg}"
        );
        assert!(msg.contains("node 0: Running"), "{msg}");
    }

    /// [`NicHandle::wait`] inside a cluster, with and without a deadline.
    /// Node 1 waits on port 5; node 0 is the sender. Every outcome is
    /// decided by virtual keys.
    #[test]
    fn wait_matrix() {
        use crate::fabric::cluster;
        const DEADLINE: Ns = Ns(100_000);
        fn show(w: Wait<RawPacket>) -> String {
            match w {
                Wait::Got(p) => format!("got {}", String::from_utf8_lossy(&p.payload)),
                Wait::Deadline => "deadline".into(),
            }
        }
        /// What node 1 saw when every node ran `body`.
        fn waiter_saw(
            body: impl Fn(&Rc<Fabric>, NicHandle) -> Vec<String> + 'static,
        ) -> Vec<String> {
            cluster(2, body).swap_remove(1)
        }
        for deadline in [None, Some(DEADLINE)] {
            let cell = format!("deadline={deadline:?}");
            let wait = move |nic: &mut NicHandle| show(nic.wait(Some(&[5]), deadline));

            // Delivery wins: an in-time packet is handed over.
            let saw = waiter_saw(move |_, mut nic| match nic.node() {
                1 => vec![wait(&mut nic)],
                _ => {
                    nic.inject(1, 0, 5, Bytes::from_static(b"hit"), Ns(1_000), None);
                    vec![]
                }
            });
            assert_eq!(saw, ["got hit"], "{cell}");

            if deadline.is_some() {
                // Deadline wins over a later-keyed transmit, although its
                // sender asked first (node 0 runs first); the packet is
                // there for the next wait.
                let saw = waiter_saw(move |_, mut nic| match nic.node() {
                    1 => vec![wait(&mut nic), show(nic.wait(Some(&[5]), None))],
                    _ => {
                        nic.inject(1, 0, 5, Bytes::from_static(b"late"), Ns::from_ms(1), None);
                        vec![]
                    }
                });
                assert_eq!(saw, ["deadline", "got late"], "{cell}");

                // A queued packet past the deadline stays queued and
                // reports Deadline without parking.
                let saw = waiter_saw(move |f, mut nic| match nic.node() {
                    1 => {
                        let far = Bytes::from_static(b"far");
                        f.transmit((1, 0), (1, 5), far, Ns::from_ms(10));
                        vec![wait(&mut nic), format!("{} queued", nic.queued(5))]
                    }
                    _ => vec![],
                });
                assert_eq!(saw, ["deadline", "1 queued"], "{cell}");
            }
        }
    }
}
