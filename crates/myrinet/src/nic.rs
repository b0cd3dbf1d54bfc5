//! A node's NIC: its mailbox ([`tm_sim::mailbox`], whose rules every
//! receive here follows), keyed by destination port, and its sends
//! through the [`Fabric`]'s links.

use std::rc::Rc;

use bytes::Bytes;
use tm_sim::mailbox::Mailbox;
use tm_sim::{Ns, Wait};

use crate::fabric::Fabric;
use crate::packet::{NodeId, RawPacket};

/// A node's handle on its NIC. Owned by the node, and — like the fabric
/// and mailboxes behind it — bound to the cluster's thread:
///
/// ```compile_fail
/// fn crosses_threads<T: Send>() {}
/// crosses_threads::<tm_myrinet::NicHandle>();
/// ```
///
/// A tie between equal arrivals goes to the port first used. Dropping the
/// handle takes the node off the fabric: a later packet to it is counted
/// in [`Fabric::shutdown_races`].
pub struct NicHandle {
    mailbox: Mailbox<RawPacket>,
    fabric: Rc<Fabric>,
}

impl NicHandle {
    pub(crate) fn new(mailbox: Mailbox<RawPacket>, fabric: Rc<Fabric>) -> Self {
        NicHandle { mailbox, fabric }
    }

    pub fn node(&self) -> NodeId {
        self.mailbox.node()
    }

    pub fn fabric(&self) -> &Rc<Fabric> {
        &self.fabric
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
        let (src, dst) = ((self.node(), src_port), (dst, dst_port));
        self.fabric.transmit(src, dst, payload, inject_time)
    }

    /// Non-blocking poll of one port.
    pub fn poll_port(&mut self, port: u16) -> Option<RawPacket> {
        self.mailbox.pop(port)
    }

    /// Hand every packet queued on `ports` to `take` ([`Mailbox::drain`]).
    pub fn drain_ports(&mut self, ports: &[u16], take: impl FnMut(RawPacket)) {
        self.mailbox.drain(ports, take)
    }

    /// The one receive ([`Mailbox::wait`]): the earliest packet on `ports`
    /// (all ports when `None`) that arrives by the deadline, or the
    /// deadline. With deadline *now* it is a poll.
    pub fn wait(&mut self, ports: Option<&[u16]>, deadline: Option<Ns>) -> Wait<RawPacket> {
        self.mailbox.wait(ports, deadline)
    }

    /// Block until any packet at all arrives (raw benchmarks and tests).
    pub fn recv_blocking(&mut self) -> RawPacket {
        self.wait(None, None).got()
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
        assert!(nics[1].poll_port(5).is_none());
        assert_eq!(&nics[1].poll_port(7).expect("c0 stays").payload[..], b"c0");
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

                // A packet queued past the deadline does not end the wait:
                // an earlier-keyed transmit lands first and is handed
                // over, and the far packet stays queued.
                let saw = waiter_saw(move |f, mut nic| match nic.node() {
                    1 => {
                        let far = Bytes::from_static(b"far");
                        f.transmit((1, 0), (1, 6), far, Ns::from_ms(10));
                        let mut both = |d| show(nic.wait(Some(&[5, 6]), d));
                        vec![both(deadline), both(deadline), both(None)]
                    }
                    _ => {
                        nic.inject(1, 0, 5, Bytes::from_static(b"near"), Ns(1_000), None);
                        vec![]
                    }
                });
                assert_eq!(saw, ["got near", "deadline", "got far"], "{cell}");
            }
        }
    }
}
