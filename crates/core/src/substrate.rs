//! The transport abstraction the DSM runtime binds to.
//!
//! The paper's Figure 1 divides TreadMarks' communication needs into three
//! groups: sending requests (asynchronous at the receiver), sending
//! responses, and receiving responses (synchronous at the requester). A
//! [`Substrate`] provides exactly those services; FAST/GM and UDP/GM are
//! the two implementations under evaluation, and [`crate::memsub`]
//! provides an idealized in-memory one for protocol tests and "infinitely
//! fast network" ablations.
//!
//! The binding is a generic parameter of [`crate::Tmk`], monomorphized at
//! compile time — the paper's "bound to TreadMarks at compile time", with
//! zero dispatch overhead.
//!
//! # The one receive
//!
//! "Receive a response" — and everything else a node blocks on: a
//! barrier manager's arrivals, a retransmission timer, a shutdown linger,
//! the end of a compute segment — is one operation, [`Substrate::wait`]:
//! *a message that arrives by a virtual deadline, or the deadline*,
//! whichever the scheduler orders first, reported as a [`Wait`]. A poll
//! ([`Substrate::poll`]) is the same operation with deadline *now*, plus
//! what the transport charges for a miss. Each layer below defines the
//! operation once and passes it down: `UdpStack::recv` or
//! `GmNode::blocking_receive_by` over `NicHandle::wait` over the node's
//! mailbox (`tm_sim::mailbox`), which alone parks on the scheduler;
//! memsub waits in its mailbox directly. `UdpStack::try_recvfrom` and
//! `GmNode::receive`, the transports' polls, are those receives with
//! deadline *now*. The deadline means the same thing on every substrate.
//! Nothing here reports whether a peer is still there: a node learns that
//! from what arrives on the wire.
//!
//! # Scheduling contract
//!
//! A cluster's nodes are contexts on one thread and the scheduler
//! (`tm_sim::sched`) releases one event at a time, in virtual-key order. A
//! substrate has nothing to declare for that: it participates by routing
//! every send, every wait and every poll through its node's mailbox
//! (`tm_sim::mailbox`, the scheduler's one client) — under a NIC handle
//! for the two transports, directly for [`crate::memsub`]. What it
//! must *not* do is block in the operating system, or leave the cluster's
//! thread: the node that would unblock it shares that thread. The second
//! half needs no care — a substrate holds a [`SharedClock`] and a mailbox,
//! both `Rc`, so it is `!Send`. Nothing at this level or above knows a
//! scheduler exists.

use std::sync::Arc;

use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Wait};

/// Which logical channel a message arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chan {
    /// Asynchronous: interrupts (or signals) the receiver.
    Request,
    /// Synchronous: the receiver is blocked waiting for it.
    Response,
}

/// A message delivered by the substrate.
#[derive(Debug, PartialEq)]
pub struct IncomingMsg {
    pub from: usize,
    pub chan: Chan,
    pub data: Vec<u8>,
    /// Virtual arrival time at this node.
    pub arrival: Ns,
}

/// A request/response transport for one node. Implementations own the
/// node's clock charging for their own operations.
pub trait Substrate {
    fn my_id(&self) -> usize;
    fn nprocs(&self) -> usize;
    fn clock(&self) -> &SharedClock;
    fn params(&self) -> &Arc<SimParams>;

    /// How asynchronous requests reach the application on this transport
    /// (NIC interrupt for FAST/GM, SIGIO for UDP, …).
    fn scheme(&self) -> AsyncScheme;

    /// Send `data` on `chan`. `None`: now, charging the clock for the send
    /// path. `Some(at)`: a frame whose work the runtime already accounted
    /// (a handler's service window, which included
    /// [`response_cost`](Substrate::response_cost)) leaves at virtual time
    /// `at`, and the clock is not charged.
    fn send(&mut self, to: usize, chan: Chan, data: &[u8], at: Option<Ns>);

    /// Send an asynchronous request now.
    fn send_request(&mut self, to: usize, data: &[u8]) {
        self.send(to, Chan::Request, data, None)
    }

    /// Send a response whose service (handler + send) completed at `at`.
    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.send(to, Chan::Response, data, Some(at))
    }

    /// Host-side cost of emitting a frame of `len` bytes from a handler.
    /// The runtime folds this into the request's service duration before
    /// it sends at the window's end.
    fn response_cost(&self, len: usize) -> Ns;

    /// A poll: the first message of `chans`, taken channel by channel in
    /// the order given, whose arrival is at or before the node's current
    /// virtual time — [`wait`](Substrate::wait)'s rule with deadline
    /// *now*, plus what the transport charges for a miss. The runtime
    /// polls `[Request]` at its application boundaries, and `[Response,
    /// Request]` after a blocking receive to gather the whole arrived
    /// burst, which it then dispatches in virtual-arrival order.
    fn poll(&mut self, chans: &[Chan]) -> Option<IncomingMsg>;

    /// The one receive: block until a request or response arrives, or —
    /// when `deadline` is set — until that *virtual* time passes (the
    /// runtime's retransmission timers, compute segments and shutdown
    /// linger run on this). A message queued to arrive past the deadline
    /// does not end the wait early: an earlier one may still land first.
    ///
    /// On [`Wait::Got`] the clock has advanced to the message's arrival
    /// if the node was idle-waiting; on [`Wait::Deadline`] it has
    /// advanced to the deadline, and a message that arrives later stays
    /// queued for the next wait. `msgs_recv` counts every message a wait
    /// or a poll hands over.
    fn wait(&mut self, deadline: Option<Ns>) -> Wait<IncomingMsg>;

    /// [`wait`](Substrate::wait) with no deadline: block until any
    /// request or response arrives.
    fn next_incoming(&mut self) -> IncomingMsg {
        self.wait(None).got()
    }

    /// Initial retransmission timeout, if this transport can lose a message
    /// under the current fault plan. `None` (the default, and the answer
    /// for every reliable transport) builds no reliability state at all.
    fn retransmit_timeout(&self) -> Option<Ns> {
        None
    }
}
