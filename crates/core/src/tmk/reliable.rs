//! DSM-level reliability, which GM gives FAST/GM for free and UDP makes
//! TreadMarks carry itself. [`Tmk::new`] asks the substrate for its
//! [`retransmit_timeout`](Substrate::retransmit_timeout) once and builds a
//! [`Reliable`] only when there is one: the backoff and give-up rule of
//! each issued rpc's [`Resend`] timer, the responder's [`ReplayRecords`],
//! and what the node has heard — when a frame last arrived, and which
//! peers have said [`Request::Gone`]. A reliable transport builds none of
//! this.
//!
//! A node learns that a peer is gone from the wire alone, as a sender in
//! the paper does from its own timer: from the peer's `Gone`, or from a
//! quiet period of silence at the exit.
//!
//! The exit is TCP's close, with `Gone` for the FIN: a child resends its
//! `Gone` on its rpc timer until the parent answers it from the child's
//! barrier slot, and a lingering parent re-sends the exit release to each
//! child that has not said `Gone` once an `rto` passes. Either side's last
//! wait ends after [`QUIET_RTOS`] `rto`s with nothing heard — the
//! TIME_WAIT — never at the backoff ceiling.

use std::cmp::Ordering;

use tm_sim::Ns;

use super::{Tmk, TmkEvent};
use crate::protocol::{Request, Response};
use crate::substrate::{Chan, Substrate};
use crate::wire::WireWriter;

/// An exit's wait ends after this many initial retransmission timeouts
/// with nothing heard: a few resends of a `Gone` or of a release, however
/// far the backoff has climbed.
pub(super) const QUIET_RTOS: u64 = 4;

/// The lossy-transport state of one node: `Some` in [`Tmk`] exactly when
/// the substrate can lose a message.
#[derive(Debug)]
pub(super) struct Reliable {
    /// Initial retransmission timeout, and the period of a lingering
    /// parent's re-sent releases.
    rto0: Ns,
    /// Backoff ceiling, `rto0 << give_up`: a timeout this long counts
    /// toward giving up.
    rto_ceiling: Ns,
    /// Timeouts of one rid at the ceiling, with nothing heard from its
    /// peer, before the node gives up.
    give_up: u32,
    /// Responder-side duplicate suppression.
    replay: ReplayRecords,
    /// Key of the request currently being dispatched, for filing its
    /// replay record at the response site.
    serving: Option<ReplayKey>,
    /// Arrival of the latest frame from any peer.
    heard: Ns,
    /// `gone[p]`: peer `p` has said `Gone`.
    gone: Vec<bool>,
    /// In one of the exit's waits, which are also bounded by quiet.
    leaving: Option<Leaving>,
}

/// One of a leaving node's waits: the linger for its children's `Gone`,
/// or the wait for its own `Gone`'s answer.
#[derive(Debug)]
struct Leaving {
    /// When the wait began: its quiet period runs from here or from the
    /// latest frame heard, whichever is later.
    since: Ns,
    /// When a linger next re-sends the release of every child that has
    /// not said `Gone`; `None` for the wait for our own answer.
    nudge: Option<Ns>,
    /// The quiet period passed with nothing heard.
    quiet: bool,
}

impl Reliable {
    /// Reliability for an `n`-node cluster whose first timeout is `rto0`
    /// and whose give-up budget is `give_up` silent timeouts at the
    /// ceiling.
    pub(super) fn new(rto0: Ns, give_up: u32, n: usize) -> Self {
        Reliable {
            rto0,
            rto_ceiling: rto0 * (1u64 << give_up.min(20)),
            give_up,
            replay: ReplayRecords::new(n),
            serving: None,
            heard: Ns::ZERO,
            gone: vec![false; n],
            leaving: None,
        }
    }

    /// The timer of a request issued at `now`, retaining its `frame`.
    pub(super) fn resend(&self, frame: Vec<u8>, now: Ns) -> Resend {
        Resend {
            frame,
            rto: self.rto0,
            deadline: now + self.rto0,
            attempts: 0,
            silent: 0,
        }
    }

    /// Start serving `from`'s request `rid`: the recorded action if it is
    /// a duplicate, else `None` with the request's key held for
    /// [`Self::settle`].
    pub(super) fn admit(&mut self, from: usize, rid: u32, req: &Request) -> Option<Duplicate> {
        let key = ReplayKey::of(from, rid, req);
        let seen = self.replay.lookup(key).map(|action| Duplicate(action, key));
        self.serving = seen.is_none().then_some(key);
        seen
    }

    /// Record `action`, and `bytes` if it sent some, for the request being
    /// served, if it has no record yet (none while replaying, or once a
    /// handler has answered).
    pub(super) fn settle(&mut self, action: ReplayAction, bytes: &[u8]) {
        if let Some(key) = self.serving.take() {
            self.replay.remember(key, action, bytes);
        }
    }

    /// Upgrade requester `to`'s slot of `class` to the answer sent out of
    /// band, so a duplicate of the request replays it.
    pub(super) fn answered(&mut self, class: Class, to: usize, rid: u32, bytes: &[u8]) {
        let sent = ReplayAction::Sent {
            chan: Chan::Response,
            to,
        };
        self.replay.remember(ReplayKey(class, to, rid), sent, bytes);
    }

    /// End of a dispatch: handlers that responded already settled the
    /// key; anything left would mis-attribute a later response.
    pub(super) fn served(&mut self) {
        self.serving = None;
    }

    #[cfg(test)]
    pub(super) fn requesters(&self) -> usize {
        self.replay.slots.len()
    }
}

/// The retransmission timer of one issued rpc (lossy transports only).
#[derive(Debug)]
pub(super) struct Resend {
    /// The encoded request, kept for retransmission.
    pub(super) frame: Vec<u8>,
    /// Current (backed-off) retransmission timeout.
    rto: Ns,
    /// Virtual-time deadline of the next retransmission.
    deadline: Ns,
    attempts: u32,
    /// Timeouts at the backoff ceiling since a frame last arrived from the
    /// peer: only these count against the give-up budget.
    silent: u32,
}

/// What to do when a duplicate of an already-seen request arrives
/// (lossy transports retransmit; handlers must stay idempotent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ReplayAction {
    /// Nothing to send. The original is still queued (lock wait, barrier
    /// wait) and its grant/release goes out through the normal path, which
    /// upgrades this record to `Sent` — or the requester has since issued
    /// a later request of the same class, so it holds the answer already.
    Pending,
    /// We put the slot's bytes on `chan` for `to`: send them again. On
    /// [`Chan::Response`] they answered the request (the original answer
    /// may be the loss that triggered the retransmit); on
    /// [`Chan::Request`] they forwarded it (lock manager → owner), and the
    /// identical frame carries the same forwarded rid, so dedup chains
    /// compose.
    Sent { chan: Chan, to: usize },
}

/// A duplicate [`Reliable::admit`] recognized: what its slot records, and
/// the slot.
#[derive(Debug)]
pub(super) struct Duplicate(ReplayAction, ReplayKey);

/// The three requests a node waits on. It has at most one of each open
/// to any one peer — one acquire, one barrier arrival, one fetch — which
/// is what makes a slot per requester per class an exact record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Class {
    Acquire,
    /// A barrier arrival, and the `Gone` that follows the exit barrier's:
    /// a child says it only once it holds the exit release, so its answer
    /// displaces a record the child no longer needs.
    Barrier,
    /// A fetch (`Diff`, `MultiDiff`, `Page`). A fault round issues at most
    /// one per writer and collects them all before the next round, a page
    /// fetch blocks, and a handler issues no rpc.
    Data,
}

impl Class {
    /// The class of a request.
    pub(super) fn of(req: &Request) -> Class {
        match req {
            Request::Acquire { .. } | Request::AcquireFwd { .. } => Class::Acquire,
            Request::BarrierArrive { .. } | Request::Gone => Class::Barrier,
            Request::Diff { .. } | Request::MultiDiff { .. } | Request::Page { .. } => Class::Data,
        }
    }

    /// [`Class::of`] an encoded request, read from its kind byte alone:
    /// nothing is decoded; `None` for a frame that is no request.
    pub(super) fn of_frame(frame: &[u8]) -> Option<Class> {
        Some(match *frame.get(4)? {
            3 | 4 => Class::Acquire,
            5 | 6 | 9 => Class::Barrier,
            1 | 2 | 7 => Class::Data,
            _ => return None,
        })
    }
}

/// Where the replay record of a request lives: `requester`'s slot of its
/// class, holding the request's rid *in the requester's rid space*. A
/// forwarded acquire names its requester and original rid on the wire,
/// so the manager's and the owner's records of one acquire carry one key.
#[derive(Debug, Clone, Copy)]
struct ReplayKey(Class, usize, u32);

impl ReplayKey {
    /// Key a decoded request that `from` sent under `rid`.
    fn of(from: usize, rid: u32, req: &Request) -> ReplayKey {
        let class = Class::of(req);
        match *req {
            Request::AcquireFwd { requester, rid, .. } => ReplayKey(class, requester as usize, rid),
            _ => ReplayKey(class, from, rid),
        }
    }
}

/// Responder-side duplicate suppression: one slot per requester per
/// class. No capacity, no scan, and nothing but the same requester's
/// *next* request of the same class displaces a record — by which time
/// the requester holds the answer. Against a slot, an equal rid is a
/// duplicate to replay, a smaller one a late duplicate of a completed
/// request (swallowed, never re-executed: a re-run acquire would queue a
/// waiter nobody is behind, a re-run fetch would answer a rid nobody
/// collects), a larger one new.
#[derive(Debug)]
struct ReplayRecords {
    /// `slots[requester][class]`: that requester's latest request of that
    /// class to reach this node.
    slots: Vec<[Option<Slot>; 3]>,
}

/// One requester's latest request of one class: its rid, the action taken
/// and the bytes it sent, in a buffer the slot keeps for the next request's.
#[derive(Debug)]
struct Slot {
    rid: u32,
    action: ReplayAction,
    bytes: Vec<u8>,
}

impl ReplayRecords {
    /// Records for requests from `n` nodes.
    fn new(n: usize) -> Self {
        ReplayRecords {
            slots: (0..n).map(|_| [None, None, None]).collect(),
        }
    }

    /// The recorded action for `key`, if the request was seen.
    fn lookup(&self, ReplayKey(class, requester, rid): ReplayKey) -> Option<ReplayAction> {
        let slot = self.slots[requester][class as usize].as_ref()?;
        match rid.cmp(&slot.rid) {
            Ordering::Equal => Some(slot.action),
            Ordering::Less => Some(ReplayAction::Pending),
            Ordering::Greater => None,
        }
    }

    /// The bytes `requester`'s slot of `class` sent, lent out to be sent
    /// again; give them back with [`Self::restore`].
    fn lend(&mut self, class: Class, requester: usize) -> Vec<u8> {
        let slot = self.slots[requester][class as usize].as_mut();
        std::mem::take(&mut slot.expect("a recorded request").bytes)
    }

    fn restore(&mut self, class: Class, requester: usize, bytes: Vec<u8>) {
        let slot = self.slots[requester][class as usize].as_mut();
        slot.expect("a recorded request").bytes = bytes;
    }

    /// Record the action taken for `key` and the bytes it sent (none when
    /// pending): written by its request's first copy, and upgraded by a
    /// queued request's answer. The bytes are copied into the buffer the
    /// slot already has.
    fn remember(
        &mut self,
        ReplayKey(class, requester, rid): ReplayKey,
        action: ReplayAction,
        bytes: &[u8],
    ) {
        let slot = &mut self.slots[requester][class as usize];
        debug_assert!(
            slot.as_ref().is_none_or(|s| s.rid <= rid),
            "node {requester}'s {class:?} slot moved backwards to rid {rid}"
        );
        let mut buf = slot.take().map(|s| s.bytes).unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        *slot = Some(Slot {
            rid,
            action,
            bytes: buf,
        });
    }
}

impl<S: Substrate> Tmk<S> {
    /// If the request being served hasn't recorded an action yet, record
    /// it as pending (response comes later — queued lock grant, barrier
    /// release). A retransmission arriving meanwhile is then recognized
    /// and suppressed instead of re-queued.
    pub(super) fn note_pending(&mut self) {
        if let Some(rel) = self.rel.as_mut() {
            rel.settle(ReplayAction::Pending, &[]);
        }
    }

    /// A retransmitted request matched its replay record: re-emit the
    /// recorded effect without re-running the handler. Pending records
    /// (response still owed, or long since received) are swallowed — the
    /// eventual grant/release answers the original rid.
    pub(super) fn replay_duplicate(&mut self, Duplicate(action, key): Duplicate, arrival: Ns) {
        self.clock().borrow_mut().stats.dup_requests_suppressed += 1;
        let cost = self.sub.params().dsm.handler_dispatch;
        match action {
            ReplayAction::Pending => {
                self.charge_service(arrival, cost);
            }
            ReplayAction::Sent { chan, to } => {
                let ReplayKey(class, requester, _) = key;
                let bytes = self.replay_records().lend(class, requester);
                self.send_in_window(chan, to, &bytes, arrival, cost);
                self.replay_records().restore(class, requester, bytes);
            }
        }
    }

    fn replay_records(&mut self) -> &mut ReplayRecords {
        &mut self
            .rel
            .as_mut()
            .expect("a replay is a lossy transport's")
            .replay
    }

    /// A frame from `from` arrived at `at`: its silence starts over.
    pub(super) fn heard(&mut self, from: usize, at: Ns) {
        let Some(rel) = self.rel.as_mut() else { return };
        rel.heard = rel.heard.max(at);
        for o in self.outstanding.iter_mut().filter(|o| o.to == from) {
            if let Some(r) = o.resend.as_mut() {
                r.silent = 0;
            }
        }
    }

    /// `from` has said `Gone`, under `rid`: whatever it owed us is not
    /// coming. Answered, so it stops resending; a resent copy finds the
    /// answer in its slot.
    pub(super) fn serve_gone(&mut self, from: usize, rid: u32, arrival: Ns, cost: Ns) {
        let rel = self.rel.as_mut().expect("only a lossy transport says Gone");
        rel.gone[from] = true;
        let mut w = WireWriter::pooled(5);
        Response::Gone.encode_into(rid, &mut w);
        self.respond_wire(from, w, arrival, cost);
    }

    /// Whether `peer` has said `Gone`.
    pub(super) fn is_gone(&self, peer: usize) -> bool {
        self.rel.as_ref().is_some_and(|rel| rel.gone[peer])
    }

    /// One of the exit's waits begins — a linger re-sends its children's
    /// releases every `rto` — and ends when its caller's condition holds or
    /// after the quiet period with nothing heard.
    pub(super) fn start_leaving(&mut self, linger: bool) {
        let now = self.clock().borrow().now();
        if let Some(rel) = self.rel.as_mut() {
            rel.leaving = Some(Leaving {
                since: now,
                nudge: linger.then_some(now + rel.rto0),
                quiet: false,
            });
        }
    }

    /// Whether the current exit wait heard nothing for its quiet period.
    pub(super) fn fell_quiet(&self) -> bool {
        let leaving = self.rel.as_ref().and_then(|rel| rel.leaving.as_ref());
        leaving.is_some_and(|l| l.quiet)
    }

    /// When a leaving node's wait next ends for its own timer: the end of
    /// its quiet period — `QUIET_RTOS` `rto`s after the wait began or the
    /// latest frame was heard — or, sooner, a linger's next re-send.
    pub(super) fn leave_deadline(&self) -> Option<Ns> {
        let rel = self.rel.as_ref()?;
        let l = rel.leaving.as_ref()?;
        let quiet = rel.heard.max(l.since) + rel.rto0 * QUIET_RTOS;
        Some(l.nudge.map_or(quiet, |n| n.min(quiet)))
    }

    /// The leaving node's timer fired: it fell quiet, or a linger re-sends
    /// the release to every child that has not said `Gone` — a child that
    /// lost its release may be backed off far past the quiet period.
    pub(super) fn leave_due(&mut self) {
        let now = self.clock().borrow().now();
        let rel = self.rel.as_mut().expect("a leaving node is lossy");
        let (heard, rto0) = (rel.heard, rel.rto0);
        let l = rel.leaving.as_mut().expect("a leaving node");
        if heard.max(l.since) + rto0 * QUIET_RTOS <= now {
            l.quiet = true;
            return;
        }
        l.nudge = Some(now + rto0);
        for child in self.tree_children() {
            if self.is_gone(child) {
                continue;
            }
            let bytes = self.replay_records().lend(Class::Barrier, child);
            let cost = self.sub.response_cost(bytes.len());
            self.clock().borrow_mut().advance(cost);
            let at = self.clock().borrow().now();
            self.sub.send_response_at(child, &bytes, at);
            self.replay_records().restore(Class::Barrier, child, bytes);
        }
    }

    /// Earliest retransmission deadline over unanswered slots.
    pub(super) fn nearest_deadline(&self) -> Option<Ns> {
        self.outstanding
            .iter()
            .filter(|o| o.response.is_none())
            .filter_map(|o| o.resend.as_ref().map(|r| r.deadline))
            .min()
    }

    /// Retransmit every unanswered slot whose deadline has passed.
    ///
    /// The backoff doubles up to `rto_ceiling`. A timeout counts against
    /// the give-up budget only once it has waited the whole ceiling: a peer
    /// holding the request queued (a lock held across a long computation)
    /// answers nothing for as long as it holds it, and the climb to the
    /// ceiling alone takes `give_up` timeouts.
    pub(super) fn retransmit_due(&mut self) {
        let Some(rel) = self.rel.as_ref() else { return };
        let (cap, ceiling) = (rel.give_up, rel.rto_ceiling);
        let woke = self.clock().borrow().now();
        for i in 0..self.outstanding.len() {
            let o = &mut self.outstanding[i];
            let (rid, to) = (o.rid, o.to);
            let Some(mut r) = o
                .resend
                .take_if(|r| o.response.is_none() && r.deadline <= woke)
            else {
                continue;
            };
            r.attempts += 1;
            if r.rto == ceiling {
                r.silent += 1;
                assert!(
                    r.silent <= cap,
                    "node {}: rid {rid} to {to}: gave up after {cap} silent retransmissions \
                     ({} total)",
                    self.me,
                    r.attempts
                );
            }
            self.clock().borrow_mut().stats.retransmits += 1;
            self.emit(TmkEvent::RetransmitFired {
                rid,
                attempt: r.attempts,
            });
            self.sub.send_request(to, &r.frame);
            let now = self.clock().borrow().now();
            r.rto = (r.rto * 2).min(ceiling);
            r.deadline = now + r.rto;
            self.outstanding[i].resend = Some(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn respond(to: usize) -> ReplayAction {
        ReplayAction::Sent {
            chan: Chan::Response,
            to,
        }
    }

    /// A coalesced fetch of `pages`, as it arrived.
    fn multi_diff(pages: &[(u32, u32, u32)]) -> Request<'static> {
        let mut w = crate::wire::WireWriter::new();
        crate::protocol::encode_multi_diff(1, pages.iter().copied(), &mut w);
        let frame: &'static [u8] = Box::leak(w.finish().into_boxed_slice());
        Request::decode(frame).expect("an encoded fetch").1
    }

    fn acquire(requester: usize, rid: u32) -> ReplayKey {
        ReplayKey(Class::Acquire, requester, rid)
    }

    fn fetch(requester: usize, rid: u32) -> ReplayKey {
        ReplayKey(Class::Data, requester, rid)
    }

    /// The bytes `key`'s slot replays, which must be a send.
    fn sent_bytes(c: &mut ReplayRecords, key: ReplayKey) -> Vec<u8> {
        let ReplayKey(class, requester, _) = key;
        match c.lookup(key) {
            Some(ReplayAction::Sent { .. }) => {
                let bytes = c.lend(class, requester);
                c.restore(class, requester, bytes.clone());
                bytes
            }
            other => panic!("expected Sent, got {other:?}"),
        }
    }

    #[test]
    fn remember_then_lookup() {
        let mut c = ReplayRecords::new(8);
        assert!(c.lookup(fetch(3, 7)).is_none());
        c.remember(fetch(3, 7), respond(3), b"page");
        assert!(c.lookup(fetch(3, 7)).is_some());
        // Same rid from a different node is a different request.
        assert!(c.lookup(fetch(4, 7)).is_none());
        // A requester's fetch, acquire and barrier arrival are three slots.
        assert!(c.lookup(acquire(3, 7)).is_none());
        c.remember(acquire(3, 7), ReplayAction::Pending, &[]);
        assert!(c.lookup(ReplayKey(Class::Barrier, 3, 7)).is_none());
        assert_eq!(sent_bytes(&mut c, fetch(3, 7)), b"page");
    }

    #[test]
    fn upgrade_in_place_pending_to_respond() {
        // A queued lock acquire is Pending until the grant goes out; the
        // upgrade replaces the record.
        let mut c = ReplayRecords::new(8);
        c.remember(acquire(2, 11), ReplayAction::Pending, &[]);
        assert!(matches!(
            c.lookup(acquire(2, 11)),
            Some(ReplayAction::Pending)
        ));
        c.remember(acquire(2, 11), respond(2), b"grant");
        assert_eq!(sent_bytes(&mut c, acquire(2, 11)), b"grant");
    }

    #[test]
    fn a_slot_orders_its_requesters_rids() {
        let mut c = ReplayRecords::new(8);
        c.remember(acquire(2, 11), respond(2), b"grant");
        // The requester's next acquire is new — and once recorded, a late
        // copy of the completed one is swallowed, never new again.
        assert!(c.lookup(acquire(2, 12)).is_none());
        c.remember(acquire(2, 12), ReplayAction::Pending, &[]);
        assert!(matches!(
            c.lookup(acquire(2, 11)),
            Some(ReplayAction::Pending)
        ));
        assert!(c.lookup(acquire(2, 13)).is_none());
    }

    /// A fetch's slot has the three outcomes of any slot: the rid it holds
    /// replays the answer sent, a smaller one (a late copy of a fetch the
    /// requester collected before it sent this one) is swallowed, a larger
    /// one is served.
    #[test]
    fn a_fetch_slot_replays_swallows_or_serves() {
        let mut c = ReplayRecords::new(4);
        c.remember(fetch(1, 20), respond(1), b"diffs");
        assert_eq!(sent_bytes(&mut c, fetch(1, 20)), b"diffs");
        assert!(matches!(
            c.lookup(fetch(1, 19)),
            Some(ReplayAction::Pending)
        ));
        assert!(c.lookup(fetch(1, 21)).is_none());
        // Serving the next fetch displaces the answer to the last one,
        // which the requester holds: its late copy is now swallowed.
        c.remember(fetch(1, 21), respond(1), b"page");
        assert_eq!(sent_bytes(&mut c, fetch(1, 21)), b"page");
        assert!(matches!(
            c.lookup(fetch(1, 20)),
            Some(ReplayAction::Pending)
        ));
        assert_eq!(
            c.slots.len(),
            4,
            "a record per requester, however many fetches"
        );
    }

    /// Every fetch files under its sender's data slot, under its own rid.
    #[test]
    fn fetches_key_on_their_sender() {
        let fetches = [
            Request::Diff {
                page: 3,
                lo: 1,
                hi: 2,
            },
            multi_diff(&[(3, 1, 2), (4, 1, 1)]),
            Request::Page { page: 3 },
        ];
        for req in &fetches {
            let ReplayKey(class, requester, rid) = ReplayKey::of(2, 77, req);
            assert_eq!((class, requester, rid), (Class::Data, 2, 77), "{req:?}");
        }
        // A `Gone` is the barrier arrival that follows the exit's.
        let ReplayKey(class, requester, rid) = ReplayKey::of(2, 78, &Request::Gone);
        assert_eq!((class, requester, rid), (Class::Barrier, 2, 78));
    }

    /// A request's class read from its frame's kind byte is the class of
    /// the decoded request, for a request of every kind.
    #[test]
    fn a_frame_has_its_requests_class() {
        let vc = crate::vc::VectorClock::new(2);
        let requests = [
            Request::Diff {
                page: 3,
                lo: 1,
                hi: 2,
            },
            Request::Page { page: 3 },
            multi_diff(&[(3, 1, 2)]),
            Request::Acquire {
                lock: 1,
                vc: vc.clone(),
            },
            Request::AcquireFwd {
                lock: 1,
                requester: 1,
                rid: 9,
                vc: vc.clone(),
            },
            Request::BarrierArrive {
                barrier: 1,
                floor: None,
                vc: vc.clone(),
                records: Vec::new(),
            },
            Request::BarrierArrive {
                barrier: 1,
                floor: Some(vc.clone()),
                vc,
                records: Vec::new(),
            },
            Request::Gone,
        ];
        for req in &requests {
            assert_eq!(
                Class::of_frame(&req.encode(77)),
                Some(Class::of(req)),
                "{req:?}"
            );
        }
        assert_eq!(Class::of_frame(&[]), None);
    }

    #[test]
    fn forwarded_grant_keyed_on_forward_identity() {
        // A forwarded acquire names its requester and original rid, and
        // that — not the `(manager, fwd_rid)` envelope it travels in — is
        // its identity at the owner: the grant is recorded under it, so a
        // re-forwarded `AcquireFwd` finds the grant, whatever envelope the
        // manager sends it in.
        let (manager, requester, rid) = (0usize, 2usize, 42u32);
        let fwd = Request::AcquireFwd {
            lock: 0,
            requester: requester as u16,
            rid,
            vc: crate::vc::VectorClock::new(3),
        };
        let mut c = ReplayRecords::new(3);
        let key = ReplayKey::of(manager, 900, &fwd);
        c.remember(key, ReplayAction::Pending, &[]);
        c.remember(key, respond(requester), b"grant-bytes");
        match c.lookup(ReplayKey::of(manager, 901, &fwd)) {
            Some(ReplayAction::Sent { to, .. }) => assert_eq!(to, requester),
            other => panic!("expected the grant to the requester, got {other:?}"),
        }
        // Nothing was filed under the manager.
        assert!(c.lookup(acquire(manager, 900)).is_none());
    }
}
