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
//! the paper does from its own timer: from the peer's `Gone`, or from
//! silence at the backoff ceiling.

use std::cmp::Ordering;
use std::collections::VecDeque;

use tm_sim::Ns;

use super::{Tmk, TmkEvent};
use crate::protocol::Request;
use crate::substrate::{Chan, Substrate};

/// The lossy-transport state of one node: `Some` in [`Tmk`] exactly when
/// the substrate can lose a message.
#[derive(Debug)]
pub(super) struct Reliable {
    /// Initial retransmission timeout.
    rto0: Ns,
    /// Backoff ceiling, `rto0 << give_up`: a timeout this long counts
    /// toward giving up, and a shutdown linger this silent ends.
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
    /// In the shutdown linger: its waits are also bounded by silence.
    leaving: bool,
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
            leaving: false,
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
    /// a duplicate, else `None` with the request's key (if it files a
    /// record) held for [`Self::settle`].
    pub(super) fn admit(&mut self, from: usize, rid: u32, req: &Request) -> Option<ReplayAction> {
        let key = ReplayKey::of(from, rid, req);
        let seen = key.and_then(|k| self.replay.lookup(k));
        self.serving = key.filter(|_| seen.is_none());
        seen
    }

    /// Record `action()` for the request being served, if it has no record
    /// yet (none while replaying, or once a handler has answered).
    pub(super) fn settle(&mut self, action: impl FnOnce() -> ReplayAction) {
        if let Some(key) = self.serving.take() {
            self.replay.remember(key, action());
        }
    }

    /// Upgrade requester `to`'s slot of `class` to the answer sent out of
    /// band, so a duplicate of the request replays it.
    pub(super) fn answered(&mut self, class: Class, to: usize, rid: u32, bytes: &[u8]) {
        let sent = ReplayAction::Sent { chan: Chan::Response, to, bytes: bytes.to_vec() };
        self.replay.remember(ReplayKey::Slot(class, to, rid), sent);
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
#[derive(Debug, Clone)]
pub(super) enum ReplayAction {
    /// Nothing to send. The original is still queued (lock wait, barrier
    /// wait) and its grant/release goes out through the normal path, which
    /// upgrades this record to `Sent` — or the requester has since issued
    /// a later request of the same class, so it holds the answer already.
    Pending,
    /// We put these bytes on `chan` for `to`: send them again. On
    /// [`Chan::Response`] they answered the request (the original answer
    /// may be the loss that triggered the retransmit); on
    /// [`Chan::Request`] they forwarded it (lock manager → owner), and the
    /// identical frame carries the same forwarded rid, so dedup chains
    /// compose.
    Sent { chan: Chan, to: usize, bytes: Vec<u8> },
}

/// The two requests a node blocks on. It has at most one of each open —
/// one acquire, one barrier arrival — which is what makes a slot per
/// requester per class an exact record.
#[derive(Debug, Clone, Copy)]
pub(super) enum Class {
    Acquire,
    Barrier,
}

/// Where the replay record of a request lives.
#[derive(Debug, Clone, Copy)]
enum ReplayKey {
    /// A blocking request — serving it changes lock or barrier state, so
    /// it is served at most once: `requester`'s slot of `class`, holding
    /// the request's rid *in the requester's rid space*. A forwarded
    /// acquire names its requester and original rid on the wire, so the
    /// manager's and the owner's records of one acquire carry one key.
    Slot(Class, usize, u32),
    /// An idempotent fetch (`Diff`, `MultiDiff`, `Page`): `(from, rid)` in
    /// the bounded data FIFO.
    Data(usize, u32),
}

impl ReplayKey {
    /// Classify a decoded request that `from` sent under `rid`; `None` for
    /// a `Gone`, which files no record.
    fn of(from: usize, rid: u32, req: &Request) -> Option<ReplayKey> {
        Some(match *req {
            Request::Acquire { .. } => ReplayKey::Slot(Class::Acquire, from, rid),
            Request::AcquireFwd { requester, rid, .. } => {
                ReplayKey::Slot(Class::Acquire, requester as usize, rid)
            }
            Request::BarrierArrive { .. } | Request::BarrierTreeArrive { .. } => {
                ReplayKey::Slot(Class::Barrier, from, rid)
            }
            Request::Diff { .. } | Request::MultiDiff { .. } | Request::Page { .. } => {
                ReplayKey::Data(from, rid)
            }
            Request::Gone => return None,
        })
    }
}

/// Data-FIFO depth. Not a correctness parameter: a record evicted before
/// its duplicate arrives costs re-running an idempotent handler (a
/// re-encode at handler cost instead of a replay at dispatch cost) and
/// nothing else. Kept at the depth the goldens' virtual times were
/// recorded under.
pub(super) const DATA_FIFO_CAP: usize = 128;

/// Responder-side duplicate suppression.
///
/// A blocking request's record is its requester's slot
/// ([`ReplayKey::Slot`]): no capacity, no scan, and nothing but the same
/// requester's *next* request of the same class displaces it — by which
/// time the requester holds the answer. Against a slot, an equal rid is a
/// duplicate to replay, a smaller one a late duplicate of a completed
/// request (swallowed, never re-executed: re-running it would queue a
/// waiter nobody is behind), a larger one new. Idempotent requests share a
/// FIFO of the responses sent, indexed by key so that a lookup is a binary
/// search, not a scan of the FIFO. The scan stays as the spec, checked by
/// `debug_assert!` on every lookup.
#[derive(Debug)]
struct ReplayRecords {
    /// `slots[requester][class]`: rid and action of that requester's
    /// latest blocking request of that class to reach this node.
    slots: Vec<[Option<(u32, ReplayAction)>; 2]>,
    /// `(from, rid, the response sent)`, oldest first.
    data: VecDeque<(usize, u32, ReplayAction)>,
    /// `(data_key, push number)` of each record in `data`, sorted by key:
    /// the record is `data[push - evicted]`. A sorted `Vec` of at most
    /// [`DATA_FIFO_CAP`] pairs, not a hash table, which an insert and a
    /// remove per record grow to twice that.
    index: Vec<(u64, u64)>,
    /// Records evicted so far: the push number of `data`'s front.
    evicted: u64,
}

impl ReplayRecords {
    /// Records for requests from `n` nodes.
    fn new(n: usize) -> Self {
        ReplayRecords {
            slots: vec![[None, None]; n],
            data: VecDeque::new(),
            index: Vec::with_capacity(DATA_FIFO_CAP),
            evicted: 0,
        }
    }

    /// The recorded action for `key`, if the request was seen.
    fn lookup(&self, key: ReplayKey) -> Option<ReplayAction> {
        match key {
            ReplayKey::Slot(class, requester, rid) => {
                let (seen, action) = self.slots[requester][class as usize].as_ref()?;
                match rid.cmp(seen) {
                    Ordering::Equal => Some(action.clone()),
                    Ordering::Less => Some(ReplayAction::Pending),
                    Ordering::Greater => None,
                }
            }
            ReplayKey::Data(from, rid) => {
                let key = data_key(from, rid);
                let found = self.index.binary_search_by_key(&key, |e| e.0).ok();
                let at = found.map(|i| (self.index[i].1 - self.evicted) as usize);
                debug_assert_eq!(at, self.data.iter().position(|e| e.0 == from && e.1 == rid));
                at.map(|at| self.data[at].2.clone())
            }
        }
    }

    /// Record the action taken for `key`. A slot is written by its
    /// request's first copy and upgraded by its answer; a data record is
    /// written once (a found record is replayed, not re-served), evicting
    /// the oldest at capacity.
    fn remember(&mut self, key: ReplayKey, action: ReplayAction) {
        match key {
            ReplayKey::Slot(class, requester, rid) => {
                let slot = &mut self.slots[requester][class as usize];
                debug_assert!(
                    slot.as_ref().is_none_or(|(seen, _)| *seen <= rid),
                    "node {requester}'s {class:?} slot moved backwards to rid {rid}"
                );
                *slot = Some((rid, action));
            }
            ReplayKey::Data(from, rid) => {
                if self.data.len() >= DATA_FIFO_CAP {
                    let (f, r, _) = self.data.pop_front().expect("a full FIFO");
                    let i = self.index.binary_search_by_key(&data_key(f, r), |e| e.0);
                    self.index.remove(i.expect("every record held is indexed"));
                    self.evicted += 1;
                }
                let push = self.evicted + self.data.len() as u64;
                let key = data_key(from, rid);
                let Err(i) = self.index.binary_search_by_key(&key, |e| e.0) else {
                    panic!("node {from}'s rid {rid} filed twice while held");
                };
                self.index.insert(i, (key, push));
                self.data.push_back((from, rid, action));
            }
        }
    }
}

/// A data record's key, `(from, rid)`, as one word.
fn data_key(from: usize, rid: u32) -> u64 {
    (from as u64) << 32 | u64::from(rid)
}

impl<S: Substrate> Tmk<S> {
    /// If the request being served hasn't recorded an action yet, record
    /// it as pending (response comes later — queued lock grant, barrier
    /// release). A retransmission arriving meanwhile is then recognized
    /// and suppressed instead of re-queued.
    pub(super) fn note_pending(&mut self) {
        if let Some(rel) = self.rel.as_mut() {
            rel.settle(|| ReplayAction::Pending);
        }
    }

    /// A retransmitted request matched its replay record: re-emit the
    /// recorded effect without re-running the handler. Pending records
    /// (response still owed, or long since received) are swallowed — the
    /// eventual grant/release answers the original rid.
    pub(super) fn replay_duplicate(&mut self, action: ReplayAction, arrival: Ns) {
        self.clock().borrow_mut().stats.dup_requests_suppressed += 1;
        let cost = self.sub.params().dsm.handler_dispatch;
        match action {
            ReplayAction::Pending => {
                self.charge_service(arrival, cost);
            }
            ReplayAction::Sent { chan, to, bytes } => {
                self.send_in_window(chan, to, &bytes, arrival, cost)
            }
        }
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

    /// `from` has said `Gone`: whatever it owed us is not coming.
    pub(super) fn serve_gone(&mut self, from: usize, arrival: Ns, cost: Ns) {
        self.charge_service(arrival, cost);
        let rel = self.rel.as_mut().expect("only a lossy transport says Gone");
        rel.gone[from] = true;
    }

    /// Whether `peer` has said `Gone`.
    pub(super) fn is_gone(&self, peer: usize) -> bool {
        self.rel.as_ref().is_some_and(|rel| rel.gone[peer])
    }

    /// The shutdown linger begins: from now on the node waits only for
    /// children that have left or are about to, so `rto_ceiling` of
    /// silence means they have left, whether or not their `Gone` got
    /// through.
    pub(super) fn start_leaving(&mut self) {
        if let Some(rel) = self.rel.as_mut() {
            rel.leaving = true;
        }
    }

    /// A leaving node heard nothing for `rto_ceiling`: every peer has
    /// left.
    pub(super) fn fall_silent(&mut self) {
        if let Some(rel) = self.rel.as_mut() {
            rel.gone.fill(true);
        }
    }

    /// When a leaving node's wait ends for silence: `rto_ceiling` after
    /// the latest frame heard.
    pub(super) fn silence_deadline(&self) -> Option<Ns> {
        let rel = self.rel.as_ref().filter(|rel| rel.leaving)?;
        Some(rel.heard + rel.rto_ceiling)
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
    pub(super) fn retransmit_due(&mut self) {
        let now = self.clock().borrow().now();
        self.retransmit_where(|r, _| r.deadline <= now);
    }

    /// Retransmit every unanswered slot addressed to `to` (its response
    /// was observed lost — no point sitting out the rest of the timer).
    pub(super) fn retransmit_to(&mut self, to: usize) {
        self.retransmit_where(|_, peer| peer == to);
    }

    /// Fire one retransmission for every unanswered slot whose timer and
    /// destination match `pred`.
    ///
    /// The backoff doubles up to `rto_ceiling`. A timeout counts against
    /// the give-up budget only once it has waited the whole ceiling: a peer
    /// holding the request queued (a lock held across a long computation)
    /// answers nothing for as long as it holds it, and the climb to the
    /// ceiling alone takes `give_up` timeouts. A loss tombstone's early
    /// resend is no timeout and counts nothing — a real node never sees a
    /// dropped datagram.
    fn retransmit_where(&mut self, pred: impl Fn(&Resend, usize) -> bool) {
        let Some(rel) = self.rel.as_ref() else { return };
        let (cap, ceiling) = (rel.give_up, rel.rto_ceiling);
        let woke = self.clock().borrow().now();
        for i in 0..self.outstanding.len() {
            let o = &mut self.outstanding[i];
            let (rid, to) = (o.rid, o.to);
            let Some(mut r) = o.resend.take_if(|r| o.response.is_none() && pred(r, to)) else {
                continue;
            };
            r.attempts += 1;
            if r.rto == ceiling && r.deadline <= woke {
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
            self.emit(TmkEvent::RetransmitFired { rid, attempt: r.attempts });
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

    fn respond(to: usize, b: &[u8]) -> ReplayAction {
        ReplayAction::Sent {
            chan: Chan::Response,
            to,
            bytes: b.to_vec(),
        }
    }

    fn acquire(requester: usize, rid: u32) -> ReplayKey {
        ReplayKey::Slot(Class::Acquire, requester, rid)
    }

    #[test]
    fn remember_then_lookup() {
        let mut c = ReplayRecords::new(8);
        assert!(c.lookup(ReplayKey::Data(3, 7)).is_none());
        c.remember(ReplayKey::Data(3, 7), respond(3, b"page"));
        assert!(c.lookup(ReplayKey::Data(3, 7)).is_some());
        // Same rid from a different node is a different request.
        assert!(c.lookup(ReplayKey::Data(4, 7)).is_none());
        // A requester's acquire and its barrier arrival are different slots.
        c.remember(acquire(3, 7), ReplayAction::Pending);
        assert!(c.lookup(ReplayKey::Slot(Class::Barrier, 3, 7)).is_none());
    }

    #[test]
    fn upgrade_in_place_pending_to_respond() {
        // A queued lock acquire is Pending until the grant goes out; the
        // upgrade replaces the record.
        let mut c = ReplayRecords::new(8);
        c.remember(acquire(2, 11), ReplayAction::Pending);
        assert!(matches!(c.lookup(acquire(2, 11)), Some(ReplayAction::Pending)));
        c.remember(acquire(2, 11), respond(2, b"grant"));
        match c.lookup(acquire(2, 11)) {
            Some(ReplayAction::Sent { to, bytes, .. }) => {
                assert_eq!(to, 2);
                assert_eq!(bytes, b"grant");
            }
            other => panic!("expected Sent, got {other:?}"),
        }
    }

    #[test]
    fn a_slot_orders_its_requesters_rids() {
        let mut c = ReplayRecords::new(8);
        c.remember(acquire(2, 11), respond(2, b"grant"));
        // The requester's next acquire is new — and once recorded, a late
        // copy of the completed one is swallowed, never new again.
        assert!(c.lookup(acquire(2, 12)).is_none());
        c.remember(acquire(2, 12), ReplayAction::Pending);
        assert!(matches!(c.lookup(acquire(2, 11)), Some(ReplayAction::Pending)));
        assert!(c.lookup(acquire(2, 13)).is_none());
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = ReplayRecords::new(8);
        for rid in 0..DATA_FIFO_CAP as u32 {
            c.remember(ReplayKey::Data(1, rid), respond(1, b"d"));
        }
        assert_eq!(c.data.len(), DATA_FIFO_CAP);
        assert!(c.lookup(ReplayKey::Data(1, 0)).is_some());
        // One more evicts the oldest, and only the oldest.
        c.remember(ReplayKey::Data(1, DATA_FIFO_CAP as u32), respond(1, b"d"));
        assert_eq!(c.data.len(), DATA_FIFO_CAP);
        assert!(c.lookup(ReplayKey::Data(1, 0)).is_none());
        assert!(c.lookup(ReplayKey::Data(1, 1)).is_some());
        assert!(c.lookup(ReplayKey::Data(1, DATA_FIFO_CAP as u32)).is_some());
    }

    /// Past capacity, over seven requesters whose rids come out of order
    /// and repeat (a repeat held is replayed, not filed; one evicted is
    /// filed again), the index finds exactly what a scan of the FIFO
    /// finds.
    #[test]
    fn lookup_matches_the_scan_past_capacity() {
        let mut c = ReplayRecords::new(8);
        let key = |i: u32| ReplayKey::Data(i as usize % 7, i.wrapping_mul(2_654_435_761) % 1_000);
        let scan = |c: &ReplayRecords, k: ReplayKey| match k {
            ReplayKey::Data(f, r) => c.data.iter().any(|e| e.0 == f && e.1 == r),
            ReplayKey::Slot(..) => unreachable!(),
        };
        let mut filed = 0;
        for i in 0..5 * DATA_FIFO_CAP as u32 {
            if c.lookup(key(i)).is_none() {
                c.remember(key(i), respond(0, &i.to_le_bytes()));
                filed += 1;
            }
            assert!(c.data.len() <= DATA_FIFO_CAP);
            if i % 16 == 0 {
                for j in 0..=i + 3 {
                    assert_eq!(
                        c.lookup(key(j)).is_some(),
                        scan(&c, key(j)),
                        "after {i}, key {j}"
                    );
                }
            }
        }
        assert_eq!(c.data.len(), DATA_FIFO_CAP);
        assert_eq!(c.index.len(), DATA_FIFO_CAP);
        assert_eq!(c.evicted, filed - DATA_FIFO_CAP as u64);
        // Each key finds its own record.
        let sent = |a: &ReplayAction| match a {
            ReplayAction::Sent { bytes, .. } => bytes.clone(),
            ReplayAction::Pending => Vec::new(),
        };
        for (f, r, action) in &c.data {
            let found = c.lookup(ReplayKey::Data(*f, *r)).expect("held");
            assert_eq!(sent(&found), sent(action));
        }
    }

    #[test]
    fn upgrade_does_not_evict() {
        // A slot upgrade with the FIFO at capacity pushes nothing out, and
        // no amount of data traffic pushes a slot out.
        let mut c = ReplayRecords::new(8);
        c.remember(acquire(1, 5), ReplayAction::Pending);
        for rid in 6..6 + 2 * DATA_FIFO_CAP as u32 {
            c.remember(ReplayKey::Data(1, rid), respond(1, b"d"));
        }
        c.remember(acquire(1, 5), respond(1, b"late-grant"));
        assert_eq!(c.data.len(), DATA_FIFO_CAP);
        assert!(c.lookup(ReplayKey::Data(1, 6 + DATA_FIFO_CAP as u32)).is_some());
        assert!(matches!(
            c.lookup(acquire(1, 5)),
            Some(ReplayAction::Sent { .. })
        ));
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
        let key = ReplayKey::of(manager, 900, &fwd).expect("a forward files a record");
        c.remember(key, ReplayAction::Pending);
        c.remember(key, respond(requester, b"grant-bytes"));
        match c.lookup(ReplayKey::of(manager, 901, &fwd).expect("a record")) {
            Some(ReplayAction::Sent { to, .. }) => assert_eq!(to, requester),
            other => panic!("expected the grant to the requester, got {other:?}"),
        }
        // Nothing was filed under the manager.
        assert!(c.lookup(acquire(manager, 900)).is_none());
    }
}
