//! Request/response plumbing: the bottom layer of the runtime.
//!
//! Owns rid allocation, the **overlapped rpc engine** —
//! [`Tmk::rpc_issue`] registers a pending-response slot and sends;
//! [`Tmk::rpc_collect`] drains the substrate, matches out-of-order
//! responses against the whole outstanding-rid set, and defers incoming
//! requests to an async serve queue drained in virtual-arrival order
//! (the TreadMarks SIGIO discipline, minus the re-entrant dispatch) —
//! DSM-level reliability on lossy transports (per-rid virtual-time
//! retransmission timers with exponential backoff, the responder's
//! [`ReplayRecords`] — a slot per requester for its one open acquire and
//! its one open barrier arrival, a bounded FIFO for idempotent fetches —
//! stale-response discard keyed on the outstanding set), the `serve`
//! dispatcher that fans incoming requests out to the coherence and sync
//! layers, the reply path every frame a handler emits leaves through
//! ([`Tmk::send_in_window`], [`Tmk::respond_now`]), and the shutdown
//! linger. This is the only layer that talks to the [`Substrate`]; of
//! protocol payloads it looks at the request/response envelope, at which
//! requests block their sender, and at whether a decoded response fits
//! this node's page size, nothing else.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::ControlFlow;

use tm_sim::{Ns, Wait};

use super::{Tmk, TmkEvent};
use crate::protocol::{Request, Response};
use crate::substrate::{Chan, IncomingMsg, Substrate};
use crate::wire::{pool, WireWriter};

/// One issued-but-uncollected rpc: the pending-response slot
/// [`Tmk::rpc_issue`] registers and [`Tmk::rpc_collect`] resolves.
///
/// Rid lifecycle: *issued* (slot pushed, frame sent) → *answered*
/// (`response` filled by the collector's absorb loop, possibly while
/// collecting a different rid) → *collected* (slot removed, frame
/// returned to the pool). On lossy transports an issued slot also cycles
/// through *retransmitting* whenever its per-rid deadline passes.
#[derive(Debug)]
pub(super) struct OutstandingRpc {
    rid: u32,
    to: usize,
    /// The encoded request, kept for retransmission. Empty on reliable
    /// transports (they never resend).
    frame: Vec<u8>,
    /// Current (backed-off) retransmission timeout. Unused on reliable
    /// transports.
    rto: Ns,
    /// Virtual-time deadline of the next retransmission. When the
    /// transport reports the send dropped on the way out, this deadline
    /// is simply the earliest useful resend time — the collect loop's
    /// bounded wait covers both cases.
    deadline: Ns,
    attempts: u32,
    /// Retransmissions fired while the peer was *not* observably alive on
    /// the fabric. Only these count against the give-up budget: a timeout
    /// against a live peer is clock skew (a spinning consumer advances
    /// its virtual clock only ~600 ns per probe while our backed-off
    /// deadlines recede), not evidence of loss.
    silent: u32,
    response: Option<Response>,
}

/// A request deferred to the async serve queue: received mid-collect and
/// dispatched later in virtual-arrival order.
#[derive(Debug)]
pub(super) struct QueuedRequest {
    from: usize,
    data: Vec<u8>,
    arrival: Ns,
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
pub(super) enum ReplayKey {
    /// A blocking request — serving it changes lock or barrier state, so
    /// it is served at most once: `requester`'s slot of `class`, holding
    /// the request's rid *in the requester's rid space*. A forwarded
    /// acquire names its requester and original rid on the wire, so the
    /// manager's and the owner's records of one acquire carry one key.
    Slot(Class, usize, u32),
    /// An idempotent fetch or notice (`Diff`, `MultiDiff`, `Page`,
    /// `NoticeRelease`): `(from, rid)` in the bounded data FIFO.
    Data(usize, u32),
}

impl ReplayKey {
    /// Classify a decoded request that `from` sent under `rid`.
    fn of(from: usize, rid: u32, req: &Request) -> ReplayKey {
        match *req {
            Request::Acquire { .. } => ReplayKey::Slot(Class::Acquire, from, rid),
            Request::AcquireFwd { requester, rid, .. } => {
                ReplayKey::Slot(Class::Acquire, requester as usize, rid)
            }
            Request::BarrierArrive { .. } | Request::BarrierTreeArrive { .. } => {
                ReplayKey::Slot(Class::Barrier, from, rid)
            }
            Request::Diff { .. }
            | Request::MultiDiff { .. }
            | Request::Page { .. }
            | Request::NoticeRelease { .. } => ReplayKey::Data(from, rid),
        }
    }
}

/// Data-FIFO depth. Not a correctness parameter: a record evicted before
/// its duplicate arrives costs re-running an idempotent handler (a
/// re-encode at handler cost instead of a replay at dispatch cost) and
/// nothing else. Kept at the depth the goldens' virtual times were
/// recorded under.
pub(super) const DATA_FIFO_CAP: usize = 128;

/// Responder-side duplicate suppression (lossy transports only; stays
/// empty — and cost-free — on reliable ones).
///
/// A blocking request's record is its requester's slot
/// ([`ReplayKey::Slot`]): no capacity, no scan, and nothing but the same
/// requester's *next* request of the same class displaces it — by which
/// time the requester holds the answer. Against a slot, an equal rid is a
/// duplicate to replay, a smaller one a late duplicate of a completed
/// request (swallowed, never re-executed: re-running it would queue a
/// waiter nobody is behind), a larger one new. Idempotent requests share a
/// FIFO of the responses sent.
#[derive(Debug)]
pub(super) struct ReplayRecords {
    /// `slots[requester][class]`: rid and action of that requester's
    /// latest blocking request of that class to reach this node.
    slots: Vec<[Option<(u32, ReplayAction)>; 2]>,
    /// `(from, rid, the response sent)`, oldest first.
    data: VecDeque<(usize, u32, ReplayAction)>,
}

impl ReplayRecords {
    /// Records for requests from `n` nodes.
    pub(super) fn new(n: usize) -> Self {
        ReplayRecords {
            slots: vec![[None, None]; n],
            data: VecDeque::new(),
        }
    }

    /// The recorded action for `key`, if the request was seen.
    pub(super) fn lookup(&self, key: ReplayKey) -> Option<ReplayAction> {
        match key {
            ReplayKey::Slot(class, requester, rid) => {
                let (seen, action) = self.slots[requester][class as usize].as_ref()?;
                match rid.cmp(seen) {
                    Ordering::Equal => Some(action.clone()),
                    Ordering::Less => Some(ReplayAction::Pending),
                    Ordering::Greater => None,
                }
            }
            ReplayKey::Data(from, rid) => self
                .data
                .iter()
                .find(|e| e.0 == from && e.1 == rid)
                .map(|e| e.2.clone()),
        }
    }

    /// Record the action taken for `key`. A slot is written by its
    /// request's first copy and upgraded by its answer; a data record is
    /// written once (a found record is replayed, not re-served), evicting
    /// the oldest at capacity.
    pub(super) fn remember(&mut self, key: ReplayKey, action: ReplayAction) {
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
                    self.data.pop_front();
                }
                self.data.push_back((from, rid, action));
            }
        }
    }
}

impl<S: Substrate> Tmk<S> {
    /// Allocate the next request id (monotonic per node).
    pub(super) fn rid(&mut self) -> u32 {
        let r = self.next_rid;
        self.next_rid += 1;
        r
    }

    /// Service one incoming request. `arrival` is what the async scheme
    /// times its delivery from.
    pub(super) fn serve(&mut self, from: usize, data: &[u8], arrival: Ns) {
        let Some((rid, req)) = Request::decode(data) else {
            // Undecodable frame (possible on lossy wires): discard, count.
            self.clock().borrow_mut().stats.malformed_dropped += 1;
            return;
        };
        if self.sub.retransmit_timeout().is_some() {
            let key = ReplayKey::of(from, rid, &req);
            if let Some(action) = self.replay.lookup(key) {
                // A retransmission of a request we already handled (or
                // still hold queued): replay the recorded action instead
                // of re-running the (state-mutating) handler.
                self.replay_duplicate(action, arrival);
                return;
            }
            self.serving = Some(key);
        }
        let cost = self.sub.params().dsm.handler_dispatch;
        match req {
            Request::Diff { page, lo, hi } => {
                self.ensure_pages(page as usize + 1);
                // Encode straight into a pooled frame: the diffs are
                // serialized from the page's retained list by reference,
                // never materialized as an owned Response.
                let mut w = WireWriter::pooled(256);
                let c = self.encode_diff_response(rid, page, lo, hi, &mut w);
                self.respond_wire(from, w, arrival, cost + c);
            }
            Request::MultiDiff { pages } => {
                let maxp = pages.iter().map(|&(p, _, _)| p).max().unwrap_or(0);
                self.ensure_pages(maxp as usize + 1);
                let mut w = WireWriter::pooled(1024);
                let c = self.encode_multi_diff_response(rid, &pages, &mut w);
                self.respond_wire(from, w, arrival, cost + c);
            }
            Request::Page { page } => {
                self.ensure_pages(page as usize + 1);
                let mut w = WireWriter::pooled(self.page_size + 32);
                let c = self.encode_full_page(rid, page, &mut w);
                self.respond_wire(from, w, arrival, cost + c);
            }
            Request::Acquire { lock, vc } => self.serve_acquire(from, rid, lock, vc, arrival, cost),
            Request::AcquireFwd {
                lock,
                requester,
                rid: orig_rid,
                vc,
            } => self.serve_acquire_fwd(lock, requester, orig_rid, vc, arrival, cost),
            // One clock is a childless subtree's floor and ceiling both.
            Request::BarrierArrive {
                barrier,
                vc,
                records,
            } => self.serve_tree_arrive(from, rid, barrier, vc.clone(), vc, records, arrival, cost),
            Request::BarrierTreeArrive {
                barrier,
                min_vc,
                vc,
                records,
            } => self.serve_tree_arrive(from, rid, barrier, min_vc, vc, records, arrival, cost),
            Request::NoticeRelease {
                barrier,
                tree,
                reply_rid,
                vc,
                records,
            } => self.serve_notice_release(from, rid, barrier, tree, reply_rid, vc, records, arrival, cost),
        }
        self.emit(TmkEvent::RequestServed { from, rid });
        // Handlers that responded already cleared this via the remember
        // hooks; anything left would mis-attribute a later response.
        self.serving = None;
    }

    // ----- duplicate-request suppression ------------------------------------

    /// If the request being served hasn't recorded an action yet, record
    /// it as pending (response comes later — queued lock grant, barrier
    /// release). A retransmission arriving meanwhile is then recognized
    /// and suppressed instead of re-queued.
    pub(super) fn note_pending(&mut self) {
        if let Some(key) = self.serving.take() {
            self.replay.remember(key, ReplayAction::Pending);
        }
    }

    /// A retransmitted request matched its replay record: re-emit the
    /// recorded effect without re-running the handler. Pending records
    /// (response still owed, or long since received) are swallowed — the
    /// eventual grant/release answers the original rid.
    fn replay_duplicate(&mut self, action: ReplayAction, arrival: Ns) {
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

    // ----- reply emission ---------------------------------------------------
    //
    // Every frame that leaves a handler leaves through one of two functions,
    // which own its cost, its send time and its replay record:
    // `send_in_window`, from inside the service window of the request being
    // served, and `respond_now`, from the node's own program (a queued grant
    // at release, a barrier release at departure).

    /// Charge the service window for a request with no (immediate)
    /// response; returns the service completion time.
    pub(super) fn charge_service(&mut self, arrival: Ns, cost: Ns) -> Ns {
        let scheme = self.sub.scheme();
        self.clock()
            .borrow_mut()
            .service_window(arrival, &scheme, cost)
    }

    /// Charge the service window that began at `arrival` for `cost` plus
    /// the substrate's cost of the frame, put `bytes` on `chan` at its
    /// completion, and record the send for the request being served (none
    /// when this *is* a replay, or on a reliable transport, which pays no
    /// copy here).
    fn send_in_window(&mut self, chan: Chan, to: usize, bytes: &[u8], arrival: Ns, cost: Ns) {
        let cost = cost + self.sub.response_cost(bytes.len());
        let finish = self.charge_service(arrival, cost);
        match chan {
            Chan::Response => self.sub.send_response_at(to, bytes, finish),
            Chan::Request => self.sub.send_request_at(to, bytes, finish),
        }
        if let Some(key) = self.serving.take() {
            let bytes = bytes.to_vec();
            self.replay
                .remember(key, ReplayAction::Sent { chan, to, bytes });
        }
    }

    /// Answer `requester`'s parked request `(class, rid)` out of band — long
    /// after its service window closed, on our own time: advance the clock
    /// by `cost` plus the substrate's cost of the frame, send now, and
    /// upgrade the requester's slot so a duplicate of the request (its
    /// answer may be the next loss) replays these bytes.
    pub(super) fn respond_now(
        &mut self,
        class: Class,
        requester: usize,
        rid: u32,
        resp: Response,
        cost: Ns,
    ) {
        let mut w = WireWriter::pooled(128);
        resp.encode_into(rid, &mut w);
        let total = cost + self.sub.response_cost(w.len());
        self.clock().borrow_mut().advance(total);
        let now = self.clock().borrow().now();
        self.sub.send_response_at(requester, w.as_slice(), now);
        if self.sub.retransmit_timeout().is_some() {
            let sent = ReplayAction::Sent {
                chan: Chan::Response,
                to: requester,
                bytes: w.as_slice().to_vec(),
            };
            self.replay
                .remember(ReplayKey::Slot(class, requester, rid), sent);
        }
        w.recycle();
    }

    /// Charge the service window and emit the response at its completion.
    pub(super) fn respond(&mut self, to: usize, rid: u32, resp: Response, arrival: Ns, cost: Ns) {
        let mut w = WireWriter::pooled(128);
        resp.encode_into(rid, &mut w);
        self.respond_wire(to, w, arrival, cost);
    }

    /// Emit an already-encoded response at service completion, returning
    /// the frame buffer to the pool after the substrate copies it out.
    pub(super) fn respond_wire(&mut self, to: usize, w: WireWriter, arrival: Ns, cost: Ns) {
        self.send_in_window(Chan::Response, to, w.as_slice(), arrival, cost);
        w.recycle();
    }

    /// Forward `req` under `rid` on behalf of the request being served (lock
    /// manager → owner); the forward is that request's replay record.
    pub(super) fn forward(&mut self, to: usize, rid: u32, req: Request, arrival: Ns, cost: Ns) {
        let mut w = WireWriter::pooled(64);
        req.encode_into(rid, &mut w);
        self.send_in_window(Chan::Request, to, w.as_slice(), arrival, cost);
        w.recycle();
    }

    // ----- the overlapped rpc engine ----------------------------------------

    /// Send a request and block for its response, servicing peers'
    /// requests while waiting (the TreadMarks SIGIO discipline). A plain
    /// issue + collect; overlap-aware callers split the two.
    pub(super) fn rpc(&mut self, to: usize, req: Request) -> Response {
        let rid = self.rpc_issue(to, req);
        self.rpc_collect(rid)
    }

    /// Legacy entry for callers that pre-chose the rid (acquire's
    /// manager-forwarding path): issue the already-encoded frame, then
    /// block for its response.
    pub(super) fn rpc_encoded(&mut self, to: usize, rid: u32, w: WireWriter) -> Response {
        self.rpc_issue_encoded(to, rid, w);
        self.rpc_collect(rid)
    }

    /// Allocate a rid, register its pending-response slot and send the
    /// request — without blocking. Any number of rids may be outstanding;
    /// each is collected exactly once via [`Self::rpc_collect`].
    pub(super) fn rpc_issue(&mut self, to: usize, req: Request) -> u32 {
        let rid = self.rid();
        let mut w = WireWriter::pooled(64);
        req.encode_into(rid, &mut w);
        self.rpc_issue_encoded(to, rid, w);
        rid
    }

    /// [`Self::rpc_issue`] for an already-encoded frame. Consumes the
    /// writer: on lossy transports the frame is retained for per-rid
    /// retransmission, on reliable ones it goes straight back to the pool.
    pub(super) fn rpc_issue_encoded(&mut self, to: usize, rid: u32, w: WireWriter) {
        self.sub.send_request(to, w.as_slice());
        let (frame, rto, deadline) = match self.sub.retransmit_timeout() {
            Some(rto0) => {
                let now = self.clock().borrow().now();
                (w.finish(), rto0, now + rto0)
            }
            None => {
                w.recycle();
                (Vec::new(), Ns::ZERO, Ns::ZERO)
            }
        };
        self.outstanding.push(OutstandingRpc {
            rid,
            to,
            frame,
            rto,
            deadline,
            attempts: 0,
            silent: 0,
            response: None,
        });
        let depth = self.outstanding.len() as u32;
        self.emit(TmkEvent::RpcIssued { rid, depth });
    }

    /// Block until the response for `rid` is in, absorbing whatever else
    /// the substrate delivers meanwhile: responses for *other* outstanding
    /// rids are parked in their slots, requests go to the async serve
    /// queue and are dispatched in virtual-arrival order between waits.
    pub(super) fn rpc_collect(&mut self, rid: u32) -> Response {
        self.rpc_collect_watching(rid, None)
            .expect("an unwatched collect ends only with its response")
    }

    /// [`Self::rpc_collect`] that, given a `peer` to watch (the exit
    /// fan), also ends when that peer has deregistered its NIC,
    /// whichever the substrate observes first. `None` means the peer is
    /// gone — it can only have exited after applying our release, so the
    /// pending rpc is moot and its slot is cancelled (retransmission
    /// timers must not keep firing into a dead node and burning the
    /// give-up budget). Reliable transports never lose the response and
    /// ignore the watch.
    pub(super) fn rpc_collect_watching(&mut self, rid: u32, peer: Option<usize>) -> Option<Response> {
        debug_assert!(
            self.outstanding.iter().any(|o| o.rid == rid),
            "node {}: collect of unissued rid {rid}",
            self.me
        );
        let watch = peer.as_ref().map(std::slice::from_ref);
        loop {
            if let Some(resp) = self.take_collected(rid) {
                return Some(resp);
            }
            // Re-checked after the step's drain: serving a `NoticeRelease`
            // completes one of our *own* slots locally — blocking with
            // the answer already in hand would deadlock a reliable
            // transport.
            let step = self.wait_step(watch, |t| t.take_collected(rid));
            if let ControlFlow::Break(resp) = step {
                if resp.is_none() {
                    self.cancel_rpc(rid);
                }
                return resp;
            }
        }
    }

    /// The engine's one blocking step, shared by every loop that waits for
    /// a message — [`Self::rpc_collect_watching`], the barrier's arrival
    /// wait, the shutdown linger — and the only place the **drain-before-block
    /// invariant** lives: the serve queue is always emptied (in
    /// virtual-arrival order) before the node blocks, because a request
    /// gathered during an earlier absorb may be the very thing a peer is
    /// blocked on — sleeping on it deadlocks both (the gather-burst
    /// deadlock). ([`Self::compute_ns`] blocks too, but for a bounded time.)
    ///
    /// Drain the serve queue; if the caller's `ready` re-check now yields,
    /// break with its value without blocking; otherwise block in the
    /// substrate's [`wait`](Substrate::wait) — bounded by the nearest
    /// retransmission deadline on lossy transports, and by `watch` — and
    /// absorb the message, fire the due retransmissions, or break with
    /// `None` because every watched peer has left.
    pub(super) fn wait_step<R>(
        &mut self,
        watch: Option<&[usize]>,
        ready: impl FnOnce(&mut Self) -> Option<R>,
    ) -> ControlFlow<Option<R>> {
        self.drain_serve_queue();
        if let Some(r) = ready(self) {
            return ControlFlow::Break(Some(r));
        }
        let deadline = self
            .sub
            .retransmit_timeout()
            .and_then(|_| self.nearest_deadline());
        match self.sub.wait(deadline, watch) {
            Wait::Got(msg) => self.absorb(msg),
            Wait::Deadline => self.retransmit_due(),
            Wait::PeersDone => return ControlFlow::Break(None),
        }
        ControlFlow::Continue(())
    }

    /// Application computation of `units` work units.
    pub fn compute(&mut self, units: u64) {
        let cost = self.sub.params().work(units);
        self.compute_ns(cost);
    }

    /// Application computation lasting `d` — the blocking step with a
    /// deadline. A node that computes waits for its segment's end on its
    /// transport like any blocked node, so a request that arrives meanwhile
    /// ends the wait and is served through its service window. The
    /// computation ran until the delivery took the CPU; what is left of it
    /// resumes when the queue is drained, so the segment lasts `d` plus, for
    /// each interruption, the async scheme's CPU overhead and the handlers.
    pub fn compute_ns(&mut self, d: Ns) {
        let scheme = self.sub.scheme();
        let idle_at_start = self.clock().borrow().stats.idle_time;
        let mut remaining = d;
        loop {
            let start = self.clock().borrow().now();
            let Wait::Got(msg) = self.sub.wait(Some(start + remaining), None) else {
                break;
            };
            let taken_at = scheme.earliest_service(msg.arrival);
            let ran = taken_at.saturating_sub(scheme.cpu_overhead() + start);
            remaining -= ran.min(remaining);
            self.absorb(msg);
            self.drain_serve_queue();
        }
        self.clock().borrow_mut().book_compute(idle_at_start, d);
    }

    /// Drop `rid`'s pending slot without a response (the peer exited;
    /// the rpc is moot), recycling the retained retransmission frame.
    pub(super) fn cancel_rpc(&mut self, rid: u32) {
        if let Some(i) = self.outstanding.iter().position(|o| o.rid == rid) {
            let slot = self.outstanding.swap_remove(i);
            if !slot.frame.is_empty() {
                pool::give(slot.frame);
            }
        }
    }

    /// File `resp` into the local outstanding slot for `rid`, as if it had
    /// arrived on the wire — the overlapped write-notice path delivers the
    /// release payload *inside* a request, and the consumer completes its
    /// own blocked arrival rpc with the synthesized response. Returns
    /// `false` (and drops `resp`) when the slot is absent or already
    /// answered: a retransmitted `NoticeRelease` after the original landed.
    pub(super) fn complete_local(&mut self, rid: u32, resp: Response) -> bool {
        match self.outstanding.iter().position(|o| o.rid == rid) {
            Some(i) if self.outstanding[i].response.is_none() => {
                self.outstanding[i].response = Some(resp);
                true
            }
            _ => false,
        }
    }

    /// Remove `rid`'s slot if its response has arrived, recycling the
    /// retained retransmission frame.
    fn take_collected(&mut self, rid: u32) -> Option<Response> {
        let i = self
            .outstanding
            .iter()
            .position(|o| o.rid == rid && o.response.is_some())?;
        let slot = self.outstanding.swap_remove(i);
        if !slot.frame.is_empty() {
            pool::give(slot.frame);
        }
        slot.response
    }

    /// Earliest retransmission deadline over unanswered slots.
    fn nearest_deadline(&self) -> Option<Ns> {
        self.outstanding
            .iter()
            .filter(|o| o.response.is_none())
            .map(|o| o.deadline)
            .min()
    }

    /// Classify one delivered message: responses are matched against the
    /// whole outstanding-rid set, requests are deferred to the serve
    /// queue (together with any burst that arrived behind them), loss
    /// tombstones trigger targeted retransmission.
    pub(super) fn absorb(&mut self, msg: IncomingMsg) {
        if msg.lost {
            if msg.chan == Chan::Response {
                // A response from that peer died in flight: retransmit
                // what we still owe it instead of sitting out the timers.
                self.retransmit_to(msg.from);
            }
            // Lost requests are the sender's problem — its timer
            // re-delivers.
            pool::give(msg.data);
            return;
        }
        match msg.chan {
            Chan::Response => self.absorb_response(msg),
            Chan::Request => {
                self.queue_request(msg);
                // Pull in everything else that already arrived so the
                // next drain dispatches the burst in virtual-arrival
                // order rather than substrate pop order.
                while let Some(m) = self.sub.poll_incoming() {
                    if m.lost {
                        pool::give(m.data);
                    } else if m.chan == Chan::Request {
                        self.queue_request(m);
                    } else {
                        self.absorb_response(m);
                    }
                }
            }
        }
    }

    fn queue_request(&mut self, msg: IncomingMsg) {
        self.serve_q.push(QueuedRequest {
            from: msg.from,
            data: msg.data,
            arrival: msg.arrival,
        });
    }

    /// File a response into its outstanding slot, or discard it as stale.
    /// The discard keys on the *full* outstanding set: a late duplicate
    /// for rid A must never be mistaken for rid B's answer just because B
    /// is the one currently being collected.
    fn absorb_response(&mut self, msg: IncomingMsg) {
        let lossy = self.sub.retransmit_timeout().is_some();
        // Decoding validated every diff image; a diff reaching past our
        // page is as malformed as a truncated one and goes the same way.
        let decoded =
            Response::decode(&msg.data).filter(|(_, r)| r.diff_extent() <= self.page_size);
        let Some((rid, resp)) = decoded else {
            assert!(lossy, "node {}: malformed response", self.me);
            self.clock().borrow_mut().stats.malformed_dropped += 1;
            pool::give(msg.data);
            return;
        };
        pool::give(msg.data);
        assert!(
            rid < self.next_rid,
            "node {}: response from the future (rid {rid})",
            self.me
        );
        match self.outstanding.iter().position(|o| o.rid == rid) {
            Some(i) if self.outstanding[i].response.is_none() => {
                self.outstanding[i].response = Some(resp);
            }
            Some(_) => {
                // Duplicate answer to a slot already filled (a
                // retransmission crossed its first response).
                assert!(lossy, "node {}: duplicate response for rid {rid}", self.me);
                self.clock().borrow_mut().stats.stale_responses_dropped += 1;
            }
            None => {
                // Answer to an rpc we already collected.
                assert!(lossy, "node {}: unexpected response for rid {rid}", self.me);
                self.clock().borrow_mut().stats.stale_responses_dropped += 1;
            }
        }
    }

    /// Dispatch every queued request, earliest virtual arrival first.
    /// Handlers never call back into the collect loop (they respond via
    /// service windows), so draining between waits cannot recurse.
    pub(super) fn drain_serve_queue(&mut self) {
        while !self.serve_q.is_empty() {
            let mut pick = 0;
            for i in 1..self.serve_q.len() {
                if self.serve_q[i].arrival < self.serve_q[pick].arrival {
                    pick = i;
                }
            }
            let q = self.serve_q.remove(pick);
            self.serve(q.from, &q.data, q.arrival);
            pool::give(q.data);
        }
    }

    /// Retransmit every unanswered slot whose deadline has passed.
    fn retransmit_due(&mut self) {
        let now = self.clock().borrow().now();
        self.retransmit_where(|o| o.deadline <= now);
    }

    /// Retransmit every unanswered slot addressed to `to` (its response
    /// was observed lost — no point sitting out the rest of the timer).
    fn retransmit_to(&mut self, to: usize) {
        self.retransmit_where(|o| o.to == to);
    }

    /// Fire one retransmission for every unanswered slot matching `pred`.
    ///
    /// The give-up budget is clamped to observable peer progress: an
    /// expired timer only counts against `rto_retries` when the peer is
    /// *not* alive on the fabric. Against a live peer the timeout is
    /// requester/responder clock skew, not loss — a spinning consumer
    /// advances its virtual clock only ~600 ns per probe, so the
    /// requester's exponentially backed-off deadlines recede faster than
    /// the peer's clock and a naive budget exhausts against a healthy
    /// node. For the same reason the exponential backoff is capped at
    /// `rto0 << rto_retries`: unbounded doubling would let a single
    /// skew-induced timeout push the next deadline past the end of the
    /// run.
    fn retransmit_where(&mut self, pred: impl Fn(&OutstandingRpc) -> bool) {
        let cap = self.sub.params().udp.rto_retries;
        let rto_ceiling = self
            .sub
            .retransmit_timeout()
            .map(|rto0| rto0 * (1u64 << cap.min(20)));
        for i in 0..self.outstanding.len() {
            if self.outstanding[i].response.is_some() || !pred(&self.outstanding[i]) {
                continue;
            }
            let (rid, to) = (self.outstanding[i].rid, self.outstanding[i].to);
            self.outstanding[i].attempts += 1;
            let attempt = self.outstanding[i].attempts;
            if !self.sub.peer_alive(to) {
                self.outstanding[i].silent += 1;
                let silent = self.outstanding[i].silent;
                assert!(
                    silent <= cap,
                    "node {}: rid {rid} to {to}: gave up after {cap} silent retransmissions \
                     ({attempt} total)",
                    self.me
                );
            }
            self.clock().borrow_mut().stats.retransmits += 1;
            self.emit(TmkEvent::RetransmitFired { rid, attempt });
            let frame = std::mem::take(&mut self.outstanding[i].frame);
            self.sub.send_request(to, &frame);
            let now = self.clock().borrow().now();
            let slot = &mut self.outstanding[i];
            slot.frame = frame;
            slot.rto = slot.rto * 2;
            if let Some(ceiling) = rto_ceiling {
                slot.rto = slot.rto.min(ceiling);
            }
            slot.deadline = now + slot.rto;
        }
    }

    /// Service any requests that have already arrived (called at natural
    /// application boundaries that do not otherwise wait: a loop on a cached
    /// lock token never computes and never blocks).
    pub fn poll_serve(&mut self) {
        while let Some(msg) = self.sub.poll_request() {
            if msg.lost {
                pool::give(msg.data);
                continue;
            }
            self.queue_request(msg);
        }
        self.drain_serve_queue();
    }

    /// Lossy-transport shutdown linger: keep answering retransmitted
    /// requests from the replay records until every node in `watch` has
    /// left the fabric (a client whose final release was lost depends on
    /// it). A node watches its barrier-tree descendants — lingering on the
    /// whole cluster would deadlock parent against lingering ancestor. A
    /// late response finds no outstanding slot and is counted as stale by
    /// the absorb step.
    pub(super) fn shutdown_linger(&mut self, watch: &[usize]) {
        while self.wait_step(Some(watch), |_| None::<()>).is_continue() {}
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
        let key = ReplayKey::of(manager, 900, &fwd);
        c.remember(key, ReplayAction::Pending);
        c.remember(key, respond(requester, b"grant-bytes"));
        match c.lookup(ReplayKey::of(manager, 901, &fwd)) {
            Some(ReplayAction::Sent { to, .. }) => assert_eq!(to, requester),
            other => panic!("expected the grant to the requester, got {other:?}"),
        }
        // Nothing was filed under the manager.
        assert!(c.lookup(acquire(manager, 900)).is_none());
    }
}
