//! Request/response plumbing: the bottom layer of the runtime.
//!
//! Owns rid allocation, the **overlapped rpc engine** —
//! [`Tmk::rpc_issue`] registers a pending-response slot and sends;
//! [`Tmk::rpc_collect`] drains the substrate, matches out-of-order
//! responses against the whole outstanding-rid set, and defers incoming
//! requests to an async serve queue drained in virtual-arrival order
//! (the TreadMarks SIGIO discipline, minus the re-entrant dispatch) —
//! DSM-level reliability on lossy transports (per-rid virtual-time
//! retransmission timers with exponential backoff, the bounded
//! `(from, rid)` [`ReplayCache`], stale-response discard keyed on the
//! outstanding set), the `serve` dispatcher that fans incoming requests
//! out to the coherence and sync layers, and the shutdown linger. This
//! layer talks only to the [`Substrate`]; of protocol payloads it looks at
//! the request/response envelope and at whether a decoded response fits
//! this node's page size, nothing else.

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
    /// The original is still queued (lock wait, barrier wait): swallow
    /// duplicates; the eventual grant/release goes out through the
    /// normal path (which upgrades this entry to `Respond`).
    Pending,
    /// We already responded with these bytes: re-send them (the original
    /// response may have been the loss that triggered the retransmit).
    Respond { to: usize, bytes: Vec<u8> },
    /// We forwarded the request (lock manager → owner): re-forward the
    /// identical bytes — same forwarded rid, so dedup chains compose.
    Forward { to: usize, bytes: Vec<u8> },
}

/// Bounded responder-side replay cache entry, keyed on `(from, rid)`.
#[derive(Debug)]
struct ReplayEntry {
    from: usize,
    rid: u32,
    action: ReplayAction,
}

/// Replay-cache depth. With one outstanding request per peer plus
/// forwards, live duplicates are always much younger than this.
const REPLAY_CACHE_CAP: usize = 128;

/// Bounded responder-side duplicate suppression, keyed on `(from, rid)`.
/// FIFO eviction; `remember` upgrades in place so a queued request's
/// entry follows it from [`ReplayAction::Pending`] to the terminal
/// action taken when it is finally answered.
#[derive(Debug, Default)]
pub(super) struct ReplayCache {
    entries: VecDeque<ReplayEntry>,
}

impl ReplayCache {
    pub(super) fn new() -> Self {
        ReplayCache {
            entries: VecDeque::new(),
        }
    }

    /// The recorded action for `(from, rid)`, if the request was seen.
    pub(super) fn lookup(&self, from: usize, rid: u32) -> Option<&ReplayAction> {
        self.entries
            .iter()
            .find(|e| e.from == from && e.rid == rid)
            .map(|e| &e.action)
    }

    /// Record (or upgrade in place) the action taken for `(from, rid)`,
    /// evicting the oldest entry at capacity.
    pub(super) fn remember(&mut self, from: usize, rid: u32, action: ReplayAction) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.from == from && e.rid == rid)
        {
            e.action = action;
            return;
        }
        if self.entries.len() >= REPLAY_CACHE_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back(ReplayEntry { from, rid, action });
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }
}

impl<S: Substrate> Tmk<S> {
    /// Allocate the next request id (monotonic per node).
    pub(super) fn rid(&mut self) -> u32 {
        let r = self.next_rid;
        self.next_rid += 1;
        r
    }

    /// Service one incoming request. `arrival` drives the interrupt
    /// preemption model.
    pub(super) fn serve(&mut self, from: usize, data: &[u8], arrival: Ns) {
        let Some((rid, req)) = Request::decode(data) else {
            // Undecodable frame (possible on lossy wires): discard, count.
            self.clock().borrow_mut().stats.malformed_dropped += 1;
            return;
        };
        trace!(self, "serve from={from} rid={rid} req={req:?}");
        if self.sub.retransmit_timeout().is_some() {
            if self.replay.lookup(from, rid).is_some() {
                // A retransmission of a request we already handled (or
                // still hold queued): replay the recorded action instead
                // of re-running the (state-mutating) handler.
                self.replay_duplicate(from, rid, arrival);
                return;
            }
            self.serving = Some((from, rid));
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
            } => self.serve_acquire_fwd(from, rid, lock, requester, orig_rid, vc, arrival, cost),
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

    /// If the request being served hasn't recorded an action yet, park it
    /// in the replay cache as pending (response comes later — queued lock
    /// grant, barrier release). A retransmission arriving meanwhile is
    /// then recognized and suppressed instead of re-queued.
    pub(super) fn note_pending(&mut self) {
        if let Some((f, r)) = self.serving.take() {
            self.replay.remember(f, r, ReplayAction::Pending);
        }
    }

    /// A retransmitted request matched the replay cache: re-emit the
    /// recorded effect without re-running the handler. Pending entries
    /// (response still owed) are swallowed — the eventual grant/release
    /// answers the original rid.
    fn replay_duplicate(&mut self, from: usize, rid: u32, arrival: Ns) {
        self.clock().borrow_mut().stats.dup_requests_suppressed += 1;
        let cost = self.sub.params().dsm.handler_dispatch;
        let action = self.replay.lookup(from, rid).expect("caller checked").clone();
        match action {
            ReplayAction::Pending => {
                self.charge_service(arrival, cost);
            }
            ReplayAction::Respond { to, bytes } => {
                let total = cost + self.sub.response_cost(bytes.len());
                let finish = self.charge_service(arrival, total);
                self.sub.send_response_at(to, &bytes, finish);
            }
            ReplayAction::Forward { to, bytes } => {
                let total = cost + self.sub.response_cost(bytes.len());
                let finish = self.charge_service(arrival, total);
                self.sub.send_request_at(to, &bytes, finish);
            }
        }
    }

    // ----- response emission ------------------------------------------------

    /// Charge the service window for a request with no (immediate)
    /// response; returns the service completion time.
    pub(super) fn charge_service(&mut self, arrival: Ns, cost: Ns) -> Ns {
        let scheme = self.sub.scheme();
        self.clock()
            .borrow_mut()
            .service_window(arrival, &scheme, cost)
    }

    /// Charge a NIC-offloaded service window: the work happens in NIC
    /// firmware on the asynchronous port, so no host interrupt is raised
    /// and no handler-dispatch cost is paid — service begins at arrival
    /// (or after earlier NIC work), costed by `cost` alone.
    pub(super) fn charge_service_offloaded(&mut self, arrival: Ns, cost: Ns) -> Ns {
        let scheme = tm_sim::AsyncScheme::Interrupt { cost: Ns::ZERO };
        self.clock()
            .borrow_mut()
            .service_window(arrival, &scheme, cost)
    }

    /// Charge the service window and emit the response at its completion.
    pub(super) fn respond(&mut self, to: usize, rid: u32, resp: Response, arrival: Ns, cost: Ns) {
        let mut w = WireWriter::pooled(128);
        resp.encode_into(rid, &mut w);
        self.respond_wire(to, w, arrival, cost);
    }

    /// Emit an already-encoded response at service completion, returning
    /// the frame buffer to the pool after the substrate copies it out.
    pub(super) fn respond_wire(&mut self, to: usize, w: WireWriter, arrival: Ns, mut cost: Ns) {
        cost += self.sub.response_cost(w.len());
        let finish = self.charge_service(arrival, cost);
        self.sub.send_response_at(to, w.as_slice(), finish);
        if let Some((from, rid)) = self.serving.take() {
            let bytes = w.as_slice().to_vec();
            self.replay
                .remember(from, rid, ReplayAction::Respond { to, bytes });
        }
        w.recycle();
    }

    /// Forward an encoded request on behalf of the one being served (lock
    /// manager → owner), recording the forward for replay.
    pub(super) fn forward_wire(&mut self, to: usize, w: WireWriter, arrival: Ns, mut cost: Ns) {
        cost += self.sub.response_cost(w.len());
        let finish = self.charge_service(arrival, cost);
        self.sub.send_request_at(to, w.as_slice(), finish);
        if let Some((f, r)) = self.serving.take() {
            let bytes = w.as_slice().to_vec();
            self.replay
                .remember(f, r, ReplayAction::Forward { to, bytes });
        }
        w.recycle();
    }

    /// Record the out-of-band response sent for request `(via)` — a queued
    /// grant or barrier release that goes out long after its serve window.
    /// The bytes are only copied on lossy transports; reliable ones pay
    /// nothing here.
    pub(super) fn remember_response(&mut self, via: (usize, u32), to: usize, bytes: &[u8]) {
        if self.sub.retransmit_timeout().is_some() {
            let bytes = bytes.to_vec();
            self.replay
                .remember(via.0, via.1, ReplayAction::Respond { to, bytes });
        }
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
        trace!(self, "rpc to={to} rid={rid} req={req:?}");
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

    /// The engine's one blocking step, shared by every loop that waits —
    /// [`Self::rpc_collect_watching`], the barrier's arrival wait, the
    /// shutdown linger — and the only place the **drain-before-block
    /// invariant** lives: the serve queue is always emptied (in
    /// virtual-arrival order) before the node blocks, because a request
    /// gathered during an earlier absorb may be the very thing a peer is
    /// blocked on — sleeping on it deadlocks both (the gather-burst
    /// deadlock).
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
        self.clock().borrow_mut().begin_wait();
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
                trace!(self, "complete-local rid={rid} resp={resp:?}");
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
                trace!(self, "collect rid={rid} resp={resp:?}");
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
    /// application boundaries; with interrupts the service window still
    /// starts at the request's arrival, preempting retroactively).
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
    /// requests from the replay cache until every node in `watch` has
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
        ReplayAction::Respond {
            to,
            bytes: b.to_vec(),
        }
    }

    #[test]
    fn remember_then_lookup() {
        let mut c = ReplayCache::new();
        assert!(c.lookup(3, 7).is_none());
        c.remember(3, 7, ReplayAction::Pending);
        assert!(matches!(c.lookup(3, 7), Some(ReplayAction::Pending)));
        // Same rid from a different node is a different request.
        assert!(c.lookup(4, 7).is_none());
    }

    #[test]
    fn upgrade_in_place_pending_to_respond() {
        // A queued lock acquire is Pending until the grant goes out; the
        // upgrade must replace the entry, not shadow it with a second one.
        let mut c = ReplayCache::new();
        c.remember(2, 11, ReplayAction::Pending);
        c.remember(2, 11, respond(2, b"grant"));
        assert_eq!(c.len(), 1);
        match c.lookup(2, 11) {
            Some(ReplayAction::Respond { to, bytes }) => {
                assert_eq!(*to, 2);
                assert_eq!(bytes, b"grant");
            }
            other => panic!("expected Respond, got {other:?}"),
        }
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = ReplayCache::new();
        for rid in 0..REPLAY_CACHE_CAP as u32 {
            c.remember(1, rid, ReplayAction::Pending);
        }
        assert_eq!(c.len(), REPLAY_CACHE_CAP);
        assert!(c.lookup(1, 0).is_some());
        // One more evicts the oldest, and only the oldest.
        c.remember(1, REPLAY_CACHE_CAP as u32, ReplayAction::Pending);
        assert_eq!(c.len(), REPLAY_CACHE_CAP);
        assert!(c.lookup(1, 0).is_none());
        assert!(c.lookup(1, 1).is_some());
        assert!(c.lookup(1, REPLAY_CACHE_CAP as u32).is_some());
    }

    #[test]
    fn upgrade_does_not_evict() {
        // In-place upgrades at capacity must not push anything out.
        let mut c = ReplayCache::new();
        for rid in 0..REPLAY_CACHE_CAP as u32 {
            c.remember(1, rid, ReplayAction::Pending);
        }
        c.remember(1, 5, respond(1, b"late-grant"));
        assert_eq!(c.len(), REPLAY_CACHE_CAP);
        assert!(c.lookup(1, 0).is_some(), "oldest entry evicted by upgrade");
    }

    #[test]
    fn forwarded_grant_keyed_on_forward_identity() {
        // A forwarded acquire reaches the owner as (manager, fwd_rid); the
        // grant is recorded under that key so the *manager's* retransmitted
        // forward replays it — the original requester never retransmits to
        // the owner directly.
        let mut c = ReplayCache::new();
        let (manager, fwd_rid) = (0usize, 42u32);
        let requester = 2usize;
        c.remember(manager, fwd_rid, ReplayAction::Pending);
        c.remember(manager, fwd_rid, respond(requester, b"grant-bytes"));
        match c.lookup(manager, fwd_rid) {
            Some(ReplayAction::Respond { to, .. }) => assert_eq!(*to, requester),
            other => panic!("expected Respond to requester, got {other:?}"),
        }
        // The requester's own (requester, rid) key is untouched.
        assert!(c.lookup(requester, fwd_rid).is_none());
    }
}
