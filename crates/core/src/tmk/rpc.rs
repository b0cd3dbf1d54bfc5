//! Request/response plumbing: the bottom layer of the runtime.
//!
//! Owns rid allocation, the **overlapped rpc engine** —
//! [`Tmk::rpc_issue`] registers a pending-response slot and sends;
//! [`Tmk::rpc_collect`] drains the substrate, matches out-of-order
//! responses against the whole outstanding-rid set, and defers incoming
//! requests to an async serve queue drained in virtual-arrival order
//! (the TreadMarks SIGIO discipline, minus the re-entrant dispatch) —
//! the `serve` dispatcher that fans incoming requests out to the
//! coherence and sync layers, the reply path every frame a handler emits
//! leaves through ([`Tmk::send_in_window`], [`Tmk::respond_now`]), and the
//! shutdown's linger and `Gone`. On a lossy transport each of these
//! consults the node's `reliable` state (timers, replay records, what it
//! has heard) at one point. This and `reliable` are the only layers that
//! talk to the [`Substrate`]; of
//! protocol payloads rpc looks at the request/response envelope, at which
//! requests block their sender, and at whether a response is well formed
//! for this node's cluster and page size, nothing else. A response's frame
//! is checked when it arrives and parked in its rid's slot as it is; the
//! layer that collects it decodes it once, borrowing from the frame.

use std::ops::ControlFlow;

use tm_sim::{Ns, Wait};

use super::reliable::{Class, ReplayAction, Resend};
use super::{Tmk, TmkEvent};
use crate::protocol::{Request, Response};
use crate::substrate::{Chan, IncomingMsg, Substrate};
use crate::wire::{pool, WireWriter};

/// One issued-but-uncollected rpc: the pending-response slot
/// [`Tmk::rpc_issue`] registers and [`Tmk::rpc_collect`] resolves.
///
/// Rid lifecycle: *issued* (slot pushed, frame sent) → *answered*
/// (`response` filled by the collector's absorb loop, possibly while
/// collecting a different rid) → *collected* (slot removed, the request
/// frame returned to the pool, the response frame handed to the
/// collector). On lossy transports an issued slot also cycles through
/// *retransmitting* whenever its `resend` deadline passes.
#[derive(Debug)]
pub(super) struct OutstandingRpc {
    pub(super) rid: u32,
    pub(super) to: usize,
    /// Who answered, and the answer's frame as it arrived:
    /// [`Response::check`] accepted it.
    pub(super) response: Option<(usize, Vec<u8>)>,
    /// The retransmission timer; `None` on reliable transports.
    pub(super) resend: Option<Resend>,
}

/// A request deferred to the async serve queue: received mid-collect and
/// dispatched later in virtual-arrival order.
#[derive(Debug)]
pub(super) struct QueuedRequest {
    from: usize,
    data: Vec<u8>,
    arrival: Ns,
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
        let Some((rid, req)) = Request::decode_in(data, &self.log, &mut self.clocks) else {
            // Undecodable frame (possible on lossy wires): discard, count.
            self.clock().borrow_mut().stats.malformed_dropped += 1;
            return;
        };
        if let Some(rel) = self.rel.as_mut() {
            if let Some(action) = rel.admit(from, rid, &req) {
                // A retransmission of a request we already handled (or
                // still hold queued): replay the recorded action instead
                // of re-running the (state-mutating) handler.
                self.replay_duplicate(action, arrival);
                return;
            }
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
                let maxp = pages.iter().map(|(p, _, _)| p).max().unwrap_or(0);
                self.ensure_pages(maxp as usize + 1);
                let mut w = WireWriter::pooled(1024);
                let c = self.encode_multi_diff_response(rid, pages, &mut w);
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
            Request::BarrierArrive {
                barrier,
                floor,
                vc,
                records,
            } => self.serve_tree_arrive(from, rid, barrier, floor, vc, records, arrival, cost),
            Request::Gone => self.serve_gone(from, rid, arrival, cost),
        }
        self.emit(TmkEvent::RequestServed { from, rid });
        if let Some(rel) = self.rel.as_mut() {
            rel.served();
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
    pub(super) fn send_in_window(
        &mut self,
        chan: Chan,
        to: usize,
        bytes: &[u8],
        arrival: Ns,
        cost: Ns,
    ) {
        self.assert_not_me(to);
        let cost = cost + self.sub.response_cost(bytes.len());
        let finish = self.charge_service(arrival, cost);
        self.sub.send(to, chan, bytes, Some(finish));
        if let Some(rel) = self.rel.as_mut() {
            rel.settle(ReplayAction::Sent { chan, to }, bytes);
        }
    }

    /// Answer `requester`'s parked request `(class, rid)` with the frame
    /// `w` out of band — long after its service window closed, on our own
    /// time: advance the clock by `cost` plus the substrate's cost of the
    /// frame, send now, and upgrade the requester's slot so a duplicate of
    /// the request (its answer may be the next loss) replays these bytes.
    pub(super) fn respond_now(
        &mut self,
        class: Class,
        requester: usize,
        rid: u32,
        w: WireWriter,
        cost: Ns,
    ) {
        self.assert_not_me(requester);
        let total = cost + self.sub.response_cost(w.len());
        self.clock().borrow_mut().advance(total);
        let now = self.clock().borrow().now();
        self.sub.send_response_at(requester, w.as_slice(), now);
        if let Some(rel) = self.rel.as_mut() {
            rel.answered(class, requester, rid, w.as_slice());
        }
        w.recycle();
    }

    /// Emit an already-encoded response at service completion, returning
    /// the frame buffer to the pool after the substrate copies it out.
    pub(super) fn respond_wire(&mut self, to: usize, w: WireWriter, arrival: Ns, cost: Ns) {
        self.send_in_window(Chan::Response, to, w.as_slice(), arrival, cost);
        w.recycle();
    }

    /// Forward the request frame `w` on behalf of the request being served
    /// (lock manager → owner); the forward is that request's replay record.
    pub(super) fn forward(&mut self, to: usize, w: WireWriter, arrival: Ns, cost: Ns) {
        self.send_in_window(Chan::Request, to, w.as_slice(), arrival, cost);
        w.recycle();
    }

    /// Tell `parent` that this node is leaving: a [`Request::Gone`], resent
    /// on its rpc timer until the parent answers it, or until the quiet
    /// period passes with nothing heard (the parent left, and the answer
    /// was lost).
    pub(super) fn say_gone(&mut self, parent: usize) {
        let gone = self.rpc_issue(parent, Request::Gone);
        self.start_leaving(false);
        let answered = |t: &mut Self| {
            let frame = t.take_collected(gone).map(|(_, frame)| pool::give(frame));
            frame.or_else(|| t.fell_quiet().then_some(()))
        };
        while self.wait_step(answered).is_continue() {}
    }

    /// No runtime path sends to its own node: a loopback send skips the
    /// scheduler, and a message queued so can hide a nearer one behind it
    /// on its key. Checked in debug builds on every send path.
    fn assert_not_me(&self, to: usize) {
        debug_assert_ne!(to, self.me as usize, "node {} sends to itself", self.me);
    }

    // ----- the overlapped rpc engine ----------------------------------------

    /// Send a request and block for its response's frame, serving every
    /// peer's request that arrives first (the TreadMarks SIGIO discipline).
    /// A plain issue + collect; overlap-aware callers split the two.
    pub(super) fn rpc(&mut self, to: usize, req: Request) -> Vec<u8> {
        let rid = self.rpc_issue(to, req);
        self.rpc_collect(rid).1
    }

    /// The response a collected `frame` carries, borrowed from the frame.
    pub(super) fn answer<'f>(&self, frame: &'f [u8]) -> Response<'f> {
        match Response::decode(frame) {
            Some((_, resp)) => resp,
            None => unreachable!("node {}: a collected frame was checked", self.me),
        }
    }

    /// Allocate a rid, register its pending-response slot and send the
    /// request, in a pooled frame taken at its encoded length — without
    /// blocking. Any number of rids may be outstanding; each is collected
    /// exactly once via [`Self::rpc_collect`].
    pub(super) fn rpc_issue(&mut self, to: usize, req: Request) -> u32 {
        let rid = self.rid();
        let mut w = WireWriter::pooled(req.encoded_len());
        req.encode_into(rid, &mut w);
        self.rpc_send(to, rid, w);
        rid
    }

    /// Register `rid`'s pending-response slot and send its request, already
    /// encoded in `w` (a caller that encodes straight from its own state
    /// sends through here). On lossy transports the frame is retained for
    /// per-rid retransmission, on reliable ones it goes straight back to the
    /// pool.
    pub(super) fn rpc_send(&mut self, to: usize, rid: u32, w: WireWriter) {
        self.assert_not_me(to);
        // A fetch's replay slot is exact only while a node has one fetch
        // open per peer; a lossy transport keeps both slots and frames.
        debug_assert!(
            Class::of_frame(w.as_slice()) != Some(Class::Data)
                || !self.outstanding.iter().filter(|o| o.to == to).any(|o| {
                    let frame = o.resend.as_ref().map(|r| &r.frame[..]);
                    frame.is_some_and(|f| Class::of_frame(f) == Some(Class::Data))
                }),
            "node {}: a second fetch to {to} while one is outstanding",
            self.me
        );
        self.sub.send_request(to, w.as_slice());
        let resend = match self.rel.as_ref() {
            Some(rel) => Some(rel.resend(w.finish(), self.clock().borrow().now())),
            None => {
                w.recycle();
                None
            }
        };
        self.outstanding.push(OutstandingRpc {
            rid,
            to,
            response: None,
            resend,
        });
        let depth = self.outstanding.len() as u32;
        self.emit(TmkEvent::RpcIssued { rid, depth });
    }

    /// Block until the response for `rid` is in and hand over who sent it —
    /// not always the node asked: a forwarded acquire is granted by the
    /// token's holder — and its frame (give it back to the pool when
    /// done), absorbing whatever else the substrate delivers meanwhile:
    /// responses for *other* outstanding rids are parked in their slots,
    /// requests go to the async serve queue. The response is looked for
    /// only after [`Self::wait_step`]'s drain, so every request gathered
    /// with it is served first.
    ///
    /// Every rid is answered: a peer answers each request it is sent
    /// before it leaves (a node leaves only past the exit barrier, whose
    /// release is a response), and on a lossy transport the rid's timer
    /// re-drives the request until the answer gets through. A peer silent
    /// for the whole give-up budget is a panic in the timer, not a
    /// missing answer.
    pub(super) fn rpc_collect(&mut self, rid: u32) -> (usize, Vec<u8>) {
        assert!(
            self.outstanding.iter().any(|o| o.rid == rid),
            "node {}: collect of unissued rid {rid}",
            self.me
        );
        loop {
            if let ControlFlow::Break(resp) = self.wait_step(|t| t.take_collected(rid)) {
                return resp;
            }
        }
    }

    /// The engine's one blocking step, shared by every loop that waits for
    /// a message — [`Self::rpc_collect`], the barrier's arrival wait, the
    /// shutdown linger — and the only place the **drain before block and
    /// before return** invariant lives: the serve queue is emptied (in
    /// virtual-arrival order) before the node blocks — a queued request may
    /// be the very thing a peer is blocked on (the gather-burst deadlock) —
    /// and before the wait ends, so the application never runs while a
    /// peer waits on it. ([`Self::compute_ns`] blocks for a bounded time.)
    ///
    /// Drain the serve queue; if the caller's `ready` re-check now yields,
    /// break with its value without blocking; otherwise block in the
    /// substrate's [`wait`](Substrate::wait) — bounded, on lossy
    /// transports, by the nearest retransmission deadline and, while the
    /// node is leaving, by its own timer — and absorb the message, fire
    /// the due retransmissions, or run the leaving node's timer.
    pub(super) fn wait_step<R>(
        &mut self,
        ready: impl FnOnce(&mut Self) -> Option<R>,
    ) -> ControlFlow<R> {
        self.drain_serve_queue();
        if let Some(r) = ready(self) {
            return ControlFlow::Break(r);
        }
        let leave = self.leave_deadline();
        let resend = self.rel.as_ref().and_then(|_| self.nearest_deadline());
        match self.sub.wait(resend.into_iter().chain(leave).min()) {
            Wait::Got(msg) => self.absorb(msg),
            Wait::Deadline if leave.is_some_and(|l| l <= self.clock().borrow().now()) => {
                self.leave_due()
            }
            Wait::Deadline => self.retransmit_due(),
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
        debug_assert!(self.serve_q.is_empty(), "computing with requests queued");
        let scheme = self.sub.scheme();
        let idle_at_start = self.clock().borrow().stats.idle_time;
        let mut remaining = d;
        loop {
            let start = self.clock().borrow().now();
            let Wait::Got(msg) = self.sub.wait(Some(start + remaining)) else {
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

    /// Remove `rid`'s slot if its response has arrived, returning its
    /// retained retransmission frame to the pool.
    fn take_collected(&mut self, rid: u32) -> Option<(usize, Vec<u8>)> {
        let i = self
            .outstanding
            .iter()
            .position(|o| o.rid == rid && o.response.is_some())?;
        let slot = self.outstanding.swap_remove(i);
        if let Some(r) = slot.resend {
            pool::give(r.frame);
        }
        slot.response
    }

    /// Classify one delivered message: responses are matched against the
    /// whole outstanding-rid set, requests are deferred to the serve
    /// queue (together with any burst that arrived behind them).
    pub(super) fn absorb(&mut self, msg: IncomingMsg) {
        match msg.chan {
            Chan::Response => self.absorb_response(msg),
            Chan::Request => {
                self.queue_request(msg);
                // Pull in everything else that already arrived so the
                // next drain dispatches the burst in virtual-arrival
                // order rather than substrate pop order.
                while let Some(m) = self.sub.poll(&[Chan::Response, Chan::Request]) {
                    if m.chan == Chan::Request {
                        self.queue_request(m);
                    } else {
                        self.absorb_response(m);
                    }
                }
            }
        }
    }

    fn queue_request(&mut self, msg: IncomingMsg) {
        self.heard(msg.from, msg.arrival);
        self.serve_q.push(QueuedRequest {
            from: msg.from,
            data: msg.data,
            arrival: msg.arrival,
        });
    }

    /// File a response's frame into its outstanding slot, or discard it as
    /// stale. The discard keys on the *full* outstanding set: a late
    /// duplicate for rid A must never be mistaken for rid B's answer just
    /// because B is the one currently being collected.
    fn absorb_response(&mut self, msg: IncomingMsg) {
        self.heard(msg.from, msg.arrival);
        let lossy = self.rel.is_some();
        // The check validates every diff image; a diff reaching past our
        // page, or a page not of our cluster's shape, is as malformed as a
        // truncated one and goes the same way.
        let Some(rid) = Response::check(&msg.data, self.n, self.page_size) else {
            assert!(lossy, "node {}: malformed response", self.me);
            self.clock().borrow_mut().stats.malformed_dropped += 1;
            pool::give(msg.data);
            return;
        };
        assert!(
            rid < self.next_rid,
            "node {}: response from the future (rid {rid})",
            self.me
        );
        match self.outstanding.iter().position(|o| o.rid == rid) {
            Some(i) if self.outstanding[i].response.is_none() => {
                self.outstanding[i].response = Some((msg.from, msg.data));
                return;
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
        pool::give(msg.data);
    }

    /// Dispatch every queued request, earliest virtual arrival first (ties
    /// in the order gathered). Handlers never call back into the collect
    /// loop (they respond via service windows), so nothing is queued meanwhile.
    pub(super) fn drain_serve_queue(&mut self) {
        let mut queue = std::mem::take(&mut self.serve_q);
        queue.sort_by_key(|q| q.arrival);
        for q in queue.drain(..) {
            self.serve(q.from, &q.data, q.arrival);
            pool::give(q.data);
        }
        debug_assert!(self.serve_q.is_empty(), "a handler queued a request");
        self.serve_q = queue;
    }

    /// Service any requests that have already arrived (called at natural
    /// application boundaries that do not otherwise wait: a loop on a cached
    /// lock token never computes and never blocks).
    pub fn poll_serve(&mut self) {
        while let Some(msg) = self.sub.poll(&[Chan::Request]) {
            self.queue_request(msg);
        }
        self.drain_serve_queue();
    }

    /// Lossy-transport shutdown linger: keep answering retransmitted
    /// requests from the replay records — a child whose exit release was
    /// lost depends on it, and the release is re-sent every `rto` to each
    /// child still silent — until every one of `children` has said `Gone`,
    /// or until the quiet period passes with no frame heard. A child says
    /// `Gone` only after its own linger, so the whole subtree has left. A
    /// late response finds no outstanding slot and is counted as stale by
    /// the absorb step.
    pub(super) fn shutdown_linger(&mut self, children: std::ops::Range<usize>) {
        self.start_leaving(true);
        let all_gone = |t: &mut Self| {
            let gone = children.clone().all(|c| t.is_gone(c));
            (gone || t.fell_quiet()).then_some(())
        };
        while self.wait_step(all_gone).is_continue() {}
    }
}
