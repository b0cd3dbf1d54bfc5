//! Lazy release consistency proper: the coherence layer.
//!
//! Owns the page table and its fault transitions (twin on first write,
//! invalidate on write notice), interval records and their propagation,
//! diff creation/fetch/application in causal order, what a `Diff` or
//! `Page` request is answered with and what answering costs (the bytes
//! are `protocol`'s business), and the post-barrier epoch GC. The layer
//! above (sync) calls in to flush and apply intervals at synchronization
//! points; this layer calls down into rpc to move pages and diffs.

use std::rc::Rc;

use tm_sim::Ns;

use super::rpc::UNANSWERED;
use super::{DiffFetch, Tmk, TmkEvent};
use crate::diff::Diff;
use crate::interval::{causal_order, IntervalRecord};
use crate::page::{Access, HeldBytes, Page, PageId, Pending, Spans};
use crate::protocol::{begin_multi_diffs, chunk_diffs, PageDiffs, PageRef, Request, Response};
use crate::substrate::Substrate;
use crate::vc::VectorClock;
use crate::wire::WireWriter;

/// Per-page bookkeeping for one (possibly multi-page) diff fetch.
struct PageFetchState {
    pid: PageId,
    /// `(pending, diff)` pairs gathered so far, applied in causal order
    /// once nothing is owed.
    collected: Vec<(Pending, Diff)>,
    /// Per-writer seq ceiling already settled by responses: pending
    /// entries at or below it that produced no diff never wrote this
    /// page (speculative repair ranges) and are dropped.
    covered: Vec<(u16, u32)>,
}

/// One writer's owed intervals in a fetch round:
/// `(writer, [(page, lo_seq, hi_seq)])`.
type WriterNeed = (u16, Vec<(PageId, u32, u32)>);

/// Stride-prefetcher state: a detector over the page-fault sequence plus
/// the speculative requests it has in flight and the payloads they
/// returned. Inert when `cfg.prefetch_depth == 0` (the default) — the
/// detector is never consulted and nothing is ever issued.
///
/// LRC-safety: a volley only ever asks a writer for seqs that were
/// *pending on the page at issue time*, and its payload is staged — at
/// consumption the staged diffs are filtered against the page's *current*
/// pending set, so a page whose coverage moved on (a full-page adoption, a
/// repair notice) simply ignores the stale speculation. Speculation can
/// waste messages; it can never weaken what a fault applies.
#[derive(Default)]
pub(super) struct Prefetcher {
    /// Last faulting page, previous inter-fault stride, and how many
    /// consecutive faults repeated that stride.
    last: Option<PageId>,
    stride: i64,
    streak: u32,
    /// Issued, uncollected speculative volleys.
    volleys: Vec<PrefetchVolley>,
    /// Collected speculative payloads awaiting the fault that wants them:
    /// `(page, writer, payload)`.
    staged: Vec<(PageId, u16, StagedPage)>,
}

/// One speculative request to one writer: the rid to collect and the
/// issue-time `(page, lo_seq, hi_seq)` ranges it asked for.
struct PrefetchVolley {
    rid: u32,
    writer: u16,
    pages: Vec<(PageId, u32, u32)>,
}

/// A prefetched per-page payload parked until its page faults. Mirrors
/// the fetch-response vocabulary; `Diffs` keeps the issue-time `lo` so a
/// repair pending queued *below* it since issue blocks the stale ceiling
/// from settling anything.
enum StagedPage {
    Diffs {
        lo: u32,
        covered_hi: u32,
        diffs: Vec<(u32, Diff)>,
    },
    Full {
        applied: Vec<u32>,
        data: Vec<u8>,
    },
    Zero {
        applied: Vec<u32>,
    },
}

/// Add `p`, a notice pending on `pid`, to what its writer owes: writers in
/// first-owed order, each page once, its `(lo, hi)` widened to cover `p`.
fn owe(need: &mut Vec<WriterNeed>, pid: PageId, p: &Pending) {
    let pages = match need.iter().position(|(n, _)| *n == p.node) {
        Some(i) => &mut need[i].1,
        None => {
            need.push((p.node, Vec::new()));
            &mut need.last_mut().expect("just pushed").1
        }
    };
    match pages.iter_mut().find(|(q, _, _)| *q == pid) {
        Some((_, lo, hi)) => {
            *lo = (*lo).min(p.seq);
            *hi = (*hi).max(p.seq);
        }
        None => pages.push((pid, p.seq, p.seq)),
    }
}

fn covered_of(covered: &[(u16, u32)], node: u16) -> u32 {
    covered
        .iter()
        .find(|(n, _)| *n == node)
        .map(|(_, h)| *h)
        .unwrap_or(0)
}

impl<S: Substrate> Tmk<S> {
    /// Materialize page-table entries up to `upto` (exclusive).
    pub(super) fn ensure_pages(&mut self, upto: usize) {
        while self.pages.len() < upto {
            let idx = self.pages.len();
            let manager = (idx % self.n) as u16;
            let page = if self.me == manager {
                Page::new_resident(self.n, manager, self.page_size)
            } else {
                Page::new(self.n, manager, self.page_size)
            };
            self.pages.push(page);
        }
    }

    /// Heap bytes this node holds for shared pages — page copies, twins
    /// and retained diffs — summed over the page table.
    pub fn held_bytes(&self) -> HeldBytes {
        self.pages.iter().map(Page::held_bytes).sum()
    }

    // ----- interval machinery ---------------------------------------------

    /// Close the current interval if it wrote anything: create diffs from
    /// twins, emit the interval record. Returns the modeled cost (caller
    /// charges it into the right accounting context).
    pub(super) fn flush_interval(&mut self) -> Ns {
        if self.dirty.is_empty() {
            return Ns::ZERO;
        }
        let params = self.sub.params().clone();
        let seq = self.vc.tick(self.me as usize);
        let mut cost = Ns::ZERO;
        let mut pages_written = Vec::with_capacity(self.dirty.len());
        let dirty = std::mem::take(&mut self.dirty);
        for pid in dirty {
            let page = &mut self.pages[pid as usize];
            let d = page.take_diff();
            cost += Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s)
                + params.dsm.diff_overhead
                + params.dsm.mprotect;
            page.my_diffs.push((seq, d));
            page.trim_diffs(self.cfg.diff_keep);
            page.applied[self.me as usize] = seq;
            page.state = match page.state {
                Access::WriteInvalid => Access::Invalid,
                _ => Access::Read,
            };
            pages_written.push(pid);
            self.clock().borrow_mut().stats.diffs_created += 1;
        }
        // The interval's one clock and one page list, on this node.
        let rec = IntervalRecord::new(self.me, seq, self.vc.clone(), pages_written);
        self.log.insert(rec);
        cost
    }

    /// Incorporate interval records learned from a grant or release:
    /// insert into the log and invalidate the named pages. The log and
    /// every invalidated page end up holding the handle that came in.
    pub(super) fn apply_records(&mut self, records: Vec<Rc<IntervalRecord>>) -> Ns {
        let mut fresh: Vec<Rc<IntervalRecord>> = Vec::with_capacity(records.len());
        for rec in records {
            // Novelty check covers both the log and this batch: barrier
            // arrivals from different clients often relay the same record.
            if !self.log.contains(rec.node, rec.seq)
                && !fresh.iter().any(|f| f.node == rec.node && f.seq == rec.seq)
            {
                fresh.push(rec);
            }
        }
        let cost = self.notice_records(&fresh);
        for rec in fresh {
            self.log.insert(rec);
        }
        cost
    }

    /// Invalidate pages named by `records`' write notices.
    fn notice_records(&mut self, records: &[Rc<IntervalRecord>]) -> Ns {
        let mprotect = self.sub.params().dsm.mprotect;
        let mut cost = Ns::ZERO;
        for rec in records {
            if rec.node == self.me {
                continue;
            }
            if let Some(&max_pid) = rec.pages().last() {
                self.ensure_pages(max_pid as usize + 1);
            }
            for &pid in rec.pages() {
                let page = &mut self.pages[pid as usize];
                let before = page.state;
                page.add_notice(rec);
                if page.state != before {
                    cost += mprotect;
                }
            }
        }
        cost
    }

    /// Post-barrier GC: everyone has incorporated everything up to `vc`.
    pub(super) fn epoch_gc(&mut self, vc: VectorClock) {
        self.last_barrier_vc = vc;
        self.log.trim(&self.last_barrier_vc);
    }

    /// Interval records newer than the last barrier epoch (what a barrier
    /// arrival relays to the manager).
    pub(super) fn records_since_epoch(&self) -> Vec<Rc<IntervalRecord>> {
        self.log.newer_than(&self.last_barrier_vc)
    }

    // ----- serve side: what a fetch is answered with, and its cost ----------

    /// This node's answer to a fetch of `pid`'s diffs `lo..=hi` in at most
    /// `budget` bytes — borrowed from the page's retained diff list, no
    /// `Vec<(u32, Diff)>` clone — and the modeled cost of producing it.
    /// Chunked to the budget (the requester re-requests the remainder); a
    /// full page when the requested diffs were garbage-collected.
    fn diffs_answer(&self, pid: PageId, lo: u32, hi: u32, budget: usize) -> (PageRef<'_>, Ns) {
        let Some(all) = self.pages[pid as usize].diffs_range(lo, hi) else {
            return self.full_page_answer(pid);
        };
        let params = self.sub.params();
        let (take, covered_hi) = chunk_diffs(all, hi, budget);
        let diffs = &all[..take];
        let cost = diffs
            .iter()
            .map(|(_, d)| {
                params.dsm.diff_overhead + Ns::for_bytes(d.payload_bytes(), params.host.memcpy_mb_s)
            })
            .sum();
        (PageRef::Diffs { covered_hi, diffs }, cost)
    }

    /// The stable copy of a page (its twin's units laid over it while the
    /// current interval writes it) plus its applied vector, written
    /// straight from the page's buffers. All-zero pages (freshly allocated
    /// memory on first touch) travel as a compact marker.
    fn full_page_answer(&self, pid: PageId) -> (PageRef<'_>, Ns) {
        let params = self.sub.params();
        let page = &self.pages[pid as usize];
        assert!(
            page.state != Access::Unmapped,
            "node {} asked for page {pid} it never held",
            self.me
        );
        let applied = &page.applied;
        let data = page.stable();
        let scan = Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s);
        if data.is_zero() {
            return (PageRef::Zero { applied }, scan);
        }
        let copy = Ns::for_bytes(self.page_size, params.host.memcpy_mb_s);
        (PageRef::Full { applied, data }, scan + copy)
    }

    /// Answer a `Diff` request into `w`; returns the cost.
    pub(super) fn encode_diff_response(
        &self,
        rid: u32,
        pid: PageId,
        lo: u32,
        hi: u32,
        w: &mut WireWriter,
    ) -> Ns {
        let (answer, cost) = self.diffs_answer(pid, lo, hi, self.sub.params().dsm.max_msg);
        answer.encode_response(rid, pid, w);
        cost
    }

    /// Answer a `Page` request into `w`; returns the cost.
    pub(super) fn encode_full_page(&self, rid: u32, pid: PageId, w: &mut WireWriter) -> Ns {
        let (answer, cost) = self.full_page_answer(pid);
        answer.encode_response(rid, pid, w);
        cost
    }

    /// Answer a coalesced `MultiDiff` request into `w`; returns the cost.
    /// Pages that do not fit the substrate's message budget are omitted
    /// entirely — the requester's round loop re-requests what is still
    /// owed.
    pub(super) fn encode_multi_diff_response(
        &self,
        rid: u32,
        pages: &[(PageId, u32, u32)],
        w: &mut WireWriter,
    ) -> Ns {
        let max = self.sub.params().dsm.max_msg;
        let count = begin_multi_diffs(rid, w);
        let mut included = 0u16;
        let mut cost = Ns::ZERO;
        for &(pid, lo, hi) in pages {
            if included > 0 && w.len() >= max {
                break;
            }
            let (answer, c) = self.diffs_answer(pid, lo, hi, max.saturating_sub(w.len()));
            answer.encode_entry(pid, w);
            cost += c;
            included += 1;
        }
        w.patch_u16(count, included);
        cost
    }

    // ----- faults -----------------------------------------------------------

    /// A readable page is one check, inlined into every access; the fault
    /// itself is `read_fault`.
    #[inline]
    pub(super) fn ensure_readable(&mut self, pid: PageId) {
        if !matches!(self.pages[pid as usize].state, Access::Read | Access::Write) {
            self.read_fault(pid);
        }
    }

    fn read_fault(&mut self, pid: PageId) {
        match self.pages[pid as usize].state {
            Access::Read | Access::Write => {}
            Access::Unmapped => {
                let fault = self.sub.params().dsm.page_fault;
                self.clock().borrow_mut().advance(fault);
                self.clock().borrow_mut().stats.page_faults += 1;
                self.prefetch_note_fault(pid);
                self.fetch_page(pid);
                self.fetch_pending_diffs(pid);
            }
            Access::Invalid | Access::WriteInvalid => {
                let fault = self.sub.params().dsm.page_fault;
                self.clock().borrow_mut().advance(fault);
                self.clock().borrow_mut().stats.page_faults += 1;
                self.prefetch_note_fault(pid);
                self.fetch_pending_diffs(pid);
            }
        }
    }

    pub(super) fn ensure_writable(&mut self, pid: PageId) {
        self.ensure_readable(pid);
        let params = self.sub.params().clone();
        let page = &mut self.pages[pid as usize];
        if page.state == Access::Read {
            // Write fault: open a twin. It copies each span just before
            // the interval first writes it, into a pooled buffer (twins
            // are created and retired every interval — prime churn); the
            // charge is still a whole page's copy.
            page.start_twin();
            page.state = Access::Write;
            self.dirty.push(pid);
            let mut c = self.clock().borrow_mut();
            c.advance(
                params.dsm.page_fault
                    + params.dsm.mprotect
                    + params.dsm.twin_overhead
                    + Ns::for_bytes(self.page_size, params.host.memcpy_mb_s),
            );
            c.stats.page_faults += 1;
            c.stats.twins_created += 1;
        }
    }

    /// Write fault for a whole-page overwrite: skip fetching the old
    /// content. Pending notices are marked applied — their diffs would be
    /// overwritten verbatim (any word both we and a concurrent writer
    /// touch would be a data race in the program).
    pub(super) fn ensure_writable_overwrite(&mut self, pid: PageId) {
        let state = self.pages[pid as usize].state;
        match state {
            Access::Write => return,
            Access::Read => {
                self.ensure_writable(pid);
                return;
            }
            Access::Unmapped | Access::Invalid | Access::WriteInvalid => {}
        }
        let params = self.sub.params().clone();
        let page = &mut self.pages[pid as usize];
        // Absorb pending notices without fetching their diffs.
        let pending = std::mem::take(&mut page.pending);
        for p in &pending {
            page.applied[p.node as usize] = page.applied[p.node as usize].max(p.seq);
        }
        let mut cost = params.dsm.page_fault + params.dsm.mprotect;
        if page.twin.is_none() {
            page.start_twin();
            self.dirty.push(pid);
            cost += params.dsm.twin_overhead
                + Ns::for_bytes(self.page_size, params.host.memcpy_mb_s);
            let mut c = self.clock().borrow_mut();
            c.stats.twins_created += 1;
        }
        let page = &mut self.pages[pid as usize];
        page.force_full_diff = true;
        page.state = Access::Write;
        let mut c = self.clock().borrow_mut();
        c.advance(cost);
        c.stats.page_faults += 1;
    }

    /// First touch: fetch the whole page from its manager.
    fn fetch_page(&mut self, pid: PageId) {
        let manager = self.pages[pid as usize].manager as usize;
        assert_ne!(manager, self.me as usize, "manager pages are resident");
        let resp = self.rpc(manager, Request::Page { page: pid });
        match resp {
            Response::FullPage { page, applied, data } => {
                assert_eq!(page, pid);                self.adopt_full_page(pid, applied, Spans::dense(data));
                self.clock().borrow_mut().stats.pages_fetched += 1;
                self.emit(TmkEvent::PageFetched { page: pid });
            }
            Response::ZeroPage { page, applied } => {
                assert_eq!(page, pid);
                self.adopt_full_page(pid, applied, Spans::zero(self.page_size));
                self.clock().borrow_mut().stats.pages_fetched += 1;
                self.emit(TmkEvent::PageFetched { page: pid });
            }
            other => panic!("expected FullPage, got {other:?}"),
        }
    }

    /// Merge a received full page into local state, preserving our own
    /// uncommitted writes if any.
    ///
    /// The responder's copy can be *behind* us on some writers' axes (its
    /// `applied[v]` below ours): adopting it wholesale would regress those
    /// writers' words. We repair: our own newer flushed intervals are
    /// replayed from `my_diffs`, and deficits on other axes are re-queued
    /// as pending notices ([`IntervalRecord::repair`]) so the normal diff
    /// fetch re-applies them (concurrent repairs touch disjoint words in
    /// race-free programs).
    fn adopt_full_page(&mut self, pid: PageId, applied: Vec<u32>, image: Spans) {
        let params = self.sub.params().clone();
        let mut cost = Ns::for_bytes(image.page_len(), params.host.memcpy_mb_s) + params.dsm.mprotect;
        let me = self.me as usize;
        let n = self.n;
        let page = &mut self.pages[pid as usize];
        // Uncommitted writes are replayed on the new base (`Page::adopt`).
        if page.adopt(image) {
            cost += Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s);
        }
        // Adopt the responder's view…
        let old_applied = std::mem::replace(&mut page.applied, applied);
        // …then repair our own axis from locally retained diffs (applied
        // by reference: my_diffs, data and twin are disjoint fields).
        if old_applied[me] > page.applied[me] {
            let lo = page.applied[me];
            let Page {
                my_diffs, data, twin, ..
            } = page;
            for (seq, d) in my_diffs.iter() {
                if *seq > lo && *seq <= old_applied[me] {
                    d.apply_page(data);
                    if let Some(t) = twin.as_deref_mut() {
                        d.apply_held(t);
                    }
                    cost += params.dsm.diff_overhead;
                }
            }
            page.applied[me] = old_applied[me];
        }
        // Repair deficits on other axes by re-queuing pending notices
        // (fetched and applied by the ongoing fault).
        for (v, &old) in old_applied.iter().enumerate() {
            if v == me {
                continue;
            }
            if old > page.applied[v] {
                for seq in page.applied[v] + 1..=old {
                    page.add_notice(&IntervalRecord::repair(n, v as u16, seq));
                }
            }
        }
        let Page {
            pending, applied, ..
        } = page;
        pending.retain(|p| p.seq > applied[p.node as usize]);
        page.state = match (page.twin.is_some(), page.pending.is_empty()) {
            (true, true) => Access::Write,
            (true, false) => Access::WriteInvalid,
            (false, true) => Access::Read,
            (false, false) => Access::Invalid,
        };
        self.clock().borrow_mut().advance(cost);
    }

    /// Fetch and apply every pending diff for a page, in causal order.
    fn fetch_pending_diffs(&mut self, pid: PageId) {
        self.fetch_diffs_batch(&[pid]);
    }

    /// Fault in a span of pages at once. Each page is charged its fault
    /// and (if unmapped) fetched from its manager exactly as the per-page
    /// path would, but the pending-diff fetches for the whole span share
    /// one overlapped round: requests to distinct writers are in flight
    /// simultaneously, and multi-page requests to one writer coalesce.
    /// Under [`DiffFetch::Serial`] this degenerates to the per-page loop,
    /// message for message.
    pub(super) fn ensure_readable_batch(&mut self, pids: &[PageId]) {
        if self.cfg.diff_fetch == DiffFetch::Serial {
            for &pid in pids {
                self.ensure_readable(pid);
            }
            return;
        }
        let mut faulted: Vec<PageId> = Vec::new();
        for &pid in pids {
            match self.pages[pid as usize].state {
                Access::Read | Access::Write => {}
                Access::Unmapped => {
                    let fault = self.sub.params().dsm.page_fault;
                    self.clock().borrow_mut().advance(fault);
                    self.clock().borrow_mut().stats.page_faults += 1;
                    self.prefetch_note_fault(pid);
                    self.fetch_page(pid);
                    faulted.push(pid);
                }
                Access::Invalid | Access::WriteInvalid => {
                    let fault = self.sub.params().dsm.page_fault;
                    self.clock().borrow_mut().advance(fault);
                    self.clock().borrow_mut().stats.page_faults += 1;
                    self.prefetch_note_fault(pid);
                    faulted.push(pid);
                }
            }
        }
        if !faulted.is_empty() {
            self.fetch_diffs_batch(&faulted);
        }
    }

    /// Fetch and apply pending diffs for a set of pages.
    ///
    /// New notices can land mid-fetch (we service peers' requests while
    /// blocked), so each round re-derives what is pending but not yet
    /// collected across *all* pages, then dispatches per
    /// [`DiffFetch`]: serially (one blocking RPC per writer per page, the
    /// spec baseline), or coalesced (at most one request per writer per
    /// round, all issued before any is collected).
    fn fetch_diffs_batch(&mut self, pids: &[PageId]) {
        let mut states: Vec<PageFetchState> = pids
            .iter()
            .map(|&pid| PageFetchState {
                pid,
                collected: Vec::new(),
                covered: Vec::new(),
            })
            .collect();
        self.prefetch_harvest(&mut states);
        loop {
            // Owed ranges this round, grouped by writer.
            let mut need: Vec<WriterNeed> = Vec::new();
            for st in &states {
                for p in &self.pages[st.pid as usize].pending {
                    if st
                        .collected
                        .iter()
                        .any(|(q, _)| q.node == p.node && q.seq == p.seq)
                    {
                        continue;
                    }
                    if p.seq <= covered_of(&st.covered, p.node) {
                        // Settled as nonexistent.
                        continue;
                    }
                    owe(&mut need, st.pid, p);
                }
            }
            if need.is_empty() {
                break;
            }
            match self.cfg.diff_fetch {
                DiffFetch::Serial => {
                    for (writer, pages) in need {
                        for (pid, lo, hi) in pages {
                            let resp =
                                self.rpc(writer as usize, Request::Diff { page: pid, lo, hi });
                            self.handle_fetch_response(&mut states, writer, resp);
                        }
                    }
                }
                DiffFetch::Coalesced => {
                    let mut issued: Vec<(u32, u16)> = Vec::new();
                    for (writer, pages) in &need {
                        let req = if pages.len() == 1 {
                            let (pid, lo, hi) = pages[0];
                            Request::Diff { page: pid, lo, hi }
                        } else {
                            Request::MultiDiff {
                                pages: pages.clone(),
                            }
                        };
                        issued.push((self.rpc_issue(*writer as usize, req), *writer));
                    }
                    self.note_fanout(need.len(), issued.len());
                    for (rid, writer) in issued {
                        let resp = self.rpc_collect(rid).expect(UNANSWERED);
                        self.handle_fetch_response(&mut states, writer, resp);
                    }
                }
            }
        }
        for st in states {
            self.apply_fetched_page(st);
        }
    }

    // ----- stride prefetcher ------------------------------------------------

    /// Feed one page fault to the stride detector; on a confirmed
    /// constant stride, speculatively issue diff fetches for the next
    /// `prefetch_depth` predicted pages.
    fn prefetch_note_fault(&mut self, pid: PageId) {
        if self.cfg.prefetch_depth == 0 {
            return;
        }
        let Some(prev) = self.pf.last.replace(pid) else {
            return;
        };
        let stride = pid as i64 - prev as i64;
        if stride != 0 && stride == self.pf.stride {
            self.pf.streak += 1;
        } else {
            self.pf.stride = stride;
            self.pf.streak = u32::from(stride != 0);
        }
        if self.pf.streak >= 2 {
            self.prefetch_issue(pid);
        }
    }

    /// Issue speculative volleys for the predicted window
    /// `origin + stride .. origin + depth * stride`: only pages that are
    /// invalid with pending notices, not already in flight or staged. The
    /// requests ride the overlapped engine — the faulting page's demand
    /// fetch proceeds while these are in the air.
    fn prefetch_issue(&mut self, origin: PageId) {
        let stride = self.pf.stride;
        let mut need: Vec<WriterNeed> = Vec::new();
        let mut targets: Vec<PageId> = Vec::new();
        for k in 1..=self.cfg.prefetch_depth as i64 {
            let t = origin as i64 + stride * k;
            if t < 0 || t as usize >= self.pages.len() {
                break;
            }
            let pid = t as PageId;
            if self
                .pf
                .volleys
                .iter()
                .any(|v| v.pages.iter().any(|&(p, _, _)| p == pid))
                || self.pf.staged.iter().any(|&(p, _, _)| p == pid)
            {
                continue;
            }
            let page = &self.pages[pid as usize];
            if !matches!(page.state, Access::Invalid | Access::WriteInvalid)
                || page.pending.is_empty()
            {
                continue;
            }
            for p in &page.pending {
                owe(&mut need, pid, p);
            }
            targets.push(pid);
        }
        for (writer, pages) in need {
            let req = if pages.len() == 1 {
                let (pid, lo, hi) = pages[0];
                Request::Diff { page: pid, lo, hi }
            } else {
                Request::MultiDiff {
                    pages: pages.clone(),
                }
            };
            let rid = self.rpc_issue(writer as usize, req);
            self.pf.volleys.push(PrefetchVolley { rid, writer, pages });
        }
        for pid in targets {
            self.emit(TmkEvent::PrefetchIssued { page: pid });
        }
    }

    /// Collect every volley that targets one of the faulting pages and
    /// fold the staged payloads for those pages into the fetch states.
    /// Payloads for pages *not* faulting stay staged for their own fault;
    /// volleys with no page in the batch stay in the air.
    fn prefetch_harvest(&mut self, states: &mut [PageFetchState]) {
        if self.pf.volleys.is_empty() && self.pf.staged.is_empty() {
            return;
        }
        let mut due: Vec<PrefetchVolley> = Vec::new();
        let mut i = 0;
        while i < self.pf.volleys.len() {
            let hit = self.pf.volleys[i]
                .pages
                .iter()
                .any(|&(p, _, _)| states.iter().any(|s| s.pid == p));
            if hit {
                due.push(self.pf.volleys.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for v in due {
            let resp = self.rpc_collect(v.rid).expect(UNANSWERED);
            self.stage_response(&v, resp);
        }
        let staged = std::mem::take(&mut self.pf.staged);
        let mut hits: Vec<PageId> = Vec::new();
        for (pid, writer, payload) in staged {
            if !states.iter().any(|s| s.pid == pid) {
                self.pf.staged.push((pid, writer, payload));
                continue;
            }
            if !hits.contains(&pid) {
                hits.push(pid);
            }
            match payload {
                StagedPage::Diffs {
                    lo,
                    covered_hi,
                    diffs,
                } => {
                    // Validity check at apply time: only diffs the page
                    // still awaits are usable; a pending queued *below*
                    // the issued floor since (a repair) blocks the stale
                    // ceiling from settling anything.
                    let pending = &self.pages[pid as usize].pending;
                    let filtered: Vec<(u32, Diff)> = diffs
                        .into_iter()
                        .filter(|(seq, _)| {
                            pending.iter().any(|p| p.node == writer && p.seq == *seq)
                        })
                        .collect();
                    let eff = if pending.iter().any(|p| p.node == writer && p.seq < lo) {
                        0
                    } else {
                        covered_hi
                    };
                    if !filtered.is_empty() || eff > 0 {
                        let st = states
                            .iter_mut()
                            .find(|s| s.pid == pid)
                            .expect("membership checked above");
                        self.absorb_page_diffs(st, writer, eff, filtered);
                    }
                }
                StagedPage::Full { applied, data } => {
                    self.adopt_fetched_full(states, pid, applied, Spans::dense(data));
                }
                StagedPage::Zero { applied } => {
                    let zero = Spans::zero(self.page_size);
                    self.adopt_fetched_full(states, pid, applied, zero);
                }
            }
        }
        for pid in hits {
            self.emit(TmkEvent::PrefetchHit { page: pid });
        }
    }

    /// Break a volley's response into per-page staged payloads. Pages the
    /// responder omitted under its message budget simply never stage —
    /// speculation is never re-requested.
    fn stage_response(&mut self, v: &PrefetchVolley, resp: Response) {
        let lo_of = |pid: PageId| {
            v.pages
                .iter()
                .find(|&&(p, _, _)| p == pid)
                .map(|&(_, lo, _)| lo)
                .unwrap_or(0)
        };
        match resp {
            Response::Diffs {
                page,
                covered_hi,
                diffs,
            } => {
                let lo = lo_of(page);
                self.pf.staged.push((
                    page,
                    v.writer,
                    StagedPage::Diffs {
                        lo,
                        covered_hi,
                        diffs,
                    },
                ));
            }
            Response::MultiDiffs { pages } => {
                for (page, pd) in pages {
                    let entry = match pd {
                        PageDiffs::Diffs { covered_hi, diffs } => StagedPage::Diffs {
                            lo: lo_of(page),
                            covered_hi,
                            diffs,
                        },
                        PageDiffs::Full { applied, data } => StagedPage::Full { applied, data },
                        PageDiffs::Zero { applied } => StagedPage::Zero { applied },
                    };
                    self.pf.staged.push((page, v.writer, entry));
                }
            }
            Response::FullPage { page, applied, data } => {
                self.pf
                    .staged
                    .push((page, v.writer, StagedPage::Full { applied, data }));
            }
            Response::ZeroPage { page, applied } => {
                self.pf
                    .staged
                    .push((page, v.writer, StagedPage::Zero { applied }));
            }
            other => panic!("expected diff/page payload for prefetch, got {other:?}"),
        }
    }

    /// Settle all speculative state: collect what is still in the air and
    /// discard every unused payload, counting it wasted. Called on barrier
    /// entry — nothing issued against the old epoch survives it — and a
    /// no-op whenever the prefetcher is inert.
    pub(super) fn prefetch_drain(&mut self) {
        let volleys = std::mem::take(&mut self.pf.volleys);
        for v in volleys {
            let _ = self.rpc_collect(v.rid);
            for &(pid, _, _) in &v.pages {
                self.emit(TmkEvent::PrefetchWasted { page: pid });
            }
        }
        for (pid, _, _) in std::mem::take(&mut self.pf.staged) {
            self.emit(TmkEvent::PrefetchWasted { page: pid });
        }
        self.pf.last = None;
        self.pf.stride = 0;
        self.pf.streak = 0;
    }

    /// The lock pipeline's fetch arm: batch-fetch every (mapped, invalid,
    /// pending) page in `pids` through the overlapped engine, charging no
    /// page faults — the point is that the faults never happen. Returns
    /// how many pages were fetched.
    pub(super) fn pipeline_fetch(&mut self, pids: &[PageId]) -> usize {
        let mut targets: Vec<PageId> = Vec::new();
        for &pid in pids {
            if (pid as usize) < self.pages.len()
                && !targets.contains(&pid)
                && matches!(
                    self.pages[pid as usize].state,
                    Access::Invalid | Access::WriteInvalid
                )
                && !self.pages[pid as usize].pending.is_empty()
            {
                targets.push(pid);
            }
        }
        if targets.is_empty() {
            return 0;
        }
        self.fetch_diffs_batch(&targets);
        targets.len()
    }

    fn note_fanout(&mut self, writers: usize, requests: usize) {
        if requests > 1 {
            self.emit(TmkEvent::DiffFanout {
                writers: writers as u16,
                requests: requests as u16,
            });
        }
    }

    /// Fold one diff-fetch response into the per-page fetch states.
    fn handle_fetch_response(
        &mut self,
        states: &mut [PageFetchState],
        writer: u16,
        resp: Response,
    ) {
        match resp {
            Response::Diffs {
                page,
                covered_hi,
                diffs,
            } => {
                let st = states
                    .iter_mut()
                    .find(|s| s.pid == page)
                    .expect("diffs for a page we did not request");
                self.absorb_page_diffs(st, writer, covered_hi, diffs);
            }
            Response::MultiDiffs { pages } => {
                for (page, pd) in pages {
                    match pd {
                        PageDiffs::Diffs { covered_hi, diffs } => {
                            let st = states
                                .iter_mut()
                                .find(|s| s.pid == page)
                                .expect("diffs for a page we did not request");
                            self.absorb_page_diffs(st, writer, covered_hi, diffs);
                        }
                        PageDiffs::Full { applied, data } => {
                            self.adopt_fetched_full(states, page, applied, Spans::dense(data));
                        }
                        PageDiffs::Zero { applied } => {
                            let zero = Spans::zero(self.page_size);
                            self.adopt_fetched_full(states, page, applied, zero);
                        }
                    }
                }
            }
            Response::ZeroPage { page, applied } => {
                let zero = Spans::zero(self.page_size);
                self.adopt_fetched_full(states, page, applied, zero);
            }
            Response::FullPage { page, applied, data } => {
                // GC fallback: adopt, then continue with whatever is
                // still pending.
                self.adopt_fetched_full(states, page, applied, Spans::dense(data));
            }
            other => panic!("expected Diffs/FullPage, got {other:?}"),
        }
    }

    /// Record a writer's `Diffs` payload for one page: advance the covered
    /// ceiling and stash the diffs against their pending notices.
    fn absorb_page_diffs(
        &mut self,
        st: &mut PageFetchState,
        writer: u16,
        covered_hi: u32,
        diffs: Vec<(u32, Diff)>,
    ) {
        match st.covered.iter_mut().find(|(n, _)| *n == writer) {
            Some((_, h)) => *h = (*h).max(covered_hi),
            None => st.covered.push((writer, covered_hi)),
        }
        let pending = &self.pages[st.pid as usize].pending;
        for (seq, d) in diffs {
            let pend = match pending.binary_search_by_key(&(writer, seq), |p| (p.node, p.seq)) {
                Ok(i) => Rc::clone(&pending[i]),
                // Returned but not (yet) noticed: the covered ceiling
                // will advance past it, so it must be applied now.
                Err(_) => IntervalRecord::repair(self.n, writer, seq),
            };
            st.collected.push((pend, d));
        }
    }

    /// Adopt a full-page response received mid-fetch and drop collected
    /// diffs the adoption already settled.
    fn adopt_fetched_full(
        &mut self,
        states: &mut [PageFetchState],
        pid: PageId,
        applied: Vec<u32>,
        image: Spans,
    ) {
        self.adopt_full_page(pid, applied, image);
        self.clock().borrow_mut().stats.pages_fetched += 1;
        self.emit(TmkEvent::PageFetched { page: pid });
        if let Some(st) = states.iter_mut().find(|s| s.pid == pid) {
            let pending = &self.pages[pid as usize].pending;
            st.collected
                .retain(|(p, _)| pending.iter().any(|q| q.node == p.node && q.seq == p.seq));
        }
    }

    /// Apply one page's collected diffs in causal order and finish the
    /// fault (mprotect, state transition).
    fn apply_fetched_page(&mut self, st: PageFetchState) {
        let params = self.sub.params().clone();
        let PageFetchState {
            pid,
            mut collected,
            covered,
        } = st;
        causal_order(&mut collected, |(pend, _)| pend);
        // Apply in order, to data and (if present) twin.
        let mut cost = Ns::ZERO;
        let mut applied_count = 0u64;
        let page = &mut self.pages[pid as usize];
        for (pend, d) in collected {
            page.apply(&d);
            cost += params.dsm.diff_overhead
                + Ns::for_bytes(d.payload_bytes(), params.host.memcpy_mb_s);
            page.applied_notice(pend.node, pend.seq);
            applied_count += 1;
        }
        self.clock().borrow_mut().stats.diffs_applied += applied_count;
        if applied_count > 0 {
            self.emit(TmkEvent::DiffApplied {
                page: pid,
                count: applied_count,
            });
        }
        cost += params.dsm.mprotect;
        // Clear speculative pendings that turned out not to exist.
        let page = &mut self.pages[pid as usize];
        for (node, hi) in covered {
            page.applied_notice(node, hi);
        }
        debug_assert!(
            page.pending.is_empty(),
            "unresolved pendings: {:?}",
            page.pending
        );
        page.state = if page.twin.is_some() {
            Access::Write
        } else {
            Access::Read
        };
        self.clock().borrow_mut().advance(cost);
    }
}

#[cfg(test)]
#[path = "coherence_tests.rs"]
mod tests;
