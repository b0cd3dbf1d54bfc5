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

use super::{DiffFetch, Tmk};
use crate::diff::Diff;
use crate::interval::IntervalRecord;
use crate::page::{Access, HeldBytes, Page, PageId, Spans};
use crate::protocol::{begin_multi_diffs, chunk_diffs, PageDiffs, PageRef, Request, Response};
use crate::substrate::Substrate;
use crate::vc::VectorClock;
use crate::wire::WireWriter;

/// Per-page bookkeeping for one (possibly multi-page) diff fetch.
struct PageFetchState {
    pid: PageId,
    /// `(writer, seq, diff)` gathered so far, applied in causal order once
    /// nothing is owed.
    collected: Vec<(u16, u32, Diff)>,
    /// Per-writer seq ceiling already settled by responses: every diff up
    /// to it is collected, and an owed seq at or below it that produced no
    /// diff never wrote this page.
    covered: Vec<(u16, u32)>,
}

/// One writer's owed intervals in a fetch round:
/// `(writer, [(page, lo_seq, hi_seq)])`.
type WriterNeed = (u16, Vec<(PageId, u32, u32)>);

/// Add `writer`'s owed `range` of one page to a round's needs: writers in
/// first-owed order, each with its pages in the order they came.
fn owe(need: &mut Vec<WriterNeed>, writer: u16, range: (PageId, u32, u32)) {
    let i = match need.iter().position(|(w, _)| *w == writer) {
        Some(i) => i,
        None => {
            need.push((writer, Vec::new()));
            need.len() - 1
        }
    };
    need[i].1.push(range);
}

/// A diff request for one writer's owed pages: one page alone, or several
/// coalesced.
fn diff_request(pages: &[(PageId, u32, u32)]) -> Request {
    match *pages {
        [(page, lo, hi)] => Request::Diff { page, lo, hi },
        _ => Request::MultiDiff {
            pages: pages.to_vec(),
        },
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
            let pid = self.pages.len() as PageId;
            let page = if self.page_manager(pid) == self.me {
                Page::new_resident(self.page_size)
            } else {
                Page::new(self.page_size)
            };
            self.pages.push(page);
        }
    }

    /// A page's manager, the node that allocates it: round-robin.
    fn page_manager(&self, pid: PageId) -> u16 {
        (pid as usize % self.n) as u16
    }

    /// Heap bytes this node holds for shared pages — page copies, twins,
    /// retained diffs and the page table itself.
    pub fn held_bytes(&self) -> HeldBytes {
        self.pages.held_bytes()
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
        let dirty = std::mem::take(&mut self.dirty);
        for &pid in &dirty {
            let page = &mut self.pages[pid];
            let d = page.take_diff();
            cost += Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s)
                + params.dsm.diff_overhead
                + params.dsm.mprotect;
            page.retain_diff(seq, d);
            page.state = match page.state {
                Access::WriteInvalid => Access::Invalid,
                _ => Access::Read,
            };
            self.pages.applied_notice(pid, self.me, seq);
            self.clock().borrow_mut().stats.diffs_created += 1;
        }
        // The interval's one record, encoded once, on this node.
        let rec = IntervalRecord::new(self.me, seq, &self.vc, dirty);
        self.log.insert(rec);
        cost
    }

    /// Incorporate interval records learned from a grant or release:
    /// insert into the log and invalidate the pages a peer's new record
    /// names. The log keeps the handle that came in and decides what is
    /// new — barrier arrivals from different clients often relay the same
    /// record; a page only raises what it owes.
    pub(super) fn apply_records(&mut self, records: Vec<Rc<IntervalRecord>>) -> Ns {
        let mprotect = self.sub.params().dsm.mprotect;
        let mut cost = Ns::ZERO;
        for rec in records {
            if !self.log.insert(Rc::clone(&rec)) || rec.node == self.me {
                continue;
            }
            for (first, len) in rec.ranges() {
                self.ensure_pages(first as usize + len as usize);
                for pid in (0..len).map(|i| first + i) {
                    let before = self.pages[pid].state;
                    self.pages.add_notice(pid, rec.node, rec.seq);
                    if self.pages[pid].state != before {
                        cost += mprotect;
                    }
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
        let Some(all) = self.pages[pid].diffs_range(lo, hi) else {
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
        let page = &self.pages[pid];
        assert!(
            page.state != Access::Unmapped,
            "node {} asked for page {pid} it never held",
            self.me
        );
        let applied = self.pages.applied(pid);
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
        if !matches!(self.pages[pid].state, Access::Read | Access::Write) {
            self.read_fault(pid);
        }
    }

    fn read_fault(&mut self, pid: PageId) {
        if self.take_fault(pid) {
            self.fetch_diffs_batch(&[pid]);
        }
    }

    /// Charge `pid`'s access fault, if it has one — fetching the whole page
    /// first when it was never mapped — and say whether it did. What the
    /// page is owed is left to the caller's diff fetch.
    fn take_fault(&mut self, pid: PageId) -> bool {
        let state = self.pages[pid].state;
        if matches!(state, Access::Read | Access::Write) {
            return false;
        }
        let fault = self.sub.params().dsm.page_fault;
        self.clock().borrow_mut().advance(fault);
        self.clock().borrow_mut().stats.page_faults += 1;
        if state == Access::Unmapped {
            self.fetch_page(pid);
        }
        true
    }

    pub(super) fn ensure_writable(&mut self, pid: PageId) {
        self.ensure_readable(pid);
        let params = self.sub.params().clone();
        let page = &mut self.pages[pid];
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
    /// content. What the page is owed is marked applied — those diffs would
    /// be overwritten verbatim (any word both we and a concurrent writer
    /// touch would be a data race in the program).
    pub(super) fn ensure_writable_overwrite(&mut self, pid: PageId) {
        let state = self.pages[pid].state;
        match state {
            Access::Write => return,
            Access::Read => {
                self.ensure_writable(pid);
                return;
            }
            Access::Unmapped | Access::Invalid | Access::WriteInvalid => {}
        }
        let params = self.sub.params().clone();
        self.pages.waive_owed(pid);
        let page = &mut self.pages[pid];
        let mut cost = params.dsm.page_fault + params.dsm.mprotect;
        if page.twin.is_none() {
            page.start_twin();
            self.dirty.push(pid);
            cost +=
                params.dsm.twin_overhead + Ns::for_bytes(self.page_size, params.host.memcpy_mb_s);
            let mut c = self.clock().borrow_mut();
            c.stats.twins_created += 1;
        }
        let page = &mut self.pages[pid];
        page.force_full_diff = true;
        page.state = Access::Write;
        let mut c = self.clock().borrow_mut();
        c.advance(cost);
        c.stats.page_faults += 1;
    }

    /// First touch: fetch the whole page from its manager.
    fn fetch_page(&mut self, pid: PageId) {
        let manager = self.page_manager(pid);
        assert_ne!(manager, self.me, "manager pages are resident");
        let resp = self.rpc(manager as usize, Request::Page { page: pid });
        resp.for_each_page(|page, pd| {
            assert_eq!(page, pid);
            self.take_payload(&mut [], page, manager, pd);
        });
    }

    /// Merge a received full page into local state, preserving our own
    /// uncommitted writes if any, and drop collected diffs the adoption
    /// already settled.
    ///
    /// The responder's copy can be *behind* us on some writers' axes (its
    /// `applied[v]` below ours): adopting it wholesale would regress those
    /// writers' words. Our own newer flushed intervals are replayed from
    /// `my_diffs`; on any other axis the page stays owed what it had
    /// applied, and the ongoing fault fetches it again (concurrent writers
    /// touch disjoint words in race-free programs).
    fn adopt_full_page(&mut self, states: &mut [PageFetchState], pid: PageId, pd: PageDiffs) {
        let (applied, image) = match pd {
            PageDiffs::Full { applied, data } => (applied, Spans::dense(data)),
            PageDiffs::Zero { applied } => (applied, Spans::zero(self.page_size)),
            PageDiffs::Diffs { .. } => unreachable!("diffs are collected, not adopted"),
        };
        let params = self.sub.params().clone();
        let mut cost =
            Ns::for_bytes(image.page_len(), params.host.memcpy_mb_s) + params.dsm.mprotect;
        let me = self.me;
        // Uncommitted writes are replayed on the new base (`Page::adopt`).
        if self.pages[pid].adopt(image) {
            cost += Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s);
        }
        let (was, lo) = (self.pages.applied(pid)[me as usize], applied[me as usize]);
        self.pages.adopt_applied(pid, &applied);
        // Repair our own axis from locally retained diffs (applied by
        // reference: my_diffs, data and twin are disjoint fields).
        if was > lo {
            let Page {
                my_diffs,
                data,
                twin,
                ..
            } = &mut self.pages[pid];
            for (seq, d) in my_diffs.iter() {
                if *seq > lo && *seq <= was {
                    d.apply_page(data);
                    if let Some(t) = twin.as_deref_mut() {
                        d.apply_held(t);
                    }
                    cost += params.dsm.diff_overhead;
                }
            }
            self.pages.applied_notice(pid, me, was);
        }
        let owes = self.pages.owes(pid);
        let page = &mut self.pages[pid];
        page.state = match (page.twin.is_some(), owes) {
            (true, false) => Access::Write,
            (true, true) => Access::WriteInvalid,
            (false, false) => Access::Read,
            (false, true) => Access::Invalid,
        };
        if let Some(st) = states.iter_mut().find(|s| s.pid == pid) {
            st.collected
                .retain(|(w, seq, _)| self.pages.owed_of(pid, *w).contains(seq));
        }
        self.clock().borrow_mut().advance(cost);
        self.clock().borrow_mut().stats.pages_fetched += 1;
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
        let faulted: Vec<PageId> = pids
            .iter()
            .copied()
            .filter(|&pid| self.take_fault(pid))
            .collect();
        if !faulted.is_empty() {
            self.fetch_diffs_batch(&faulted);
        }
    }

    /// Fetch and apply what a set of pages is owed.
    ///
    /// New notices can land mid-fetch (we service peers' requests while
    /// blocked), so each round re-derives, across *all* pages, what each
    /// writer is owed above its settled ceiling, then dispatches per
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
        loop {
            let mut need: Vec<WriterNeed> = Vec::new();
            for st in &states {
                for (writer, lo, hi) in self.pages.owing(st.pid) {
                    let lo = lo.max(covered_of(&st.covered, writer) + 1);
                    if lo <= hi {
                        owe(&mut need, writer, (st.pid, lo, hi));
                    }
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
                        let rid = self.rpc_issue(*writer as usize, diff_request(pages));
                        issued.push((rid, *writer));
                    }
                    for (rid, writer) in issued {
                        let resp = self.rpc_collect(rid);
                        self.handle_fetch_response(&mut states, writer, resp);
                    }
                }
            }
        }
        for st in states {
            self.apply_fetched_page(st);
        }
    }

    /// The lock pipeline's fetch arm: batch-fetch every mapped, invalid
    /// page in `pids` that is owed diffs through the overlapped engine,
    /// charging no page faults — the point is that the faults never
    /// happen.
    pub(super) fn pipeline_fetch(&mut self, pids: &[PageId]) {
        let mut targets: Vec<PageId> = Vec::new();
        for &pid in pids {
            if (pid as usize) < self.pages.len()
                && !targets.contains(&pid)
                && matches!(
                    self.pages[pid].state,
                    Access::Invalid | Access::WriteInvalid
                )
                && self.pages.owes(pid)
            {
                targets.push(pid);
            }
        }
        if !targets.is_empty() {
            self.fetch_diffs_batch(&targets);
        }
    }

    /// Fold one diff-fetch response into the per-page fetch states.
    fn handle_fetch_response(
        &mut self,
        states: &mut [PageFetchState],
        writer: u16,
        resp: Response,
    ) {
        resp.for_each_page(|page, pd| self.take_payload(states, page, writer, pd));
    }

    /// Fold one page's payload from `writer` into the fetch states: a
    /// writer's diffs are collected, a full page (the GC fallback, or a
    /// first touch) adopted.
    fn take_payload(
        &mut self,
        states: &mut [PageFetchState],
        pid: PageId,
        writer: u16,
        pd: PageDiffs,
    ) {
        match pd {
            PageDiffs::Diffs { covered_hi, diffs } => {
                let st = states
                    .iter_mut()
                    .find(|s| s.pid == pid)
                    .expect("diffs for a page we did not request");
                match st.covered.iter_mut().find(|(n, _)| *n == writer) {
                    Some((_, h)) => *h = (*h).max(covered_hi),
                    None => st.covered.push((writer, covered_hi)),
                }
                // Only what the page still owes the writer is used.
                let owed = self.pages.owed_of(pid, writer);
                st.collected.extend(
                    diffs
                        .into_iter()
                        .filter(|(seq, _)| owed.contains(seq))
                        .map(|(seq, d)| (writer, seq, d)),
                );
            }
            page => self.adopt_full_page(states, pid, page),
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
        self.log.causal_order(&mut collected);
        // Apply in order, to data and (if present) twin.
        let mut cost = Ns::ZERO;
        let applied_count = collected.len() as u64;
        for (writer, seq, d) in collected {
            self.pages[pid].apply(&d);
            cost += params.dsm.diff_overhead
                + Ns::for_bytes(d.payload_bytes(), params.host.memcpy_mb_s);
            self.pages.applied_notice(pid, writer, seq);
        }
        // Owed seqs under a settled ceiling that sent no diff never wrote
        // the page.
        for (writer, hi) in covered {
            self.pages.applied_notice(pid, writer, hi);
        }
        debug_assert!(
            !self.pages.owes(pid),
            "still owed: {:?}",
            self.pages.owing(pid).collect::<Vec<_>>()
        );
        let page = &mut self.pages[pid];
        page.state = if page.twin.is_some() {
            Access::Write
        } else {
            Access::Read
        };
        self.clock().borrow_mut().stats.diffs_applied += applied_count;
        cost += params.dsm.mprotect;
        self.clock().borrow_mut().advance(cost);
    }
}

#[cfg(test)]
#[path = "coherence_tests.rs"]
mod tests;
