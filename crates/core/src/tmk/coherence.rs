//! Lazy release consistency proper: the coherence layer.
//!
//! Owns the page table and its fault transitions (twin on first write,
//! invalidate on write notice), interval records and their propagation,
//! diff creation/fetch/application in causal order, what a `Diff` or
//! `Page` request is answered with and what answering costs (the bytes
//! are `protocol`'s business), and the post-barrier epoch GC. The layer
//! above (sync) calls in to flush and apply intervals at synchronization
//! points; this layer calls down into rpc to move pages and diffs.

use std::ops::RangeInclusive;

use tm_sim::Ns;

use super::{DiffFetch, Profile, Tmk};
use crate::diff::{apply_page, apply_to, DiffImage};
use crate::interval::IntervalRecord;
use crate::page::{Access, HeldBytes, Page, PageId, Spans};
use crate::protocol::{
    begin_multi_diffs, chunk_diffs, encode_multi_diff, for_each_page, multi_diff_len, PageDiffs,
    PageRanges, PageRef, Request, Seqs,
};
use crate::substrate::Substrate;
use crate::vc::{ClockImage, VectorClock};
use crate::wire::{pool, WireWriter};

/// Where a collected diff's image lies: which of the fetch's pages it is
/// for, which kept frame carried it, and where in that frame it starts.
#[derive(Debug, Clone, Copy)]
struct Held {
    page: u32,
    frame: u32,
    at: u32,
}

/// One fault's fetch state, owned by the node and reused: flat lists a
/// fetch clears and never drops, so a warm fetch allocates none of them. A
/// fetch never starts inside another (handlers serve from the page table
/// and issue no rpc).
#[derive(Debug, Default)]
pub(super) struct FetchScratch {
    /// The pages being fetched: the caller fills it.
    pids: Vec<PageId>,
    /// `covered[page index · n + writer]`: every diff of the writer up to
    /// this ceiling is collected, and an owed seq at or below it that
    /// produced no diff never wrote the page (0: nothing settled yet).
    covered: Vec<u32>,
    /// `(writer, seq, image)` of each diff gathered so far, applied in
    /// causal order once nothing is owed.
    collected: Vec<(u16, u32, Held)>,
    /// The response frames the collected images lie in, kept until they
    /// are applied.
    frames: Vec<Vec<u8>>,
    /// One round's owed `(writer, page, lo, hi)`, in page order.
    need: Vec<(u16, PageId, u32, u32)>,
    /// One round's writers, in first-owed order: the order their requests
    /// go out in.
    writers: Vec<u16>,
    /// `in_round[writer]`: the writer is in `writers`.
    in_round: Vec<bool>,
    /// The rid of each writer's request, under coalesced fetch.
    issued: Vec<u32>,
    /// `whole[page index]`: this round asks the granter for the page whole
    /// (empty when it asks nobody).
    whole: Vec<bool>,
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
        let mut dirty = std::mem::take(&mut self.dirty);
        for &pid in &dirty {
            let d = self.pages.take_diff(pid);
            cost += Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s)
                + params.dsm.diff_overhead
                + params.dsm.mprotect;
            let page = &mut self.pages[pid];
            page.retain_diff(seq, d);
            page.state = match page.state {
                Access::WriteInvalid => Access::Invalid,
                _ => Access::Read,
            };
            self.pages.applied_notice(pid, self.me, seq);
            self.clock().borrow_mut().stats.diffs_created += 1;
        }
        // The interval's one record, encoded once, on this node, in the
        // profile's image.
        let rec = IntervalRecord::new(self.me, seq, &self.vc, &mut dirty, self.cfg.profile);
        self.log.insert(rec);
        dirty.clear();
        self.dirty = dirty;
        cost
    }

    /// Incorporate interval records learned from a grant or release:
    /// insert into the log and invalidate the pages a peer's new record
    /// names. The log keeps the handle that came in and decides what is
    /// new — barrier arrivals from different clients often relay the same
    /// record; a page only raises what it owes.
    pub(super) fn apply_records(&mut self, records: &[IntervalRecord]) -> Ns {
        let mprotect = self.sub.params().dsm.mprotect;
        let mut cost = Ns::ZERO;
        for rec in records {
            if !self.log.insert(rec.clone()) || rec.node() == self.me {
                continue;
            }
            let (node, seq) = (rec.node(), rec.seq());
            for (first, len) in rec.ranges() {
                self.ensure_pages(first as usize + len as usize);
                for pid in (0..len).map(|i| first + i) {
                    let before = self.pages[pid].state;
                    self.pages.add_notice(pid, node, seq);
                    if self.pages[pid].state != before {
                        cost += mprotect;
                    }
                }
            }
        }
        cost
    }

    /// Post-barrier GC: everyone has incorporated everything up to `vc`.
    /// The previous barrier's clock goes back to the spares.
    pub(super) fn epoch_gc(&mut self, vc: VectorClock) {
        let done = std::mem::replace(&mut self.last_barrier_vc, vc);
        self.clocks.push(done);
        self.log.trim(&self.last_barrier_vc);
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
    /// memory on first touch) travel as a compact marker. Under
    /// [`Profile::Tuned`] the copy travels as its diff against the zero
    /// page, so a page a few words wide costs the copy of those words:
    /// charged by the encoder, which finds them.
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
        if self.cfg.profile == Profile::Tuned {
            return (PageRef::Image { applied, data }, scan);
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
        let copied = answer.encode_response(rid, pid, w);
        cost + self.copy_cost(copied)
    }

    /// Answer a `Page` request into `w`; returns the cost.
    pub(super) fn encode_full_page(&self, rid: u32, pid: PageId, w: &mut WireWriter) -> Ns {
        let (answer, cost) = self.full_page_answer(pid);
        let copied = answer.encode_response(rid, pid, w);
        cost + self.copy_cost(copied)
    }

    /// What copying `bytes` of a page into a frame costs.
    fn copy_cost(&self, bytes: usize) -> Ns {
        Ns::for_bytes(bytes, self.sub.params().host.memcpy_mb_s)
    }

    /// Answer a coalesced `MultiDiff` request into `w`; returns the cost.
    /// Pages that do not fit the substrate's message budget are omitted
    /// entirely — the requester's round loop re-requests what is still
    /// owed.
    pub(super) fn encode_multi_diff_response(
        &self,
        rid: u32,
        pages: PageRanges,
        w: &mut WireWriter,
    ) -> Ns {
        let max = self.sub.params().dsm.max_msg;
        let count = begin_multi_diffs(rid, w);
        let mut included = 0u16;
        let mut cost = Ns::ZERO;
        for (pid, lo, hi) in pages.iter() {
            if included > 0 && w.len() >= max {
                break;
            }
            let (answer, c) = self.diffs_answer(pid, lo, hi, max.saturating_sub(w.len()));
            let copied = answer.encode_entry(pid, w);
            cost += c + self.copy_cost(copied);
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
            self.fetch.pids.push(pid);
            self.fetch_diffs_batch(None);
        }
    }

    /// Charge `pid`'s access fault, if it has one — fetching the whole page
    /// first when it was never mapped — and say whether it did. What the
    /// page is owed is left to the caller's diff fetch.
    ///
    /// Under [`Profile::Tuned`] a never-mapped page is not fetched: it is
    /// the zero page it already holds, applied nothing, and the caller's
    /// fetch lays every notified writer's diffs over it — which is the
    /// writers' value, since every word of a page starts zero — or, when
    /// no notice names it, maps it with one mprotect and sends nothing.
    fn take_fault(&mut self, pid: PageId) -> bool {
        let state = self.pages[pid].state;
        if matches!(state, Access::Read | Access::Write) {
            return false;
        }
        let fault = self.sub.params().dsm.page_fault;
        self.clock().borrow_mut().advance(fault);
        self.clock().borrow_mut().stats.page_faults += 1;
        if state == Access::Unmapped && self.cfg.profile == Profile::Spec {
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
            page.state = Access::Write;
            self.pages.start_twin(pid);
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
            self.pages.start_twin(pid);
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

    /// First touch of a page under [`Profile::Spec`]: fetch the whole page
    /// from its manager.
    fn fetch_page(&mut self, pid: PageId) {
        let manager = self.page_manager(pid);
        assert_ne!(manager, self.me, "manager pages are resident");
        let frame = self.rpc(manager as usize, Request::Page { page: pid });
        for_each_page(&frame, |page, pd| {
            assert_eq!(page, pid);
            self.adopt_full_page(&mut FetchScratch::default(), pid, pd);
        })
        .expect("a page fetch is answered with the page");
        pool::give(frame);
    }

    /// Merge a received full page into local state, preserving our own
    /// uncommitted writes if any, and drop collected diffs the adoption
    /// already settled.
    ///
    /// The responder's copy can be *behind* us on some writers' axes (its
    /// `applied[v]` below ours): adopting it wholesale would regress those
    /// writers' words. Our own newer flushed intervals are replayed from
    /// `my_diffs` onto the image, and then the uncommitted writes of an
    /// open twin (`Page::adopt`), newest last; on any other axis the page
    /// stays owed what it had applied, and the ongoing fault fetches it
    /// again (concurrent writers touch disjoint words in race-free
    /// programs). A replay that needs an own diff `trim_diffs` dropped
    /// cannot rebuild the page and panics: nothing here knows what a peer
    /// applied, so a writer cannot tell when a diff is safe to drop.
    fn adopt_full_page(&mut self, fetch: &mut FetchScratch, pid: PageId, pd: PageDiffs) {
        let params = self.sub.params().clone();
        let (applied, mut image, copied) = match pd {
            PageDiffs::Full { applied, data } => {
                (applied, Spans::dense(data.to_vec()), self.page_size)
            }
            PageDiffs::Zero { applied } => (applied, Spans::zero(self.page_size), self.page_size),
            PageDiffs::Image { applied, diff } => {
                let mut image = Spans::zero(self.page_size);
                apply_page(&diff, &mut image);
                (applied, image, diff.payload_bytes())
            }
            PageDiffs::Diffs { .. } => unreachable!("diffs are collected, not adopted"),
        };
        let mut cost = Ns::for_bytes(copied, params.host.memcpy_mb_s) + params.dsm.mprotect;
        let me = self.me;
        let was = self.pages.applied(pid)[me as usize];
        let lo = applied.iter().nth(me as usize).expect("a seq per writer");
        if was > lo {
            let page = &self.pages[pid];
            assert!(
                lo >= page.trimmed,
                "node {me}: page {pid} replays its own diffs {}..={was} onto an image, \
                 but trim_diffs dropped {}..={}",
                lo + 1,
                lo + 1,
                page.trimmed
            );
            for (_, d) in page
                .my_diffs
                .iter()
                .filter(|(seq, _)| (lo + 1..=was).contains(seq))
            {
                apply_page(d, &mut image);
                cost += params.dsm.diff_overhead;
            }
        }
        if self.pages[pid].adopt(image) {
            cost += Ns::for_bytes(self.page_size, params.dsm.diff_scan_mb_s);
        }
        self.pages.adopt_applied(pid, applied.iter());
        if was > lo {
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
        if let Some(page) = fetch.pids.iter().position(|&p| p == pid) {
            fetch.collected.retain(|&(w, seq, held)| {
                held.page != page as u32 || self.pages.owed_of(pid, w).contains(&seq)
            });
        }
        self.clock().borrow_mut().advance(cost);
        self.clock().borrow_mut().stats.pages_fetched += 1;
    }

    /// Whether a whole page asked of a granter, having applied `applied`,
    /// may replace `pid`'s copy: it is behind the copy on no axis but ours
    /// — a granter inside its own fetch serves a copy behind its clock —
    /// and replaying ours onto it needs no diff `trim_diffs` dropped.
    fn image_fits(&self, pid: PageId, applied: Seqs) -> bool {
        let me = self.me as usize;
        let trimmed = self.pages[pid].trimmed;
        let mut ours = applied.iter().zip(self.pages.applied(pid)).enumerate();
        ours.all(|(w, (a, &m))| if w == me { a >= trimmed } else { a >= m })
    }

    /// Fault in a span of pages at once. Each page is charged its fault
    /// and (if unmapped) fetched from its manager exactly as the per-page
    /// path would, but the pending-diff fetches for the whole span share
    /// one overlapped round: requests to distinct writers are in flight
    /// simultaneously, and multi-page requests to one writer coalesce.
    /// Under [`DiffFetch::Serial`] this degenerates to the per-page loop,
    /// message for message.
    pub(super) fn ensure_readable_batch(&mut self, pids: RangeInclusive<PageId>) {
        if self.cfg.diff_fetch == DiffFetch::Serial {
            for pid in pids {
                self.ensure_readable(pid);
            }
            return;
        }
        for pid in pids {
            if self.take_fault(pid) {
                self.fetch.pids.push(pid);
            }
        }
        if !self.fetch.pids.is_empty() {
            self.fetch_diffs_batch(None);
        }
    }

    /// Fetch and apply what a set of pages is owed.
    ///
    /// New notices can land mid-fetch (we service peers' requests while
    /// blocked), so each round re-derives, across *all* pages, what each
    /// writer is owed above its settled ceiling, then dispatches per
    /// [`DiffFetch`]: serially (one blocking RPC per writer per page, the
    /// spec baseline), or coalesced (at most one request per writer per
    /// round, all issued before any is collected). The node's
    /// [`FetchScratch`] holds the rounds' state, its `pids` the pages.
    /// A fetch a lock grant set off names its granter and the grant's
    /// clock, and its first round may ask the granter for pages whole
    /// ([`Self::ask_whole`]).
    fn fetch_diffs_batch(&mut self, mut grant: Option<(u16, ClockImage)>) {
        let mut fetch = std::mem::take(&mut self.fetch);
        let n = self.n;
        fetch.covered.resize(fetch.pids.len() * n, 0);
        fetch.in_round.resize(n, false);
        loop {
            fetch.need.clear();
            for &writer in &fetch.writers {
                fetch.in_round[writer as usize] = false;
            }
            fetch.writers.clear();
            for (page, &pid) in fetch.pids.iter().enumerate() {
                for (writer, lo, hi) in self.pages.owing(pid) {
                    let lo = lo.max(fetch.covered[page * n + writer as usize] + 1);
                    if lo <= hi {
                        if !std::mem::replace(&mut fetch.in_round[writer as usize], true) {
                            fetch.writers.push(writer);
                        }
                        fetch.need.push((writer, pid, lo, hi));
                    }
                }
            }
            if fetch.need.is_empty() {
                break;
            }
            if let Some((granter, vc)) = grant.take() {
                self.ask_whole(&mut fetch, granter, vc);
            }
            match self.cfg.diff_fetch {
                DiffFetch::Serial => {
                    for i in 0..fetch.writers.len() {
                        for j in 0..fetch.need.len() {
                            let (writer, page, lo, hi) = fetch.need[j];
                            if writer == fetch.writers[i] {
                                let frame =
                                    self.rpc(writer as usize, Request::Diff { page, lo, hi });
                                self.take_response(&mut fetch, writer, frame);
                            }
                        }
                    }
                }
                DiffFetch::Coalesced => {
                    fetch.issued.clear();
                    for &writer in &fetch.writers {
                        let rid = self.issue_diff_request(writer, &fetch.need);
                        fetch.issued.push(rid);
                    }
                    for i in 0..fetch.writers.len() {
                        let (rid, writer) = (fetch.issued[i], fetch.writers[i]);
                        let (_, frame) = self.rpc_collect(rid);
                        self.take_response(&mut fetch, writer, frame);
                    }
                }
            }
            fetch.whole.clear();
        }
        self.apply_fetched(&mut fetch);
        self.fetch = fetch;
    }

    /// Rewrite a fetch's first round, which `granter`'s grant at clock
    /// `vc` set off, to ask the granter for pages whole instead of asking
    /// each of their writers: a range from seq 0, which no writer has a
    /// diff of, so the granter answers with its page and the seqs it
    /// applied. A page qualifies when it owes the granter and the grant's
    /// clock covers every seq it owes and, on every axis but ours, every
    /// seq it applied. The round is rewritten only if that takes at least
    /// two requests out of it: a whole page costs its granter a scan that
    /// a retained diff does not, so one request saved is about even.
    fn ask_whole(&self, fetch: &mut FetchScratch, granter: u16, vc: ClockImage) {
        let FetchScratch {
            pids,
            need,
            writers,
            in_round,
            whole,
            ..
        } = fetch;
        whole.extend(pids.iter().map(|&pid| {
            !self.pages.owed_of(pid, granter).is_empty()
                && self.pages.within(pid, vc.iter(), self.me)
        }));
        let index = |pid: PageId| pids.iter().position(|&p| p == pid).expect("a fetched page");
        // A writer keeps its request if it is owed on a page asked of it.
        for &w in writers.iter() {
            in_round[w as usize] = false;
        }
        for &(w, pid, ..) in need.iter() {
            if w == granter || !whole[index(pid)] {
                in_round[w as usize] = true;
            }
        }
        if writers.iter().filter(|&&w| !in_round[w as usize]).count() < 2 {
            for &w in writers.iter() {
                in_round[w as usize] = true;
            }
            whole.clear();
            return;
        }
        writers.retain(|&w| in_round[w as usize]);
        need.retain_mut(|(w, pid, lo, _)| {
            if !whole[index(*pid)] {
                return true;
            }
            *lo = 0;
            *w == granter
        });
    }

    /// Send `writer` a request for what it owes in `need`: one page alone,
    /// or several coalesced, in the order they came — encoded straight
    /// from the list.
    fn issue_diff_request(&mut self, writer: u16, need: &[(u16, PageId, u32, u32)]) -> u32 {
        let owed = || {
            need.iter()
                .filter(move |&&(w, ..)| w == writer)
                .map(|&(_, page, lo, hi)| (page, lo, hi))
        };
        match owed().count() {
            1 => {
                let (page, lo, hi) = owed().next().expect("the one page owed");
                self.rpc_issue(writer as usize, Request::Diff { page, lo, hi })
            }
            n => {
                let rid = self.rid();
                let mut w = WireWriter::pooled(multi_diff_len(n));
                encode_multi_diff(rid, owed(), &mut w);
                self.rpc_send(writer as usize, rid, w);
                rid
            }
        }
    }

    /// The lock pipeline's fetch arm: batch-fetch every mapped, invalid
    /// page a peer's record in `records` names that is owed diffs, through
    /// the overlapped engine, charging no page faults — the point is that
    /// the faults never happen.
    pub(super) fn pipeline_fetch(
        &mut self,
        records: &[IntervalRecord],
        granter: u16,
        vc: ClockImage,
    ) {
        let me = self.me;
        let named = records.iter().filter(|r| r.node() != me);
        for pid in named.flat_map(IntervalRecord::pages) {
            if (pid as usize) < self.pages.len()
                && !self.fetch.pids.contains(&pid)
                && matches!(
                    self.pages[pid].state,
                    Access::Invalid | Access::WriteInvalid
                )
                && self.pages.owes(pid)
            {
                self.fetch.pids.push(pid);
            }
        }
        if !self.fetch.pids.is_empty() {
            self.fetch_diffs_batch(Some((granter, vc)));
        }
    }

    /// Fold the response `frame` from `writer` into the fetch, and keep
    /// the frame if any of its diffs were collected.
    fn take_response(&mut self, fetch: &mut FetchScratch, writer: u16, frame: Vec<u8>) {
        let index = fetch.frames.len() as u32;
        for_each_page(&frame, |pid, pd| {
            self.take_payload(fetch, (&frame, index), pid, writer, pd)
        })
        .expect("a diff fetch is answered with pages");
        // This frame's diffs were collected last, and an adoption's cut
        // keeps the order of what it leaves.
        if fetch
            .collected
            .last()
            .is_some_and(|(_, _, held)| held.frame == index)
        {
            fetch.frames.push(frame);
        } else {
            pool::give(frame);
        }
    }

    /// Fold one page's payload from `writer`, carried in `frame` (and its
    /// index among the fetch's kept frames), into the fetch: a writer's
    /// diffs are collected where they lie, a full page (the GC fallback, or
    /// a first touch) adopted — one asked of a granter whole only if it
    /// [fits](Self::image_fits); otherwise it is dropped, and the next
    /// round asks the page's writers.
    fn take_payload(
        &mut self,
        fetch: &mut FetchScratch,
        (frame, index): (&[u8], u32),
        pid: PageId,
        writer: u16,
        pd: PageDiffs,
    ) {
        let page = fetch
            .pids
            .iter()
            .position(|&p| p == pid)
            .expect("an answer for a page we did not request");
        let PageDiffs::Diffs { covered_hi, diffs } = pd else {
            let applied = pd.applied().expect("a whole page");
            if fetch.whole.get(page) == Some(&true) && !self.image_fits(pid, applied) {
                return;
            }
            return self.adopt_full_page(fetch, pid, pd);
        };
        let settled = &mut fetch.covered[page * self.n + writer as usize];
        *settled = (*settled).max(covered_hi);
        let page = page as u32;
        // Only what the page still owes the writer is used.
        let owed = self.pages.owed_of(pid, writer);
        for (seq, image) in diffs.iter().filter(|(seq, _)| owed.contains(seq)) {
            let at = image.as_bytes().as_ptr().addr() - frame.as_ptr().addr();
            let held = Held {
                page,
                frame: index,
                at: at as u32,
            };
            fetch.collected.push((writer, seq, held));
        }
    }

    /// Apply each fetched page's collected diffs in causal order, straight
    /// from the frames that carried them, and finish its fault (mprotect,
    /// state transition); then give the frames back and clear the fetch.
    fn apply_fetched(&mut self, fetch: &mut FetchScratch) {
        let params = self.sub.params().clone();
        // Grouped by page, each page's in the order they came.
        fetch.collected.sort_by_key(|&(_, _, held)| held.page);
        let mut rest = &mut fetch.collected[..];
        for (page, &pid) in fetch.pids.iter().enumerate() {
            let n = rest.partition_point(|&(_, _, held)| held.page == page as u32);
            let (mine, tail) = rest.split_at_mut(n);
            rest = tail;
            self.log.causal_order(mine);
            let mut cost = Ns::ZERO;
            for &(writer, seq, held) in &*mine {
                let frame = &fetch.frames[held.frame as usize];
                let d = DiffImage::reread(&frame[held.at as usize..]);
                let Page { data, twin, .. } = &mut self.pages[pid];
                apply_to(&d, data, twin.as_deref_mut());
                cost += params.dsm.diff_overhead
                    + Ns::for_bytes(d.payload_bytes(), params.host.memcpy_mb_s);
                self.pages.applied_notice(pid, writer, seq);
            }
            // Owed seqs under a settled ceiling that sent no diff never
            // wrote the page.
            let settled = &fetch.covered[page * self.n..(page + 1) * self.n];
            for (writer, &hi) in settled.iter().enumerate().filter(|&(_, &hi)| hi > 0) {
                self.pages.applied_notice(pid, writer as u16, hi);
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
            self.clock().borrow_mut().stats.diffs_applied += mine.len() as u64;
            cost += params.dsm.mprotect;
            self.clock().borrow_mut().advance(cost);
        }
        fetch.frames.drain(..).for_each(pool::give);
        fetch.pids.clear();
        fetch.covered.clear();
        fetch.collected.clear();
    }
}

#[cfg(test)]
#[path = "coherence_tests.rs"]
mod tests;
