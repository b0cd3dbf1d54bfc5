//! Per-page state: the access state machine, twins, pending write notices,
//! retained diffs.

use std::rc::Rc;

use crate::diff::Diff;
use crate::interval::IntervalRecord;

/// Global page number within the shared address space.
pub type PageId = u32;

/// The mprotect-equivalent access state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// No local copy has ever been valid: first access fetches the whole
    /// page from its manager.
    Unmapped,
    /// Local copy exists but write notices are pending: access faults and
    /// fetches diffs.
    Invalid,
    /// Clean, readable copy.
    Read,
    /// Twin exists; writes are in progress this interval.
    Write,
    /// Twin exists *and* notices arrived (concurrent writers / false
    /// sharing): access fetches diffs, applying them to page and twin.
    WriteInvalid,
}

/// A pending (not yet applied) write notice for this page: a handle to the
/// writing interval's record, the same object every other page that interval
/// wrote holds, whose vector time orders the diffs causally at apply time. A
/// notice a page queues for itself is an [`IntervalRecord::repair`].
pub type Pending = Rc<IntervalRecord>;

/// One shared page's local bookkeeping.
#[derive(Debug)]
pub struct Page {
    pub state: Access,
    /// Local copy; empty until first validated.
    pub data: Vec<u8>,
    /// Copy taken at first write of the current interval.
    pub twin: Option<Vec<u8>>,
    /// Manager (owner of the authoritative initial copy): the allocating
    /// node.
    pub manager: u16,
    /// Highest interval seq per writer whose diff is incorporated locally.
    pub applied: Vec<u32>,
    /// Write notices awaiting diff fetch, sorted by (node, seq).
    pub pending: Vec<Pending>,
    /// Diffs this node created for this page: (seq, diff), newest last.
    pub my_diffs: Vec<(u32, Diff)>,
    /// The current interval overwrote the whole page without fetching its
    /// old content: the flush must emit a full-page diff so readers that
    /// causally order our diff last see every word we wrote.
    pub force_full_diff: bool,
}

impl Page {
    pub fn new(nprocs: usize, manager: u16) -> Self {
        Page {
            state: Access::Unmapped,
            data: Vec::new(),
            twin: None,
            manager,
            applied: vec![0; nprocs],
            pending: Vec::new(),
            my_diffs: Vec::new(),
            force_full_diff: false,
        }
    }

    /// A freshly allocated page on its manager: valid and zeroed.
    pub fn new_resident(nprocs: usize, manager: u16, page_size: usize) -> Self {
        let mut p = Self::new(nprocs, manager);
        p.data = vec![0; page_size];
        p.state = Access::Read;
        p
    }

    pub fn has_copy(&self) -> bool {
        !self.data.is_empty()
    }

    /// Record an incoming write notice. Ignores notices already applied or
    /// already pending. Transitions the access state.
    pub fn add_notice(&mut self, rec: &Pending) {
        if self.applied[rec.node as usize] >= rec.seq {
            return;
        }
        let key = (rec.node, rec.seq);
        let Err(at) = self.pending.binary_search_by_key(&key, |p| (p.node, p.seq)) else {
            return;
        };
        self.pending.insert(at, Rc::clone(rec));
        self.state = match self.state {
            Access::Unmapped => Access::Unmapped,
            Access::Write | Access::WriteInvalid => Access::WriteInvalid,
            _ => Access::Invalid,
        };
    }

    /// Mark a pending notice applied.
    pub fn applied_notice(&mut self, node: u16, seq: u32) {
        self.applied[node as usize] = self.applied[node as usize].max(seq);
        self.pending.retain(|p| !(p.node == node && p.seq <= seq));
    }

    /// Retain only the most recent `keep` diffs (barrier-epoch GC). Older
    /// requests are served with a full page instead.
    pub fn trim_diffs(&mut self, keep: usize) {
        if self.my_diffs.len() > keep {
            let cut = self.my_diffs.len() - keep;
            self.my_diffs.drain(..cut);
        }
    }

    /// Diffs with `lo <= seq <= hi`, borrowed (no per-diff clone), or
    /// `None` if any in that range was already garbage collected.
    /// `my_diffs` is sorted by seq (appended monotonically), so the answer
    /// is a contiguous slice.
    pub fn diffs_range(&self, lo: u32, hi: u32) -> Option<&[(u32, Diff)]> {
        if self.my_diffs.is_empty() {
            return if lo > hi { Some(&[]) } else { None };
        }
        if self.my_diffs[0].0 > lo {
            return None;
        }
        let a = self.my_diffs.partition_point(|(s, _)| *s < lo);
        let b = self.my_diffs.partition_point(|(s, _)| *s <= hi).max(a);
        Some(&self.my_diffs[a..b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notice(p: &mut Page, node: u16, seq: u32) {
        p.add_notice(&IntervalRecord::repair(4, node, seq));
    }

    #[test]
    fn fresh_pages() {
        let p = Page::new(4, 2);
        assert_eq!(p.state, Access::Unmapped);
        assert!(!p.has_copy());
        let r = Page::new_resident(4, 2, 4096);
        assert_eq!(r.state, Access::Read);
        assert_eq!(r.data.len(), 4096);
    }

    #[test]
    fn notice_transitions() {
        let mut p = Page::new_resident(2, 0, 64);
        notice(&mut p, 1, 1);
        assert_eq!(p.state, Access::Invalid);
        assert_eq!(p.pending.len(), 1);
        // Dirty page + notice = WriteInvalid (false-sharing case).
        let mut q = Page::new_resident(2, 0, 64);
        q.twin = Some(q.data.clone());
        q.state = Access::Write;
        notice(&mut q, 1, 1);
        assert_eq!(q.state, Access::WriteInvalid);
    }

    #[test]
    fn duplicate_and_stale_notices_ignored() {
        let mut p = Page::new_resident(2, 0, 64);
        p.applied[1] = 5;
        notice(&mut p, 1, 4); // stale
        assert!(p.pending.is_empty());
        assert_eq!(p.state, Access::Read);
        notice(&mut p, 1, 6);
        notice(&mut p, 1, 6); // duplicate
        assert_eq!(p.pending.len(), 1);
    }

    #[test]
    fn applied_notice_clears_pending() {
        let mut p = Page::new_resident(2, 0, 64);
        notice(&mut p, 1, 1);
        notice(&mut p, 1, 2);
        p.applied_notice(1, 2);
        assert!(p.pending.is_empty());
        assert_eq!(p.applied[1], 2);
    }

    #[test]
    fn diff_retention_and_gc() {
        let mut p = Page::new_resident(2, 0, 8);
        for seq in 1..=5 {
            p.my_diffs.push((seq, Diff::empty()));
        }
        assert!(p.diffs_range(2, 4).is_some_and(|v| v.len() == 3));
        p.trim_diffs(2); // keeps seq 4, 5
        assert!(p.diffs_range(2, 4).is_none(), "gc'd range must signal None");
        assert!(p.diffs_range(4, 5).is_some_and(|v| v.len() == 2));
        assert!(p.diffs_range(5, 4).is_some_and(|v| v.is_empty()));
    }
}
