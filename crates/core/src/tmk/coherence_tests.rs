//! Interval metadata on one hand-driven node over the in-memory substrate:
//! a record is one object however many pages it invalidates, a page keeps
//! only the range it is owed, and the log orders a fetched diff by its
//! interval's `Σvc` — after the barrier trimmed the record too, and for an
//! interval this node never learned of — and an adopted page keeps the
//! node's own newest writes.

use std::sync::Arc;

use tm_sim::clock::shared_clock;
use tm_sim::{Ns, SimParams};

use super::{FetchScratch, Held};
use crate::diff::Diff;
use crate::interval::IntervalRecord;
use crate::memsub::{mem_cluster, MemSubstrate};
use crate::page::Access;
use crate::protocol::{for_each_page, Response};
use crate::vc::VectorClock;
use crate::wire::WireWriter;
use crate::{Profile, Tmk, TmkConfig};

const NODES: usize = 3;
const PAGES: [u32; 4] = [1, 2, 4, 7];

/// Node 0 of a three-node cluster with eight shared pages.
fn node0() -> Tmk<MemSubstrate> {
    let params = Arc::new(SimParams::paper_testbed());
    let ep = mem_cluster(NODES).swap_remove(0);
    let sub = MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let mut t = Tmk::new(sub, TmkConfig::default());
    t.malloc(8 * params.dsm.page_size);
    t
}

fn vc(vals: [u32; NODES]) -> VectorClock {
    let mut v = VectorClock::new(NODES);
    for (i, x) in vals.into_iter().enumerate() {
        v.set(i, x);
    }
    v
}

#[test]
fn a_notice_is_an_owed_range_and_the_log_keeps_the_one_record() {
    let mut t = node0();
    let rec = IntervalRecord::new(1, 1, &vc([0, 1, 0]), &mut PAGES.to_vec(), Profile::Tuned);
    t.apply_records(std::slice::from_ref(&rec));
    for pid in PAGES {
        assert_eq!(
            t.pages.owing(pid).collect::<Vec<_>>(),
            [(1, 1, 1)],
            "page {pid}"
        );
    }
    // Ours and the log's: no page holds a handle.
    assert_eq!(rec.handles(), 2);
    // What the log hands a grant or a release is that object again.
    let none = VectorClock::new(NODES);
    let newer = t.log.newer_than(&none).next();
    assert!(IntervalRecord::same(newer.expect("the record"), &rec));
    // A second arrival of the same interval is dropped, not adopted.
    let again = IntervalRecord::new(1, 1, &vc([0, 1, 0]), &mut PAGES.to_vec(), Profile::Tuned);
    t.apply_records(std::slice::from_ref(&again));
    assert_eq!(again.handles(), 1);
    assert_eq!(rec.handles(), 2);
}

/// Writer 1's interval 1, then writer 2's interval 1 which saw it: both
/// wrote byte 0 of page 0. Their diffs are collected newest first and
/// applied; `learn` is what the node does with the two records first.
fn apply_out_of_order(learn: impl FnOnce(&mut Tmk<MemSubstrate>)) -> Tmk<MemSubstrate> {
    let mut t = node0();
    learn(&mut t);
    let size = t.page_size;
    let write = |byte: u8| {
        let mut cur = vec![0u8; size];
        cur[0] = byte;
        Diff::create(&vec![0u8; size], &cur)
    };
    t.pages.add_notice(0, 1, 1);
    t.pages.add_notice(0, 2, 1);
    assert_eq!(t.pages[0].state, Access::Invalid);
    // Each diff arrives in a frame of its own, as its image alone.
    let mut fetch = FetchScratch::default();
    fetch.pids.push(0);
    fetch.covered.resize(NODES, 0);
    for (writer, byte) in [(2, 2), (1, 1)] {
        let mut w = WireWriter::new();
        write(byte).encode(&mut w);
        let frame = fetch.frames.len() as u32;
        fetch.frames.push(w.finish());
        let held = Held {
            page: 0,
            frame,
            at: 0,
        };
        fetch.collected.push((writer, 1, held));
    }
    t.apply_fetched(&mut fetch);
    assert!(fetch.frames.is_empty() && fetch.collected.is_empty());
    t
}

fn first() -> IntervalRecord {
    IntervalRecord::new(1, 1, &vc([0, 1, 0]), &mut [0], Profile::Tuned)
}

fn second() -> IntervalRecord {
    IntervalRecord::new(2, 1, &vc([0, 1, 1]), &mut [0], Profile::Tuned)
}

#[test]
fn a_record_the_log_let_go_still_orders_its_diff() {
    let known = apply_out_of_order(|t| {
        t.apply_records(&[first(), second()]);
    });
    let trimmed = apply_out_of_order(|t| {
        t.apply_records(&[first(), second()]);
        t.epoch_gc(vc([0, 1, 1]));
        assert_eq!(t.log.total_records(), 0);
    });
    // Writer 1's interval came only as a full page's applied seq.
    let unknown = apply_out_of_order(|t| {
        t.apply_records(&[second()]);
    });
    for t in [&known, &trimmed, &unknown] {
        assert_eq!(
            t.pages[0].data.get(0, 1),
            Some(&[2][..]),
            "the causally later write lands last"
        );
        assert_eq!(t.pages.applied(0), [0, 1, 1]);
        assert!(!t.pages.owes(0));
        assert_eq!(t.pages[0].state, Access::Read);
    }
    let now = |t: &Tmk<MemSubstrate>| t.clock().borrow().now();
    assert_eq!(now(&known), now(&trimmed));
    assert_eq!(now(&known), now(&unknown));
}

/// A full page that lags our own axis is rebuilt from our flushed diffs
/// first and our open twin's writes last: word 0 was 1 in our flushed
/// interval 1 and is 2 in the open one, and a zero page that applied none
/// of our intervals must come out 2 (replayed the other way round, the
/// older flushed value overwrote the newer).
#[test]
fn an_adopted_page_keeps_the_newest_own_write() {
    let mut t = node0();
    let region = crate::SharedId(0);
    t.set_u32(region, 0, 1);
    t.flush_interval();
    assert_eq!(t.pages.applied(0), [1, 0, 0]);
    t.set_u32(region, 0, 2);
    assert_eq!(t.pages[0].state, Access::Write);
    let lagging = Response::ZeroPage {
        page: 0,
        applied: vec![0, 0, 0],
    }
    .encode(1);
    for_each_page(&lagging, |pid, pd| {
        t.adopt_full_page(&mut FetchScratch::default(), pid, pd)
    })
    .expect("a page answer");
    assert_eq!(t.pages.applied(0), [1, 0, 0]);
    assert_eq!(t.pages[0].state, Access::Write);
    assert_eq!(
        t.get_u32(region, 0),
        2,
        "the open interval's write is newest"
    );
    // The twin took the flushed value as its base: the interval's diff
    // still carries the open write.
    t.flush_interval();
    let (seq, d) = t.pages[0].my_diffs.last().expect("the second diff");
    assert_eq!(*seq, 2);
    assert_eq!(d.runs().collect::<Vec<_>>(), [(0, &2u32.to_le_bytes()[..])]);
}
