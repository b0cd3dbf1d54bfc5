//! Interval-metadata ownership, on one hand-driven node over the in-memory
//! substrate: a record is one object however many pages wait on it, it
//! lives exactly as long as something still holds it, and a notice a page
//! queued for itself orders like the real one.

use std::rc::Rc;
use std::sync::Arc;

use tm_sim::clock::shared_clock;
use tm_sim::{Ns, SimParams};

use super::PageFetchState;
use crate::diff::Diff;
use crate::interval::IntervalRecord;
use crate::memsub::{mem_cluster, MemSubstrate};
use crate::page::Access;
use crate::vc::VectorClock;
use crate::{Tmk, TmkConfig};

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
fn every_page_a_record_names_holds_the_same_object() {
    let mut t = node0();
    let rec = IntervalRecord::new(1, 1, vc([0, 1, 0]), PAGES.to_vec());
    t.apply_records(vec![Rc::clone(&rec)]);
    for pid in PAGES {
        let pending = &t.pages[pid as usize].pending;
        assert_eq!(pending.len(), 1, "page {pid}");
        assert!(Rc::ptr_eq(&pending[0], &rec), "page {pid} holds a copy");
    }
    // Ours, the log's, and one per page: nobody made another.
    assert_eq!(Rc::strong_count(&rec), 2 + PAGES.len());
    // What the log hands a grant or a release is that object again.
    assert!(Rc::ptr_eq(
        &t.log.newer_than(&VectorClock::new(NODES))[0],
        &rec
    ));
    // A second arrival of the same interval is dropped, not adopted.
    let again = IntervalRecord::new(1, 1, vc([0, 1, 0]), PAGES.to_vec());
    t.apply_records(vec![Rc::clone(&again)]);
    assert_eq!(Rc::strong_count(&again), 1);
    assert_eq!(Rc::strong_count(&rec), 2 + PAGES.len());
}

#[test]
fn a_record_outlives_the_log_exactly_as_long_as_a_page_waits_on_it() {
    let mut t = node0();
    let rec = IntervalRecord::new(1, 1, vc([0, 1, 0]), PAGES.to_vec());
    t.apply_records(vec![Rc::clone(&rec)]);
    let watch = Rc::downgrade(&rec);
    drop(rec);
    assert_eq!(watch.strong_count(), 1 + PAGES.len());
    // The barrier epoch passes the interval: the log lets go, the pages
    // that have not fetched its diff do not.
    t.epoch_gc(vc([0, 1, 0]));
    assert_eq!(t.log.total_records(), 0);
    for (applied, pid) in PAGES.into_iter().enumerate() {
        assert_eq!(watch.strong_count(), PAGES.len() - applied);
        t.pages[pid as usize].applied_notice(1, 1);
    }
    assert!(watch.upgrade().is_none(), "freed with the last notice");
}

/// Writer 1's interval 1, then writer 2's interval 1 which saw it: both
/// wrote byte 0 of page 0. Collected newest first, with writer 1's notice
/// either the real record or the page's own repair stand-in.
fn apply_out_of_order(first: Rc<IntervalRecord>) -> Tmk<MemSubstrate> {
    let mut t = node0();
    let second = IntervalRecord::new(2, 1, vc([0, 1, 1]), vec![0]);
    let size = t.page_size;
    let write = |byte: u8| {
        let mut cur = vec![0u8; size];
        cur[0] = byte;
        Diff::create(&vec![0u8; size], &cur)
    };
    let page = &mut t.pages[0];
    page.add_notice(&first);
    page.add_notice(&second);
    assert_eq!(page.state, Access::Invalid);
    t.apply_fetched_page(PageFetchState {
        pid: 0,
        collected: vec![(second, write(2)), (first, write(1))],
        covered: Vec::new(),
    });
    t
}

#[test]
fn a_repair_notice_sorts_where_the_real_one_would() {
    let real = apply_out_of_order(IntervalRecord::new(1, 1, vc([0, 1, 0]), vec![0]));
    let repair = apply_out_of_order(IntervalRecord::repair(NODES, 1, 1));
    for t in [&real, &repair] {
        let page = &t.pages[0];
        assert_eq!(
            page.data.get(0, 1),
            Some(&[2][..]),
            "the causally later write lands last"
        );
        assert_eq!(page.applied, [0, 1, 1]);
        assert!(page.pending.is_empty());
        assert_eq!(page.state, Access::Read);
    }
    assert_eq!(real.clock().borrow().now(), repair.clock().borrow().now());
}
