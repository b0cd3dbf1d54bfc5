//! Interval records and the per-node interval log.
//!
//! An *interval* is a stretch of one processor's execution between
//! synchronization operations. Its record carries the processor, the
//! interval sequence number (that processor's vector-clock component) and
//! the write notices: the pages written during the interval. Records
//! propagate lazily — on lock grants to the acquirer, on barriers through
//! the manager — and drive page invalidation at the receiver.
//!
//! A record is immutable and shared: it is built once — by the writer when
//! it closes the interval, by everyone else when a message naming it is
//! decoded — behind an [`Rc`], and the log, a barrier stash, a message being
//! assembled and every page the record invalidates hold that one object.

use std::rc::Rc;

use crate::page::PageId;
use crate::vc::VectorClock;
use crate::wire::{WireReader, WireWriter};

/// One interval's write notices, plus the vector time at the interval's
/// end — receivers use it to apply diffs for a page in causal order when
/// several writers touched the page between two of their synchronizations
/// (migratory data under locks).
#[derive(Debug, PartialEq, Eq)]
pub struct IntervalRecord {
    pub node: u16,
    pub seq: u32,
    pub vc: VectorClock,
    /// Strictly ascending, so the range encoding walks it in place.
    pages: Vec<PageId>,
}

impl IntervalRecord {
    /// The record of interval `seq` of `node`, closed at vector time `vc`,
    /// that wrote `pages` (any order, repeats allowed).
    pub fn new(node: u16, seq: u32, vc: VectorClock, mut pages: Vec<PageId>) -> Rc<Self> {
        if !pages.is_sorted_by(|a, b| a < b) {
            pages.sort_unstable();
            pages.dedup();
        }
        Rc::new(IntervalRecord {
            node,
            seq,
            vc,
            pages,
        })
    }

    /// A stand-in for interval `seq` of `node` that names no page: what a
    /// page queues for a diff it is owed without having been told of it (a
    /// full-page adoption that regressed an axis, a diff returned ahead of
    /// its notice). Its synthetic vector time — `seq` on the writer's own
    /// axis, nothing else — sorts it before anything that causally follows
    /// the real interval.
    pub fn repair(nprocs: usize, node: u16, seq: u32) -> Rc<Self> {
        let mut vc = VectorClock::new(nprocs);
        vc.set(node as usize, seq);
        Self::new(node, seq, vc, Vec::new())
    }

    /// The pages written, ascending.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Write notices are encoded as ranges over the sorted page list —
    /// applications write contiguous spans (grid bands, planes, queue
    /// slots), so a record listing a thousand pages usually costs eight
    /// bytes on the wire.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u16(self.node);
        w.u32(self.seq);
        self.vc.encode(w);
        let ranges = || self.pages.chunk_by(|a, b| a + 1 == *b);
        w.u32(ranges().count() as u32);
        for run in ranges() {
            w.u32(run[0]);
            w.u32(run.len() as u32);
        }
    }

    pub fn decode(r: &mut WireReader) -> Option<Rc<IntervalRecord>> {
        let node = r.u16()?;
        let seq = r.u32()?;
        let vc = VectorClock::decode(r)?;
        let nranges = r.u32()? as usize;
        // Sized before it is filled: one allocation however scattered.
        let body = r.raw_bytes(nranges.checked_mul(8)?)?;
        let ranges = || {
            let mut rd = WireReader::new(body);
            std::iter::from_fn(move || Some((rd.u32()?, rd.u32()?)))
        };
        let mut pages = Vec::with_capacity(ranges().map(|(_, len)| len as usize).sum());
        for (start, len) in ranges() {
            pages.extend(start..start.checked_add(len)?);
        }
        Some(Self::new(node, seq, vc, pages))
    }
}

/// Put `items` in an order in which nothing comes before an item whose
/// record's vector time it strictly dominates — the order a page applies
/// its fetched diffs in. One stable sort by [`VectorClock::sum`]: a strictly
/// dominated clock has the smaller sum, so the order extends happens-before,
/// and equal sums keep their input order. Concurrent writers touch disjoint
/// words in a race-free program, so which extension it is does not matter.
pub fn causal_order<T>(items: &mut [T], record: impl Fn(&T) -> &IntervalRecord) {
    items.sort_by_cached_key(|x| record(x).vc.sum());
}

/// Encode a batch of records (u32 count prefix).
pub fn encode_records(records: &[Rc<IntervalRecord>], w: &mut WireWriter) {
    w.u32(records.len() as u32);
    for rec in records {
        rec.encode(w);
    }
}

pub fn decode_records(r: &mut WireReader) -> Option<Vec<Rc<IntervalRecord>>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(IntervalRecord::decode(r)?);
    }
    Some(out)
}

/// A node's log of interval records — everything it knows about everyone,
/// kept so it can forward the right subset at the next grant or barrier.
#[derive(Debug, Default)]
pub struct IntervalLog {
    /// Per source node, records sorted by `seq`.
    by_node: Vec<Vec<Rc<IntervalRecord>>>,
}

impl IntervalLog {
    pub fn new(nprocs: usize) -> Self {
        IntervalLog {
            by_node: vec![Vec::new(); nprocs],
        }
    }

    /// Insert a record if not already present. Returns true if new.
    pub fn insert(&mut self, rec: Rc<IntervalRecord>) -> bool {
        let list = &mut self.by_node[rec.node as usize];
        match list.binary_search_by_key(&rec.seq, |r| r.seq) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, rec);
                true
            }
        }
    }

    /// All records strictly newer than `vc` — what a peer with vector time
    /// `vc` is missing. Handles to the log's own records: nothing is copied.
    pub fn newer_than(&self, vc: &VectorClock) -> Vec<Rc<IntervalRecord>> {
        let mut out = Vec::new();
        for (node, list) in self.by_node.iter().enumerate() {
            let floor = vc.get(node);
            let start = list.partition_point(|r| r.seq <= floor);
            out.extend(list[start..].iter().cloned());
        }
        out
    }

    /// Drop records at or below `vc` on every axis — safe once every node
    /// is known to have incorporated them (barrier-epoch GC).
    pub fn trim(&mut self, vc: &VectorClock) {
        for (node, list) in self.by_node.iter_mut().enumerate() {
            let floor = vc.get(node);
            list.retain(|r| r.seq > floor);
        }
    }

    /// Is `(node, seq)` already recorded?
    pub fn contains(&self, node: u16, seq: u32) -> bool {
        self.by_node[node as usize]
            .binary_search_by_key(&seq, |r| r.seq)
            .is_ok()
    }

    pub fn total_records(&self) -> usize {
        self.by_node.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(node: u16, seq: u32, pages: &[u32]) -> Rc<IntervalRecord> {
        let mut vc = VectorClock::new(4);
        vc.set(node as usize, seq);
        IntervalRecord::new(node, seq, vc, pages.to_vec())
    }

    #[test]
    fn wire_roundtrip() {
        let rs = vec![rec(0, 1, &[1, 2, 3]), rec(3, 9, &[])];
        let mut w = WireWriter::new();
        encode_records(&rs, &mut w);
        let buf = w.finish();
        assert_eq!(decode_records(&mut WireReader::new(&buf)), Some(rs));
    }

    #[test]
    fn insert_dedups() {
        let mut log = IntervalLog::new(2);
        assert!(log.insert(rec(0, 1, &[5])));
        assert!(!log.insert(rec(0, 1, &[5])));
        assert!(log.insert(rec(0, 2, &[6])));
        assert_eq!(log.total_records(), 2);
    }

    #[test]
    fn insert_keeps_sorted_out_of_order() {
        let mut log = IntervalLog::new(1);
        log.insert(rec(0, 3, &[]));
        log.insert(rec(0, 1, &[]));
        log.insert(rec(0, 2, &[]));
        let vc = VectorClock::new(1);
        let newer = log.newer_than(&vc);
        let seqs: Vec<u32> = newer.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn newer_than_filters_per_node() {
        let mut log = IntervalLog::new(2);
        log.insert(rec(0, 1, &[1]));
        log.insert(rec(0, 2, &[2]));
        log.insert(rec(1, 1, &[3]));
        let mut vc = VectorClock::new(2);
        vc.set(0, 1);
        let newer = log.newer_than(&vc);
        assert_eq!(newer.len(), 2);
        assert!(newer.iter().any(|r| r.node == 0 && r.seq == 2));
        assert!(newer.iter().any(|r| r.node == 1 && r.seq == 1));
    }

    #[test]
    fn contains_finds_records() {
        let mut log = IntervalLog::new(2);
        log.insert(rec(1, 5, &[3]));
        assert!(log.contains(1, 5));
        assert!(!log.contains(1, 4));
        assert!(!log.contains(0, 5));
    }

    #[test]
    fn page_ranges_compress_contiguous_spans() {
        // A record naming 1000 contiguous pages encodes as one range.
        let pages: Vec<u32> = (100..1100).collect();
        let r = rec(0, 1, &pages);
        let mut w = WireWriter::new();
        r.encode(&mut w);
        let buf = w.finish();
        assert!(buf.len() < 64, "RLE should compress: {} bytes", buf.len());
        let back = IntervalRecord::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back.pages, pages);
    }

    #[test]
    fn page_ranges_handle_scattered_pages() {
        let pages = vec![5u32, 1, 9, 3, 7];
        let r = rec(0, 1, &pages);
        let mut w = WireWriter::new();
        r.encode(&mut w);
        let buf = w.finish();
        let back = IntervalRecord::decode(&mut WireReader::new(&buf)).unwrap();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        assert_eq!(back.pages, sorted);
    }

    #[test]
    fn a_record_is_its_ascending_page_set() {
        // Whatever order and repeats it was built from: `encode` walks the
        // list in place, so the list itself has to be the set.
        let r = rec(0, 1, &[5, 1, 2, 9, 5, 3, 1]);
        assert_eq!(r.pages(), [1, 2, 3, 5, 9]);
        let mut w = WireWriter::new();
        r.encode(&mut w);
        let buf = w.finish();
        let mut rd = WireReader::new(&buf);
        assert_eq!((rd.u16(), rd.u32()), (Some(0), Some(1)));
        assert_eq!(VectorClock::decode(&mut rd).as_ref(), Some(&r.vc));
        let mut words = Vec::new();
        while let Some(x) = rd.u32() {
            words.push(x);
        }
        assert_eq!(
            words,
            [3, 1, 3, 5, 1, 9, 1],
            "count, then (start, len) per range"
        );
        // Ranges that overlap or arrive out of order decode to the set too.
        let mut w = WireWriter::new();
        w.u16(0).u32(1);
        r.vc.encode(&mut w);
        w.u32(2).u32(4).u32(3).u32(2).u32(4);
        let back = IntervalRecord::decode(&mut WireReader::new(&w.finish())).unwrap();
        assert_eq!(back.pages(), [2, 3, 4, 5, 6]);
    }

    /// Strictly below in the happens-before order.
    fn before(a: &IntervalRecord, b: &IntervalRecord) -> bool {
        a.vc.dominated_by(&b.vc) && a.vc != b.vc
    }

    proptest! {
        /// Over random clocks, repair stand-ins among them: nothing comes
        /// before a record it strictly dominates, and equal sums keep their
        /// input order.
        #[test]
        fn causal_order_extends_happens_before(
            shapes in proptest::collection::vec(
                (proptest::collection::vec(0u32..4, 4), 0u16..4, any::<bool>()),
                // Up to 20 items an unstable sort sorts by insertion, which
                // is stable too: go past that.
                1..48,
            )
        ) {
            let mut items: Vec<(usize, Rc<IntervalRecord>)> = shapes
                .into_iter()
                .map(|(axes, node, repair)| {
                    let seq = axes[node as usize];
                    if repair {
                        IntervalRecord::repair(4, node, seq)
                    } else {
                        let mut vc = VectorClock::new(4);
                        axes.iter().enumerate().for_each(|(p, &x)| vc.set(p, x));
                        IntervalRecord::new(node, seq, vc, Vec::new())
                    }
                })
                .enumerate()
                .collect();
            causal_order(&mut items, |(_, r)| r);
            for (i, (at, a)) in items.iter().enumerate() {
                for (later, b) in &items[i + 1..] {
                    prop_assert!(!before(b, a), "{b:?} follows {a:?}");
                    if a.vc.sum() == b.vc.sum() {
                        prop_assert!(at < later, "equal sums reordered");
                    }
                }
            }
        }
    }

    /// `sync64_fast`'s fault: 63 writers, concurrent since the last barrier,
    /// each changed one word of the page — applied in the order collected,
    /// all of them. A lock chain on one word, collected backwards, is
    /// applied forwards: the last holder's value stays.
    #[test]
    fn causal_order_of_concurrent_one_word_writers_and_a_lock_chain() {
        use crate::diff::Diff;
        const N: usize = 64;
        let barrier = VectorClock::new(N);
        let words = |edit: &dyn Fn(&mut [u8])| {
            let mut page = vec![0u8; 4096];
            edit(&mut page);
            Diff::create(&[0u8; 4096], &page)
        };
        let mut concurrent: Vec<(Rc<IntervalRecord>, Diff)> = (1..N as u16)
            .map(|w| {
                let mut vc = barrier.clone();
                vc.tick(w as usize);
                let d = words(&|p| p[w as usize * 4] = w as u8);
                (IntervalRecord::new(w, 1, vc, vec![0]), d)
            })
            .collect();
        causal_order(&mut concurrent, |(r, _)| r);
        let order: Vec<u16> = concurrent.iter().map(|(r, _)| r.node).collect();
        assert_eq!(order, (1..N as u16).collect::<Vec<_>>());
        let mut page = vec![0u8; 4096];
        concurrent.iter().for_each(|(_, d)| d.apply(&mut page));
        assert!((1..N).all(|w| page[w * 4] == w as u8));

        let mut vc = barrier;
        let mut chain: Vec<(Rc<IntervalRecord>, Diff)> = (1..N as u16)
            .map(|w| {
                vc.tick(w as usize);
                let d = words(&|p| p[0] = w as u8);
                (IntervalRecord::new(w, 1, vc.clone(), vec![0]), d)
            })
            .collect();
        chain.reverse();
        causal_order(&mut chain, |(r, _)| r);
        let mut page = vec![0u8; 4096];
        chain.iter().for_each(|(_, d)| d.apply(&mut page));
        assert_eq!(page[0], N as u8 - 1);
    }

    #[test]
    fn trim_garbage_collects() {
        let mut log = IntervalLog::new(2);
        log.insert(rec(0, 1, &[]));
        log.insert(rec(0, 2, &[]));
        log.insert(rec(1, 5, &[]));
        let mut vc = VectorClock::new(2);
        vc.set(0, 1);
        vc.set(1, 5);
        log.trim(&vc);
        assert_eq!(log.total_records(), 1);
        let rest = log.newer_than(&VectorClock::new(2));
        assert_eq!(rest[0].seq, 2);
    }
}
