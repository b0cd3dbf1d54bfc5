//! Interval records and the per-node interval log.
//!
//! An *interval* is a stretch of one processor's execution between
//! synchronization operations. Its record carries the processor, the
//! interval sequence number (that processor's vector-clock component) and
//! the write notices: the pages written during the interval. Records
//! propagate lazily — on lock grants to the acquirer, on barriers through
//! the manager — and drive page invalidation at the receiver.
//!
//! A record is immutable and shared, and it is its wire image: it is built
//! once — by the writer when it closes the interval, by everyone else when
//! a message first brings it — as one reference-counted allocation, and the
//! log, a barrier stash and a message being assembled hold that one object;
//! a relay copies its bytes. A message that brings a record the log already
//! holds decodes to the log's handle: only a record new to the node is
//! allocated. A page it invalidates keeps no handle: it raises what it owes
//! the writer. What a fault needs of the record later — the order to apply
//! its diff in — is its `Σvc`, which the log keeps per interval after the
//! record itself is trimmed.
//!
//! So a receiver reads nothing of the interval's vector time but its sum,
//! and a record has two images, one per [`Profile`]: the specification's
//! carries the whole clock, as TreadMarks's vector timestamp does, and the
//! tuned profile's only `Σvc`, with its runs in varints too — at 64 nodes a
//! one-page record is 13 bytes instead of 84. Both decode everywhere, told
//! apart by the clock-length field; a relay forwards whichever it got.

use std::fmt;
use std::rc::Rc;

use crate::page::PageId;
use crate::tmk::Profile;
use crate::vc::VectorClock;
use crate::wire::{varint_len, WireReader, WireWriter};

/// Bytes of a record's allocation ahead of its image: its `Σvc` (u64) and
/// where in the image its run list starts (u32).
const HEAD: usize = 12;

/// The clock-length field of a tuned image: no clock follows, but its sum.
/// A spec image's clock is shorter (a node id is a u16, so no cluster needs
/// this many entries).
const SUM_ONLY: u16 = u16::MAX;

/// One interval's write notices, plus the vector time at the interval's
/// end — receivers order diffs for a page by its `Σ` when several writers
/// touched the page between two of their synchronizations (migratory data
/// under locks).
///
/// Held as the image a message carries it in, `[node u16][seq u32]` and
/// then, under [`Profile::Spec`], the clock ([`VectorClock::encode`]),
/// `[count u32]` and one `(first page, len)` pair of u32s per maximal run
/// of written pages, ascending; under [`Profile::Tuned`], `0xffff` in the
/// clock-length field, `Σvc` as a LEB128 varint, then the count and every
/// `first` and `len` as varints. Applications write contiguous spans (grid
/// bands, planes, queue slots), so a record listing a thousand pages
/// usually costs one run. The image and what is read off it once — `Σvc`
/// and where the runs start — are one allocation; a clone is a handle to
/// it.
#[derive(Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    bytes: Rc<[u8]>,
}

impl fmt::Debug for IntervalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntervalRecord")
            .field("node", &self.node())
            .field("seq", &self.seq())
            .field("sum", &self.sum())
            .field("ranges", &self.ranges().collect::<Vec<_>>())
            .finish()
    }
}

/// What a record's image carries of its interval's vector time.
#[derive(Debug, Clone, Copy)]
enum Stamp<'a> {
    /// The clock: the spec image.
    Clock(&'a VectorClock),
    /// Its sum alone: the tuned image.
    Sum(u64),
}

impl IntervalRecord {
    /// The record of interval `seq` of `node`, closed at vector time `vc`,
    /// that wrote `pages` (any order, repeats allowed; sorted in place), in
    /// `profile`'s image.
    pub fn new(
        node: u16,
        seq: u32,
        vc: &VectorClock,
        pages: &mut [PageId],
        profile: Profile,
    ) -> IntervalRecord {
        let stamp = match profile {
            Profile::Spec => Stamp::Clock(vc),
            Profile::Tuned => Stamp::Sum(vc.sum()),
        };
        Self::build(node, seq, stamp, pages)
    }

    fn build(node: u16, seq: u32, stamp: Stamp, pages: &mut [PageId]) -> IntervalRecord {
        pages.sort_unstable();
        // A run is pages that follow one another, repeats included.
        let runs = || {
            pages
                .chunk_by(|a, b| *b <= a + 1)
                .map(|run| (run[0], run[run.len() - 1] - run[0] + 1))
        };
        let count = runs().count() as u32;
        let (sum, runs_at, runs_len) = match stamp {
            Stamp::Clock(vc) => {
                assert!(vc.len() < SUM_ONLY as usize, "a {}-node clock", vc.len());
                (vc.sum(), 6 + vc.encoded_len(), 4 + 8 * count as usize)
            }
            Stamp::Sum(sum) => {
                let pairs: usize = runs()
                    .map(|(first, len)| varint_len(first.into()) + varint_len(len.into()))
                    .sum();
                (sum, 8 + varint_len(sum), varint_len(count.into()) + pairs)
            }
        };
        let mut w = WireWriter::pooled(HEAD + runs_at + runs_len);
        w.u64(sum).u32(runs_at as u32);
        w.u16(node).u32(seq);
        match stamp {
            Stamp::Clock(vc) => {
                vc.encode(&mut w);
                w.u32(count);
                runs().for_each(|(first, len)| {
                    w.u32(first).u32(len);
                });
            }
            Stamp::Sum(sum) => {
                w.u16(SUM_ONLY).u64v(sum).u32v(count);
                runs().for_each(|(first, len)| {
                    w.u32v(first).u32v(len);
                });
            }
        }
        debug_assert_eq!(w.len(), HEAD + runs_at + runs_len);
        let bytes = Rc::from(w.as_slice());
        w.recycle();
        IntervalRecord { bytes }
    }

    /// The record's wire image.
    fn image(&self) -> &[u8] {
        &self.bytes[HEAD..]
    }

    /// The node whose interval this is.
    pub fn node(&self) -> u16 {
        u16::from_le_bytes([self.bytes[HEAD], self.bytes[HEAD + 1]])
    }

    /// The interval's seq: its node's vector-clock component.
    pub fn seq(&self) -> u32 {
        let at = HEAD + 2;
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("a 4-byte seq"))
    }

    /// [`VectorClock::sum`] of the interval's vector time.
    pub fn sum(&self) -> u64 {
        u64::from_le_bytes(self.bytes[..8].try_into().expect("an 8-byte sum"))
    }

    /// Whether `a` and `b` are handles to one record.
    #[cfg(test)]
    pub(crate) fn same(a: &IntervalRecord, b: &IntervalRecord) -> bool {
        Rc::ptr_eq(&a.bytes, &b.bytes)
    }

    /// Handles to the record.
    #[cfg(test)]
    pub(crate) fn handles(&self) -> usize {
        Rc::strong_count(&self.bytes)
    }

    /// Bytes the record's wire image takes.
    pub(crate) fn wire_len(&self) -> usize {
        self.image().len()
    }

    /// Whether the image carries `Σvc` alone (the tuned image).
    fn sum_only(&self) -> bool {
        self.bytes[HEAD + 6..HEAD + 8] == SUM_ONLY.to_le_bytes()
    }

    /// The maximal runs of pages written, ascending, as `(first, len)`.
    pub fn ranges(&self) -> impl Iterator<Item = (PageId, u32)> + '_ {
        let runs_at = u32::from_le_bytes(self.bytes[8..12].try_into().expect("a 4-byte offset"));
        let word = if self.sum_only() {
            WireReader::u32v
        } else {
            WireReader::u32
        };
        let mut r = WireReader::new(&self.image()[runs_at as usize..]);
        // Past the run count.
        word(&mut r);
        std::iter::from_fn(move || Some((word(&mut r)?, word(&mut r)?)))
    }

    /// The pages written, ascending.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.ranges()
            .flat_map(|(first, len)| (0..len).map(move |i| first + i))
    }

    pub fn encode(&self, w: &mut WireWriter) {
        w.raw(self.image());
    }

    /// The `Σvc`, where the runs start and the bytes of the image at the
    /// start of `r`: exactly the images [`Self::new`] builds under either
    /// profile, the clock or the sum canonical, every run non-empty and
    /// starting past the page after the previous one ends. Anything else is
    /// `None` — a relay forwards these bytes.
    fn scan<'a>(r: &mut WireReader<'a>) -> Option<(u64, usize, &'a [u8])> {
        let start = r.peek_rest();
        r.u16()?;
        r.u32()?;
        let clock = r.u16()?;
        let (sum, word): (u64, fn(&mut WireReader<'a>) -> Option<u32>) = if clock == SUM_ONLY {
            (r.u64v()?, WireReader::u32v)
        } else {
            let mut sum = 0;
            for _ in 0..clock {
                sum += u64::from(r.u32v()?);
            }
            (sum, WireReader::u32)
        };
        let runs_at = start.len() - r.remaining();
        // The least page the next run may start at.
        let mut next = 0u64;
        for _ in 0..word(r)? {
            let (first, len) = (u64::from(word(r)?), u64::from(word(r)?));
            if len == 0 || first < next || first + len > 1 << 32 {
                return None;
            }
            next = first + len + 1;
        }
        Some((sum, runs_at, &start[..start.len() - r.remaining()]))
    }

    /// The record whose image starts `r` (`scan`): the one `log`
    /// holds when it has `(node, seq)` with these bytes, else a new one.
    pub fn decode(r: &mut WireReader, log: &IntervalLog) -> Option<IntervalRecord> {
        let (sum, runs_at, image) = Self::scan(r)?;
        let node = u16::from_le_bytes([image[0], image[1]]);
        let seq = u32::from_le_bytes(image[2..6].try_into().expect("a 4-byte seq"));
        if let Some(known) = log.get(node, seq).filter(|k| k.image() == image) {
            return Some(known.clone());
        }
        let mut w = WireWriter::pooled(HEAD + image.len());
        w.u64(sum).u32(runs_at as u32).raw(image);
        let bytes = Rc::from(w.as_slice());
        w.recycle();
        Some(IntervalRecord { bytes })
    }
}

/// Encode a batch of records (u32 count prefix).
pub fn encode_records<'r>(
    records: impl Iterator<Item = &'r IntervalRecord> + Clone,
    w: &mut WireWriter,
) {
    w.u32(records.clone().count() as u32);
    for rec in records {
        rec.encode(w);
    }
}

/// Bytes [`encode_records`] writes for `records`.
pub(crate) fn records_len<'r>(records: impl Iterator<Item = &'r IntervalRecord>) -> usize {
    4 + records.map(IntervalRecord::wire_len).sum::<usize>()
}

/// A batch of records as it arrived, `[count u32][image…]`: checked once,
/// by `Records::decode`, which builds nothing, and borrowed from the frame
/// until the receiver decodes each record against its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Records<'a> {
    bytes: &'a [u8],
}

impl<'a> Records<'a> {
    /// Accept a batch of images each of which `IntervalRecord::scan`
    /// accepts, and nothing else.
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Option<Records<'a>> {
        let start = r.peek_rest();
        for _ in 0..r.u32()? {
            IntervalRecord::scan(r)?;
        }
        Some(Records {
            bytes: &start[..start.len() - r.remaining()],
        })
    }

    /// The batch as it arrived.
    pub(crate) fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Each record, decoded against `log` ([`IntervalRecord::decode`]);
    /// exactly sized, so collecting the batch allocates its list once.
    pub fn iter_in<'l>(&self, log: &'l IntervalLog) -> impl Iterator<Item = IntervalRecord> + 'l
    where
        'a: 'l,
    {
        let count = u32::from_le_bytes(self.bytes[..4].try_into().expect("a 4-byte count"));
        let mut r = WireReader::new(&self.bytes[4..]);
        (0..count).map(move |_| IntervalRecord::decode(&mut r, log).expect("a checked batch"))
    }
}

/// A node's log of interval records — everything it knows about everyone,
/// kept so it can forward the right subset at the next grant or barrier —
/// and the `Σvc` of every interval it ever learned, which orders fetched
/// diffs.
#[derive(Debug, Default)]
pub struct IntervalLog {
    /// Per source node, records sorted by `seq`.
    by_node: Vec<Vec<IntervalRecord>>,
    /// Per source node, each interval's [`VectorClock::sum`], indexed by
    /// seq (0 where none is known). Never trimmed: a page can owe a diff
    /// long after the barrier trimmed its record.
    sums: Vec<Vec<u64>>,
}

impl IntervalLog {
    pub fn new(nprocs: usize) -> Self {
        IntervalLog {
            by_node: vec![Vec::new(); nprocs],
            sums: vec![Vec::new(); nprocs],
        }
    }

    /// Insert a record if not already present. Returns true if new.
    pub fn insert(&mut self, rec: IntervalRecord) -> bool {
        let (node, seq) = (rec.node() as usize, rec.seq() as usize);
        let list = &mut self.by_node[node];
        match list.binary_search_by_key(&rec.seq(), IntervalRecord::seq) {
            Ok(_) => false,
            Err(pos) => {
                let sums = &mut self.sums[node];
                if sums.len() <= seq {
                    sums.resize(seq + 1, 0);
                }
                sums[seq] = rec.sum();
                list.insert(pos, rec);
                true
            }
        }
    }

    /// Put `items` — `(writer, seq, _)`, one per interval — in an order in
    /// which nothing comes before an item whose interval's vector time it
    /// strictly dominates: the order a page applies its fetched diffs in.
    /// One stable sort by `Σvc`: a strictly dominated clock has the smaller
    /// sum, so the order extends happens-before, and equal sums keep their
    /// input order. Concurrent writers touch disjoint words in a race-free
    /// program, so which extension it is does not matter. An interval this
    /// node never learned of (a full page it adopted had applied it) sorts
    /// by its seq, as a clock with nothing but `seq` on its writer's axis
    /// would: before anything that causally follows it.
    pub(crate) fn causal_order<T>(&self, items: &mut [(u16, u32, T)]) {
        items.sort_by_key(|&(w, seq, _)| self.sum_of(w, seq));
    }

    fn sum_of(&self, node: u16, seq: u32) -> u64 {
        match self.sums[node as usize].get(seq as usize) {
            Some(&sum) if sum > 0 => sum,
            _ => u64::from(seq),
        }
    }

    /// All records strictly newer than `vc` — what a peer with vector time
    /// `vc` is missing — by node, each node's by seq: the log's own
    /// records, borrowed.
    pub fn newer_than<'a>(
        &'a self,
        vc: &'a VectorClock,
    ) -> impl Iterator<Item = &'a IntervalRecord> + Clone + 'a {
        self.by_node
            .iter()
            .enumerate()
            .flat_map(move |(node, list)| {
                let floor = vc.get(node);
                list[list.partition_point(|r| r.seq() <= floor)..].iter()
            })
    }

    /// Drop records at or below `vc` on every axis — safe once every node
    /// is known to have incorporated them (barrier-epoch GC).
    pub fn trim(&mut self, vc: &VectorClock) {
        for (node, list) in self.by_node.iter_mut().enumerate() {
            let floor = vc.get(node);
            list.retain(|r| r.seq() > floor);
        }
    }

    /// Is `(node, seq)` already recorded?
    pub fn contains(&self, node: u16, seq: u32) -> bool {
        self.by_node[node as usize]
            .binary_search_by_key(&seq, IntervalRecord::seq)
            .is_ok()
    }

    /// The record of `(node, seq)`, if the log holds it (`None` for a node
    /// past the cluster, as a malformed frame may name).
    fn get(&self, node: u16, seq: u32) -> Option<&IntervalRecord> {
        let list = self.by_node.get(node as usize)?;
        let at = list.binary_search_by_key(&seq, IntervalRecord::seq).ok()?;
        Some(&list[at])
    }

    pub fn total_records(&self) -> usize {
        self.by_node.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use proptest::prelude::*;

    const BOTH: [Profile; 2] = [Profile::Spec, Profile::Tuned];

    /// Interval `seq` of `node` in a 4-node cluster, its clock `seq` on the
    /// node's axis and nothing else, in the spec image.
    fn rec(node: u16, seq: u32, pages: &[u32]) -> IntervalRecord {
        rec_in(Profile::Spec, node, seq, pages)
    }

    /// [`rec`] in `profile`'s image.
    fn rec_in(profile: Profile, node: u16, seq: u32, pages: &[u32]) -> IntervalRecord {
        let mut vc = VectorClock::new(4);
        vc.set(node as usize, seq);
        IntervalRecord::new(node, seq, &vc, &mut pages.to_vec(), profile)
    }

    #[test]
    fn wire_roundtrip() {
        let rs = vec![
            rec(0, 1, &[1, 2, 3]),
            rec(3, 9, &[]),
            rec_in(Profile::Tuned, 1, 200, &[4, 5, 300]),
            rec_in(Profile::Tuned, 2, 0, &[]),
        ];
        let mut w = WireWriter::new();
        encode_records(rs.iter(), &mut w);
        let buf = w.finish();
        let none = IntervalLog::default();
        let mut r = WireReader::new(&buf);
        let batch = Records::decode(&mut r).expect("a valid batch");
        assert_eq!(r.remaining(), 0);
        assert_eq!(batch.iter_in(&none).collect::<Vec<_>>(), rs);
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
        let seqs: Vec<u32> = log.newer_than(&vc).map(IntervalRecord::seq).collect();
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
        let newer: Vec<_> = log.newer_than(&vc).map(|r| (r.node(), r.seq())).collect();
        assert_eq!(newer, [(0, 2), (1, 1)]);
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
        let back =
            IntervalRecord::decode(&mut WireReader::new(&buf), &IntervalLog::default()).unwrap();
        assert_eq!(back.pages().collect::<Vec<_>>(), pages);
    }

    #[test]
    fn page_ranges_handle_scattered_pages() {
        let pages = vec![5u32, 1, 9, 3, 7];
        let r = rec(0, 1, &pages);
        let mut w = WireWriter::new();
        r.encode(&mut w);
        let buf = w.finish();
        let back =
            IntervalRecord::decode(&mut WireReader::new(&buf), &IntervalLog::default()).unwrap();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        assert_eq!(back.pages().collect::<Vec<_>>(), sorted);
    }

    /// A record of interval 1 of node 0 with clock `vc`, in `profile`'s
    /// image, whose runs are the `(first, len)` pairs.
    fn image(profile: Profile, vc: &VectorClock, runs: &[(u32, u32)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u16(0).u32(1);
        match profile {
            Profile::Spec => {
                vc.encode(&mut w);
                w.u32(runs.len() as u32);
                for &(first, len) in runs {
                    w.u32(first).u32(len);
                }
            }
            Profile::Tuned => {
                w.u16(SUM_ONLY).u64v(vc.sum()).u32v(runs.len() as u32);
                for &(first, len) in runs {
                    w.u32v(first).u32v(len);
                }
            }
        }
        w.finish()
    }

    #[test]
    fn a_record_is_its_ascending_page_set() {
        let mut vc = VectorClock::new(4);
        vc.set(0, 1);
        for profile in BOTH {
            // Whatever order and repeats it was built from, a record holds
            // the maximal runs of the set, ascending.
            let r = rec_in(profile, 0, 1, &[5, 1, 2, 9, 5, 3, 1]);
            assert_eq!(r.pages().collect::<Vec<_>>(), [1, 2, 3, 5, 9]);
            assert_eq!(r.ranges().collect::<Vec<_>>(), [(1, 3), (5, 1), (9, 1)]);
            assert_eq!(r.sum(), 1);
            let mut w = WireWriter::new();
            r.encode(&mut w);
            let runs = [(1, 3), (5, 1), (9, 1)];
            assert_eq!(w.finish(), image(profile, &vc, &runs), "{profile:?}");
            // A relay forwards the bytes it was given, so only that image
            // decodes: runs that are empty, overlap, touch, arrive out of
            // order or run past the last page are `None`.
            for runs in [
                &[(2, 3), (4, 2)][..],
                &[(1, 3), (4, 1)],
                &[(5, 1), (1, 3)],
                &[(1, 0)],
                &[(u32::MAX, 2)],
            ] {
                let buf = image(profile, &vc, runs);
                assert_eq!(
                    IntervalRecord::decode(&mut WireReader::new(&buf), &IntervalLog::default()),
                    None,
                    "{profile:?} {runs:?}"
                );
            }
            let last = image(profile, &vc, &[(0, 1), (u32::MAX, 1)]);
            let back = IntervalRecord::decode(&mut WireReader::new(&last), &IntervalLog::default());
            let back = back.unwrap();
            assert_eq!(back.pages().collect::<Vec<_>>(), [0, u32::MAX]);
        }
    }

    /// The spec image is TreadMarks's record, whose bytes the E-tables
    /// price: pinned here byte for byte, beside the tuned image of the same
    /// interval.
    #[test]
    fn both_images_are_pinned_byte_for_byte() {
        let hex = |r: &IntervalRecord| {
            let mut w = WireWriter::new();
            r.encode(&mut w);
            w.finish()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>()
        };
        let mut vc = VectorClock::new(4);
        [3, 200, 0, 1]
            .into_iter()
            .enumerate()
            .for_each(|(p, x)| vc.set(p, x));
        let pages = || vec![9, 1, 2, 3, 1000];
        let spec = IntervalRecord::new(1, 200, &vc, &mut pages(), Profile::Spec);
        assert_eq!(
            hex(&spec),
            // node 1, seq 200, 4 entries 3 200 0 1, 3 runs (1, 3) (9, 1) (1000, 1)
            concat!(
                "0100",
                "c8000000",
                "0400",
                "03c8010001",
                "03000000",
                "01000000",
                "03000000",
                "09000000",
                "01000000",
                "e8030000",
                "01000000",
            )
        );
        let tuned = IntervalRecord::new(1, 200, &vc, &mut pages(), Profile::Tuned);
        assert_eq!(
            hex(&tuned),
            // node 1, seq 200, the marker, Σ 204, 3 runs in varints
            concat!("0100", "c8000000", "ffff", "cc01", "03", "0103", "0901", "e80701")
        );
        assert_eq!((spec.sum(), tuned.sum()), (204, 204));
        assert_eq!(spec.wire_len(), 41);
        assert_eq!(tuned.wire_len(), 18);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5000))]

        /// Over arbitrary bytes and over one-byte overwrites, truncations
        /// and insertions of valid images: decoding never panics, what
        /// decodes re-encodes to the bytes it consumed, and — where its
        /// pages are few enough to list — it is the record
        /// [`IntervalRecord::new`] builds from its clock and pages. A log
        /// holding the valid records changes which object comes back, never
        /// what it is.
        #[test]
        fn decode_is_total_and_canonical(
            junk in proptest::collection::vec(any::<u8>(), 0..64),
            which in 0usize..6,
            kind in 0u8..3,
            at: usize,
            byte: u8,
        ) {
            let valid = [
                rec(0, 1, &[1, 2, 3, 9, 11, 12]),
                rec(3, 300, &(0..1000).collect::<Vec<_>>()),
                rec(2, 0, &[]),
                rec_in(Profile::Tuned, 0, 1, &[1, 2, 3, 9, 11, 12, 1 << 20]),
                rec_in(Profile::Tuned, 3, 300, &(0..1000).collect::<Vec<_>>()),
                rec_in(Profile::Tuned, 1, 0, &[]),
            ];
            let mut known = IntervalLog::new(4);
            valid.iter().for_each(|r| { known.insert(r.clone()); });
            let mut w = WireWriter::new();
            valid[which].encode(&mut w);
            for buf in [junk, crate::wire::mutated(&w.finish(), kind, at, byte)] {
                let mut r = WireReader::new(&buf);
                let Some(rec) = IntervalRecord::decode(&mut r, &IntervalLog::default()) else {
                    prop_assert!(IntervalRecord::decode(&mut WireReader::new(&buf), &known).is_none());
                    continue;
                };
                let mut again = WireReader::new(&buf);
                let from_log = IntervalRecord::decode(&mut again, &known).expect("the same bytes");
                prop_assert_eq!(&from_log, &rec);
                prop_assert_eq!(again.remaining(), r.remaining());
                let mut w = WireWriter::new();
                rec.encode(&mut w);
                prop_assert_eq!(&w.finish()[..], &buf[..buf.len() - r.remaining()]);
                if rec.ranges().map(|(_, len)| u64::from(len)).sum::<u64>() <= 1 << 16 {
                    let mut pages: Vec<_> = rec.pages().collect();
                    let (node, seq) = (rec.node(), rec.seq());
                    if rec.sum_only() {
                        let built = IntervalRecord::build(node, seq, Stamp::Sum(rec.sum()), &mut pages);
                        prop_assert_eq!(&rec, &built);
                    } else {
                        let clock = VectorClock::decode(&mut WireReader::new(&buf[6..])).unwrap();
                        prop_assert_eq!(&rec, &IntervalRecord::new(node, seq, &clock, &mut pages, Profile::Spec));
                        prop_assert_eq!(rec.sum(), clock.sum());
                    }
                }
            }
        }
    }

    /// A relayed record the log already holds, byte for byte, decodes to
    /// the log's own object; one that shares its `(node, seq)` but not its
    /// bytes, or that the log does not hold, is a new one.
    #[test]
    fn a_known_record_decodes_to_the_logs_handle() {
        let mut log = IntervalLog::new(4);
        let held = rec(1, 4, &[3, 4, 9]);
        log.insert(held.clone());
        let wire = |r: &IntervalRecord| {
            let mut w = WireWriter::new();
            r.encode(&mut w);
            w.finish()
        };
        let decode = |buf: &[u8]| IntervalRecord::decode(&mut WireReader::new(buf), &log).unwrap();
        let same = decode(&wire(&rec(1, 4, &[3, 4, 9])));
        assert!(IntervalRecord::same(&same, &held));
        assert_eq!(held.handles(), 3, "ours, the log's and the decoded one");
        let other = decode(&wire(&rec(1, 4, &[3, 4])));
        assert!(!IntervalRecord::same(&other, &held));
        assert_eq!(other.pages().collect::<Vec<_>>(), [3, 4]);
        let new = decode(&wire(&rec(2, 4, &[3, 4, 9])));
        assert!(!IntervalRecord::same(&new, &held));
        assert_eq!((new.node(), new.seq()), (2, 4));
    }

    /// Strictly below in the happens-before order.
    fn before(a: &VectorClock, b: &VectorClock) -> bool {
        a.dominated_by(b) && a != b
    }

    proptest! {
        /// Over random clocks, some of them intervals the log never learned
        /// of (whose clock is taken to be `seq` on the writer's axis and
        /// nothing else): nothing comes before an item it strictly
        /// dominates, and equal sums keep their input order. A log of the
        /// tuned images of the same intervals gives the same order.
        #[test]
        fn causal_order_extends_happens_before(
            shapes in proptest::collection::vec(
                (proptest::collection::vec(0u32..4, 4), 0u16..4, any::<bool>()),
                // Up to 20 items an unstable sort sorts by insertion, which
                // is stable too: go past that.
                1..48,
            )
        ) {
            let (mut log, mut tuned) = (IntervalLog::new(4), IntervalLog::new(4));
            // An interval's clock is the one it first appeared with.
            let mut clocks: HashMap<(u16, u32), VectorClock> = HashMap::new();
            let mut items: Vec<(u16, u32, usize)> = Vec::new();
            for (at, (axes, node, known)) in shapes.into_iter().enumerate() {
                let seq = axes[node as usize];
                clocks.entry((node, seq)).or_insert_with(|| {
                    let mut vc = VectorClock::new(4);
                    if known {
                        axes.iter().enumerate().for_each(|(p, &x)| vc.set(p, x));
                        log.insert(IntervalRecord::new(node, seq, &vc, &mut [], Profile::Spec));
                        tuned.insert(IntervalRecord::new(node, seq, &vc, &mut [], Profile::Tuned));
                    } else {
                        vc.set(node as usize, seq);
                    }
                    vc
                });
                items.push((node, seq, at));
            }
            let mut from_tuned = items.clone();
            log.causal_order(&mut items);
            tuned.causal_order(&mut from_tuned);
            prop_assert_eq!(&items, &from_tuned);
            for (i, &(wa, sa, at)) in items.iter().enumerate() {
                let a = &clocks[&(wa, sa)];
                for &(wb, sb, later) in &items[i + 1..] {
                    let b = &clocks[&(wb, sb)];
                    prop_assert!(!before(b, a), "{b:?} follows {a:?}");
                    if a.sum() == b.sum() {
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
        let mut log = IntervalLog::new(N);
        let mut concurrent: Vec<(u16, u32, Diff)> = (1..N as u16)
            .map(|w| {
                let mut vc = barrier.clone();
                vc.tick(w as usize);
                log.insert(IntervalRecord::new(w, 1, &vc, &mut [0], Profile::Tuned));
                (w, 1, words(&|p| p[w as usize * 4] = w as u8))
            })
            .collect();
        log.causal_order(&mut concurrent);
        let order: Vec<u16> = concurrent.iter().map(|&(w, _, _)| w).collect();
        assert_eq!(order, (1..N as u16).collect::<Vec<_>>());
        let mut page = vec![0u8; 4096];
        concurrent.iter().for_each(|(_, _, d)| d.apply(&mut page));
        assert!((1..N).all(|w| page[w * 4] == w as u8));

        let (mut log, mut vc) = (IntervalLog::new(N), barrier);
        let mut chain: Vec<(u16, u32, Diff)> = (1..N as u16)
            .map(|w| {
                vc.tick(w as usize);
                log.insert(IntervalRecord::new(w, 1, &vc, &mut [0], Profile::Tuned));
                (w, 1, words(&|p| p[0] = w as u8))
            })
            .collect();
        chain.reverse();
        log.causal_order(&mut chain);
        let mut page = vec![0u8; 4096];
        chain.iter().for_each(|(_, _, d)| d.apply(&mut page));
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
        let none = VectorClock::new(2);
        let rest: Vec<_> = log.newer_than(&none).collect();
        assert_eq!(rest[0].seq(), 2);
    }
}
