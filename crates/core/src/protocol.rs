//! Protocol messages: the request/response vocabulary of the DSM runtime.
//!
//! Requests travel on the asynchronous channel (they interrupt the peer);
//! responses on the synchronous one (the requester is blocked). Every
//! request carries a correlation id `rid` that the response echoes — lock
//! grants are produced by a *third* node when the manager forwards, so the
//! id is what ties the grant back to the acquire.

use std::rc::Rc;

use crate::diff::Diff;
use crate::interval::{decode_records, encode_records, IntervalRecord};
use crate::page::{PageId, Stable};
use crate::vc::VectorClock;
use crate::wire::{WireReader, WireWriter};

/// Asynchronous request bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Fetch the sender's diffs for `page` with `lo <= seq <= hi`.
    Diff { page: PageId, lo: u32, hi: u32 },
    /// Fetch a whole page from its manager (first touch).
    Page { page: PageId },
    /// Acquire `lock`; `vc` is the requester's vector time.
    Acquire { lock: u32, vc: VectorClock },
    /// Manager-forwarded acquire: grant directly to `requester`, echoing
    /// `rid`.
    AcquireFwd {
        lock: u32,
        requester: u16,
        rid: u32,
        vc: VectorClock,
    },
    /// A subtree's barrier arrival, sent by a node to its parent in the
    /// barrier tree. `vc` is the pointwise *join* of the subtree members'
    /// clocks, `records` the union of their fresh interval records, and
    /// `floor` their pointwise *meet* (the coverage floor the release must
    /// fill), present only when it differs from `vc`. A childless node's
    /// arrival has none: that is the paper's layout, tag 5; one with a
    /// floor is tag 6.
    BarrierArrive {
        barrier: u32,
        floor: Option<VectorClock>,
        vc: VectorClock,
        records: Vec<Rc<IntervalRecord>>,
    },
    /// Coalesced diff fetch: one `(page, lo, hi)` range per page, all
    /// owed by the same writer. Merges what would otherwise be one
    /// `Diff` request per page into a single message — the per-node
    /// coalescing arm of the overlapped RPC engine.
    MultiDiff { pages: Vec<(PageId, u32, u32)> },
    /// The sender has passed the exit barrier and left (lossy transports
    /// only): nothing it owes is still coming. Answered by nothing.
    Gone,
}

/// Synchronous response bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Diffs for one page, in ascending seq order. May be a partial range
    /// (chunked to the substrate's max message size) — the requester
    /// re-requests what's still pending. `covered_hi` is the top of the
    /// seq range this response settles: every diff of this page the
    /// writer has with `lo <= seq <= covered_hi` is included (seqs in
    /// range but absent simply never wrote the page).
    Diffs {
        page: PageId,
        covered_hi: u32,
        diffs: Vec<(u32, Diff)>,
    },
    /// A whole page: the responder's stable copy plus the per-writer seqs
    /// it incorporates. Also the fallback when requested diffs were
    /// garbage-collected.
    FullPage {
        page: PageId,
        applied: Vec<u32>,
        data: Vec<u8>,
    },
    /// Lock grant: releaser's vector time plus the interval records the
    /// requester is missing.
    Grant {
        lock: u32,
        vc: VectorClock,
        records: Vec<Rc<IntervalRecord>>,
    },
    /// Barrier release, from a tree parent to a child: the globally merged
    /// vector time plus every interval record newer than the child
    /// subtree's coverage floor.
    BarrierRelease {
        vc: VectorClock,
        records: Vec<Rc<IntervalRecord>>,
    },
    /// A whole page that is entirely zero — no payload needed. Common for
    /// first-touch fetches of freshly allocated memory.
    ZeroPage { page: PageId, applied: Vec<u32> },
    /// Answer to a `MultiDiff`: one entry per page the responder managed
    /// to pack under its message-size budget. Pages omitted from the
    /// response are simply still owed — the requester's fetch loop
    /// re-requests them.
    MultiDiffs { pages: Vec<(PageId, PageDiffs)> },
}

/// One page's answer to a fetch: an entry of a [`Response::MultiDiffs`],
/// or a single-page answer as `Response::for_each_page` hands it on.
/// Diffs when the range is retained, the full or zero page when GC already
/// folded it away.
#[derive(Debug, Clone, PartialEq)]
pub enum PageDiffs {
    /// Same semantics as [`Response::Diffs`] for this page.
    Diffs {
        covered_hi: u32,
        diffs: Vec<(u32, Diff)>,
    },
    /// GC fallback: the responder's whole stable copy.
    Full { applied: Vec<u32>, data: Vec<u8> },
    /// GC fallback for an all-zero page.
    Zero { applied: Vec<u32> },
}

fn encode_applied(applied: &[u32], w: &mut WireWriter) {
    w.u16(applied.len() as u16);
    for &a in applied {
        w.u32(a);
    }
}

fn decode_applied(r: &mut WireReader) -> Option<Vec<u32>> {
    let n = r.u16()? as usize;
    // Bounded by what the frame can hold, not by what it claims.
    let mut v = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        v.push(r.u32()?);
    }
    Some(v)
}

/// `[count u16][(seq u32, diff image)…]`: the diff list of a `Diffs`
/// entry. Each diff writes its image straight into the frame.
fn encode_seq_diffs(diffs: &[(u32, Diff)], w: &mut WireWriter) {
    w.u16(diffs.len() as u16);
    for (seq, d) in diffs {
        w.u32(*seq);
        d.encode(w);
    }
}

fn decode_seq_diffs(r: &mut WireReader) -> Option<Vec<(u32, Diff)>> {
    let n = r.u16()? as usize;
    // Bounded by what the frame can hold, not by what it claims.
    let mut diffs = Vec::with_capacity(n.min(r.remaining() / 6));
    for _ in 0..n {
        diffs.push((r.u32()?, Diff::decode(r)?));
    }
    Some(diffs)
}

fn max_extent(diffs: &[(u32, Diff)]) -> usize {
    diffs.iter().map(|(_, d)| d.extent()).max().unwrap_or(0)
}

/// The fewest bytes a `MultiDiffs` entry takes: its page, its tag and a
/// `Zero`'s empty seq count.
const MIN_ENTRY: usize = 4 + 1 + 2;

/// One page's answer to a diff or page fetch, borrowed: what the serve
/// path encodes straight from the page table, and what the owned
/// [`Response`] / [`PageDiffs`] encoders delegate to. The single-page
/// responses and the entries of a `MultiDiffs` share tags and bodies, so
/// the two vocabularies cannot drift apart.
pub(crate) enum PageRef<'a> {
    /// [`Response::Diffs`] / [`PageDiffs::Diffs`].
    Diffs {
        covered_hi: u32,
        diffs: &'a [(u32, Diff)],
    },
    /// [`Response::FullPage`] / [`PageDiffs::Full`].
    Full {
        applied: &'a [u32],
        data: Stable<'a>,
    },
    /// [`Response::ZeroPage`] / [`PageDiffs::Zero`].
    Zero { applied: &'a [u32] },
}

impl PageRef<'_> {
    fn tag(&self) -> u8 {
        match self {
            PageRef::Diffs { .. } => 1,
            PageRef::Full { .. } => 2,
            PageRef::Zero { .. } => 5,
        }
    }

    fn encode_body(&self, w: &mut WireWriter) {
        match self {
            PageRef::Diffs { covered_hi, diffs } => {
                w.u32(*covered_hi);
                encode_seq_diffs(diffs, w);
            }
            PageRef::Full { applied, data } => {
                encode_applied(applied, w);
                if let Stable::Bytes(b) = data {
                    w.bytes(b);
                } else {
                    w.u32(data.len() as u32);
                    data.write_into(w.raw_mut(data.len()));
                }
            }
            PageRef::Zero { applied } => encode_applied(applied, w),
        }
    }

    /// Encode as the whole response to a single-page fetch of `page`.
    pub(crate) fn encode_response(&self, rid: u32, page: PageId, w: &mut WireWriter) {
        w.u32(rid).u8(self.tag()).u32(page);
        self.encode_body(w);
    }

    /// Encode as `page`'s entry of a `MultiDiffs` opened with
    /// [`begin_multi_diffs`].
    pub(crate) fn encode_entry(&self, page: PageId, w: &mut WireWriter) {
        w.u32(page).u8(self.tag());
        self.encode_body(w);
    }
}

/// Open a `MultiDiffs` response. Returns where its entry count goes —
/// [`WireWriter::patch_u16`] it once the [`PageRef::encode_entry`] calls
/// are made; a responder stops adding entries when its budget is spent.
pub(crate) fn begin_multi_diffs(rid: u32, w: &mut WireWriter) -> usize {
    w.u32(rid).u8(7);
    w.reserve_u16()
}

/// How many of `all` — a writer's retained diffs of one page with
/// `seq <= hi`, ascending — go into an answer of at most `budget` bytes,
/// and the `covered_hi` that answer settles: `hi` when everything fit, the
/// last included seq when the answer is a chunk (the requester re-requests
/// the remainder). At least one diff always goes out, so the covered
/// ceiling advances.
pub(crate) fn chunk_diffs(all: &[(u32, Diff)], hi: u32, budget: usize) -> (usize, u32) {
    let mut take = 0usize;
    let mut sz = 16usize;
    for (_, d) in all {
        let dl = d.encoded_len() + 4;
        if take > 0 && sz + dl > budget {
            break;
        }
        sz += dl;
        take += 1;
    }
    // A chunk holds at least the first diff, so `take - 1` exists.
    let covered_hi = if take == all.len() {
        hi
    } else {
        all[take - 1].0
    };
    (take, covered_hi)
}

impl Request {
    /// Encode with the correlation id envelope.
    pub fn encode(&self, rid: u32) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        self.encode_into(rid, &mut w);
        w.finish()
    }

    /// Encode into an existing (typically pooled) writer — the
    /// allocation-free path the runtime's send loops use.
    pub fn encode_into(&self, rid: u32, w: &mut WireWriter) {
        w.u32(rid);
        match self {
            Request::Diff { page, lo, hi } => {
                w.u8(1).u32(*page).u32(*lo).u32(*hi);
            }
            Request::Page { page } => {
                w.u8(2).u32(*page);
            }
            Request::Acquire { lock, vc } => {
                w.u8(3).u32(*lock);
                vc.encode(w);
            }
            Request::AcquireFwd {
                lock,
                requester,
                rid: orig,
                vc,
            } => {
                w.u8(4).u32(*lock).u16(*requester).u32(*orig);
                vc.encode(w);
            }
            Request::BarrierArrive {
                barrier,
                floor,
                vc,
                records,
            } => {
                w.u8(if floor.is_some() { 6 } else { 5 }).u32(*barrier);
                if let Some(floor) = floor {
                    floor.encode(w);
                }
                vc.encode(w);
                encode_records(records, w);
            }
            Request::MultiDiff { pages } => {
                w.u8(7).u16(pages.len() as u16);
                for (page, lo, hi) in pages {
                    w.u32(*page).u32(*lo).u32(*hi);
                }
            }
            Request::Gone => {
                w.u8(9);
            }
        }
    }

    /// Decode; returns `(rid, request)`. `None` unless `buf` is exactly
    /// what [`Self::encode`] writes for them.
    pub fn decode(buf: &[u8]) -> Option<(u32, Request)> {
        let mut r = WireReader::new(buf);
        let rid = r.u32()?;
        let req = match r.u8()? {
            1 => Request::Diff {
                page: r.u32()?,
                lo: r.u32()?,
                hi: r.u32()?,
            },
            2 => Request::Page { page: r.u32()? },
            3 => Request::Acquire {
                lock: r.u32()?,
                vc: VectorClock::decode(&mut r)?,
            },
            4 => Request::AcquireFwd {
                lock: r.u32()?,
                requester: r.u16()?,
                rid: r.u32()?,
                vc: VectorClock::decode(&mut r)?,
            },
            tag @ (5 | 6) => Request::BarrierArrive {
                barrier: r.u32()?,
                floor: if tag == 6 {
                    Some(VectorClock::decode(&mut r)?)
                } else {
                    None
                },
                vc: VectorClock::decode(&mut r)?,
                records: decode_records(&mut r)?,
            },
            7 => {
                let n = r.u16()? as usize;
                let mut pages = Vec::with_capacity(n.min(r.remaining() / 12));
                for _ in 0..n {
                    pages.push((r.u32()?, r.u32()?, r.u32()?));
                }
                Request::MultiDiff { pages }
            }
            9 => Request::Gone,
            _ => return None,
        };
        (r.remaining() == 0).then_some((rid, req))
    }
}

impl PageDiffs {
    fn page_ref(&self) -> PageRef<'_> {
        match self {
            PageDiffs::Diffs { covered_hi, diffs } => PageRef::Diffs {
                covered_hi: *covered_hi,
                diffs,
            },
            PageDiffs::Full { applied, data } => PageRef::Full {
                applied,
                data: Stable::Bytes(data),
            },
            PageDiffs::Zero { applied } => PageRef::Zero { applied },
        }
    }

    fn decode(r: &mut WireReader) -> Option<PageDiffs> {
        Some(match r.u8()? {
            1 => PageDiffs::Diffs {
                covered_hi: r.u32()?,
                diffs: decode_seq_diffs(r)?,
            },
            2 => PageDiffs::Full {
                applied: decode_applied(r)?,
                data: r.bytes()?.to_vec(),
            },
            5 => PageDiffs::Zero {
                applied: decode_applied(r)?,
            },
            _ => return None,
        })
    }
}

impl Response {
    pub fn encode(&self, rid: u32) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(128);
        self.encode_into(rid, &mut w);
        w.finish()
    }

    /// Encode into an existing (typically pooled) writer.
    pub fn encode_into(&self, rid: u32, w: &mut WireWriter) {
        match self {
            Response::Diffs {
                page,
                covered_hi,
                diffs,
            } => PageRef::Diffs {
                covered_hi: *covered_hi,
                diffs,
            }
            .encode_response(rid, *page, w),
            Response::FullPage {
                page,
                applied,
                data,
            } => PageRef::Full {
                applied,
                data: Stable::Bytes(data),
            }
            .encode_response(rid, *page, w),
            Response::ZeroPage { page, applied } => {
                PageRef::Zero { applied }.encode_response(rid, *page, w)
            }
            Response::Grant { lock, vc, records } => {
                w.u32(rid).u8(3).u32(*lock);
                vc.encode(w);
                encode_records(records, w);
            }
            Response::BarrierRelease { vc, records } => {
                w.u32(rid).u8(4);
                vc.encode(w);
                encode_records(records, w);
            }
            Response::MultiDiffs { pages } => {
                let count = begin_multi_diffs(rid, w);
                for (page, pd) in pages {
                    pd.page_ref().encode_entry(*page, w);
                }
                w.patch_u16(count, pages.len() as u16);
            }
        }
    }

    /// Hand each page this fetch answer carries to `f` as a [`PageDiffs`]:
    /// the one page of a `Diffs`, `FullPage` or `ZeroPage`, every entry of
    /// a `MultiDiffs`. Panics on any other response.
    pub(crate) fn for_each_page(self, mut f: impl FnMut(PageId, PageDiffs)) {
        match self {
            Response::Diffs {
                page,
                covered_hi,
                diffs,
            } => f(page, PageDiffs::Diffs { covered_hi, diffs }),
            Response::FullPage {
                page,
                applied,
                data,
            } => f(page, PageDiffs::Full { applied, data }),
            Response::ZeroPage { page, applied } => f(page, PageDiffs::Zero { applied }),
            Response::MultiDiffs { pages } => pages.into_iter().for_each(|(page, pd)| f(page, pd)),
            other => panic!("expected a page or its diffs, got {other:?}"),
        }
    }

    /// The largest [`Diff::extent`] this response carries (0 if it carries
    /// no diff).
    pub(crate) fn diff_extent(&self) -> usize {
        match self {
            Response::Diffs { diffs, .. } => max_extent(diffs),
            Response::MultiDiffs { pages } => pages
                .iter()
                .map(|(_, pd)| match pd {
                    PageDiffs::Diffs { diffs, .. } => max_extent(diffs),
                    PageDiffs::Full { .. } | PageDiffs::Zero { .. } => 0,
                })
                .max()
                .unwrap_or(0),
            _ => 0,
        }
    }

    /// Every page this response carries has the receiver's shape: no diff
    /// reaches past a `page_size`-byte page, and a full or zero page has
    /// `nprocs` applied seqs and, if full, `page_size` bytes.
    /// [`Response::decode`] has already validated every image; what it
    /// cannot know is the receiver's cluster and page size, so the
    /// receiver checks this once, before anything is applied.
    pub(crate) fn fits(&self, nprocs: usize, page_size: usize) -> bool {
        let whole = |applied: &[u32], data: Option<&Vec<u8>>| {
            applied.len() == nprocs && data.is_none_or(|d| d.len() == page_size)
        };
        self.diff_extent() <= page_size
            && match self {
                Response::FullPage { applied, data, .. } => whole(applied, Some(data)),
                Response::ZeroPage { applied, .. } => whole(applied, None),
                Response::MultiDiffs { pages } => pages.iter().all(|(_, pd)| match pd {
                    PageDiffs::Full { applied, data } => whole(applied, Some(data)),
                    PageDiffs::Zero { applied } => whole(applied, None),
                    PageDiffs::Diffs { .. } => true,
                }),
                _ => true,
            }
    }

    /// Decode; returns `(rid, response)`. `None` unless `buf` is exactly
    /// what [`Self::encode`] writes for them.
    pub fn decode(buf: &[u8]) -> Option<(u32, Response)> {
        let mut r = WireReader::new(buf);
        let rid = r.u32()?;
        let resp = match r.u8()? {
            1 => Response::Diffs {
                page: r.u32()?,
                covered_hi: r.u32()?,
                diffs: decode_seq_diffs(&mut r)?,
            },
            2 => Response::FullPage {
                page: r.u32()?,
                applied: decode_applied(&mut r)?,
                data: r.bytes()?.to_vec(),
            },
            3 => Response::Grant {
                lock: r.u32()?,
                vc: VectorClock::decode(&mut r)?,
                records: decode_records(&mut r)?,
            },
            4 => Response::BarrierRelease {
                vc: VectorClock::decode(&mut r)?,
                records: decode_records(&mut r)?,
            },
            5 => Response::ZeroPage {
                page: r.u32()?,
                applied: decode_applied(&mut r)?,
            },
            7 => {
                let n = r.u16()? as usize;
                let mut pages = Vec::with_capacity(n.min(r.remaining() / MIN_ENTRY));
                for _ in 0..n {
                    let page = r.u32()?;
                    pages.push((page, PageDiffs::decode(&mut r)?));
                }
                Response::MultiDiffs { pages }
            }
            _ => return None,
        };
        (r.remaining() == 0).then_some((rid, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vc(vals: &[u32]) -> VectorClock {
        let mut v = VectorClock::new(vals.len());
        for (i, &x) in vals.iter().enumerate() {
            v.set(i, x);
        }
        v
    }

    fn rec(node: u16, seq: u32, vcv: &[u32], pages: &[u32]) -> Rc<IntervalRecord> {
        IntervalRecord::new(node, seq, &vc(vcv), pages.to_vec())
    }

    /// A message of every request kind.
    fn requests() -> Vec<Request> {
        vec![
            Request::Diff {
                page: 42,
                lo: 1,
                hi: 7,
            },
            Request::Page { page: 9 },
            Request::Acquire {
                lock: 3,
                vc: vc(&[1, 2, 3]),
            },
            Request::AcquireFwd {
                lock: 3,
                requester: 2,
                rid: 77,
                vc: vc(&[0, 5]),
            },
            Request::BarrierArrive {
                barrier: 1,
                floor: None,
                vc: vc(&[4, 4]),
                records: vec![rec(0, 4, &[4, 0], &[1, 2])],
            },
            Request::BarrierArrive {
                barrier: 2,
                floor: Some(vc(&[1, 0, 2])),
                vc: vc(&[4, 3, 5]),
                records: vec![rec(1, 3, &[0, 3, 1], &[7]), rec(2, 5, &[1, 0, 5], &[])],
            },
            Request::MultiDiff {
                pages: vec![(3, 1, 4), (9, 2, 2)],
            },
            Request::Gone,
        ]
    }

    /// A message of every response kind.
    fn responses() -> Vec<Response> {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[5] = 9;
        let d = Diff::create(&twin, &cur);
        vec![
            Response::Diffs {
                page: 1,
                covered_hi: 4,
                diffs: vec![(3, d.clone()), (4, Diff::empty())],
            },
            Response::FullPage {
                page: 2,
                applied: vec![1, 0, 7],
                data: vec![9u8; 128],
            },
            Response::Grant {
                lock: 5,
                vc: vc(&[2, 2]),
                records: vec![rec(1, 2, &[0, 2], &[8])],
            },
            Response::BarrierRelease {
                vc: vc(&[3, 3, 3]),
                records: vec![],
            },
            Response::BarrierRelease {
                vc: vc(&[6, 6]),
                records: vec![rec(0, 6, &[6, 2], &[1])],
            },
            Response::ZeroPage {
                page: 42,
                applied: vec![3, 0, 9, 1],
            },
            Response::MultiDiffs {
                pages: vec![
                    (
                        3,
                        PageDiffs::Diffs {
                            covered_hi: 4,
                            diffs: vec![(2, d)],
                        },
                    ),
                    (
                        9,
                        PageDiffs::Full {
                            applied: vec![1, 2],
                            data: vec![7u8; 16],
                        },
                    ),
                    (
                        12,
                        PageDiffs::Zero {
                            applied: vec![0, 9],
                        },
                    ),
                ],
            },
        ]
    }

    #[test]
    fn request_roundtrips() {
        for (i, req) in requests().into_iter().enumerate() {
            let buf = req.encode(i as u32);
            let (rid, back) = Request::decode(&buf).expect("decode");
            assert_eq!(rid, i as u32);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_roundtrips() {
        for (i, resp) in responses().into_iter().enumerate() {
            let buf = resp.encode(100 + i as u32);
            let (rid, back) = Response::decode(&buf).expect("decode");
            assert_eq!(rid, 100 + i as u32);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn zero_page_roundtrips() {
        let resp = Response::ZeroPage {
            page: 42,
            applied: vec![3, 0, 9, 1],
        };
        let buf = resp.encode(7);
        assert!(buf.len() < 32, "zero page must be compact");
        assert_eq!(Response::decode(&buf), Some((7, resp)));
    }

    #[test]
    fn covered_hi_travels_with_diffs() {
        let resp = Response::Diffs {
            page: 3,
            covered_hi: 99,
            diffs: vec![],
        };
        let buf = resp.encode(1);
        match Response::decode(&buf) {
            Some((
                1,
                Response::Diffs {
                    covered_hi, diffs, ..
                },
            )) => {
                assert_eq!(covered_hi, 99);
                assert!(diffs.is_empty());
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn chunking_settles_what_it_includes() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[8] = 1;
        let d = Diff::create(&twin, &cur);
        let each = d.encoded_len() + 4;
        let all: Vec<(u32, Diff)> = (3..=6).map(|seq| (seq, d.clone())).collect();
        // Everything fits: the whole requested range is settled, including
        // seqs past the last diff.
        assert_eq!(chunk_diffs(&all, 9, 16 + 4 * each), (4, 9));
        // A chunk settles up to its last included seq.
        assert_eq!(chunk_diffs(&all, 9, 16 + 2 * each), (2, 4));
        // One diff always goes out, whatever the budget.
        assert_eq!(chunk_diffs(&all, 9, 0), (1, 3));
        assert_eq!(chunk_diffs(&[], 9, 0), (0, 9));
    }

    #[test]
    fn multi_diff_roundtrips() {
        let req = Request::MultiDiff {
            pages: vec![(3, 1, 4), (9, 2, 2), (12, 1, 9)],
        };
        let buf = req.encode(55);
        assert_eq!(Request::decode(&buf), Some((55, req)));

        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[10] = 3;
        let d = Diff::create(&twin, &cur);
        let resp = Response::MultiDiffs {
            pages: vec![
                (
                    3,
                    PageDiffs::Diffs {
                        covered_hi: 4,
                        diffs: vec![(2, d), (4, Diff::empty())],
                    },
                ),
                (
                    9,
                    PageDiffs::Full {
                        applied: vec![1, 2],
                        data: vec![7u8; 96],
                    },
                ),
                (
                    12,
                    PageDiffs::Zero {
                        applied: vec![0, 9],
                    },
                ),
            ],
        };
        let buf = resp.encode(56);
        assert_eq!(Response::decode(&buf), Some((56, resp)));
    }

    #[test]
    fn empty_multi_diffs_roundtrips() {
        // A responder that fit nothing under budget still answers.
        let resp = Response::MultiDiffs { pages: vec![] };
        let buf = resp.encode(8);
        assert_eq!(Response::decode(&buf), Some((8, resp)));
    }

    #[test]
    fn gone_roundtrips_in_its_rid_envelope() {
        let buf = Request::Gone.encode(77);
        assert_eq!(buf, [77, 0, 0, 0, 9], "a rid and a kind byte, no body");
        assert_eq!(Request::decode(&buf), Some((77, Request::Gone)));
        assert!(Request::decode(&buf[..4]).is_none());
    }

    #[test]
    fn an_arrival_carries_a_floor_only_when_it_has_one() {
        let (floor, ceiling) = (vc(&[1, 0, 2]), vc(&[4, 3, 5]));
        let arrive = |floor| {
            Request::BarrierArrive {
                barrier: 2,
                floor,
                vc: ceiling.clone(),
                records: vec![],
            }
            .encode(7)
        };
        let (bare, with) = (arrive(None), arrive(Some(floor.clone())));
        assert_eq!((bare[4], with[4]), (5, 6), "tags");
        // The floor's clock sits between the barrier id and the ceiling;
        // nothing else differs.
        let mut w = WireWriter::with_capacity(16);
        floor.encode(&mut w);
        let floor_bytes = w.finish();
        assert_eq!(with[5..9], bare[5..9]);
        assert_eq!(with[9..9 + floor_bytes.len()], floor_bytes[..]);
        assert_eq!(with[9 + floor_bytes.len()..], bare[9..]);
    }

    #[test]
    fn garbage_decodes_to_none() {
        assert!(Request::decode(&[1, 2, 3]).is_none());
        assert!(Response::decode(&[0, 0, 0, 0, 99]).is_none());
    }

    #[test]
    fn a_record_count_the_frame_cannot_hold_is_none() {
        // An empty clock, then 2^32 - 1 records: a release, and an arrival.
        let release = [0, 0, 0, 0, 4, 0, 0, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(Response::decode(&release), None);
        let arrive = [0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(Request::decode(&arrive), None);
    }

    #[test]
    fn only_the_bytes_encode_writes_decode() {
        let mut buf = Request::Gone.encode(7);
        buf.push(0);
        assert_eq!(Request::decode(&buf), None, "a trailing byte");
        let mut buf = Response::BarrierRelease {
            vc: vc(&[1, 1]),
            records: vec![],
        }
        .encode(7);
        buf.push(0);
        assert_eq!(Response::decode(&buf), None, "a trailing byte");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5000))]

        /// Over arbitrary bytes and over one-byte overwrites, truncations
        /// and insertions of a message of every kind: decoding never
        /// panics, and what decodes re-encodes to the bytes it came from.
        #[test]
        fn request_decode_is_total_and_canonical(
            junk in proptest::collection::vec(any::<u8>(), 0..64),
            which: usize,
            kind in 0u8..3,
            at: usize,
            byte: u8,
        ) {
            let all = requests();
            let image = all[which % all.len()].encode(which as u32);
            for buf in [junk, crate::wire::mutated(&image, kind, at, byte)] {
                if let Some((rid, req)) = Request::decode(&buf) {
                    prop_assert_eq!(req.encode(rid), buf);
                }
            }
        }

        /// [`request_decode_is_total_and_canonical`] for responses.
        #[test]
        fn response_decode_is_total_and_canonical(
            junk in proptest::collection::vec(any::<u8>(), 0..64),
            which: usize,
            kind in 0u8..3,
            at: usize,
            byte: u8,
        ) {
            let all = responses();
            let image = all[which % all.len()].encode(which as u32);
            for buf in [junk, crate::wire::mutated(&image, kind, at, byte)] {
                if let Some((rid, resp)) = Response::decode(&buf) {
                    prop_assert_eq!(resp.encode(rid), buf);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn diff_request_roundtrip_any(page: u32, lo: u32, hi: u32, rid: u32) {
            let req = Request::Diff { page, lo, hi };
            let buf = req.encode(rid);
            prop_assert_eq!(Request::decode(&buf), Some((rid, req)));
        }
    }
}
