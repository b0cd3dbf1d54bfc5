//! Protocol messages: the request/response vocabulary of the DSM runtime.
//!
//! Requests travel on the asynchronous channel (they interrupt the peer);
//! responses on the synchronous one (the requester is blocked). Every
//! request carries a correlation id `rid` that the response echoes — lock
//! grants are produced by a *third* node when the manager forwards, so the
//! id is what ties the grant back to the acquire.

use crate::diff::{Diff, DiffImage, ZeroDiff};
use crate::interval::{encode_records, records_len, IntervalLog, IntervalRecord, Records};
use crate::page::{PageId, Stable};
use crate::vc::{ClockImage, VectorClock};
use crate::wire::{WireReader, WireWriter};

/// Asynchronous request bodies. A coalesced fetch's page list is borrowed
/// from the frame that carried it ([`PageRanges`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
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
        records: Vec<IntervalRecord>,
    },
    /// Coalesced diff fetch: one `(page, lo, hi)` range per page, all
    /// owed by the same writer. Merges what would otherwise be one
    /// `Diff` request per page into a single message — the per-node
    /// coalescing arm of the overlapped RPC engine.
    MultiDiff { pages: PageRanges<'a> },
    /// The sender has passed the exit barrier and is leaving (lossy
    /// transports only): nothing it owes is still coming. Answered by a
    /// [`Response::Gone`].
    Gone,
}

/// Synchronous response bodies. A fetch answer's diffs, and a
/// `MultiDiffs` entry whole, are borrowed from the frame that carried them
/// ([`SeqDiffs`], [`PageDiffs`]): a receiver applies them from there and
/// keeps nothing of them. So are a grant's and a release's clock and
/// records ([`ClockImage`], [`Records`]): a receiver joins the clock into
/// its own and decodes each record against its log.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<'a> {
    /// Diffs for one page, in ascending seq order. May be a partial range
    /// (chunked to the substrate's max message size) — the requester
    /// re-requests what's still pending. `covered_hi` is the top of the
    /// seq range this response settles: every diff of this page the
    /// writer has with `lo <= seq <= covered_hi` is included (seqs in
    /// range but absent simply never wrote the page).
    Diffs {
        page: PageId,
        covered_hi: u32,
        diffs: SeqDiffs<'a>,
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
        vc: ClockImage<'a>,
        records: Records<'a>,
    },
    /// Barrier release, from a tree parent to a child: the globally merged
    /// vector time plus every interval record newer than the child
    /// subtree's coverage floor.
    BarrierRelease {
        vc: ClockImage<'a>,
        records: Records<'a>,
    },
    /// A whole page that is entirely zero — no payload needed. Common for
    /// the spec profile's first-touch fetches of freshly allocated memory.
    ZeroPage { page: PageId, applied: Vec<u32> },
    /// A whole page as the tuned profile sends one: the per-writer seqs it
    /// incorporates and its diff against the zero page. An empty one is a
    /// `ZeroPage`.
    PageImage {
        page: PageId,
        applied: Vec<u32>,
        diff: DiffImage<'a>,
    },
    /// Answer to a `MultiDiff`: one entry per page the responder managed
    /// to pack under its message-size budget. Pages omitted from the
    /// response are simply still owed — the requester's fetch loop
    /// re-requests them.
    MultiDiffs { pages: Vec<(PageId, PageDiffs<'a>)> },
    /// Answer to a [`Request::Gone`]: the parent heard it, and the child
    /// may stop resending it.
    Gone,
}

/// One page's answer to a fetch as it arrived, borrowed from its frame: an
/// entry of a [`Response::MultiDiffs`], or a single-page answer as
/// `for_each_page` hands it on. Diffs when the range is retained, the full
/// or zero page when GC already folded it away.
#[derive(Debug, Clone, PartialEq)]
pub enum PageDiffs<'a> {
    /// Same semantics as [`Response::Diffs`] for this page.
    Diffs {
        covered_hi: u32,
        diffs: SeqDiffs<'a>,
    },
    /// GC fallback: the responder's whole stable copy.
    Full { applied: Seqs<'a>, data: &'a [u8] },
    /// GC fallback for an all-zero page, or a whole page asked for that
    /// is all zero.
    Zero { applied: Seqs<'a> },
    /// A whole page, as the tuned profile sends one: its applied seqs and
    /// its diff against the zero page, never empty.
    Image {
        applied: Seqs<'a>,
        diff: DiffImage<'a>,
    },
}

/// A page's applied seqs as they arrived, `[count u16][seq u32…]`,
/// borrowed from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seqs<'a> {
    bytes: &'a [u8],
}

impl<'a> Seqs<'a> {
    /// A count and that many seqs. Nothing is reserved for what the count
    /// claims: the bytes are there, or it is `None`.
    fn decode(r: &mut WireReader<'a>) -> Option<Seqs<'a>> {
        let n = u16::from_le_bytes(r.peek_rest().first_chunk().copied()?) as usize;
        Some(Seqs {
            bytes: r.raw_bytes(2 + 4 * n)?,
        })
    }

    pub fn len(&self) -> usize {
        (self.bytes.len() - 2) / 4
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The seqs, by writer.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.bytes[2..]
            .chunks_exact(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("a 4-byte chunk")))
    }
}

/// A coalesced fetch's page list as it arrived, `[count u16][(page u32, lo
/// u32, hi u32)…]`, borrowed from the frame: the responder answers from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRanges<'a> {
    bytes: &'a [u8],
}

impl<'a> PageRanges<'a> {
    /// A count and that many triples. Nothing is reserved for what the
    /// count claims: the bytes are there, or it is `None`.
    fn decode(r: &mut WireReader<'a>) -> Option<PageRanges<'a>> {
        let n = u16::from_le_bytes(r.peek_rest().first_chunk().copied()?) as usize;
        Some(PageRanges {
            bytes: r.raw_bytes(2 + 12 * n)?,
        })
    }

    pub fn len(&self) -> usize {
        (self.bytes.len() - 2) / 12
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(page, lo, hi)` triples, in the order they were asked for.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u32, u32)> + 'a {
        self.bytes[2..].chunks_exact(12).map(|t| {
            let word = |i: usize| u32::from_le_bytes(t[i..i + 4].try_into().expect("a word"));
            (word(0), word(4), word(8))
        })
    }
}

/// Encode a `MultiDiff` asking for `pages`, straight from wherever the
/// requester keeps them.
pub(crate) fn encode_multi_diff(
    rid: u32,
    pages: impl Iterator<Item = (PageId, u32, u32)>,
    w: &mut WireWriter,
) {
    w.u32(rid).u8(7);
    let count = w.reserve_u16();
    let mut n = 0u16;
    for (page, lo, hi) in pages {
        w.u32(page).u32(lo).u32(hi);
        n += 1;
    }
    w.patch_u16(count, n);
}

/// Bytes a `MultiDiff` asking for `n` pages takes.
pub(crate) fn multi_diff_len(n: usize) -> usize {
    7 + 12 * n
}

/// Encode an `Acquire` of `lock` at vector time `vc`, or, with `fwd`'s
/// requester and rid, an `AcquireFwd`: from the requester's own clock.
pub(crate) fn encode_acquire(
    rid: u32,
    lock: u32,
    vc: &VectorClock,
    fwd: Option<(u16, u32)>,
    w: &mut WireWriter,
) {
    w.u32(rid);
    match fwd {
        None => w.u8(3).u32(lock),
        Some((requester, orig)) => w.u8(4).u32(lock).u16(requester).u32(orig),
    };
    vc.encode(w);
}

/// Bytes [`encode_acquire`] writes.
pub(crate) fn acquire_len(vc: &VectorClock, fwd: bool) -> usize {
    9 + if fwd { 6 } else { 0 } + vc.encoded_len()
}

/// Encode a `BarrierArrive` at `barrier`: the subtree's ceiling `vc`, its
/// `floor` when that differs, and `records` — from the arriving node's own
/// clocks and list.
pub(crate) fn encode_arrive(
    rid: u32,
    barrier: u32,
    floor: Option<&VectorClock>,
    vc: &VectorClock,
    records: &[IntervalRecord],
    w: &mut WireWriter,
) {
    w.u32(rid)
        .u8(if floor.is_some() { 6 } else { 5 })
        .u32(barrier);
    if let Some(floor) = floor {
        floor.encode(w);
    }
    vc.encode(w);
    encode_records(records.iter(), w);
}

/// Bytes [`encode_arrive`] writes.
pub(crate) fn arrive_len(
    floor: Option<&VectorClock>,
    vc: &VectorClock,
    records: &[IntervalRecord],
) -> usize {
    9 + floor.map_or(0, VectorClock::encoded_len) + vc.encoded_len() + records_len(records.iter())
}

/// Encode a `Grant` of `lock` — with `lock` `None`, a `BarrierRelease` —
/// carrying vector time `vc` and `records`, straight from the log.
pub(crate) fn encode_grant<'r>(
    rid: u32,
    lock: Option<u32>,
    vc: &VectorClock,
    records: impl Iterator<Item = &'r IntervalRecord> + Clone,
    w: &mut WireWriter,
) {
    w.u32(rid);
    match lock {
        Some(lock) => w.u8(3).u32(lock),
        None => w.u8(4),
    };
    vc.encode(w);
    encode_records(records, w);
}

/// Bytes [`encode_grant`] writes.
pub(crate) fn grant_len<'r>(
    lock: bool,
    vc: &VectorClock,
    records: impl Iterator<Item = &'r IntervalRecord>,
) -> usize {
    5 + if lock { 4 } else { 0 } + vc.encoded_len() + records_len(records)
}

/// The diff list of a `Diffs` answer as it arrived, `[count u16][(seq u32,
/// diff image)…]`: checked once, by `SeqDiffs::decode`, and borrowed
/// from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqDiffs<'a> {
    bytes: &'a [u8],
    /// The largest [`DiffImage::extent`] among the diffs.
    extent: u32,
}

impl<'a> SeqDiffs<'a> {
    /// Accept a count and that many `(seq, image)` pairs, each image
    /// what [`DiffImage::decode`] accepts.
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Option<SeqDiffs<'a>> {
        let start = r.peek_rest();
        let mut extent = 0;
        for _ in 0..r.u16()? {
            r.u32()?;
            extent = extent.max(DiffImage::decode(r)?.extent());
        }
        Some(SeqDiffs {
            bytes: &start[..start.len() - r.remaining()],
            extent: extent as u32,
        })
    }

    /// How far the furthest-reaching diff reaches (0 if there is none).
    pub fn extent(&self) -> usize {
        self.extent as usize
    }

    pub fn len(&self) -> usize {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]]) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The diffs with their seqs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, DiffImage<'a>)> {
        let mut rest = &self.bytes[2..];
        std::iter::from_fn(move || {
            let (&seq, tail) = rest.split_first_chunk()?;
            let image = DiffImage::reread(tail);
            rest = &tail[image.as_bytes().len()..];
            Some((u32::from_le_bytes(seq), image))
        })
    }
}

fn encode_applied(applied: &[u32], w: &mut WireWriter) {
    w.u16(applied.len() as u16);
    for &a in applied {
        w.u32(a);
    }
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

/// The fewest bytes a `MultiDiffs` entry takes: its page, its tag and a
/// `Zero`'s empty seq count.
const MIN_ENTRY: usize = 4 + 1 + 2;

/// One page's answer to a diff or page fetch, from the page table: what
/// the serve path encodes, and what [`Response::FullPage`] /
/// [`Response::ZeroPage`] encode through. The single-page responses and the
/// entries of a `MultiDiffs` share tags and bodies, so the two vocabularies
/// cannot drift apart; [`PageDiffs`] reads them.
pub(crate) enum PageRef<'a> {
    /// [`Response::Diffs`] / [`PageDiffs::Diffs`], from a retained list.
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
    /// [`Response::PageImage`] / [`PageDiffs::Image`]: `data`, not all
    /// zero, as its diff against the zero page, found as it is encoded and
    /// written straight from `data`.
    Image {
        applied: &'a [u32],
        data: Stable<'a>,
    },
}

impl PageRef<'_> {
    fn tag(&self) -> u8 {
        match self {
            PageRef::Diffs { .. } => 1,
            PageRef::Full { .. } => 2,
            PageRef::Zero { .. } => 5,
            PageRef::Image { .. } => 8,
        }
    }

    /// Write the body; returns the payload bytes an image copied from its
    /// page (0 for any other answer, whose copy its producer charged).
    fn encode_body(&self, w: &mut WireWriter) -> usize {
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
            PageRef::Image { applied, data } => {
                encode_applied(applied, w);
                let runs = ZeroDiff::scan(data.len(), |f| data.each_piece(f));
                runs.encode(w, |off, out| data.read_into(off, out));
                return runs.payload_bytes();
            }
        }
        0
    }

    /// Encode as the whole response to a single-page fetch of `page`;
    /// returns the payload bytes an image copied from its page.
    pub(crate) fn encode_response(&self, rid: u32, page: PageId, w: &mut WireWriter) -> usize {
        w.u32(rid).u8(self.tag()).u32(page);
        self.encode_body(w)
    }

    /// Encode as `page`'s entry of a `MultiDiffs` opened with
    /// [`begin_multi_diffs`]; returns the payload bytes an image copied
    /// from its page.
    pub(crate) fn encode_entry(&self, page: PageId, w: &mut WireWriter) -> usize {
        w.u32(page).u8(self.tag());
        self.encode_body(w)
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

impl<'a> Request<'a> {
    /// Encode with the correlation id envelope.
    pub fn encode(&self, rid: u32) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.encode_into(rid, &mut w);
        w.finish()
    }

    /// Bytes [`Self::encode`] writes: what a pooled frame is taken at.
    pub fn encoded_len(&self) -> usize {
        match self {
            Request::Diff { .. } => 17,
            Request::Page { .. } => 9,
            Request::Acquire { vc, .. } => acquire_len(vc, false),
            Request::AcquireFwd { vc, .. } => acquire_len(vc, true),
            Request::BarrierArrive {
                floor, vc, records, ..
            } => arrive_len(floor.as_ref(), vc, records),
            Request::MultiDiff { pages } => multi_diff_len(pages.len()),
            Request::Gone => 5,
        }
    }

    /// Encode into an existing (typically pooled) writer — the
    /// allocation-free path the runtime's send loops use.
    pub fn encode_into(&self, rid: u32, w: &mut WireWriter) {
        match self {
            Request::Diff { page, lo, hi } => {
                w.u32(rid).u8(1).u32(*page).u32(*lo).u32(*hi);
            }
            Request::Page { page } => {
                w.u32(rid).u8(2).u32(*page);
            }
            Request::Acquire { lock, vc } => encode_acquire(rid, *lock, vc, None, w),
            Request::AcquireFwd {
                lock,
                requester,
                rid: orig,
                vc,
            } => encode_acquire(rid, *lock, vc, Some((*requester, *orig)), w),
            Request::BarrierArrive {
                barrier,
                floor,
                vc,
                records,
            } => encode_arrive(rid, *barrier, floor.as_ref(), vc, records, w),
            Request::MultiDiff { pages } => encode_multi_diff(rid, pages.iter(), w),
            Request::Gone => {
                w.u32(rid).u8(9);
            }
        }
    }

    /// Decode; returns `(rid, request)`. `None` unless `buf` is exactly
    /// what [`Self::encode`] writes for them.
    pub fn decode(buf: &'a [u8]) -> Option<(u32, Request<'a>)> {
        Request::decode_in(buf, &IntervalLog::default(), &mut Vec::new())
    }

    /// [`Self::decode`] on a node whose log is `log`: a relayed record it
    /// holds decodes to its handle ([`IntervalRecord::decode`]), and a
    /// clock is decoded into one of the node's `spare` clocks when it has
    /// one.
    pub fn decode_in(
        buf: &'a [u8],
        log: &IntervalLog,
        spare: &mut Vec<VectorClock>,
    ) -> Option<(u32, Request<'a>)> {
        let mut r = WireReader::new(buf);
        let rid = r.u32()?;
        let mut clock = |r: &mut WireReader| {
            let mut vc = spare.pop().unwrap_or_else(|| VectorClock::new(0));
            vc.decode_into(r).map(|()| vc)
        };
        let req = match r.u8()? {
            1 => Request::Diff {
                page: r.u32()?,
                lo: r.u32()?,
                hi: r.u32()?,
            },
            2 => Request::Page { page: r.u32()? },
            3 => Request::Acquire {
                lock: r.u32()?,
                vc: clock(&mut r)?,
            },
            4 => Request::AcquireFwd {
                lock: r.u32()?,
                requester: r.u16()?,
                rid: r.u32()?,
                vc: clock(&mut r)?,
            },
            tag @ (5 | 6) => Request::BarrierArrive {
                barrier: r.u32()?,
                floor: if tag == 6 { Some(clock(&mut r)?) } else { None },
                vc: clock(&mut r)?,
                records: Records::decode(&mut r)?.iter_in(log).collect(),
            },
            7 => Request::MultiDiff {
                pages: PageRanges::decode(&mut r)?,
            },
            9 => Request::Gone,
            _ => return None,
        };
        (r.remaining() == 0).then_some((rid, req))
    }
}

/// Hand each page the fetch answer `frame` carries to `f` as a
/// [`PageDiffs`]: the one page of a `Diffs`, `FullPage` or `ZeroPage`,
/// every entry of a `MultiDiffs`, decoded one at a time into no list. For a
/// frame [`Response::check`] accepted; `None` for any other response.
pub(crate) fn for_each_page<'a>(
    frame: &'a [u8],
    mut f: impl FnMut(PageId, PageDiffs<'a>),
) -> Option<()> {
    let mut r = WireReader::new(frame);
    r.u32()?;
    match r.u8()? {
        7 => {
            for _ in 0..r.u16()? {
                let page = r.u32()?;
                f(page, PageDiffs::decode(r.u8()?, &mut r)?);
            }
        }
        tag => {
            let page = r.u32()?;
            f(page, PageDiffs::decode(tag, &mut r)?);
        }
    }
    (r.remaining() == 0).then_some(())
}

impl<'a> PageDiffs<'a> {
    fn tag(&self) -> u8 {
        match self {
            PageDiffs::Diffs { .. } => 1,
            PageDiffs::Full { .. } => 2,
            PageDiffs::Zero { .. } => 5,
            PageDiffs::Image { .. } => 8,
        }
    }

    /// Write the body back as it arrived.
    fn encode_body(&self, w: &mut WireWriter) {
        match self {
            PageDiffs::Diffs { covered_hi, diffs } => w.u32(*covered_hi).raw(diffs.bytes),
            PageDiffs::Full { applied, data } => w.raw(applied.bytes).bytes(data),
            PageDiffs::Zero { applied } => w.raw(applied.bytes),
            PageDiffs::Image { applied, diff } => w.raw(applied.bytes).raw(diff.as_bytes()),
        };
    }

    /// The body of one page's answer, tagged `tag`.
    fn decode(tag: u8, r: &mut WireReader<'a>) -> Option<PageDiffs<'a>> {
        Some(match tag {
            1 => PageDiffs::Diffs {
                covered_hi: r.u32()?,
                diffs: SeqDiffs::decode(r)?,
            },
            2 => PageDiffs::Full {
                applied: Seqs::decode(r)?,
                data: r.bytes()?,
            },
            5 => PageDiffs::Zero {
                applied: Seqs::decode(r)?,
            },
            8 => PageDiffs::Image {
                applied: Seqs::decode(r)?,
                diff: DiffImage::decode(r)?,
            },
            _ => return None,
        })
    }

    /// A whole page's applied seqs; `None` for diffs.
    pub(crate) fn applied(&self) -> Option<Seqs<'a>> {
        match *self {
            PageDiffs::Diffs { .. } => None,
            PageDiffs::Full { applied, .. }
            | PageDiffs::Zero { applied }
            | PageDiffs::Image { applied, .. } => Some(applied),
        }
    }

    /// The page has the receiver's shape: no diff reaches past a
    /// `page_size`-byte page, and a full or zero page has `nprocs` applied
    /// seqs and, if full, `page_size` bytes.
    fn fits(&self, nprocs: usize, page_size: usize) -> bool {
        match self {
            PageDiffs::Diffs { diffs, .. } => diffs.extent() <= page_size,
            PageDiffs::Full { applied, data } => applied.len() == nprocs && data.len() == page_size,
            PageDiffs::Zero { applied } => applied.len() == nprocs,
            PageDiffs::Image { applied, diff } => {
                applied.len() == nprocs && diff.extent() <= page_size
            }
        }
    }
}

impl<'a> Response<'a> {
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
            } => {
                let pd = PageDiffs::Diffs {
                    covered_hi: *covered_hi,
                    diffs: *diffs,
                };
                w.u32(rid).u8(pd.tag()).u32(*page);
                pd.encode_body(w);
            }
            Response::FullPage {
                page,
                applied,
                data,
            } => {
                let data = Stable::Bytes(data);
                PageRef::Full { applied, data }.encode_response(rid, *page, w);
            }
            Response::ZeroPage { page, applied } => {
                PageRef::Zero { applied }.encode_response(rid, *page, w);
            }
            Response::PageImage {
                page,
                applied,
                diff,
            } => {
                w.u32(rid).u8(8).u32(*page);
                encode_applied(applied, w);
                w.raw(diff.as_bytes());
            }
            Response::Grant { lock, vc, records } => {
                w.u32(rid).u8(3).u32(*lock);
                w.raw(vc.as_bytes()).raw(records.as_bytes());
            }
            Response::BarrierRelease { vc, records } => {
                w.u32(rid).u8(4);
                w.raw(vc.as_bytes()).raw(records.as_bytes());
            }
            Response::MultiDiffs { pages } => {
                let count = begin_multi_diffs(rid, w);
                for (page, pd) in pages {
                    w.u32(*page).u8(pd.tag());
                    pd.encode_body(w);
                }
                w.patch_u16(count, pages.len() as u16);
            }
            Response::Gone => {
                w.u32(rid).u8(9);
            }
        }
    }

    /// The rid of `buf` if it is a response [`Response::decode`] accepts
    /// and every page it carries [`fits`](PageDiffs::fits) the receiver:
    /// what decoding alone cannot know is the receiver's cluster and page
    /// size. One walk that builds nothing, so a frame is checked when it
    /// arrives and decoded once, when its rpc is collected (a grant's or a
    /// release's decode builds nothing either).
    pub(crate) fn check(buf: &[u8], nprocs: usize, page_size: usize) -> Option<u32> {
        let mut r = WireReader::new(buf);
        let rid = r.u32()?;
        match r.u8()? {
            3 | 4 | 9 => Response::decode(buf).map(|(rid, _)| rid),
            _ => {
                let mut fits = true;
                for_each_page(buf, |_, pd| fits &= pd.fits(nprocs, page_size))?;
                fits.then_some(rid)
            }
        }
    }

    /// Decode; returns `(rid, response)`. `None` unless `buf` is exactly
    /// what [`Self::encode`] writes for them.
    pub fn decode(buf: &'a [u8]) -> Option<(u32, Response<'a>)> {
        let mut r = WireReader::new(buf);
        let rid = r.u32()?;
        let resp = match r.u8()? {
            3 => Response::Grant {
                lock: r.u32()?,
                vc: ClockImage::decode(&mut r)?,
                records: Records::decode(&mut r)?,
            },
            4 => Response::BarrierRelease {
                vc: ClockImage::decode(&mut r)?,
                records: Records::decode(&mut r)?,
            },
            7 => {
                let n = r.u16()? as usize;
                let mut pages = Vec::with_capacity(n.min(r.remaining() / MIN_ENTRY));
                for _ in 0..n {
                    let page = r.u32()?;
                    pages.push((page, PageDiffs::decode(r.u8()?, &mut r)?));
                }
                Response::MultiDiffs { pages }
            }
            9 => Response::Gone,
            tag => {
                let page = r.u32()?;
                match PageDiffs::decode(tag, &mut r)? {
                    PageDiffs::Diffs { covered_hi, diffs } => Response::Diffs {
                        page,
                        covered_hi,
                        diffs,
                    },
                    PageDiffs::Full { applied, data } => Response::FullPage {
                        page,
                        applied: applied.iter().collect(),
                        data: data.to_vec(),
                    },
                    PageDiffs::Zero { applied } => Response::ZeroPage {
                        page,
                        applied: applied.iter().collect(),
                    },
                    PageDiffs::Image { applied, diff } => Response::PageImage {
                        page,
                        applied: applied.iter().collect(),
                        diff,
                    },
                }
            }
        };
        (r.remaining() == 0).then_some((rid, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profile;
    use proptest::prelude::*;

    fn vc(vals: &[u32]) -> VectorClock {
        let mut v = VectorClock::new(vals.len());
        for (i, &x) in vals.iter().enumerate() {
            v.set(i, x);
        }
        v
    }

    fn rec(node: u16, seq: u32, vcv: &[u32], pages: &[u32]) -> IntervalRecord {
        IntervalRecord::new(node, seq, &vc(vcv), &mut pages.to_vec(), Profile::Spec)
    }

    /// [`rec`] in the tuned image: `Σvc` in place of the clock.
    fn tuned(node: u16, seq: u32, vcv: &[u32], pages: &[u32]) -> IntervalRecord {
        IntervalRecord::new(node, seq, &vc(vcv), &mut pages.to_vec(), Profile::Tuned)
    }

    /// Bytes that live as long as the test binary.
    fn leak(w: WireWriter) -> &'static [u8] {
        Box::leak(w.finish().into_boxed_slice())
    }

    /// `pages` as a coalesced fetch's list that arrived.
    fn ranges(pages: &[(PageId, u32, u32)]) -> PageRanges<'static> {
        let mut w = WireWriter::new();
        encode_multi_diff(0, pages.iter().copied(), &mut w);
        let mut r = WireReader::new(&leak(w)[5..]);
        PageRanges::decode(&mut r).expect("an encoded list")
    }

    /// A grant of `lock` (a release, with none) as it arrived.
    fn grant(lock: Option<u32>, vcv: &[u32], records: &[IntervalRecord]) -> Response<'static> {
        let mut w = WireWriter::new();
        encode_grant(0, lock, &vc(vcv), records.iter(), &mut w);
        assert_eq!(
            w.as_slice().len(),
            grant_len(lock.is_some(), &vc(vcv), records.iter())
        );
        Response::decode(leak(w)).expect("an encoded grant").1
    }

    type Triple = (PageId, u32, u32);

    /// The owned decode of a `MultiDiff` that borrowing replaced: what
    /// [`Request::decode`] must accept of one, exactly.
    fn owned_multi_diff(buf: &[u8]) -> Option<(u32, Vec<Triple>)> {
        let mut r = WireReader::new(buf);
        let rid = r.u32()?;
        if r.u8()? != 7 {
            return None;
        }
        let n = r.u16()? as usize;
        let mut pages = Vec::with_capacity(n.min(r.remaining() / 12));
        for _ in 0..n {
            pages.push((r.u32()?, r.u32()?, r.u32()?));
        }
        (r.remaining() == 0).then_some((rid, pages))
    }

    /// `diffs` as a diff list that arrived (its bytes live as long as the
    /// test binary).
    fn arrived(diffs: &[(u32, Diff)]) -> SeqDiffs<'static> {
        let mut w = WireWriter::new();
        encode_seq_diffs(diffs, &mut w);
        SeqDiffs::decode(&mut WireReader::new(leak(w))).expect("an encoded list")
    }

    /// `applied` as a seq list that arrived.
    fn seqs(applied: &[u32]) -> Seqs<'static> {
        let mut w = WireWriter::new();
        encode_applied(applied, &mut w);
        Seqs::decode(&mut WireReader::new(leak(w))).expect("an encoded list")
    }

    /// What [`Response::check`] is to accept of a decoded response: every
    /// page it carries has a `nprocs`-node cluster's, `page_size`-byte
    /// page's shape.
    fn fits(resp: &Response, nprocs: usize, page_size: usize) -> bool {
        let page = |pd: &PageDiffs| match pd {
            PageDiffs::Diffs { diffs, .. } => diffs.iter().all(|(_, d)| d.extent() <= page_size),
            PageDiffs::Full { applied, data } => applied.len() == nprocs && data.len() == page_size,
            PageDiffs::Zero { applied } => applied.len() == nprocs,
            PageDiffs::Image { applied, diff } => {
                applied.len() == nprocs && diff.extent() <= page_size
            }
        };
        match resp {
            Response::Grant { .. } | Response::BarrierRelease { .. } | Response::Gone => true,
            Response::MultiDiffs { pages } => pages.iter().all(|(_, pd)| page(pd)),
            Response::Diffs { diffs, .. } => diffs.extent() <= page_size,
            Response::FullPage { applied, data, .. } => {
                applied.len() == nprocs && data.len() == page_size
            }
            Response::ZeroPage { applied, .. } => applied.len() == nprocs,
            Response::PageImage { applied, diff, .. } => {
                applied.len() == nprocs && diff.extent() <= page_size
            }
        }
    }

    /// `d` as an image that arrived.
    fn image(d: &Diff) -> DiffImage<'static> {
        let mut w = WireWriter::new();
        d.encode(&mut w);
        DiffImage::decode(&mut WireReader::new(leak(w))).expect("an encoded diff")
    }

    /// A message of every request kind.
    fn requests() -> Vec<Request<'static>> {
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
            Request::BarrierArrive {
                barrier: 3,
                floor: None,
                vc: vc(&[5, 5]),
                records: vec![tuned(1, 5, &[4, 5], &[3, 4, 300])],
            },
            Request::MultiDiff {
                pages: ranges(&[(3, 1, 4), (9, 2, 2)]),
            },
            Request::MultiDiff {
                pages: ranges(&[(1, 2, 3)]),
            },
            Request::Gone,
        ]
    }

    /// A message of every response kind.
    fn responses() -> Vec<Response<'static>> {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[5] = 9;
        let d = Diff::create(&twin, &cur);
        vec![
            Response::Diffs {
                page: 1,
                covered_hi: 4,
                diffs: arrived(&[(3, d.clone()), (4, Diff::empty())]),
            },
            Response::FullPage {
                page: 2,
                applied: vec![1, 0, 7],
                data: vec![9u8; 128],
            },
            grant(Some(5), &[2, 2], &[rec(1, 2, &[0, 2], &[8])]),
            grant(None, &[3, 3, 3], &[]),
            grant(None, &[6, 6], &[rec(0, 6, &[6, 2], &[1])]),
            grant(Some(1), &[u32::MAX, 1 << 14, 127, 128, 0], &[]),
            grant(Some(6), &[2, 2], &[tuned(1, 2, &[0, 2], &[8, 9, 300])]),
            grant(
                None,
                &[7, 7],
                &[tuned(0, 7, &[7, 2], &[1]), tuned(1, 7, &[u32::MAX, 7], &[])],
            ),
            Response::ZeroPage {
                page: 42,
                applied: vec![3, 0, 9, 1],
            },
            Response::PageImage {
                page: 5,
                applied: vec![2, 0, 1],
                diff: image(&d),
            },
            Response::MultiDiffs {
                pages: vec![
                    (
                        3,
                        PageDiffs::Diffs {
                            covered_hi: 4,
                            diffs: arrived(&[(2, d.clone())]),
                        },
                    ),
                    (
                        9,
                        PageDiffs::Full {
                            applied: seqs(&[1, 2]),
                            data: &[7u8; 16],
                        },
                    ),
                    (
                        12,
                        PageDiffs::Zero {
                            applied: seqs(&[0, 9]),
                        },
                    ),
                    (
                        14,
                        PageDiffs::Image {
                            applied: seqs(&[4, 1]),
                            diff: image(&d),
                        },
                    ),
                ],
            },
            Response::Gone,
        ]
    }

    #[test]
    fn request_roundtrips() {
        for (i, req) in requests().into_iter().enumerate() {
            let buf = req.encode(i as u32);
            assert_eq!(buf.len(), req.encoded_len(), "{req:?}");
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

    /// A fetch answer's pages, handed on one at a time straight from its
    /// frame, are the pages its decode holds; any other response is none.
    #[test]
    fn each_page_of_a_fetch_answer_is_handed_on() {
        for (i, resp) in responses().into_iter().enumerate() {
            let frame = resp.encode(i as u32);
            let mut seen = Vec::new();
            let handed = for_each_page(&frame, |page, pd| seen.push((page, pd)));
            let want = match resp {
                Response::Diffs {
                    page,
                    covered_hi,
                    diffs,
                } => vec![(page, PageDiffs::Diffs { covered_hi, diffs })],
                Response::FullPage {
                    page,
                    applied,
                    data,
                } => {
                    let data: &'static [u8] = data.leak();
                    let applied = seqs(&applied);
                    vec![(page, PageDiffs::Full { applied, data })]
                }
                Response::ZeroPage { page, applied } => {
                    vec![(
                        page,
                        PageDiffs::Zero {
                            applied: seqs(&applied),
                        },
                    )]
                }
                Response::PageImage {
                    page,
                    applied,
                    diff,
                } => {
                    let applied = seqs(&applied);
                    vec![(page, PageDiffs::Image { applied, diff })]
                }
                Response::MultiDiffs { pages } => pages,
                Response::Grant { .. } | Response::BarrierRelease { .. } | Response::Gone => {
                    assert_eq!(handed, None, "{i}: not a page answer");
                    continue;
                }
            };
            assert_eq!(handed, Some(()), "{i}");
            assert_eq!(seen, want, "{i}");
        }
    }

    proptest! {
        /// A whole page as the tuned profile sends it — the page's stable
        /// copy, its twin laid over its spans, held unit by unit — is the
        /// wire image of that copy's diff against the zero page, as
        /// `Diff::create` makes it, and applying it to a page that holds
        /// nothing gives the copy back. Each write is `(twin, off, len, v)`:
        /// before the twin opens, or inside it.
        #[test]
        fn a_whole_page_image_is_its_diff_against_the_zero_page(
            which in 0usize..3,
            writes in proptest::collection::vec(
                (any::<bool>(), 0usize..16384, 1usize..700, any::<u8>()), 0..12)
        ) {
            use crate::page::{Page, Spans, SpareTwins};
            let len = [4096, 8192, 4104][which];
            let mut page = Page::new_resident(len);
            let mut stable = vec![0u8; len];
            for (in_twin, off, n, v) in writes {
                let off = off % len / 4 * 4;
                let n = n.min(len - off);
                if in_twin && page.twin.is_none() {
                    page.start_twin(&mut SpareTwins::default());
                }
                page.write(off, n).fill(v);
                if page.twin.is_none() {
                    stable[off..off + n].fill(v);
                }
            }
            let data = page.stable();
            let want = Diff::create(&vec![0u8; len], &stable);
            prop_assert_eq!(data.is_zero(), want.run_count() == 0);
            let mut w = WireWriter::new();
            let copied = PageRef::Image { applied: &[3, 1], data }.encode_response(9, 4, &mut w);
            prop_assert_eq!(copied, want.payload_bytes());
            let frame = w.finish();
            let mut spec = WireWriter::new();
            want.encode(&mut spec);
            let Some((9, Response::PageImage { page: 4, applied, diff })) = Response::decode(&frame)
            else {
                panic!("not a page image");
            };
            prop_assert_eq!(applied, vec![3, 1]);
            prop_assert_eq!(diff.as_bytes(), spec.as_slice());
            let mut back = Spans::zero(len);
            crate::diff::apply_page(&diff, &mut back);
            let mut got = vec![0u8; len];
            back.write_into(&mut got);
            prop_assert_eq!(got, stable);
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
            diffs: arrived(&[]),
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
        let pages = [(3, 1, 4), (9, 2, 2), (12, 1, 9)];
        let req = Request::MultiDiff {
            pages: ranges(&pages),
        };
        let buf = req.encode(55);
        assert_eq!(buf.len(), req.encoded_len());
        assert_eq!(Request::decode(&buf), Some((55, req)));
        assert_eq!(owned_multi_diff(&buf), Some((55, pages.to_vec())));

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
                        diffs: arrived(&[(2, d), (4, Diff::empty())]),
                    },
                ),
                (
                    9,
                    PageDiffs::Full {
                        applied: seqs(&[1, 2]),
                        data: &[7u8; 96],
                    },
                ),
                (
                    12,
                    PageDiffs::Zero {
                        applied: seqs(&[0, 9]),
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

    /// `sync64_fast`'s barrier release: 64 nodes, 63 writers each with
    /// one one-page interval since the last barrier, 40 rounds in. In the
    /// tuned image the release is at most a quarter of the spec one.
    #[test]
    fn a_tuned_release_is_a_quarter_of_the_spec_one() {
        const N: usize = 64;
        let mut merged = VectorClock::new(N);
        (0..N).for_each(|p| merged.set(p, 40));
        let release = |profile| {
            let records: Vec<_> = (1..N as u16)
                .map(|w| {
                    let mut at = merged.clone();
                    (0..N)
                        .filter(|&p| p > w as usize)
                        .for_each(|p| at.set(p, 39));
                    IntervalRecord::new(w, 40, &at, &mut [0], profile)
                })
                .collect();
            let mut w = WireWriter::new();
            encode_grant(9, None, &merged, records.iter(), &mut w);
            w.finish()
        };
        let (spec, tuned) = (release(Profile::Spec), release(Profile::Tuned));
        assert!(
            4 * tuned.len() <= spec.len(),
            "{} B against {} B",
            tuned.len(),
            spec.len()
        );
        // The receiver reads the same records off both: the same pages and
        // the same sums, so the same order.
        let none = IntervalLog::default();
        let read = |frame: &[u8]| match Response::decode(frame) {
            Some((9, Response::BarrierRelease { records, .. })) => records
                .iter_in(&none)
                .map(|r| (r.node(), r.seq(), r.sum(), r.pages().collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
            other => panic!("expected a release, got {other:?}"),
        };
        assert_eq!(read(&spec), read(&tuned));
    }

    #[test]
    fn gone_roundtrips_in_its_rid_envelope() {
        let buf = Request::Gone.encode(77);
        assert_eq!(buf, [77, 0, 0, 0, 9], "a rid and a kind byte, no body");
        assert_eq!(Request::decode(&buf), Some((77, Request::Gone)));
        assert!(Request::decode(&buf[..4]).is_none());
        // Its answer is the same five bytes on the response channel.
        let answer = Response::Gone.encode(77);
        assert_eq!(answer, buf);
        assert_eq!(Response::decode(&answer), Some((77, Response::Gone)));
        assert_eq!(Response::check(&answer, 4, 4096), Some(77));
        assert!(Response::decode(&answer[..4]).is_none());
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
        let mut buf = grant(None, &[1, 1], &[]).encode(7);
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
                let decoded = Request::decode(&buf);
                let borrowed = match &decoded {
                    Some((rid, Request::MultiDiff { pages })) => Some((*rid, pages.iter().collect())),
                    _ => None,
                };
                prop_assert_eq!(borrowed, owned_multi_diff(&buf));
                if let Some((rid, req)) = decoded {
                    prop_assert_eq!(req.encode(rid), buf);
                }
            }
        }

        /// [`request_decode_is_total_and_canonical`] for responses, which
        /// [`Response::check`] accepts exactly when they decode and fit the
        /// receiver. A log holding a grant's or a release's records changes
        /// which objects they decode to, never what they are.
        #[test]
        fn response_decode_is_total_and_canonical(
            junk in proptest::collection::vec(any::<u8>(), 0..64),
            which: usize,
            kind in 0u8..3,
            at: usize,
            byte: u8,
            nprocs in 2usize..5,
            // Page sizes the test responses' pages and diffs do and do not fit.
            size in 0usize..4,
        ) {
            let page_size = [16, 64, 128, 4096][size];
            let all = responses();
            let image = all[which % all.len()].encode(which as u32);
            let mut known = IntervalLog::new(4);
            let none = IntervalLog::default();
            for resp in &all {
                if let Response::Grant { records, .. } | Response::BarrierRelease { records, .. } = resp {
                    records.iter_in(&none).for_each(|r| { known.insert(r); });
                }
            }
            for buf in [junk, crate::wire::mutated(&image, kind, at, byte)] {
                let decoded = Response::decode(&buf);
                if let Some((_, Response::Grant { records, .. } | Response::BarrierRelease { records, .. })) = &decoded {
                    let fresh: Vec<_> = records.iter_in(&none).collect();
                    prop_assert_eq!(records.iter_in(&known).collect::<Vec<_>>(), fresh);
                }
                let fitting = decoded.as_ref().filter(|(_, r)| fits(r, nprocs, page_size));
                prop_assert_eq!(Response::check(&buf, nprocs, page_size), fitting.map(|(rid, _)| *rid));
                if let Some((rid, resp)) = decoded {
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
