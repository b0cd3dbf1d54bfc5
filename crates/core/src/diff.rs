//! Twins and diffs.
//!
//! TreadMarks detects what a processor wrote to a page by comparing the
//! page against its *twin* (a copy taken at the first write of the
//! interval) word by word, and encodes the changed runs. Diffs are what
//! cross the wire instead of whole pages — the Diff microbenchmark of the
//! paper's Figure 3 times exactly this machinery.
//!
//! A writer keeps each diff until a reader asks, so a [`Diff`] is held as
//! what changed — a 2-bit class per 64-word span (none, all or some
//! changed), a mask per mixed span, the changed words — and its `(off,
//! len)` run list is written only by [`Diff::encode`]: a red-black SOR page
//! (512 one-word runs) holds 2 180 bytes and sends 4 098. [`Diff::create`]
//! fills a stack mask, one bit per word, and sizes its one allocation from
//! the mask's popcounts; every walk over runs pairs the masks' rising and
//! falling edges (`each_run`). Runs equal the scalar word-by-word scan
//! ([`Diff::create_scalar`], the executable specification), property-tested.
//!
//! A reader keeps nothing of a diff it fetches: a [`DiffImage`] is the wire
//! image, checked once and borrowed from the frame it arrived in, and it is
//! applied from there run by run. The held form and the image apply
//! through the same code (`Delta`).
//!
//! A page copy and its twin hold only the units written or received
//! ([`Spans`]: a 64-byte unit of a 4 KiB page, at most a whole span of a
//! larger one), so the page-side entry points work unit by unit:
//! [`Diff::of_twin`] compares only the units the twin copied, a span or a
//! quarter of one at a time, `apply_page` holds the units a diff's runs
//! reach, and `apply_held` writes only into the units a twin holds. On a
//! page holding every unit each is the slice path of [`Diff::create`] /
//! [`Diff::apply`], which stay the dense entry points.

use std::iter::successors;
use std::ops::Range;

use crate::page::{Spans, MAX_PAGE};
use crate::wire::{WireReader, WireWriter};

/// Comparison granularity, bytes. TreadMarks compares 32-bit words.
pub const WORD: usize = 4;

/// Page bytes one mask word covers, 64 words: the unit of the change
/// masks and of the diff's span classes.
pub const SPAN: usize = 64 * WORD;

/// A quarter of a span: sixteen words, the smallest unit a page copy is
/// held in.
const QUARTER: usize = SPAN / 4;

// A page's unit is a 64th of it rounded up to a power of two: a quarter, a
// half or the whole of a span, never more.
const _: () = assert!(crate::page::MAX_PAGE <= 64 * SPAN);

/// Mask words for the largest u16-addressable page.
const MASK_WORDS: usize = (u16::MAX as usize).div_ceil(SPAN);

/// The furthest a run may reach: one word past the last word-aligned u16
/// offset.
const MAX_EXTENT: usize = u16::MAX as usize + 1;

/// A span's class, two bits of a little-endian u32 that classes sixteen
/// spans: every word of it changed, or some (its mask is stored). Zero is
/// none.
const ALL: u8 = 1;
const MIXED: u8 = 2;

/// Size of the run-count header and of one run's `(off, len)` header.
const COUNT_HDR: usize = 2;
const RUN_HDR: usize = 4;

/// Bit `k` set iff word `k` of the `B` bytes (a [`SPAN`] or a
/// [`QUARTER`]) differs. Both loops are flat and fixed-length, so the
/// compiler vectorises them: one `!=` per word into a byte, then each 8
/// bytes of 0 / 1 gathered into 8 bits by one multiply (byte `j` lands on
/// bit `56 + j`, and no two partial products overlap).
fn word_mask<const B: usize>(twin: &[u8; B], cur: &[u8; B]) -> u64 {
    const { assert!(B <= SPAN && B.is_multiple_of(8 * WORD)) };
    let word = |b: &[u8]| u32::from_ne_bytes(b.try_into().unwrap());
    let mut ne = [0u8; 64];
    for (k, (a, b)) in ne
        .iter_mut()
        .zip(twin.chunks_exact(WORD).zip(cur.chunks_exact(WORD)))
    {
        *k = (word(a) != word(b)) as u8;
    }
    ne[..B / WORD]
        .chunks_exact(8)
        .enumerate()
        .fold(0, |m, (i, bytes)| {
            let v = u64::from_le_bytes(bytes.try_into().unwrap());
            m | (v.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
        })
}

/// Set in `mask` the bits of the words that differ between `twin` and
/// `cur`, page bytes `off..` with `off` on a [`QUARTER`]: a whole span at
/// a time where one is, else a quarter, and word by word only where the
/// page ends inside a quarter.
fn mark(mask: &mut [u64], mut off: usize, mut twin: &[u8], mut cur: &[u8]) {
    debug_assert!(off.is_multiple_of(QUARTER) && twin.len() == cur.len());
    while !twin.is_empty() {
        let take = if off.is_multiple_of(SPAN) && twin.len() >= SPAN {
            SPAN
        } else {
            QUARTER.min(twin.len())
        };
        let ((a, rest_a), (b, rest_b)) = (twin.split_at(take), cur.split_at(take));
        if a != b {
            let m = match take {
                SPAN => word_mask::<SPAN>(a.try_into().unwrap(), b.try_into().unwrap()),
                QUARTER => word_mask::<QUARTER>(a.try_into().unwrap(), b.try_into().unwrap()),
                _ => tail_mask(a, b),
            };
            mask[off / SPAN] |= m << (off % SPAN / WORD);
        }
        (twin, cur, off) = (rest_a, rest_b, off + take);
    }
}

/// The mask word of a span shorter than [`SPAN`]; a partial last word is
/// compared on the bytes it has.
fn tail_mask(twin: &[u8], cur: &[u8]) -> u64 {
    twin.chunks(WORD)
        .zip(cur.chunks(WORD))
        .enumerate()
        .fold(0, |m, (k, (a, b))| m | ((a != b) as u64) << k)
}

/// Bit `q` set iff 16-bit quarter `q` of `m` is not zero: each quarter
/// ORed down onto its low bit, and the four low bits gathered by one
/// multiply (bit `16q` lands on bit `48 + q`, and no two partial products
/// overlap there).
fn quarters(m: u64) -> u64 {
    let mut x = m | m >> 8;
    x |= x >> 4;
    x |= x >> 2;
    x |= x >> 1;
    (x & 0x0001_0001_0001_0001).wrapping_mul(0x0001_0002_0004_0008) >> 48 & 0xf
}

/// `true` iff every byte is zero, scanned a u64 at a time (the full-page
/// serve path uses this to spot freshly-zeroed pages and send a compact
/// `ZeroPage` marker instead of the payload).
pub fn is_all_zero(buf: &[u8]) -> bool {
    let mut chunks = buf.chunks_exact(8);
    chunks.all(|c| u64::from_ne_bytes(c.try_into().unwrap()) == 0)
        && chunks.remainder().iter().all(|&b| b == 0)
}

/// Bytes of class words a diff reaching `extent` bytes holds.
fn class_bytes(extent: usize) -> usize {
    extent.div_ceil(SPAN).div_ceil(16) * 4
}

/// `len` zero bytes, allocated and then cleared: for the few hundred bytes
/// a sparse diff holds, glibc's `calloc` costs nearly twice as much.
#[allow(clippy::slow_vector_initialization)]
fn zeroed(len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len);
    buf.resize(len, 0);
    buf
}

/// Set span `j`'s class.
fn set_class(classes: &mut [u8], j: usize, class: u8) {
    classes[j / 4] |= class << (j % 4 * 2);
}

/// Call `run(start, end)` for every run, in words, ascending, of the
/// classes and masks in `head` (a diff reaching `extent` bytes). Only
/// spans with a class are visited: sixteen to a class word, each found by
/// its lowest set bit. With `up` a span's mask shifted up one word,
/// `starts = m & !up` and `ends = !m & up` alternate, so each start pairs
/// with the next end; a run still open at bit 63 is closed by the next
/// span's first end, or where the visited spans stop being consecutive.
fn each_run(head: &[u8], extent: usize, mut run: impl FnMut(usize, usize)) {
    let (classes, masks) = head.split_at(class_bytes(extent));
    let mut masks = masks.chunks_exact(8);
    let (mut prev, mut open, mut next) = (0u64, 0, 0);
    for (k, c) in classes.chunks_exact(4).enumerate() {
        let c = u32::from_le_bytes(c.try_into().unwrap());
        let mut live = (c | c >> 1) & 0x5555_5555;
        while live != 0 {
            let bit = live.trailing_zeros();
            live &= live - 1;
            let base = 64 * (16 * k + bit as usize / 2);
            let m = if c >> bit & 3 == u32::from(ALL) {
                u64::MAX
            } else {
                let m = masks.next().expect("a stored mask per mixed span");
                u64::from_le_bytes(m.try_into().unwrap())
            };
            if base != next && prev >> 63 == 1 {
                run(open, next);
                prev = 0;
            }
            let up = m << 1 | prev >> 63;
            let (mut starts, mut ends) = (m & !up, !m & up);
            if prev >> 63 == 1 && ends != 0 {
                run(open, base + ends.trailing_zeros() as usize);
                ends &= ends - 1;
            }
            while starts != 0 {
                let s = base + starts.trailing_zeros() as usize;
                starts &= starts - 1;
                if ends == 0 {
                    open = s;
                } else {
                    run(s, base + ends.trailing_zeros() as usize);
                    ends &= ends - 1;
                }
            }
            (prev, next) = (m, base + 64);
        }
    }
    if prev >> 63 == 1 {
        run(open, next);
    }
}

/// `dst.copy_from_slice(src)`, with the one-word runs that fill a
/// red-black page copied as a move rather than a `memcpy` call.
fn copy_run(dst: &mut [u8], src: &[u8]) {
    match (
        <&mut [u8; WORD]>::try_from(&mut *dst),
        <&[u8; WORD]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// Set the bit of every word `bytes` reaches (its end may fall inside a
/// word).
fn mark_run(mask: &mut [u64; MASK_WORDS], bytes: Range<usize>) {
    for w in bytes.start / WORD..bytes.end.div_ceil(WORD) {
        mask[w / 64] |= 1 << (w % 64);
    }
}

/// The runs of words that differ between `twin` and `cur`, compared one
/// word at a time: the specification of where a run starts and ends.
fn scalar_runs<'a>(twin: &'a [u8], cur: &'a [u8]) -> impl Iterator<Item = Range<usize>> + 'a {
    let n = cur.len();
    let differs = move |i: usize| twin[i..(i + WORD).min(n)] != cur[i..(i + WORD).min(n)];
    let run_from = move |mut i: usize| {
        while i < n && !differs(i) {
            i += WORD;
        }
        let start = i;
        while i < n && differs(i) {
            i += WORD;
        }
        (start < n).then(|| start..i.min(n))
    };
    successors(run_from(0), move |r| run_from(r.end))
}

/// A page delta as applying it needs it — its runs, how far they reach and
/// the page units they change — whether held ([`Diff`]) or as it arrived
/// ([`DiffImage`]). [`apply`], [`apply_page`] and [`apply_held`] are the
/// one implementation of each for both.
pub(crate) trait Delta {
    /// End offset of the last run (0 when empty).
    fn extent(&self) -> usize;

    /// Call `f(offset, payload)` for each run, ascending.
    fn each<'s>(&'s self, f: impl FnMut(usize, &'s [u8]));

    /// The `unit`-byte pieces of the page the runs change words in, one
    /// bit each, for a `unit` of a quarter, a half or the whole of a
    /// [`SPAN`], on a page the delta does not reach past.
    fn touched(&self, unit: usize) -> u64;
}

/// Overlay `d` onto `target`: only `copy_from_slice` into it, never a
/// reallocation. Panics, before writing, if `target` is shorter than the
/// delta's extent.
fn apply(d: &impl Delta, target: &mut [u8]) {
    let target = &mut target[..d.extent()];
    d.each(|off, data| copy_run(&mut target[off..off + data.len()], data));
}

/// Apply `d` to a page copy, holding the units its runs reach, and to the
/// units its twin holds, if it has one: what a fetched diff and a replayed
/// own diff do.
pub(crate) fn apply_to(d: &impl Delta, page: &mut Spans, twin: Option<&mut Spans>) {
    apply_page(d, page);
    if let Some(twin) = twin {
        apply_held(d, twin);
    }
}

/// [`apply`] to a page copy: the units the runs reach are held first
/// (zeroed, if they were not), so each run is one slice.
pub(crate) fn apply_page(d: &impl Delta, page: &mut Spans) {
    assert!(d.extent() <= page.page_len(), "diff reaches past the page");
    if !page.is_dense() {
        page.hold(d.touched(page.unit()));
    }
    if page.is_dense() {
        return apply(d, page.whole());
    }
    d.each(|off, data| copy_run(page.write(off, data.len()), data));
}

/// [`apply`] to a twin: only into the units it holds. One it does not hold
/// reads as the page, which gets the delta too.
fn apply_held(d: &impl Delta, twin: &mut Spans) {
    assert!(d.extent() <= twin.page_len(), "diff reaches past the page");
    if twin.is_dense() {
        return apply(d, twin.whole());
    }
    if d.touched(twin.unit()) & twin.held() != 0 {
        d.each(|off, data| twin.overlay(off, data));
    }
}

/// A page delta, held as what changed: one buffer of
/// `[class words][mask per mixed span, u64][changed words]`. Its runs are
/// non-empty, ascending and at least a word apart, and only the last may
/// end inside a word — true of everything [`Diff::create`] emits and
/// what [`DiffImage::decode`] admits — so [`Diff::apply`] needs no per-run
/// validation beyond [`extent`](Diff::extent)` <= target.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    buf: Box<[u8]>,
    /// Bytes of `buf` before the words: classes and masks.
    head: u16,
    runs: u16,
    /// End offset of the last run (0 when empty).
    extent: u32,
}

impl Diff {
    fn new(buf: Vec<u8>, head: usize, runs: usize, extent: usize) -> Diff {
        debug_assert_eq!(buf.len(), buf.capacity());
        Diff {
            buf: buf.into_boxed_slice(),
            head: head as u16,
            runs: runs as u16,
            extent: extent as u32,
        }
    }

    /// Compare `twin` (before) and `cur` (after); keep the changed runs at
    /// word granularity. Slices must be the same length. A stack mask gets
    /// bit `w` set iff word `w` differs (`word_mask`), and `from_mask`
    /// builds the diff from it.
    pub fn create(twin: &[u8], cur: &[u8]) -> Diff {
        assert_eq!(twin.len(), cur.len(), "twin/page size mismatch");
        let n = cur.len();
        assert!(n <= u16::MAX as usize, "page exceeds u16 offsets");
        let mut mask = [0u64; MASK_WORDS];
        let spans = twin.chunks_exact(SPAN).zip(cur.chunks_exact(SPAN));
        for (m, (a, b)) in mask.iter_mut().zip(spans) {
            let (a, b): (&[u8; SPAN], &[u8; SPAN]) = (a.try_into().unwrap(), b.try_into().unwrap());
            if a != b {
                *m = word_mask(a, b);
            }
        }
        let full = n / SPAN * SPAN;
        if full < n {
            mask[n / SPAN] = tail_mask(&twin[full..], &cur[full..]);
        }
        Diff::from_mask(&mask, n, |start, end| &cur[start..end])
    }

    /// [`Diff::create`] of a page copy against its twin, comparing only
    /// the units the twin holds: the others were not written. A twin's
    /// units are units its page holds, so each run of them, like each run
    /// of a diff's words, is one slice of the page; with every unit held
    /// this is `create` on the two slices.
    pub fn of_twin(twin: &Spans, page: &Spans) -> Diff {
        if twin.is_dense() {
            return Diff::create(twin.held_slice(), page.held_slice());
        }
        let held = "a page holds every unit its twin does";
        let mut mask = [0u64; MASK_WORDS];
        for (off, a) in twin.runs() {
            mark(&mut mask, off, a, page.get(off, a.len()).expect(held));
        }
        Diff::from_mask(&mask, page.page_len(), |start, end| {
            page.get(start, end - start).expect(held)
        })
    }

    /// The diff of a page of `n` bytes whose changed words are the set
    /// bits of `mask`, gathered through `page(start, end)` (page bytes
    /// `start..end`, one run's).
    ///
    /// The popcounts size the buffer exactly: `m & !(m << 1 | carry)`
    /// marks the first word of each run, the words are four bytes per set
    /// bit (less whatever a partial last word lacks), and every mask word
    /// that is neither empty nor full is stored. Then the classes and
    /// mixed masks are written and each run's words gathered.
    #[inline]
    fn from_mask<'a>(
        mask: &[u64; MASK_WORDS],
        n: usize,
        page: impl Fn(usize, usize) -> &'a [u8],
    ) -> Diff {
        let spans = mask.iter().rposition(|&m| m != 0).map_or(0, |i| i + 1);
        let mask = &mask[..spans];

        let (mut runs, mut changed, mut mixed, mut carry) = (0, 0, 0, 0);
        for &m in mask {
            runs += (m & !(m << 1 | carry)).count_ones() as usize;
            changed += m.count_ones() as usize;
            mixed += usize::from(m != u64::MAX && m != 0);
            carry = m >> 63;
        }
        let words = mask
            .last()
            .map_or(0, |m| 64 * spans - m.leading_zeros() as usize);
        let extent = (words * WORD).min(n);
        let class_len = class_bytes(extent);
        let head = class_len + 8 * mixed;
        let mut buf = zeroed(head + changed * WORD - (words * WORD - extent));
        let (held, words) = buf.split_at_mut(head);
        let (classes, masks) = held.split_at_mut(class_len);
        let mut masks = masks.chunks_exact_mut(8);
        for (j, &m) in mask.iter().enumerate() {
            if m == u64::MAX {
                set_class(classes, j, ALL);
            } else if m != 0 {
                let slot = masks
                    .next()
                    .expect("the popcounts counted every mixed span");
                slot.copy_from_slice(&m.to_le_bytes());
                set_class(classes, j, MIXED);
            }
        }
        let mut at = 0;
        each_run(held, extent, move |s, e| {
            let data = page(s * WORD, (e * WORD).min(n));
            copy_run(&mut words[at..at + data.len()], data);
            at += data.len();
        });
        Diff::new(buf, head, runs, extent)
    }

    /// The original word-by-word comparison: the executable specification
    /// for run boundaries, and the benchmark baseline the mask-driven
    /// [`Diff::create`] is measured against.
    pub fn create_scalar(twin: &[u8], cur: &[u8]) -> Diff {
        assert_eq!(twin.len(), cur.len(), "twin/page size mismatch");
        let n = cur.len();
        assert!(n <= u16::MAX as usize, "page exceeds u16 offsets");
        let mut mask = [0u64; MASK_WORDS];
        scalar_runs(twin, cur).for_each(|r| mark_run(&mut mask, r));
        Diff::from_mask(&mask, n, |start, end| &cur[start..end])
    }

    /// An empty diff (no words changed).
    pub fn empty() -> Diff {
        Diff::new(Vec::new(), 0, 0, 0)
    }

    /// A diff carrying the entire (non-empty) page (used when a
    /// whole-page overwrite skipped fetching the old content: every word
    /// is authoritative).
    pub fn full(cur: &[u8]) -> Diff {
        assert!(!cur.is_empty(), "full diff of an empty page");
        assert!(cur.len() <= u16::MAX as usize, "page exceeds u16 offsets");
        let mut mask = [0u64; MASK_WORDS];
        mark_run(&mut mask, 0..cur.len());
        Diff::from_mask(&mask, cur.len(), |start, end| &cur[start..end])
    }

    pub fn run_count(&self) -> usize {
        self.runs as usize
    }

    /// Total payload bytes carried (what the wire pays for).
    pub fn payload_bytes(&self) -> usize {
        self.buf.len() - self.head as usize
    }

    /// Encoded size on the wire: header + per-run (offset u16, len u16) +
    /// payload.
    pub fn encoded_len(&self) -> usize {
        COUNT_HDR + RUN_HDR * self.run_count() + self.payload_bytes()
    }

    /// Heap bytes the diff holds while it is retained.
    pub fn retained_bytes(&self) -> usize {
        self.buf.len()
    }

    /// End offset of the last run: the diff applies to any target at
    /// least this long. A receiver checks it against its page size once.
    pub fn extent(&self) -> usize {
        self.extent as usize
    }

    /// The runs in ascending order as `(offset, payload)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut runs = Vec::with_capacity(self.run_count());
        self.each(|off, data| runs.push((off, data)));
        runs.into_iter()
    }

    /// Overlay the diff onto `target` (the receiving node's copy).
    /// In-place: only `copy_from_slice` into the existing page, never a
    /// reallocation. Panics if `target` is shorter than [`Diff::extent`].
    pub fn apply(&self, target: &mut [u8]) {
        apply(self, target);
    }

    /// Write the wire image, `[runs u16][(off u16, len u16, payload)…]`
    /// little-endian: each run's header and payload by index into space
    /// sized once from [`Diff::encoded_len`].
    pub fn encode(&self, w: &mut WireWriter) {
        let out = w.raw_mut(self.encoded_len());
        out[..COUNT_HDR].copy_from_slice(&self.runs.to_le_bytes());
        let mut at = COUNT_HDR;
        self.each(|off, data| {
            let run = &mut out[at..at + RUN_HDR + data.len()];
            run[..2].copy_from_slice(&(off as u16).to_le_bytes());
            run[2..RUN_HDR].copy_from_slice(&(data.len() as u16).to_le_bytes());
            copy_run(&mut run[RUN_HDR..], data);
            at += run.len();
        });
        debug_assert_eq!(at, out.len());
    }
}

impl Delta for Diff {
    fn extent(&self) -> usize {
        self.extent as usize
    }

    fn each<'s>(&'s self, mut f: impl FnMut(usize, &'s [u8])) {
        let (head, mut words) = self.buf.split_at(self.head as usize);
        let extent = self.extent();
        each_run(head, extent, |s, e| {
            let off = s * WORD;
            let (data, rest) = words.split_at((e * WORD).min(extent) - off);
            words = rest;
            f(off, data);
        });
    }

    /// A span every word of which changed reaches all of its units; a
    /// mixed span, those holding a non-zero 16-bit quarter of its mask.
    /// Only spans with a class are visited.
    fn touched(&self, unit: usize) -> u64 {
        let per = SPAN / unit;
        debug_assert!(matches!(per, 1 | 2 | 4), "a {unit}-byte unit");
        let (classes, masks) = self.buf[..self.head as usize].split_at(class_bytes(self.extent()));
        let mut masks = masks.chunks_exact(8);
        let mut units = 0;
        for (k, c) in classes.chunks_exact(4).enumerate() {
            let c = u32::from_le_bytes(c.try_into().unwrap());
            let mut live = (c | c >> 1) & 0x5555_5555;
            while live != 0 {
                let bit = live.trailing_zeros();
                live &= live - 1;
                let q = if c >> bit & 3 == u32::from(ALL) {
                    0xf
                } else {
                    let m = masks.next().expect("a stored mask per mixed span");
                    quarters(u64::from_le_bytes(m.try_into().unwrap()))
                };
                // Quarters to units: each pair to a half, or all four to
                // the span.
                let u = match per {
                    4 => q,
                    2 => (q | q >> 1) & 1 | (q | q >> 1) >> 1 & 2,
                    _ => u64::from(q != 0),
                };
                units |= u << (per * (16 * k + bit as usize / 2));
            }
        }
        units
    }
}

/// What the zero page reads as, a span at a time.
static ZERO_SPAN: [u8; SPAN] = [0; SPAN];

/// A page's diff against the zero page — its runs of non-zero words —
/// found but not held: the mask of those words, from which
/// [`ZeroDiff::encode`] writes the wire image of a [`Diff`] straight into a
/// frame. What a whole-page answer sends under the tuned profile; a
/// receiver applies it to a page that holds no unit, which then holds only
/// the units the runs reach. Lives on the encoder's stack.
pub(crate) struct ZeroDiff {
    mask: [u64; MAX_PAGE / SPAN],
    runs: usize,
    payload: usize,
}

impl ZeroDiff {
    /// Scan a `len`-byte page, whole words long, whose bytes that may be
    /// non-zero `pieces` hands over as `(offset, bytes)`, each offset on a
    /// [`QUARTER`]; everything else reads as zero.
    pub(crate) fn scan(len: usize, pieces: impl FnOnce(&mut dyn FnMut(usize, &[u8]))) -> ZeroDiff {
        assert!(
            len <= MAX_PAGE && len.is_multiple_of(WORD),
            "a {len}-byte page"
        );
        let mut mask = [0u64; MAX_PAGE / SPAN];
        pieces(&mut |off, bytes| {
            for (i, chunk) in bytes.chunks(SPAN).enumerate() {
                mark(&mut mask, off + i * SPAN, &ZERO_SPAN[..chunk.len()], chunk);
            }
        });
        let (mut runs, mut changed, mut carry) = (0, 0, 0);
        for &m in &mask {
            runs += (m & !(m << 1 | carry)).count_ones() as usize;
            changed += m.count_ones() as usize;
            carry = m >> 63;
        }
        ZeroDiff {
            mask,
            runs,
            payload: changed * WORD,
        }
    }

    /// Payload bytes the image carries.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// Bytes [`Self::encode`] writes.
    fn encoded_len(&self) -> usize {
        COUNT_HDR + RUN_HDR * self.runs + self.payload
    }

    /// Call `run(start, end)`, in words, for each run of set bits.
    fn each_run(&self, mut run: impl FnMut(usize, usize)) {
        let (mut open, mut prev) = (0, 0u64);
        for (j, &m) in self.mask.iter().enumerate() {
            let up = m << 1 | prev >> 63;
            let (starts, mut edges) = (m & !up, m & !up | !m & up);
            while edges != 0 {
                let k = edges.trailing_zeros() as usize;
                edges &= edges - 1;
                if starts >> k & 1 == 1 {
                    open = 64 * j + k;
                } else {
                    run(open, 64 * j + k);
                }
            }
            prev = m;
        }
        if prev >> 63 == 1 {
            run(open, 64 * self.mask.len());
        }
    }

    /// Write the wire image [`Diff::encode`] writes for this diff into
    /// `w`, each run's payload read from the page by `read(offset, out)`.
    pub(crate) fn encode(&self, w: &mut WireWriter, read: impl Fn(usize, &mut [u8])) {
        let out = w.raw_mut(self.encoded_len());
        out[..COUNT_HDR].copy_from_slice(&(self.runs as u16).to_le_bytes());
        let mut at = COUNT_HDR;
        self.each_run(|s, e| {
            let (off, end) = (s * WORD, e * WORD);
            let run = &mut out[at..at + RUN_HDR + end - off];
            run[..2].copy_from_slice(&(off as u16).to_le_bytes());
            run[2..RUN_HDR].copy_from_slice(&((end - off) as u16).to_le_bytes());
            read(off, &mut run[RUN_HDR..]);
            at += run.len();
        });
        debug_assert_eq!(at, out.len());
    }
}

/// A diff as it arrived: its wire image, `[runs u16][(off u16, len u16,
/// payload)…]`, borrowed from the frame that carried it. Only
/// [`DiffImage::decode`] makes one from unchecked bytes, so its runs are
/// those of a [`Diff`] — non-empty, ascending, at least a word apart, only
/// the last ending inside a word — and a receiver checks its
/// [`extent`](DiffImage::extent) against its page once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffImage<'a> {
    bytes: &'a [u8],
    extent: u32,
}

impl<'a> DiffImage<'a> {
    /// Accept exactly what [`Diff::encode`] emits, in one walk over the run
    /// headers. `None` for a truncated image or runs that are empty, off a
    /// word, less than a word apart, ending inside a word before the last,
    /// or reaching past 64 KiB.
    pub fn decode(r: &mut WireReader<'a>) -> Option<DiffImage<'a>> {
        let (&count, body) = r.peek_rest().split_first_chunk()?;
        let (mut at, mut extent) = (0, 0usize);
        for k in 0..u16::from_le_bytes(count) {
            let &[o0, o1, l0, l1] = body.get(at..)?.first_chunk()?;
            let off = u16::from_le_bytes([o0, o1]) as usize;
            let len = u16::from_le_bytes([l0, l1]) as usize;
            let after_gap = k == 0 || (extent.is_multiple_of(WORD) && off > extent);
            if len == 0 || !off.is_multiple_of(WORD) || !after_gap || off + len > MAX_EXTENT {
                return None;
            }
            extent = off + len;
            at += RUN_HDR + len;
        }
        let bytes = r.raw_bytes(COUNT_HDR + at)?;
        Some(DiffImage {
            bytes,
            extent: extent as u32,
        })
    }

    /// The image at the start of `bytes`, which [`DiffImage::decode`]
    /// accepted when they arrived: read again without its checks.
    pub(crate) fn reread(bytes: &'a [u8]) -> DiffImage<'a> {
        let count = u16::from_le_bytes([bytes[0], bytes[1]]);
        let (mut at, mut extent) = (COUNT_HDR, 0);
        for _ in 0..count {
            let off = u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
            let len = u16::from_le_bytes([bytes[at + 2], bytes[at + 3]]) as usize;
            extent = off + len;
            at += RUN_HDR + len;
        }
        let image = DiffImage {
            bytes: &bytes[..at],
            extent: extent as u32,
        };
        debug_assert_eq!(
            DiffImage::decode(&mut WireReader::new(image.bytes)),
            Some(image)
        );
        image
    }

    /// The wire image.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Total payload bytes carried.
    pub fn payload_bytes(&self) -> usize {
        let runs = u16::from_le_bytes([self.bytes[0], self.bytes[1]]) as usize;
        self.bytes.len() - COUNT_HDR - RUN_HDR * runs
    }

    /// End offset of the last run (0 when empty).
    pub fn extent(&self) -> usize {
        self.extent as usize
    }

    /// The runs in ascending order as `(offset, payload)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &'a [u8])> {
        let mut rest = &self.bytes[COUNT_HDR..];
        std::iter::from_fn(move || {
            let (&[o0, o1, l0, l1], tail) = rest.split_first_chunk()?;
            let (data, tail) = tail.split_at(u16::from_le_bytes([l0, l1]) as usize);
            rest = tail;
            Some((u16::from_le_bytes([o0, o1]) as usize, data))
        })
    }

    /// [`Diff::apply`], from the image.
    pub fn apply(&self, target: &mut [u8]) {
        apply(self, target);
    }
}

impl Delta for DiffImage<'_> {
    fn extent(&self) -> usize {
        self.extent as usize
    }

    fn each<'s>(&'s self, mut f: impl FnMut(usize, &'s [u8])) {
        self.runs().for_each(|(off, data)| f(off, data));
    }

    /// Each run's words lie in the units from its first byte's to its
    /// last's.
    fn touched(&self, unit: usize) -> u64 {
        let shift = unit.trailing_zeros();
        self.runs().fold(0, |units, (off, data)| {
            let (first, last) = (off >> shift, (off + data.len() - 1) >> shift);
            units | u64::MAX >> (63 - last) & u64::MAX << first
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Range;

    /// `d`'s wire image decodes to an image of `d`'s runs.
    fn roundtrips(d: &Diff) -> bool {
        let buf = encoded(d);
        let back = decode(&buf).expect("decode");
        back.runs().eq(d.runs())
            && (back.extent(), back.payload_bytes()) == (d.extent(), d.payload_bytes())
            && back.as_bytes().len() == d.encoded_len()
    }

    #[test]
    fn no_change_is_empty() {
        let page = vec![7u8; 128];
        let d = Diff::create(&page, &page);
        assert_eq!(d.run_count(), 0);
        assert_eq!(d.encoded_len(), 2);
        assert_eq!(d, Diff::empty());
    }

    #[test]
    fn single_word_change() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[8] = 0xFF;
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), 4); // whole word
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn adjacent_changes_coalesce() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        for b in cur.iter_mut().take(16).skip(4) {
            *b = 1;
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), 12);
    }

    #[test]
    fn disjoint_changes_make_runs() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[32] = 2;
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 2);
    }

    #[test]
    fn tail_shorter_than_word() {
        let twin = vec![0u8; 10]; // 2.5 words
        let mut cur = twin.clone();
        cur[9] = 5;
        let d = Diff::create(&twin, &cur);
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn full_diff_covers_every_word() {
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let d = Diff::full(&data);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), 256);
        let mut target = vec![0xFFu8; 256];
        d.apply(&mut target);
        assert_eq!(target, data);
    }

    #[test]
    fn wire_roundtrip_multi_run() {
        let twin = vec![0u8; 4096];
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[100] = 2;
        cur[4092] = 3;
        let d = Diff::create(&twin, &cur);
        assert!(roundtrips(&d));
    }

    /// Satellite regression: tails not a multiple of WORD, and not a
    /// multiple of the 8-byte scan chunk, with a change in the final
    /// partial word.
    #[test]
    fn tail_regression_partial_word_change() {
        // Lengths covering every residue mod 8 (and thus mod WORD).
        for len in [9usize, 10, 11, 12, 13, 14, 15, 17, 21, 4093, 4094, 4095] {
            let twin: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut cur = twin.clone();
            *cur.last_mut().unwrap() ^= 0xA5; // flip a bit in the final partial word
            let d = Diff::create(&twin, &cur);
            assert_eq!(
                d,
                Diff::create_scalar(&twin, &cur),
                "chunked/scalar divergence at len={len}"
            );
            let mut target = twin.clone();
            d.apply(&mut target);
            assert_eq!(target, cur, "tail change lost at len={len}");
            // The run must end exactly at the page end, not past it.
            let (off, data) = d.runs().next().expect("one run");
            assert_eq!(off + data.len(), len);
            assert_eq!(d.extent(), len);
        }
    }

    #[test]
    fn tail_change_in_both_last_words() {
        // Change straddling the last full word and the partial tail word.
        let len = 4097; // 1024 full words + 1 tail byte
        let twin = vec![0u8; len];
        let mut cur = twin.clone();
        cur[4092] = 1; // last full word
        cur[4096] = 2; // partial tail word
        let d = Diff::create(&twin, &cur);
        assert_eq!(d, Diff::create_scalar(&twin, &cur));
        assert_eq!(d.run_count(), 1); // adjacent words coalesce
        assert_eq!(d.payload_bytes(), 5);
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    /// `create` agrees with the spec, sends the spec's runs, and applies
    /// back to `cur`.
    fn check(twin: &[u8], cur: &[u8]) -> Diff {
        let d = Diff::create(twin, cur);
        assert_eq!(d, Diff::create_scalar(twin, cur), "len={}", cur.len());
        assert_eq!(encoded(&d), spec_image(twin, cur));
        let mut target = twin.to_vec();
        d.apply(&mut target);
        assert_eq!(target, cur);
        d
    }

    /// `len` zero bytes with `bytes` set to 1.
    fn edited(len: usize, bytes: Range<usize>) -> (Vec<u8>, Vec<u8>) {
        let twin = vec![0u8; len];
        let mut cur = twin.clone();
        cur[bytes].fill(1);
        (twin, cur)
    }

    #[test]
    fn a_run_crosses_a_mask_word() {
        let (twin, cur) = edited(4096, 252..260); // words 63 and 64
        let d = check(&twin, &cur);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(252, &cur[252..260])]);
    }

    #[test]
    fn a_run_ends_exactly_at_a_mask_word() {
        let (twin, cur) = edited(4096, 200..256); // ends at word 64
        let d = check(&twin, &cur);
        assert_eq!((d.run_count(), d.extent()), (1, 256));
        // ...and one that picks up again right after it is a second run.
        let (twin, mut cur) = edited(4096, 200..256);
        cur[260] = 1;
        assert_eq!(check(&twin, &cur).run_count(), 2);
    }

    #[test]
    fn the_whole_page_is_one_run() {
        for len in [4096, 4097, 4099] {
            let (twin, cur) = edited(len, 0..len);
            let d = check(&twin, &cur);
            assert_eq!((d.run_count(), d.payload_bytes()), (1, len));
            assert_eq!(d, Diff::full(&cur));
        }
    }

    /// A page whose length is a multiple of 256 bytes ends on a mask-word
    /// boundary: the run still open there is closed by the page end.
    #[test]
    fn a_run_open_at_the_page_end_is_closed() {
        for len in [256, 4096, 8192] {
            let (twin, cur) = edited(len, len - 12..len);
            let d = check(&twin, &cur);
            assert_eq!((d.run_count(), d.extent()), (1, len));
        }
    }

    #[test]
    fn a_partial_last_word_changes_around_a_page() {
        for len in 4093..=4097 {
            for at in [len - 1, len - 5] {
                let (twin, cur) = edited(len, at..at + 1);
                let d = check(&twin, &cur);
                assert_eq!(d.extent(), (at / WORD * WORD + WORD).min(len));
            }
        }
    }

    /// A span every word of which changed stores no mask; one with some
    /// stores eight bytes; one with none, nothing but its class.
    #[test]
    fn a_page_retains_its_words_and_the_masks_of_mixed_spans() {
        let (twin, cur) = edited(4096, 0..4096);
        assert_eq!(check(&twin, &cur).retained_bytes(), 4 + 4096);
        let mut alternating = twin.clone();
        for w in alternating.iter_mut().step_by(8) {
            *w = 1;
        }
        assert_eq!(
            check(&twin, &alternating).retained_bytes(),
            4 + 16 * 8 + 2048
        );
        let (twin, cur) = edited(4096, 1024..1028); // one word of span 4
        assert_eq!(check(&twin, &cur).retained_bytes(), 4 + 8 + 4);
        assert_eq!(Diff::empty().retained_bytes(), 0);
    }

    #[test]
    fn all_zero_scan() {
        assert!(is_all_zero(&[]));
        for len in [1usize, 7, 8, 9, 63, 64, 65] {
            let mut v = vec![0u8; len];
            assert!(is_all_zero(&v), "len={len}");
            v[len - 1] = 1;
            assert!(!is_all_zero(&v), "len={len}");
            v[len - 1] = 0;
            v[0] = 1;
            assert!(!is_all_zero(&v), "len={len}");
        }
    }

    /// Hand-assemble an image from `(off, payload)` runs, valid or not.
    fn image(runs: &[(u16, &[u8])]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u16(runs.len() as u16);
        for (off, data) in runs {
            w.u16(*off).u16(data.len() as u16).raw(data);
        }
        w.finish()
    }

    /// The image of the runs the word-by-word scan finds.
    fn spec_image(twin: &[u8], cur: &[u8]) -> Vec<u8> {
        image(
            &scalar_runs(twin, cur)
                .map(|r| (r.start as u16, &cur[r]))
                .collect::<Vec<_>>(),
        )
    }

    fn encoded(d: &Diff) -> Vec<u8> {
        let mut w = WireWriter::new();
        d.encode(&mut w);
        assert_eq!(w.len(), d.encoded_len());
        w.finish()
    }

    fn decode(buf: &[u8]) -> Option<DiffImage<'_>> {
        DiffImage::decode(&mut WireReader::new(buf))
    }

    #[test]
    fn accessors_are_consistent() {
        let twin = vec![0u8; 4096];
        let mut cur = twin.clone();
        for w in (0..4096).step_by(8) {
            cur[w] = 1; // every other word: the red-black SOR shape
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 512);
        assert_eq!(d.payload_bytes(), 512 * 4);
        assert_eq!(d.encoded_len(), 2 + 512 * 8);
        assert_eq!(d.extent(), 4092);
        assert_eq!(d.runs().count(), 512);
        assert!(d
            .runs()
            .all(|(off, data)| off % 8 == 0 && data == [1, 0, 0, 0]));
        assert_eq!(encoded(&d).len(), d.encoded_len());
        assert_eq!(Diff::empty().extent(), 0);
        assert_eq!(Diff::empty().encoded_len(), 2);
    }

    #[test]
    fn decode_consumes_exactly_one_image() {
        let mut buf = image(&[(4, &[1; 4]), (12, &[2; 8])]);
        buf.extend_from_slice(&[0xEE; 3]); // whatever follows on the wire
        let mut r = WireReader::new(&buf);
        let d = DiffImage::decode(&mut r).expect("well-formed");
        assert_eq!(r.remaining(), 3);
        assert_eq!(
            (d.runs().count(), d.payload_bytes(), d.extent()),
            (2, 12, 20)
        );
    }

    #[test]
    fn decode_rejects_truncated_images() {
        let good = image(&[(0, &[7; 4]), (8, &[9; 4])]);
        assert!(decode(&good).is_some());
        // Cut anywhere — count, run header or payload — and it is gone.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_none(), "cut at {cut}");
        }
        // A run count that promises more runs than the bytes hold.
        let mut lying = good.clone();
        lying[0] = 3;
        assert!(decode(&lying).is_none());
    }

    #[test]
    fn decode_rejects_unordered_and_overlapping_runs() {
        assert!(
            decode(&image(&[(8, &[1; 4]), (0, &[2; 4])])).is_none(),
            "descending"
        );
        assert!(
            decode(&image(&[(0, &[1; 8]), (4, &[2; 4])])).is_none(),
            "overlapping"
        );
        assert!(
            decode(&image(&[(4, &[1; 4]), (4, &[2; 4])])).is_none(),
            "repeated offset"
        );
        assert!(decode(&image(&[(4, &[])])).is_none(), "empty run");
        // Adjacent runs are one run: `encode` never splits it.
        assert!(
            decode(&image(&[(0, &[1; 4]), (4, &[2; 4])])).is_none(),
            "adjacent"
        );
        assert!(decode(&image(&[(2, &[1; 4])])).is_none(), "off a word");
        // Only the last run may end inside a word.
        assert!(
            decode(&image(&[(0, &[1; 3]), (8, &[2; 4])])).is_none(),
            "mid-image partial word"
        );
        assert!(decode(&image(&[(0, &[1; 4]), (8, &[2; 3])])).is_some());
    }

    /// A well-framed image reaching past the page is caught by one
    /// compare on `extent`, before `apply` is ever entered.
    #[test]
    fn extent_exposes_out_of_range_runs() {
        let near = image(&[(60, &[0xEE; 8])]);
        let d = decode(&near).expect("well-framed");
        assert_eq!(d.extent(), 68); // > a 64-byte page: the receiver drops it
        let last = u16::MAX - 3; // the last word-aligned offset
        let far = image(&[(last, &[1; 4])]);
        let far = decode(&far).expect("well-framed");
        assert_eq!(far.extent(), u16::MAX as usize + 1);
        assert!(decode(&image(&[(last, &[1; 8])])).is_none(), "past 64 KiB");
    }

    #[test]
    #[should_panic]
    fn apply_past_the_target_panics_before_writing() {
        let wire = image(&[(0, &[1; 4]), (60, &[2; 8])]);
        let d = decode(&wire).expect("well-framed");
        d.apply(&mut [0u8; 64]);
    }

    proptest! {
        /// The mask-driven create and the scalar specification agree
        /// exactly — same runs, same boundaries — for arbitrary lengths and
        /// edits.
        #[test]
        fn mask_equals_scalar(
            twin in proptest::collection::vec(any::<u8>(), 1..600),
            flips in proptest::collection::vec((0usize..600, any::<u8>()), 0..48)
        ) {
            let mut cur = twin.clone();
            for (i, v) in flips {
                let i = i % cur.len();
                cur[i] = v;
            }
            prop_assert_eq!(Diff::create(&twin, &cur), Diff::create_scalar(&twin, &cur));
        }

        /// The same on whole pages, one with a partial last word, edited
        /// in runs long enough to cross mask words and reach the page end.
        #[test]
        fn mask_equals_scalar_on_pages(
            tail in 0usize..2,
            edits in proptest::collection::vec((0usize..4097, 1usize..600, any::<u8>()), 0..12)
        ) {
            let len = 4096 + tail;
            let twin: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut cur = twin.clone();
            for (start, run, v) in edits {
                let start = start % len;
                for b in &mut cur[start..(start + run).min(len)] {
                    *b = b.wrapping_add(v | 1);
                }
            }
            check(&twin, &cur);
        }

        /// What `create` sends is, byte for byte, the run list the scalar
        /// specification finds: holding a diff as masks and words moved
        /// nothing on the wire.
        #[test]
        fn encode_spells_the_scalar_runs(
            twin in proptest::collection::vec(any::<u8>(), 1..1200),
            flips in proptest::collection::vec((0usize..1200, 1usize..80, any::<u8>()), 0..24)
        ) {
            let mut cur = twin.clone();
            for (start, run, v) in flips {
                let start = start % cur.len();
                let end = (start + run).min(cur.len());
                cur[start..end].fill(v);
            }
            prop_assert_eq!(encoded(&Diff::create(&twin, &cur)), spec_image(&twin, &cur));
        }

        /// The decoder accepts exactly the images whose runs are
        /// non-empty, on a word, at least a word apart, and end inside a
        /// word only last — and whatever it accepts applies cleanly to any
        /// target at least `extent` long and is the bytes it was given.
        #[test]
        fn decode_accepts_exactly_the_valid_images(
            steps in proptest::collection::vec((0usize..3, 0usize..6, 0usize..3, 0usize..6), 0..6)
        ) {
            // Each run starts `gap` words past the word the previous run
            // ended in, sometimes nudged off its word, and carries `words`
            // words, sometimes short of a byte or two.
            let mut end = 0usize;
            let mut valid = true;
            let mut payloads = Vec::new();
            let mut offs = Vec::new();
            for (i, &(gap, nudge, words, short)) in steps.iter().enumerate() {
                let off = (end.div_ceil(WORD) + gap) * WORD + nudge.saturating_sub(3);
                let len = (words * WORD).saturating_sub(short.saturating_sub(3));
                valid &= len > 0 && off.is_multiple_of(WORD) && (i == 0 || (end.is_multiple_of(WORD) && off > end));
                end = off + len;
                offs.push(off as u16);
                payloads.push(vec![i as u8 + 1; len]);
            }
            let runs: Vec<(u16, &[u8])> = offs.iter().copied().zip(payloads.iter().map(Vec::as_slice)).collect();
            let wire = image(&runs);
            let decoded = decode(&wire);
            prop_assert_eq!(decoded.is_some(), valid);
            if let Some(d) = decoded {
                prop_assert_eq!(d.extent(), end);
                prop_assert_eq!(d.as_bytes(), &wire[..]);
                let mut target = vec![0u8; d.extent()];
                d.apply(&mut target);
                for (off, data) in runs {
                    prop_assert_eq!(&target[off as usize..][..data.len()], data);
                }
            }
        }

        /// apply(create(t, c), t) == c — the fundamental diff identity.
        #[test]
        fn create_apply_identity(
            twin in proptest::collection::vec(any::<u8>(), 1..512),
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 0..32)
        ) {
            let mut cur = twin.clone();
            for (i, v) in flips {
                let i = i % cur.len();
                cur[i] = v;
            }
            let d = Diff::create(&twin, &cur);
            let mut target = twin.clone();
            d.apply(&mut target);
            prop_assert_eq!(target, cur);
        }

        /// Encoding roundtrips for arbitrary change patterns.
        #[test]
        fn encode_roundtrip(
            twin in proptest::collection::vec(any::<u8>(), 1..512),
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 0..32)
        ) {
            let mut cur = twin.clone();
            for (i, v) in flips {
                let i = i % cur.len();
                cur[i] = v;
            }
            let d = Diff::create(&twin, &cur);
            prop_assert!(roundtrips(&d));
        }

        /// Sequentially composed diffs replay to the final state.
        #[test]
        fn diffs_compose_in_order(
            base in proptest::collection::vec(any::<u8>(), 64..128),
            edits1 in proptest::collection::vec((0usize..128, any::<u8>()), 1..16),
            edits2 in proptest::collection::vec((0usize..128, any::<u8>()), 1..16)
        ) {
            let mut v1 = base.clone();
            for (i, b) in edits1 { let i = i % v1.len(); v1[i] = b; }
            let mut v2 = v1.clone();
            for (i, b) in edits2 { let i = i % v2.len(); v2[i] = b; }
            let d1 = Diff::create(&base, &v1);
            let d2 = Diff::create(&v1, &v2);
            let mut replay = base.clone();
            d1.apply(&mut replay);
            d2.apply(&mut replay);
            prop_assert_eq!(replay, v2);
        }

        /// A fetched diff applied from its wire image leaves a page copy and
        /// its twin exactly as the held diff's `apply_page` and `apply_held`
        /// do: on a copy holding every unit or only some, with a twin
        /// holding some of those or with none.
        #[test]
        fn an_image_applies_as_its_diff_does(
            dense: bool,
            held in proptest::collection::vec((0usize..4096, 1usize..300), 1..6),
            // No ranges: no twin.
            twinned in proptest::collection::vec((0usize..4096, 1usize..200), 0..4),
            edits in proptest::collection::vec((0usize..4096, 1usize..80, any::<u8>()), 0..12),
        ) {
            const LEN: usize = 4096;
            let base: Vec<u8> = (0..LEN).map(|i| (i * 13) as u8).collect();
            let mut cur = base.clone();
            for (start, run, v) in edits {
                let end = (start + run).min(LEN);
                cur[start..end].fill(v);
            }
            let d = Diff::create(&base, &cur);
            let wire = encoded(&d);
            let image = decode(&wire).expect("an encoded diff decodes");
            // The same copy and twin, built twice.
            let build = || {
                let mut page = if dense { Spans::dense(base.clone()) } else { Spans::zero(LEN) };
                for &(off, len) in &held {
                    let len = len.min(LEN - off);
                    page.write(off, len).copy_from_slice(&base[off..off + len]);
                }
                let twin = (!twinned.is_empty()).then(|| {
                    let mut twin = Spans::zero(LEN);
                    for &(off, len) in &twinned {
                        let len = len.min(LEN - off);
                        page.write(off, len);
                        twin.cover(&page, off, len);
                    }
                    twin
                });
                (page, twin)
            };
            let (mut held_page, mut held_twin) = build();
            let (mut wire_page, mut wire_twin) = build();
            apply_page(&d, &mut held_page);
            apply_page(&image, &mut wire_page);
            if let (Some(a), Some(b)) = (held_twin.as_mut(), wire_twin.as_mut()) {
                apply_held(&d, a);
                apply_held(&image, b);
            }
            prop_assert_eq!(wire_page.held(), held_page.held());
            prop_assert_eq!(wire_page.held_slice(), held_page.held_slice());
            let twin = |t: &Option<Spans>| t.as_ref().map(|t| (t.held(), t.held_slice().to_vec()));
            prop_assert_eq!(twin(&wire_twin), twin(&held_twin));
        }
    }
}
