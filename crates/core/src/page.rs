//! Per-page state: the access state machine, the page copy and its twin,
//! what the page is owed, retained diffs.
//!
//! A page owes each writer a range of intervals: it applied writer `w`'s
//! diffs up to `applied[w]` and was told of `w`'s writes up to `owed[w]`,
//! and a fault asks `w` for `applied[w] + 1 ..= owed[w]`. The notices
//! themselves are not kept; the log orders what a fetch returns. Those
//! seqs are not the entry's: a `PageTable` holds every page's in one
//! column, `applied[0..n]` then `owed[0..n]` per page, so an entry owns no
//! heap for them. A page's manager is `pid mod n` and is not stored either.
//!
//! A page copy and its twin are [`Spans`]: they hold only the units of the
//! page a node wrote or received. A unit is a 64th of the page, rounded up
//! to a power of two and never under 64 bytes — 64 bytes of a 4 KiB page,
//! 256 of the largest. An `mprotect` build copies and twins whole pages
//! because protection is page-granular; the access guards here see every
//! byte range written, so a write copies into the twin just the units it
//! reaches, just before it writes them. A unit a page copy does not hold
//! reads as zero; one a twin does not hold reads as the page itself. A copy
//! holding every unit is its bytes in page order — one slice, which every
//! hot path uses as it is.

use std::mem::size_of;
use std::ops::{Index, IndexMut, RangeInclusive};

use crate::diff::{apply_page, is_all_zero, Diff};
use crate::wire::pool;

/// Global page number within the shared address space.
pub type PageId = u32;

/// The largest unit, that of the largest page.
const MAX_UNIT: usize = 256;

/// Diffs a page retains of its own writes; a request for an older one is
/// served with the full page.
pub const DIFF_KEEP: usize = 256;

/// The largest page [`Spans`] can hold: one bit of a `u64` per unit.
pub(crate) const MAX_PAGE: usize = 64 * MAX_UNIT;

/// What a unit that is not held reads as.
static ZEROS: [u8; MAX_UNIT] = [0; MAX_UNIT];

/// The set bits of `m`, ascending.
fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = m.trailing_zeros() as usize;
        m &= m.wrapping_sub(1);
        (k < 64).then_some(k)
    })
}

/// The run of set bits of `m` from bit `k` (which is set) up, as a mask.
fn run_at(m: u64, k: usize) -> u64 {
    u64::MAX >> (64 - (m >> k).trailing_ones()) << k
}

/// Append bytes `off..off + len` of `src`, a page of the same length, to
/// `out`: zeros where it holds no unit, or where there is no `src`.
fn fill(out: &mut Vec<u8>, src: Option<&Spans>, off: usize, len: usize) {
    match src {
        Some(s) => s
            .read(off, len)
            .for_each(|(_, piece)| out.extend_from_slice(piece)),
        None => out.resize(out.len() + len, 0),
    }
}

/// A page's bytes, held unit by unit: a mask of the units held, and those
/// units' bytes in ascending order in one pooled buffer. A unit is a 64th
/// of the page, rounded up to a power of two and never under 64 bytes;
/// every unit is that long but a page's last, which is what the page
/// leaves.
#[derive(Debug)]
pub struct Spans {
    held: u64,
    len: u16,
    /// `log2` of the unit.
    shift: u8,
    bytes: Vec<u8>,
}

impl Spans {
    /// A page of `len` bytes that holds no unit.
    pub(crate) fn zero(len: usize) -> Spans {
        assert!(
            len <= MAX_PAGE,
            "a {len}-byte page has units over {MAX_UNIT} bytes"
        );
        let unit = len.div_ceil(64).next_power_of_two().max(64);
        Spans {
            held: 0,
            len: len as u16,
            shift: unit.trailing_zeros() as u8,
            bytes: Vec::new(),
        }
    }

    /// A page that holds every unit: `bytes` is the page.
    pub(crate) fn dense(bytes: Vec<u8>) -> Spans {
        let mut s = Spans::zero(bytes.len());
        if !bytes.is_empty() {
            s.held = u64::MAX >> (64 - bytes.len().div_ceil(s.unit()));
        }
        s.bytes = bytes;
        s
    }

    /// Bytes in the page.
    pub(crate) fn page_len(&self) -> usize {
        self.len as usize
    }

    /// Bytes in a unit: 64, 128 or 256.
    #[inline]
    pub(crate) fn unit(&self) -> usize {
        1 << self.shift
    }

    /// The units held: bit `k` for bytes `unit·k..`.
    pub(crate) fn held(&self) -> u64 {
        self.held
    }

    /// Every unit is held: the buffer is the page.
    #[inline]
    pub(crate) fn is_dense(&self) -> bool {
        self.bytes.len() == self.page_len()
    }

    /// The held units' bytes, ascending; the page itself when dense.
    pub(crate) fn held_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Heap bytes held: the buffer's capacity.
    pub(crate) fn held_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// The units under bytes `off..off + len` (`len > 0`), one bit each.
    #[inline]
    fn units_of(&self, off: usize, len: usize) -> u64 {
        debug_assert!(len > 0, "an empty range has no units");
        let (first, last) = (off >> self.shift, (off + len - 1) >> self.shift);
        u64::MAX >> (63 - last) & u64::MAX << first
    }

    /// Where held unit `k` starts in the buffer.
    #[inline]
    fn at(&self, k: usize) -> usize {
        ((self.held & !(u64::MAX << k)).count_ones() as usize) << self.shift
    }

    fn unit_len(&self, k: usize) -> usize {
        self.unit().min(self.page_len() - (k << self.shift))
    }

    /// Buffer bytes the units `held` take.
    fn bytes_for(&self, held: u64) -> usize {
        let last = (self.page_len() - 1) >> self.shift;
        let short = if held >> last & 1 == 1 {
            ((last + 1) << self.shift) - self.page_len()
        } else {
            0
        };
        ((held.count_ones() as usize) << self.shift) - short
    }

    /// The held units, ascending, as `(k, bytes)`.
    pub(crate) fn units(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut at = 0;
        bits(self.held).map(move |k| {
            let l = self.unit_len(k);
            at += l;
            (k, &self.bytes[at - l..at])
        })
    }

    /// Each run of held units that follow one another, ascending, as
    /// `(offset in the page, bytes)`: one slice, since such units are
    /// adjacent in the buffer too.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let (mut left, mut at) = (self.held, 0);
        std::iter::from_fn(move || {
            let k = left.trailing_zeros() as usize;
            if k == 64 {
                return None;
            }
            let run = run_at(left, k);
            left &= !run;
            let off = k << self.shift;
            let l = self.bytes_for(run);
            at += l;
            Some((off, &self.bytes[at - l..at]))
        })
    }

    /// Bytes `off..off + len` as one slice, if every unit under them is
    /// held.
    #[inline]
    pub(crate) fn get(&self, off: usize, len: usize) -> Option<&[u8]> {
        if self.is_dense() {
            return Some(&self.bytes[off..off + len]);
        }
        if self.units_of(off, len) & !self.held != 0 {
            return None;
        }
        let at = self.at(off >> self.shift) + off % self.unit();
        Some(&self.bytes[at..at + len])
    }

    /// Bytes `off..off + len` as consecutive pieces `(at, bytes)`: the rest
    /// of the range when the units under it are held, else one unit, a
    /// unit not held reading as zeros. Pieces split only at unit
    /// boundaries; a page holding every unit is one piece.
    #[inline]
    pub(crate) fn read(&self, off: usize, len: usize) -> impl Iterator<Item = (usize, &[u8])> {
        let mut done = 0;
        std::iter::from_fn(move || {
            if done == len {
                return None;
            }
            let (o, rest) = (off + done, len - done);
            let piece = if self.is_dense() {
                &self.bytes[o..o + rest]
            } else {
                self.piece(o, rest)
            };
            done += piece.len();
            Some((done - piece.len(), piece))
        })
    }

    /// The first piece [`read`](Self::read) yields of bytes `off..off +
    /// len` of a page not holding every unit.
    fn piece(&self, off: usize, len: usize) -> &[u8] {
        self.get(off, len).unwrap_or_else(|| {
            let take = (self.unit() - off % self.unit()).min(len);
            self.get(off, take).unwrap_or(&ZEROS[..take])
        })
    }

    /// Bytes `off..off + len` to overwrite, holding the units under them
    /// that were not held (zeroed).
    #[inline]
    pub(crate) fn write(&mut self, off: usize, len: usize) -> &mut [u8] {
        if self.is_dense() {
            return &mut self.bytes[off..off + len];
        }
        self.hold(self.units_of(off, len));
        let at = self.at(off >> self.shift) + off % self.unit();
        &mut self.bytes[at..at + len]
    }

    /// The whole page, every unit held.
    pub(crate) fn whole(&mut self) -> &mut [u8] {
        self.write(0, self.page_len())
    }

    /// Hold `units` as well; each one not held yet starts zeroed.
    pub(crate) fn hold(&mut self, units: u64) {
        self.hold_from(units, None);
    }

    /// Hold `units` as well, each one not held yet filled from `src`'s
    /// (zeros where there is no `src` or it holds none), in a pooled
    /// buffer of the new size if this one is too small. New units above
    /// every held one are appended a run at a time; otherwise the units
    /// above a new one move up in place.
    fn hold_from(&mut self, units: u64, src: Option<&Spans>) {
        let new = units & !self.held;
        if new == 0 {
            return;
        }
        let held = self.held | new;
        let need = self.bytes_for(held);
        if need > self.bytes.capacity() {
            let mut grown = pool::take(need);
            grown.extend_from_slice(&self.bytes);
            pool::give(std::mem::replace(&mut self.bytes, grown));
        }
        if self.held >> new.trailing_zeros() == 0 {
            let mut left = new;
            while left != 0 {
                let k = left.trailing_zeros() as usize;
                let run = run_at(left, k);
                left &= !run;
                let len = self.bytes_for(run);
                fill(&mut self.bytes, src, k << self.shift, len);
            }
        } else {
            let (mut old, mut at) = (self.bytes.len(), need);
            self.bytes.resize(need, 0);
            let mut m = held;
            // Top down; once the new units are placed the rest is in place.
            while old != at {
                let k = 63 - m.leading_zeros() as usize;
                m ^= 1 << k;
                let l = self.unit_len(k);
                at -= l;
                if self.held >> k & 1 == 1 {
                    old -= l;
                    self.bytes.copy_within(old..old + l, at);
                } else {
                    let dst = &mut self.bytes[at..at + l];
                    match src.and_then(|s| s.get(k << self.shift, l)) {
                        Some(s) => dst.copy_from_slice(s),
                        None => dst.fill(0),
                    }
                }
            }
        }
        self.held = held;
    }

    /// As a twin: copy `page`'s units under bytes `off..off + len` that
    /// this twin does not hold yet. Its first copy sizes the buffer for
    /// every unit the page holds, so a twin of a full page is one buffer.
    #[inline]
    pub(crate) fn cover(&mut self, page: &Spans, off: usize, len: usize) {
        let missing = self.units_of(off, len) & !self.held;
        if missing != 0 {
            if self.bytes.capacity() == 0 {
                self.bytes = pool::take(page.bytes_for(page.held | missing));
            }
            self.hold_from(missing, Some(page));
        }
    }

    /// Make every held unit a copy of `page`'s (zeros where it holds
    /// none).
    fn rebase(&mut self, page: &Spans) {
        for k in bits(self.held) {
            let (at, l) = (self.at(k), self.unit_len(k));
            let dst = &mut self.bytes[at..at + l];
            match page.get(k << self.shift, l) {
                Some(src) => dst.copy_from_slice(src),
                None => dst.fill(0),
            }
        }
    }

    /// Copy `data` to bytes `off..`, into the units held only.
    pub(crate) fn overlay(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        for k in bits(self.units_of(off, data.len()) & self.held) {
            let base = k << self.shift;
            let (lo, hi) = (off.max(base), end.min(base + self.unit()));
            let at = self.at(k) + lo - base;
            self.bytes[at..at + hi - lo].copy_from_slice(&data[lo - off..hi - off]);
        }
    }

    /// Copy the held units' bytes under `off..off + out.len()` into `out`,
    /// leaving the rest of it as it is.
    fn copy_held(&self, off: usize, out: &mut [u8]) {
        let end = off + out.len();
        for k in bits(self.units_of(off, out.len()) & self.held) {
            let base = k << self.shift;
            let (lo, hi) = (off.max(base), end.min(base + self.unit()));
            let at = self.at(k) + lo - base;
            out[lo - off..hi - off].copy_from_slice(&self.bytes[at..at + hi - lo]);
        }
    }

    /// Lay the held units over `out`, a page image.
    pub(crate) fn write_into(&self, out: &mut [u8]) {
        if self.is_dense() {
            out.copy_from_slice(&self.bytes);
            return;
        }
        for (off, s) in self.runs() {
            out[off..off + s.len()].copy_from_slice(s);
        }
    }

    /// Hand the buffer back to the pool.
    pub(crate) fn recycle(self) {
        if self.bytes.capacity() > 0 {
            pool::give(self.bytes);
        }
    }
}

/// A page's stable copy as a full-page serve sends it: the twin's units
/// laid over the page, or, when one buffer is the whole of it, that slice.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stable<'a> {
    Bytes(&'a [u8]),
    Spans {
        page: &'a Spans,
        twin: Option<&'a Spans>,
    },
}

impl Stable<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Stable::Bytes(b) => b.len(),
            Stable::Spans { page, .. } => page.page_len(),
        }
    }

    /// Every byte is zero: the serve sends a `ZeroPage` marker instead.
    pub(crate) fn is_zero(&self) -> bool {
        match *self {
            Stable::Bytes(b) => is_all_zero(b),
            Stable::Spans { page, twin } => {
                let over = twin.map_or(0, Spans::held);
                twin.is_none_or(|t| is_all_zero(t.held_slice()))
                    && page
                        .units()
                        .all(|(k, s)| over >> k & 1 == 1 || is_all_zero(s))
            }
        }
    }

    /// Hand `f` every byte of the image that may be non-zero, as `(offset,
    /// bytes)` pieces on unit boundaries, ascending: the whole image when it
    /// is one slice, else each unit the page holds, the twin's where it
    /// holds it.
    pub(crate) fn each_piece(&self, f: &mut dyn FnMut(usize, &[u8])) {
        match *self {
            Stable::Bytes(b) => f(0, b),
            Stable::Spans { page, twin } => {
                for (k, unit) in page.units() {
                    let off = k << page.shift;
                    let held = twin.and_then(|t| t.get(off, unit.len()));
                    f(off, held.unwrap_or(unit));
                }
            }
        }
    }

    /// Bytes `off..off + out.len()` of the image, into `out`.
    pub(crate) fn read_into(&self, off: usize, out: &mut [u8]) {
        match *self {
            Stable::Bytes(b) => out.copy_from_slice(&b[off..off + out.len()]),
            Stable::Spans { page, twin } => {
                let mut at = 0;
                for (_, piece) in page.read(off, out.len()) {
                    out[at..at + piece.len()].copy_from_slice(piece);
                    at += piece.len();
                }
                if let Some(t) = twin {
                    t.copy_held(off, out);
                }
            }
        }
    }

    /// Write the image into `out`, which is zeroed and [`len`](Self::len)
    /// bytes long.
    pub(crate) fn write_into(&self, out: &mut [u8]) {
        match *self {
            Stable::Bytes(b) => out.copy_from_slice(b),
            Stable::Spans { page, twin } => {
                page.write_into(out);
                if let Some(t) = twin {
                    t.write_into(out);
                }
            }
        }
    }
}

/// Heap bytes a node holds for its shared pages, by owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeldBytes {
    pub pages: usize,
    pub twins: usize,
    pub diffs: usize,
    /// The page table itself: its entries, its seq column and the slots of
    /// each page's retained-diff list.
    pub table: usize,
}

impl std::iter::Sum for HeldBytes {
    fn sum<I: Iterator<Item = HeldBytes>>(it: I) -> HeldBytes {
        it.fold(HeldBytes::default(), |a, b| HeldBytes {
            pages: a.pages + b.pages,
            twins: a.twins + b.twins,
            diffs: a.diffs + b.diffs,
            table: a.table + b.table,
        })
    }
}

/// The mprotect-equivalent access state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// No local copy has ever been valid: first access fetches the whole
    /// page from its manager (under the tuned profile it maps the zero
    /// page it holds and fetches only what notices name).
    Unmapped,
    /// Local copy exists but the page is owed diffs: access faults and
    /// fetches them.
    Invalid,
    /// Clean, readable copy.
    Read,
    /// Twin exists; writes are in progress this interval.
    Write,
    /// Twin exists *and* notices arrived (concurrent writers / false
    /// sharing): access fetches diffs, applying them to page and twin.
    WriteInvalid,
}

/// One shared page's local bookkeeping; its per-writer seqs are its
/// `PageTable`'s.
#[derive(Debug)]
pub struct Page {
    pub state: Access,
    /// The local copy: the units this node wrote or received. A resident
    /// page, an adopted zero page and an unmapped one hold none.
    pub data: Spans,
    /// The page as the current interval found it: each unit is copied in
    /// just before the interval's first write to it, so one it does not
    /// hold reads as `data`. Its units are always units `data` holds.
    pub twin: Option<Box<Spans>>,
    /// Diffs this node created for this page: (seq, diff), newest last.
    pub my_diffs: Vec<(u32, Diff)>,
    /// The highest seq [`trim_diffs`](Self::trim_diffs) dropped.
    pub(crate) trimmed: u32,
    /// The current interval overwrote the whole page without fetching its
    /// old content: the flush must emit a full-page diff so readers that
    /// causally order our diff last see every word we wrote.
    pub force_full_diff: bool,
}

impl Page {
    pub fn new(page_size: usize) -> Self {
        Page {
            state: Access::Unmapped,
            data: Spans::zero(page_size),
            twin: None,
            my_diffs: Vec::new(),
            trimmed: 0,
            force_full_diff: false,
        }
    }

    /// A freshly allocated page on its manager: valid and zeroed.
    pub fn new_resident(page_size: usize) -> Self {
        let mut p = Self::new(page_size);
        p.state = Access::Read;
        p
    }

    /// Open the current interval's writes with a twin that holds nothing,
    /// in a box from `spare` when it has one.
    pub(crate) fn start_twin(&mut self, spare: &mut SpareTwins) {
        let empty = Spans::zero(self.data.page_len());
        self.twin = Some(match spare.0.pop() {
            Some(mut twin) => {
                *twin = empty;
                twin
            }
            None => Box::new(empty),
        });
    }

    /// Bytes `off..off + len` to overwrite in the current interval: the
    /// twin first copies the units under them it does not hold.
    #[inline]
    pub(crate) fn write(&mut self, off: usize, len: usize) -> &mut [u8] {
        if let Some(twin) = self.twin.as_deref_mut() {
            twin.cover(&self.data, off, len);
        }
        self.data.write(off, len)
    }

    /// Close the interval's writes: the diff against the twin, or of the
    /// whole page after an overwrite. The twin's buffer goes back to the
    /// pool, its box to `spare` while it has room.
    pub(crate) fn take_diff(&mut self, spare: &mut SpareTwins) -> Diff {
        let mut twin = self.twin.take().expect("dirty page without twin");
        let d = if std::mem::take(&mut self.force_full_diff) {
            Diff::full(self.data.whole())
        } else {
            Diff::of_twin(&twin, &self.data)
        };
        std::mem::replace(&mut *twin, Spans::zero(0)).recycle();
        if spare.0.len() < SPARE_TWINS {
            spare.0.push(twin);
        }
        d
    }

    /// Adopt `image`, a page a peer sent, keeping uncommitted writes: they
    /// are replayed on it, and the twin takes its bytes for the units the
    /// twin holds. Returns whether there was a twin.
    pub(crate) fn adopt(&mut self, image: Spans) -> bool {
        let old = std::mem::replace(&mut self.data, image);
        let Some(twin) = self.twin.as_deref_mut() else {
            old.recycle();
            return false;
        };
        let own = Diff::of_twin(twin, &old);
        old.recycle();
        twin.rebase(&self.data);
        self.data.hold(twin.held);
        apply_page(&own, &mut self.data);
        true
    }

    /// The stable copy a full-page serve sends: the twin's units laid over
    /// the page.
    pub(crate) fn stable(&self) -> Stable<'_> {
        match self.twin.as_deref() {
            None if self.data.is_dense() => Stable::Bytes(self.data.held_slice()),
            Some(t) if t.is_dense() => Stable::Bytes(t.held_slice()),
            twin => Stable::Spans {
                page: &self.data,
                twin,
            },
        }
    }

    /// Heap bytes this page holds: its copy, its twin, its retained diffs,
    /// and the slots of its diff list.
    pub(crate) fn held_bytes(&self) -> HeldBytes {
        HeldBytes {
            pages: self.data.held_bytes(),
            twins: self.twin.as_ref().map_or(0, |t| t.held_bytes()),
            diffs: self.my_diffs.iter().map(|(_, d)| d.retained_bytes()).sum(),
            table: self.my_diffs.capacity() * size_of::<(u32, Diff)>(),
        }
    }

    /// Retain `d`, this node's diff of interval `seq`, and trim the list to
    /// its newest [`DIFF_KEEP`]. A page's first diff gets a list of one
    /// slot: most pages never retain a second.
    pub(crate) fn retain_diff(&mut self, seq: u32, d: Diff) {
        if self.my_diffs.capacity() == 0 {
            self.my_diffs.reserve_exact(1);
        }
        self.my_diffs.push((seq, d));
        self.trim_diffs(DIFF_KEEP);
    }

    /// Retain only the most recent `keep` diffs; older requests are served
    /// with a full page instead. Runs at every flush.
    pub fn trim_diffs(&mut self, keep: usize) {
        if self.my_diffs.len() > keep {
            let cut = self.my_diffs.len() - keep;
            self.trimmed = self.my_diffs[cut - 1].0;
            self.my_diffs.drain(..cut);
        }
    }

    /// Diffs with `lo <= seq <= hi`, borrowed (no per-diff clone), or
    /// `None` when `lo` is at or below a trimmed seq: the requester may be
    /// owed a diff that is gone. `my_diffs` is sorted by seq (appended
    /// monotonically), so the answer is a contiguous slice.
    pub fn diffs_range(&self, lo: u32, hi: u32) -> Option<&[(u32, Diff)]> {
        if lo <= self.trimmed {
            return None;
        }
        let a = self.my_diffs.partition_point(|(s, _)| *s < lo);
        let b = self.my_diffs.partition_point(|(s, _)| *s <= hi).max(a);
        Some(&self.my_diffs[a..b])
    }
}

/// A node's page table: an entry per shared page, indexed by [`PageId`],
/// and one column of the entries' per-writer seqs — page `p`'s
/// `applied[0..n]` then its `owed[0..n]`, starting at `2·n·p`. Both grow
/// as pages are materialized; neither is ever a per-page allocation.
#[derive(Debug)]
pub(crate) struct PageTable {
    n: usize,
    entries: Vec<Page>,
    seqs: Vec<u32>,
    spare_twins: SpareTwins,
}

/// The most twin boxes a node keeps: a lock's critical section twins a
/// few pages, and an interval that twins hundreds (FFT's transpose twins
/// 1 024) would hold their memory for nothing it saves.
const SPARE_TWINS: usize = 64;

/// Boxes of closed twins, for the next interval's, up to [`SPARE_TWINS`].
/// The box is what is reused — a page-table entry holds its twin boxed, to
/// stay small.
#[derive(Debug, Default)]
pub(crate) struct SpareTwins(#[allow(clippy::vec_box)] Vec<Box<Spans>>);

impl PageTable {
    /// An empty table for a cluster of `nprocs` writers.
    pub(crate) fn new(nprocs: usize) -> Self {
        PageTable {
            n: nprocs,
            entries: Vec::new(),
            seqs: Vec::new(),
            spare_twins: SpareTwins::default(),
        }
    }

    /// Pages materialized.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Materialize the next page, `len()`, as `page`: it has applied and
    /// is owed nothing.
    pub(crate) fn push(&mut self, page: Page) {
        self.entries.push(page);
        self.seqs.resize(self.seqs.len() + 2 * self.n, 0);
    }

    /// Open `pid`'s twin ([`Page::start_twin`]) in a spare box.
    pub(crate) fn start_twin(&mut self, pid: PageId) {
        self.entries[pid as usize].start_twin(&mut self.spare_twins);
    }

    /// Close `pid`'s twin ([`Page::take_diff`]), keeping its box.
    pub(crate) fn take_diff(&mut self, pid: PageId) -> Diff {
        self.entries[pid as usize].take_diff(&mut self.spare_twins)
    }

    /// Where `pid`'s seqs start in the column.
    fn at(&self, pid: PageId) -> usize {
        2 * self.n * pid as usize
    }

    /// `pid`'s applied and owed seqs.
    fn seqs_mut(&mut self, pid: PageId) -> (&mut [u32], &mut [u32]) {
        let at = self.at(pid);
        self.seqs[at..at + 2 * self.n].split_at_mut(self.n)
    }

    /// Highest interval seq per writer whose diff `pid` incorporates.
    pub(crate) fn applied(&self, pid: PageId) -> &[u32] {
        let at = self.at(pid);
        &self.seqs[at..at + self.n]
    }

    /// Highest interval seq per writer `pid` was told wrote it.
    fn owed(&self, pid: PageId) -> &[u32] {
        let at = self.at(pid) + self.n;
        &self.seqs[at..at + self.n]
    }

    /// Record a write notice: interval `seq` of `writer` wrote `pid`.
    /// Raises what the page owes `writer`; a notice at or below what it
    /// applied or already owes changes nothing. Transitions the access
    /// state.
    pub(crate) fn add_notice(&mut self, pid: PageId, writer: u16, seq: u32) {
        let w = writer as usize;
        let (applied, owed) = self.seqs_mut(pid);
        if seq <= applied[w].max(owed[w]) {
            return;
        }
        owed[w] = seq;
        let page = &mut self.entries[pid as usize];
        page.state = match page.state {
            Access::Unmapped => Access::Unmapped,
            Access::Write | Access::WriteInvalid => Access::WriteInvalid,
            _ => Access::Invalid,
        };
    }

    /// The seqs `pid` owes `writer`; empty when it owes none.
    pub(crate) fn owed_of(&self, pid: PageId, writer: u16) -> RangeInclusive<u32> {
        let w = writer as usize;
        self.applied(pid)[w] + 1..=self.owed(pid)[w]
    }

    /// `pid` is still owed some writer's diffs.
    pub(crate) fn owes(&self, pid: PageId) -> bool {
        self.owing(pid).next().is_some()
    }

    /// Each writer `pid` owes diffs, ascending, as `(writer, lo, hi)`.
    pub(crate) fn owing(&self, pid: PageId) -> impl Iterator<Item = (u16, u32, u32)> + '_ {
        let seqs = self.applied(pid).iter().zip(self.owed(pid)).enumerate();
        seqs.filter(|(_, (a, o))| o > a)
            .map(|(w, (&a, &o))| (w as u16, a + 1, o))
    }

    /// Take `applied`, a full page's, as what `pid`'s copy incorporates. A
    /// writer it sets back stays owed up to where the page had applied.
    /// `applied` has a seq for every writer.
    pub(crate) fn adopt_applied(&mut self, pid: PageId, applied: impl IntoIterator<Item = u32>) {
        let (mine, owed) = self.seqs_mut(pid);
        for (o, &was) in owed.iter_mut().zip(&*mine) {
            *o = (*o).max(was);
        }
        for (m, seq) in mine.iter_mut().zip(applied) {
            *m = seq;
        }
    }

    /// Every seq `pid` owes is at or below `clock`'s, and so, on every
    /// axis but `me`'s, is every seq it applied.
    pub(crate) fn within(&self, pid: PageId, clock: impl Iterator<Item = u32>, me: u16) -> bool {
        let seqs = self.applied(pid).iter().zip(self.owed(pid)).zip(clock);
        seqs.enumerate()
            .all(|(w, ((&a, &o), c))| (o <= a || o <= c) && (w == me as usize || a <= c))
    }

    /// Mark `writer`'s intervals up to `seq` applied on `pid`.
    pub(crate) fn applied_notice(&mut self, pid: PageId, writer: u16, seq: u32) {
        let a = &mut self.seqs_mut(pid).0[writer as usize];
        *a = (*a).max(seq);
    }

    /// Mark everything `pid` is owed applied without fetching it.
    pub(crate) fn waive_owed(&mut self, pid: PageId) {
        let (applied, owed) = self.seqs_mut(pid);
        for (a, &o) in applied.iter_mut().zip(&*owed) {
            *a = (*a).max(o);
        }
    }

    /// Heap bytes the table holds: every page's, and its own entries and
    /// seq column as the `table` row.
    pub(crate) fn held_bytes(&self) -> HeldBytes {
        let mut held: HeldBytes = self.entries.iter().map(Page::held_bytes).sum();
        held.table +=
            self.entries.capacity() * size_of::<Page>() + self.seqs.capacity() * size_of::<u32>();
        held
    }
}

impl Index<PageId> for PageTable {
    type Output = Page;

    #[inline]
    fn index(&self, pid: PageId) -> &Page {
        &self.entries[pid as usize]
    }
}

impl IndexMut<PageId> for PageTable {
    #[inline]
    fn index_mut(&mut self, pid: PageId) -> &mut Page {
        &mut self.entries[pid as usize]
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::diff::apply_to;
    use crate::wire::WireWriter;
    use proptest::prelude::*;

    /// A table of `n` writers holding one 64-byte page, resident or not.
    fn one_page(n: usize, resident: bool) -> PageTable {
        let mut t = PageTable::new(n);
        t.push(if resident {
            Page::new_resident(64)
        } else {
            Page::new(64)
        });
        t
    }

    #[test]
    fn fresh_pages() {
        let p = Page::new(4096);
        assert_eq!(p.state, Access::Unmapped);
        let r = Page::new_resident(4096);
        assert_eq!(r.state, Access::Read);
        assert_eq!(r.data.page_len(), 4096);
        assert_eq!(
            r.held_bytes(),
            HeldBytes::default(),
            "a resident page holds nothing"
        );
        let t = one_page(4, true);
        assert_eq!(t.applied(0), [0; 4]);
        assert!(!t.owes(0));
    }

    /// The seq column is each page's `applied` then `owed`, one page
    /// after another: a notice to one page reaches no other.
    #[test]
    fn each_page_owns_its_stretch_of_the_column() {
        let mut t = PageTable::new(3);
        for _ in 0..3 {
            t.push(Page::new_resident(64));
        }
        t.add_notice(1, 2, 4);
        t.applied_notice(2, 0, 7);
        assert_eq!(
            t.seqs,
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 7, 0, 0, 0, 0, 0]
        );
        assert_eq!(t.owing(1).collect::<Vec<_>>(), [(2, 1, 4)]);
        assert!(!t.owes(0) && !t.owes(2));
        assert_eq!(t.applied(2), [7, 0, 0]);
        assert_eq!(
            (t[0].state, t[1].state, t[2].state),
            (Access::Read, Access::Invalid, Access::Read)
        );
    }

    #[test]
    fn notice_transitions() {
        let mut p = one_page(2, true);
        p.add_notice(0, 1, 1);
        assert_eq!(p[0].state, Access::Invalid);
        assert_eq!(p.owing(0).collect::<Vec<_>>(), [(1, 1, 1)]);
        // Dirty page + notice = WriteInvalid (false-sharing case).
        let mut q = one_page(2, true);
        q[0].start_twin(&mut SpareTwins::default());
        q[0].state = Access::Write;
        q.add_notice(0, 1, 1);
        assert_eq!(q[0].state, Access::WriteInvalid);
    }

    #[test]
    fn duplicate_and_stale_notices_ignored() {
        let mut p = one_page(2, true);
        p.applied_notice(0, 1, 5);
        p.add_notice(0, 1, 4); // stale
        assert!(!p.owes(0));
        assert_eq!(p[0].state, Access::Read);
        p.add_notice(0, 1, 6);
        p.add_notice(0, 1, 6); // duplicate
        assert_eq!(p.owing(0).collect::<Vec<_>>(), [(1, 6, 6)]);
    }

    #[test]
    fn applied_notice_settles_what_is_owed() {
        let mut p = one_page(2, true);
        p.add_notice(0, 1, 1);
        p.add_notice(0, 1, 2);
        assert_eq!(p.owing(0).collect::<Vec<_>>(), [(1, 1, 2)]);
        p.applied_notice(0, 1, 1);
        assert_eq!(p.owing(0).collect::<Vec<_>>(), [(1, 2, 2)]);
        p.applied_notice(0, 1, 2);
        assert!(!p.owes(0));
        assert_eq!(p.applied(0)[1], 2);
    }

    /// A page's first retained diff gets one slot; the second grows the
    /// list as a `Vec` grows.
    #[test]
    fn a_first_diff_is_retained_in_a_list_of_one() {
        let mut p = Page::new_resident(8);
        p.retain_diff(1, Diff::empty());
        assert_eq!(p.my_diffs.capacity(), 1);
        assert_eq!(p.held_bytes().table, size_of::<(u32, Diff)>());
        p.retain_diff(2, Diff::empty());
        assert_eq!(p.my_diffs.capacity(), 4);
    }

    #[test]
    fn diff_retention_and_gc() {
        let mut p = Page::new_resident(8);
        for seq in 1..=5 {
            p.my_diffs.push((seq, Diff::empty()));
        }
        assert!(p.diffs_range(2, 4).is_some_and(|v| v.len() == 3));
        p.trim_diffs(2); // keeps seq 4, 5
        assert_eq!(p.trimmed, 3);
        assert!(p.diffs_range(2, 4).is_none(), "gc'd range must signal None");
        assert!(p.diffs_range(4, 5).is_some_and(|v| v.len() == 2));
        assert!(p.diffs_range(5, 4).is_some_and(|v| v.is_empty()));
    }

    /// A fetch asks from just above what the requester settled, so its
    /// `lo` can name a seq at which the writer never wrote this page: only
    /// a seq `trim_diffs` dropped turns the answer into a full page.
    #[test]
    fn diffs_range_answers_none_only_at_or_below_what_was_trimmed() {
        let mut p = Page::new_resident(8);
        p.my_diffs.push((3, Diff::empty()));
        p.my_diffs.push((5, Diff::empty()));
        let seqs =
            |r: Option<&[(u32, Diff)]>| r.map(|v| v.iter().map(|(s, _)| *s).collect::<Vec<_>>());
        assert_eq!(seqs(p.diffs_range(1, 5)), Some(vec![3, 5]));
        p.trim_diffs(1);
        assert_eq!(seqs(p.diffs_range(3, 5)), None);
        assert_eq!(seqs(p.diffs_range(4, 5)), Some(vec![5]));
    }

    /// The whole page as a reader sees it.
    fn image(s: &Spans) -> Vec<u8> {
        let mut out = vec![0u8; s.page_len()];
        for (at, piece) in s.read(0, s.page_len()) {
            out[at..at + piece.len()].copy_from_slice(piece);
        }
        out
    }

    #[test]
    fn a_unit_store_holds_what_was_written_in_page_order() {
        let mut s = Spans::zero(4096);
        assert_eq!(s.unit(), 64);
        s.write(1024 + 192, 64).fill(3);
        s.write(192, 64).fill(1);
        s.write(3 * 1024 + 192, 64).fill(7);
        assert_eq!(s.held(), 1 << 3 | 1 << 19 | 1 << 51);
        assert_eq!(s.held_slice().len(), 3 * 64);
        let mut want = vec![0u8; 4096];
        want[192..256].fill(1);
        want[1024 + 192..1024 + 256].fill(3);
        want[3 * 1024 + 192..3 * 1024 + 256].fill(7);
        assert_eq!(image(&s), want);
        // A range across two held units is one slice; one across a hole
        // is not.
        s.write(250, 12).fill(9);
        want[250..262].fill(9);
        assert_eq!(s.held() & 0x18, 0x18);
        assert!(s.get(250, 12).is_some());
        assert!(s.get(1000, 100).is_none());
        assert_eq!(
            s.runs().map(|(off, b)| (off, b.len())).collect::<Vec<_>>(),
            [(192, 128), (1216, 64), (3264, 64)]
        );
        assert!(!s.is_dense());
        s.whole();
        assert!(s.is_dense());
        assert_eq!(s.held_slice(), &want[..]);
    }

    /// A unit is a 64th of the page, rounded up to a power of two and
    /// never under 64 bytes; a page's last unit is what the page leaves.
    #[test]
    fn a_page_shorter_than_a_unit_or_ending_inside_one() {
        for (len, unit) in [
            (8, 64),
            (64, 64),
            (200, 64),
            (4096, 64),
            (4104, 128),
            (8192, 128),
            (16384, 256),
        ] {
            let mut s = Spans::zero(len);
            assert_eq!(s.unit(), unit, "a {len}-byte page");
            s.write(len - 8, 8).fill(5);
            assert_eq!(s.held_slice().len(), len - (len - 1) / unit * unit);
            let mut want = vec![0u8; len];
            want[len - 8..].fill(5);
            assert_eq!(image(&s), want);
            s.write(0, 4).fill(6);
            want[..4].fill(6);
            assert_eq!(image(&s), want);
        }
    }

    /// Page lengths the span-page property runs at: 64-, 128- and
    /// 256-byte units, and a page whose last unit is short.
    const LENS: [usize; 4] = [4096, 8192, 16384, 4104];

    fn encoded(d: &Diff) -> Vec<u8> {
        let mut w = WireWriter::new();
        d.encode(&mut w);
        w.finish()
    }

    /// What a full-page serve sends for the page: `None` for a zero page.
    fn served(p: &Page) -> Option<Vec<u8>> {
        let s = p.stable();
        (!s.is_zero()).then(|| {
            let mut out = vec![0u8; s.len()];
            s.write_into(&mut out);
            out
        })
    }

    proptest! {
        /// The owed ledger against a specification that keeps every
        /// pending notice as a `(writer, seq)` set. Each step is `(kind,
        /// writer, seq)`: 0–2 notice, 3 applies the writer's diffs up to
        /// `seq` (the page is readable once nothing is owed), 4 adopts a
        /// full page that applied the writer up to `seq` — an axis set
        /// back is owed again up to where it was — and 5 overwrites the
        /// whole page. For each writer `owing()`'s `hi` is the set's
        /// highest seq and every pending seq lies in its range; the access
        /// state moves as the set's does, a notice moving it when the set
        /// takes it in.
        #[test]
        fn the_owed_ledger_matches_a_set_of_pending_notices(
            unmapped in any::<bool>(),
            steps in proptest::collection::vec((0u8..6, 0u16..4, 0u32..12), 1..60)
        ) {
            let mut page = one_page(4, !unmapped);
            let (mut state, mut applied) = (page[0].state, vec![0u32; 4]);
            let mut pending: BTreeSet<(u16, u32)> = BTreeSet::new();
            for (kind, w, seq) in steps {
                let wi = w as usize;
                match kind {
                    0..=2 => {
                        page.add_notice(0, w, seq);
                        if seq > applied[wi] && pending.insert((w, seq)) {
                            state = match state {
                                Access::Unmapped => Access::Unmapped,
                                Access::Write | Access::WriteInvalid => Access::WriteInvalid,
                                _ => Access::Invalid,
                            };
                        }
                    }
                    3 => {
                        page.applied_notice(0, w, seq);
                        applied[wi] = applied[wi].max(seq);
                        pending.retain(|&(n, s)| n != w || s > seq);
                        if !page.owes(0) {
                            page[0].state = Access::Read;
                        }
                        if pending.is_empty() {
                            state = Access::Read;
                        }
                    }
                    4 => {
                        let mut full = page.applied(0).to_vec();
                        prop_assert_eq!(full[wi], applied[wi]);
                        full[wi] = seq;
                        page.adopt_applied(0, full.iter().copied());
                        pending.extend((seq + 1..=applied[wi]).map(|s| (w, s)));
                        applied[wi] = seq;
                        pending.retain(|&(n, s)| s > applied[n as usize]);
                        page[0].state = if page.owes(0) { Access::Invalid } else { Access::Read };
                        state = if pending.is_empty() { Access::Read } else { Access::Invalid };
                    }
                    _ => {
                        page.waive_owed(0);
                        for &(n, s) in &pending {
                            applied[n as usize] = applied[n as usize].max(s);
                        }
                        pending.clear();
                        page[0].state = Access::Write;
                        state = Access::Write;
                    }
                }
                prop_assert_eq!(page[0].state, state);
                prop_assert_eq!(page.applied(0), &applied[..]);
                prop_assert_eq!(page.owes(0), !pending.is_empty());
                let owing: Vec<(u16, u32, u32)> = page.owing(0).collect();
                for n in 0..4u16 {
                    let seqs: Vec<u32> = pending.iter().filter(|p| p.0 == n).map(|p| p.1).collect();
                    match owing.iter().find(|o| o.0 == n) {
                        Some(&(_, lo, hi)) => {
                            prop_assert_eq!(Some(&hi), seqs.last(), "writer {}", n);
                            prop_assert!(seqs.iter().all(|s| (lo..=hi).contains(s)));
                        }
                        None => prop_assert!(seqs.is_empty(), "writer {} owes {:?}", n, seqs),
                    }
                }
            }
        }

        /// A page copy and twin held unit by unit behave exactly as whole
        /// pages do — the same encoded diffs, the same stable copy, the
        /// same zero-page decision — through partial writes, peers' diffs
        /// (applied to the twin too while writing), zero and full
        /// adoptions, flushes and serves, at every page length in `LENS`.
        /// Each step is `(kind, a, b, v, runs)`: kinds 0–3 write `b` bytes
        /// of `v` at `a`, 4–5 apply a peer's diff of `runs`, 6 adopts a
        /// zero page (`b` even) or a full one, 7 flushes, 8 serves.
        /// `Diff::create` over whole pages is the specification, as
        /// `create_scalar` is for `create`.
        #[test]
        fn a_span_page_matches_a_dense_page(
            which in 0usize..LENS.len(),
            steps in proptest::collection::vec(
                (0u8..9, 0usize..MAX_PAGE, 1usize..600, any::<u8>(),
                 proptest::collection::vec((0usize..MAX_PAGE, 1usize..80), 1..6)),
                1..40)
        ) {
            let len = LENS[which];
            let mut page = Page::new_resident(len);
            let (mut model, mut model_twin) = (vec![0u8; len], None::<Vec<u8>>);
            for (kind, a, b, v, runs) in steps {
                let a = a % len;
                match kind {
                    0..=3 => {
                        let n = b.min(len - a);
                        if page.twin.is_none() {
                            page.start_twin(&mut SpareTwins::default());
                            model_twin = Some(model.clone());
                        }
                        page.write(a, n).fill(v);
                        model[a..a + n].fill(v);
                    }
                    4 | 5 => {
                        let mut theirs = model.clone();
                        for (off, n) in runs {
                            let off = off % len;
                            theirs[off..(off + n).min(len)].fill(v);
                        }
                        let d = Diff::create(&model, &theirs);
                        apply_to(&d, &mut page.data, page.twin.as_deref_mut());
                        d.apply(&mut model);
                        if let Some(t) = model_twin.as_mut() {
                            d.apply(t);
                        }
                    }
                    6 => {
                        let full = b % 2 == 1;
                        let img: Vec<u8> = if full {
                            (0..len).map(|i| (i as u8).wrapping_mul(v)).collect()
                        } else {
                            vec![0; len]
                        };
                        let spans = if full { Spans::dense(img.clone()) } else { Spans::zero(len) };
                        prop_assert_eq!(page.adopt(spans), model_twin.is_some());
                        if let Some(t) = model_twin.as_mut() {
                            let own = Diff::create(t, &model);
                            t.copy_from_slice(&img);
                            model = img;
                            own.apply(&mut model);
                        } else {
                            model = img;
                        }
                    }
                    7 => {
                        if let Some(t) = model_twin.take() {
                            let d = page.take_diff(&mut SpareTwins::default());
                            prop_assert_eq!(encoded(&d), encoded(&Diff::create(&t, &model)));
                        }
                    }
                    _ => {
                        let stable = model_twin.as_ref().unwrap_or(&model);
                        let want = (!is_all_zero(stable)).then(|| stable.clone());
                        prop_assert_eq!(served(&page), want);
                    }
                }
                prop_assert_eq!(image(&page.data), model.clone());
                if let Some(t) = page.twin.as_deref() {
                    prop_assert_eq!(t.held() & !page.data.held(), 0, "a twin unit its page lacks");
                }
            }
        }
    }
}
