//! Twins and diffs.
//!
//! TreadMarks detects what a processor wrote to a page by comparing the
//! page against its *twin* (a copy taken at the first write of the
//! interval) word by word, and encodes the changed runs. Diffs are what
//! cross the wire instead of whole pages — the Diff microbenchmark of the
//! paper's Figure 3 times exactly this machinery.
//!
//! [`Diff::create`] makes two passes. The first builds a change mask, one
//! bit per 32-bit word: an equal 256-byte span costs one array compare,
//! and any other span gets its 64-bit mask word from flat, branch-free
//! loops. The second reads the runs off the mask a mask word at a time
//! (a run starts where a bit rises and ends where it falls) and writes
//! them into an image allocated once at its exact size. Red-black SOR
//! leaves every other word changed, 512 one-word runs per page, so the
//! cost per run matters as much as the cost of skipping equal words. Run
//! boundaries are identical to the scalar word-by-word scan
//! ([`Diff::create_scalar`], kept as the executable specification); an
//! equivalence property test pins that down.

use std::iter::successors;
use std::ops::Range;

use crate::wire::{WireReader, WireWriter};

/// Comparison granularity, bytes. TreadMarks compares 32-bit words.
pub const WORD: usize = 4;

/// Page bytes one mask word covers: 64 words.
const SPAN: usize = 64 * WORD;

/// Mask words for the largest u16-addressable page.
const MASK_WORDS: usize = (u16::MAX as usize).div_ceil(SPAN);

/// Bit `k` set iff word `k` of the span differs. Both loops are flat and
/// fixed-length, so the compiler vectorises them: one `!=` per word into a
/// byte, then each 8 bytes of 0 / 1 gathered into 8 bits by one multiply
/// (byte `j` lands on bit `56 + j`, and no two partial products overlap).
fn span_mask(twin: &[u8; SPAN], cur: &[u8; SPAN]) -> u64 {
    let word = |b: &[u8]| u32::from_ne_bytes(b.try_into().unwrap());
    let mut ne = [0u8; 64];
    for (k, (a, b)) in ne
        .iter_mut()
        .zip(twin.chunks_exact(WORD).zip(cur.chunks_exact(WORD)))
    {
        *k = (word(a) != word(b)) as u8;
    }
    ne.chunks_exact(8).enumerate().fold(0, |m, (i, bytes)| {
        let v = u64::from_le_bytes(bytes.try_into().unwrap());
        m | (v.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
    })
}

/// The mask word of a span shorter than [`SPAN`]; a partial last word is
/// compared on the bytes it has.
fn tail_mask(twin: &[u8], cur: &[u8]) -> u64 {
    twin.chunks(WORD)
        .zip(cur.chunks(WORD))
        .enumerate()
        .fold(0, |m, (k, (a, b))| m | ((a != b) as u64) << k)
}

/// `true` iff every byte is zero, scanned a u64 at a time (the full-page
/// serve path uses this to spot freshly-zeroed pages and send a compact
/// `ZeroPage` marker instead of the payload).
pub fn is_all_zero(buf: &[u8]) -> bool {
    let mut chunks = buf.chunks_exact(8);
    chunks.all(|c| u64::from_ne_bytes(c.try_into().unwrap()) == 0)
        && chunks.remainder().iter().all(|&b| b == 0)
}

/// A run-length-encoded page delta, held as its wire image: one buffer,
/// `[runs u16][(off u16, len u16, payload)…]`, little-endian. Runs are
/// non-empty, ascending and non-overlapping — true of everything
/// [`Diff::create`] emits and checked once by [`Diff::decode`] — so
/// [`Diff::apply`] needs no per-run validation beyond
/// [`extent`](Diff::extent)` <= target.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    image: Vec<u8>,
    /// End offset of the last run (0 when empty).
    extent: usize,
}

/// Size of the run-count header and of one run's `(off, len)` header.
const COUNT_HDR: usize = 2;
const RUN_HDR: usize = 4;

impl Diff {
    /// Build the image of the runs `cur[r]`, streamed in ascending order
    /// into a pooled scratch buffer that is never regrown — runs are
    /// separated by at least one equal word, so `k` runs carrying `p`
    /// payload bytes span `p + WORD·(k-1) <= n` and encode to at most
    /// `n + COUNT_HDR + RUN_HDR` bytes — then copied out at exactly its
    /// size (a retained diff of a sparse page is a few dozen bytes).
    fn from_runs(cur: &[u8], runs: impl Iterator<Item = Range<usize>>) -> Diff {
        assert!(cur.len() <= u16::MAX as usize, "page exceeds u16 offsets");
        let mut w = WireWriter::pooled(cur.len() + COUNT_HDR + RUN_HDR);
        let count_slot = w.reserve_u16();
        let (mut count, mut extent) = (0u16, 0);
        for r in runs {
            w.u16(r.start as u16).u16(r.len() as u16);
            w.raw(&cur[r.clone()]);
            count += 1;
            extent = r.end;
        }
        w.patch_u16(count_slot, count);
        let image = w.as_slice().to_vec();
        w.recycle();
        Diff { image, extent }
    }

    /// Compare `twin` (before) and `cur` (after); encode changed runs at
    /// word granularity. Slices must be the same length.
    ///
    /// Pass one fills a stack mask, bit `w` set iff word `w` differs
    /// (`span_mask`). Its popcounts size the image exactly:
    /// `m & !(m << 1 | carry)` marks the first word of each run, and the
    /// payload is four bytes per set bit, less whatever a partial last
    /// word lacks. Pass two walks the mask a word at a time, with `up` the
    /// mask shifted up one word: `starts = m & !up` and `ends = !m & up`
    /// alternate, so each start pairs with the next end, and a run still
    /// open at bit 63 is closed by the next mask word's first end, or by
    /// the page end. Each run's header and payload are written by index
    /// into the one allocation.
    pub fn create(twin: &[u8], cur: &[u8]) -> Diff {
        assert_eq!(twin.len(), cur.len(), "twin/page size mismatch");
        let n = cur.len();
        assert!(n <= u16::MAX as usize, "page exceeds u16 offsets");
        let words = n.div_ceil(WORD);
        let mut mask = [0u64; MASK_WORDS];
        let spans = twin.chunks_exact(SPAN).zip(cur.chunks_exact(SPAN));
        for (m, (a, b)) in mask.iter_mut().zip(spans) {
            let (a, b): (&[u8; SPAN], &[u8; SPAN]) = (a.try_into().unwrap(), b.try_into().unwrap());
            if a != b {
                *m = span_mask(a, b);
            }
        }
        let full = n / SPAN * SPAN;
        if full < n {
            mask[n / SPAN] = tail_mask(&twin[full..], &cur[full..]);
        }
        let mask = &mask[..words.div_ceil(64)];

        let (mut runs, mut changed, mut carry) = (0, 0, 0);
        for &m in mask {
            runs += (m & !(m << 1 | carry)).count_ones() as usize;
            changed += m.count_ones() as usize;
            carry = m >> 63;
        }
        let last_changed = words > 0 && mask[(words - 1) / 64] >> ((words - 1) % 64) & 1 == 1;
        let short = if last_changed { words * WORD - n } else { 0 };
        let mut image = vec![0; COUNT_HDR + RUN_HDR * runs + changed * WORD - short];
        image[..COUNT_HDR].copy_from_slice(&(runs as u16).to_le_bytes());

        let (mut at, mut extent) = (COUNT_HDR, 0);
        let mut emit = |start: usize, end: usize| {
            let (off, end) = (start * WORD, (end * WORD).min(n));
            let run = &mut image[at..at + RUN_HDR + end - off];
            run[..2].copy_from_slice(&(off as u16).to_le_bytes());
            run[2..RUN_HDR].copy_from_slice(&((end - off) as u16).to_le_bytes());
            run[RUN_HDR..].copy_from_slice(&cur[off..end]);
            at += run.len();
            extent = end;
        };
        let (mut prev, mut open) = (0, 0);
        for (i, &m) in mask.iter().enumerate() {
            let base = i * 64;
            let up = m << 1 | prev >> 63;
            let (mut starts, mut ends) = (m & !up, !m & up);
            if prev >> 63 == 1 && ends != 0 {
                emit(open, base + ends.trailing_zeros() as usize);
                ends &= ends - 1;
            }
            while starts != 0 {
                let s = base + starts.trailing_zeros() as usize;
                starts &= starts - 1;
                if ends == 0 {
                    open = s;
                } else {
                    emit(s, base + ends.trailing_zeros() as usize);
                    ends &= ends - 1;
                }
            }
            prev = m;
        }
        if prev >> 63 == 1 {
            emit(open, words);
        }
        debug_assert_eq!(at, image.len());
        Diff { image, extent }
    }

    /// The original word-by-word comparison: the executable specification
    /// for run boundaries, and the benchmark baseline the mask-driven
    /// [`Diff::create`] is measured against.
    pub fn create_scalar(twin: &[u8], cur: &[u8]) -> Diff {
        assert_eq!(twin.len(), cur.len(), "twin/page size mismatch");
        let n = cur.len();
        let differs = |i: usize| twin[i..(i + WORD).min(n)] != cur[i..(i + WORD).min(n)];
        let run_from = |mut i: usize| {
            while i < n && !differs(i) {
                i += WORD;
            }
            let start = i;
            while i < n && differs(i) {
                i += WORD;
            }
            (start < n).then(|| start..i.min(n))
        };
        Diff::from_runs(cur, successors(run_from(0), |r| run_from(r.end)))
    }

    /// An empty diff (no words changed).
    pub fn empty() -> Diff {
        Diff::from_runs(&[], std::iter::empty())
    }

    /// A diff carrying the entire (non-empty) page (used when a
    /// whole-page overwrite skipped fetching the old content: every word
    /// is authoritative).
    pub fn full(cur: &[u8]) -> Diff {
        assert!(!cur.is_empty(), "full diff of an empty page");
        Diff::from_runs(cur, std::iter::once(0..cur.len()))
    }

    pub fn run_count(&self) -> usize {
        u16::from_le_bytes([self.image[0], self.image[1]]) as usize
    }

    /// Total payload bytes carried (what the wire pays for).
    pub fn payload_bytes(&self) -> usize {
        self.image.len() - COUNT_HDR - RUN_HDR * self.run_count()
    }

    /// Encoded size on the wire: header + per-run (offset u16, len u16) +
    /// payload.
    pub fn encoded_len(&self) -> usize {
        self.image.len()
    }

    /// End offset of the last run: the diff applies to any target at
    /// least this long. A receiver checks it against its page size once.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// The runs in ascending order as `(offset, payload)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut rest = &self.image[COUNT_HDR..];
        std::iter::from_fn(move || {
            let (&[o0, o1, l0, l1], tail) = rest.split_first_chunk()?;
            let (data, tail) = tail.split_at(u16::from_le_bytes([l0, l1]) as usize);
            rest = tail;
            Some((u16::from_le_bytes([o0, o1]) as usize, data))
        })
    }

    /// Overlay the diff onto `target` (the receiving node's copy).
    /// In-place: only `copy_from_slice` into the existing page, never a
    /// reallocation. Panics if `target` is shorter than [`Diff::extent`].
    pub fn apply(&self, target: &mut [u8]) {
        let target = &mut target[..self.extent];
        for (off, data) in self.runs() {
            target[off..off + data.len()].copy_from_slice(data);
        }
    }

    pub fn encode(&self, w: &mut WireWriter) {
        w.raw(&self.image);
    }

    /// One bounds-checking walk to find the image's extent on the wire
    /// and validate it, then one copy. `None` for a truncated image, an
    /// empty run, or runs that are not ascending and non-overlapping.
    pub fn decode(r: &mut WireReader) -> Option<Diff> {
        let mut walk = WireReader::new(r.peek_rest());
        let mut extent = 0;
        for _ in 0..walk.u16()? {
            let off = walk.u16()? as usize;
            let len = walk.u16()? as usize;
            if len == 0 || off < extent {
                return None;
            }
            extent = off + walk.raw_bytes(len)?.len();
        }
        let image = r.raw_bytes(r.remaining() - walk.remaining())?.to_vec();
        Some(Diff { image, extent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(d: &Diff) -> Diff {
        let mut w = WireWriter::new();
        d.encode(&mut w);
        let buf = w.finish();
        Diff::decode(&mut WireReader::new(&buf)).expect("decode")
    }

    #[test]
    fn no_change_is_empty() {
        let page = vec![7u8; 128];
        let d = Diff::create(&page, &page);
        assert_eq!(d.run_count(), 0);
        assert_eq!(d.encoded_len(), 2);
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
        assert_eq!(roundtrip(&d), d);
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

    /// `create` agrees with the spec, applies back to `cur`, and its image
    /// carries no slack: a retained diff is resident memory.
    fn check(twin: &[u8], cur: &[u8]) -> Diff {
        let d = Diff::create(twin, cur);
        assert_eq!(d, Diff::create_scalar(twin, cur), "len={}", cur.len());
        assert_eq!(d.image.capacity(), d.image.len());
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

    fn decode(buf: &[u8]) -> Option<Diff> {
        Diff::decode(&mut WireReader::new(buf))
    }

    #[test]
    fn image_accessors_are_consistent() {
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
        let mut w = WireWriter::new();
        d.encode(&mut w);
        assert_eq!(w.len(), d.encoded_len());
        assert_eq!(Diff::empty().extent(), 0);
        assert_eq!(Diff::empty().encoded_len(), 2);
    }

    #[test]
    fn decode_consumes_exactly_one_image() {
        let mut buf = image(&[(4, &[1; 4]), (12, &[2; 8])]);
        buf.extend_from_slice(&[0xEE; 3]); // whatever follows on the wire
        let mut r = WireReader::new(&buf);
        let d = Diff::decode(&mut r).expect("well-formed");
        assert_eq!(r.remaining(), 3);
        assert_eq!((d.run_count(), d.payload_bytes(), d.extent()), (2, 12, 20));
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
        // Adjacent runs do not overlap: legal, if never emitted by create.
        assert!(decode(&image(&[(0, &[1; 4]), (4, &[2; 4])])).is_some());
    }

    /// A well-framed image reaching past the page is caught by one
    /// compare on `extent`, before `apply` is ever entered.
    #[test]
    fn extent_exposes_out_of_range_runs() {
        let d = decode(&image(&[(60, &[0xEE; 8])])).expect("well-framed");
        assert_eq!(d.extent(), 68); // > a 64-byte page: the receiver drops it
        let far = decode(&image(&[(u16::MAX, &[1; 4])])).expect("well-framed");
        assert_eq!(far.extent(), u16::MAX as usize + 4);
    }

    #[test]
    #[should_panic]
    fn apply_past_the_target_panics_before_writing() {
        let d = decode(&image(&[(0, &[1; 4]), (60, &[2; 8])])).expect("well-framed");
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

        /// The decoder accepts exactly the images whose runs are
        /// non-empty, ascending and non-overlapping, and whatever it
        /// accepts applies cleanly to any target at least `extent` long.
        #[test]
        fn decode_accepts_exactly_the_valid_images(
            steps in proptest::collection::vec(
                (0usize..10, proptest::collection::vec(any::<u8>(), 0..6)), 0..6)
        ) {
            // Each run starts `step - 2` past the previous run's end: mostly
            // legal gaps, some overlaps, some empty payloads.
            let mut end = 0usize;
            let mut valid = true;
            let mut runs: Vec<(u16, &[u8])> = Vec::new();
            for (step, data) in &steps {
                let off = (end + step).saturating_sub(2);
                valid &= !data.is_empty() && off >= end;
                end = off + data.len();
                runs.push((off as u16, data));
            }
            let decoded = decode(&image(&runs));
            prop_assert_eq!(decoded.is_some(), valid);
            if let Some(d) = decoded {
                prop_assert_eq!(d.extent(), end);
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
            prop_assert_eq!(roundtrip(&d), d);
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
    }
}
