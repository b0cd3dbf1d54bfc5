//! Hand-rolled wire encoding: little-endian, length-prefixed.
//!
//! TreadMarks' messages are C structs on the wire; we keep the same spirit
//! (no self-describing serialization framework, no allocation churn) with a
//! tiny writer/reader pair. All protocol messages in [`crate::protocol`]
//! encode through these.
//!
//! The [`pool`] module supplies the buffers: a thread-local free-list of
//! `Vec<u8>` bucketed into power-of-two size classes, directly modeled on
//! GM's preposted receive buffers (`crates/gm/src/size.rs`, paper §2.1).
//! Steady-state message construction takes a buffer from the pool, encodes
//! into it, and recycles it after the send-side copy — zero heap
//! allocations per message once the pool is warm.
//!
//! The scalar codecs and the pool's `take` / `give` are `#[inline]`: every
//! message runs them, and left to itself the compiler's choice to inline
//! them moved with unrelated edits elsewhere in the crate, by up to 3 % of
//! a synchronization-bound run's host time.

/// Thread-local buffer pool with GM-style power-of-two size classes: one
/// pool per cluster, whose nodes are contexts sharing the caller's thread.
///
/// A class `s` holds buffers of capacity `2^s`; `take(cap)` hands out the
/// smallest class that fits, `give(v)` returns a buffer to its class.
/// Hit/miss counters make the steady-state zero-allocation property
/// testable (and observable in benchmarks).
pub mod pool {
    use std::cell::RefCell;

    /// Smallest class handed out: `2^6` = 64 bytes (below this, pooling
    /// costs more than it saves; GM likewise never preposts below size 4).
    const MIN_CLASS: u32 = 6;
    /// Largest class retained: `2^20` = 1 MiB (a full TreadMarks barrier
    /// payload; anything bigger is freed rather than hoarded).
    const MAX_CLASS: u32 = 20;
    /// Free-list depth per class, mirroring a NIC's finite prepost ring.
    const PER_CLASS: usize = 32;

    /// Pool observability counters (monotonic per thread).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct PoolStats {
        /// `take()` satisfied from the free list (no allocation).
        pub hits: u64,
        /// `take()` had to allocate a fresh buffer.
        pub misses: u64,
        /// `give()` accepted a buffer back into the free list.
        pub recycled: u64,
        /// `give()` dropped a buffer (class full or out of range).
        pub discarded: u64,
    }

    struct Pool {
        classes: Vec<Vec<Vec<u8>>>,
        stats: PoolStats,
    }

    thread_local! {
        static POOL: RefCell<Pool> = RefCell::new(Pool {
            classes: (0..=MAX_CLASS).map(|_| Vec::new()).collect(),
            stats: PoolStats::default(),
        });
    }

    /// Size class for a requested capacity: smallest `s` with
    /// `cap <= 2^s`, clamped to `MIN_CLASS` (cf. `gm_size`).
    fn class_for(cap: usize) -> u32 {
        let bits = usize::BITS - cap.saturating_sub(1).leading_zeros();
        bits.max(MIN_CLASS)
    }

    /// An empty `Vec<u8>` with capacity at least `cap`. Pops from the
    /// free list when a buffer of the right class is available.
    #[inline]
    pub fn take(cap: usize) -> Vec<u8> {
        let s = class_for(cap);
        if s > MAX_CLASS {
            POOL.with(|p| p.borrow_mut().stats.misses += 1);
            return Vec::with_capacity(cap);
        }
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if let Some(mut v) = p.classes[s as usize].pop() {
                p.stats.hits += 1;
                v.clear();
                v
            } else {
                p.stats.misses += 1;
                Vec::with_capacity(1usize << s)
            }
        })
    }

    /// Return a buffer to the pool. Buffers whose class ring is full (or
    /// whose capacity is out of the pooled range) are simply freed.
    #[inline]
    pub fn give(v: Vec<u8>) {
        let cap = v.capacity();
        if cap < (1usize << MIN_CLASS) {
            POOL.with(|p| p.borrow_mut().stats.discarded += 1);
            return;
        }
        // Floor class: the largest `s` with `2^s <= capacity`, so a
        // subsequent `take` of up to `2^s` is guaranteed to fit.
        let s = (usize::BITS - 1 - cap.leading_zeros()).min(MAX_CLASS);
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.classes[s as usize].len() < PER_CLASS {
                p.stats.recycled += 1;
                p.classes[s as usize].push(v);
            } else {
                p.stats.discarded += 1;
            }
        });
    }

    /// Snapshot this thread's counters.
    pub fn stats() -> PoolStats {
        POOL.with(|p| p.borrow().stats)
    }

    /// Zero the counters (free lists are kept warm).
    pub fn reset_stats() {
        POOL.with(|p| p.borrow_mut().stats = PoolStats::default());
    }
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer backed by a pooled buffer; pair with [`recycle`] (or
    /// [`pool::give`] on the finished Vec) to keep the pool warm.
    ///
    /// [`recycle`]: WireWriter::recycle
    pub fn pooled(cap: usize) -> Self {
        WireWriter {
            buf: pool::take(cap),
        }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// LEB128 variable-length u32: 1 byte for values < 128, at most 5.
    /// Used where small values dominate but the full range must stay
    /// representable — vector-clock entries chiefly, whose fixed-width
    /// encoding made every synchronization message grow 4·nprocs bytes.
    #[inline]
    pub fn u32v(&mut self, v: u32) -> &mut Self {
        self.u64v(u64::from(v))
    }

    /// LEB128 variable-length u64: at most 10 bytes.
    #[inline]
    pub fn u64v(&mut self, mut v: u64) -> &mut Self {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return self;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Length-prefixed byte slice (u32 length).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Raw bytes, no length prefix (caller knows the framing).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append `n` zero bytes and hand them back to be written by index —
    /// for an encoder that knows its exact size before it writes.
    pub fn raw_mut(&mut self, n: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }

    /// Reserve a u16 slot to be filled in later (e.g. a run count that is
    /// only known after streaming the runs). Returns the slot's offset for
    /// [`patch_u16`].
    ///
    /// [`patch_u16`]: WireWriter::patch_u16
    pub fn reserve_u16(&mut self) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0, 0]);
        at
    }

    /// Backpatch a slot from [`reserve_u16`].
    ///
    /// [`reserve_u16`]: WireWriter::reserve_u16
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far, without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Drop the encoded content but keep the capacity for the next message.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Return the backing buffer to the thread-local [`pool`].
    pub fn recycle(self) {
        pool::give(self.buf);
    }
}

/// Bytes [`WireWriter::u64v`] (or `u32v`) writes for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Cursor-style decoder. All reads return `Option` — a malformed message
/// surfaces as `None`, which the protocol layer treats as a hard error.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// LEB128 variable-length u32. Rejects encodings longer than 5 bytes,
    /// overflowing 32 bits (a malformed frame's stray continuation bit)
    /// or overlong — a zero last byte after the first, which
    /// [`WireWriter::u32v`] never writes — instead of panicking.
    #[inline]
    pub fn u32v(&mut self) -> Option<u32> {
        self.varint::<32>().map(|v| v as u32)
    }

    /// LEB128 variable-length u64, by [`Self::u32v`]'s rules: at most 10
    /// bytes, none overflowing 64 bits, none overlong.
    #[inline]
    pub fn u64v(&mut self) -> Option<u64> {
        self.varint::<64>()
    }

    /// A canonical LEB128 value of at most `BITS` bits.
    #[inline]
    fn varint<const BITS: u32>(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in (0..BITS).step_by(7) {
            let b = self.u8()?;
            let part = u64::from(b & 0x7f);
            if BITS - shift < 7 && part >> (BITS - shift) != 0 {
                return None;
            }
            v |= part << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return None;
                }
                return Some(v);
            }
        }
        None
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Exactly `n` raw bytes (caller-framed).
    pub fn raw_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        self.take(n)
    }

    /// All remaining bytes, without consuming them.
    pub fn peek_rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// All remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.peek_rest();
        self.pos = self.buf.len();
        s
    }
}

/// `image` with the byte at `at` (modulo its length plus one) overwritten
/// (`kind` 0; appended past the end), cut short there (1) or one byte
/// inserted there (2): what a decoder's canonical proptest feeds it besides
/// arbitrary bytes.
#[cfg(test)]
pub(crate) fn mutated(image: &[u8], kind: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut v = image.to_vec();
    let at = at % (v.len() + 1);
    match kind {
        0 if at < v.len() => v[at] = byte,
        1 => v.truncate(at),
        _ => v.insert(at, byte),
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(300));
        assert_eq!(r.u32(), Some(70_000));
        assert_eq!(r.u64(), Some(1 << 40));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut w = WireWriter::new();
        w.bytes(b"hello").bytes(b"").u8(9);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes(), Some(&b"hello"[..]));
        assert_eq!(r.bytes(), Some(&b""[..]));
        assert_eq!(r.u8(), Some(9));
    }

    #[test]
    fn varint_sizes_and_roundtrip() {
        for (v, len) in [
            (0u32, 1usize),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX, 5),
        ] {
            let mut w = WireWriter::new();
            w.u32v(v);
            let buf = w.finish();
            assert_eq!(buf.len(), len, "encoded size of {v}");
            let mut r = WireReader::new(&buf);
            assert_eq!(r.u32v(), Some(v));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // Six continuation bytes: too long for a u32.
        let mut r = WireReader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
        assert_eq!(r.u32v(), None);
        // Five bytes whose top nibble overflows 32 bits.
        let mut r = WireReader::new(&[0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(r.u32v(), None);
        // Truncated mid-value.
        let mut r = WireReader::new(&[0x80]);
        assert_eq!(r.u32v(), None);
        // 3 in two bytes: the writer spends one.
        let mut r = WireReader::new(&[0x83, 0x00]);
        assert_eq!(r.u32v(), None);
        assert_eq!(WireReader::new(&[0x00]).u32v(), Some(0));
    }

    #[test]
    fn u64_varint_sizes_roundtrip_and_bounds() {
        for (v, len) in [
            (0u64, 1usize),
            (127, 1),
            (128, 2),
            (u64::from(u32::MAX), 5),
            (1 << 35, 6),
            (u64::MAX, 10),
        ] {
            let mut w = WireWriter::new();
            w.u64v(v);
            let buf = w.finish();
            assert_eq!(buf.len(), len, "encoded size of {v}");
            let mut r = WireReader::new(&buf);
            assert_eq!(r.u64v(), Some(v));
            assert_eq!(r.remaining(), 0);
            // A u32 reader takes exactly the values that fit.
            assert_eq!(WireReader::new(&buf).u32v(), u32::try_from(v).ok());
        }
        // Ten bytes whose last carries more than the 64th bit.
        let mut over = [0xffu8; 10];
        over[9] = 0x02;
        assert_eq!(WireReader::new(&over).u64v(), None);
        over[9] = 0x01;
        assert_eq!(WireReader::new(&over).u64v(), Some(u64::MAX));
        // Eleven bytes, overlong, or truncated.
        assert_eq!(WireReader::new(&[0x80; 11]).u64v(), None);
        assert_eq!(WireReader::new(&[0x81, 0x00]).u64v(), None);
        assert_eq!(WireReader::new(&[0xff; 3]).u64v(), None);
    }

    #[test]
    fn short_reads_are_none_not_panic() {
        let buf = [1u8, 2];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u32(), None);
        // A failed read consumes nothing.
        assert_eq!(r.u16(), Some(0x0201));
    }

    #[test]
    fn truncated_length_prefix() {
        let mut w = WireWriter::new();
        w.u32(100); // claims 100 bytes follow; none do
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes(), None);
    }

    #[test]
    fn reserve_and_patch_u16() {
        let mut w = WireWriter::new();
        w.u8(9);
        let at = w.reserve_u16();
        w.u32(0xAABBCCDD);
        w.patch_u16(at, 513);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Some(9));
        assert_eq!(r.u16(), Some(513));
        assert_eq!(r.u32(), Some(0xAABBCCDD));
    }

    #[test]
    fn pool_round_trips_buffers() {
        pool::reset_stats();
        let v = pool::take(100); // class 7 -> 128B capacity
        assert!(v.capacity() >= 100);
        assert_eq!(pool::stats().misses, 1);
        pool::give(v);
        assert_eq!(pool::stats().recycled, 1);
        let v2 = pool::take(120); // same class: must be a hit
        assert_eq!(pool::stats().hits, 1);
        assert!(v2.is_empty() && v2.capacity() >= 120);
        pool::give(v2);
    }

    #[test]
    fn pool_steady_state_allocates_nothing() {
        pool::reset_stats();
        // Warm one class, then cycle it: every take after the first must hit.
        for _ in 0..64 {
            let mut w = WireWriter::pooled(1024);
            w.u64(42).raw(&[0u8; 500]);
            w.recycle();
        }
        let s = pool::stats();
        assert_eq!(s.misses, 1, "only the warm-up take may allocate: {s:?}");
        assert_eq!(s.hits, 63);
    }

    #[test]
    fn pool_tiny_and_huge_are_not_hoarded() {
        pool::reset_stats();
        pool::give(Vec::with_capacity(8)); // below MIN_CLASS
        assert_eq!(pool::stats().discarded, 1);
        let big = pool::take(4 << 20); // above MAX_CLASS: plain allocation
        assert!(big.capacity() >= 4 << 20);
        assert_eq!(pool::stats().misses, 1);
    }

    #[test]
    fn rest_consumes_everything() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.rest(), &[2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    proptest! {
        #[test]
        fn mixed_roundtrip(a: u8, b: u16, c: u32, d: u64, v in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut w = WireWriter::new();
            w.u8(a).u16(b).bytes(&v).u32(c).u64(d);
            let buf = w.finish();
            let mut r = WireReader::new(&buf);
            prop_assert_eq!(r.u8(), Some(a));
            prop_assert_eq!(r.u16(), Some(b));
            prop_assert_eq!(r.bytes(), Some(&v[..]));
            prop_assert_eq!(r.u32(), Some(c));
            prop_assert_eq!(r.u64(), Some(d));
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
