//! Vector timestamps for lazy release consistency.
//!
//! `vc[p]` counts the intervals of processor `p` whose write notices this
//! node has incorporated. The happens-before partial order of LRC is the
//! pointwise order on these vectors.

use crate::wire::{varint_len, WireReader, WireWriter};

/// A vector timestamp, one counter per processor.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct VectorClock {
    v: Vec<u32>,
}

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock { v: self.v.clone() }
    }

    /// Into this clock's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.v.clone_from(&source.v);
    }
}

impl VectorClock {
    pub fn new(nprocs: usize) -> Self {
        VectorClock { v: vec![0; nprocs] }
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    pub fn get(&self, p: usize) -> u32 {
        self.v[p]
    }

    pub fn set(&mut self, p: usize, val: u32) {
        self.v[p] = val;
    }

    /// Start processor `p`'s next interval; returns the new counter.
    pub fn tick(&mut self, p: usize) -> u32 {
        self.v[p] += 1;
        self.v[p]
    }

    /// Pointwise maximum (join). Panics on mismatched cluster sizes.
    pub fn join(&mut self, other: &VectorClock) {
        assert_eq!(self.v.len(), other.v.len());
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a = (*a).max(*b);
        }
    }

    /// Pointwise minimum (meet). The combining-tree barrier uses this as a
    /// subtree's coverage floor: an interval record is needed by *some*
    /// subtree member iff it is newer than the meet of the members' clocks.
    /// Panics on mismatched cluster sizes.
    pub fn meet(&mut self, other: &VectorClock) {
        assert_eq!(self.v.len(), other.v.len());
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a = (*a).min(*b);
        }
    }

    /// `self ≤ other` in the pointwise (happens-before) order.
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        assert_eq!(self.v.len(), other.v.len());
        self.v.iter().zip(&other.v).all(|(a, b)| a <= b)
    }

    /// Σ of the counters: strictly monotone in the happens-before order
    /// (`a ≤ b` and `a ≠ b` imply `a.sum() < b.sum()`).
    pub fn sum(&self) -> u64 {
        self.v.iter().map(|&x| u64::from(x)).sum()
    }

    /// Wire encoding: u16 length then one LEB128 varint per entry.
    /// Interval counters are small in practice, so a clock costs about
    /// nprocs bytes instead of 4·nprocs — on a 128-node cluster that is
    /// the difference between barrier arrivals being latency-bound and
    /// being wire-bound.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u16(self.v.len() as u16);
        for &x in &self.v {
            w.u32v(x);
        }
    }

    /// Bytes [`Self::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        2 + self.v.iter().map(|&x| varint_len(x.into())).sum::<usize>()
    }

    /// Pointwise maximum with a clock as it arrived.
    pub fn join_image(&mut self, other: ClockImage) {
        assert_eq!(self.v.len(), other.len());
        for (a, b) in self.v.iter_mut().zip(other.iter()) {
            *a = (*a).max(b);
        }
    }

    pub fn decode(r: &mut WireReader) -> Option<VectorClock> {
        let mut vc = VectorClock::new(0);
        vc.decode_into(r)?;
        Some(vc)
    }

    /// [`Self::decode`] into this clock, reusing its buffer: on `None` it
    /// holds whatever it read.
    pub fn decode_into(&mut self, r: &mut WireReader) -> Option<()> {
        let n = r.u16()? as usize;
        self.v.clear();
        // Bounded by what the frame can hold, not by what it claims.
        self.v.reserve(n.min(r.remaining()));
        for _ in 0..n {
            self.v.push(r.u32v()?);
        }
        Some(())
    }
}

/// A clock as it arrived, `[count u16][varint…]`: checked by
/// `ClockImage::decode` and borrowed from the frame, for a receiver that
/// only joins it into its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockImage<'a> {
    bytes: &'a [u8],
}

impl<'a> ClockImage<'a> {
    /// Accept what [`VectorClock::decode`] accepts, building nothing.
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Option<ClockImage<'a>> {
        let start = r.peek_rest();
        for _ in 0..r.u16()? {
            r.u32v()?;
        }
        Some(ClockImage {
            bytes: &start[..start.len() - r.remaining()],
        })
    }

    pub fn len(&self) -> usize {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]]) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The clock as it arrived.
    pub(crate) fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The counters, by processor.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let mut r = WireReader::new(&self.bytes[2..]);
        std::iter::from_fn(move || r.u32v())
    }

    /// Overwrite `clock` with this image, in `clock`'s buffer.
    pub fn copy_into(&self, clock: &mut VectorClock) {
        clock.v.clear();
        clock.v.extend(self.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tick_and_get() {
        let mut vc = VectorClock::new(3);
        assert_eq!(vc.tick(1), 1);
        assert_eq!(vc.tick(1), 2);
        assert_eq!(vc.get(1), 2);
        assert_eq!(vc.get(0), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = VectorClock::new(3);
        b.set(0, 2);
        b.set(1, 7);
        a.join(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 7);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn dominance_and_concurrency() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        assert!(a.dominated_by(&b) && b.dominated_by(&a)); // equal
        a.tick(0);
        assert!(b.dominated_by(&a));
        assert!(!a.dominated_by(&b));
        b.tick(1);
        assert!(!a.dominated_by(&b) && !b.dominated_by(&a));
    }

    #[test]
    fn wire_roundtrip() {
        let mut a = VectorClock::new(4);
        a.set(0, 1);
        a.set(3, 9);
        let mut w = WireWriter::new();
        a.encode(&mut w);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(VectorClock::decode(&mut r), Some(a));
    }

    proptest! {
        /// join is a least upper bound: idempotent, commutative, monotone.
        #[test]
        fn join_is_lub(xs in proptest::collection::vec(0u32..100, 4), ys in proptest::collection::vec(0u32..100, 4)) {
            let a = VectorClock { v: xs };
            let b = VectorClock { v: ys };
            let mut ab = a.clone();
            ab.join(&b);
            let mut ba = b.clone();
            ba.join(&a);
            prop_assert_eq!(&ab, &ba);            // commutative
            prop_assert!(a.dominated_by(&ab));    // upper bound
            prop_assert!(b.dominated_by(&ab));
            let mut abb = ab.clone();
            abb.join(&b);
            prop_assert_eq!(&abb, &ab);           // idempotent
        }

        /// meet is a greatest lower bound, dual to join.
        #[test]
        fn meet_is_glb(xs in proptest::collection::vec(0u32..100, 4), ys in proptest::collection::vec(0u32..100, 4)) {
            let a = VectorClock { v: xs };
            let b = VectorClock { v: ys };
            let mut ab = a.clone();
            ab.meet(&b);
            let mut ba = b.clone();
            ba.meet(&a);
            prop_assert_eq!(&ab, &ba);            // commutative
            prop_assert!(ab.dominated_by(&a));    // lower bound
            prop_assert!(ab.dominated_by(&b));
            let mut abb = ab.clone();
            abb.meet(&b);
            prop_assert_eq!(&abb, &ab);           // idempotent
        }

        #[test]
        fn roundtrip_any(xs in proptest::collection::vec(any::<u32>(), 0..64)) {
            let a = VectorClock { v: xs };
            let mut w = WireWriter::new();
            a.encode(&mut w);
            let buf = w.finish();
            prop_assert_eq!(VectorClock::decode(&mut WireReader::new(&buf)), Some(a));
        }

        /// `encoded_len` counts what `encode` writes, for counters of every
        /// varint length (a shift of 0..32 spreads them over 1 to 5 bytes).
        #[test]
        fn encoded_len_is_what_encode_writes(xs in proptest::collection::vec((any::<u32>(), 0u32..32), 0..64)) {
            let a = VectorClock { v: xs.iter().map(|&(x, shift)| x >> shift).collect() };
            let mut w = WireWriter::new();
            a.encode(&mut w);
            prop_assert_eq!(w.as_slice().len(), a.encoded_len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5000))]

        /// Over arbitrary bytes and over one-byte overwrites, truncations
        /// and insertions of valid images: decoding never panics, and what
        /// decodes re-encodes to exactly the bytes it consumed.
        #[test]
        fn decode_is_total_and_canonical(
            junk in proptest::collection::vec(any::<u8>(), 0..48),
            which in 0usize..3,
            kind in 0u8..3,
            at: usize,
            byte: u8,
        ) {
            let clocks = [vec![], vec![0, 1, 127, 128], vec![u32::MAX, 300, 0, 16_384, 5]];
            let mut w = WireWriter::new();
            VectorClock { v: clocks[which].clone() }.encode(&mut w);
            for buf in [junk, crate::wire::mutated(&w.finish(), kind, at, byte)] {
                let mut r = WireReader::new(&buf);
                if let Some(vc) = VectorClock::decode(&mut r) {
                    let mut w = WireWriter::new();
                    vc.encode(&mut w);
                    prop_assert_eq!(&w.finish()[..], &buf[..buf.len() - r.remaining()]);
                }
            }
        }
    }
}
