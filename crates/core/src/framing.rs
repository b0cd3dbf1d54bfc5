//! The substrate frame codec: frame kinds, fragmentation, fragment
//! headers and partial-frame reassembly.
//!
//! FAST/GM and UDP/GM differ in what a send costs and where an arrival
//! comes from, and in nothing else: each holds one [`Codec`] and moves the
//! bytes it plans. A message `body` travels as the stream
//! `[DATA] ++ body`. If that fits the transport's `limit` it is one
//! frame; otherwise it is cut into `[FRAG][xid][idx][total] ++ chunk`
//! frames of at most `limit − 1` bytes, piece `i` leaving at `at + i`.
//!
//! * [`Codec`] — the send-side plan ([`Codec::pieces`]) and the
//!   receive-side demux ([`Codec::accept`]), which never panics on what
//!   a frame says;
//! * [`FragPlan`] — how a stream of `len` bytes splits at a chunk size
//!   (also the IP-level fragment count the UDP kernel cost model folds
//!   per-fragment costs over, via [`fragment_count`]);
//! * [`FragHeader`] — the `xid`/`idx`/`total` header every fragment
//!   carries (encode and checked decode);
//! * [`Reassembler`] — per-`(src, xid, tag)` partial-frame tracking with
//!   duplicate suppression, geometry validation, and single-copy
//!   assembly into a pooled buffer.

use tm_sim::Ns;

use crate::substrate::{Chan, IncomingMsg};
use crate::wire::pool;

/// Frame kind of a whole message: `[DATA] ++ body`.
const DATA: u8 = 0;
/// Frame kind of one fragment of a larger `[DATA] ++ body` stream.
const FRAG: u8 = 1;

/// Encoded size of the header body: `[xid u32][idx u16][total u16]`.
pub const FRAG_BODY_LEN: usize = 8;
/// Bytes of a fragment's head: `[FRAG][xid u32][idx u16][total u16]`.
const FRAG_HEAD_LEN: usize = 1 + FRAG_BODY_LEN;

/// The per-fragment header: which transfer, which piece, how many pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragHeader {
    /// Transfer id, unique per sender (one counter per [`Codec`]).
    pub xid: u32,
    /// This fragment's index in `0..total`.
    pub idx: u16,
    /// Total fragments in the transfer.
    pub total: u16,
}

impl FragHeader {
    /// The full on-wire head: `[FRAG] ++ [xid][idx][total]`.
    pub fn head(&self) -> [u8; FRAG_HEAD_LEN] {
        let mut h = [0u8; FRAG_HEAD_LEN];
        h[0] = FRAG;
        h[1..5].copy_from_slice(&self.xid.to_le_bytes());
        h[5..7].copy_from_slice(&self.idx.to_le_bytes());
        h[7..9].copy_from_slice(&self.total.to_le_bytes());
        h
    }

    /// Checked decode of a fragment body (everything after the kind
    /// byte). `None` on a truncated header or impossible geometry
    /// (`total == 0`, `idx >= total`) — the callers count those as
    /// malformed frames. Returns the header and the fragment payload.
    pub fn parse(body: &[u8]) -> Option<(FragHeader, &[u8])> {
        if body.len() < FRAG_BODY_LEN {
            return None;
        }
        let xid = u32::from_le_bytes(body[0..4].try_into().expect("checked len"));
        let idx = u16::from_le_bytes(body[4..6].try_into().expect("checked len"));
        let total = u16::from_le_bytes(body[6..8].try_into().expect("checked len"));
        if total == 0 || idx >= total {
            return None;
        }
        Some((FragHeader { xid, idx, total }, &body[FRAG_BODY_LEN..]))
    }
}

/// How many wire units a payload of `len` bytes occupies at unit size
/// `mtu` (at least one — an empty datagram still travels). This is both
/// the DSM-level fragment count and the IP-level fragment count the UDP
/// kernel model folds per-fragment interrupt/bookkeeping costs over.
pub fn fragment_count(len: usize, mtu: usize) -> usize {
    len.max(1).div_ceil(mtu)
}

/// Fragmentation geometry for one outbound transfer: `len` stream bytes
/// cut into `total` chunks of at most `chunk` bytes.
#[derive(Debug, Clone, Copy)]
pub struct FragPlan {
    len: usize,
    chunk: usize,
    /// Number of fragments the stream cuts into.
    pub total: usize,
}

/// Plan the split of a `len`-byte logical stream at `chunk` bytes per
/// fragment. `len` must be positive (callers only fragment oversized
/// frames).
pub fn plan(len: usize, chunk: usize) -> FragPlan {
    debug_assert!(len > 0 && chunk > 0);
    FragPlan {
        len,
        chunk,
        total: len.div_ceil(chunk),
    }
}

impl FragPlan {
    /// The byte range of the logical stream each fragment carries, in
    /// index order — identical boundaries to slicing a materialized
    /// frame.
    pub fn ranges(self) -> impl Iterator<Item = core::ops::Range<usize>> {
        let (chunk, len) = (self.chunk, self.len);
        (0..self.total).map(move |i| (i * chunk)..((i + 1) * chunk).min(len))
    }
}

/// A partially reassembled transfer.
struct Partial<T> {
    src: usize,
    tag: T,
    xid: u32,
    have: u16,
    chunks: Vec<Option<Vec<u8>>>,
    last_arrival: Ns,
}

/// Outcome of absorbing one fragment.
pub enum Insert<T> {
    /// Fragment absorbed (or was a duplicate); the transfer is still
    /// incomplete.
    Pending,
    /// The fragment's geometry disagrees with the first fragment seen for
    /// this transfer — the frame is untrustworthy and the fragment was
    /// discarded (count it as malformed).
    Malformed,
    /// The last piece arrived: the complete frame.
    Complete(CompleteFrame<T>),
}

/// A fully reassembled transfer, ready for single-copy assembly.
pub struct CompleteFrame<T> {
    /// Sending node.
    pub src: usize,
    /// The caller's demux tag (the codec's channel) from the first
    /// fragment.
    pub tag: T,
    /// Latest fragment arrival — when the frame became deliverable.
    pub arrival: Ns,
    chunks: Vec<Option<Vec<u8>>>,
}

impl<T> CompleteFrame<T> {
    /// First byte of the logical stream (the embedded kind byte of a
    /// fragmented `[DATA] ++ body`); `None` if chunk 0 is empty.
    pub fn first_byte(&self) -> Option<u8> {
        self.chunks[0].as_ref().expect("complete").first().copied()
    }

    /// Join the chunks into one pooled buffer, skipping the first `skip`
    /// bytes of the logical stream (the codec strips the embedded kind
    /// byte of `[DATA] ++ body` here). Single copy: each chunk moves
    /// straight into the surfaced buffer and returns to the pool.
    pub fn assemble(self, skip: usize) -> Vec<u8> {
        let flen: usize = self.chunks.iter().flatten().map(Vec::len).sum();
        let mut full = pool::take(flen - skip);
        for (i, c) in self.chunks.into_iter().enumerate() {
            let c = c.expect("complete");
            if i == 0 {
                full.extend_from_slice(&c[skip..]);
            } else {
                full.extend_from_slice(&c);
            }
            pool::give(c);
        }
        full
    }
}

/// Receiver-side reassembly state for one endpoint. `T` is the demux
/// tag (the codec's [`Chan`]): transfers are keyed on `(src, xid, tag)`,
/// so an xid reused across channels can never splice.
pub struct Reassembler<T> {
    partials: Vec<Partial<T>>,
}

impl<T: Copy + Eq> Reassembler<T> {
    pub fn new() -> Self {
        Reassembler {
            partials: Vec::new(),
        }
    }

    /// Number of transfers currently in flight (introspection/tests).
    pub fn in_flight(&self) -> usize {
        self.partials.len()
    }

    /// Absorb one fragment. `payload` must be a pooled buffer holding
    /// exactly this fragment's bytes; ownership transfers (it is recycled
    /// on duplicates and surfaced inside [`Insert::Complete`]).
    pub fn insert(
        &mut self,
        src: usize,
        tag: T,
        h: FragHeader,
        payload: Vec<u8>,
        arrival: Ns,
    ) -> Insert<T> {
        let slot = match self
            .partials
            .iter()
            .position(|p| p.src == src && p.xid == h.xid && p.tag == tag)
        {
            Some(i) => i,
            None => {
                self.partials.push(Partial {
                    src,
                    tag,
                    xid: h.xid,
                    have: 0,
                    chunks: vec![None; h.total as usize],
                    last_arrival: arrival,
                });
                self.partials.len() - 1
            }
        };
        {
            let p = &mut self.partials[slot];
            if p.chunks.len() != h.total as usize {
                pool::give(payload);
                return Insert::Malformed;
            }
            if p.chunks[h.idx as usize].is_none() {
                p.chunks[h.idx as usize] = Some(payload);
                p.have += 1;
            } else {
                // Duplicate fragment (lossy transports retransmit whole
                // messages): keep the first copy.
                pool::give(payload);
            }
            p.last_arrival = p.last_arrival.max(arrival);
        }
        if self.partials[slot].have as usize == self.partials[slot].chunks.len() {
            let p = self.partials.remove(slot);
            Insert::Complete(CompleteFrame {
                src: p.src,
                tag: p.tag,
                arrival: p.last_arrival,
                chunks: p.chunks,
            })
        } else {
            Insert::Pending
        }
    }
}

impl<T: Copy + Eq> Default for Reassembler<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A frame that cannot be interpreted: empty, of an unknown kind, with a
/// truncated or impossible fragment header, with geometry its transfer
/// disagrees with, or reassembling to a stream that is not
/// `[DATA] ++ body`. The substrate counts it (`malformed_dropped`) and
/// drops it.
#[derive(Debug, PartialEq, Eq)]
pub struct Malformed;

/// One frame of a planned send: its head (the kind byte, or a fragment
/// header, plus the embedded kind byte on piece 0) and the slice of the
/// body it carries.
pub struct Piece<'a> {
    head: [u8; FRAG_HEAD_LEN + 1],
    head_len: usize,
    body: &'a [u8],
    /// When the frame leaves: the send's `at` plus the piece's index, or
    /// `None` (now) for a send that charges its own path.
    pub at: Option<Ns>,
}

impl Piece<'_> {
    /// The frame as head then body slice, for the substrate to gather
    /// straight into its send buffer.
    pub fn parts(&self) -> [&[u8]; 2] {
        [&self.head[..self.head_len], self.body]
    }
}

/// One endpoint's frame codec: its transport's frame limit, its transfer
/// counter, and its reassembly state (keyed by channel, so an xid reused
/// across channels never splices).
pub struct Codec {
    limit: usize,
    next_xid: u32,
    partials: Reassembler<Chan>,
}

impl Codec {
    /// A codec for a transport whose frames are at most `limit` bytes.
    pub fn new(limit: usize) -> Self {
        assert!(limit > FRAG_HEAD_LEN + 1, "no room for a fragment");
        Codec {
            limit,
            next_xid: 1,
            partials: Reassembler::new(),
        }
    }

    /// Plan `body` into the frames that carry it, leaving from `at`. The
    /// pieces borrow only `body`, so the substrate can push each one
    /// through itself as the loop goes.
    pub fn pieces<'a>(
        &mut self,
        body: &'a [u8],
        at: Option<Ns>,
    ) -> impl Iterator<Item = Piece<'a>> + 'a {
        let flen = body.len() + 1;
        let whole = flen <= self.limit;
        // A fragment is its head, its chunk and one byte of slack.
        let chunk = if whole {
            flen
        } else {
            self.limit - FRAG_HEAD_LEN - 1
        };
        let p = plan(flen, chunk);
        let total = u16::try_from(p.total).expect("at most 65 535 fragments");
        let xid = self.next_xid;
        if !whole {
            self.next_xid += 1;
        }
        p.ranges().enumerate().map(move |(i, r)| {
            let mut head = [0u8; FRAG_HEAD_LEN + 1];
            let mut head_len = 0;
            if !whole {
                let idx = i as u16;
                head[..FRAG_HEAD_LEN].copy_from_slice(&FragHeader { xid, idx, total }.head());
                head_len = FRAG_HEAD_LEN;
            }
            if r.start == 0 {
                head[head_len] = DATA;
                head_len += 1;
            }
            // Stream byte k is body byte k − 1.
            Piece {
                head,
                head_len,
                body: &body[r.start.saturating_sub(1)..r.end - 1],
                at: at.map(|t| t + Ns(i as u64)),
            }
        })
    }

    /// Demux one frame that arrived from `from` on `chan`: a whole
    /// message (its body copied once into a pooled buffer), `None` for a
    /// fragment of a transfer still incomplete, or [`Malformed`].
    pub fn accept(
        &mut self,
        from: usize,
        chan: Chan,
        bytes: &[u8],
        arrival: Ns,
    ) -> Result<Option<IncomingMsg>, Malformed> {
        let msg = |data, arrival| IncomingMsg {
            from,
            chan,
            data,
            arrival,
        };
        let (&kind, rest) = bytes.split_first().ok_or(Malformed)?;
        match kind {
            DATA => {
                let mut data = pool::take(rest.len());
                data.extend_from_slice(rest);
                Ok(Some(msg(data, arrival)))
            }
            FRAG => {
                let (h, chunk) = FragHeader::parse(rest).ok_or(Malformed)?;
                let mut payload = pool::take(chunk.len());
                payload.extend_from_slice(chunk);
                match self.partials.insert(from, chan, h, payload, arrival) {
                    Insert::Pending => Ok(None),
                    Insert::Complete(f) if f.first_byte() == Some(DATA) => {
                        let arrival = f.arrival;
                        Ok(Some(msg(f.assemble(1), arrival)))
                    }
                    Insert::Complete(_) | Insert::Malformed => Err(Malformed),
                }
            }
            _ => Err(Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(xid: u32, idx: u16, total: u16) -> FragHeader {
        FragHeader { xid, idx, total }
    }

    #[test]
    fn header_roundtrip() {
        let h = frag(0xDEAD_BEEF, 3, 9);
        let head = h.head();
        assert_eq!(head[0], FRAG);
        let (got, rest) = FragHeader::parse(&head[1..]).expect("parses");
        assert_eq!(got, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn parse_rejects_bad_geometry() {
        assert!(FragHeader::parse(&[0u8; 7]).is_none(), "truncated");
        let zero_total = frag(1, 0, 0).head();
        // Hand-build: total 0 is impossible.
        assert!(FragHeader::parse(&zero_total[1..]).is_none());
        let oob = frag(1, 5, 5).head();
        assert!(FragHeader::parse(&oob[1..]).is_none(), "idx >= total");
    }

    #[test]
    fn plan_covers_stream_exactly() {
        let p = plan(100, 30);
        assert_eq!(p.total, 4);
        let ranges: Vec<_> = p.ranges().collect();
        assert_eq!(ranges, vec![0..30, 30..60, 60..90, 90..100]);
        // Exact multiple: no ragged tail.
        let q = plan(60, 30);
        assert_eq!(q.total, 2);
        assert_eq!(q.ranges().last(), Some(30..60));
    }

    #[test]
    fn fragment_count_floor_is_one() {
        assert_eq!(fragment_count(0, 1500), 1);
        assert_eq!(fragment_count(1500, 1500), 1);
        assert_eq!(fragment_count(1501, 1500), 2);
    }

    #[test]
    fn reassembles_out_of_order_with_duplicates() {
        let mut r: Reassembler<u8> = Reassembler::new();
        let parts: [&[u8]; 3] = [b"aa", b"bb", b"c"];
        // Deliver 2, 0, 0 (dup), 1.
        for (idx, t) in [(2u16, Ns(30)), (0, Ns(10)), (0, Ns(11)), (1, Ns(20))] {
            let got = r.insert(7, 1, frag(42, idx, 3), parts[idx as usize].to_vec(), t);
            match (idx, got) {
                (1, Insert::Complete(f)) => {
                    assert_eq!(f.src, 7);
                    assert_eq!(f.tag, 1);
                    assert_eq!(f.arrival, Ns(30), "latest fragment arrival wins");
                    assert_eq!(f.assemble(0), b"aabbc");
                }
                (1, _) => panic!("last fragment must complete"),
                (_, Insert::Pending) => {}
                _ => panic!("unexpected outcome"),
            }
        }
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn assemble_skips_embedded_kind_byte() {
        let mut r: Reassembler<u8> = Reassembler::new();
        let Insert::Pending = r.insert(0, 0, frag(1, 0, 2), b"\x00head".to_vec(), Ns(1)) else {
            panic!("incomplete")
        };
        let Insert::Complete(f) = r.insert(0, 0, frag(1, 1, 2), b"tail".to_vec(), Ns(2)) else {
            panic!("complete")
        };
        assert_eq!(f.first_byte(), Some(0));
        assert_eq!(f.assemble(1), b"headtail");
    }

    #[test]
    fn distinct_tags_never_splice() {
        let mut r: Reassembler<u8> = Reassembler::new();
        assert!(matches!(
            r.insert(0, 1, frag(5, 0, 2), b"x".to_vec(), Ns(0)),
            Insert::Pending
        ));
        // Same (src, xid) on another tag is a different transfer.
        assert!(matches!(
            r.insert(0, 2, frag(5, 1, 2), b"y".to_vec(), Ns(0)),
            Insert::Pending
        ));
        assert_eq!(r.in_flight(), 2);
    }

    #[test]
    fn geometry_mismatch_is_malformed() {
        let mut r: Reassembler<u8> = Reassembler::new();
        assert!(matches!(
            r.insert(0, 0, frag(9, 0, 3), b"x".to_vec(), Ns(0)),
            Insert::Pending
        ));
        assert!(matches!(
            r.insert(0, 0, frag(9, 1, 4), b"y".to_vec(), Ns(0)),
            Insert::Malformed
        ));
    }

    /// The codec tests' frame limit: a fragment chunk is `LIMIT - 10`.
    const LIMIT: usize = 32;

    /// `body`'s frames, each with its departure time.
    fn frames(codec: &mut Codec, body: &[u8], at: Option<Ns>) -> Vec<(Vec<u8>, Option<Ns>)> {
        codec
            .pieces(body, at)
            .map(|p| (p.parts().concat(), p.at))
            .collect()
    }

    fn body(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Feed `frames` to a receiving codec in order; every one but the
    /// last is a pending fragment, and the last surfaces the message.
    fn deliver(rx: &mut Codec, frames: &[Vec<u8>]) -> IncomingMsg {
        let (last, rest) = frames.split_last().expect("a frame");
        for f in rest {
            assert_eq!(rx.accept(3, Chan::Response, f, Ns(5)), Ok(None));
        }
        rx.accept(3, Chan::Response, last, Ns(9))
            .expect("well formed")
            .expect("complete")
    }

    #[test]
    fn codec_fragments_only_past_the_limit() {
        let (mut tx, mut rx) = (Codec::new(LIMIT), Codec::new(LIMIT));
        // Frames of LIMIT − 1 and LIMIT bytes travel whole.
        for len in [LIMIT - 2, LIMIT - 1] {
            let b = body(len);
            let fs = frames(&mut tx, &b, Some(Ns(100)));
            assert_eq!(fs.len(), 1);
            assert_eq!(fs[0].0, [&[DATA][..], &b].concat());
            assert_eq!(fs[0].1, Some(Ns(100)));
            assert_eq!(deliver(&mut rx, &[fs[0].0.clone()]).data, b);
        }
        // LIMIT + 1 bytes of stream cut at LIMIT − 10; a 51-byte stream is
        // three pieces. Piece i leaves at at + i.
        for (len, want) in [(LIMIT, vec![31, 20]), (50, vec![31, 31, 16])] {
            let b = body(len);
            let fs = frames(&mut tx, &b, Some(Ns(100)));
            let lens: Vec<usize> = fs.iter().map(|f| f.0.len()).collect();
            assert_eq!(lens, want, "{len}-byte body");
            for (i, (f, at)) in fs.iter().enumerate() {
                assert_eq!(f[0], FRAG);
                assert_eq!(*at, Some(Ns(100 + i as u64)));
            }
            let got = deliver(&mut rx, &fs.into_iter().map(|f| f.0).collect::<Vec<_>>());
            assert_eq!((got.data, got.arrival), (b, Ns(9)));
        }
        // An immediate send stays immediate for every piece.
        assert!(frames(&mut tx, &body(50), None)
            .iter()
            .all(|f| f.1.is_none()));
    }

    #[test]
    fn codec_numbers_each_fragmented_transfer() {
        let mut tx = Codec::new(LIMIT);
        let xid = |f: &[u8]| FragHeader::parse(&f[1..]).expect("a fragment").0.xid;
        let a = frames(&mut tx, &body(40), None);
        let _whole = frames(&mut tx, &body(3), None);
        let b = frames(&mut tx, &body(40), None);
        assert_eq!((xid(&a[0].0), xid(&a[1].0), xid(&b[0].0)), (1, 1, 2));
    }

    #[test]
    fn codec_reassembles_out_of_order_and_duplicated() {
        let (mut tx, mut rx) = (Codec::new(LIMIT), Codec::new(LIMIT));
        let b = body(50);
        let fs: Vec<Vec<u8>> = frames(&mut tx, &b, None).into_iter().map(|f| f.0).collect();
        for (i, t) in [(2, 30), (0, 10), (2, 31), (0, 11)] {
            assert_eq!(rx.accept(3, Chan::Request, &fs[i], Ns(t)), Ok(None));
        }
        // The same transfer on the other channel is another transfer.
        assert_eq!(rx.accept(3, Chan::Response, &fs[1], Ns(40)), Ok(None));
        let got = rx
            .accept(3, Chan::Request, &fs[1], Ns(20))
            .unwrap()
            .unwrap();
        assert_eq!(
            (got.from, got.chan, got.arrival),
            (3, Chan::Request, Ns(31))
        );
        assert_eq!(got.data, b);
        assert_eq!(rx.partials.in_flight(), 1);
    }

    #[test]
    fn codec_counts_what_it_cannot_read_as_malformed() {
        let mut rx = Codec::new(LIMIT);
        let mut accept = |f: &[u8]| rx.accept(0, Chan::Request, f, Ns(0));
        assert_eq!(accept(&[]), Err(Malformed), "empty frame");
        assert_eq!(accept(&[7, 1, 2]), Err(Malformed), "unknown kind");
        assert_eq!(
            accept(&[FRAG, 1, 0, 0, 0, 0]),
            Err(Malformed),
            "truncated header"
        );
        assert_eq!(
            accept(&frag(1, 2, 2).head()),
            Err(Malformed),
            "idx past total"
        );
        // A stream whose first byte is not DATA, and one whose chunk 0 is
        // empty, reassemble to nothing a runtime can read.
        for (xid, first) in [(2, &[FRAG][..]), (3, &[][..])] {
            let f0 = [&frag(xid, 0, 2).head()[..], first].concat();
            let f1 = [&frag(xid, 1, 2).head()[..], b"body"].concat();
            assert_eq!(accept(&f0), Ok(None));
            assert_eq!(accept(&f1), Err(Malformed), "transfer {xid}");
        }
        // Geometry that disagrees with the transfer's first fragment.
        assert_eq!(
            accept(&[&frag(4, 0, 3).head()[..], &[DATA]].concat()),
            Ok(None)
        );
        assert_eq!(accept(&frag(4, 1, 2).head()), Err(Malformed));
        // An empty body is a message.
        assert_eq!(accept(&[DATA]).unwrap().unwrap().data, b"");
    }
}
