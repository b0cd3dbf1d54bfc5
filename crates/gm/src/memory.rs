//! Registered (DMA-pinned) memory.
//!
//! GM can only send from and receive into memory that has been registered —
//! pinned in physical memory so the LANai's DMA engines can reach it
//! (paper §2.1: *"Memory used for communication in GM has to be locked down
//! before the communication commences"*, and §2.2.3 on why the substrate
//! keeps a pool of registered send buffers rather than registering
//! TreadMarks' own structures).
//!
//! [`RegBook`] is a node's registration accounting: it charges pin time per
//! page and enforces the physical-memory budget. Memory the simulator only
//! has to *account* for (the send pool, the prepost slabs) is
//! [pinned](RegBook::pin) and costs the host nothing; memory a peer's
//! directed send lands in is [registered](RegBook::register) and gets a
//! [`Region`] to hold the bytes. [`DmaPool`] is a bump pool of registered
//! send/receive buffers, handed out as [`PooledBuf`]s — the
//! proof-of-registration token the send path demands.

use tm_sim::{Ns, SharedClock, SimParams};

/// Identifier of a registered region, carried in directed-send packets.
pub type RegionId = u32;

/// A pinned span owned by one node. `data` is its host backing: the
/// registered length for a [registered](RegBook::register) region, empty
/// for an accounting-only [pin](RegBook::pin).
#[derive(Debug)]
pub struct Region {
    pub id: RegionId,
    /// Bytes charged against the pin budget (whole pages).
    pinned: usize,
    pub data: Vec<u8>,
}

/// Registration accounting for one node.
pub struct RegBook {
    clock: SharedClock,
    pin_page: Ns,
    page_size: usize,
    limit_bytes: usize,
    pinned_bytes: usize,
    next_region: RegionId,
    regions: Vec<Region>,
}

/// Errors from registration.
#[derive(Debug, PartialEq, Eq)]
pub enum RegError {
    /// Physical memory budget exceeded — the failure mode §2.2.2's sizing
    /// arithmetic is designed to avoid.
    OutOfPinnedMemory { requested: usize, available: usize },
}

impl RegBook {
    /// `limit_bytes`: how much of physical memory may be pinned. The
    /// paper's nodes had 1 GB; OS + application need most of it.
    pub fn new(clock: SharedClock, params: &SimParams, limit_bytes: usize) -> Self {
        RegBook {
            clock,
            pin_page: params.host.pin_page,
            page_size: params.dsm.page_size,
            limit_bytes,
            pinned_bytes: 0,
            next_region: 1,
            regions: Vec::new(),
        }
    }

    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
    }

    /// Pin `len` bytes: charge pin time per page, count them against the
    /// budget and hand out an id. Accounting only — nothing on the host
    /// backs the span, so it cannot be a directed-send target.
    pub fn pin(&mut self, len: usize) -> Result<RegionId, RegError> {
        let pages = len.div_ceil(self.page_size).max(1);
        let pinned = pages * self.page_size;
        if self.pinned_bytes + pinned > self.limit_bytes {
            return Err(RegError::OutOfPinnedMemory {
                requested: pinned,
                available: self.limit_bytes - self.pinned_bytes,
            });
        }
        self.pinned_bytes += pinned;
        self.clock
            .borrow_mut()
            .advance(Ns(self.pin_page.0 * pages as u64));
        let id = self.next_region;
        self.next_region += 1;
        self.regions.push(Region {
            id,
            pinned,
            data: Vec::new(),
        });
        Ok(id)
    }

    /// [`pin`](RegBook::pin) `len` bytes and back them with a zeroed,
    /// addressable [`Region`] a directed send can write into.
    pub fn register(&mut self, len: usize) -> Result<RegionId, RegError> {
        let id = self.pin(len)?;
        self.regions.last_mut().expect("just pinned").data = vec![0; len];
        Ok(id)
    }

    /// Deregister (unpin) a region.
    pub fn deregister(&mut self, id: RegionId) {
        if let Some(i) = self.regions.iter().position(|r| r.id == id) {
            self.pinned_bytes -= self.regions.remove(i).pinned;
        }
    }

    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.iter().find(|r| r.id == id)
    }

    pub fn region_mut(&mut self, id: RegionId) -> Option<&mut Region> {
        self.regions.iter_mut().find(|r| r.id == id)
    }
}

/// A buffer allocated from a registered pool — the token that proves to
/// the send path that its bytes are DMA-reachable.
#[derive(Debug, Clone)]
pub struct PooledBuf {
    pub region: RegionId,
    pub data: Vec<u8>,
}

impl PooledBuf {
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A pool of registered send buffers (§2.2.3: the substrate copies outgoing
/// messages into registered buffers rather than registering TreadMarks'
/// data structures).
pub struct DmaPool {
    region: RegionId,
    capacity: usize,
    outstanding: usize,
    max_outstanding: usize,
    /// Retired buffer storage, reused by later takes — steady-state sends
    /// reuse registered memory instead of allocating per message.
    free: Vec<Vec<u8>>,
    /// Takes that could not reuse free-list storage (heap allocations).
    fresh: usize,
}

impl DmaPool {
    /// Carve a pool of `count` buffers of `buf_len` bytes out of newly
    /// pinned memory. The pool keeps its own buffer storage (`free`), so
    /// the pinned span itself is accounting only.
    pub fn new(book: &mut RegBook, count: usize, buf_len: usize) -> Result<Self, RegError> {
        let region = book.pin(count * buf_len)?;
        Ok(DmaPool {
            region,
            capacity: count,
            outstanding: 0,
            max_outstanding: 0,
            free: Vec::new(),
            fresh: 0,
        })
    }

    /// Take a buffer holding `data`'s bytes. Returns `None` when the pool
    /// is exhausted (caller must recycle completed sends first).
    pub fn take(&mut self, data: &[u8]) -> Option<PooledBuf> {
        self.take_parts(&[data])
    }

    /// Take a buffer gathering `parts` back to back — the scatter-gather
    /// copy into registered memory, one part per framing layer (e.g.
    /// `[kind], header, payload`) with no intermediate frame allocation.
    pub fn take_parts(&mut self, parts: &[&[u8]]) -> Option<PooledBuf> {
        if self.outstanding == self.capacity {
            return None;
        }
        self.outstanding += 1;
        self.max_outstanding = self.max_outstanding.max(self.outstanding);
        let mut data = match self.free.pop() {
            Some(d) => d,
            None => {
                self.fresh += 1;
                Vec::new()
            }
        };
        data.clear();
        for p in parts {
            data.extend_from_slice(p);
        }
        Some(PooledBuf {
            region: self.region,
            data,
        })
    }

    /// Return a buffer to the pool (send completion callback fired).
    pub fn recycle(&mut self) {
        debug_assert!(self.outstanding > 0, "recycle without take");
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Like [`recycle`](DmaPool::recycle), but also reclaims the buffer's
    /// storage for reuse by a later take.
    pub fn recycle_buf(&mut self, buf: PooledBuf) {
        self.recycle();
        self.free.push(buf.data);
    }

    pub fn available(&self) -> usize {
        self.capacity - self.outstanding
    }

    /// High-water mark of concurrently outstanding buffers.
    pub fn high_water(&self) -> usize {
        self.max_outstanding
    }

    /// How many takes had to allocate fresh storage instead of reusing the
    /// free list — flat in steady state once the pool is warm.
    pub fn fresh_takes(&self) -> usize {
        self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_sim::clock::shared_clock;

    fn book(limit: usize) -> RegBook {
        let params = Arc::new(SimParams::paper_testbed());
        RegBook::new(shared_clock(), &params, limit)
    }

    #[test]
    fn register_rounds_to_pages_and_charges_time() {
        let mut b = book(1 << 20);
        let clock = b.clock.clone();
        let id = b.register(5000).unwrap(); // 2 pages
        assert_eq!(b.pinned_bytes(), 8192);
        assert_eq!(clock.borrow().now(), Ns(2_000)); // 2 pages * 1us pin
        assert_eq!(b.region(id).unwrap().data.len(), 5000);
    }

    /// The send pool and the prepost slabs are megabytes per node that
    /// nothing ever reads or writes: pinning them must charge, count and
    /// limit exactly as registering does, and allocate nothing.
    #[test]
    fn pin_accounts_like_register_without_backing() {
        let (mut p, mut r) = (book(1 << 20), book(1 << 20));
        let (pc, rc) = (p.clock.clone(), r.clock.clone());
        let id = p.pin(5000).unwrap();
        r.register(5000).unwrap();
        assert_eq!(p.pinned_bytes(), r.pinned_bytes());
        assert_eq!(pc.borrow().now(), rc.borrow().now());
        assert_eq!(p.region(id).unwrap().data.capacity(), 0);
        assert_eq!(p.pin(1 << 20), r.register(1 << 20));
        p.deregister(id);
        assert_eq!(p.pinned_bytes(), 0);
    }

    #[test]
    fn budget_is_enforced() {
        let mut b = book(8192);
        b.register(4096).unwrap();
        b.register(4096).unwrap();
        let err = b.register(1).unwrap_err();
        assert_eq!(
            err,
            RegError::OutOfPinnedMemory {
                requested: 4096,
                available: 0
            }
        );
    }

    #[test]
    fn deregister_releases_budget() {
        let mut b = book(8192);
        let id = b.register(8192).unwrap();
        assert!(b.register(1).is_err());
        b.deregister(id);
        assert_eq!(b.pinned_bytes(), 0);
        assert!(b.register(4096).is_ok());
    }

    #[test]
    fn pool_take_recycle_cycle() {
        let mut b = book(1 << 20);
        let mut pool = DmaPool::new(&mut b, 2, 1024).unwrap();
        assert_eq!(pool.available(), 2);
        let buf = pool.take(b"abc").unwrap();
        assert_eq!(buf.data, b"abc");
        let _b2 = pool.take(b"d").unwrap();
        assert!(pool.take(b"overflow").is_none());
        pool.recycle();
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.high_water(), 2);
    }

    #[test]
    fn take_parts_gathers_and_reuses_storage() {
        let mut b = book(1 << 20);
        let mut pool = DmaPool::new(&mut b, 2, 1024).unwrap();
        let buf = pool.take_parts(&[&[0u8], b"head", b"payload"]).unwrap();
        assert_eq!(buf.data, b"\0headpayload");
        let cap = buf.data.capacity();
        pool.recycle_buf(buf);
        assert_eq!(pool.available(), 2);
        // Storage comes back out of the free list, capacity intact.
        let again = pool.take_parts(&[b"x"]).unwrap();
        assert_eq!(again.data, b"x");
        assert_eq!(again.data.capacity(), cap);
    }

    #[test]
    fn region_mut_is_writable() {
        let mut b = book(1 << 20);
        let id = b.register(16).unwrap();
        b.region_mut(id).unwrap().data[3] = 0xAB;
        assert_eq!(b.region(id).unwrap().data[3], 0xAB);
    }
}
