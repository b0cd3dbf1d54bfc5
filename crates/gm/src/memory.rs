//! Registered (DMA-pinned) memory.
//!
//! GM can only send from and receive into memory that has been registered —
//! pinned in physical memory so the LANai's DMA engines can reach it
//! (paper §2.1: *"Memory used for communication in GM has to be locked down
//! before the communication commences"*, and §2.2.3 on why the substrate
//! keeps a pool of registered send buffers rather than registering
//! TreadMarks' own structures).
//!
//! [`RegBook`] is a node's registration accounting: [`pin`](RegBook::pin)
//! charges pin time per page and enforces the physical-memory budget. What
//! it pins — the send pool, the prepost slabs — the simulator never
//! addresses, so nothing on the host backs it. [`DmaPool`] is a bump pool of
//! registered send buffers, handed out as [`PooledBuf`]s — the
//! proof-of-registration token the send path demands.

use tm_sim::{Ns, SharedClock, SimParams};

/// Registration accounting for one node.
pub struct RegBook {
    clock: SharedClock,
    pin_page: Ns,
    page_size: usize,
    limit_bytes: usize,
    pinned_bytes: usize,
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
        }
    }

    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
    }

    /// Pin `len` bytes: charge pin time per page and count the whole pages
    /// against the budget. Pinned memory stays pinned for the node's life.
    pub fn pin(&mut self, len: usize) -> Result<(), RegError> {
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
        Ok(())
    }
}

/// A buffer allocated from a registered pool — the token that proves to
/// the send path that its bytes are DMA-reachable.
#[derive(Debug, Clone)]
pub struct PooledBuf {
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
    capacity: usize,
    outstanding: usize,
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
        book.pin(count * buf_len)?;
        Ok(DmaPool {
            capacity: count,
            outstanding: 0,
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
        Some(PooledBuf { data })
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
    fn pin_rounds_to_pages_and_charges_time() {
        let mut b = book(1 << 20);
        let clock = b.clock.clone();
        b.pin(5000).unwrap(); // 2 pages
        assert_eq!(b.pinned_bytes(), 8192);
        assert_eq!(clock.borrow().now(), Ns(2_000)); // 2 pages * 1us pin
    }

    #[test]
    fn budget_is_enforced() {
        let mut b = book(8192);
        b.pin(4096).unwrap();
        b.pin(4096).unwrap();
        let err = b.pin(1).unwrap_err();
        assert_eq!(
            err,
            RegError::OutOfPinnedMemory {
                requested: 4096,
                available: 0
            }
        );
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
}
