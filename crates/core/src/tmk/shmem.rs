//! The application-facing shared-memory layer.
//!
//! Owns region bookkeeping (`malloc`/`distribute`), the byte accessors
//! `read_bytes`/`write_bytes` that stand in for direct loads and stores,
//! and the typed `get_*`/`set_*`/`read_f*`/`write_f*` helpers built on
//! them. Every access walks the touched pages and calls down into the
//! coherence layer for the fault transitions an mprotect implementation
//! would take, charging the modeled fault costs.

use crate::page::PageId;
use crate::substrate::Substrate;

use super::{SharedId, Tmk};

pub(super) struct RegionInfo {
    pub(super) start_page: usize,
    pub(super) len: usize,
}

impl<S: Substrate> Tmk<S> {
    // ----- allocation ----------------------------------------------------

    /// Collective: every node must call with the same sizes in the same
    /// order (this is how TreadMarks programs use `Tmk_malloc` before
    /// `Tmk_distribute`). Page managers are assigned round-robin across
    /// the processors (as in TreadMarks); each page starts resident
    /// (zeroed) on its manager and unmapped elsewhere.
    pub fn malloc(&mut self, len: usize) -> SharedId {
        assert!(len > 0, "zero-length shared allocation");
        let npages = len.div_ceil(self.page_size);
        let start_page = self.allocated_pages;
        self.allocated_pages += npages;
        self.ensure_pages(start_page + npages);
        self.regions.push(RegionInfo { start_page, len });
        SharedId(self.regions.len() - 1)
    }

    /// `Tmk_distribute`: in TreadMarks this broadcasts the shared pointer
    /// so the other processes can address the allocation. Under the
    /// simulator the collective `malloc` is deterministic — every node
    /// derives the same region table — so there is no pointer to ship and
    /// no message or virtual time is charged. The call remains in the API
    /// for program fidelity and validates that the handle names a region
    /// this node actually allocated (the error `Tmk_distribute` would
    /// surface).
    pub fn distribute(&mut self, id: SharedId) {
        assert!(
            id.0 < self.regions.len(),
            "node {}: distribute of unallocated region {}",
            self.me,
            id.0
        );
    }

    // ----- data access ----------------------------------------------------

    /// Fault in the pages under `len` bytes at `(region, off)` and hand
    /// `f` each page's share of the span in turn, with its offset into
    /// the span — as one slice, or span by span where the page holds only
    /// some of them. Every read accessor goes through here, so they all
    /// take the same faults in the same order.
    fn read_span(&mut self, id: SharedId, off: usize, len: usize, mut f: impl FnMut(usize, &[u8])) {
        if len == 0 {
            return;
        }
        let r = &self.regions[id.0];
        assert!(off + len <= r.len, "read beyond region");
        let start_page = r.start_page;
        let first = (start_page + off / self.page_size) as PageId;
        let last = (start_page + (off + len - 1) / self.page_size) as PageId;
        if last > first {
            // Multi-page read: fault the whole span in one overlapped
            // batch so diff fetches to distinct writers fly together.
            self.ensure_readable_batch(first..=last);
        }
        let mut done = 0;
        while done < len {
            let abs = off + done;
            let pid = (start_page + abs / self.page_size) as PageId;
            self.ensure_readable(pid);
            let in_page = abs % self.page_size;
            let take = (self.page_size - in_page).min(len - done);
            let page = &self.pages[pid];
            for (at, piece) in page.data.read(in_page, take) {
                f(done + at, piece);
            }
            done += take;
        }
    }

    /// The write-side twin of [`Self::read_span`]: `f` fills each page's
    /// share of the span.
    fn write_span(
        &mut self,
        id: SharedId,
        off: usize,
        len: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) {
        if len == 0 {
            return;
        }
        let r = &self.regions[id.0];
        assert!(off + len <= r.len, "write beyond region");
        let start_page = r.start_page;
        let mut done = 0;
        while done < len {
            let abs = off + done;
            let pid = (start_page + abs / self.page_size) as PageId;
            let in_page = abs % self.page_size;
            let take = (self.page_size - in_page).min(len - done);
            if in_page == 0 && take == self.page_size {
                // Whole-page overwrite: no need to fetch content we are
                // about to replace (first-touch writes of fresh arrays
                // would otherwise ship pages of zeroes across the wire).
                self.ensure_writable_overwrite(pid);
            } else {
                self.ensure_writable(pid);
            }
            f(done, self.pages[pid].write(in_page, take));
            done += take;
        }
    }

    /// Read `out.len()` bytes from `(region, off)`.
    pub fn read_bytes(&mut self, id: SharedId, off: usize, out: &mut [u8]) {
        self.read_span(id, off, out.len(), |done, page| {
            out[done..done + page.len()].copy_from_slice(page);
        });
    }

    /// Write `src` to `(region, off)`.
    pub fn write_bytes(&mut self, id: SharedId, off: usize, src: &[u8]) {
        self.write_span(id, off, src.len(), |done, page| {
            page.copy_from_slice(&src[done..done + page.len()]);
        });
    }

    /// Bulk typed read: convert straight from the page bytes into `out`.
    /// Elements are `W`-aligned in a region and `W` divides the page size
    /// (checked in `Tmk::new`) and every unit a page is held in (64 bytes
    /// or more), so none straddles a page or a piece `read_span` hands
    /// over. The converter is a type parameter, not a `fn` pointer: called
    /// through a pointer it cannot inline, and a row of SOR is a call per
    /// element instead of a copy.
    fn read_elems<T, const W: usize>(
        &mut self,
        id: SharedId,
        idx: usize,
        out: &mut [T],
        from_le: impl Fn([u8; W]) -> T,
    ) {
        self.read_span(id, idx * W, out.len() * W, |done, page| {
            for (v, b) in out[done / W..].iter_mut().zip(page.chunks_exact(W)) {
                *v = from_le(b.try_into().expect("chunks_exact yields W bytes"));
            }
        });
    }

    /// Bulk typed write: convert straight from `src` into the page bytes.
    fn write_elems<T: Copy, const W: usize>(
        &mut self,
        id: SharedId,
        idx: usize,
        src: &[T],
        to_le: impl Fn(T) -> [u8; W],
    ) {
        self.write_span(id, idx * W, src.len() * W, |done, page| {
            for (v, b) in src[done / W..].iter().zip(page.chunks_exact_mut(W)) {
                b.copy_from_slice(&to_le(*v));
            }
        });
    }

    // Typed helpers ------------------------------------------------------

    pub fn get_u32(&mut self, id: SharedId, idx: usize) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(id, idx * 4, &mut b);
        u32::from_le_bytes(b)
    }

    pub fn set_u32(&mut self, id: SharedId, idx: usize, v: u32) {
        self.write_bytes(id, idx * 4, &v.to_le_bytes());
    }

    pub fn get_f64(&mut self, id: SharedId, idx: usize) -> f64 {
        let mut b = [0u8; 8];
        self.read_bytes(id, idx * 8, &mut b);
        f64::from_le_bytes(b)
    }

    pub fn set_f64(&mut self, id: SharedId, idx: usize, v: f64) {
        self.write_bytes(id, idx * 8, &v.to_le_bytes());
    }

    /// Bulk f32 read starting at element `idx`.
    pub fn read_f32s(&mut self, id: SharedId, idx: usize, out: &mut [f32]) {
        self.read_elems(id, idx, out, f32::from_le_bytes);
    }

    /// Bulk f32 write starting at element `idx`.
    pub fn write_f32s(&mut self, id: SharedId, idx: usize, src: &[f32]) {
        self.write_elems(id, idx, src, f32::to_le_bytes);
    }

    /// Bulk f64 read starting at element `idx`.
    pub fn read_f64s(&mut self, id: SharedId, idx: usize, out: &mut [f64]) {
        self.read_elems(id, idx, out, f64::from_le_bytes);
    }

    /// Bulk f64 write starting at element `idx`.
    pub fn write_f64s(&mut self, id: SharedId, idx: usize, src: &[f64]) {
        self.write_elems(id, idx, src, f64::to_le_bytes);
    }
}
