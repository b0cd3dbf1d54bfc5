//! Allocation budgets for the diff data path and for interval metadata.
//!
//! A diff is one buffer at its writer, and none at a reader, which applies
//! it from the frame that carried it. What that buys is a *count* — heap
//! allocations per diff operation and per DSM run — so it is pinned as a
//! count: exact enough to be host-independent, and loud the day a per-run
//! allocation creeps back in (a diff of a red-black SOR page has 512 runs;
//! one `Vec` per run is 512 allocations per create and clone, and that is
//! what this binary's own counting allocator would see). What a writer
//! retains is that buffer, so its requested size is pinned too, per page
//! shape.
//!
//! Interval metadata is pinned the same way: an interval record is one
//! shared object per node, a write notice only raises the seq a page is
//! owed, and a run that does nothing but take notices must not allocate
//! per notice. A lock chain, whose every grant relays records and every
//! critical section fetches diffs, pins the message path as a whole, both
//! ways; the same chain under loss pins the replay records, and a warm
//! coalesced fetch allocates nothing at all. A loop of barriers keeps the
//! node's one barrier episode and takes its clocks from the node's spares.
//!
//! A GM poll retries the port's unmatched packets in place, so polling a
//! port that holds a burst it has no buffers for allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use tm_apps::{fft_parallel_with, fft_seq, sor_parallel, sor_seq, FftConfig, SorConfig};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_gm::{gm_cluster, gm_size, DmaPool, GmNode};
use tm_sim::clock::shared_clock;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::diff::{Diff, DiffImage};
use tmk::memsub::run_mem_dsm;
use tmk::page::{HeldBytes, Page};
use tmk::protocol::{Request, Response};
use tmk::wire::{WireReader, WireWriter};
use tmk::{Substrate, Tmk, TmkConfig};

/// Counts every `alloc` and `realloc`, per thread: a cluster's nodes are
/// contexts on the thread that runs it, so a test's own count is all of its
/// run's and none of its neighbours' or the harness's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Not counted during thread teardown, when the slots are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s without a destructor, so touching them never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs, and the bytes they
/// requested.
fn heap_during<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let r = f();
    (ALLOCS.get() - allocs, BYTES.get() - bytes, r)
}

/// Allocations made on this thread while `f` runs.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (n, _, r) = heap_during(f);
    (n, r)
}

/// A zeroed 4 KiB twin and the page `edit` leaves.
fn page(edit: impl FnOnce(&mut [u8])) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; 4096];
    let mut cur = twin.clone();
    edit(&mut cur);
    (twin, cur)
}

/// Every other word changed: the 512-run page a red-black sweep leaves.
fn alternating_page() -> (Vec<u8>, Vec<u8>) {
    page(|p| p.iter_mut().step_by(8).for_each(|b| *b = 0xA5))
}

#[test]
fn a_512_run_diff_costs_a_constant_number_of_allocations() {
    let (twin, cur) = alternating_page();
    // Size the writer up front: it is not a per-diff cost.
    let mut w = WireWriter::with_capacity(2 * (2 + 512 * 8));
    let mut target = twin.clone();

    let (create, d) = allocs_during(|| Diff::create(&twin, &cur));
    let (clone, copy) = allocs_during(|| d.clone());
    let (encode, ()) = allocs_during(|| d.encode(&mut w));
    let (apply, ()) = allocs_during(|| d.apply(&mut target));
    let (decode, back) = allocs_during(|| DiffImage::decode(&mut WireReader::new(w.as_slice())));
    let back = back.expect("an encoded diff decodes");
    let mut received = twin.clone();
    let (apply_image, ()) = allocs_during(|| back.apply(&mut received));

    assert_eq!(d.run_count(), 512);
    assert!(back.runs().eq(d.runs()));
    assert_eq!(copy, d);
    assert_eq!(target, cur);
    assert_eq!(received, cur);
    // The held form is the one allocation; the change mask lives on the
    // stack. A received image is checked and applied where it lies.
    assert_eq!(
        create, 1,
        "create of a 512-run diff made {create} heap allocations"
    );
    for (op, n) in [("decode", decode), ("image apply", apply_image)] {
        assert_eq!(n, 0, "{op} of a 512-run diff made {n} heap allocations");
    }
    for (op, n) in [("clone", clone), ("encode", encode), ("apply", apply)] {
        assert!(
            n <= 2,
            "{op} of a 512-run diff made {n} heap allocations (budget 2)"
        );
    }
}

/// A retained diff is what changed — classes, the masks of mixed spans and
/// the changed words — not its wire image: the one allocation `create`
/// makes is pinned per page shape.
#[test]
fn a_retained_diff_is_sized_by_what_changed() {
    let full = page(|p| p.fill(0xA5));
    // 3D-FFT's transpose: four 64-byte runs at a 1 KiB stride.
    let transpose = page(|p| (0..4).for_each(|r| p[r * 1024 + 192..][..64].fill(0xA5)));
    for (shape, (twin, cur), budget) in [
        // 4 098 bytes as a wire image; 4 + 128 + 2 048 held.
        ("red-black", alternating_page(), 2_200),
        // A twin's malloc class: freed twins are reused for it.
        ("full page", full, 4_104),
        // 274 bytes as a wire image.
        ("transpose", transpose, 300),
    ] {
        let (allocs, bytes, d) = heap_during(|| Diff::create(&twin, &cur));
        assert_eq!(allocs, 1, "{shape}: create made {allocs} heap allocations");
        assert_eq!(bytes, d.retained_bytes() as u64, "{shape}");
        assert!(
            bytes <= budget,
            "{shape}: a retained diff holds {bytes} bytes (budget {budget})"
        );
    }
}

/// Allocations one small SOR run may make, cluster set-up and scheduler
/// included: 1 309 measured over 328 messages, plus a quarter. With a fresh
/// barrier episode and fresh clocks per barrier, 1 587; with a
/// barrier arrival's clocks dropped at its release, 1 652; with a twin
/// boxed afresh each interval, an interval record in two allocations, grants
/// and requests built as owned lists and SOR re-reading every row three
/// times, the same run made 2 129; with every
/// fetched diff decoded into a held copy of its own, and a fault's fetch
/// lists built afresh each time, 2 600; with two seq
/// vectors in every page-table entry, 2 807; with an interval record that
/// also held a clock and a page list beside its wire image, 2 991; with a
/// clock cloned into every page-notice, 3 816; with one `Vec` per diff run,
/// more than ten times the budget.
const SOR_BUDGET: u64 = 1_637;

#[test]
fn a_small_lockstep_sor_run_stays_inside_its_allocation_budget() {
    let cfg = SorConfig::new(64, 512, 2);
    let (want, _) = sor_seq(&cfg);
    let params = Arc::new(SimParams::paper_testbed());
    let fast = FastConfig::paper(&params);
    let (allocs, out) = allocs_during(|| {
        run_fast_dsm(4, params, fast, TmkConfig::default(), move |tmk| {
            sor_parallel(tmk, &cfg).0
        })
    });
    for o in &out {
        assert_eq!(o.result, want, "node {} computed a different grid", o.id);
    }
    assert!(
        allocs <= SOR_BUDGET,
        "4-node 64x512 SOR made {allocs} heap allocations (budget {SOR_BUDGET})"
    );
}

/// A frame that names more entries than it holds is refused without a
/// vector sized for the claim: a `ZeroPage` with 65 535 applied seqs, a
/// `MultiDiffs` answer and a `MultiDiff` request with 65 535 pages, each
/// with nothing behind its count. Sized by the claim they asked for
/// 262 140, 3 669 960 and 786 420 bytes.
#[test]
fn a_count_the_frame_cannot_hold_reserves_nothing() {
    let frame = |tag: u8, page: bool| {
        let mut w = WireWriter::new();
        w.u32(1).u8(tag);
        if page {
            w.u32(0);
        }
        w.u16(u16::MAX);
        w.finish()
    };
    let (zero, multi) = (frame(5, true), frame(7, false));
    let refused = |what: &str, decode: &dyn Fn() -> bool| {
        let (_, bytes, none) = heap_during(decode);
        assert!(none, "a {what} that claims 65 535 entries decoded");
        assert_eq!(bytes, 0, "decoding a {what} that claims 65 535 entries");
    };
    refused("ZeroPage", &|| Response::decode(&zero).is_none());
    refused("MultiDiffs", &|| Response::decode(&multi).is_none());
    refused("MultiDiff", &|| Request::decode(&multi).is_none());
}

/// A warm coalesced fetch allocates nothing: node 1 faults in eight pages
/// node 0 wrote with one read, so one `MultiDiff` goes to node 0, which
/// answers from the request's own bytes and its retained diffs, and node 1
/// applies the answer from its frame. The request is encoded straight from
/// the fetch's owed list into a pooled frame of its size, and memsub's send
/// copies into a pooled buffer too: once the first rounds have warmed the
/// pool and the page copies, the whole round trip — encode, decode, serve,
/// apply — makes no heap allocation. A round is read here and its frames
/// counted besides, so a fetch that stopped coalescing shows.
#[test]
fn a_warm_coalesced_fetch_allocates_nothing() {
    const PAGES: usize = 8;
    let params = Arc::new(SimParams::paper_testbed());
    let out = run_mem_dsm(2, params, Ns::from_us(5), TmkConfig::default(), |tmk| {
        let words = tmk.params().dsm.page_size / 4;
        let region = tmk.malloc(PAGES * words * 4);
        let mut page_bytes = vec![0u8; PAGES * words * 4];
        let mut seen = Vec::new();
        tmk.barrier(0);
        for round in 1..=4u32 {
            if tmk.proc_id() == 0 {
                (0..PAGES).for_each(|p| tmk.set_u32(region, p * words, round));
            }
            tmk.barrier(2 * round - 1);
            if tmk.proc_id() == 1 {
                let sent = tmk.clock().borrow().stats.msgs_sent;
                let (allocs, bytes, ()) =
                    heap_during(|| tmk.read_bytes(region, 0, &mut page_bytes));
                let frames = tmk.clock().borrow().stats.msgs_sent - sent;
                seen.push((allocs, bytes, frames));
                assert!(page_bytes
                    .chunks(words * 4)
                    .all(|p| p[..4] == round.to_le_bytes()));
            }
            tmk.barrier(2 * round);
        }
        seen
    });
    let seen = &out[1].result;
    for &(allocs, bytes, frames) in &seen[2..] {
        assert_eq!(frames, 1, "a warm round sends one request: {seen:?}");
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "a warm coalesced fetch of {PAGES} pages allocated: {seen:?}"
        );
    }
}

/// A GM port holding a burst it has no buffers for is polled again and
/// again while the replies wait: each poll retries every unmatched packet,
/// and a poll that matches nothing allocates nothing.
#[test]
fn polling_a_port_with_unmatched_packets_allocates_nothing() {
    let params = Arc::new(SimParams::paper_testbed());
    let (_fabric, board, mut nics) = gm_cluster(2, Arc::clone(&params));
    let node = |nic| {
        let params = Arc::clone(&params);
        GmNode::new(nic, shared_clock(), params, Arc::clone(&board), 1 << 20)
    };
    let mut rx = node(nics.pop().expect("node 1"));
    let mut tx = node(nics.pop().expect("node 0"));
    rx.open_port(3, false).unwrap();
    tx.open_port(2, false).unwrap();
    let mut pool = DmaPool::new(&mut tx.book, 1, 64).unwrap();
    let buf = pool.take(&[7; 8]).unwrap();
    for _ in 0..params.gm.send_tokens {
        tx.send(2, 1, 3, &buf, 8).unwrap();
    }
    rx.clock().borrow_mut().advance(Ns::from_ms(1));
    assert!(rx.receive(3).unwrap().is_none(), "no buffer was provided");
    let (allocs, ()) = allocs_during(|| {
        for _ in 0..100 {
            assert!(rx.receive(3).unwrap().is_none());
        }
    });
    assert_eq!(allocs, 0, "100 polls over unmatched packets allocated");
    rx.provide_receive_buffer(3, gm_size(8)).unwrap();
    assert!(rx.receive(3).unwrap().is_some(), "the packets were waiting");
}

/// What `held` says a node holds for its pages' data: the page table's own
/// row left out.
fn data(held: HeldBytes) -> HeldBytes {
    HeldBytes { table: 0, ..held }
}

/// A page copy and its twin hold the units written or received, not the
/// page: node 1 adopts node 0's fresh page 0 as a `ZeroPage` and holds
/// nothing for it, then writes the FFT transpose's four 64-byte pieces at a
/// 1 KiB stride into it and holds four 64-byte units in the copy and four
/// in the twin (256-byte diff spans held 1 024 + 1 024, whole-page copies
/// 4 096 + 4 096). Node 0 writes a red-black sweep over its own page 2,
/// which reaches every unit: the whole page, twice. The page table's own
/// bytes are left out: they are the same in every snapshot.
#[test]
fn a_page_holds_the_spans_it_wrote_or_received() {
    let params = Arc::new(SimParams::paper_testbed());
    let fast = FastConfig::paper(&params);
    let out = run_fast_dsm(2, params, fast, TmkConfig::default(), |tmk| {
        let words = tmk.params().dsm.page_size / 4;
        let region = tmk.malloc(6 * words * 4);
        tmk.barrier(0);
        let mut seen = Vec::new();
        if tmk.proc_id() == 1 {
            // The first fetch warms the message path's buffers.
            tmk.get_u32(region, 4 * words);
            let (_, bytes, _) = heap_during(|| tmk.get_u32(region, 0));
            seen.push((bytes, data(tmk.held_bytes())));
            for r in 0..4 {
                tmk.write_bytes(region, r * 1024 + 192, &[0xA5; 64]);
            }
        } else {
            (2 * words..3 * words)
                .step_by(2)
                .for_each(|w| tmk.set_u32(region, w, 7));
        }
        seen.push((0, data(tmk.held_bytes())));
        tmk.barrier(1);
        seen
    });
    let held = |pages, twins| HeldBytes {
        pages,
        twins,
        ..HeldBytes::default()
    };
    let [(fetched, zero), (0, transpose)] = out[1].result[..] else {
        panic!("node 1 took two snapshots: {:?}", out[1].result);
    };
    assert_eq!(
        zero,
        HeldBytes::default(),
        "an adopted zero page holds nothing"
    );
    // The message path's own few allocations (136 bytes measured), no
    // buffer for the page.
    assert!(
        fetched < 256,
        "fetching a zero page requested {fetched} heap bytes"
    );
    assert_eq!(transpose, held(256, 256), "FFT transpose shape");
    assert_eq!(out[0].result, [(0, held(4096, 4096))], "red-black page");
}

/// Heap bytes the whole 16-node cluster holds for shared pages as each
/// node leaves the barrier that ends FFT 64³'s transpose over UDP/GM —
/// page copies, twins (none: the barrier flushed them), retained diffs and
/// the page table itself. Every node has written four 64-byte pieces into
/// each of array B's 1 024 pages and holds exactly those pieces, one
/// 64-byte unit each: 16 × 1 024 × 256 bytes, plus its own 64 pages of
/// array A. Held in 256-byte diff spans the same snapshot reads 20 971 520
/// bytes of pages; held as whole pages, 75 239 424.
///
/// The table row is each node's 2 050 entries (a `Vec` of capacity 4 096,
/// 80 bytes each), its seq column (capacity 131 072 seqs) and its
/// retained-diff lists' slots. With 128-byte entries that each held two
/// 16-seq vectors, and a first retained diff given four slots, the same
/// snapshot read 14 813 184.
#[test]
fn fft_transpose_holds_its_spans_not_its_pages() {
    let cfg = FftConfig::new(64);
    let want = fft_seq(&cfg);
    let params = Arc::new(SimParams::paper_testbed());
    let out = run_udp_dsm(16, params, TmkConfig::default(), move |tmk| {
        let mut held = HeldBytes::default();
        let sum = fft_parallel_with(tmk, &cfg, |t| held = t.held_bytes());
        (sum, held)
    });
    assert!(out.iter().all(|o| o.result.0 == want), "FFT checksum");
    let cluster: HeldBytes = out.iter().map(|o| o.result.1).sum();
    assert_eq!(
        cluster,
        HeldBytes {
            pages: 8 * 1024 * 1024,
            twins: 0,
            diffs: 13_115_756,
            table: 14_286_848,
        }
    );
    assert!(
        size_of::<Page>() <= 80,
        "a page-table entry is {} bytes",
        size_of::<Page>()
    );
}

const STORM_NODES: usize = 16;
const STORM_PAGES: usize = 512;
const STORM_ROUNDS: u32 = 32;

/// Allocations the notice storm below may make: 32 058 measured (31.4 per
/// message over 1 020 messages), plus a quarter. Every node learns of every
/// other node's interval at every barrier and every interval names 32
/// pages, so 245 760 notices arrive. A record is its wire image and its
/// handle in one allocation, and a page's seqs live in its table's one
/// column: with a fresh barrier episode and fresh clocks per barrier,
/// 35 734; with a barrier arrival's clocks dropped at its release, 37 680;
/// with the image a second allocation beside its `Rc` (and a twin
/// boxed afresh each interval) the same run cost 71 000; with two seq
/// vectors in every page-table entry, 86 712; a record that also
/// held a decoded clock and page list, 94 803; a handle to the record
/// queued on each page, 116 035; and a clock of its own for each notice
/// (and a sorted copy of the page list per encode), 414 069.
const STORM_BUDGET: u64 = 40_073;

/// Every node rewrites one word of each page it manages, barrier after
/// barrier, and nobody reads anybody else's: no page or diff ever moves, so
/// what is left is interval metadata — records relayed through the barrier
/// root and a notice taken by every page they name.
fn notice_storm<S: Substrate>(tmk: &mut Tmk<S>) -> u32 {
    let me = tmk.proc_id();
    let words_per_page = tmk.params().dsm.page_size / 4;
    let mine = |k: usize| (k * STORM_NODES + me) * words_per_page;
    let region = tmk.malloc(STORM_PAGES * words_per_page * 4);
    tmk.barrier(0);
    for round in 1..=STORM_ROUNDS {
        for k in 0..STORM_PAGES / STORM_NODES {
            tmk.set_u32(region, mine(k), round);
        }
        tmk.barrier(round);
    }
    tmk.get_u32(region, mine(0))
}

#[test]
fn a_notice_costs_no_allocation_of_its_own() {
    let params = Arc::new(SimParams::paper_testbed());
    let fast = FastConfig::paper(&params);
    let (allocs, out) = allocs_during(|| {
        run_fast_dsm(
            STORM_NODES,
            params,
            fast,
            TmkConfig::default(),
            notice_storm,
        )
    });
    for o in &out {
        assert_eq!(o.result, STORM_ROUNDS, "node {} lost its own writes", o.id);
    }
    assert!(
        allocs <= STORM_BUDGET,
        "{STORM_NODES}-node notice storm made {allocs} heap allocations (budget {STORM_BUDGET})"
    );
}

const MIG_NODES: usize = 8;
const MIG_LOCKS: usize = 8;
const MIG_PAGES: usize = 8;
const MIG_ROUNDS: usize = 100;

/// Allocations the lock chain below may make: 28 761 measured (2.1 per
/// message over 13 444 messages), plus a quarter (28 904 with a fresh
/// barrier episode and fresh clocks per barrier). What is left is what a
/// node keeps — retained diffs, new interval records, log growth — and the
/// UDP substrate's copy of each datagram. With a coalesced fetch's page list
/// built by the requester and again by the responder, a request frame that
/// regrew, a grant's clock and record list built as owned values, a
/// pipelined page list, a twin boxed afresh each interval and an interval
/// record in two allocations, the same run made 74 773 (5.6 per message);
/// with every fetched diff decoded into a held copy of its own, every
/// answer's pages into a list, every relayed interval record the node
/// already held allocated again, a fault's fetch lists built afresh each
/// time and a port list per receive, 221 202 (16.5 per message).
const MIG_BUDGET: u64 = 35_952;

/// Lock `l` guards word `l` of each of 8 pages, so every page has 8
/// writers under 8 locks and nothing but lock traffic runs between the two
/// barriers: each acquire's grant carries the intervals the acquirer
/// missed, and each of them owes a diff of every page.
fn mig_chain<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u32> {
    let me = tmk.proc_id();
    let words = tmk.params().dsm.page_size / 4;
    let region = tmk.malloc(MIG_PAGES * words * 4);
    tmk.barrier(0);
    for r in 0..MIG_ROUNDS {
        let l = (me + r) % MIG_LOCKS;
        tmk.acquire(l as u32);
        for p in 0..MIG_PAGES {
            let v = tmk.get_u32(region, p * words + l);
            tmk.set_u32(region, p * words + l, v + 1);
        }
        tmk.release(l as u32);
    }
    tmk.barrier(1);
    (0..MIG_PAGES * MIG_LOCKS)
        .map(|i| tmk.get_u32(region, i / MIG_LOCKS * words + i % MIG_LOCKS))
        .collect()
}

#[test]
fn a_lossless_lock_chain_stays_inside_its_allocation_budget() {
    let params = Arc::new(SimParams::paper_testbed());
    let (allocs, out) =
        allocs_during(|| run_udp_dsm(MIG_NODES, params, TmkConfig::default(), mig_chain));
    // Every node adds one to every page's word `l` once per round it holds
    // lock `l`, and every lock is held once per node per 8 rounds.
    let want = (MIG_NODES * MIG_ROUNDS / MIG_LOCKS) as u32;
    for o in &out {
        assert!(o.result.iter().all(|&w| w == want), "node {} sums", o.id);
    }
    assert!(
        allocs <= MIG_BUDGET,
        "{MIG_NODES}-node lock chain made {allocs} heap allocations (budget {MIG_BUDGET})"
    );
}

/// Allocations the same lock chain may make over UDP/GM at 0.5 % datagram
/// loss on one fixed fault seed, where every served request files a replay
/// record and 329 requests are retransmitted: 32 343 measured (2.3 per
/// message over 14 050 messages), plus a quarter (32 476 with a fresh
/// barrier episode and fresh clocks per barrier). A replay record copies
/// the bytes it may resend into the buffer its slot already has; with a
/// fresh copy per record, and the lossless chain's own sites, the same run
/// made 86 235 (6.1 per message). Since a dropped datagram stopped reaching
/// its receiver as a loss tombstone the run retransmits 358 requests and
/// makes 32 955 allocations, inside the budget it had.
const MIG_LOSSY_BUDGET: u64 = 40_429;

#[test]
fn a_lossy_lock_chain_stays_inside_its_allocation_budget() {
    let mut params = SimParams::paper_testbed();
    params.faults = FaultPlan {
        seed: 7,
        drop_probability: 0.005,
        ..FaultPlan::default()
    };
    let (allocs, out) =
        allocs_during(|| run_udp_dsm(MIG_NODES, Arc::new(params), TmkConfig::default(), mig_chain));
    let want = (MIG_NODES * MIG_ROUNDS / MIG_LOCKS) as u32;
    for o in &out {
        assert!(o.result.iter().all(|&w| w == want), "node {} sums", o.id);
    }
    let retransmits: u64 = out.iter().map(|o| o.stats.retransmits).sum();
    assert!(retransmits > 0, "the loss never fired");
    assert!(
        allocs <= MIG_LOSSY_BUDGET,
        "{MIG_NODES}-node lock chain at 0.5 % loss made {allocs} heap allocations \
         (budget {MIG_LOSSY_BUDGET})"
    );
}

const BARRIER_NODES: usize = 16;
const BARRIER_ROUNDS: u32 = 100;

/// Allocations a loop of barriers and nothing else may make: 3 358
/// measured (1.1 per message over 3 000 messages), plus a quarter. Under the
/// default (centralized) barrier every node but the root is a childless
/// child of node 0, so a round is 15 arrivals and 15 releases, and none of
/// them carries a record. A node keeps one barrier episode for its life,
/// one slot per tree child, and builds a barrier's clocks in its spare
/// clocks, an arrival's too; with the arrival's clocks dropped once sent,
/// 4 858; with a fresh episode (two n-long lists) per barrier, a spare copy
/// of each floorless arrival's ceiling and three fresh clocks per node per
/// barrier, the same loop made 11 237 (3.7 per message).
const BARRIER_BUDGET: u64 = 4_198;

#[test]
fn a_barrier_loop_stays_inside_its_allocation_budget() {
    let params = Arc::new(SimParams::paper_testbed());
    let fast = FastConfig::paper(&params);
    let (allocs, out) = allocs_during(|| {
        run_fast_dsm(BARRIER_NODES, params, fast, TmkConfig::default(), |tmk| {
            (0..BARRIER_ROUNDS).for_each(|b| tmk.barrier(b));
            tmk.clock().borrow().stats.msgs_sent
        })
    });
    let msgs: u64 = out.iter().map(|o| o.result).sum();
    assert_eq!(msgs, 2 * (BARRIER_NODES as u64 - 1) * BARRIER_ROUNDS as u64);
    assert!(
        allocs <= BARRIER_BUDGET,
        "{BARRIER_NODES}-node barrier loop made {allocs} heap allocations \
         (budget {BARRIER_BUDGET})"
    );
}
