//! Single-thread host-time kernels of the layers that do per-byte work.
//! They move `wall_s` on the data-heavy workloads and never `virtual_ms`:
//! modeled costs come from `SimParams`, not from how fast the host runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tm_sim::Ns;
use tmk::diff::Diff;
use tmk::framing::{self, FragHeader, Insert, Reassembler};
use tmk::protocol::{Request, Response};
use tmk::wire::pool;
use tmk::VectorClock;

const PAGE: usize = 4096;
const BUDGET: Duration = Duration::from_millis(60);

/// Host ns per call of `f`: median of the per-batch means over `BUDGET`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 64;
    let mut means = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::stats::summarize(&means).median
}

/// A twin and a current page differing in one byte every `stride`.
fn page_pair(stride: usize) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE];
    let mut cur = twin.clone();
    for b in cur.iter_mut().step_by(stride) {
        *b = 0xA5;
    }
    (twin, cur)
}

/// `(metric name, host ns)` for every kernel.
pub fn run() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let (twin, cur) = page_pair(256);
    out.push((
        "tmk.diff.create_sparse_ns_page",
        ns_per_call(|| {
            black_box(Diff::create(black_box(&twin), black_box(&cur)));
        }),
    ));
    let (twin, cur) = page_pair(1);
    out.push((
        "tmk.diff.create_dense_ns_page",
        ns_per_call(|| {
            black_box(Diff::create(black_box(&twin), black_box(&cur)));
        }),
    ));
    let dense = Diff::create(&twin, &cur);
    let mut target = twin.clone();
    out.push((
        "tmk.diff.apply_dense_ns_page",
        ns_per_call(|| {
            dense.apply(black_box(&mut target));
        }),
    ));

    // One lock acquire and one page response through the wire codec.
    let mut vc = VectorClock::new(16);
    for i in 0..16 {
        vc.set(i, 100 * i as u32);
    }
    let req = Request::Acquire { lock: 7, vc };
    let resp = Response::FullPage {
        page: 3,
        applied: vec![1; 16],
        data: vec![0x5A; PAGE],
    };
    out.push((
        "tmk.wire.codec_ns_msg",
        ns_per_call(|| {
            let a = black_box(&req).encode(42);
            black_box(Request::decode(&a));
            let b = black_box(&resp).encode(43);
            black_box(Response::decode(&b));
        }) / 2.0,
    ));

    // Cut a 32 KiB message at the UDP MTU and reassemble it.
    let msg = vec![7u8; 32 * 1024];
    let mut reasm: Reassembler<u16> = Reassembler::new();
    let mut xid = 0u32;
    out.push((
        "tmk.framing.frag_reasm_ns_32k",
        ns_per_call(|| {
            xid = xid.wrapping_add(1);
            let plan = framing::plan(msg.len(), 1_500);
            for (idx, range) in plan.ranges().enumerate() {
                let h = FragHeader {
                    xid,
                    idx: idx as u16,
                    total: plan.total as u16,
                };
                let mut frag = pool::take(range.len());
                frag.extend_from_slice(&msg[range]);
                if let Insert::Complete(frame) = reasm.insert(0, 1, h, frag, Ns::ZERO) {
                    pool::give(black_box(frame.assemble(0)));
                }
            }
        }),
    ));
    out
}
