//! Host-cost microbenchmarks of the zero-copy hot paths, recorded as
//! `results/BENCH_diff.json` so successive PRs have a perf trajectory.
//!
//! Unlike E1–E7 (which report *simulated* cluster time), this measures
//! how much real host CPU the reproduction burns per operation: diff
//! create/apply/encode/decode on a 4 KiB sparse page (16 runs: a few-run
//! diff, the kind 3D-FFT's transposes fetch by the thousand) and
//! create/encode/decode on a word-alternating one (512 runs — what
//! red-black SOR writes), small-frame and fragmented sends on the FAST
//! substrate, and a 1 MB page-fetch storm through the full DSM.
//! `retained_bytes` gives what a writer holds per diff of each shape beside
//! what it sends. `create_scalar` is the
//! pre-optimization word-by-word loop kept as the executable specification
//! — its rows double as the baselines the mask-driven `create` is judged
//! against on both page shapes (`speedup_create_vs_scalar` on the sparse
//! page, `speedup_alternating_vs_scalar` on the SOR one; each must be ≥ 2×).
//!
//! Usage: `cargo run --release -p tm-bench --bin bench_diff [out.json]`

use std::sync::Arc;
use std::time::Instant;

use tm_fast::{run_fast_dsm, FastConfig, FastSubstrate};
use tm_gm::gm_cluster;
use tm_sim::clock::shared_clock;
use tm_sim::SimParams;
use tmk::diff::{Diff, DiffImage};
use tmk::wire::{pool, WireReader, WireWriter};
use tmk::{Substrate, TmkConfig};

/// Time `f` with a calibrated repetition count; returns ns per call.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Calibrate to ~100 ms of measurement.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el.as_millis() >= 100 || iters >= 1 << 26 {
            return el.as_nanos() as f64 / iters as f64;
        }
        let grow = (100_000_000 / el.as_nanos().max(1) as u64).clamp(2, 1024);
        iters = (iters * grow).min(1 << 26);
    }
}

/// A 4 KiB twin and a current page with one byte changed every `stride`:
/// 256 is the sparse Figure 3 shape (16 runs); 8 is every other word —
/// 512 four-byte runs, the most a page can hold and exactly what a
/// red-black SOR sweep leaves behind.
fn page_pair(stride: usize) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; 4096];
    let mut cur = twin.clone();
    for i in (0..cur.len()).step_by(stride) {
        cur[i] = 0xA5;
    }
    (twin, cur)
}

/// `body` from `tx` to node 1, surfaced at `rx`; then `tx` waits until
/// `rx`'s time, as it would for a reply. Left apart, the receiver's clock
/// gains on the sender's with every frame, and once the gap passes GM's
/// resend timeout a fragment queued for a free buffer is rejected on
/// arrival — a message that never completes, so the receive panics.
fn round_trip(tx: &mut FastSubstrate, rx: &mut FastSubstrate, body: &[u8]) {
    tx.send_request(1, body);
    pool::give(rx.next_incoming().data);
    let now = rx.clock().borrow().now();
    tx.clock().borrow_mut().wait_until(now);
}

/// Host ns to encode `d` into a pooled frame, and to decode its image (the
/// check a receiver makes before it applies the image in place).
fn codec_ns(d: &Diff) -> (f64, f64) {
    let mut w = WireWriter::pooled(8192);
    let encode = time_ns(|| {
        w.clear();
        std::hint::black_box(d).encode(&mut w);
    });
    let decode = time_ns(|| {
        std::hint::black_box(DiffImage::decode(&mut WireReader::new(w.as_slice())));
    });
    w.recycle();
    (encode, decode)
}

struct Case {
    name: &'static str,
    ns_per_op: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_diff.json".into());
    let mut cases: Vec<Case> = Vec::new();

    // --- diff engine -----------------------------------------------------
    let (twin, cur) = page_pair(256);
    let create = time_ns(|| {
        std::hint::black_box(Diff::create(&twin, &cur));
    });
    cases.push(Case {
        name: "diff_create_4k_sparse",
        ns_per_op: create,
    });
    let scalar = time_ns(|| {
        std::hint::black_box(Diff::create_scalar(&twin, &cur));
    });
    cases.push(Case {
        name: "diff_create_4k_sparse_scalar_baseline",
        ns_per_op: scalar,
    });
    let sparse = Diff::create(&twin, &cur);
    let mut page = twin.clone();
    let apply = time_ns(|| {
        sparse.apply(&mut page);
        std::hint::black_box(&page);
    });
    cases.push(Case {
        name: "diff_apply_4k_sparse",
        ns_per_op: apply,
    });
    let (encode, decode) = codec_ns(&sparse);
    cases.push(Case {
        name: "diff_encode_4k_sparse",
        ns_per_op: encode,
    });
    cases.push(Case {
        name: "diff_decode_4k_sparse",
        ns_per_op: decode,
    });
    let (twin, cur) = page_pair(8);
    let alternating = time_ns(|| {
        std::hint::black_box(Diff::create(&twin, &cur));
    });
    cases.push(Case {
        name: "diff_create_4k_alternating",
        ns_per_op: alternating,
    });
    let alternating_scalar = time_ns(|| {
        std::hint::black_box(Diff::create_scalar(&twin, &cur));
    });
    cases.push(Case {
        name: "diff_create_4k_alternating_scalar_baseline",
        ns_per_op: alternating_scalar,
    });
    let red_black = Diff::create(&twin, &cur);
    assert_eq!(red_black.run_count(), 512);
    let (encode, decode) = codec_ns(&red_black);
    cases.push(Case {
        name: "diff_encode_4k_alternating",
        ns_per_op: encode,
    });
    cases.push(Case {
        name: "diff_decode_4k_alternating",
        ns_per_op: decode,
    });
    let retained = [
        ("alternating", red_black),
        ("sparse", sparse),
        ("full", Diff::full(&cur)),
    ];

    // --- framing path ----------------------------------------------------
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, mut nics) = gm_cluster(2, Arc::clone(&params));
    let cfg = FastConfig::paper(&params);
    let mut rx = FastSubstrate::new(
        nics.pop().unwrap(),
        shared_clock(),
        Arc::clone(&params),
        Arc::clone(&board),
        cfg.clone(),
    );
    let mut tx = FastSubstrate::new(
        nics.pop().unwrap(),
        shared_clock(),
        Arc::clone(&params),
        board,
        cfg,
    );
    let small = [7u8; 64];
    let frame = time_ns(|| round_trip(&mut tx, &mut rx, &small));
    cases.push(Case {
        name: "fast_frame_64B_roundtrip",
        ns_per_op: frame,
    });
    let big = vec![3u8; 64 * 1024];
    let frag = time_ns(|| round_trip(&mut tx, &mut rx, &big));
    cases.push(Case {
        name: "fast_fragmented_64KiB_roundtrip",
        ns_per_op: frag,
    });

    // --- 1 MB page fetch through the full DSM ----------------------------
    // Node 0 writes a 1 MB region; node 1 faults all 256 pages in. Host
    // wall-clock for the whole two-node episode, dominated by the page
    // fetches.
    let fetch = time_ns(|| {
        let params = Arc::new(SimParams::paper_testbed());
        let cfg = FastConfig::paper(&params);
        let out = run_fast_dsm(2, params, cfg, TmkConfig::default(), |tmk| {
            let bytes = 1 << 20;
            let r = tmk.malloc(bytes);
            if tmk.proc_id() == 0 {
                for p in 0..bytes / 4096 {
                    tmk.set_u32(r, p * 1024, p as u32 + 1);
                }
            }
            tmk.barrier(0);
            let mut sum = 0u64;
            if tmk.proc_id() == 1 {
                for p in 0..bytes / 4096 {
                    sum += tmk.get_u32(r, p * 1024) as u64;
                }
            }
            tmk.barrier(1);
            sum
        });
        std::hint::black_box(out);
    });
    cases.push(Case {
        name: "page_fetch_1mb_cluster",
        ns_per_op: fetch,
    });

    // --- emit ------------------------------------------------------------
    let speedup = scalar / create;
    let speedup_alternating = alternating_scalar / alternating;
    let mut json = String::from("{\n  \"bench\": \"BENCH_diff\",\n  \"page_size\": 4096,\n");
    json.push_str(&format!(
        "  \"speedup_create_vs_scalar\": {speedup:.2},\n  \
         \"speedup_alternating_vs_scalar\": {speedup_alternating:.2},\n  \"cases\": {{\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{ \"ns_per_op\": {:.1}, \"ops_per_sec\": {:.0} }}{comma}\n",
            c.name,
            c.ns_per_op,
            1e9 / c.ns_per_op
        ));
    }
    json.push_str("  },\n  \"retained_bytes\": {\n");
    for (i, (shape, d)) in retained.iter().enumerate() {
        let comma = if i + 1 < retained.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{shape}\": {{ \"retained\": {}, \"encoded_len\": {} }}{comma}\n",
            d.retained_bytes(),
            d.encoded_len()
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_diff.json");
    println!("{json}");
    println!("wrote {out_path}");
    assert!(
        speedup >= 2.0,
        "diff-create on a sparse page must be >= 2x the scalar baseline (got {speedup:.2}x)"
    );
    assert!(
        speedup_alternating >= 2.0,
        "diff-create on the red-black SOR page must be >= 2x the scalar baseline \
         (got {speedup_alternating:.2}x)"
    );
}
