//! Criterion benchmarks of whole simulated DSM operations: wall-clock
//! cost of running a barrier round or a lock ping over each substrate.
//! (The *simulated* times are E2's business; this measures how much real
//! CPU the reproduction burns per simulated operation.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, FastSubstrate};
use tm_gm::gm_cluster;
use tm_sim::clock::shared_clock;
use tm_sim::SimParams;
use tmk::diff::Diff;
use tmk::wire::pool;
use tmk::{Substrate, Tmk, TmkConfig};

fn barrier_round<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    for k in 0..10 {
        tmk.barrier(k);
    }
    1
}

fn lock_round<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let r = tmk.malloc(4096);
    tmk.barrier(0);
    for _ in 0..10 {
        tmk.acquire(0);
        let v = tmk.get_u32(r, 0);
        tmk.set_u32(r, 0, v + 1);
        tmk.release(0);
    }
    tmk.barrier(1);
    tmk.get_u32(r, 0) as u64
}

fn bench_cluster_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated_cluster");
    g.sample_size(10);
    g.bench_function("fast_barrier_x4_10rounds", |b| {
        b.iter(|| {
            let params = Arc::new(SimParams::paper_testbed());
            let cfg = FastConfig::paper(&params);
            run_fast_dsm(4, params, cfg, TmkConfig::default(), barrier_round)
        })
    });
    g.bench_function("udp_barrier_x4_10rounds", |b| {
        b.iter(|| {
            let params = Arc::new(SimParams::paper_testbed());
            run_udp_dsm(4, params, TmkConfig::default(), barrier_round)
        })
    });
    g.bench_function("fast_lock_counter_x4", |b| {
        b.iter(|| {
            let params = Arc::new(SimParams::paper_testbed());
            let cfg = FastConfig::paper(&params);
            run_fast_dsm(4, params, cfg, TmkConfig::default(), lock_round)
        })
    });
    g.finish();
}

/// A 4 KiB twin/current pair with sparse writes (one dirtied word every
/// 256 bytes) — the Figure 3 "Diff" shape.
fn sparse_page() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; 4096];
    let mut cur = twin.clone();
    for i in (0..cur.len()).step_by(256) {
        cur[i] = 0xA5;
    }
    (twin, cur)
}

fn bench_diff_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff");
    let (twin, cur) = sparse_page();
    g.bench_function("create_4k_sparse", |b| b.iter(|| Diff::create(&twin, &cur)));
    g.bench_function("create_scalar_4k_sparse", |b| {
        b.iter(|| Diff::create_scalar(&twin, &cur))
    });
    let d = Diff::create(&twin, &cur);
    let mut page = twin.clone();
    g.bench_function("apply_4k_sparse", |b| b.iter(|| d.apply(&mut page)));
    g.finish();
}

fn bench_framing_ops(c: &mut Criterion) {
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
    let mut tx = FastSubstrate::new(nics.pop().unwrap(), shared_clock(), params, board, cfg);
    let small = [7u8; 64];
    let large = vec![3u8; 64 * 1024]; // > 32 KiB frame limit: fragments
    let mut g = c.benchmark_group("framing");
    g.bench_function("fast_frame_64B_roundtrip", |b| {
        b.iter(|| {
            tx.send_request(1, &small);
            let m = rx.next_incoming();
            pool::give(m.data);
        })
    });
    g.bench_function("fast_fragmented_64KiB_roundtrip", |b| {
        b.iter(|| {
            tx.send_request(1, &large);
            let m = rx.next_incoming();
            pool::give(m.data);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_diff_ops, bench_framing_ops, bench_cluster_ops);
criterion_main!(benches);
