//! End-to-end DSM protocol tests over the in-memory substrate: real
//! multi-node clusters exercising lazy release consistency, locks,
//! barriers, twins/diffs, false sharing and GC fallback — independent of
//! any transport model.

use std::sync::Arc;

use tm_sim::{Ns, SimParams};
use tmk::memsub::{run_mem_dsm, MemSubstrate};
use tmk::page::DIFF_KEEP;
use tmk::{Tmk, TmkConfig};

fn run<R, F>(n: usize, body: F) -> Vec<tm_sim::runner::NodeOutcome<R>>
where
    R: 'static,
    F: Fn(&mut Tmk<MemSubstrate>) -> R + 'static,
{
    run_mem_dsm(
        n,
        Arc::new(SimParams::paper_testbed()),
        Ns::from_us(5),
        TmkConfig::default(),
        body,
    )
}

#[test]
fn barrier_publishes_writes() {
    let out = run(4, |tmk| {
        let region = tmk.malloc(4096 * 4);
        if tmk.proc_id() == 0 {
            for i in 0..64 {
                tmk.set_u32(region, i, 1000 + i as u32);
            }
        }
        tmk.barrier(1);
        let mut got = Vec::new();
        for i in 0..64 {
            got.push(tmk.get_u32(region, i));
        }
        got
    });
    for o in &out {
        let want: Vec<u32> = (0..64).map(|i| 1000 + i).collect();
        assert_eq!(o.result, want, "node {} read wrong data", o.id);
    }
}

#[test]
fn every_node_writes_its_stripe() {
    let n = 4;
    let out = run(n, move |tmk| {
        let region = tmk.malloc(4096 * n);
        let me = tmk.proc_id();
        // Each node owns one page-sized stripe.
        for i in 0..1024 {
            tmk.set_u32(region, me * 1024 + i, (me * 10000 + i) as u32);
        }
        tmk.barrier(1);
        // Everyone checks everyone's stripe.
        let mut sum = 0u64;
        for p in 0..n {
            for i in 0..1024 {
                let v = tmk.get_u32(region, p * 1024 + i);
                assert_eq!(v as usize, p * 10000 + i);
                sum += v as u64;
            }
        }
        sum
    });
    let first = out[0].result;
    assert!(out.iter().all(|o| o.result == first));
}

#[test]
fn lock_protected_counter_is_atomic() {
    let n = 4;
    let rounds = 25;
    let out = run(n, move |tmk| {
        let region = tmk.malloc(4096);
        tmk.barrier(1);
        for _ in 0..rounds {
            tmk.acquire(0);
            let v = tmk.get_u32(region, 0);
            tmk.set_u32(region, 0, v + 1);
            tmk.release(0);
        }
        tmk.barrier(2);
        tmk.get_u32(region, 0)
    });
    for o in &out {
        assert_eq!(o.result, (n * rounds) as u32);
    }
}

#[test]
fn direct_and_indirect_acquire_paths() {
    // Lock 0's manager is node 0. Node 1 acquires (manager-owned: direct),
    // then node 2 acquires (owner is node 1: indirect via manager).
    let out = run(3, |tmk| {
        let region = tmk.malloc(4096);
        tmk.barrier(1);
        match tmk.proc_id() {
            1 => {
                tmk.acquire(0);
                tmk.set_u32(region, 0, 11);
                tmk.release(0);
                tmk.barrier(2);
            }
            2 => {
                tmk.barrier(2);
                tmk.acquire(0);
                let v = tmk.get_u32(region, 0);
                tmk.set_u32(region, 0, v + 100);
                tmk.release(0);
            }
            _ => {
                tmk.barrier(2);
            }
        }
        tmk.barrier(3);
        tmk.get_u32(region, 0)
    });
    for o in &out {
        assert_eq!(o.result, 111);
    }
}

#[test]
fn false_sharing_two_writers_one_page() {
    // Nodes 0 and 1 write disjoint halves of the same page concurrently;
    // the multi-writer twin/diff protocol must merge both.
    let out = run(2, |tmk| {
        let region = tmk.malloc(4096);
        tmk.barrier(1);
        let me = tmk.proc_id();
        for i in 0..512 {
            tmk.set_u32(region, me * 512 + i, (me * 1000 + i) as u32);
        }
        tmk.barrier(2);
        let mut ok = true;
        for p in 0..2 {
            for i in 0..512 {
                ok &= tmk.get_u32(region, p * 512 + i) == (p * 1000 + i) as u32;
            }
        }
        ok
    });
    assert!(out.iter().all(|o| o.result));
}

#[test]
fn migratory_data_applies_diffs_causally() {
    // Node 0 writes x=1 under the lock; node 1 then overwrites x=2 under
    // the lock; node 2 acquires last and must see 2 (requires causal diff
    // ordering, not node-id order).
    let out = run(3, |tmk| {
        let region = tmk.malloc(4096);
        tmk.barrier(1);
        let mut seen = u32::MAX;
        match tmk.proc_id() {
            0 => {
                tmk.acquire(7);
                tmk.set_u32(region, 0, 1);
                tmk.release(7);
                tmk.barrier(2);
                tmk.barrier(3);
            }
            1 => {
                tmk.barrier(2);
                tmk.acquire(7);
                let v = tmk.get_u32(region, 0);
                assert_eq!(v, 1);
                tmk.set_u32(region, 0, 2);
                tmk.release(7);
                tmk.barrier(3);
            }
            _ => {
                tmk.barrier(2);
                tmk.barrier(3);
                tmk.acquire(7);
                seen = tmk.get_u32(region, 0);
                tmk.release(7);
            }
        }
        seen
    });
    // Node 2 acquired last and must observe the latest value.
    assert_eq!(out[2].result, 2);
}

#[test]
fn repeated_iterations_converge() {
    // A mini-Jacobi: ping-pong updates across barriers, verifying values
    // flow every iteration.
    let iters = 8;
    let out = run(2, move |tmk| {
        // Double-buffered (race-free): read epoch k from `cur`, write
        // epoch k+1 into `next`, swap at the barrier.
        let a = tmk.malloc(4096 * 2);
        let b = tmk.malloc(4096 * 2);
        tmk.barrier(0);
        let me = tmk.proc_id();
        let (mut cur, mut next) = (a, b);
        for it in 0..iters {
            let other = tmk.get_u32(cur, (1 - me) * 1024);
            tmk.set_u32(next, me * 1024, other + 1);
            tmk.barrier(100 + it);
            std::mem::swap(&mut cur, &mut next);
        }
        let x = tmk.get_u32(cur, 0);
        let y = tmk.get_u32(cur, 1024);
        (x, y)
    });
    // After k race-free rounds of x = y+1 / y = x+1 from 0/0, both hold k.
    for o in &out {
        assert_eq!(o.result, (iters, iters));
    }
}

/// A reader more than `DIFF_KEEP` intervals behind on a page is owed
/// diffs its writer no longer holds: the writer serves the full page, and
/// the reader adopts it as its one page fetch.
#[test]
fn gc_fallback_serves_full_pages() {
    const WRITES: u32 = DIFF_KEEP as u32 + 44;
    let out = run(2, |tmk| {
        let region = tmk.malloc(4096);
        let me = tmk.proc_id();
        if me == 1 {
            let _ = tmk.get_u32(region, 3);
        }
        tmk.barrier(0);
        let before = tmk.clock().borrow().stats.pages_fetched;
        for k in 0..WRITES {
            if me == 0 {
                tmk.set_u32(region, 3, k * 7);
            }
            tmk.barrier(1 + k);
        }
        let v = tmk.get_u32(region, 3);
        (v, tmk.clock().borrow().stats.pages_fetched - before)
    });
    let want = (WRITES - 1) * 7;
    assert_eq!(out[0].result, (want, 0));
    assert_eq!(out[1].result, (want, 1));
}

/// Two writers of one page, each past `DIFF_KEEP` intervals on it: nodes
/// 0 and 2 pass lock 0 back and forth and nodes 1 and 3 lock 1, and in
/// each of 800 rounds nodes 0 and 1 write word `me·512 + i/2` of their
/// half. After the barrier node 0 asks node 1 for its half's diffs, is
/// answered with node 1's page (it trimmed them), which applied none of
/// node 0's, and would have to replay node 0's own intervals from diffs
/// node 0 trimmed too. Without a GC that knows what its peers applied
/// the page cannot be rebuilt, and the replay panics rather than let the
/// program read stale words (72 of them a node, at the commit before it
/// panicked).
#[test]
#[should_panic(expected = "trim_diffs dropped")]
fn a_replay_needing_a_trimmed_diff_panics() {
    run(4, |tmk| {
        let region = tmk.malloc(4096);
        let me = tmk.proc_id();
        let lock = (me % 2) as u32;
        tmk.barrier(0);
        for i in 0..800 {
            tmk.acquire(lock);
            if me < 2 {
                tmk.set_u32(region, me * 512 + i / 2, i as u32 + 1);
            }
            tmk.release(lock);
        }
        tmk.barrier(1);
        (0..1024)
            .map(|w| tmk.get_u32(region, w))
            .collect::<Vec<_>>()
    });
}

#[test]
fn large_region_spanning_many_pages() {
    let out = run(2, |tmk| {
        let bytes = 4096 * 40;
        let region = tmk.malloc(bytes);
        if tmk.proc_id() == 0 {
            let data: Vec<f32> = (0..bytes / 4).map(|i| i as f32 * 0.5).collect();
            tmk.write_f32s(region, 0, &data);
        }
        tmk.barrier(1);
        let mut buf = vec![0f32; bytes / 4];
        tmk.read_f32s(region, 0, &mut buf);
        buf.iter().enumerate().all(|(i, &v)| v == i as f32 * 0.5)
    });
    assert!(out.iter().all(|o| o.result));
}

#[test]
fn time_advances_and_is_consistent() {
    let out = run(4, |tmk| {
        let region = tmk.malloc(4096);
        tmk.barrier(1);
        if tmk.proc_id() == 0 {
            tmk.set_u32(region, 0, 1);
        }
        tmk.compute(10_000);
        tmk.barrier(2);
        tmk.get_u32(region, 0)
    });
    for o in &out {
        assert_eq!(o.result, 1);
        // 10k work units at 10ns each = 100us minimum.
        assert!(
            o.finish >= Ns::from_us(100),
            "node {} finished at {}",
            o.id,
            o.finish
        );
        assert!(o.stats.barriers >= 3);
    }
}

#[test]
fn stats_track_protocol_activity() {
    let out = run(2, |tmk| {
        let region = tmk.malloc(4096);
        tmk.barrier(1);
        if tmk.proc_id() == 0 {
            tmk.set_u32(region, 0, 5);
        }
        tmk.barrier(2);
        tmk.get_u32(region, 0)
    });
    let writer = &out[0].stats;
    let reader = &out[1].stats;
    assert!(writer.twins_created >= 1);
    assert!(writer.diffs_created >= 1);
    // Node 1 first-touches the page (fetch) and sees node 0's notice.
    assert!(reader.page_faults >= 1);
    assert!(reader.pages_fetched + reader.diffs_applied >= 1);
}
