//! Regression: the barrier manager must not incorporate arrivals'
//! interval records (or vector times) before its own departure. It used
//! to insert them into its log on arrival; a subsequent lock grant then
//! deduplicated against the log and skipped the page invalidation,
//! losing lock-protected updates. This schedule (found by the proptest
//! in tests/stress_and_faults.rs) reproduced the lost update.

use std::sync::Arc;
use tm_sim::{Ns, SimParams};
use tmk::memsub::run_mem_dsm;
use tmk::TmkConfig;

#[test]
fn barrier_manager_defers_incorporation() {
    let ops: Vec<(u8, u8)> = vec![
        (28, 134),
        (17, 66),
        (201, 165),
        (89, 115),
        (73, 55),
        (87, 126),
        (137, 132),
        (44, 45),
        (29, 158),
        (175, 83),
        (146, 103),
        (240, 232),
        (189, 70),
        (81, 103),
        (210, 230),
        (67, 168),
        (79, 124),
        (6, 131),
        (146, 24),
        (201, 43),
        (150, 5),
        (125, 177),
        (201, 198),
        (206, 23),
        (24, 73),
        (164, 248),
        (201, 193),
        (156, 125),
        (14, 207),
        (204, 151),
    ];
    for round in 0..5 {
        let expected = {
            let mut v = vec![0u32; 8];
            for &(_, slot) in &ops {
                v[slot as usize % 8] += 1;
            }
            v
        };
        let ops2 = Arc::new(ops.clone());
        let want = expected.clone();
        let out = run_mem_dsm(
            3,
            Arc::new(SimParams::paper_testbed()),
            Ns::from_us(5),
            TmkConfig::default(),
            move |tmk| {
                let r = tmk.malloc(4096);
                tmk.barrier(0);
                let me = tmk.proc_id();
                for &(who, slot) in ops2.iter() {
                    if who as usize % 3 == me {
                        let s = slot as usize % 8;
                        tmk.acquire(s as u32 + 1);
                        let v = tmk.get_u32(r, s);
                        tmk.set_u32(r, s, v + 1);
                        tmk.release(s as u32 + 1);
                    }
                }
                tmk.barrier(1);
                let mut got = Vec::new();
                for s in 0..8 {
                    got.push(tmk.get_u32(r, s));
                }
                got
            },
        );
        for o in &out {
            assert_eq!(o.result, want, "round {round} node {}", o.id);
        }
    }
}
