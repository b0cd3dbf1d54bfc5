//! What a first touch fetches under each profile.
//!
//! Under `Profile::Spec` the first access to a page managed elsewhere
//! fetches the whole page from its manager, as TreadMarks does. Under
//! `Profile::Tuned`, the default, a page no write notice names holds
//! nothing this node must see: it is mapped as the zero page it holds and
//! nothing is sent; a page a notice names is the zero page plus its
//! writers' diffs, which `Spec` fetches from the manager first. A
//! zero-filled page that a notice names later is fetched from its writers
//! like any invalid page. Every rule is checked on the in-memory substrate
//! and on UDP/GM.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use tm_fast::run_udp_dsm;
use tm_sim::{Ns, SimParams};
use tmk::memsub::run_mem_dsm;
use tmk::{Profile, Substrate, Tmk, TmkConfig, TmkEvent};

const NODES: usize = 3;
const READER: usize = 0;
const WRITER: usize = 2;

/// Each node's result of `body` on `NODES` in-memory nodes and on `NODES`
/// UDP/GM nodes, under `profile`, with the substrate's name.
fn on_both<R: 'static>(
    profile: Profile,
    mem: fn(&mut Tmk<tmk::memsub::MemSubstrate>) -> R,
    udp: fn(&mut Tmk<tm_fast::UdpSubstrate>) -> R,
) -> [(&'static str, Vec<R>); 2] {
    let params = || Arc::new(SimParams::paper_testbed());
    let cfg = TmkConfig {
        profile,
        ..TmkConfig::default()
    };
    let results = |out: Vec<tm_sim::runner::NodeOutcome<R>>| -> Vec<R> {
        out.into_iter().map(|o| o.result).collect()
    };
    [
        (
            "memsub",
            results(run_mem_dsm(
                NODES,
                params(),
                Ns::from_us(5),
                cfg.clone(),
                mem,
            )),
        ),
        ("UDP/GM", results(run_udp_dsm(NODES, params(), cfg, udp))),
    ]
}

/// What one read cost the node that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Read {
    value: u32,
    rpcs: u64,
    msgs_sent: u64,
    page_faults: u64,
    pages_fetched: u64,
    diffs_applied: u64,
}

/// Read word `word` of `region` and count what the read cost.
fn counted_read<S: Substrate>(tmk: &mut Tmk<S>, region: tmk::SharedId, word: usize) -> Read {
    let rpcs = Rc::new(Cell::new(0));
    let sink = Rc::clone(&rpcs);
    tmk.set_event_hook(move |ev| {
        if let TmkEvent::RpcIssued { .. } = ev {
            sink.set(sink.get() + 1);
        }
    });
    let before = tmk.clock().borrow().stats.clone();
    let value = tmk.get_u32(region, word);
    let after = tmk.clock().borrow().stats.clone();
    tmk.clear_event_hook();
    Read {
        value,
        rpcs: rpcs.get(),
        msgs_sent: after.msgs_sent - before.msgs_sent,
        page_faults: after.page_faults - before.page_faults,
        pages_fetched: after.pages_fetched - before.pages_fetched,
        diffs_applied: after.diffs_applied - before.diffs_applied,
    }
}

/// `READER` reads page 1, managed by node 1, before anyone writes
/// anything or synchronizes.
fn untouched_page<S: Substrate>(tmk: &mut Tmk<S>) -> Option<Read> {
    let region = tmk.malloc(NODES * 4096);
    let read = (tmk.proc_id() == READER).then(|| counted_read(tmk, region, 1024));
    tmk.barrier(0);
    read
}

#[test]
fn a_first_read_of_a_page_no_notice_names_sends_nothing_when_tuned() {
    let zero_fill = Read {
        value: 0,
        rpcs: 0,
        msgs_sent: 0,
        page_faults: 1,
        pages_fetched: 0,
        diffs_applied: 0,
    };
    for (what, out) in on_both(Profile::Tuned, untouched_page, untouched_page) {
        assert_eq!(out[READER], Some(zero_fill), "{what}");
    }
    // The spec profile asks the manager for it: one `Page` rpc.
    let fetched = Read {
        rpcs: 1,
        msgs_sent: 1,
        pages_fetched: 1,
        ..zero_fill
    };
    for (what, out) in on_both(Profile::Spec, untouched_page, untouched_page) {
        assert_eq!(out[READER], Some(fetched), "{what}");
    }
}

/// `WRITER` writes page 1 (managed by node 1) before barrier 0 and page 4
/// (managed by node 1 too) under lock 0; `READER` first touches page 1
/// after the barrier, and page 4 after taking lock 0 from `WRITER`.
/// Returns `READER`'s two reads.
fn named_pages<S: Substrate>(tmk: &mut Tmk<S>) -> Option<(Read, Read)> {
    let region = tmk.malloc(2 * NODES * 4096);
    let me = tmk.proc_id();
    if me == WRITER {
        tmk.set_u32(region, 1024 + 5, 0xb0);
    }
    tmk.barrier(0);
    let mut reads = None;
    if me == WRITER {
        tmk.acquire(0);
        tmk.set_u32(region, 4 * 1024 + 5, 0xc0);
        tmk.release(0);
    } else if me == READER {
        let by_barrier = counted_read(tmk, region, 1024 + 5);
        // Long enough for `WRITER`'s critical section to come first.
        tmk.compute_ns(Ns::from_us(500));
        tmk.acquire(0);
        let by_lock = counted_read(tmk, region, 4 * 1024 + 5);
        tmk.release(0);
        reads = Some((by_barrier, by_lock));
    }
    tmk.barrier(1);
    reads
}

#[test]
fn a_page_a_notice_names_reads_the_writers_value_under_both_profiles() {
    for profile in [Profile::Spec, Profile::Tuned] {
        for (what, out) in on_both(profile, named_pages, named_pages) {
            let (by_barrier, by_lock) = out[READER].expect("the reader's reads");
            for (read, want) in [(by_barrier, 0xb0), (by_lock, 0xc0)] {
                assert_eq!(read.value, want, "{profile:?} on {what}: {read:?}");
                // The writer's diff is applied to the page: fetched from
                // its manager under `Spec`, the zero page it holds under
                // `Tuned`.
                let fetched = u64::from(profile == Profile::Spec);
                assert_eq!(
                    (read.page_faults, read.pages_fetched, read.diffs_applied),
                    (1, fetched, 1),
                    "{profile:?} on {what}: {read:?}"
                );
            }
        }
    }
}

/// `READER` first touches page 1 while nobody has written it, `WRITER`
/// writes it between barriers 0 and 1, and `READER` reads it again.
fn named_later<S: Substrate>(tmk: &mut Tmk<S>) -> Option<(Read, Read)> {
    let region = tmk.malloc(NODES * 4096);
    let me = tmk.proc_id();
    let first = (me == READER).then(|| counted_read(tmk, region, 1024 + 9));
    tmk.barrier(0);
    if me == WRITER {
        tmk.set_u32(region, 1024 + 9, 0xd0);
    }
    tmk.barrier(1);
    let again = (me == READER).then(|| counted_read(tmk, region, 1024 + 9));
    tmk.barrier(2);
    first.zip(again)
}

#[test]
fn a_zero_filled_page_a_notice_later_names_reads_the_writers_value() {
    for profile in [Profile::Spec, Profile::Tuned] {
        for (what, out) in on_both(profile, named_later, named_later) {
            let (first, again) = out[READER].expect("the reader's reads");
            assert_eq!(first.value, 0, "{profile:?} on {what}: {first:?}");
            assert_eq!(
                first.pages_fetched,
                u64::from(profile == Profile::Spec),
                "{profile:?} on {what}: {first:?}"
            );
            // The notice invalidates the mapped page: one diff from its
            // writer, and no page from its manager.
            assert_eq!(again.value, 0xd0, "{profile:?} on {what}: {again:?}");
            assert_eq!(
                (again.page_faults, again.pages_fetched, again.diffs_applied),
                (1, 0, 1),
                "{profile:?} on {what}: {again:?}"
            );
        }
    }
}
