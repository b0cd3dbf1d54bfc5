//! E7 — §5 future work: "scaling a DSM system to a cluster having 256
//! nodes".
//!
//! The paper closes by asking what it takes to scale past 16 nodes and
//! suggests pushing synchronization primitives down to the NIC. This
//! study takes the reproduced system there:
//!
//! 1. barrier cost vs cluster size (16 → 128 nodes) on FAST/GM, for the
//!    centralized barrier (linear arrival/release serialization — the
//!    first scaling wall the paper anticipates) and for the radix-8
//!    combining tree ([`tmk::BarrierAlgo::Tree`]), which bounds any
//!    node's serialized work at radix arrivals;
//! 2. the tree on an *ideal* (zero-latency, zero-overhead) substrate —
//!    the algorithmic floor, i.e. what a perfect network could at best
//!    recover once the algorithm itself scales;
//! 3. Jacobi at a fixed problem size across cluster sizes, showing where
//!    added nodes stop paying for themselves on each transport.
//!
//! `tests/tree_barrier.rs` holds the block-1 claims to account: tree <
//! centralized at 16 and 32 nodes, sub-linear growth from 8 to 32, and
//! three 128-node reps that price the barrier alike on every node.

use std::sync::Arc;

use tm_bench::{paper_config, print_header, AppSpec};
use tm_fast::{run_fast_dsm, FastConfig, Transport};
use tm_sim::runner::NodeOutcome;
use tm_sim::{Ns, SimParams};
use tmk::memsub::run_mem_dsm;
use tmk::{BarrierAlgo, Substrate, Tmk, TmkConfig};

const ROUNDS: u64 = 60;

/// Combining-tree radix: 8 fits 128 nodes in two levels (1 + k + k² ≥
/// 128) while keeping any single node's serialized arrival work well under
/// the centralized manager's n−1.
const RADIX: u16 = 8;

fn barrier_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    tmk.barrier(0); // warmup
    let t0 = tmk.clock().borrow().now();
    for k in 1..=ROUNDS {
        tmk.barrier(k as u32);
    }
    (tmk.clock().borrow().now() - t0).0 / ROUNDS
}

fn avg(v: &[NodeOutcome<u64>]) -> Ns {
    Ns(v.iter().map(|o| o.result).sum::<u64>() / v.len() as u64)
}

fn cfg(algo: BarrierAlgo) -> TmkConfig {
    TmkConfig {
        barrier_algo: algo,
        ..paper_config()
    }
}

/// Average barrier time on FAST/GM under the given algorithm.
fn fast_barrier(n: usize, algo: BarrierAlgo) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    let fc = FastConfig::paper(&params);
    avg(&run_fast_dsm(n, params, fc, cfg(algo), barrier_body))
}

/// Average barrier time on the ideal (zero-cost) substrate.
fn ideal_barrier(n: usize, algo: BarrierAlgo) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    avg(&run_mem_dsm(n, params, Ns::ZERO, cfg(algo), barrier_body))
}

fn main() {
    print_header("E7: scaling toward 256 nodes (paper §5, future work)");

    println!();
    println!("-- barrier vs cluster size, by algorithm --");
    println!(
        "{:>6} {:>14} {:>12} {:>12}",
        "nodes",
        "centralized",
        format!("tree({RADIX})"),
        "ideal tree"
    );
    let mut tree = Vec::new();
    for n in [16usize, 32, 64, 128] {
        let central = fast_barrier(n, BarrierAlgo::Centralized);
        let t = fast_barrier(n, BarrierAlgo::Tree { radix: RADIX });
        let ideal = ideal_barrier(n, BarrierAlgo::Tree { radix: RADIX });
        println!(
            "{n:>6} {:>14} {:>12} {:>12}",
            format!("{central}"),
            format!("{t}"),
            format!("{ideal}"),
        );
        tree.push((n, t));
    }
    let (n0, t0) = tree[0];
    let (n3, t3) = tree[tree.len() - 1];
    println!(
        "tree scaling: {n3} nodes / {n0} nodes = {:.2}x cost",
        t3.0 as f64 / t0.0.max(1) as f64
    );
    println!("the centralized column grows linearly (serialized arrivals at");
    println!("the manager); the radix-8 tree grows with depth.");

    println!();
    println!("-- Jacobi 512x512, fixed size, growing cluster --");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "nodes", "UDP/GM", "FAST/GM", "factor"
    );
    let spec = AppSpec::Jacobi(tm_apps::JacobiConfig::new(512, 10));
    let want = spec.expected();
    for n in [8usize, 16, 32, 64] {
        let udp = tm_bench::run_spec_with(Transport::Udp, n, &spec, &want);
        let fast = tm_bench::run_spec_with(Transport::Fast, n, &spec, &want);
        println!(
            "{n:>6} {:>14} {:>14} {:>7.2}x",
            format!("{udp}"),
            format!("{fast}"),
            udp.0 as f64 / fast.0.max(1) as f64
        );
    }
    println!();
    println!("fixed-size scaling flattens as per-node work shrinks against");
    println!("synchronization cost — the regime the paper's 256-node goal");
    println!("must engineer around (NIC primitives, tree barriers).");
}
