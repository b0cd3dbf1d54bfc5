//! E5 — §2.2.2's registered-memory arithmetic.
//!
//! The paper sizes the preposted receive buffers at
//! `64KB·(n−1) + 64KB` per node — "for a system with 256 nodes our
//! system's memory requirement is 16 MB (approx)" — and notes that
//! dropping size classes ≥13 in favour of a rendezvous protocol brings it
//! "down to 6 MB for a 256 node cluster". This binary instantiates the
//! real substrate at several cluster sizes for the eager column, and
//! evaluates the rendezvous columns the way the paper did: as arithmetic,
//! with the function the substrate preposts from ([`prepost_bytes`]),
//! stopped at class 13.

use std::sync::Arc;

use tm_bench::print_header;
use tm_fast::{prepost_bytes, FastConfig, FastSubstrate};
use tm_gm::gm_cluster;
use tm_sim::clock::shared_clock;
use tm_sim::SimParams;

/// Largest preposted class once a rendezvous carries everything above 8 KB.
const RDV_TOP_CLASS: u8 = 13;

fn mb(b: usize) -> f64 {
    b as f64 / (1 << 20) as f64
}

fn main() {
    print_header("E5: registered-memory requirement (paper §2.2.2)");
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>16}",
        "nodes", "eager (MB)", "paper formula", "rendezvous (MB)", "total pinned"
    );
    let params = Arc::new(SimParams::paper_testbed());
    let page = params.dsm.page_size;
    for n in [4usize, 16, 64, 256] {
        let (_f, board, mut nics) = gm_cluster(n, Arc::clone(&params));
        let cfg = FastConfig::paper(&params);
        let nic = nics.remove(0);
        let sub = FastSubstrate::new(nic, shared_clock(), Arc::clone(&params), board, cfg);
        let eager = sub.prepost_bytes;
        let rdv = prepost_bytes(n, RDV_TOP_CLASS);
        // The same node with its prepost slabs pinned at the smaller size.
        let pinned_rdv =
            sub.pinned_bytes() - eager.next_multiple_of(page) + rdv.next_multiple_of(page);
        // Paper closed form: 64KB*(n-1) + 64KB.
        let formula = 64 * 1024 * (n - 1) + 64 * 1024;
        println!(
            "{n:>6} {:>16.2} {:>16.2} {:>16.2} {:>16.2}",
            mb(eager),
            mb(formula),
            mb(rdv),
            mb(pinned_rdv),
        );
    }
    println!();
    println!("paper anchor points (256 nodes): ~16 MB eager, ~6 MB with the");
    println!("rendezvous protocol for messages above 8 KB.");
}
