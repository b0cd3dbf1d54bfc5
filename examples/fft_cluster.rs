//! 3-D FFT with a distributed transpose — the bandwidth-hungry workload.
//!
//! Runs on 4 and 16 nodes over both transports, showing the scaling gap
//! the paper's Figure 4 reports (UDP/GM stops scaling first).
//!
//! ```sh
//! cargo run --release --example fft_cluster
//! ```

use std::sync::Arc;

use tm_apps::{fft_parallel, fft_seq, FftConfig};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::runner::cluster_time;
use tm_sim::SimParams;
use tmk::TmkConfig;

fn main() {
    let cfg = FftConfig::new(32);
    let want = fft_seq(&cfg);

    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "nodes", "UDP/GM", "FAST/GM", "factor"
    );
    for n in [4usize, 16] {
        let params = Arc::new(SimParams::paper_testbed());
        let c = cfg.clone();
        let fast = run_fast_dsm(
            n,
            Arc::clone(&params),
            FastConfig::paper(&params),
            TmkConfig::default(),
            move |tmk| fft_parallel(tmk, &c),
        );
        let c = cfg.clone();
        let udp = run_udp_dsm(n, params, TmkConfig::default(), move |tmk| {
            fft_parallel(tmk, &c)
        });
        for o in fast.iter().chain(udp.iter()) {
            assert_eq!(o.result, want, "node {} diverged", o.id);
        }
        let tf = cluster_time(&fast);
        let tu = cluster_time(&udp);
        println!(
            "{n:>6} {:>14} {:>14} {:>7.2}x",
            format!("{tu}"),
            format!("{tf}"),
            tu.0 as f64 / tf.0 as f64
        );
    }
}
