//! E3 — Figure 4: application execution time vs system size.
//!
//! Jacobi, SOR, TSP and 3D-FFT at their default sizes on 4, 8 and 16
//! nodes over UDP/GM and FAST/GM. Every run is validated against the
//! sequential reference before its time is reported. The paper's
//! headline shapes: FAST/GM wins everywhere; Jacobi's gain is smallest
//! (~2×, high comp/comm); SOR ~6× and 3D-FFT ~6.3× at 16 nodes, where
//! UDP/GM stops scaling (or slows down) while FAST/GM keeps speeding up.

use tm_bench::{print_header, run_spec_with, AppSpec};
use tm_fast::Transport;
use tm_sim::Ns;

fn main() {
    print_header("E3: execution time vs system size (Figure 4)");
    for app in AppSpec::APPS {
        let spec = AppSpec::default_instance(app);
        println!();
        println!("--- {} ({}) ---", spec.name(), spec.size_label());
        println!(
            "{:>6} {:>14} {:>14} {:>8} {:>10} {:>10}",
            "nodes", "UDP/GM", "FAST/GM", "factor", "spdup-UDP", "spdup-FAST"
        );
        let want = spec.expected();
        let mut udp4 = Ns::ZERO;
        let mut fast4 = Ns::ZERO;
        for n in [4usize, 8, 16] {
            let udp = run_spec_with(Transport::Udp, n, &spec, &want);
            let fast = run_spec_with(Transport::Fast, n, &spec, &want);
            if n == 4 {
                udp4 = udp;
                fast4 = fast;
            }
            println!(
                "{n:>6} {:>14} {:>14} {:>7.2}x {:>9.2}x {:>9.2}x",
                format!("{udp}"),
                format!("{fast}"),
                udp.0 as f64 / fast.0.max(1) as f64,
                udp4.0 as f64 / udp.0.max(1) as f64,
                fast4.0 as f64 / fast.0.max(1) as f64,
            );
        }
    }
    println!();
    println!("speedups are relative to the same transport's 4-node time,");
    println!("matching the paper's 4->16 node scaling discussion (§3.3.2).");
}
