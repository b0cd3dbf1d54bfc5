//! Cross-crate integration: the full application suite over the real
//! transports (not the idealized in-memory substrate), validated against
//! the sequential references — the complete stack from Tmk API down to
//! the simulated wire.

use std::sync::Arc;

use tm_apps::{
    fft_parallel, fft_seq, jacobi_parallel, jacobi_seq, sor_parallel, sor_seq, tsp_parallel,
    tsp_seq, FftConfig, JacobiConfig, SorConfig, TspConfig,
};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::runner::cluster_time;
use tm_sim::SimParams;
use tmk::TmkConfig;

fn params() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

#[test]
fn jacobi_over_fast_gm() {
    let cfg = JacobiConfig::new(64, 4);
    let want = jacobi_seq(&cfg);
    for n in [2usize, 4, 7] {
        let c = cfg.clone();
        let out = run_fast_dsm(
            n,
            params(),
            FastConfig::paper(&params()),
            TmkConfig::default(),
            move |tmk| jacobi_parallel(tmk, &c),
        );
        assert!(out.iter().all(|o| o.result == want), "n={n}");
    }
}

#[test]
fn jacobi_over_udp_gm() {
    let cfg = JacobiConfig::new(64, 4);
    let want = jacobi_seq(&cfg);
    let c = cfg.clone();
    let out = run_udp_dsm(4, params(), TmkConfig::default(), move |tmk| {
        jacobi_parallel(tmk, &c)
    });
    assert!(out.iter().all(|o| o.result == want));
}

#[test]
fn sor_over_both_transports() {
    let cfg = SorConfig::new(48, 32, 3);
    let (want, _) = sor_seq(&cfg);
    let c = cfg.clone();
    let fast = run_fast_dsm(
        4,
        params(),
        FastConfig::paper(&params()),
        TmkConfig::default(),
        move |tmk| sor_parallel(tmk, &c).0,
    );
    let c = cfg.clone();
    let udp = run_udp_dsm(4, params(), TmkConfig::default(), move |tmk| {
        sor_parallel(tmk, &c).0
    });
    assert!(fast.iter().all(|o| o.result == want));
    assert!(udp.iter().all(|o| o.result == want));
}

#[test]
fn tsp_over_fast_gm_many_nodes() {
    let cfg = TspConfig::new(9);
    let want = tsp_seq(&cfg);
    for n in [3usize, 8] {
        let c = cfg.clone();
        let out = run_fast_dsm(
            n,
            params(),
            FastConfig::paper(&params()),
            TmkConfig::default(),
            move |tmk| tsp_parallel(tmk, &c),
        );
        assert!(out.iter().all(|o| o.result == want), "n={n}");
    }
}

#[test]
fn tsp_over_udp_gm() {
    let cfg = TspConfig::new(8);
    let want = tsp_seq(&cfg);
    let c = cfg.clone();
    let out = run_udp_dsm(3, params(), TmkConfig::default(), move |tmk| {
        tsp_parallel(tmk, &c)
    });
    assert!(out.iter().all(|o| o.result == want));
}

#[test]
fn fft_over_fast_gm() {
    let cfg = FftConfig::new(8);
    let want = fft_seq(&cfg);
    for n in [2usize, 4] {
        let c = cfg.clone();
        let out = run_fast_dsm(
            n,
            params(),
            FastConfig::paper(&params()),
            TmkConfig::default(),
            move |tmk| fft_parallel(tmk, &c),
        );
        assert!(out.iter().all(|o| o.result == want), "n={n}");
    }
}

#[test]
fn fft_over_udp_gm() {
    let cfg = FftConfig::new(8);
    let want = fft_seq(&cfg);
    let c = cfg.clone();
    let out = run_udp_dsm(4, params(), TmkConfig::default(), move |tmk| {
        fft_parallel(tmk, &c)
    });
    assert!(out.iter().all(|o| o.result == want));
}

/// The headline claim, end to end: the same application binary gets
/// faster when the substrate is swapped from UDP/GM to FAST/GM.
#[test]
fn fast_gm_beats_udp_gm_on_every_app() {
    // Jacobi.
    let jc = JacobiConfig::new(96, 4);
    let c = jc.clone();
    let f = run_fast_dsm(
        4,
        params(),
        FastConfig::paper(&params()),
        TmkConfig::default(),
        move |tmk| jacobi_parallel(tmk, &c),
    );
    let c = jc.clone();
    let u = run_udp_dsm(4, params(), TmkConfig::default(), move |tmk| {
        jacobi_parallel(tmk, &c)
    });
    assert!(
        cluster_time(&u) > cluster_time(&f),
        "jacobi: UDP {} vs FAST {}",
        cluster_time(&u),
        cluster_time(&f)
    );

    // FFT (communication-heavy: the gap should be clear).
    let fc = FftConfig::new(16);
    let c = fc.clone();
    let f = run_fast_dsm(
        4,
        params(),
        FastConfig::paper(&params()),
        TmkConfig::default(),
        move |tmk| fft_parallel(tmk, &c),
    );
    let c = fc.clone();
    let u = run_udp_dsm(4, params(), TmkConfig::default(), move |tmk| {
        fft_parallel(tmk, &c)
    });
    let (tf, tu) = (cluster_time(&f), cluster_time(&u));
    assert!(
        tu.0 as f64 > 1.15 * tf.0 as f64,
        "fft: UDP {tu} should clearly beat FAST {tf}"
    );
}

/// Protocol stats are visible and plausible at cluster level.
#[test]
fn cluster_stats_are_consistent() {
    let cfg = JacobiConfig::new(64, 3);
    let c = cfg.clone();
    let out = run_fast_dsm(
        4,
        params(),
        FastConfig::paper(&params()),
        TmkConfig::default(),
        move |tmk| jacobi_parallel(tmk, &c),
    );
    let agg = tm_sim::runner::cluster_stats(&out);
    assert_eq!(
        agg.msgs_sent, agg.msgs_recv,
        "every sent message must be consumed"
    );
    assert!(agg.twins_created >= agg.diffs_created);
    assert!(agg.barriers >= 4 * 4, "4 nodes x (init + iters + exit)");
}
