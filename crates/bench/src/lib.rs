//! # tm-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index): E1 latency/bandwidth, E2 microbenchmarks (Figure 3), E3
//! execution time vs system size (Figure 4), E4 execution time vs
//! application size (Figure 5 + Table 1), E5 the §2.2.2 registered-memory
//! arithmetic, E6 the §2.2.4 async-handling ablation.
//!
//! This library holds the shared pieces: application specs with their
//! size ladders, transport-sweeping runners that also *validate every
//! timed run against the sequential reference*, and table formatting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tm_apps::{
    fft_parallel, fft_seq, jacobi_parallel, jacobi_seq, sor_parallel, sor_seq, tsp_parallel,
    tsp_seq, FftConfig, JacobiConfig, SorConfig, TspConfig,
};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, Transport};
use tm_sim::runner::cluster_time;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::{
    BarrierAlgo, DiffFetch, LayerMetrics, LockPath, MetricsHandle, Substrate, Tmk, TmkConfig,
};

/// Cross-run metrics accumulator: when a binary turns instrumentation on
/// ([`set_metrics_enabled`]), every [`with_metrics`] body — each
/// [`run_spec_with`] run is one — taps its node's event hook and folds
/// the tallies in here. The hook charges no virtual time, so timed
/// results are unchanged.
static METRICS: Mutex<Option<LayerMetrics>> = Mutex::new(None);
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Enable/disable per-layer event tallying for subsequent runs.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// Take (and clear) the accumulated metrics, if any were recorded.
pub fn take_metrics() -> Option<LayerMetrics> {
    METRICS.lock().unwrap().take()
}

/// Run one node body, folding its event tallies into the accumulator when
/// instrumentation is on.
pub fn with_metrics<S: Substrate, R>(tmk: &mut Tmk<S>, body: impl FnOnce(&mut Tmk<S>) -> R) -> R {
    let handle = METRICS_ON
        .load(Ordering::Relaxed)
        .then(|| MetricsHandle::install(tmk));
    let r = body(tmk);
    if let Some(h) = handle {
        METRICS
            .lock()
            .unwrap()
            .get_or_insert_with(LayerMetrics::default)
            .merge(&h.snapshot());
        tmk.clear_event_hook();
    }
    r
}

/// What an application run returns (for validation).
#[derive(Debug, Clone, PartialEq)]
pub enum AppResult {
    Checksum(f64),
    ChecksumResidual(f64, f64),
    TourLength(u32),
}

/// A runnable, validatable application instance.
#[derive(Debug, Clone)]
pub enum AppSpec {
    Jacobi(JacobiConfig),
    Sor(SorConfig),
    Tsp(TspConfig),
    Fft(FftConfig),
}

impl AppSpec {
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::Jacobi(_) => "Jacobi",
            AppSpec::Sor(_) => "SOR",
            AppSpec::Tsp(_) => "TSP",
            AppSpec::Fft(_) => "3Dfft",
        }
    }

    /// Short description of the problem size.
    pub fn size_label(&self) -> String {
        match self {
            AppSpec::Jacobi(c) => format!("{}x{}", c.size, c.size),
            AppSpec::Sor(c) => format!("{}x{}", c.rows, c.cols),
            AppSpec::Tsp(c) => format!("{} cities", c.cities),
            AppSpec::Fft(c) => format!("{0}x{0}x{0}", c.size),
        }
    }

    /// Run on one node of the cluster (generic over transport).
    pub fn body<S: Substrate>(&self, tmk: &mut Tmk<S>) -> AppResult {
        match self {
            AppSpec::Jacobi(c) => AppResult::Checksum(jacobi_parallel(tmk, c)),
            AppSpec::Sor(c) => {
                let (s, r) = sor_parallel(tmk, c);
                AppResult::ChecksumResidual(s, r)
            }
            AppSpec::Tsp(c) => AppResult::TourLength(tsp_parallel(tmk, c)),
            AppSpec::Fft(c) => AppResult::Checksum(fft_parallel(tmk, c)),
        }
    }

    /// The sequential reference answer.
    pub fn expected(&self) -> AppResult {
        match self {
            AppSpec::Jacobi(c) => AppResult::Checksum(jacobi_seq(c)),
            AppSpec::Sor(c) => {
                let (s, r) = sor_seq(c);
                AppResult::ChecksumResidual(s, r)
            }
            AppSpec::Tsp(c) => AppResult::TourLength(tsp_seq(c)),
            AppSpec::Fft(c) => AppResult::Checksum(fft_seq(c)),
        }
    }

    fn results_match(&self, got: &AppResult, want: &AppResult) -> bool {
        match (got, want) {
            (AppResult::ChecksumResidual(gs, gr), AppResult::ChecksumResidual(ws, wr)) => {
                gs == ws && (gr - wr).abs() <= 1e-9 * wr.abs().max(1.0)
            }
            _ => got == want,
        }
    }

    /// The paper's default problem instance (§3.3.1, with iteration
    /// counts scaled to keep harness runtime reasonable).
    pub fn default_instance(app: &str) -> AppSpec {
        match app {
            "jacobi" => AppSpec::Jacobi(JacobiConfig::new(1024, 10)),
            "sor" => AppSpec::Sor(SorConfig::new(1024, 512, 10)),
            "tsp" => AppSpec::Tsp(TspConfig::new(12)),
            "fft" => AppSpec::Fft(FftConfig::new(32)),
            other => panic!("unknown app {other}"),
        }
    }

    /// The four problem sizes of Table 1 (reconstructed — the OCR of the
    /// paper lost the digits; ladders chosen to span ~an order of
    /// magnitude like the original).
    pub fn size_ladder(app: &str) -> Vec<AppSpec> {
        match app {
            "jacobi" => [256, 512, 1024, 1536]
                .iter()
                .map(|&z| AppSpec::Jacobi(JacobiConfig::new(z, 10)))
                .collect(),
            "sor" => [256, 512, 1024, 2048]
                .iter()
                .map(|&r| AppSpec::Sor(SorConfig::new(r, 512, 10)))
                .collect(),
            "tsp" => [10, 11, 12, 13]
                .iter()
                .map(|&c| AppSpec::Tsp(TspConfig::new(c)))
                .collect(),
            "fft" => [8, 16, 32, 64]
                .iter()
                .map(|&z| AppSpec::Fft(FftConfig::new(z)))
                .collect(),
            other => panic!("unknown app {other}"),
        }
    }

    pub const APPS: [&'static str; 4] = ["jacobi", "sor", "tsp", "fft"];
}

/// Run `spec` on an `n`-node cluster over `transport`; returns the
/// cluster execution time. Panics if any node's answer deviates from the
/// sequential reference — a timed run that computed the wrong thing is
/// worthless.
pub fn run_spec(transport: Transport, n: usize, spec: &AppSpec) -> Ns {
    let want = spec.expected();
    run_spec_with(transport, n, spec, &want)
}

/// Every knob the bench binaries take from the environment — the one
/// place in the workspace that reads it, parsed once per process
/// ([`opts`]). An unset or empty variable selects the default; a value
/// that does not parse panics naming the variable, so a mistyped CI
/// matrix cell fails instead of silently testing the default.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// `E2_FAULT_LOSS`: datagram drop probability of the fault plan
    /// under test (default 0: the plan stays disabled and stdout is
    /// byte-identical to a faultless build).
    pub fault_loss: f64,
    /// `E2_FAULT_SEED`: base seed of the fault plan (default: the
    /// plan's own).
    pub fault_seed: Option<u64>,
    /// `E2_BARRIER_ALGO`: `centralized` (the default), `tree:<radix>` or
    /// `nictree:<radix>` (radix 4 when omitted).
    pub barrier_algo: BarrierAlgo,
    /// `E2_DIFF_FETCH`: `coalesced` (the default) or `serial` (the
    /// one-outstanding-RPC spec baseline).
    pub diff_fetch: DiffFetch,
    /// `E2_LOCK_PATH`: `serial` (the message-for-message spec baseline,
    /// the default) or `overlapped`.
    pub lock_path: LockPath,
    /// `E2_PREFETCH`: stride-prefetch depth; 0 (the default) leaves the
    /// prefetcher inert.
    pub prefetch_depth: usize,
    /// `E7_RADIX`: combining-tree radix for E7. The default (8) fits 128
    /// nodes in two levels (1 + k + k² ≥ 128) while keeping any single
    /// node's serialized arrival work well under the centralized
    /// manager's n−1.
    pub e7_radix: u16,
    /// `E2_METRICS` / `E3_METRICS` (set = on): print per-layer event
    /// tallies at the end. Off by default so stdout stays byte-identical
    /// to an uninstrumented run.
    pub e2_metrics: bool,
    pub e3_metrics: bool,
    /// `E2_SMOKE` / `E7_SMOKE` (set = on): run the assertion-carrying
    /// CI subsets.
    pub e2_smoke: bool,
    pub e7_smoke: bool,
}

impl Opts {
    /// Parse the knobs out of `get` (variable name → value, `None` when
    /// unset). [`opts`] passes the process environment; tests pass maps.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Opts {
        fn bad(name: &str, v: &str, want: &str) -> ! {
            panic!("{name}={v:?} is malformed: expected {want}")
        }
        fn num<T: std::str::FromStr>(name: &str, v: &str, want: &str) -> T {
            v.parse().unwrap_or_else(|_| bad(name, v, want))
        }
        // Unset and empty both mean "the default".
        let val = |name: &str| get(name).filter(|v| !v.is_empty());
        Opts {
            fault_loss: val("E2_FAULT_LOSS").map_or(0.0, |v| {
                let p: f64 = num("E2_FAULT_LOSS", &v, "a probability in [0, 1]");
                if !(0.0..=1.0).contains(&p) {
                    bad("E2_FAULT_LOSS", &v, "a probability in [0, 1]");
                }
                p
            }),
            fault_seed: val("E2_FAULT_SEED").map(|v| num("E2_FAULT_SEED", &v, "a u64")),
            barrier_algo: val("E2_BARRIER_ALGO").map_or(BarrierAlgo::Centralized, |v| {
                let (kind, radix) = v.split_once(':').unwrap_or((&v, "4"));
                let want = "centralized|tree[:<radix>]|nictree[:<radix>]";
                match kind {
                    "centralized" => BarrierAlgo::Centralized,
                    "tree" => BarrierAlgo::Tree { radix: num("E2_BARRIER_ALGO", radix, want) },
                    "nictree" => BarrierAlgo::NicTree { radix: num("E2_BARRIER_ALGO", radix, want) },
                    _ => bad("E2_BARRIER_ALGO", &v, want),
                }
            }),
            diff_fetch: val("E2_DIFF_FETCH").map_or(DiffFetch::Coalesced, |v| match v.as_str() {
                "coalesced" => DiffFetch::Coalesced,
                "serial" => DiffFetch::Serial,
                _ => bad("E2_DIFF_FETCH", &v, "coalesced|serial"),
            }),
            lock_path: val("E2_LOCK_PATH").map_or(LockPath::Serial, |v| match v.as_str() {
                "serial" => LockPath::Serial,
                "overlapped" => LockPath::Overlapped,
                _ => bad("E2_LOCK_PATH", &v, "serial|overlapped"),
            }),
            prefetch_depth: val("E2_PREFETCH").map_or(0, |v| num("E2_PREFETCH", &v, "a depth")),
            e7_radix: val("E7_RADIX").map_or(8, |v| num("E7_RADIX", &v, "a u16 radix")),
            e2_metrics: get("E2_METRICS").is_some(),
            e3_metrics: get("E3_METRICS").is_some(),
            e2_smoke: get("E2_SMOKE").is_some(),
            e7_smoke: get("E7_SMOKE").is_some(),
        }
    }

    /// The fault plan under test (`E2_FAULT_LOSS`, `E2_FAULT_SEED`).
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan {
            drop_probability: self.fault_loss,
            ..FaultPlan::default()
        };
        if let Some(seed) = self.fault_seed {
            plan.seed = seed;
        }
        plan
    }

    /// The DSM configuration under test (`E2_BARRIER_ALGO`,
    /// `E2_DIFF_FETCH`, `E2_LOCK_PATH`, `E2_PREFETCH`), so the same
    /// microbenchmarks run against every path without a recompile.
    pub fn tmk_config(&self) -> TmkConfig {
        TmkConfig {
            barrier_algo: self.barrier_algo,
            diff_fetch: self.diff_fetch,
            lock_path: self.lock_path,
            prefetch_depth: self.prefetch_depth,
            ..TmkConfig::default()
        }
    }
}

/// The process's [`Opts`], read from the environment on first use.
pub fn opts() -> &'static Opts {
    static OPTS: OnceLock<Opts> = OnceLock::new();
    OPTS.get_or_init(|| {
        Opts::parse(|name| {
            std::env::var_os(name).map(|v| {
                v.into_string()
                    .unwrap_or_else(|v| panic!("{name}={v:?} is malformed: not UTF-8"))
            })
        })
    })
}

/// Like [`run_spec`] but with a precomputed sequential reference — sweep
/// binaries compute the reference once per problem instance.
pub fn run_spec_with(transport: Transport, n: usize, spec: &AppSpec, want: &AppResult) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    let outcomes = match transport {
        Transport::Fast => {
            let cfg = FastConfig::paper(&params);
            let s = spec.clone();
            run_fast_dsm(n, params, cfg, TmkConfig::default(), move |tmk| {
                with_metrics(tmk, |tmk| s.body(tmk))
            })
        }
        Transport::Udp => {
            let s = spec.clone();
            run_udp_dsm(n, params, TmkConfig::default(), move |tmk| {
                with_metrics(tmk, |tmk| s.body(tmk))
            })
        }
    };
    for o in &outcomes {
        assert!(
            spec.results_match(&o.result, want),
            "{} on {} x{n}: node {} returned {:?}, sequential reference {:?}",
            spec.name(),
            transport.label(),
            o.id,
            o.result,
            want
        );
    }
    cluster_time(&outcomes)
}

/// Pretty table helper.
pub fn print_header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// A two-transport comparison row.
pub fn print_row(label: &str, udp: Ns, fast: Ns) {
    println!(
        "{label:<28} {:>14} {:>14} {:>8.2}x",
        format!("{udp}"),
        format!("{fast}"),
        udp.0 as f64 / fast.0.max(1) as f64
    );
}

pub fn print_row_header() {
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "case", "UDP/GM", "FAST/GM", "factor"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(env: &[(&str, &str)]) -> Opts {
        Opts::parse(|name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn opts_default_when_unset_or_empty() {
        let unset = parse(&[]);
        assert_eq!(unset.fault_loss, 0.0);
        assert_eq!(unset.fault_seed, None);
        assert_eq!(unset.barrier_algo, BarrierAlgo::Centralized);
        assert_eq!(unset.diff_fetch, DiffFetch::Coalesced);
        assert_eq!(unset.lock_path, LockPath::Serial);
        assert_eq!((unset.prefetch_depth, unset.e7_radix), (0, 8));
        assert!(!(unset.e2_metrics || unset.e3_metrics || unset.e2_smoke || unset.e7_smoke));
        assert!(!unset.fault_plan().enabled());
        // Empty values select the defaults too — except the on/off
        // flags, which are on whenever they are set at all.
        let empty = parse(&[
            ("E2_FAULT_LOSS", ""),
            ("E2_FAULT_SEED", ""),
            ("E2_BARRIER_ALGO", ""),
            ("E2_DIFF_FETCH", ""),
            ("E2_LOCK_PATH", ""),
            ("E2_PREFETCH", ""),
            ("E7_RADIX", ""),
        ]);
        assert_eq!(empty, unset);
        assert!(parse(&[("E2_SMOKE", "")]).e2_smoke);
    }

    #[test]
    fn opts_parse_good_values() {
        let o = parse(&[
            ("E2_FAULT_LOSS", "0.01"),
            ("E2_FAULT_SEED", "42"),
            ("E2_BARRIER_ALGO", "nictree:8"),
            ("E2_DIFF_FETCH", "serial"),
            ("E2_LOCK_PATH", "overlapped"),
            ("E2_PREFETCH", "8"),
            ("E7_RADIX", "4"),
            ("E3_METRICS", "1"),
        ]);
        assert_eq!(o.fault_plan().drop_probability, 0.01);
        assert_eq!(o.fault_plan().seed, 42);
        assert_eq!(o.barrier_algo, BarrierAlgo::NicTree { radix: 8 });
        assert_eq!(parse(&[("E2_BARRIER_ALGO", "tree")]).barrier_algo, BarrierAlgo::Tree { radix: 4 });
        let cfg = o.tmk_config();
        assert_eq!(cfg.diff_fetch, DiffFetch::Serial);
        assert_eq!(cfg.lock_path, LockPath::Overlapped);
        assert_eq!((cfg.prefetch_depth, o.e7_radix), (8, 4));
        assert!(o.e3_metrics && !o.e2_metrics);
    }

    /// The four knobs that used to fall through `.parse().ok()` to their
    /// default, and the enum-valued ones, all name the variable.
    #[test]
    fn opts_malformed_values_panic_naming_the_variable() {
        for (name, value) in [
            ("E2_FAULT_LOSS", "0,1"),
            ("E2_FAULT_LOSS", "1.5"),
            ("E2_FAULT_SEED", "x"),
            ("E2_PREFETCH", "two"),
            ("E7_RADIX", "k"),
            ("E2_BARRIER_ALGO", "tree:x"),
            ("E2_BARRIER_ALGO", "ring"),
            ("E2_DIFF_FETCH", "bogus"),
            // Was a mode until it lost its measurement (BENCH_overlap).
            ("E2_DIFF_FETCH", "parallel"),
            ("E2_LOCK_PATH", "bogus"),
        ] {
            let err = std::panic::catch_unwind(|| parse(&[(name, value)]))
                .expect_err(&format!("{name}={value} must be rejected"));
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains(name), "{name}={value}: {msg}");
        }
    }

    #[test]
    fn specs_have_ladders_of_four() {
        for app in AppSpec::APPS {
            assert_eq!(AppSpec::size_ladder(app).len(), 4, "{app}");
            let _ = AppSpec::default_instance(app);
        }
    }

    #[test]
    fn small_runs_validate_on_both_transports() {
        let spec = AppSpec::Jacobi(JacobiConfig::new(128, 5));
        let tf = run_spec(Transport::Fast, 2, &spec);
        let tu = run_spec(Transport::Udp, 2, &spec);
        assert!(tu > tf, "udp {tu} vs fast {tf}");
    }

    #[test]
    fn tsp_validates_over_fast() {
        let spec = AppSpec::Tsp(TspConfig::new(8));
        let t = run_spec(Transport::Fast, 3, &spec);
        assert!(t > Ns::ZERO);
    }
}
