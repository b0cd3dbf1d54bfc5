//! # tm-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index): E1 latency/bandwidth, E2 microbenchmarks (Figure 3), E3
//! execution time vs system size (Figure 4), E4 execution time vs
//! application size (Figure 5 + Table 1), E5 the §2.2.2 registered-memory
//! arithmetic, E6 the §2.2.4 async-handling ablation, E7 the §5 scaling
//! question (tree vs centralized barrier to 128 nodes, Jacobi at fixed
//! size). Two more record trajectories: `bench_overlap` the diff-fetch
//! engines and the two profiles' lock paths in simulated ns
//! (`results/BENCH_overlap.json`, exact), `bench_diff` the diff engine's
//! and framing's host ns.
//!
//! This library holds the shared pieces: the microbenchmark bodies more
//! than one binary or test runs, application specs with their size
//! ladders, transport-sweeping runners that also *validate every timed
//! run against the sequential reference*, table formatting, and the one
//! environment variable the workspace reads ([`fault_plan`]).

use std::sync::{Arc, OnceLock};

use tm_apps::{
    fft_parallel, fft_seq, jacobi_parallel, jacobi_seq, sor_parallel, sor_seq, tsp_parallel,
    tsp_seq, FftConfig, JacobiConfig, SorConfig, TspConfig,
};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, Transport};
use tm_sim::runner::cluster_time;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::{Profile, SharedId, Substrate, Tmk, TmkConfig};

/// The runtime every committed `results/e*.txt` table runs: the default
/// [`TmkConfig`] under the specification profile ([`Profile::Spec`]), so
/// an acquire and a first touch send what TreadMarks sends, message for
/// message. The default ([`Profile::Tuned`]) fetches what a grant
/// invalidates at the grant instead (`results/BENCH_overlap.json` prices
/// the two) and maps a first-touched page as zeroes, asking its writers
/// for their diffs and its manager for nothing.
pub fn paper_config() -> TmkConfig {
    TmkConfig {
        profile: Profile::Spec,
        ..TmkConfig::default()
    }
}

// ----- microbenchmark bodies more than one binary runs ----------------------

/// TSP-like lock storm: the holder (node 0) writes a block of `pages`
/// pages under the lock, node 1 acquires and (if `read`) reads them,
/// `rounds` times. The only ordering between the write and the read is
/// the lock transfer itself, so the grant carries the write notices —
/// under `Profile::Tuned` the diff fetches they imply are batched
/// at acquire time instead of faulting one round trip at a time inside
/// the critical section. Without `read` the grant is cold: node 1 reads
/// only the turn marker, and the overlapped path fetches the rest for
/// nothing. Returns node 1's cost per round (zero on node 0).
pub fn lock_storm_body<S: Substrate>(
    tmk: &mut Tmk<S>,
    pages: usize,
    rounds: u64,
    read: bool,
) -> u64 {
    let region = tmk.malloc(pages * 4096);
    tmk.distribute(region);
    let me = tmk.proc_id();
    for p in 0..pages {
        let _ = tmk.get_u32(region, p * 1024);
    }
    tmk.barrier(0);
    let mut ns = 0u64;
    for r in 0..rounds {
        let want = r as u32 + 1;
        if me == 0 {
            tmk.acquire(0);
            // Payload pages first, the turn marker (page 0) last: a reader
            // that observes the marker holds notices for the whole interval.
            for p in 1..pages {
                tmk.set_u32(region, p * 1024 + 4, want);
            }
            tmk.set_u32(region, 4, want);
            tmk.release(0);
        } else {
            let t0 = tmk.clock().borrow().now();
            loop {
                tmk.acquire(0);
                if tmk.get_u32(region, 4) == want {
                    break;
                }
                tmk.release(0);
            }
            for p in (1..pages).filter(|_| read) {
                assert_eq!(
                    tmk.get_u32(region, p * 1024 + 4),
                    want,
                    "lock-storm payload"
                );
            }
            tmk.release(0);
            ns += (tmk.clock().borrow().now() - t0).0;
        }
        tmk.barrier(1 + r as u32);
    }
    ns / rounds
}

/// Multi-writer diff storm: nodes `0..n-1` each write a disjoint word
/// (`1 + id`, at word `16 * id`) of every one of `pages` pages; the last
/// node, holding stale copies, then runs `read` — the measured access,
/// whose value is returned (zero on the writers). Each page it touches
/// faults with one pending write notice per writer, so the diff-fetch
/// engine decides what the read costs.
pub fn diff_storm_body<S: Substrate>(
    tmk: &mut Tmk<S>,
    pages: usize,
    read: impl FnOnce(&mut Tmk<S>, SharedId) -> u64,
) -> u64 {
    let region = tmk.malloc(pages * 4096);
    let me = tmk.proc_id();
    let writers = tmk.nprocs() - 1;
    // Everyone warms every page: writers need resident copies so their
    // stores produce diffs, and the reader needs stale copies so the
    // measured access is a diff fetch rather than a page fetch.
    for p in 0..pages {
        let _ = tmk.get_u32(region, p * 1024);
    }
    tmk.barrier(0);
    if me < writers {
        // Disjoint words of the same pages: concurrent multi-writer
        // intervals, the workload TreadMarks' diff protocol exists for.
        for p in 0..pages {
            tmk.set_u32(region, p * 1024 + me * 16, 1 + me as u32);
        }
    }
    tmk.barrier(1);
    let cost = if me == writers { read(tmk, region) } else { 0 };
    tmk.barrier(2);
    cost
}

/// Multi-writer diff ([`diff_storm_body`]): the reader re-reads one word
/// per page and pays one diff fetch per writer per page fault. Under the
/// coalesced engine the k requests fly concurrently, so the fault cost
/// approaches the slowest round trip instead of the sum of k of them.
/// Returns the reader's cost per page.
pub fn diff_multi_body<S: Substrate>(tmk: &mut Tmk<S>, pages: usize) -> u64 {
    diff_storm_body(tmk, pages, |tmk, region| {
        let t0 = tmk.clock().borrow().now();
        for p in 0..pages {
            let v = tmk.get_u32(region, p * 1024);
            assert_ne!(v, 0, "writer 0's diff must have been applied");
        }
        (tmk.clock().borrow().now() - t0).0 / pages as u64
    })
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

/// The fault plan the bench binaries run under: `E2_FAULT_LOSS`, the one
/// environment variable the workspace reads, parsed once per process.
pub fn fault_plan() -> FaultPlan {
    static PLAN: OnceLock<FaultPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        parse_fault_plan(|name| {
            std::env::var_os(name).map(|v| {
                v.into_string()
                    .unwrap_or_else(|v| panic!("{name}={v:?} is malformed: not UTF-8"))
            })
        })
    })
    .clone()
}

/// [`fault_plan`]'s parse step over `get` (variable name → value, `None`
/// when unset), so tests can pass maps. Unset or empty `E2_FAULT_LOSS`
/// is the default, disabled plan (stdout byte-identical to a faultless
/// build); otherwise it is the plan's datagram drop probability. A value
/// that is not a probability in [0, 1) panics naming the variable, so a
/// mistyped CI matrix cell fails instead of silently testing the default
/// — and a loss of 1, under which no datagram ever arrives, fails here
/// rather than as a retransmit give-up deep in the run.
fn parse_fault_plan(get: impl FnOnce(&str) -> Option<String>) -> FaultPlan {
    const VAR: &str = "E2_FAULT_LOSS";
    let Some(v) = get(VAR).filter(|v| !v.is_empty()) else {
        return FaultPlan::default();
    };
    match v.parse::<f64>() {
        Ok(p) if (0.0..1.0).contains(&p) => FaultPlan {
            drop_probability: p,
            ..FaultPlan::default()
        },
        _ => panic!("{VAR}={v:?} is malformed: expected a probability in [0, 1)"),
    }
}

/// Like [`run_spec`] but with a precomputed sequential reference — sweep
/// binaries compute the reference once per problem instance.
pub fn run_spec_with(transport: Transport, n: usize, spec: &AppSpec, want: &AppResult) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    let outcomes = match transport {
        Transport::Fast => {
            let cfg = FastConfig::paper(&params);
            let s = spec.clone();
            run_fast_dsm(n, params, cfg, paper_config(), move |tmk| s.body(tmk))
        }
        Transport::Udp => {
            let s = spec.clone();
            run_udp_dsm(n, params, paper_config(), move |tmk| s.body(tmk))
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
    use tmk::DiffFetch;

    fn parse(env: &[(&str, &str)]) -> FaultPlan {
        parse_fault_plan(|name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn fault_plan_default_when_unset_or_empty() {
        for plan in [parse(&[]), parse(&[("E2_FAULT_LOSS", "")])] {
            assert_eq!(plan.drop_probability, 0.0);
            assert!(!plan.enabled());
        }
    }

    #[test]
    fn fault_plan_parses_a_loss_and_keeps_the_default_seed() {
        let plan = parse(&[("E2_FAULT_LOSS", "0.01")]);
        assert_eq!(plan.drop_probability, 0.01);
        assert_eq!(plan.seed, FaultPlan::default().seed);
        assert!(plan.enabled());
    }

    /// A value that does not parse names its variable instead of falling
    /// through to the default; so does a loss of 1, which no run survives.
    #[test]
    fn fault_plan_malformed_values_panic_naming_the_variable() {
        for value in ["0,1", "1.5", "1"] {
            let err = std::panic::catch_unwind(|| parse(&[("E2_FAULT_LOSS", value)]))
                .expect_err(&format!("E2_FAULT_LOSS={value} must be rejected"));
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("E2_FAULT_LOSS"), "{value}: {msg}");
        }
    }

    /// The parser asks for `E2_FAULT_LOSS` and for no other variable: one
    /// that used to be an option (the lock path, the two smoke switches,
    /// the fault seed, the barrier algorithm, the diff engine, E7's radix)
    /// is not read, so a value in it — here one that parses as nothing —
    /// changes nothing and is not an error.
    #[test]
    fn fault_plan_reads_one_variable_and_no_other() {
        let mut asked = Vec::new();
        let plan = parse_fault_plan(|name| {
            asked.push(name.to_string());
            (name != "E2_FAULT_LOSS").then(|| "?".to_string())
        });
        assert_eq!(asked, ["E2_FAULT_LOSS"]);
        assert!(!plan.enabled());
        assert_eq!(plan.seed, FaultPlan::default().seed);
    }

    /// A multi-writer fault overlaps its fetches (FAST/GM, 64 pages): the
    /// coalesced engine beats the serial one at four writers, and a
    /// four-writer fault costs under twice a one-writer one.
    #[test]
    fn a_multi_writer_fault_overlaps_its_fetches() {
        let run = |n: usize, diff_fetch: DiffFetch| {
            let params = Arc::new(SimParams::paper_testbed());
            let cfg = FastConfig::paper(&params);
            let tcfg = TmkConfig {
                diff_fetch,
                ..TmkConfig::default()
            };
            run_fast_dsm(n, params, cfg, tcfg, |tmk| diff_multi_body(tmk, 64))[n - 1].result
        };
        let serial = run(5, DiffFetch::Serial);
        let coalesced = run(5, DiffFetch::Coalesced);
        let k1 = run(2, DiffFetch::Coalesced);
        assert!(
            coalesced < serial,
            "coalesced diff fetch ({coalesced}) must beat serial ({serial})"
        );
        assert!(
            coalesced < 2 * k1,
            "4-writer fault ({coalesced}) must be sub-linear vs 1-writer ({k1})"
        );
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
