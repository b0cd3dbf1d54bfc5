//! The repo's benchmark. One process is one run of one workload:
//!
//! ```text
//! tm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tm-benchmark describe        # prints BENCHMARK.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: cycles of
//! one all-core rep, one set-up (inputs, reference answer, one rep on one
//! CPU) and further 1-CPU reps, each timing the median of its samples.
//! `--trace 1` is the separate traced run that gives the per-layer metrics.
//! Every rep of every pass is validated on every node before its time
//! counts. See `benchmark/README.md`.

mod kernels;
mod ladder;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use metrics::Metrics;
use stats::{summarize, Summary};
use trace::Trace;
use workloads::{run_rep, Job, Rep, Workload};

/// 1-CPU time per cycle, as a share of the cycle's all-core time.
const ONE_CPU_SHARE: f64 = 1.0 / 3.0;
/// Timed reps each pass needs before its median is reported.
const MIN_REPS: usize = 4;
/// A traced run measures for this share of `--seconds` (and needs half the
/// reps); the ladder and the kernels take the rest.
const TRACED_SHARE: f64 = 0.6;
/// Round trips per ladder rung.
const LADDER_TRIPS: u64 = 20_000;
/// A rep may take this many warm-up medians before the watchdog calls it hung.
const WATCHDOG_FACTOR: f64 = 20.0;
/// Before the first rep has shown how long one takes.
const WARMUP_WATCHDOG: Duration = Duration::from_secs(60);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One validated rep and the host interval it took.
struct Timed {
    start: Instant,
    end: Instant,
    rep: Rep,
}

impl Timed {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Runs reps and keeps the failure share. Each rep runs on a thread of its
/// own so that a hang becomes a failed rep, not a stuck pipeline; the
/// harness thread only waits for it.
struct Harness {
    attempted: u64,
    failed: u64,
    watchdog: Duration,
    /// A rep hung: its node threads are still blocked, so no further rep is
    /// worth timing.
    hung: bool,
}

impl Harness {
    fn new() -> Self {
        Harness {
            attempted: 0,
            failed: 0,
            watchdog: WARMUP_WATCHDOG,
            hung: false,
        }
    }

    /// Run one rep; `None` if it failed (wrong answer on any node, panic,
    /// or watchdog), in which case its time does not count.
    fn rep(&mut self, job: &Arc<Job>, epoch: Option<Instant>) -> Option<Timed> {
        if self.hung {
            return None;
        }
        self.attempted += 1;
        let (tx, rx) = mpsc::channel();
        let job = Arc::clone(job);
        let worker = std::thread::Builder::new()
            .name("rep".into())
            .spawn(move || {
                let start = Instant::now();
                let rep = run_rep(&job, epoch);
                let end = Instant::now();
                let _ = tx.send(Timed { start, end, rep });
            })
            .expect("spawn rep thread");
        match rx.recv_timeout(self.watchdog) {
            Ok(timed) => {
                worker.join().expect("rep thread sent its result");
                if timed.rep.wrong_nodes > 0 {
                    eprintln!(
                        "FAILED rep {}: {} node(s) returned a wrong answer",
                        self.attempted, timed.rep.wrong_nodes
                    );
                    self.failed += 1;
                    return None;
                }
                Some(timed)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = worker.join();
                eprintln!("FAILED rep {}: panicked", self.attempted);
                self.failed += 1;
                None
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!(
                    "FAILED rep {}: no result after {:.1}s (watchdog)",
                    self.attempted,
                    self.watchdog.as_secs_f64()
                );
                self.failed += 1;
                self.hung = true;
                None
            }
        }
    }

    /// One untraced timed rep into `pass`, with its CPU seconds and context
    /// switches; with `trace`, a traced twin rep right after it.
    fn timed_rep(&mut self, job: &Arc<Job>, pass: &mut Pass, trace: Option<&mut Trace>) {
        let before = sys::usage();
        if let Some(timed) = self.rep(job, None) {
            let after = sys::usage();
            pass.cpu_s.push(after.cpu_s - before.cpu_s);
            pass.ctx_switches
                .push((after.ctx_switches - before.ctx_switches) as f64);
            pass.plain.push(timed);
        }
        if let Some(trace) = trace {
            if let Some(mut timed) = self.rep(job, Some(trace.epoch)) {
                let spans = std::mem::take(&mut timed.rep.spans);
                trace.file_rep(job.workload.runner_name(), timed.start, timed.end, spans);
                pass.traced.push(timed);
            }
        }
    }

    /// One set-up: inputs from the seed, the reference answer, and one
    /// validated rep. The caller has confined the thread to one CPU, where a
    /// rep is cheapest, so the rep also counts as a 1-CPU rep.
    fn set_up(&mut self, args: &Args, m: &mut Measured) -> Arc<Job> {
        let t = Instant::now();
        let job = Arc::new(Job::new(args.workload, args.seed));
        let reps = m.one_cpu.plain.len();
        self.timed_rep(&job, &mut m.one_cpu, None);
        if m.one_cpu.plain.len() > reps {
            m.setups.push(t.elapsed().as_secs_f64());
        }
        job
    }

    /// A first set-up, then the two timed passes, interleaved: each cycle is
    /// one all-core rep (no affinity), then on one CPU another set-up and
    /// further reps up to [`ONE_CPU_SHARE`] of the time the all-core rep
    /// took. This box's speed shifts by 10-25 % for ten or twenty seconds at
    /// a time, so every timing must sample the whole run, not its own part
    /// of it. Cycles repeat until `budget` is spent and both passes have
    /// `min_reps`.
    fn measure(
        &mut self,
        args: &Args,
        budget: Duration,
        min_reps: usize,
        mut trace: Option<&mut Trace>,
    ) -> Result<Measured, String> {
        let mut m = Measured::default();
        let pinned = pin()?;
        let mut job = self.set_up(args, &mut m);
        unpin(pinned)?;
        // From here on a rep that takes 20 warm-ups is hung.
        if let Some(warm) = m.one_cpu.plain.first() {
            let limit = (WATCHDOG_FACTOR * warm.wall_s()).max(10.0);
            self.watchdog = Duration::from_secs_f64(limit);
        }

        let start = Instant::now();
        let mut longest_cycle = Duration::ZERO;
        while !self.hung && self.failed * 2 <= self.attempted {
            let enough = m.all_core.plain.len() >= min_reps && m.one_cpu.plain.len() >= min_reps;
            if enough && start.elapsed() + longest_cycle > budget {
                break;
            }
            let cycle = Instant::now();
            self.timed_rep(&job, &mut m.all_core, trace.as_deref_mut());
            let all_core_time = cycle.elapsed();
            let pinned = pin()?;
            let one_cpu_start = Instant::now();
            job = self.set_up(args, &mut m);
            while !self.hung && one_cpu_start.elapsed() < all_core_time.mul_f64(ONE_CPU_SHARE) {
                self.timed_rep(&job, &mut m.one_cpu, None);
            }
            unpin(pinned)?;
            longest_cycle = longest_cycle.max(cycle.elapsed());
        }
        let untraced = trace.is_some() && m.all_core.traced.is_empty();
        if m.all_core.plain.is_empty() || m.setups.is_empty() || untraced {
            return Err(format!(
                "no valid rep to report ({} of {} failed)",
                self.failed, self.attempted
            ));
        }
        m.seq_s = job.seq_s;
        Ok(m)
    }
}

/// What [`Harness::measure`] brings back.
#[derive(Default)]
struct Measured {
    all_core: Pass,
    one_cpu: Pass,
    /// Host seconds of every set-up whose rep was valid.
    setups: Vec<f64>,
    /// Host seconds the last set-up's sequential reference took.
    seq_s: f64,
}

#[derive(Default)]
struct Pass {
    /// Untraced reps: the only ones whose host time is reported.
    plain: Vec<Timed>,
    traced: Vec<Timed>,
    /// Process CPU seconds and context switches per untraced rep.
    cpu_s: Vec<f64>,
    ctx_switches: Vec<f64>,
}

impl Pass {
    fn wall(&self) -> Vec<f64> {
        self.plain.iter().map(Timed::wall_s).collect()
    }
}

/// Print a timing's order statistics and, in run order, every sample.
fn show(label: &str, samples: &[f64]) -> Summary {
    let s = summarize(samples);
    println!(
        "  {label:<12} median {:.6} s  q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    );
    let series: Vec<String> = samples.iter().map(|x| format!("{x:.3}")).collect();
    println!("  {:<12} {}", "", series.join(" "));
    s
}

/// The counts later issues may claim on: they must repeat exactly across
/// the 1-CPU reps of a run.
fn exact_counts(rep: &Rep) -> Vec<(&'static str, u64)> {
    let s = &rep.stats;
    vec![
        ("virtual_ns", rep.virt.0),
        ("finish_sum_ns", rep.finish_sum.0),
        ("sim.msgs", s.msgs_sent),
        ("myrinet.wire_bytes", s.bytes_sent),
        ("virt.compute_ns", s.compute_time.0),
        ("virt.service_ns", s.service_time.0),
        ("virt.idle_ns", s.idle_time.0),
        ("tmk.coherence.page_faults", s.page_faults),
        ("tmk.coherence.pages_fetched", s.pages_fetched),
        ("tmk.coherence.diffs_created", s.diffs_created),
        ("tmk.coherence.diffs_applied", s.diffs_applied),
        ("tmk.coherence.twins_created", s.twins_created),
        ("tmk.sync.remote_acquires", s.remote_acquires),
        ("tmk.sync.barriers", s.barriers),
        ("tmk.rpc.requests_served", s.requests_served),
        ("tmk.rpc.retransmits", s.retransmits),
        ("tmk.rpc.dup_requests_suppressed", s.dup_requests_suppressed),
        ("tmk.rpc.stale_responses_dropped", s.stale_responses_dropped),
        ("udp.dgrams_dropped", s.dgrams_dropped),
    ]
}

/// The exact counts of the 1-CPU reps, or an error naming the first count
/// that differs between two of them.
fn check_exact(reps: &[Timed]) -> Result<Vec<(&'static str, u64)>, String> {
    let first = exact_counts(&reps[0].rep);
    for (i, t) in reps.iter().enumerate().skip(1) {
        let other = exact_counts(&t.rep);
        if let Some(((name, a), (_, b))) = first.iter().zip(&other).find(|(x, y)| x != y) {
            return Err(format!(
                "{name} differs between 1-CPU reps of one run: {a} (rep 0) vs {b} (rep {i}); \
                 the lockstep simulator is no longer deterministic"
            ));
        }
    }
    Ok(first)
}

/// Everything both kinds of run report at the end.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn end_to_end_run(args: &Args) -> Result<Report, String> {
    let mut m = Metrics::default();

    let mut h = Harness::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let Measured {
        all_core,
        one_cpu,
        setups,
        ..
    } = h.measure(args, budget, MIN_REPS, None)?;
    let rss = sys::peak_rss_mb().map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let exact = check_exact(&one_cpu.plain)?;

    println!(
        "{} seed {} ({} CPUs allowed)",
        args.workload.name(),
        args.seed,
        cpus()
    );
    let setup = show("setup_s", &setups);
    let wall = show("wall_s", &all_core.wall());
    show("wall_1cpu_s", &one_cpu.wall());
    println!("  virtual_ms     {} ns in every 1-CPU rep", exact[0].1);
    println!("  peak_rss_mb    {rss:.1} MB");

    m.set("setup_s", setup.median);
    m.set("wall_s", wall.median);
    m.set("virtual_ms", exact[0].1 as f64 / 1e6);
    m.set("peak_rss_mb", rss);
    Ok(Report {
        correct: h.failed == 0,
        attempted: h.attempted,
        failed: h.failed,
        metrics: m,
    })
}

/// Confine this thread and the threads it spawns to one CPU, or say why not.
fn pin() -> Result<sys::Pinned, String> {
    sys::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))
}

fn unpin(pin: sys::Pinned) -> Result<(), String> {
    pin.release()
        .map_err(|e| format!("cannot lift the CPU pin: {e}"))
}

fn cpus() -> usize {
    sys::allowed_cpus().unwrap_or(0)
}

fn traced_run(args: &Args) -> Result<Report, String> {
    let mut m = Metrics::default();
    let mut h = Harness::new();
    let mut trace = Trace::new();
    let budget = Duration::from_secs_f64(args.seconds * TRACED_SHARE);
    let Measured {
        all_core,
        one_cpu,
        setups,
        seq_s,
    } = h.measure(args, budget, MIN_REPS / 2, Some(&mut trace))?;
    m.set("apps.seq_s", seq_s);
    m.set("harness.warmup_s", setups[0]);
    let (rungs, kernel_ns) = {
        let _pin = pin()?;
        (ladder::run(LADDER_TRIPS), kernels::run())
    };
    let exact = check_exact(&one_cpu.plain)?;
    let count = |name: &str| -> f64 {
        exact
            .iter()
            .find(|(n, _)| *n == name)
            .expect("exact count")
            .1 as f64
    };

    // --- the simulator: host time per simulated event -------------------
    let wall = summarize(&all_core.wall()).median;
    let wall_traced = summarize(
        &all_core
            .traced
            .iter()
            .map(Timed::wall_s)
            .collect::<Vec<_>>(),
    )
    .median;
    let wall_1cpu = summarize(&one_cpu.wall()).median;
    let msgs = count("sim.msgs");
    m.set("trace.overhead_ratio", wall_traced / wall);
    m.set("sim.msgs", msgs);
    m.set("myrinet.wire_kb", count("myrinet.wire_bytes") / 1024.0);
    m.set("sim.host_us_per_msg", wall * 1e6 / msgs);
    m.set("sim.wall_1cpu_s", wall_1cpu);
    m.set("sim.multicore_penalty", wall / wall_1cpu);
    m.set("sim.cpu_s", summarize(&all_core.cpu_s).median);
    m.set(
        "sim.ctx_switches_per_msg",
        summarize(&all_core.ctx_switches).median / msgs,
    );
    let virts: Vec<f64> = all_core
        .plain
        .iter()
        .chain(&all_core.traced)
        .map(|t| t.rep.virt.0 as f64)
        .collect();
    let v = summarize(&virts);
    m.set("sim.virt_spread_ppm", (v.max - v.min) / v.median * 1e6);

    // --- the modeled cluster: where virtual time goes --------------------
    let finish_sum = count("finish_sum_ns");
    m.set("virt.compute_share", count("virt.compute_ns") / finish_sum);
    m.set("virt.service_share", count("virt.service_ns") / finish_sum);
    m.set("virt.idle_share", count("virt.idle_ns") / finish_sum);
    for (name, v) in &exact {
        if name.starts_with("tmk.") || name.starts_with("udp.") {
            m.set(name, *v as f64);
        }
    }
    let events = &all_core
        .traced
        .last()
        .expect("checked non-empty")
        .rep
        .events;
    let event_count = |kind: &str| events.get(kind).map_or(0, |e| e.count) as f64;
    m.set("tmk.rpc.issued", event_count("rpc_issued"));
    m.set(
        "tmk.rpc.outstanding_depth_max",
        events.gauge(tmk::metrics::GAUGE_RPC_DEPTH).unwrap_or(0) as f64,
    );
    m.set("tmk.sync.locks_granted", event_count("lock_granted"));

    // --- owned-body spans -------------------------------------------------
    for (op, span_name) in [("acquire", trace::ACQUIRE), ("barrier", trace::BARRIER)] {
        for (clock, pick) in [
            ("virt", trace::Span::virt_us as fn(&trace::Span) -> f64),
            ("host", trace::Span::host_us),
        ] {
            let mut d = trace.durations(span_name, pick);
            d.sort_by(f64::total_cmp);
            for (p, frac) in [("p50", 0.5), ("p99", 0.99)] {
                let v = if d.is_empty() {
                    0.0
                } else {
                    stats::percentile(&d, frac)
                };
                m.set(&format!("tmk.sync.{op}_{clock}_us_{p}"), v);
            }
        }
    }

    // --- ladder and kernels -------------------------------------------------
    let mut e1_ok = true;
    for (name, rung) in &rungs {
        m.set(&format!("ladder.{name}.host_ns_rt"), rung.host_ns_rt);
        m.set(&format!("ladder.{name}.virt_ns_rt"), rung.virt_ns_rt);
        // E1: the paper's one-way small-message latencies, ±0.5 µs as in
        // tests/calibration.rs.
        let want_us = match *name {
            "gm" => 8.99,
            "fast" => 9.4,
            _ => continue,
        };
        let one_way_us = rung.virt_ns_rt / 2e3;
        if (one_way_us - want_us).abs() > 0.5 {
            eprintln!("ladder.{name}: {one_way_us:.2} us one-way, E1 says {want_us}");
            e1_ok = false;
        }
    }
    for (name, ns) in kernel_ns {
        m.set(name, ns);
    }

    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&path, trace.to_json(args.workload.name(), args.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} seed {} traced ({} CPUs allowed): {} spans -> {}",
        args.workload.name(),
        args.seed,
        cpus(),
        trace.spans.len(),
        path.display()
    );
    Ok(Report {
        correct: h.failed == 0 && e1_ok,
        attempted: h.attempted,
        failed: h.failed,
        metrics: m,
    })
}

/// `benchmark/out/`, next to this package's manifest.
fn out_dir() -> std::path::PathBuf {
    let manifest =
        std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
    std::path::Path::new(&manifest).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("describe") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tm-benchmark: {e}");
            eprintln!(
                "usage: tm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!("       tm-benchmark describe");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    match report {
        Ok(r) => {
            let defs = if args.trace {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            println!(
                "{}",
                r.metrics
                    .result_json(&defs, r.correct, r.attempted, r.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tm-benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
