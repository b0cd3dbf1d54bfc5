//! The benchmark's metric and workload tables — the single source of
//! `BENCHMARK.json` (`tm-benchmark describe` prints it) — and the result
//! line a run ends with.

use std::fmt::Write as _;

use crate::ladder::RUNGS;
use crate::workloads::Workload;

pub const RUN_SECONDS: u32 = 27;

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median a change may lose.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

pub fn end_to_end() -> Vec<Def> {
    [
        // What a user regenerating E2–E7 waits for. Host-time bounds are as
        // wide as the contract allows: the sandbox's own speed wanders by
        // 10-25 % over tens of seconds (README, "noise").
        ("wall_s", "s", 0.25),
        // The modeled cluster's execution time: the paper's Figures 3–5.
        // Exact for a seed; the bound only covers seed-to-seed differences.
        ("virtual_ms", "ms", 0.001),
        ("peak_rss_mb", "MB", 0.15),
        // Inputs, sequential reference and one rep on one CPU: also the
        // gate on 1-CPU host time ("never busy-spin on a single-CPU host"),
        // whose own run-to-run spread is wider than any bound the contract
        // allows and which is therefore the per-layer `sim.wall_1cpu_s`.
        ("setup_s", "s", 0.25),
    ]
    .into_iter()
    .map(|(name, unit, bound)| Def {
        bound: Some(bound),
        ..def(name, unit, "lower")
    })
    .collect()
}

pub fn per_layer() -> Vec<Def> {
    let mut d = vec![
        def("sim.msgs", "count", "lower"),
        def("myrinet.wire_kb", "KiB", "lower"),
        def("sim.host_us_per_msg", "us", "lower"),
        def("sim.wall_1cpu_s", "s", "lower"),
        def("sim.multicore_penalty", "ratio", "lower"),
        def("sim.cpu_s", "s", "lower"),
        def("sim.ctx_switches_per_msg", "1/msg", "lower"),
        def("sim.virt_spread_ppm", "ppm", "lower"),
        def("virt.compute_share", "ratio", "higher"),
        def("virt.service_share", "ratio", "lower"),
        def("virt.idle_share", "ratio", "lower"),
    ];
    for c in [
        "page_faults",
        "pages_fetched",
        "diffs_created",
        "diffs_applied",
        "twins_created",
    ] {
        d.push(def(&format!("tmk.coherence.{c}"), "count", "lower"));
    }
    for c in ["remote_acquires", "barriers", "locks_granted"] {
        d.push(def(&format!("tmk.sync.{c}"), "count", "lower"));
    }
    for op in ["acquire", "barrier"] {
        for clock in ["virt", "host"] {
            for p in ["p50", "p99"] {
                d.push(def(&format!("tmk.sync.{op}_{clock}_us_{p}"), "us", "lower"));
            }
        }
    }
    for c in [
        "requests_served",
        "issued",
        "outstanding_depth_max",
        "retransmits",
        "dup_requests_suppressed",
        "stale_responses_dropped",
    ] {
        d.push(def(&format!("tmk.rpc.{c}"), "count", "lower"));
    }
    d.push(def("udp.dgrams_dropped", "count", "lower"));
    for (rung, _) in RUNGS {
        d.push(def(&format!("ladder.{rung}.host_ns_rt"), "ns", "lower"));
        d.push(def(&format!("ladder.{rung}.virt_ns_rt"), "ns", "lower"));
    }
    for (k, unit) in [
        ("tmk.diff.create_sparse_ns_page", "ns"),
        ("tmk.diff.create_dense_ns_page", "ns"),
        ("tmk.diff.apply_dense_ns_page", "ns"),
        ("tmk.wire.codec_ns_msg", "ns"),
        ("tmk.framing.frag_reasm_ns_32k", "ns"),
        ("apps.seq_s", "s"),
        ("harness.warmup_s", "s"),
    ] {
        d.push(def(k, unit, "lower"));
    }
    d.push(def("trace.overhead_ratio", "ratio", "lower"));
    d
}

fn why(w: Workload) -> &'static str {
    match w {
        Workload::Sor16Fast => {
            "red-black SOR on 16 nodes over FAST/GM: app compute, twins, diffs and barriers do the work, the scheduler almost none - the control a scheduler change must not move"
        }
        Workload::Fft16Udp => {
            "3D-FFT 64^3 on 16 nodes over UDP/GM: all-to-all page fetch through framing, UdpStack and UdpSubstrate; FAST/GM does nothing here"
        }
        Workload::Sync64Fast => {
            "64 nodes, rounds of lock + one-word update + barrier over FAST/GM: almost no data, so the scheduler, tmk sync/rpc and the GM small-message path do everything"
        }
        Workload::Mig8UdpLoss => {
            "8 nodes, lock-only migratory updates over UDP/GM with 0.5% loss: no barrier so interval GC never runs, small multi-writer diffs, retransmission and the replay cache"
        }
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let n = crate::workloads::ALL.len();
    for (i, w) in crate::workloads::ALL.into_iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            why(w)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("end-to-end metrics have bounds")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Values measured by one run, by metric name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name.to_string(), value));
    }

    /// Print every metric of `defs` by name with its unit, and return the
    /// result line: one JSON object, the last line of standard output.
    pub fn result_json(&self, defs: &[Def], correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, d) in defs.iter().enumerate() {
            let value = self
                .0
                .iter()
                .find(|(n, _)| *n == d.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", d.name))
                .1;
            println!("{:<36} {value} {}", d.name, d.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}
