//! In-memory spans around the calls the benchmark itself makes into the
//! program: one root span per rep around `run_*_dsm`, and in the two owned
//! bodies one span per `acquire`/`release`/`barrier`, each in both host and
//! virtual time. Spans inside the program are a later change.

use std::fmt::Write as _;
use std::time::Instant;

use tmk::{Substrate, Tmk};

pub const ACQUIRE: &str = "tmk.sync.acquire";
pub const RELEASE: &str = "tmk.sync.release";
pub const BARRIER: &str = "tmk.sync.barrier";

/// One span. `id`, `parent` and `rep` are filled in when the harness files
/// the rep ([`Trace::file_rep`]); node threads only know their own times.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; the rep's root span is its own
    /// parent.
    pub parent: u32,
    pub rep: u32,
    pub name: &'static str,
    /// Node whose thread recorded the span; the harness thread is `-1`.
    pub node: i32,
    /// Host nanoseconds since the trace epoch.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// The recording node's virtual clock; 0 for harness-thread spans.
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

impl Span {
    pub fn host_us(&self) -> f64 {
        (self.host_end_ns - self.host_start_ns) as f64 / 1e3
    }

    pub fn virt_us(&self) -> f64 {
        (self.virt_end_ns - self.virt_start_ns) as f64 / 1e3
    }
}

/// Per-node span recorder handed to the owned bodies. With no epoch (an
/// untraced rep) every method is the bare call.
pub struct NodeTracer {
    node: i32,
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl NodeTracer {
    pub fn new(node: usize, epoch: Option<Instant>) -> Self {
        NodeTracer {
            node: node as i32,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn acquire<S: Substrate>(&mut self, tmk: &mut Tmk<S>, lock: u32) {
        self.span(ACQUIRE, tmk, |t| t.acquire(lock));
    }

    pub fn release<S: Substrate>(&mut self, tmk: &mut Tmk<S>, lock: u32) {
        self.span(RELEASE, tmk, |t| t.release(lock));
    }

    pub fn barrier<S: Substrate>(&mut self, tmk: &mut Tmk<S>, id: u32) {
        self.span(BARRIER, tmk, |t| t.barrier(id));
    }

    fn span<S: Substrate>(
        &mut self,
        name: &'static str,
        tmk: &mut Tmk<S>,
        call: impl FnOnce(&mut Tmk<S>),
    ) {
        let Some(epoch) = self.epoch else {
            return call(tmk);
        };
        let host_start_ns = epoch.elapsed().as_nanos() as u64;
        let virt_start_ns = tmk.clock().borrow().now().0;
        call(tmk);
        self.spans.push(Span {
            id: 0,
            parent: 0,
            rep: 0,
            name,
            node: self.node,
            host_start_ns,
            host_end_ns: epoch.elapsed().as_nanos() as u64,
            virt_start_ns,
            virt_end_ns: tmk.clock().borrow().now().0,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// All spans of a traced run, written out when the benchmark ends.
pub struct Trace {
    pub epoch: Instant,
    pub spans: Vec<Span>,
    reps: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            reps: 0,
        }
    }

    /// File one rep: a root span `name` over `[start, end)` on the harness
    /// thread, with every node span of the rep as its child.
    pub fn file_rep(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: Vec<Span>,
    ) {
        let rep = self.reps;
        self.reps += 1;
        let root = self.spans.len() as u32;
        let since = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: root,
            parent: root,
            rep,
            name,
            node: -1,
            host_start_ns: since(start),
            host_end_ns: since(end),
            virt_start_ns: 0,
            virt_end_ns: 0,
        });
        for mut s in children {
            s.id = self.spans.len() as u32;
            s.parent = root;
            s.rep = rep;
            self.spans.push(s);
        }
    }

    /// Durations of every span called `name`, by `pick`.
    pub fn durations(&self, name: &str, pick: fn(&Span) -> f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(pick)
            .collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"node\":{},\
                 \"host_start_ns\":{},\"host_end_ns\":{},\"virt_start_ns\":{},\"virt_end_ns\":{}}}{comma}",
                s.id,
                s.parent,
                s.rep,
                s.name,
                s.node,
                s.host_start_ns,
                s.host_end_ns,
                s.virt_start_ns,
                s.virt_end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
