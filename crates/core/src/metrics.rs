//! Per-layer metrics sink on the [`TmkEvent`] hook.
//!
//! [`MetricsHandle::install`] attaches a tallying hook to one node's
//! runtime: every emitted event bumps a per-variant counter and records
//! the virtual time at emission (first and last). Gauge-like events (the
//! overlapped RPC engine's outstanding-request depth) additionally track
//! their high-water mark.
//! Harnesses merge the per-node tallies into one [`LayerMetrics`] and read
//! counts and gauges out of it by name — this is how tree-barrier hops
//! (`barrier_arrive_forwarded` / `barrier_release_fanned`), prefetch hits
//! and RPC overlap depth are observable without a debugger.
//!
//! The hook charges no virtual time and allocates only on the first
//! occurrence of each variant, so installing it does not perturb results.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::substrate::Substrate;
use crate::tmk::{Tmk, TmkEvent};

/// Tally for one event variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventStat {
    pub count: u64,
    /// Virtual time (ns) of the first emission seen.
    pub first_ns: u64,
    /// Virtual time (ns) of the last emission seen.
    pub last_ns: u64,
}

/// Per-variant event tallies, keyed by
/// [`TmkEvent::kind`](crate::TmkEvent::kind). Also the cross-node merge
/// target: harnesses fold every node's tally into one of these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerMetrics {
    stats: BTreeMap<&'static str, EventStat>,
    /// Max-tracked gauges (e.g. `outstanding_rpc_depth`).
    gauges: BTreeMap<&'static str, u64>,
}

/// Gauge name for the overlapped RPC engine's high-water outstanding
/// depth, fed from [`TmkEvent::RpcIssued`].
pub const GAUGE_RPC_DEPTH: &str = "outstanding_rpc_depth";

/// Gauge name for the lock pipeline's high-water overlapped-fetch count
/// (pages fetched concurrently off a grant's write notices), fed from
/// [`TmkEvent::LockPipelined`].
pub const GAUGE_LOCK_PIPELINE: &str = "lock_pipeline_depth";

impl LayerMetrics {
    pub fn record(&mut self, kind: &'static str, now_ns: u64) {
        let e = self.stats.entry(kind).or_insert(EventStat {
            count: 0,
            first_ns: now_ns,
            last_ns: now_ns,
        });
        e.count += 1;
        e.first_ns = e.first_ns.min(now_ns);
        e.last_ns = e.last_ns.max(now_ns);
    }

    /// Record an event with its gauge side-channels: the variant tally
    /// plus, for [`TmkEvent::RpcIssued`], the outstanding-depth high-water
    /// mark.
    pub fn record_event(&mut self, ev: &TmkEvent, now_ns: u64) {
        self.record(ev.kind(), now_ns);
        match ev {
            TmkEvent::RpcIssued { depth, .. } => {
                self.gauge_max(GAUGE_RPC_DEPTH, u64::from(*depth));
            }
            TmkEvent::LockPipelined { fetches, .. } => {
                self.gauge_max(GAUGE_LOCK_PIPELINE, *fetches as u64);
            }
            _ => {}
        }
    }

    /// Raise a max-tracked gauge.
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Fold another tally (typically a peer node's) into this one.
    pub fn merge(&mut self, other: &LayerMetrics) {
        for (kind, o) in &other.stats {
            match self.stats.get_mut(kind) {
                Some(e) => {
                    e.count += o.count;
                    e.first_ns = e.first_ns.min(o.first_ns);
                    e.last_ns = e.last_ns.max(o.last_ns);
                }
                None => {
                    self.stats.insert(kind, *o);
                }
            }
        }
        for (name, &v) in &other.gauges {
            self.gauge_max(name, v);
        }
    }

    pub fn get(&self, kind: &str) -> Option<&EventStat> {
        self.stats.get(kind)
    }
}

/// A node-local metrics sink: shared ownership of the tally that the
/// installed event hook writes into.
#[derive(Clone, Default)]
pub struct MetricsHandle {
    inner: Rc<RefCell<LayerMetrics>>,
}

impl MetricsHandle {
    /// Install a tallying hook on `tmk` (replacing any existing hook) and
    /// return the handle to read the tally back out.
    pub fn install<S: Substrate>(tmk: &mut Tmk<S>) -> MetricsHandle {
        let handle = MetricsHandle::default();
        let sink = Rc::clone(&handle.inner);
        let clock = tmk.clock().clone();
        tmk.set_event_hook(move |ev| {
            let now = clock.borrow().now().0;
            sink.borrow_mut().record_event(ev, now);
        });
        handle
    }

    /// A snapshot of the tally so far.
    pub fn snapshot(&self) -> LayerMetrics {
        self.inner.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_count_and_time_bounds() {
        let mut m = LayerMetrics::default();
        m.record("lock_granted", 500);
        m.record("lock_granted", 100);
        m.record("lock_granted", 900);
        let e = m.get("lock_granted").unwrap();
        assert_eq!(e.count, 3);
        assert_eq!(e.first_ns, 100);
        assert_eq!(e.last_ns, 900);
    }

    #[test]
    fn merge_folds_counts_and_bounds() {
        let mut a = LayerMetrics::default();
        a.record("barrier_crossed", 10);
        let mut b = LayerMetrics::default();
        b.record("barrier_crossed", 5);
        b.record("barrier_crossed", 50);
        b.record("page_fetched", 7);
        a.merge(&b);
        let e = a.get("barrier_crossed").unwrap();
        assert_eq!(e.count, 3);
        assert_eq!(e.first_ns, 5);
        assert_eq!(e.last_ns, 50);
        assert_eq!(a.get("page_fetched").unwrap().count, 1);
    }

    #[test]
    fn lock_pipelined_feeds_depth_gauge() {
        let mut m = LayerMetrics::default();
        m.record_event(&TmkEvent::LockPipelined { lock: 0, fetches: 2 }, 10);
        m.record_event(&TmkEvent::LockPipelined { lock: 0, fetches: 9 }, 20);
        m.record_event(&TmkEvent::LockPipelined { lock: 1, fetches: 4 }, 30);
        assert_eq!(m.gauge(GAUGE_LOCK_PIPELINE), Some(9));
        assert_eq!(m.get("lock_pipelined").unwrap().count, 3);
    }

    #[test]
    fn rpc_issued_feeds_depth_gauge() {
        let mut m = LayerMetrics::default();
        m.record_event(&TmkEvent::RpcIssued { rid: 1, depth: 1 }, 10);
        m.record_event(&TmkEvent::RpcIssued { rid: 2, depth: 3 }, 20);
        m.record_event(&TmkEvent::RpcIssued { rid: 3, depth: 2 }, 30);
        assert_eq!(m.gauge(GAUGE_RPC_DEPTH), Some(3));
        assert_eq!(m.get("rpc_issued").unwrap().count, 3);
        let mut other = LayerMetrics::default();
        other.record_event(&TmkEvent::RpcIssued { rid: 9, depth: 7 }, 40);
        m.merge(&other);
        assert_eq!(m.gauge(GAUGE_RPC_DEPTH), Some(7));
    }
}
