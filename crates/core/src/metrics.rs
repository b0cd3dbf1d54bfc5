//! Per-layer metrics sink on the [`TmkEvent`] hook.
//!
//! [`MetricsHandle::install`] attaches a tallying hook to one node's
//! runtime: every emitted event bumps a per-variant counter, and
//! [`TmkEvent::RpcIssued`] also raises the outstanding-request depth
//! gauge. Harnesses merge the per-node tallies into one [`LayerMetrics`]
//! and read them by name: the repo benchmark's `rpc_issued` /
//! `lock_granted` counts and [`GAUGE_RPC_DEPTH`].
//!
//! The hook charges no virtual time and allocates only on the first
//! occurrence of each variant, so installing it does not perturb results.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::substrate::Substrate;
use crate::tmk::{Tmk, TmkEvent};

/// Tally for one event variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStat {
    pub count: u64,
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

impl LayerMetrics {
    /// Count one event, and for [`TmkEvent::RpcIssued`] raise the
    /// outstanding-depth high-water mark.
    pub fn record_event(&mut self, ev: &TmkEvent) {
        self.stats.entry(ev.kind()).or_default().count += 1;
        if let TmkEvent::RpcIssued { depth, .. } = ev {
            self.gauge_max(GAUGE_RPC_DEPTH, u64::from(*depth));
        }
    }

    /// Raise a max-tracked gauge.
    fn gauge_max(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Fold another tally (typically a peer node's) into this one.
    pub fn merge(&mut self, other: &LayerMetrics) {
        for (kind, o) in &other.stats {
            self.stats.entry(kind).or_default().count += o.count;
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
        tmk.set_event_hook(move |ev| sink.borrow_mut().record_event(ev));
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
    fn merge_folds_counts() {
        let mut a = LayerMetrics::default();
        a.record_event(&TmkEvent::RequestServed { from: 1, rid: 1 });
        let mut b = LayerMetrics::default();
        b.record_event(&TmkEvent::RequestServed { from: 0, rid: 2 });
        b.record_event(&TmkEvent::RequestServed { from: 0, rid: 3 });
        b.record_event(&TmkEvent::LockGranted { lock: 0, to: 1 });
        a.merge(&b);
        assert_eq!(a.get("request_served").unwrap().count, 3);
        assert_eq!(a.get("lock_granted").unwrap().count, 1);
        assert_eq!(a.get("retransmit_fired"), None);
    }

    #[test]
    fn rpc_issued_feeds_depth_gauge() {
        let mut m = LayerMetrics::default();
        m.record_event(&TmkEvent::RpcIssued { rid: 1, depth: 1 });
        m.record_event(&TmkEvent::RpcIssued { rid: 2, depth: 3 });
        m.record_event(&TmkEvent::RpcIssued { rid: 3, depth: 2 });
        assert_eq!(m.gauge(GAUGE_RPC_DEPTH), Some(3));
        assert_eq!(m.get("rpc_issued").unwrap().count, 3);
        let mut other = LayerMetrics::default();
        other.record_event(&TmkEvent::RpcIssued { rid: 9, depth: 7 });
        m.merge(&other);
        assert_eq!(m.gauge(GAUGE_RPC_DEPTH), Some(7));
    }
}
