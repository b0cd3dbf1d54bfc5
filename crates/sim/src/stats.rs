//! Per-node event counters, used by the experiment harness to report the
//! message/fault/diff breakdowns the paper discusses qualitatively.

use crate::time::Ns;

/// Counters accumulated by one simulated node over a run.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Messages injected into the fabric.
    pub msgs_sent: u64,
    /// Payload bytes injected.
    pub bytes_sent: u64,
    /// Messages consumed.
    pub msgs_recv: u64,
    /// Payload bytes consumed.
    pub bytes_recv: u64,
    /// Asynchronous requests this node serviced for peers.
    pub requests_served: u64,
    /// Virtual time spent inside request handlers.
    pub service_time: Ns,
    /// Virtual time spent in application computation.
    pub compute_time: Ns,
    /// Virtual time spent blocked (waiting on responses, locks, barriers).
    pub idle_time: Ns,
    /// Virtual time spent in non-interruptible protocol work on the node's
    /// own behalf (`NodeClock::advance`: faults, twins, diffs, message
    /// construction, the substrate's host path).
    pub protocol_time: Ns,
    /// Virtual time the async scheme's delivery overhead (interrupt, SIGIO,
    /// timer dispatch) added to compute segments that served requests.
    pub async_overhead_time: Ns,
    /// DSM: page faults taken (read + write).
    pub page_faults: u64,
    /// DSM: full pages fetched from a remote node.
    pub pages_fetched: u64,
    /// DSM: diffs created.
    pub diffs_created: u64,
    /// DSM: diffs applied.
    pub diffs_applied: u64,
    /// DSM: twins created (first write to a page in an interval).
    pub twins_created: u64,
    /// Lock acquires that went remote.
    pub remote_acquires: u64,
    /// Barrier episodes participated in.
    pub barriers: u64,
    // --- fault & reliability counters ---------------------------------
    /// Datagrams lost: dropped in flight by the fault plan, or on socket
    /// receive-buffer overflow.
    pub dgrams_dropped: u64,
    /// Datagrams delivered twice by the fault plan.
    pub dgrams_duplicated: u64,
    /// Datagrams delayed past later traffic by the fault plan.
    pub dgrams_reordered: u64,
    /// DSM-level request retransmissions (each a timer that fired).
    pub retransmits: u64,
    /// Duplicate requests absorbed by the responder's replay records.
    pub dup_requests_suppressed: u64,
    /// Stale/duplicate responses discarded by the requester.
    pub stale_responses_dropped: u64,
    /// Frames/datagrams discarded as structurally malformed.
    pub malformed_dropped: u64,
    /// GM send attempts that hit `NoSendTokens` and had to back off.
    pub token_stalls: u64,
}

impl NodeStats {
    /// The five time buckets — compute, service, idle, protocol, async
    /// overhead — summed. `NodeClock` books every nanosecond it adds to
    /// `now` into exactly one of them, so for one node this is its finish
    /// time.
    pub fn booked_time(&self) -> Ns {
        self.compute_time
            + self.service_time
            + self.idle_time
            + self.protocol_time
            + self.async_overhead_time
    }

    /// Fold another node's counters into this one (cluster aggregation).
    pub fn merge(&mut self, other: &NodeStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
        self.requests_served += other.requests_served;
        self.service_time += other.service_time;
        self.compute_time += other.compute_time;
        self.idle_time += other.idle_time;
        self.protocol_time += other.protocol_time;
        self.async_overhead_time += other.async_overhead_time;
        self.page_faults += other.page_faults;
        self.pages_fetched += other.pages_fetched;
        self.diffs_created += other.diffs_created;
        self.diffs_applied += other.diffs_applied;
        self.twins_created += other.twins_created;
        self.remote_acquires += other.remote_acquires;
        self.barriers += other.barriers;
        self.dgrams_dropped += other.dgrams_dropped;
        self.dgrams_duplicated += other.dgrams_duplicated;
        self.dgrams_reordered += other.dgrams_reordered;
        self.retransmits += other.retransmits;
        self.dup_requests_suppressed += other.dup_requests_suppressed;
        self.stale_responses_dropped += other.stale_responses_dropped;
        self.malformed_dropped += other.malformed_dropped;
        self.token_stalls += other.token_stalls;
    }

    /// Any fault/reliability event at all? Lets reports stay silent (and
    /// byte-identical to pre-fault output) on clean runs.
    pub fn any_faults(&self) -> bool {
        self.dgrams_dropped
            + self.dgrams_duplicated
            + self.dgrams_reordered
            + self.retransmits
            + self.dup_requests_suppressed
            + self.stale_responses_dropped
            + self.malformed_dropped
            + self.token_stalls
            > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        let mut a = NodeStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            requests_served: 3,
            service_time: Ns(30),
            compute_time: Ns(40),
            idle_time: Ns(50),
            protocol_time: Ns(60),
            async_overhead_time: Ns(70),
            page_faults: 4,
            pages_fetched: 5,
            diffs_created: 6,
            diffs_applied: 7,
            twins_created: 8,
            remote_acquires: 9,
            barriers: 10,
            dgrams_dropped: 11,
            dgrams_duplicated: 12,
            dgrams_reordered: 13,
            retransmits: 15,
            dup_requests_suppressed: 16,
            stale_responses_dropped: 17,
            malformed_dropped: 19,
            token_stalls: 20,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_recv, 40);
        assert_eq!(a.service_time, Ns(60));
        assert_eq!((a.protocol_time, a.async_overhead_time), (Ns(120), Ns(140)));
        assert_eq!(a.barriers, 20);
        assert_eq!(a.twins_created, 16);
        assert_eq!(a.dgrams_dropped, 22);
        assert_eq!(a.retransmits, 30);
        assert_eq!(a.dup_requests_suppressed, 32);
        assert_eq!(a.malformed_dropped, 38);
        assert_eq!(a.token_stalls, 40);
    }

    #[test]
    fn any_faults_spots_each_counter() {
        assert!(!NodeStats::default().any_faults());
        let s = NodeStats {
            retransmits: 1,
            ..NodeStats::default()
        };
        assert!(s.any_faults());
        let s = NodeStats {
            token_stalls: 1,
            ..NodeStats::default()
        };
        assert!(s.any_faults());
    }

    #[test]
    fn default_is_zero() {
        let s = NodeStats::default();
        assert_eq!(s.msgs_sent, 0);
        assert_eq!(s.compute_time, Ns::ZERO);
    }
}
