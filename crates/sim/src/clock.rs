//! Per-node virtual clocks and the asynchronous-delivery schemes.
//!
//! The paper's design discussion (§2.2.4) revolves around *when an
//! asynchronous request gets serviced*: GM has no asynchronous notification,
//! so the authors compare a polling thread, a periodic timer, and a firmware
//! modification that raises a host interrupt. An [`AsyncScheme`] says when a
//! request that arrived at `t` can first be handled and what that costs the
//! CPU; the clock serves it then, or as soon as the node's non-interruptible
//! work is over. A node that computes is not a special case: it waits for
//! its segment's end on its transport, like any blocked node, and a request
//! that arrives meanwhile ends the wait.

use std::cell::RefCell;
use std::rc::Rc;

use crate::stats::NodeStats;
use crate::time::Ns;

/// How a node learns about asynchronous (request) messages: two of the
/// three alternatives of §2.2.4 of the paper, and stock UDP's SIGIO. The
/// third, a dedicated polling thread, is not modeled: what the paper holds
/// against it is a processor spinning whether or not a request comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncScheme {
    /// Modified NIC firmware raises a host interrupt on the async port.
    /// `cost` is interrupt delivery + handler dispatch latency. This is the
    /// scheme the paper adopts for FAST/GM.
    Interrupt { cost: Ns },
    /// A timer wakes a thread every `period` to check for requests: the
    /// request waits, on average, half a period (we model the worst-ish
    /// case deterministically: service begins at the next tick).
    Timer { period: Ns, dispatch: Ns },
    /// UNIX SIGIO as used by the stock UDP implementation: kernel interrupt,
    /// softirq processing, then signal delivery to the user process.
    Sigio { cost: Ns },
}

impl AsyncScheme {
    /// Virtual time at which servicing a request that arrived at `arrival`
    /// can begin, ignoring what the node was doing (the clock clamps it).
    pub fn earliest_service(&self, arrival: Ns) -> Ns {
        match *self {
            AsyncScheme::Interrupt { cost } => arrival + cost,
            AsyncScheme::Timer { period, dispatch } => {
                // Next tick at or after arrival.
                let ticks = (arrival.0 + period.0 - 1) / period.0.max(1);
                Ns(ticks * period.0) + dispatch
            }
            AsyncScheme::Sigio { cost } => arrival + cost,
        }
    }

    /// Extra CPU time the scheme burns per serviced request.
    pub fn cpu_overhead(&self) -> Ns {
        match *self {
            AsyncScheme::Interrupt { cost } => cost,
            AsyncScheme::Timer { dispatch, .. } => dispatch,
            AsyncScheme::Sigio { cost } => cost,
        }
    }
}

/// A single node's virtual clock.
///
/// `now` moves in the three methods below and nowhere else, and each books
/// what it adds into one of [`NodeStats`]' time buckets, so
/// [`NodeStats::booked_time`] is `now`.
///
/// * `advance(d)` models protocol/handler work — not interruptible
///   (TreadMarks disables SIGIO inside handlers; the paper calls out that
///   interrupts are "often disabled for consistency reasons").
/// * `wait_until(t)` is a blocked node's jump to the event that ends its
///   wait — a computing node's too ([`Self::book_compute`]).
/// * `service_window(arrival, scheme, dur)` computes when an async request
///   is handled and charges the node for it.
#[derive(Debug, Default)]
pub struct NodeClock {
    now: Ns,
    pub stats: NodeStats,
}

impl NodeClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn now(&self) -> Ns {
        self.now
    }

    /// Non-interruptible protocol work (message construction, diff
    /// creation, handler bodies…).
    pub fn advance(&mut self, d: Ns) {
        self.now += d;
        self.stats.protocol_time += d;
    }

    /// Jump forward to an external event time (e.g. a response arrival).
    /// No-op if the event is in the past.
    pub fn wait_until(&mut self, t: Ns) {
        if t > self.now {
            self.stats.idle_time += t - self.now;
            self.now = t;
        }
    }

    /// Service an asynchronous request: returns the virtual time at which
    /// the *response* can leave this node (service begin + `dur`), and
    /// charges the clock. The service begins when the async scheme can
    /// deliver the request, or now if the node was busy past that; the node
    /// waits out the difference.
    pub fn service_window(&mut self, arrival: Ns, scheme: &AsyncScheme, dur: Ns) -> Ns {
        self.wait_until(scheme.earliest_service(arrival));
        self.now += dur;
        self.stats.requests_served += 1;
        self.stats.service_time += dur;
        self.now
    }

    /// Close a compute segment of `d` that began when `stats.idle_time`
    /// read `idle_at_start`: the node was computing, not blocked, while it
    /// waited for the segment's end. Of the waiting booked since, `d` is
    /// computation; what the segment waited beyond that is the async
    /// scheme's delivery overhead on the requests served inside it. (A wait
    /// that costs host time of its own — UDP's `select()` — leaves less
    /// than `d` to re-book; that time stays where the transport booked it.)
    pub fn book_compute(&mut self, idle_at_start: Ns, d: Ns) {
        let waited = self.stats.idle_time - idle_at_start;
        let computed = waited.min(d);
        self.stats.idle_time = idle_at_start;
        self.stats.compute_time += computed;
        self.stats.async_overhead_time += waited - computed;
    }
}

/// The clock is shared between the substrate, the DSM runtime and the
/// application *within one node*; `Rc<RefCell<…>>` keeps that cheap and
/// makes everything that holds one — every layer of a node's stack —
/// statically bound to the cluster's thread.
pub type SharedClock = Rc<RefCell<NodeClock>>;

/// Convenience constructor for a node-local shared clock.
pub fn shared_clock() -> SharedClock {
    Rc::new(RefCell::new(NodeClock::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTR: AsyncScheme = AsyncScheme::Interrupt { cost: Ns(7_000) };

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = NodeClock::new();
        c.advance(Ns(500));
        c.wait_until(Ns(200));
        assert_eq!(c.now(), Ns(500));
        c.wait_until(Ns(800));
        assert_eq!(c.now(), Ns(800));
        assert_eq!(c.stats.idle_time, Ns(300));
    }

    #[test]
    fn service_while_idle_waits_for_arrival() {
        let mut c = NodeClock::new();
        // Request arrives at t=10us, interrupt costs 7us, handler 5us.
        let finish = c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        assert_eq!(finish, Ns::from_us(22));
        assert_eq!(c.now(), Ns::from_us(22));
    }

    #[test]
    fn service_of_a_busy_node_begins_now() {
        let mut c = NodeClock::new();
        c.advance(Ns::from_us(50)); // handler work: not interruptible
        let f1 = c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        // Deliverable at 17us, but the node was busy until 50us; a second
        // request queues behind the first.
        assert_eq!(f1, Ns::from_us(55));
        let f2 = c.service_window(Ns::from_us(11), &INTR, Ns::from_us(5));
        assert_eq!(f2, Ns::from_us(60));
        assert_eq!(c.now(), Ns::from_us(60));
        assert_eq!(c.stats.idle_time, Ns::ZERO);
    }

    #[test]
    fn timer_scheme_rounds_to_next_tick() {
        let s = AsyncScheme::Timer {
            period: Ns::from_us(100),
            dispatch: Ns::from_us(2),
        };
        assert_eq!(s.earliest_service(Ns::from_us(1)), Ns::from_us(102));
        assert_eq!(s.earliest_service(Ns::from_us(100)), Ns::from_us(102));
        assert_eq!(s.earliest_service(Ns::from_us(101)), Ns::from_us(202));
    }

    #[test]
    fn sigio_scheme_costs_apply() {
        let s = AsyncScheme::Sigio {
            cost: Ns::from_us(22),
        };
        assert_eq!(s.earliest_service(Ns::from_us(10)), Ns::from_us(32));
        assert_eq!(s.cpu_overhead(), Ns::from_us(22));
    }

    /// A compute segment is a wait: 100us of work during which one request
    /// arrives at 10us, is delivered at 17us and handled for 5us, so the
    /// segment ends at 112us.
    #[test]
    fn every_move_of_now_is_booked_in_one_bucket() {
        let mut c = NodeClock::new();
        c.advance(Ns(100));
        let idle_at_start = c.stats.idle_time;
        c.wait_until(Ns::from_us(10));
        c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        c.wait_until(Ns(100) + Ns::from_us(112));
        c.book_compute(idle_at_start, Ns::from_us(100));
        // Blocked: the node waits for the next request, then serves it.
        c.service_window(Ns::from_us(200), &INTR, Ns::from_us(5));
        c.wait_until(Ns::from_us(300));
        let s = &c.stats;
        assert_eq!(s.protocol_time, Ns(100));
        assert_eq!(s.compute_time, Ns::from_us(100));
        assert_eq!(s.async_overhead_time, Ns::from_us(7));
        assert_eq!(s.service_time, Ns::from_us(10));
        assert_eq!(s.booked_time(), c.now());
    }

    /// A wait that charged host time of its own leaves less than the
    /// segment's length to re-book, and nothing is invented.
    #[test]
    fn book_compute_never_books_more_than_was_waited() {
        let mut c = NodeClock::new();
        c.advance(Ns(700)); // the park's own syscall
        c.wait_until(Ns(10_000));
        c.book_compute(Ns::ZERO, Ns(10_000));
        assert_eq!(c.stats.compute_time, Ns(9_300));
        assert_eq!(c.stats.async_overhead_time, Ns::ZERO);
        assert_eq!(c.stats.booked_time(), c.now());
    }

    #[test]
    fn stats_count_services() {
        let mut c = NodeClock::new();
        c.service_window(Ns(0), &INTR, Ns(100));
        c.service_window(Ns(0), &INTR, Ns(100));
        assert_eq!(c.stats.requests_served, 2);
        assert_eq!(c.stats.service_time, Ns(200));
    }
}
