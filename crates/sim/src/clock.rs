//! Per-node virtual clocks with retroactive interrupt preemption.
//!
//! The paper's whole design discussion (§2.2.4) revolves around *when an
//! asynchronous request gets serviced*: GM has no asynchronous notification,
//! so the authors compare a polling thread, a periodic timer, and a firmware
//! modification that raises a host interrupt. We model all three with one
//! mechanism: when a node observes a pending request, the *virtual* start of
//! servicing is computed from the request's arrival time and the async
//! scheme in force — even if the node's clock has already advanced past the
//! arrival (the node was "computing" when the interrupt would have fired).
//! The displaced computation is pushed back by the service duration, exactly
//! as preemption does on real hardware.

use std::cell::RefCell;
use std::rc::Rc;

use crate::stats::NodeStats;
use crate::time::Ns;

/// How a node learns about asynchronous (request) messages — the three
/// alternatives of §2.2.4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncScheme {
    /// Modified NIC firmware raises a host interrupt on the async port.
    /// `cost` is interrupt delivery + handler dispatch latency. This is the
    /// scheme the paper adopts for FAST/GM.
    Interrupt { cost: Ns },
    /// A dedicated thread spins on the receive queue. Dispatch is fast but
    /// the thread steals a CPU; we model the dispatch latency plus a
    /// per-service CPU tax on the application (`cpu_tax` is charged to the
    /// computation for every serviced request, standing in for the stolen
    /// cycles on the paper's 4-way SMP nodes).
    PollingThread { dispatch: Ns, cpu_tax: Ns },
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
            AsyncScheme::PollingThread { dispatch, .. } => arrival + dispatch,
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
            AsyncScheme::PollingThread { cpu_tax, .. } => cpu_tax,
            AsyncScheme::Timer { dispatch, .. } => dispatch,
            AsyncScheme::Sigio { cost } => cost,
        }
    }
}

/// A single node's virtual clock.
///
/// `now` moves in the four methods below and nowhere else, and each books
/// what it adds into one of [`NodeStats`]' five time buckets, so
/// [`NodeStats::booked_time`] is `now`.
///
/// * `compute(d)` models application computation — *interruptible*: requests
///   that arrived during the segment are retroactively serviced inside it.
/// * `advance(d)` models protocol/handler work — not interruptible
///   (TreadMarks disables SIGIO inside handlers; the paper calls out that
///   interrupts are "often disabled for consistency reasons").
/// * `service_window(arrival, scheme, dur)` computes when an async request
///   is handled and charges the node for it.
#[derive(Debug)]
pub struct NodeClock {
    now: Ns,
    /// Start of the window we are allowed to retroactively preempt — the
    /// beginning of the current compute segment or wait.
    preemptible_since: Ns,
    pub stats: NodeStats,
}

impl NodeClock {
    pub fn new() -> Self {
        NodeClock {
            now: Ns::ZERO,
            preemptible_since: Ns::ZERO,
            stats: NodeStats::default(),
        }
    }

    pub fn now(&self) -> Ns {
        self.now
    }

    /// Non-interruptible protocol work (message construction, diff
    /// creation, handler bodies…).
    pub fn advance(&mut self, d: Ns) {
        self.now += d;
        self.stats.protocol_time += d;
        self.preemptible_since = self.now;
    }

    /// Interruptible application computation. Requests arriving inside this
    /// segment may be serviced retroactively (see [`Self::service_window`]).
    pub fn compute(&mut self, d: Ns) {
        self.preemptible_since = self.now;
        self.now += d;
        self.stats.compute_time += d;
    }

    /// Begin blocking (waiting for a response / barrier / lock): the wait
    /// window is preemptible from now on.
    pub fn begin_wait(&mut self) {
        self.preemptible_since = self.now;
    }

    /// Jump forward to an external event time (e.g. a response arrival).
    /// No-op if the event is in the past.
    pub fn wait_until(&mut self, t: Ns) {
        if t > self.now {
            self.stats.idle_time += t - self.now;
            self.now = t;
        }
        self.preemptible_since = self.now;
    }

    /// Service an asynchronous request: returns the virtual time at which
    /// the *response* can leave this node (service begin + `dur`), and
    /// charges the clock.
    ///
    /// Semantics: the service begins at the later of (a) the moment the
    /// async scheme can deliver the request and (b) the start of the current
    /// preemptible window. If that point is in our past, the request was
    /// handled *during* work we already accounted — the displaced work is
    /// pushed back by `dur` plus the scheme's CPU overhead. If it is in our
    /// future, we idle until it.
    pub fn service_window(&mut self, arrival: Ns, scheme: &AsyncScheme, dur: Ns) -> Ns {
        let begin = scheme.earliest_service(arrival).max(self.preemptible_since);
        let finish = begin + dur;
        if begin >= self.now {
            // We were idle (blocked) when it became serviceable.
            self.stats.idle_time += begin - self.now;
            self.now = finish;
        } else {
            // Retroactive preemption: displaced computation resumes after
            // the handler, plus the interrupt/dispatch overhead.
            self.now += dur + scheme.cpu_overhead();
            self.stats.async_overhead_time += scheme.cpu_overhead();
        }
        // Later retro-services in the same segment cannot begin before this
        // one finished.
        self.preemptible_since = self.preemptible_since.max(finish);
        self.stats.requests_served += 1;
        self.stats.service_time += dur;
        finish
    }
}

impl Default for NodeClock {
    fn default() -> Self {
        Self::new()
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
    fn advance_and_compute_move_time() {
        let mut c = NodeClock::new();
        c.advance(Ns(100));
        c.compute(Ns(900));
        assert_eq!(c.now(), Ns(1_000));
        assert_eq!(c.stats.compute_time, Ns(900));
    }

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
        c.begin_wait();
        // Request arrives at t=10us, interrupt costs 7us, handler 5us.
        let finish = c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        assert_eq!(finish, Ns::from_us(22));
        assert_eq!(c.now(), Ns::from_us(22));
    }

    #[test]
    fn service_preempts_computation_retroactively() {
        let mut c = NodeClock::new();
        c.compute(Ns::from_us(100)); // segment [0, 100us]
        // Arrived at 10us: with interrupts it was handled at 17us, inside
        // the segment. The response leaves at 22us even though the node's
        // clock already reads 100us; computation is pushed to 112us
        // (5us handler + 7us interrupt overhead).
        let finish = c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        assert_eq!(finish, Ns::from_us(22));
        assert_eq!(c.now(), Ns::from_us(112));
    }

    #[test]
    fn retro_services_are_serialized() {
        let mut c = NodeClock::new();
        c.compute(Ns::from_us(100));
        let f1 = c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        let f2 = c.service_window(Ns::from_us(11), &INTR, Ns::from_us(5));
        assert_eq!(f1, Ns::from_us(22));
        // Second can't begin before the first finished (22us > 11+7us).
        assert_eq!(f2, Ns::from_us(27));
    }

    #[test]
    fn advance_blocks_retroactive_preemption() {
        let mut c = NodeClock::new();
        c.advance(Ns::from_us(50)); // handler work: not preemptible
        let finish = c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        // Earliest service is 17us but the preemptible window starts at
        // 50us, so service runs [50, 55]us.
        assert_eq!(finish, Ns::from_us(55));
        assert_eq!(c.now(), Ns::from_us(55));
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
    fn polling_thread_dispatches_fast() {
        let s = AsyncScheme::PollingThread {
            dispatch: Ns::from_us(1),
            cpu_tax: Ns::from_us(3),
        };
        assert_eq!(s.earliest_service(Ns::from_us(10)), Ns::from_us(11));
        assert_eq!(s.cpu_overhead(), Ns::from_us(3));
    }

    #[test]
    fn sigio_scheme_costs_apply() {
        let s = AsyncScheme::Sigio { cost: Ns::from_us(22) };
        assert_eq!(s.earliest_service(Ns::from_us(10)), Ns::from_us(32));
        assert_eq!(s.cpu_overhead(), Ns::from_us(22));
    }

    #[test]
    fn every_move_of_now_is_booked_in_one_bucket() {
        let mut c = NodeClock::new();
        c.advance(Ns(100));
        c.compute(Ns::from_us(100));
        // Retroactive: 5us handler + 7us interrupt overhead displace the
        // computation.
        c.service_window(Ns::from_us(10), &INTR, Ns::from_us(5));
        c.begin_wait();
        // Idle: the node waits for the request, then serves it.
        c.service_window(Ns::from_us(200), &INTR, Ns::from_us(5));
        c.wait_until(Ns::from_us(300));
        let s = &c.stats;
        assert_eq!(s.protocol_time, Ns(100));
        assert_eq!(s.async_overhead_time, Ns::from_us(7));
        assert_eq!(s.service_time, Ns::from_us(10));
        assert_eq!(s.booked_time(), c.now());
    }

    #[test]
    fn stats_count_services() {
        let mut c = NodeClock::new();
        c.begin_wait();
        c.service_window(Ns(0), &INTR, Ns(100));
        c.service_window(Ns(0), &INTR, Ns(100));
        assert_eq!(c.stats.requests_served, 2);
        assert_eq!(c.stats.service_time, Ns(200));
    }
}
