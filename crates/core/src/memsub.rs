//! An idealized in-memory substrate.
//!
//! Used two ways:
//! * protocol unit/property tests that want DSM semantics without the
//!   full transport stack underneath;
//! * the "infinitely fast network" ablation point — set `latency` to zero
//!   and the remaining execution time is pure protocol + compute.
//!
//! There is no fabric here, but there is a scheduler: a `mem_cluster` is a
//! client of `tm_sim::sched` exactly as the Myrinet fabric is. A send waits
//! for its departure time to be the cluster's minimum event key, pushes,
//! and reports the delivery; a blocking wait parks; a poll miss is a park
//! on deadline *now*; dropping the endpoint marks the node done. So a
//! memsub run is as byte-reproducible as a fabric run, and a memsub
//! deadlock is the same diagnosis.

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use tm_sim::{AsyncScheme, LockstepSched, Ns, SharedClock, SimParams, Wait};

use crate::substrate::{Chan, IncomingMsg, Substrate};
use crate::wire::pool;

/// A node's inbox, which senders push into and the node's substrate reads
/// in place: one queue per channel.
#[derive(Default)]
struct Inbox {
    requests: VecDeque<IncomingMsg>,
    responses: VecDeque<IncomingMsg>,
}

impl Inbox {
    /// Earliest-arrival message across both queues, if it arrives by `by`
    /// (no bound: whatever its arrival).
    fn pop_due(&mut self, by: Option<Ns>) -> Option<IncomingMsg> {
        let rq = self.requests.front().map(|m| m.arrival);
        let rs = self.responses.front().map(|m| m.arrival);
        let q = match (rq, rs) {
            (None, None) => return None,
            (Some(a), Some(b)) if b < a => &mut self.responses,
            (None, Some(_)) => &mut self.responses,
            _ => &mut self.requests,
        };
        q.pop_front_if(|m| by.is_none_or(|t| m.arrival <= t))
    }
}

/// Construction halves: move one [`MemEndpoint`] into each node body and
/// wrap it with [`MemSubstrate::new`]. It shares the cluster's scheduler
/// and inboxes with its peers, so it stays on the cluster's thread:
///
/// ```compile_fail
/// fn crosses_threads<T: Send>() {}
/// crosses_threads::<tmk::memsub::MemEndpoint>();
/// ```
pub struct MemEndpoint {
    id: usize,
    /// Every node's inbox; `None` once its endpoint has dropped.
    inboxes: Rc<[RefCell<Option<Inbox>>]>,
    sched: Rc<LockstepSched>,
}

impl Drop for MemEndpoint {
    fn drop(&mut self) {
        self.inboxes[self.id].take();
        self.sched.mark_done(self.id);
    }
}

/// Build endpoints for an `n`-node in-memory cluster.
pub fn mem_cluster(n: usize) -> Vec<MemEndpoint> {
    let inboxes: Rc<[_]> = (0..n)
        .map(|_| RefCell::new(Some(Inbox::default())))
        .collect();
    let sched = Rc::new(LockstepSched::new(n));
    (0..n)
        .map(|id| MemEndpoint {
            id,
            inboxes: Rc::clone(&inboxes),
            sched: Rc::clone(&sched),
        })
        .collect()
}

/// The per-node substrate object.
pub struct MemSubstrate {
    ep: MemEndpoint,
    clock: SharedClock,
    params: Arc<SimParams>,
    /// One-way message latency (0 for the ideal-network ablation).
    latency: Ns,
    /// Host-side cost charged per send.
    send_cost: Ns,
}

impl MemSubstrate {
    pub fn new(
        ep: MemEndpoint,
        clock: SharedClock,
        params: Arc<SimParams>,
        latency: Ns,
        send_cost: Ns,
    ) -> Self {
        MemSubstrate {
            ep,
            clock,
            params,
            latency,
            send_cost,
        }
    }

    /// This node's inbox. Borrowed for the length of one queue operation
    /// and never across a park: the sender that ends the wait pushes here.
    fn inbox(&self) -> RefMut<'_, Inbox> {
        RefMut::map(self.ep.inboxes[self.ep.id].borrow_mut(), |i| {
            i.as_mut().expect("closes when this endpoint drops")
        })
    }

    /// Whether a poll's miss at virtual time `now` is final: `false` if an
    /// earlier-keyed send landed here first (look again).
    fn miss_settled(&self, now: Ns) -> bool {
        self.ep.sched.park(self.ep.id, Some(now)) == Wait::Deadline
    }
}

impl Substrate for MemSubstrate {
    fn my_id(&self) -> usize {
        self.ep.id
    }

    fn nprocs(&self) -> usize {
        self.ep.inboxes.len()
    }

    fn clock(&self) -> &SharedClock {
        &self.clock
    }

    fn params(&self) -> &Arc<SimParams> {
        &self.params
    }

    fn scheme(&self) -> AsyncScheme {
        // Ideal: requests are noticed instantly and for free.
        AsyncScheme::Interrupt { cost: Ns::ZERO }
    }

    /// Released by the scheduler in departure-key order, so every inbox
    /// fills in an order the program alone decides.
    fn send(&mut self, to: usize, chan: Chan, data: &[u8], at: Option<Ns>) {
        let depart = {
            let mut c = self.clock.borrow_mut();
            if at.is_none() {
                c.advance(self.send_cost);
            }
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
            at.unwrap_or(c.now())
        };
        self.ep.sched.request_transmit(self.ep.id, to, depart);
        // The receiver gives the buffer back to the pool.
        let mut copy = pool::take(data.len());
        copy.extend_from_slice(data);
        let msg = IncomingMsg {
            from: self.ep.id,
            chan,
            data: copy,
            arrival: depart + self.latency,
        };
        let mut inbox = self.ep.inboxes[to].borrow_mut();
        let inbox = inbox.as_mut().expect("peer gone");
        match chan {
            Chan::Request => inbox.requests.push_back(msg),
            Chan::Response => inbox.responses.push_back(msg),
        }
        self.ep.sched.deliver(to);
    }

    fn response_cost(&self, _len: usize) -> Ns {
        self.send_cost
    }

    fn poll_request(&mut self) -> Option<IncomingMsg> {
        loop {
            let now = self.clock.borrow().now();
            {
                let mut inbox = self.inbox();
                if inbox.requests.front().is_some_and(|m| m.arrival <= now) {
                    return inbox.requests.pop_front();
                }
            }
            if self.miss_settled(now) {
                return None;
            }
        }
    }

    fn poll_incoming(&mut self) -> Option<IncomingMsg> {
        loop {
            let now = self.clock.borrow().now();
            let arrived = self.inbox().pop_due(Some(now));
            if arrived.is_some() || self.miss_settled(now) {
                return arrived;
            }
        }
    }

    /// A park without a deadline can only end in a delivery (or, if none
    /// can ever come, in the scheduler's deadlock diagnosis).
    fn wait(&mut self, deadline: Option<Ns>) -> Wait<IncomingMsg> {
        loop {
            let due = self.inbox().pop_due(deadline);
            if let Some(msg) = due {
                let mut c = self.clock.borrow_mut();
                c.wait_until(msg.arrival);
                c.stats.msgs_recv += 1;
                c.stats.bytes_recv += msg.data.len() as u64;
                return Wait::Got(msg);
            }
            if self.ep.sched.park(self.ep.id, deadline) == Wait::Deadline {
                let d = deadline.expect("only a wait with a deadline times out");
                self.clock.borrow_mut().wait_until(d);
                return Wait::Deadline;
            }
        }
    }
}

/// Run a DSM program over the in-memory substrate: an ordinary
/// [`tm_sim::run_cluster`] in which each node is given a ready
/// [`crate::Tmk`] runtime. Returns per-node outcomes in node order.
pub fn run_mem_dsm<R, F>(
    n: usize,
    params: Arc<SimParams>,
    latency: Ns,
    cfg: crate::TmkConfig,
    body: F,
) -> Vec<tm_sim::runner::NodeOutcome<R>>
where
    R: 'static,
    F: Fn(&mut crate::Tmk<MemSubstrate>) -> R + 'static,
{
    tm_sim::run_cluster_with(params, mem_cluster(n), move |env, ep| {
        let sub = MemSubstrate::new(
            ep,
            env.clock.clone(),
            Arc::clone(&env.params),
            latency,
            Ns(500),
        );
        let mut tmk = crate::Tmk::new(sub, cfg.clone());
        let r = body(&mut tmk);
        tmk.exit();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::clock::shared_clock;

    fn pair() -> (MemSubstrate, MemSubstrate) {
        let params = Arc::new(SimParams::paper_testbed());
        let mut eps = mem_cluster(2);
        let b = MemSubstrate::new(
            eps.pop().unwrap(),
            shared_clock(),
            Arc::clone(&params),
            Ns::from_us(5),
            Ns(500),
        );
        let a = MemSubstrate::new(
            eps.pop().unwrap(),
            shared_clock(),
            params,
            Ns::from_us(5),
            Ns(500),
        );
        (a, b)
    }

    #[test]
    fn request_roundtrip() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"req");
        let msg = b.next_incoming();
        assert_eq!(msg.chan, Chan::Request);
        assert_eq!(msg.from, 0);
        assert_eq!(msg.data, b"req");
        assert_eq!(b.clock().borrow().now(), msg.arrival);
    }

    #[test]
    fn response_arrives_at_service_time_plus_latency() {
        let (mut a, mut b) = pair();
        b.send_response_at(0, b"resp", Ns::from_us(100));
        let msg = a.next_incoming();
        assert_eq!(msg.chan, Chan::Response);
        assert_eq!(msg.arrival, Ns::from_us(105));
    }

    #[test]
    fn poll_request_respects_virtual_time() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"x");
        assert!(b.poll_request().is_none(), "not arrived in virtual time");
        b.clock().borrow_mut().advance(Ns::from_us(50));
        assert!(b.poll_request().is_some());
    }

    /// A node that waits for a message nobody will send does not hang the
    /// run: `run_cluster` panics with every node's state.
    #[test]
    fn a_wait_nobody_answers_is_a_deadlock_diagnosis() {
        let stuck = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let params = Arc::new(SimParams::paper_testbed());
            tm_sim::run_cluster_with(params, mem_cluster(3), |env, ep| {
                let params = Arc::clone(&env.params);
                let mut sub = MemSubstrate::new(ep, env.clock.clone(), params, Ns::ZERO, Ns::ZERO);
                match env.id {
                    0 => sub.send(1, Chan::Request, b"only one", Some(Ns(7))),
                    1 => drop((sub.next_incoming(), sub.next_incoming())),
                    _ => {}
                }
            })
        }));
        let payload = stuck.err().expect("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.starts_with("lockstep deadlock"), "{msg}");
        assert!(msg.contains("contexts [1] have not finished"), "{msg}");
        assert!(
            msg.contains("node 0: Done") && msg.contains("node 2: Done"),
            "{msg}"
        );
        assert!(msg.contains("node 1: Parked { deadline: None }"), "{msg}");
    }

    #[test]
    fn earliest_of_request_and_response_wins() {
        let (mut a, mut b) = pair();
        b.send_response_at(0, b"late", Ns::from_ms(1));
        // b's request leaves at ~500ns and lands at ~5.5us — earlier than
        // the 1.005ms response even though it was enqueued second.
        b.send_request(0, b"early");
        let first = a.next_incoming();
        assert_eq!(first.data, b"early");
        let second = a.next_incoming();
        assert_eq!(second.data, b"late");
    }
}
