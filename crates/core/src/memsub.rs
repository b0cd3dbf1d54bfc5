//! An idealized in-memory substrate.
//!
//! Used two ways:
//! * protocol unit/property tests that want DSM semantics without the
//!   full transport stack underneath;
//! * the "infinitely fast network" ablation point — set `latency` to zero
//!   and the remaining execution time is pure protocol + compute.
//!
//! There is no fabric here, but there are the cluster's mailboxes
//! (`tm_sim::mailbox`), exactly as under the Myrinet NICs: a send, a
//! wait and a poll (a wait with deadline *now*) follow the same rules, so
//! a memsub run is as byte-reproducible as a fabric run and a memsub
//! deadlock is the same diagnosis. What memsub adds is its costs: a fixed
//! host cost per send and a fixed one-way latency.

use std::sync::Arc;

use tm_sim::mailbox::{Mailbox, Mailboxes, Message};
use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Wait};

use crate::substrate::{Chan, IncomingMsg, Substrate};
use crate::wire::pool;

/// The mailbox keys of the two channels, declared in this order: a
/// request wins a tie with a response.
const KEYS: [u16; 2] = [Chan::Request as u16, Chan::Response as u16];

impl Message for IncomingMsg {
    fn arrival(&self) -> Ns {
        self.arrival
    }
}

/// Construction halves: move one endpoint — a node's mailbox — into each
/// node body and wrap it with [`MemSubstrate::new`]. It shares the
/// cluster's mailboxes with its peers, so it stays on the cluster's
/// thread:
///
/// ```compile_fail
/// fn crosses_threads<T: Send>() {}
/// crosses_threads::<tmk::memsub::MemEndpoint>();
/// ```
pub type MemEndpoint = Mailbox<IncomingMsg>;

/// Build endpoints for an `n`-node in-memory cluster.
pub fn mem_cluster(n: usize) -> Vec<MemEndpoint> {
    Mailboxes::new(n, &KEYS).1
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
}

impl Substrate for MemSubstrate {
    fn my_id(&self) -> usize {
        self.ep.node()
    }

    fn nprocs(&self) -> usize {
        self.ep.nprocs()
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

    /// Released in departure-key order, so every inbox fills in an order
    /// the program alone decides.
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
        let (from, arrival) = (self.ep.node(), depart + self.latency);
        self.ep.send(to, chan as u16, depart, || {
            // The receiver gives the buffer back to the pool.
            let mut copy = pool::take(data.len());
            copy.extend_from_slice(data);
            IncomingMsg {
                from,
                chan,
                data: copy,
                arrival,
            }
        });
    }

    fn response_cost(&self, _len: usize) -> Ns {
        self.send_cost
    }

    fn poll(&mut self, chans: &[Chan]) -> Option<IncomingMsg> {
        let now = self.clock.borrow().now();
        for &chan in chans {
            if let Wait::Got(msg) = self.receive(&[chan as u16], Some(now)) {
                return Some(msg);
            }
        }
        None
    }

    fn wait(&mut self, deadline: Option<Ns>) -> Wait<IncomingMsg> {
        self.receive(&KEYS, deadline)
    }
}

impl MemSubstrate {
    /// The one receive under both [`Substrate::poll`] and
    /// [`Substrate::wait`]: the mailbox's rule, then the clock and the
    /// counters of what it hands over.
    fn receive(&mut self, keys: &[u16], deadline: Option<Ns>) -> Wait<IncomingMsg> {
        let arrived = self.ep.wait(Some(keys), deadline);
        let mut c = self.clock.borrow_mut();
        match arrived {
            Wait::Got(msg) => {
                c.wait_until(msg.arrival);
                c.stats.msgs_recv += 1;
                c.stats.bytes_recv += msg.data.len() as u64;
                Wait::Got(msg)
            }
            Wait::Deadline => {
                c.wait_until(deadline.expect("only a wait with a deadline times out"));
                Wait::Deadline
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
    fn a_request_poll_respects_virtual_time() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"x");
        assert!(
            b.poll(&[Chan::Request]).is_none(),
            "not arrived in virtual time"
        );
        b.clock().borrow_mut().advance(Ns::from_us(50));
        assert!(b.poll(&[Chan::Request]).is_some());
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
