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

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use tm_sim::{AsyncScheme, LockstepSched, Ns, SharedClock, SimParams, Wait};

use crate::substrate::{Chan, IncomingMsg, Substrate};

struct MemMsg {
    from: usize,
    chan: Chan,
    data: Vec<u8>,
    arrival: Ns,
}

/// Construction halves: move one [`MemEndpoint`] into each node body and
/// wrap it with [`MemSubstrate::new`].
pub struct MemEndpoint {
    id: usize,
    rx: Receiver<MemMsg>,
    txs: Vec<Sender<MemMsg>>,
    sched: Arc<LockstepSched>,
}

impl Drop for MemEndpoint {
    fn drop(&mut self) {
        self.sched.mark_done(self.id);
    }
}

/// Build endpoints for an `n`-node in-memory cluster.
pub fn mem_cluster(n: usize) -> Vec<MemEndpoint> {
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
    let sched = Arc::new(LockstepSched::new(n));
    rxs.into_iter()
        .enumerate()
        .map(|(id, rx)| MemEndpoint {
            id,
            rx,
            txs: txs.clone(),
            sched: Arc::clone(&sched),
        })
        .collect()
}

/// The per-node substrate object.
pub struct MemSubstrate {
    ep: MemEndpoint,
    nprocs: usize,
    clock: SharedClock,
    params: Arc<SimParams>,
    /// One-way message latency (0 for the ideal-network ablation).
    latency: Ns,
    /// Host-side cost charged per send.
    send_cost: Ns,
    requests: VecDeque<IncomingMsg>,
    responses: VecDeque<IncomingMsg>,
}

impl MemSubstrate {
    pub fn new(
        ep: MemEndpoint,
        clock: SharedClock,
        params: Arc<SimParams>,
        latency: Ns,
        send_cost: Ns,
    ) -> Self {
        let nprocs = ep.txs.len();
        MemSubstrate {
            ep,
            nprocs,
            clock,
            params,
            latency,
            send_cost,
            requests: VecDeque::new(),
            responses: VecDeque::new(),
        }
    }

    /// Send `data` on `chan`, leaving at virtual time `depart`: released by
    /// the scheduler in departure-key order, so every inbox fills in an
    /// order the program alone decides.
    fn send(&mut self, to: usize, chan: Chan, data: &[u8], depart: Ns) {
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        self.ep.sched.request_transmit(self.ep.id, to, depart);
        self.ep.txs[to]
            .send(MemMsg {
                from: self.ep.id,
                chan,
                data: data.to_vec(),
                arrival: depart + self.latency,
            })
            .expect("peer gone");
        self.ep.sched.deliver(to);
    }

    /// Whether a poll's miss at virtual time `now` is final: `false` if an
    /// earlier-keyed send landed here first (re-drain and look again).
    fn miss_settled(&self, now: Ns) -> bool {
        self.ep.sched.park(self.ep.id, Some(now), None) == Wait::Deadline
    }

    fn stash(&mut self, m: MemMsg) {
        let msg = IncomingMsg {
            from: m.from,
            chan: m.chan,
            data: m.data,
            arrival: m.arrival,
            lost: false,
        };
        match msg.chan {
            Chan::Request => self.requests.push_back(msg),
            Chan::Response => self.responses.push_back(msg),
        }
    }

    fn drain(&mut self) {
        while let Ok(m) = self.ep.rx.try_recv() {
            self.stash(m);
        }
    }

    /// Earliest-arrival message across both queues.
    fn pop_earliest(&mut self) -> Option<IncomingMsg> {
        let rq = self.requests.front().map(|m| m.arrival);
        let rs = self.responses.front().map(|m| m.arrival);
        match (rq, rs) {
            (None, None) => None,
            (Some(_), None) => self.requests.pop_front(),
            (None, Some(_)) => self.responses.pop_front(),
            (Some(a), Some(b)) => {
                if a <= b {
                    self.requests.pop_front()
                } else {
                    self.responses.pop_front()
                }
            }
        }
    }
}

impl Substrate for MemSubstrate {
    fn my_id(&self) -> usize {
        self.ep.id
    }

    fn nprocs(&self) -> usize {
        self.nprocs
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

    fn send_request(&mut self, to: usize, data: &[u8]) -> bool {
        self.clock.borrow_mut().advance(self.send_cost);
        let now = self.clock.borrow().now();
        self.send(to, Chan::Request, data, now);
        true
    }

    fn send_request_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.send(to, Chan::Request, data, at);
    }

    fn response_cost(&self, _len: usize) -> Ns {
        self.send_cost
    }

    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.send(to, Chan::Response, data, at);
    }

    fn poll_request(&mut self) -> Option<IncomingMsg> {
        loop {
            self.drain();
            let now = self.clock.borrow().now();
            if self.requests.front().is_some_and(|m| m.arrival <= now) {
                return self.requests.pop_front();
            }
            if self.miss_settled(now) {
                return None;
            }
        }
    }

    fn poll_incoming(&mut self) -> Option<IncomingMsg> {
        loop {
            self.drain();
            let now = self.clock.borrow().now();
            let arrived = |q: &VecDeque<IncomingMsg>| q.front().is_some_and(|m| m.arrival <= now);
            if arrived(&self.requests) || arrived(&self.responses) {
                return self.pop_earliest();
            }
            if self.miss_settled(now) {
                return None;
            }
        }
    }

    /// Reliable and in-memory: nothing is ever lost, so no timer needs
    /// to fire and no peer needs waiting out — both conditions are
    /// ignored, and the park can only end in a delivery (or, if none can
    /// ever come, in the scheduler's deadlock diagnosis).
    fn wait(&mut self, _deadline: Option<Ns>, _watch: Option<&[usize]>) -> Wait<IncomingMsg> {
        loop {
            self.drain();
            if let Some(msg) = self.pop_earliest() {
                let mut c = self.clock.borrow_mut();
                c.wait_until(msg.arrival);
                c.stats.msgs_recv += 1;
                c.stats.bytes_recv += msg.data.len() as u64;
                return Wait::Got(msg);
            }
            self.ep.sched.park(self.ep.id, None, None);
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
    R: Send + 'static,
    F: Fn(&mut crate::Tmk<MemSubstrate>) -> R + Send + Sync + 'static,
{
    use parking_lot::Mutex;
    let endpoints: Mutex<Vec<Option<MemEndpoint>>> =
        Mutex::new(mem_cluster(n).into_iter().map(Some).collect());
    tm_sim::run_cluster(n, params, move |env| {
        let ep = endpoints.lock()[env.id].take().expect("endpoint taken twice");
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
        let a = MemSubstrate::new(eps.pop().unwrap(), shared_clock(), params, Ns::from_us(5), Ns(500));
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

    /// The reliable `wait` never reports a deadline or departed peers: a
    /// deadline already in the past and a watch set are both ignored,
    /// and the message is handed over at its arrival time.
    #[test]
    fn wait_ignores_a_past_deadline() {
        let (mut a, mut b) = pair();
        b.clock().borrow_mut().advance(Ns::from_us(50));
        a.send_request(1, b"req");
        let Wait::Got(msg) = b.wait(Some(Ns(1)), Some(&[0])) else {
            panic!("a reliable wait can only end in an arrival");
        };
        assert_eq!(msg.data, b"req");
        assert_eq!(b.clock().borrow().now(), Ns::from_us(50));
    }

    /// A node that waits for a message nobody will send does not hang the
    /// run: `run_cluster` panics with every node's state.
    #[test]
    fn a_wait_nobody_answers_is_a_deadlock_diagnosis() {
        let eps = parking_lot::Mutex::new(mem_cluster(3).into_iter().map(Some).collect::<Vec<_>>());
        let stuck = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tm_sim::run_cluster(3, Arc::new(SimParams::paper_testbed()), move |env| {
                let ep = eps.lock()[env.id].take().unwrap();
                let params = Arc::clone(&env.params);
                let mut sub = MemSubstrate::new(ep, env.clock.clone(), params, Ns::ZERO, Ns::ZERO);
                match env.id {
                    0 => sub.send_request_at(1, b"only one", Ns(7)),
                    1 => drop((sub.next_incoming(), sub.next_incoming())),
                    _ => {}
                }
            })
        }));
        let payload = stuck.err().expect("must panic");
        let msg = payload.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.starts_with("lockstep deadlock"), "{msg}");
        assert!(msg.contains("contexts [1] have not finished"), "{msg}");
        assert!(msg.contains("node 0: Done") && msg.contains("node 2: Done"), "{msg}");
        assert!(msg.contains("node 1: Parked { deadline: None, watch: None }"), "{msg}");
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
