//! The scheduler: every cluster is a byte-reproducible virtual-time run.
//!
//! # Why
//!
//! Every number this simulator reports is virtual-time arithmetic, so the
//! order in which nodes act on shared state — who reserves a contended rx
//! link first, whether a poll sees a packet — must be a function of the
//! program, not of the host. It is:
//! the nodes of a cluster are contexts on one thread ([`crate::context`])
//! and this module decides, from virtual time alone, which of them moves.
//!
//! # How
//!
//! Every *fabric action* — a wire transmission, the expiry of a virtual
//! receive deadline, the settlement of a non-blocking poll — is an
//! **event** with a totally ordered key `(virtual time, node id)`. A node
//! has at most one event on offer, so keys never tie. `LockstepSched` is
//! the quiescence rule and nothing else: **an event is released only when
//! no node is running, and then the minimum key goes, alone.**
//!
//! A node that must wait — `request_transmit` before it may reserve
//! links, `park` in a blocking receive or on a poll miss — records its key
//! and suspends its context. When no context is left to run,
//! [`crate::context::run`] asks the scheduler ([`Driver::next`]), which
//! releases the owner of the minimum key; that context then runs until it
//! waits again. A delivery (`deliver`) releases the parked node it
//! concerns at once; it runs before the next key is looked at. A departure
//! (`mark_done`) releases nobody: a node learns that a peer has left only
//! from what the peer sent it.
//! A node whose own key is the minimum while every other node is waiting
//! or gone is not suspended at all — the wait settles inline, which is
//! what the suspension would have come to.
//!
//! Reproducibility is by construction. A context runs until it waits, so
//! between two scheduler calls of one node nothing else in the cluster
//! moves: there is no simultaneity to order and no preemption to survive.
//! Each transmit reserves its links and lands in its receiver's inbox
//! before any other event is released, in global key order; a node's
//! inputs (its inbox sequence, its deadline expiries) are therefore a pure
//! function of the program, and by induction so is every virtual
//! timestamp, counter and memory image.
//!
//! The scheduler has one client, [`crate::mailbox`], and its four calls
//! are private to this crate: a send is `request_transmit`, push,
//! `deliver`; a receive that finds nothing due is `park` (a poll is a
//! receive with deadline *now*); dropping a node's mailbox is
//! `mark_done`. The Myrinet fabric and the in-memory substrate reach the
//! scheduler only through their mailboxes.
//!
//! # Outside a context
//!
//! A test that builds a fabric and drives both ends from its own thread
//! runs no contexts: the caller is the only thing running, so program
//! order *is* the order. A wait that offers a key (a transmit, a deadline,
//! a poll miss) settles at once; one that offers none could only be ended
//! by code that will never run, and panics with every node's state.
//!
//! # Failure is a diagnosis
//!
//! A cluster in which every node waits and no key is on offer can never
//! move again: [`crate::context::run`] panics with every node's state
//! ([`Driver::describe`]). Nothing in the workspace blocks in the
//! operating system and no lock stands between two nodes — the scheduler
//! and its clients are `Rc`/`RefCell` data of one thread — so nothing
//! hangs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::context::{self, Driver};
use crate::time::Ns;

/// Outcome of a blocking wait at every layer — the scheduler's `park`
/// (`Wait<()>`), the NIC's `wait`, the UDP stack's `recv`, a substrate's
/// `wait`: *a message or a virtual deadline*, whichever came first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait<T> {
    /// Something arrived (at or before the deadline, if one was given).
    /// From `park`: a packet was delivered to the node's inbox — re-drain.
    Got(T),
    /// The virtual deadline passed first: it became the cluster's next
    /// event.
    Deadline,
}

impl<T> Wait<T> {
    /// The arrival of a wait that was given no deadline, and so can end no
    /// other way.
    pub fn got(self) -> T {
        match self {
            Wait::Got(t) => t,
            Wait::Deadline => panic!("a wait with no deadline can only end in an arrival"),
        }
    }
}

/// A totally ordered event key: virtual time, then node id. A node offers
/// at most one event at a time, so keys on offer never tie.
type Key = (Ns, usize);

#[derive(Debug, Default)]
enum St {
    /// Not waiting on the scheduler: executing, released and about to be
    /// resumed, or not started yet.
    #[default]
    Running,
    /// Suspended in `request_transmit` until `key` is the minimum. `dst`
    /// is only for the deadlock message.
    Pending { key: Key, dst: usize },
    /// Suspended in `park`: waiting for a delivery, for at most until
    /// `deadline` if one is set.
    Parked { deadline: Option<Key> },
    /// The node's NIC has left the fabric; it produces no more events.
    Done,
}

impl St {
    /// The event this state offers, if any.
    fn key(&self) -> Option<Key> {
        match self {
            St::Pending { key, .. } => Some(*key),
            St::Parked { deadline } => *deadline,
            St::Running | St::Done => None,
        }
    }
}

#[derive(Default)]
struct NodeSt {
    st: St,
    /// The context suspended on this node's behalf while it waits.
    ctx: usize,
    /// Why it was released; taken by the node when it resumes.
    wake: Option<Wait<()>>,
}

/// The keys on offer, one slot per node, under a min-tournament: the
/// minimum is read in O(1), a node's slot is changed in O(log n), and
/// nothing allocates after [`Offers::new`].
struct Offers {
    /// `tree[n + i]` is node `i`'s key, [`Offers::NONE`] if it offers none;
    /// `tree[j]` for `1 <= j < n` is the smaller of `tree[2j]` and
    /// `tree[2j + 1]`, so `tree[1]` is the minimum over every node.
    tree: Vec<Key>,
}

impl Offers {
    /// Above every real key.
    const NONE: Key = (Ns(u64::MAX), usize::MAX);

    fn new(n: usize) -> Offers {
        Offers {
            tree: vec![Self::NONE; 2 * n],
        }
    }

    fn set(&mut self, node: usize, key: Option<Key>) {
        let mut j = self.tree.len() / 2 + node;
        self.tree[j] = key.unwrap_or(Self::NONE);
        while j > 1 {
            j /= 2;
            self.tree[j] = self.tree[2 * j].min(self.tree[2 * j + 1]);
        }
    }

    fn first(&self) -> Option<Key> {
        self.tree.get(1).copied().filter(|&k| k != Self::NONE)
    }
}

/// Every node's state, indexed so that neither `next` nor `block` looks at
/// more than one node: `offers` holds exactly the keys that `Pending` and
/// `Parked` nodes offer, and `running` counts the nodes in `St::Running`.
/// Both change only in [`State::set`], through which every transition goes.
/// The O(n) scans they replace stay as the spec, checked by `debug_assert!`
/// on every call.
struct State {
    nodes: Vec<NodeSt>,
    /// Contexts of released nodes, in release order.
    ready: VecDeque<usize>,
    offers: Offers,
    running: usize,
}

impl State {
    /// Move `node` to `st`, keeping `offers` and `running` exact.
    fn set(&mut self, node: usize, st: St) {
        let old = std::mem::replace(&mut self.nodes[node].st, st);
        let new = &self.nodes[node].st;
        self.running -= usize::from(matches!(old, St::Running));
        self.running += usize::from(matches!(new, St::Running));
        if old.key() != new.key() {
            self.offers.set(node, new.key());
        }
    }

    fn release(&mut self, node: usize, why: Wait<()>) {
        self.set(node, St::Running);
        let n = &mut self.nodes[node];
        n.wake = Some(why);
        self.ready.push_back(n.ctx);
    }

    /// Whether `node`'s `key` settles inline: every other node waits or is
    /// gone, and no key on offer is below it.
    fn settles(&self, node: usize, key: Key) -> bool {
        let own = usize::from(matches!(self.nodes[node].st, St::Running));
        let indexed = self.running == own && self.offers.first().is_none_or(|k| key < k);
        debug_assert_eq!(indexed, {
            let behind = |n: &NodeSt| match n.st {
                St::Running => false,
                _ => n.st.key().is_none_or(|k| key < k),
            };
            let mut others = self.nodes.iter().enumerate().filter(|(i, _)| *i != node);
            others.all(|(_, n)| behind(n))
        });
        indexed
    }

    /// The minimum key on offer.
    fn first_offer(&self) -> Option<Key> {
        let first = self.offers.first();
        debug_assert_eq!(first, self.nodes.iter().filter_map(|n| n.st.key()).min());
        first
    }
}

/// The scheduler of one cluster (module docs). Every method is called by
/// the node it names — from that node's context, or from the one thread
/// that drives every node by hand. A cluster never leaves its thread, and
/// the type says so: shared by `Rc`, state in a `RefCell` that is never
/// borrowed across a suspension.
pub(crate) struct LockstepSched {
    state: RefCell<State>,
}

impl LockstepSched {
    /// A scheduler for `n` nodes, all running: nothing is released until
    /// each has either committed to its first fabric action or left.
    pub(crate) fn new(n: usize) -> LockstepSched {
        let state = State {
            nodes: (0..n).map(|_| NodeSt::default()).collect(),
            ready: VecDeque::new(),
            offers: Offers::new(n),
            running: n,
        };
        LockstepSched {
            state: RefCell::new(state),
        }
    }

    /// Wait in state `st` until released. Settles inline — no suspension —
    /// when `st` offers a key, every other node is waiting or gone, and
    /// the key is below all of theirs: the context would be suspended only
    /// to be the one `next` picks. Outside a context (module docs) any key
    /// settles, and a wait without one is refused.
    fn block(self: &Rc<Self>, node: usize, st: St) -> Wait<()> {
        {
            let mut s = self.state.borrow_mut();
            if st.key().is_some_and(|key| s.settles(node, key)) {
                return Wait::Deadline;
            }
            let Some(ctx) = context::current() else {
                drop(s);
                assert!(
                    st.key().is_some(),
                    "node {node} waits ({st:?}) outside a cluster context with no transmit, \
                     deadline or poll on offer: nothing that could end the wait will ever run\n{}",
                    self.describe()
                );
                return Wait::Deadline;
            };
            s.set(node, st);
            s.nodes[node].ctx = ctx;
            s.nodes[node].wake = None;
        }
        context::suspend(self);
        let wake = self.state.borrow_mut().nodes[node].wake.take();
        wake.expect("resumed without a release")
    }

    /// Announce a transmit whose NIC injection happens at virtual time
    /// `inject`, and wait until the scheduler releases it. On return the
    /// caller reserves its links and pushes the packet — nothing else in
    /// the cluster runs meanwhile — then reports where it landed with
    /// [`LockstepSched::deliver`]. `dst` is named only for diagnostics.
    pub(crate) fn request_transmit(self: &Rc<Self>, node: usize, dst: usize, inject: Ns) {
        let key = (inject, node);
        self.block(node, St::Pending { key, dst });
    }

    /// A packet has been pushed into `dst`'s inbox: release `dst` if it is
    /// parked. A node that is running, pending or done finds the packet
    /// when it next drains.
    pub(crate) fn deliver(&self, dst: usize) {
        let mut s = self.state.borrow_mut();
        if matches!(s.nodes[dst].st, St::Parked { .. }) {
            s.release(dst, Wait::Got(()));
        }
    }

    /// The one blocking wait: park `node` until a packet is delivered to
    /// it, or — when `deadline` is `Some(d)` — until virtual time `d`
    /// becomes the cluster's next event ([`Wait::Deadline`]), whichever
    /// the scheduler orders first. The caller drains its inbox first; on
    /// one thread nothing can land in between. A poll miss at `t` is a
    /// park on deadline `t`: [`Wait::Deadline`] means every earlier event
    /// has been released, so the miss is final.
    pub(crate) fn park(self: &Rc<Self>, node: usize, deadline: Option<Ns>) -> Wait<()> {
        let deadline = deadline.map(|t| (t, node));
        self.block(node, St::Parked { deadline })
    }

    /// `node` has left (its mailbox dropped): it produces no more events.
    pub(crate) fn mark_done(&self, node: usize) {
        self.state.borrow_mut().set(node, St::Done);
    }
}

impl Driver for LockstepSched {
    fn next(&self) -> Option<usize> {
        let mut s = self.state.borrow_mut();
        if s.ready.is_empty() {
            let (_, node) = s.first_offer()?;
            s.release(node, Wait::Deadline);
        }
        s.ready.pop_front()
    }

    fn describe(&self) -> String {
        let s = self.state.borrow();
        let line = |(i, n): (usize, &NodeSt)| match &n.st {
            St::Pending { key, dst } => {
                format!("  node {i}: transmit to node {dst} pending at {}\n", key.0)
            }
            st => format!("  node {i}: {st:?}\n"),
        };
        s.nodes.iter().enumerate().map(line).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::panic_message;

    /// Run `body(node, sched)` as every node of a fresh `n`-node scheduler,
    /// each in a context of its own; a node that returns has left.
    fn cluster(n: usize, body: impl Fn(usize, &Rc<LockstepSched>) + 'static) {
        let sched = Rc::new(LockstepSched::new(n));
        context::run(n, 256 << 10, move |node| {
            body(node, &sched);
            sched.mark_done(node);
        });
    }

    /// Two nodes transmit to the same receiver and the later key asks
    /// first (contexts start in node order): releases follow `(virtual
    /// time, node)`, one at a time, and a delivery's receiver runs before
    /// the next key is looked at.
    #[test]
    fn the_minimum_key_goes_first_whoever_asked_first() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        cluster(4, move |node, sched| match node {
            0 | 1 | 3 => {
                // Nodes 1 and 3 tie on time; the node id breaks it.
                let inject = [Ns(2_000), Ns(1_000), Ns(0), Ns(1_000)][node];
                sched.request_transmit(node, 2, inject);
                if node == 1 {
                    let waiting = sched.describe();
                    assert!(
                        waiting.contains("node 0: transmit to node 2 pending at 2.00us"),
                        "{waiting}"
                    );
                    assert!(
                        waiting.contains("node 3: transmit") && waiting.contains("node 1: Running")
                    );
                }
                sink.borrow_mut().push(format!("{node} released"));
                sched.deliver(2);
            }
            _ => {
                let why = sched.park(2, None);
                sink.borrow_mut().push(format!("2 woke: {why:?}"));
            }
        });
        assert_eq!(
            *log.borrow(),
            ["1 released", "2 woke: Got(())", "3 released", "0 released"]
        );
    }

    /// A parked deadline is an event like a transmit: it loses to an
    /// earlier-keyed delivery and beats a later-keyed one, which then finds
    /// the node running and is left for its next drain.
    #[test]
    fn a_deadline_loses_to_an_earlier_delivery_and_beats_a_later_one() {
        for (inject, want) in [(Ns(1_000), Wait::Got(())), (Ns(9_000), Wait::Deadline)] {
            cluster(2, move |node, sched| match node {
                0 => {
                    sched.request_transmit(0, 1, inject);
                    sched.deliver(1);
                }
                _ => assert_eq!(sched.park(1, Some(Ns(5_000))), want, "inject at {inject}"),
            });
        }
    }

    /// A departure releases nobody: a node parked on a deadline sleeps
    /// through its peers leaving and wakes at its deadline, and one parked
    /// on a delivery is still waiting for it.
    #[test]
    fn a_departure_releases_nobody() {
        cluster(3, |node, sched| match node {
            1 => {
                assert_eq!(sched.park(1, Some(Ns::from_ms(1))), Wait::Deadline);
                let seen = sched.describe();
                assert!(seen.contains("node 0: Done"), "{seen}");
                assert!(seen.contains("node 2: Parked { deadline: None }"), "{seen}");
                sched.request_transmit(1, 2, Ns::from_ms(2));
                sched.deliver(2);
            }
            0 => {}
            _ => assert_eq!(sched.park(2, None), Wait::Got(())),
        });
    }

    /// Inside a context: a node whose key is the minimum while every other
    /// node waits or is gone settles inline, leaving no trace; a node whose
    /// key is not the minimum is suspended until it is.
    #[test]
    fn the_minimum_key_of_a_quiescent_cluster_settles_without_a_switch() {
        cluster(3, |node, sched| match node {
            0 => {
                // Suspended (node 1 has not started); resumed with node 1
                // parked on 1000 and node 2 gone.
                assert_eq!(sched.park(0, Some(Ns(5))), Wait::Deadline);
                sched.request_transmit(0, 1, Ns(999));
                // Equal times: the lower node id is the smaller key.
                assert_eq!(sched.park(0, Some(Ns(1_000))), Wait::Deadline);
                let seen = sched.describe();
                assert!(seen.contains("node 0: Running"), "{seen}");
                assert!(seen.contains("node 1: Parked"), "{seen}");
                // A later key must wait: node 1's deadline goes first.
                sched.request_transmit(0, 1, Ns(1_001));
                assert!(sched.describe().contains("node 1: Done"));
            }
            1 => assert_eq!(sched.park(1, Some(Ns(1_000))), Wait::Deadline),
            _ => {}
        });
    }

    /// Outside a context the caller is the only thing running, so program
    /// order is the order: a wait that offers a key settles at once,
    /// whatever the other nodes' states say; one that offers none can never
    /// end and is refused with every node's state.
    #[test]
    fn outside_a_context_a_keyed_wait_settles_and_a_keyless_one_is_refused() {
        let sched = Rc::new(LockstepSched::new(3));
        sched.mark_done(2);
        // Node 1 "running" with nothing on offer would hold node 0 back
        // inside a context; here nobody else can run.
        sched.request_transmit(0, 1, Ns(1_001));
        assert_eq!(sched.park(0, Some(Ns(999))), Wait::Deadline);
        assert!(
            sched.describe().contains("node 0: Running"),
            "settling leaves no trace"
        );
        let msg = panic_message(|| {
            let _ = sched.park(0, None);
        });
        assert!(msg.contains("node 0 waits"), "{msg}");
        assert!(msg.contains("outside a cluster context"), "{msg}");
        assert!(
            msg.contains("node 1: Running") && msg.contains("node 2: Done"),
            "{msg}"
        );
    }

    /// 64 contexts mixing transmits, deliveries, deadline waits and
    /// departures, drawn from a seeded generator: each seed releases in
    /// the same order on every run, and in a debug build every `next` and
    /// `block` checks the index against the scan it replaced.
    #[test]
    fn a_seeded_64_node_mix_double_runs_to_the_same_release_log() {
        use proptest::test_runner::TestRng;
        const N: usize = 64;
        fn release_log(seed: u64) -> Vec<String> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&log);
            cluster(N, move |node, sched| {
                let mut rng = TestRng::from_name(&format!("{seed}/{node}"));
                let mut draw = |n: u64| rng.next_u64() % n;
                let mut t = 0;
                for _ in 0..4 + draw(12) {
                    t += 1 + draw(500);
                    let peer = (node + 1 + draw(N as u64 - 1) as usize) % N;
                    let what = match draw(2) {
                        0 => {
                            sched.request_transmit(node, peer, Ns(t));
                            sched.deliver(peer);
                            format!("tx {peer}")
                        }
                        _ => format!("{:?}", sched.park(node, Some(Ns(t)))),
                    };
                    sink.borrow_mut().push(format!("{node}@{t}: {what}"));
                }
            });
            log.take()
        }
        for seed in 1..=3 {
            let log = release_log(seed);
            for what in ["tx", "Got", "Deadline"] {
                let seen = log.iter().any(|l| l.contains(what));
                assert!(seen, "seed {seed}: no {what}");
            }
            assert_eq!(log, release_log(seed), "seed {seed}");
        }
    }

    /// Every node waiting and no key on offer: the run names every node's
    /// state instead of hanging.
    #[test]
    fn a_cluster_that_cannot_move_is_a_diagnosis() {
        let msg = panic_message(|| {
            cluster(3, |node, sched| match node {
                0 => {}
                _ => drop(sched.park(node, None)),
            })
        });
        assert!(msg.starts_with("lockstep deadlock"), "{msg}");
        assert!(msg.contains("contexts [1, 2] have not finished"), "{msg}");
        assert!(msg.contains("node 0: Done"), "{msg}");
        assert!(msg.contains("node 1: Parked { deadline: None }"), "{msg}");
    }
}
