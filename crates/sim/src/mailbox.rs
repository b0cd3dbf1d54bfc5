//! Mailboxes: every node's inbox, and the scheduler's one client.
//!
//! A node's inbox holds one queue per *key* (a NIC port, a substrate
//! channel); its [`Mailbox`] is the node's end of it. Every transport
//! sends, waits and polls here and adds only its costs, so the rules by
//! which a message reaches a node are written once:
//!
//! * **Send** ([`Mailboxes::send`]): the injection waits until its
//!   `(virtual time, sender)` key is the cluster's minimum event
//!   ([`crate::sched`]); the caller's closure then lands the message
//!   (reserving its transport's links, with nothing else running), it is
//!   queued, and its receiver, if parked, is released. A message to the
//!   sender itself skips the scheduler: it is program order. A push into
//!   a closed inbox is counted, not an error: a powered-off host eats late
//!   traffic.
//! * **Wait** ([`Mailbox::wait`]): the one receive rule. Hand over the
//!   earliest message queued on the named keys that arrives by the
//!   deadline — a tie to the key declared first, then to the key first
//!   used. Otherwise park until a delivery or the deadline, whichever the
//!   scheduler orders first, and look again: a message queued past the
//!   deadline stays queued and does not end the wait, since an event keyed
//!   earlier may still land one due by then. A poll is this wait with
//!   deadline *now*; a transport adds only what its miss costs.
//! * **Close on drop**: dropping a [`Mailbox`] closes its inbox and marks
//!   the node done; that releases nobody. A node learns that a peer has
//!   left only from what the peer sent it.
//!
//! An inbox is borrowed for one queue operation, never across a park.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::sched::{LockstepSched, Wait};
use crate::time::Ns;

/// What a mailbox holds: anything that knows when it arrives.
pub trait Message {
    /// Virtual time at which the message is at its receiver.
    fn arrival(&self) -> Ns;
}

/// One queue per key: the declared keys, then the others in first use.
struct Inbox<M>(Vec<(u16, VecDeque<M>)>);

impl<M> Inbox<M> {
    /// The queue of `key`, allocated on first use.
    fn queue(&mut self, key: u16) -> &mut VecDeque<M> {
        let found = self.0.iter().position(|(k, _)| *k == key);
        let i = found.unwrap_or_else(|| {
            self.0.push((key, VecDeque::new()));
            self.0.len() - 1
        });
        &mut self.0[i].1
    }
}

/// Every inbox of one cluster and the scheduler that orders them. Shared
/// (`Rc`) by the cluster's [`Mailbox`]es and whatever transport sends into
/// them, it stays on the thread that built it:
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<tm_sim::mailbox::Mailboxes<u64>>();
/// ```
pub struct Mailboxes<M> {
    sched: Rc<LockstepSched>,
    /// Each node's inbox; `None` once its [`Mailbox`] has dropped.
    inboxes: Vec<RefCell<Option<Inbox<M>>>>,
    closed_pushes: Cell<u64>,
}

impl<M: Message> Mailboxes<M> {
    /// The mailboxes of an `n`-node cluster and one [`Mailbox`] per node.
    /// Every inbox starts with a queue for each of `keys`, in that order.
    pub fn new(n: usize, keys: &[u16]) -> (Rc<Mailboxes<M>>, Vec<Mailbox<M>>) {
        let inbox = || Inbox(keys.iter().map(|&k| (k, VecDeque::new())).collect());
        let boxes = Rc::new(Mailboxes {
            sched: Rc::new(LockstepSched::new(n)),
            inboxes: (0..n).map(|_| RefCell::new(Some(inbox()))).collect(),
            closed_pushes: Cell::new(0),
        });
        let ends = (0..n)
            .map(|node| Mailbox {
                node,
                boxes: Rc::clone(&boxes),
            })
            .collect();
        (boxes, ends)
    }

    /// How many messages found their receiver's inbox already closed.
    pub fn closed_pushes(&self) -> u64 {
        self.closed_pushes.get()
    }

    /// Send from `src` to `dst`'s queue `key`, injected at `inject`, the
    /// message built by `land` once the scheduler releases it (module
    /// docs). Returns its arrival.
    pub fn send(
        &self,
        (src, dst): (usize, usize),
        key: u16,
        inject: Ns,
        land: impl FnOnce() -> M,
    ) -> Ns {
        let wire = src != dst;
        if wire {
            self.sched.request_transmit(src, dst, inject);
        }
        let msg = land();
        let arrival = msg.arrival();
        match self.inboxes[dst].borrow_mut().as_mut() {
            Some(inbox) => inbox.queue(key).push_back(msg),
            None => {
                self.closed_pushes.set(self.closed_pushes.get() + 1);
                return arrival;
            }
        }
        if wire {
            self.sched.deliver(dst);
        }
        arrival
    }
}

/// A node's end of its cluster's [`Mailboxes`]: its inbox, read in place,
/// and its place in the scheduler.
pub struct Mailbox<M> {
    node: usize,
    boxes: Rc<Mailboxes<M>>,
}

impl<M: Message> Mailbox<M> {
    pub fn node(&self) -> usize {
        self.node
    }

    pub fn nprocs(&self) -> usize {
        self.boxes.inboxes.len()
    }

    /// [`Mailboxes::send`] from this node.
    pub fn send(&self, dst: usize, key: u16, inject: Ns, land: impl FnOnce() -> M) -> Ns {
        self.boxes.send((self.node, dst), key, inject, land)
    }

    fn inbox(&self) -> RefMut<'_, Inbox<M>> {
        RefMut::map(self.boxes.inboxes[self.node].borrow_mut(), |i| {
            i.as_mut().expect("closes when this mailbox drops")
        })
    }

    /// The front of `key`'s queue, whatever its arrival.
    pub fn pop(&self, key: u16) -> Option<M> {
        self.inbox().queue(key).pop_front()
    }

    /// Hand every message queued on `keys` to `take`, key by key in the
    /// order given, each queue in arrival order. Unlike [`Mailbox::pop`]
    /// it allocates no queue. `take` must not touch this node's inbox.
    pub fn drain(&self, keys: &[u16], mut take: impl FnMut(M)) {
        let mut inbox = self.inbox();
        for &key in keys {
            if let Some((_, q)) = inbox.0.iter_mut().find(|(k, _)| *k == key) {
                while let Some(msg) = q.pop_front() {
                    take(msg);
                }
            }
        }
    }

    /// Pop the earliest message queued on `keys` (every key when `None`)
    /// that arrives by `by`, the first queue winning a tie.
    fn earliest(&self, keys: Option<&[u16]>, by: Option<Ns>) -> Option<M> {
        let mut inbox = self.inbox();
        let named = |k: &u16| keys.is_none_or(|ks| ks.contains(k));
        let (i, arrival) = (inbox.0.iter().enumerate())
            .filter(|(_, (k, _))| named(k))
            .filter_map(|(i, (_, q))| Some((i, q.front()?.arrival())))
            .min_by_key(|&(_, arrival)| arrival)?;
        if by.is_some_and(|t| arrival > t) {
            return None;
        }
        inbox.0[i].1.pop_front()
    }

    /// The one receive (module docs): the earliest message on `keys`
    /// (every key when `None`) that arrives by `deadline`, or the deadline,
    /// whichever the scheduler orders first. `wait(keys, Some(now))` is a
    /// poll. A wait nothing can end is a panic naming every node's state.
    pub fn wait(&self, keys: Option<&[u16]>, deadline: Option<Ns>) -> Wait<M> {
        loop {
            if let Some(msg) = self.earliest(keys, deadline) {
                return Wait::Got(msg);
            }
            // On one thread nothing lands between the look and the park,
            // and a park that reaches its deadline saw nothing land.
            if self.boxes.sched.park(self.node, deadline) == Wait::Deadline {
                return Wait::Deadline;
            }
        }
    }
}

impl<M> Drop for Mailbox<M> {
    fn drop(&mut self) {
        self.boxes.inboxes[self.node].take();
        self.boxes.sched.mark_done(self.node);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::context::panic_message;
    use crate::{run_cluster_with, SimParams};

    #[derive(Debug, PartialEq)]
    struct Note {
        tag: &'static str,
        at: Ns,
    }

    impl Message for Note {
        fn arrival(&self) -> Ns {
            self.at
        }
    }

    /// A closure landing a note that arrives at `at`.
    fn note(tag: &'static str, at: Ns) -> impl FnOnce() -> Note {
        move || Note { tag, at }
    }

    fn queued(mb: &Mailbox<Note>, key: u16) -> usize {
        let inbox = mb.inbox();
        let queue = inbox.0.iter().find(|(k, _)| *k == key);
        queue.map_or(0, |(_, q)| q.len())
    }

    fn show(w: Wait<Note>) -> String {
        match w {
            Wait::Got(n) => format!("got {}", n.tag),
            Wait::Deadline => "deadline".into(),
        }
    }

    /// What each node of an `n`-node cluster returned from `body`.
    fn cluster<R: 'static>(n: usize, body: impl Fn(Mailbox<Note>) -> R + 'static) -> Vec<R> {
        let (_, ends) = Mailboxes::new(n, &[]);
        let out = run_cluster_with(Arc::new(SimParams::default()), ends, move |_, mb| body(mb));
        out.into_iter().map(|o| o.result).collect()
    }

    /// Selection follows virtual arrival, not queueing order; a tie goes
    /// to the key declared first, and between keys nobody declared, to
    /// the one first used.
    #[test]
    fn the_earliest_arrival_goes_first_a_tie_to_the_key_declared_first() {
        let (boxes, ends) = Mailboxes::new(2, &[7, 3]);
        for (key, tag, at) in [(11, "e", 20), (9, "f", 20), (3, "b", 5), (7, "a", 5)] {
            boxes.send((0, 1), key, Ns(0), note(tag, Ns(at)));
        }
        boxes.send((0, 1), 3, Ns(0), note("d", Ns(6)));
        let got: Vec<_> = (0..5).map(|_| show(ends[1].wait(None, None))).collect();
        assert_eq!(got, ["got a", "got b", "got d", "got e", "got f"]);
    }

    /// A wait or a poll on some keys leaves every other key's queue alone.
    #[test]
    fn only_the_named_keys_are_considered() {
        let (boxes, ends) = Mailboxes::new(2, &[]);
        boxes.send((0, 1), 7, Ns(0), note("other", Ns(1)));
        boxes.send((0, 1), 5, Ns(0), note("mine", Ns(2)));
        assert_eq!(show(ends[1].wait(Some(&[5]), None)), "got mine");
        assert_eq!(ends[1].wait(Some(&[5]), Some(Ns(9))), Wait::Deadline);
        assert_eq!(queued(&ends[1], 7), 1);
    }

    /// Node 1 holds a message due after its deadline while node 0's
    /// earlier-keyed send is still pending: the queued message does not
    /// end the wait, which parks, is handed node 0's message, and leaves
    /// the far one queued. (The far one has a key of its own: a queue is
    /// read from its front.)
    #[test]
    fn a_message_queued_past_the_deadline_does_not_end_the_wait() {
        let saw = cluster(2, |mb| match mb.node() {
            1 => {
                mb.send(1, 6, Ns(0), note("far", Ns::from_ms(10)));
                let w = show(mb.wait(Some(&[5, 6]), Some(Ns::from_us(100))));
                vec![w, format!("{} queued", queued(&mb, 6))]
            }
            _ => {
                mb.send(1, 5, Ns::from_us(1), note("near", Ns::from_us(2)));
                vec![]
            }
        });
        assert_eq!(saw[1], ["got near", "1 queued"]);
    }

    /// A poll — a wait with deadline *now* — settles its miss first: an
    /// earlier-keyed send lands and is seen; a later-keyed one is not, and
    /// waits for the next receive. Driven by hand, program order is the
    /// order.
    #[test]
    fn a_poll_miss_settles_before_it_is_final() {
        let saw = cluster(2, |mb| match mb.node() {
            1 => {
                let now = Some(Ns::from_us(50));
                let first = show(mb.wait(None, now));
                let second = show(mb.wait(None, now));
                vec![first, second, show(mb.wait(None, None))]
            }
            _ => {
                mb.send(1, 5, Ns::from_us(1), note("early", Ns::from_us(2)));
                mb.send(1, 5, Ns::from_us(60), note("late", Ns::from_us(61)));
                vec![]
            }
        });
        assert_eq!(saw[1], ["got early", "deadline", "got late"]);

        let (boxes, ends) = Mailboxes::new(2, &[]);
        boxes.send((0, 1), 5, Ns(0), note("x", Ns::from_us(5)));
        let poll = |now| show(ends[1].wait(None, Some(now)));
        assert_eq!(poll(Ns::from_us(4)), "deadline", "not arrived");
        assert_eq!(poll(Ns::from_us(5)), "got x");
    }

    /// A hand-driven wait that nothing can end — no message queued, no
    /// deadline — is a diagnosis, not a hang.
    #[test]
    fn a_hand_driven_wait_nothing_can_end_is_a_diagnosis() {
        let (_boxes, ends) = Mailboxes::<Note>::new(2, &[]);
        let msg = panic_message(|| {
            let _ = ends[1].wait(None, None);
        });
        assert!(
            msg.contains("node 1 waits") && msg.contains("outside a cluster context"),
            "{msg}"
        );
        assert!(msg.contains("node 0: Running"), "{msg}");
    }

    /// A message to a node that has dropped its mailbox is counted, not a
    /// panic; the dropped mailbox freed its queues and left the scheduler.
    #[test]
    fn a_send_into_a_closed_inbox_is_counted() {
        let (boxes, mut ends) = Mailboxes::new(2, &[]);
        drop(ends.remove(1));
        assert_eq!(boxes.closed_pushes(), 0);
        boxes.send((0, 1), 0, Ns(0), note("late", Ns(1)));
        assert_eq!(boxes.closed_pushes(), 1);
        assert!(
            boxes.inboxes[1].borrow().is_none(),
            "a closed inbox is gone"
        );
        let states = crate::context::Driver::describe(&*boxes.sched);
        assert!(states.contains("node 1: Done"), "{states}");
    }
}
