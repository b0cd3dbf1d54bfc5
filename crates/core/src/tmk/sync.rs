//! Synchronization: distributed locks and barriers.
//!
//! Locks have statically assigned managers (`lock % nprocs`) and a
//! migrating token: the manager forwards an acquire to its owner hint,
//! the owner grants at release, and direct (manager-owned) vs. indirect
//! (third-node) acquisition are exactly the two cases of the paper's
//! Lock microbenchmark.
//!
//! The barrier is one gather-broadcast tree rooted at node 0, of the
//! radix [`TmkConfig::barrier_algo`](super::TmkConfig) names: a node waits
//! for one arrival per child subtree, merges them with its own state
//! (record union, vector-clock meet and join) into one combined arrival
//! for its parent, and on release fans it back down to its children. One
//! vocabulary carries every radix: a `BarrierArrive` carries the subtree's
//! floor (meet) only when it differs from its ceiling (join), so a
//! childless node's arrival is the paper's, and every release is a
//! `BarrierRelease`. The paper's centralized manager is the radix n−1
//! case — every other node a childless child of the root — and
//! [`BarrierAlgo::Centralized`](super::BarrierAlgo) is that tree, byte for
//! byte.
//!
//! This layer calls down into coherence (flush/apply intervals at every
//! synchronization point, epoch GC after barriers) and rpc (moving
//! grants, arrivals and releases — every frame leaves through rpc's reply
//! path, which also keeps the replay records).

use std::collections::VecDeque;

use tm_sim::Ns;

use super::reliable::Class;
use super::{Tmk, TmkEvent};
use crate::interval::IntervalRecord;
use crate::protocol::{
    acquire_len, arrive_len, encode_acquire, encode_arrive, encode_grant, grant_len, Response,
};
use crate::substrate::Substrate;
use crate::vc::VectorClock;
use crate::wire::{pool, WireWriter};

pub(super) struct LockState {
    /// Manager's record of who holds (or will next hold) the token.
    owner_hint: u16,
    have_token: bool,
    busy: bool,
    /// Requests waiting for our release: (requester, rid, their vc).
    waiting: VecDeque<(u16, u32, VectorClock)>,
}

/// A child subtree's barrier arrival: its rid, coverage floor and coverage
/// ceiling — the meet and join over the whole subtree. The floor is `None`
/// when it is the ceiling (always so for a childless child). The release
/// back to the child carries every record newer than the floor; the
/// ceilings merge into the global barrier time.
type Arrival = (u32, Option<VectorClock>, VectorClock);

/// The barrier this node is in, or will be in when its first arrival (its
/// own or a child's) comes. One value for the node's life: its slots are
/// emptied as the releases go out.
#[derive(Default)]
pub(super) struct BarrierEpisode {
    /// Barrier id of this episode, `None` until something arrives —
    /// mismatched ids are a program error (different nodes waiting at
    /// different barriers) and panic loudly instead of deadlocking.
    id: Option<u32>,
    /// One slot per tree child, in child order: its arrival, once it came.
    clients: Vec<Option<Arrival>>,
    /// Records collected from arrivals, noticed at departure (the manager
    /// must not invalidate its own pages before it reaches the barrier).
    records: Vec<IntervalRecord>,
}

impl BarrierEpisode {
    pub(super) fn new(children: usize) -> Self {
        BarrierEpisode {
            clients: vec![None; children],
            ..Self::default()
        }
    }

    /// Join barrier `id`: the episode takes the id of its first arrival,
    /// and every later one (`who`, ourselves or a child) must name it.
    fn join(&mut self, who: usize, id: u32) {
        let b = *self.id.get_or_insert(id);
        assert_eq!(b, id, "node {who} arrived at barrier {id}, episode is {b}");
    }
}

impl<S: Substrate> Tmk<S> {
    fn lock_manager(&self, lock: u32) -> u16 {
        (lock as usize % self.n) as u16
    }

    fn ensure_lock(&mut self, lock: u32) {
        while self.locks.len() <= lock as usize {
            let id = self.locks.len() as u32;
            let mgr = self.lock_manager(id);
            self.locks.push(LockState {
                owner_hint: mgr,
                have_token: self.me == mgr,
                busy: false,
                waiting: VecDeque::new(),
            });
        }
    }

    // ----- request handlers (dispatched by rpc::serve) ----------------------

    /// An `Acquire` reached us as this lock's manager: the requester
    /// becomes the owner hint. If the hint was us, we hold the token (or
    /// it is on its way to us) and serve the acquire as a forwarded one —
    /// grant now or queue; else we forward it to the hinted owner.
    pub(super) fn serve_acquire(
        &mut self,
        from: usize,
        rid: u32,
        lock: u32,
        vc: VectorClock,
        arrival: Ns,
        cost: Ns,
    ) {
        self.ensure_lock(lock);
        debug_assert_eq!(
            self.lock_manager(lock),
            self.me,
            "acquire sent to non-manager"
        );
        let requester = from as u16;
        let owner = std::mem::replace(&mut self.locks[lock as usize].owner_hint, requester);
        if owner == self.me {
            self.serve_acquire_fwd(lock, requester, rid, vc, arrival, cost);
        } else {
            // The requester stays blocked until the owner grants.
            let fwd_rid = self.rid();
            let mut w = WireWriter::pooled(acquire_len(&vc, true));
            encode_acquire(fwd_rid, lock, &vc, Some((requester, rid)), &mut w);
            self.forward(owner as usize, w, arrival, cost);
            self.clocks.push(vc);
        }
    }

    /// A forwarded acquire reached us as the token's owner: grant now if
    /// the token is free, else queue until our release.
    pub(super) fn serve_acquire_fwd(
        &mut self,
        lock: u32,
        requester: u16,
        orig_rid: u32,
        vc: VectorClock,
        arrival: Ns,
        mut cost: Ns,
    ) {
        self.ensure_lock(lock);
        let ls = &mut self.locks[lock as usize];
        if ls.have_token && !ls.busy {
            let (w, c) = self.make_grant(orig_rid, lock, &vc);
            cost += c;
            self.clocks.push(vc);
            self.locks[lock as usize].have_token = false;
            self.respond_wire(requester as usize, w, arrival, cost);
            self.emit(TmkEvent::LockGranted {
                lock,
                to: requester,
            });
        } else {
            ls.waiting.push_back((requester, orig_rid, vc));
            self.charge_service(arrival, cost);
            self.note_pending();
        }
    }

    /// A child's barrier arrival reached us as its tree parent. An arrival
    /// without a floor is one whose floor is its ceiling `vc`. Nothing is
    /// incorporated until our own departure.
    // The parameter list mirrors the BarrierArrive wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn serve_tree_arrive(
        &mut self,
        from: usize,
        rid: u32,
        barrier: u32,
        floor: Option<VectorClock>,
        vc: VectorClock,
        records: Vec<IntervalRecord>,
        arrival: Ns,
        cost: Ns,
    ) {
        debug_assert!(
            self.tree_children().contains(&from),
            "barrier arrival from {from}, not a child of {}",
            self.me
        );
        self.barrier.join(from, barrier);
        let nrec = records.len() as u64;
        self.stash_barrier_records(records);
        let slot = from - self.tree_children().start;
        self.barrier.clients[slot] = Some((rid, floor, vc));
        self.charge_service(arrival, cost + Ns(200 * nrec));
        self.note_pending();
    }

    /// Stash arrival records for departure. The combining node must not
    /// incorporate arrivals' intervals (records OR vector time) before its
    /// own release: doing so would make its interim lock grants claim
    /// coverage of write notices it never forwarded.
    fn stash_barrier_records(&mut self, records: Vec<IntervalRecord>) {
        for rec in records {
            let (node, seq) = (rec.node(), rec.seq());
            let stashed = self
                .barrier
                .records
                .iter()
                .any(|r| r.node() == node && r.seq() == seq);
            if !stashed && !self.log.contains(node, seq) {
                self.barrier.records.push(rec);
            }
        }
    }

    /// Flush our interval and encode the grant, answering `rid`, that
    /// carries everything the requester's vector time shows it hasn't seen
    /// — straight from the log, into a frame of its size.
    fn make_grant(&mut self, rid: u32, lock: u32, rvc: &VectorClock) -> (WireWriter, Ns) {
        let flush_cost = self.flush_interval();
        let records = self.log.newer_than(rvc);
        let cost = flush_cost + Ns(200 * records.clone().count() as u64);
        let mut w = WireWriter::pooled(grant_len(true, &self.vc, records.clone()));
        encode_grant(rid, Some(lock), &self.vc, records, &mut w);
        (w, cost)
    }

    // ----- synchronization API ----------------------------------------------

    /// `Tmk_lock_acquire`.
    pub fn acquire(&mut self, lock: u32) {
        // Service anything pending first: a cached-token fast path must
        // not starve peers whose acquire was forwarded to us.
        self.poll_serve();
        self.ensure_lock(lock);
        let ls = &self.locks[lock as usize];
        if ls.have_token && !ls.busy {
            // Token cached locally: free re-acquire.
            self.locks[lock as usize].busy = true;
            self.clock().borrow_mut().advance(Ns(300));
            return;
        }
        assert!(
            !ls.busy,
            "node {} re-acquiring lock {lock} it holds",
            self.me
        );
        self.clock().borrow_mut().stats.remote_acquires += 1;
        let mgr = self.lock_manager(lock) as usize;
        let rid = self.rid();
        let (to, fwd) = if mgr == self.me as usize {
            // We are the manager but the token is elsewhere: forward
            // directly to the owner, under our own rid so the grant
            // correlates.
            let owner = std::mem::replace(&mut self.locks[lock as usize].owner_hint, self.me);
            debug_assert_ne!(owner, self.me);
            (owner as usize, Some((self.me, rid)))
        } else {
            (mgr, None)
        };
        // The request is encoded from our own clock.
        let mut w = WireWriter::pooled(acquire_len(&self.vc, fwd.is_some()));
        encode_acquire(rid, lock, &self.vc, fwd, &mut w);
        self.rpc_send(to, rid, w);
        let (granter, frame) = self.rpc_collect(rid);
        let (vc, records) = match self.answer(&frame) {
            Response::Grant {
                lock: l,
                vc,
                records,
            } if l == lock => (vc, records),
            other => panic!("expected a grant of lock {lock}, got {other:?}"),
        };
        let mut granted = std::mem::take(&mut self.granted);
        granted.extend(records.iter_in(&self.log));
        let cost = self.apply_records(&granted);
        self.vc.join_image(vc);
        self.clock().borrow_mut().advance(cost);
        let ls = &mut self.locks[lock as usize];
        ls.have_token = true;
        ls.busy = true;
        // Under the tuned profile the pages these records invalidate are
        // fetched *now*, as one concurrent batch, instead of one fault
        // round-trip at a time inside the critical section — acquire
        // latency becomes max(grant, fetch) rather than their sum — and a
        // page the granter's clock covers may come from the granter whole.
        if self.cfg.profile == super::Profile::Tuned {
            self.pipeline_fetch(&granted, granter as u16, vc);
        }
        pool::give(frame);
        granted.clear();
        self.granted = granted;
    }

    /// `Tmk_lock_release`.
    pub fn release(&mut self, lock: u32) {
        self.poll_serve();
        self.ensure_lock(lock);
        assert!(
            self.locks[lock as usize].busy,
            "node {} releasing lock {lock} it doesn't hold",
            self.me
        );
        self.locks[lock as usize].busy = false;
        self.clock().borrow_mut().advance(Ns(300));
        self.grant_waiting(lock);
    }

    /// Hand the token to the next queued requester, if any.
    fn grant_waiting(&mut self, lock: u32) {
        let ls = &mut self.locks[lock as usize];
        if !ls.have_token || ls.busy {
            return;
        }
        let Some((requester, rid, rvc)) = ls.waiting.pop_front() else {
            return;
        };
        let (w, cost) = self.make_grant(rid, lock, &rvc);
        self.clocks.push(rvc);
        self.locks[lock as usize].have_token = false;
        self.respond_now(Class::Acquire, requester as usize, rid, w, cost);
        self.emit(TmkEvent::LockGranted {
            lock,
            to: requester,
        });
    }

    // ----- barrier tree topology --------------------------------------------

    /// Combining radix: the most children a tree node has. The centralized
    /// algorithm is the one-level tree, every other node a child of the
    /// root.
    fn tree_radix(&self) -> usize {
        match self.cfg.barrier_algo {
            super::BarrierAlgo::Centralized => (self.n - 1).max(1),
            super::BarrierAlgo::Tree { radix } => radix.max(1) as usize,
        }
    }

    /// Our parent in the tree (`None` at the root, node 0).
    fn tree_parent(&self) -> Option<usize> {
        let me = self.me as usize;
        (me != 0).then(|| (me - 1) / self.tree_radix())
    }

    /// Our direct children (empty for a leaf).
    pub(super) fn tree_children(&self) -> std::ops::Range<usize> {
        let (k, me) = (self.tree_radix(), self.me as usize);
        (k * me + 1).min(self.n)..(k * me + k + 1).min(self.n)
    }

    // ----- barrier ----------------------------------------------------------

    /// `Tmk_barrier`.
    pub fn barrier(&mut self, id: u32) {
        let flush_cost = self.flush_interval();
        self.clock().borrow_mut().advance(flush_cost);
        self.clock().borrow_mut().stats.barriers += 1;
        self.barrier_tree(id);
    }

    /// Serve-while-waiting until every child subtree has arrived. Runs on
    /// the overlapped engine's one blocking step:
    /// requests keep being dispatched (in virtual-arrival order) — lock
    /// traffic and late subtree arrivals must make progress while we
    /// wait. An arrival gathered during a preceding collect was served
    /// inside it, so a childless node passes straight through. No rid is
    /// outstanding here, so any non-duplicate response is a protocol error
    /// (the engine's stale discard panics on reliable transports and
    /// counts on lossy ones).
    fn barrier_wait_arrivals(&mut self) {
        let arrived = |t: &mut Self| t.barrier.clients.iter().all(Option::is_some).then_some(());
        while self.wait_step(arrived).is_continue() {}
    }

    /// The barrier, for the root, interior nodes and leaves alike.
    fn barrier_tree(&mut self, id: u32) {
        debug_assert!(self.serve_q.is_empty(), "at a barrier with requests queued");
        self.barrier.join(self.me as usize, id);
        // Wait for one combined arrival per direct child subtree.
        self.barrier_wait_arrivals();
        // Every arrival is in: whatever arrives from here on is for the
        // next barrier. The child slots stay full until the releases go
        // out — no child can arrive again before its release.
        self.barrier.id = None;
        let mut records = std::mem::take(&mut self.barrier.records);
        // The one fork is where the release comes from. The root's episode
        // covers the whole cluster: it releases itself, with its clock
        // joined with every subtree's ceiling and the stashed records. Any
        // other node merges its children's arrivals with its own state into
        // one arrival for its parent and takes its parent's answer. Either
        // way no child's intervals are incorporated before this point.
        let (vc, mut records) = match self.tree_parent() {
            None => {
                let mut vc = self.copy_of_vc();
                for (_, _, ceiling) in self.barrier.clients.iter().flatten() {
                    vc.join(ceiling);
                }
                (vc, records)
            }
            Some(parent) => {
                // Subtree coverage floor (meet) and ceiling (join) over
                // ourselves and every child subtree.
                let mut floor = self.copy_of_vc();
                let mut ceiling = self.copy_of_vc();
                for (_, sub_floor, sub_ceiling) in self.barrier.clients.iter().flatten() {
                    floor.meet(sub_floor.as_ref().unwrap_or(sub_ceiling));
                    ceiling.join(sub_ceiling);
                }
                // Our own fresh records ride along with the stashed subtree
                // union (the log's records since the last barrier also
                // re-cover third-party intervals we learned through locks,
                // so nothing is lost to the stash dedup). The log holds each
                // (node, seq) once: only the stash can collide.
                let stashed = records.len();
                for rec in self.log.newer_than(&self.last_barrier_vc) {
                    let dup = |r: &IntervalRecord| r.node() == rec.node() && r.seq() == rec.seq();
                    if !records[..stashed].iter().any(dup) {
                        records.push(rec.clone());
                    }
                }
                // The arrival is encoded from these clocks and this list,
                // which go back to the spares once it is sent; the list then
                // holds the release's records.
                let rid = self.rid();
                let sent_floor = (floor != ceiling).then_some(&floor);
                let mut w = WireWriter::pooled(arrive_len(sent_floor, &ceiling, &records));
                encode_arrive(rid, id, sent_floor, &ceiling, &records, &mut w);
                self.rpc_send(parent, rid, w);
                self.clocks.extend([floor, ceiling]);
                records.clear();
                let (_, frame) = self.rpc_collect(rid);
                let vc = match self.answer(&frame) {
                    Response::BarrierRelease {
                        vc,
                        records: released,
                    } => {
                        records.extend(released.iter_in(&self.log));
                        let mut clock = self.spare_clock();
                        vc.copy_into(&mut clock);
                        clock
                    }
                    other => panic!("expected a barrier release, got {other:?}"),
                };
                pool::give(frame);
                (vc, records)
            }
        };
        let cost = self.apply_records(&records);
        // The list goes back to the episode before any child is released,
        // so the next barrier's arrivals are stashed in it.
        records.clear();
        self.barrier.records = records;
        self.vc.join(&vc);
        self.clock().borrow_mut().advance(cost);
        // Fan down before the epoch advances: newer_than against the
        // children's floors needs the pre-GC log.
        self.fan_release(&vc);
        self.epoch_gc(vc);
    }

    /// One of the spare clocks, or a new empty one if none is left.
    fn spare_clock(&mut self) -> VectorClock {
        self.clocks.pop().unwrap_or_else(|| VectorClock::new(0))
    }

    /// Our vector time, copied into a spare clock.
    fn copy_of_vc(&mut self) -> VectorClock {
        let mut c = self.spare_clock();
        c.clone_from(&self.vc);
        c
    }

    /// Release every child's arrival, emptying its slot: each gets the
    /// merged barrier time plus all records newer than its coverage floor,
    /// as the answer to its arrival. Its clocks go back to the spares.
    fn fan_release(&mut self, merged: &VectorClock) {
        let first = self.tree_children().start;
        for slot in 0..self.barrier.clients.len() {
            let (rid, floor, ceiling) = self.barrier.clients[slot]
                .take()
                .expect("every child arrived");
            let records = self.log.newer_than(floor.as_ref().unwrap_or(&ceiling));
            let mut w = WireWriter::pooled(grant_len(false, merged, records.clone()));
            encode_grant(rid, None, merged, records, &mut w);
            self.clocks.extend(floor);
            self.clocks.push(ceiling);
            // A lost release leaves the peer retransmitting its arrival;
            // its slot answers the duplicate.
            self.respond_now(Class::Barrier, first + slot, rid, w, Ns(500));
        }
    }

    /// Final synchronization before the node body returns: a barrier, so
    /// no peer is left blocked on us.
    ///
    /// On a lossy transport a node with tree children then lingers: a
    /// child whose exit release was lost keeps retransmitting its arrival,
    /// and only our record of it can answer it. The linger lasts until
    /// every child has said `Gone` (or falls quiet), and then we say
    /// `Gone` to our parent and wait for its answer — the tree drains
    /// bottom-up, leaves first, and no wait outlasts a quiet period.
    pub fn exit(&mut self) {
        self.barrier(u32::MAX);
        if self.rel.is_none() {
            return;
        }
        let children = self.tree_children();
        if !children.is_empty() {
            self.shutdown_linger(children);
        }
        if let Some(parent) = self.tree_parent() {
            self.say_gone(parent);
        }
    }
}

#[cfg(test)]
#[path = "sync_tests.rs"]
mod tests;
