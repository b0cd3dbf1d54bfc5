//! Cluster runner: one node body per simulated node, joined into per-node
//! outcomes.
//!
//! The runner knows nothing about transports or DSM — it only hands each
//! node body its identity and a fresh [`SharedClock`], runs it, and
//! collects the per-node results. Higher layers (tm-fast, tmk, tm-bench)
//! build their per-node state inside the body closure.
//!
//! # One thread
//!
//! The nodes are cooperatively switched contexts on the *caller's* thread
//! ([`crate::context`]): the scheduler ([`crate::sched`]) releases one
//! event at a time, so threads would buy no parallelism, only a kernel
//! hand-off per event and a wall-clock order no run could reproduce. A
//! node body therefore must not block in the operating system (a sleep, a
//! lock another node holds): the node that would unblock it shares the
//! thread. Blocking in a node's [`crate::mailbox::Mailbox`] — under a
//! `NicHandle` or a `MemSubstrate` — is what suspends a context. The types
//! hold the rule: mailboxes, the scheduler and the node clocks are
//! `Rc`/`RefCell` data, so no bound here asks for `Send` or `Sync` and a
//! cluster's state cannot be handed to another thread. What does cross
//! threads is plain data — [`SimParams`] going in, [`NodeOutcome`]s coming
//! out. Cores are for independent clusters: each `run_cluster` call is
//! confined to its thread, so any number may run side by side.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::clock::{shared_clock, SharedClock};
use crate::context;
use crate::params::SimParams;
use crate::stats::NodeStats;
use crate::time::Ns;

/// Stack of one node body: application kernels recurse and keep
/// page-sized buffers on it.
pub const NODE_STACK: usize = 16 << 20;

/// Identity and environment handed to each node body.
pub struct NodeEnv {
    /// This node's id in `0..nprocs`.
    pub id: usize,
    /// Cluster size.
    pub nprocs: usize,
    /// The node's virtual clock (node local).
    pub clock: SharedClock,
    /// The shared cost model.
    pub params: Arc<SimParams>,
}

/// Result of one node's run.
pub struct NodeOutcome<R> {
    pub id: usize,
    /// The node's final virtual time.
    pub finish: Ns,
    pub stats: NodeStats,
    pub result: R,
}

/// Run `body` once per node, as `nprocs` contexts on this thread (module
/// docs), and collect the outcomes, ordered by node id.
///
/// A node body's panic is re-raised here with its own payload; a protocol
/// deadlock is a panic naming every node's state. A `run_cluster` inside a
/// node body is rejected.
///
/// # Panics
///
/// Off Linux on x86_64 / aarch64, naming the target: the context switch
/// ([`crate::context`]) exists for those two only.
pub fn run_cluster<R, F>(nprocs: usize, params: Arc<SimParams>, body: F) -> Vec<NodeOutcome<R>>
where
    R: 'static,
    F: Fn(&NodeEnv) -> R + 'static,
{
    run_cluster_with(params, vec![(); nprocs], move |env, ()| body(env))
}

/// [`run_cluster`] for `parts.len()` nodes, handing node *i* the value
/// `parts[i]` to own: its NIC handle, its endpoint — whatever was built for
/// it before the cluster started.
pub fn run_cluster_with<P, R, F>(
    params: Arc<SimParams>,
    parts: Vec<P>,
    body: F,
) -> Vec<NodeOutcome<R>>
where
    P: 'static,
    R: 'static,
    F: Fn(&NodeEnv, P) -> R + 'static,
{
    let nprocs = parts.len();
    assert!(nprocs >= 1, "cluster needs at least one node");
    let parts = RefCell::new(parts.into_iter().map(Some).collect::<Vec<_>>());
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&outcomes);
    context::run(nprocs, NODE_STACK, move |id| {
        let part = parts.borrow_mut()[id].take().expect("part taken twice");
        let env = NodeEnv {
            id,
            nprocs,
            clock: shared_clock(),
            params: Arc::clone(&params),
        };
        let result = body(&env, part);
        let clock = env.clock.borrow();
        sink.borrow_mut().push(NodeOutcome {
            id,
            finish: clock.now(),
            stats: clock.stats.clone(),
            result,
        });
    });
    let mut outcomes = outcomes.take();
    outcomes.sort_by_key(|o| o.id);
    outcomes
}

/// The paper reports "execution time" as the time of the slowest node.
pub fn cluster_time<R>(outcomes: &[NodeOutcome<R>]) -> Ns {
    outcomes.iter().map(|o| o.finish).max().unwrap_or(Ns::ZERO)
}

/// Aggregate all nodes' stats.
pub fn cluster_stats<R>(outcomes: &[NodeOutcome<R>]) -> NodeStats {
    let mut total = NodeStats::default();
    for o in outcomes {
        total.merge(&o.stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::panic_message;

    #[test]
    fn runs_all_nodes_and_orders_results() {
        let out = run_cluster(4, Arc::new(SimParams::default()), |env| {
            env.clock
                .borrow_mut()
                .advance(Ns(100 * (env.id as u64 + 1)));
            env.id * 10
        });
        assert_eq!(out.len(), 4);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.id, i);
            assert_eq!(o.result, i * 10);
            assert_eq!(o.finish, Ns(100 * (i as u64 + 1)));
        }
        assert_eq!(cluster_time(&out), Ns(400));
    }

    #[test]
    fn stats_are_collected() {
        let out = run_cluster(2, Arc::new(SimParams::default()), |env| {
            env.clock.borrow_mut().advance(Ns(500));
        });
        let agg = cluster_stats(&out);
        assert_eq!(agg.protocol_time, Ns(1000));
    }

    #[test]
    fn single_node_cluster_works() {
        let out = run_cluster(1, Arc::new(SimParams::default()), |_| 42u32);
        assert_eq!(out[0].result, 42);
    }

    #[test]
    fn nodes_are_contexts_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let out = run_cluster(3, Arc::new(SimParams::default()), |_| {
            (std::thread::current().id(), context::current())
        });
        let whereabouts: Vec<_> = out.into_iter().map(|o| o.result).collect();
        assert_eq!(
            whereabouts,
            [(caller, Some(0)), (caller, Some(1)), (caller, Some(2))]
        );
        assert_eq!(context::current(), None);
    }

    #[test]
    fn a_node_panic_leaves_run_cluster_with_its_own_payload() {
        let msg = panic_message(|| {
            run_cluster(3, Arc::new(SimParams::default()), |env| {
                assert!(env.id != 1, "node {} says no", env.id)
            });
        });
        assert_eq!(msg, "node 1 says no");
    }

    #[test]
    fn a_cluster_inside_a_node_body_is_rejected() {
        let msg = panic_message(|| {
            run_cluster(1, Arc::new(SimParams::default()), |env| {
                run_cluster(1, Arc::clone(&env.params), |_| ());
            });
        });
        assert!(msg.contains("nested lockstep cluster"), "{msg}");
    }

    #[test]
    fn zero_nodes_and_empty_parts_are_rejected() {
        let params = Arc::new(SimParams::default());
        let p = Arc::clone(&params);
        let msg = panic_message(|| drop(run_cluster(0, p, |_| ())));
        assert!(msg.contains("at least one node"), "{msg}");
        let msg = panic_message(|| drop(run_cluster_with(params, Vec::<u8>::new(), |_, _| ())));
        assert!(msg.contains("at least one node"), "{msg}");
    }

    /// Node *i* owns `parts[i]`; a part needs to be neither `Clone` nor
    /// `Send`.
    #[test]
    fn each_node_is_handed_its_own_part() {
        struct Part(Rc<usize>);
        let parts = (0..4).map(|i| Part(Rc::new(i * 7))).collect();
        let out = run_cluster_with(Arc::new(SimParams::default()), parts, |env, part: Part| {
            assert_eq!(env.nprocs, 4);
            Rc::try_unwrap(part.0).expect("sole owner")
        });
        let got: Vec<_> = out.iter().map(|o| (o.id, o.result)).collect();
        assert_eq!(got, [(0, 0), (1, 7), (2, 14), (3, 21)]);
    }

    /// A node body may capture thread-bound state: here an `Rc` log of the
    /// order the scheduler releases three deadlines in, latest node first.
    #[test]
    fn a_node_body_may_capture_unsendable_state() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let (sink, sched) = (
            Rc::clone(&log),
            Rc::new(crate::sched::LockstepSched::new(3)),
        );
        run_cluster(3, Arc::new(SimParams::default()), move |env| {
            sched.park(env.id, Some(Ns(30 - 10 * env.id as u64)));
            sink.borrow_mut().push(env.id);
            sched.mark_done(env.id);
        });
        assert_eq!(*log.borrow(), [2, 1, 0]);
    }
}
