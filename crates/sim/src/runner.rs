//! Cluster runner: one OS thread per simulated node.
//!
//! The runner knows nothing about transports or DSM — it only hands each
//! node thread its identity and a fresh [`SharedClock`], runs the node body,
//! and joins the per-node results. Higher layers (tm-fast, tmk, tm-bench)
//! build their per-node state inside the body closure.
//!
//! # Placement
//!
//! A lockstep cluster's node threads share **one CPU**: the one the caller
//! of [`run_cluster`] was on at entry. The scheduler hands the cluster from
//! one node to the next, so a second core buys a cross-core wake-up per
//! hand-off and nothing else — measured on four workloads, all-core lockstep
//! was 1.3–4.3× slower than one-CPU lockstep (DESIGN.md, "One CPU"). The
//! CPU is derived, not configured: it lies inside the caller's affinity mask
//! by construction, so concurrent clusters (parallel `cargo test`) spread
//! over the host the way their callers do, and a caller already confined to
//! one CPU keeps it. Only the node threads are confined, each by itself;
//! the caller's mask is never touched. Free-run clusters are not confined —
//! they are the regime that uses the cores. Placement carries no
//! correctness: off Linux, or if the kernel refuses, the cluster runs
//! wherever the caller may.

use std::sync::Arc;
use std::thread;

use crate::clock::{shared_clock, SharedClock};
use crate::params::SimParams;
use crate::sched::SchedMode;
use crate::stats::NodeStats;
use crate::time::Ns;

/// Identity and environment handed to each node thread.
pub struct NodeEnv {
    /// This node's id in `0..nprocs`.
    pub id: usize,
    /// Cluster size.
    pub nprocs: usize,
    /// The node's virtual clock (node-thread local).
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

/// The CPU the calling thread is executing on, where the host can say.
fn current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
        }
        // SAFETY: takes no arguments and touches no memory of ours.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Confine the calling thread to `cpu`; `false` if the host cannot or the
/// kernel will not.
fn confine_self(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_ulong;
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const c_ulong) -> i32;
        }
        // `cpu_set_t`: 1024 bits, CPU `c` is bit `c` counting from the
        // low bit of word 0.
        const BITS: usize = c_ulong::BITS as usize;
        let mut set = [0 as c_ulong; 1024 / BITS];
        let Some(word) = set.get_mut(cpu / BITS) else {
            return false;
        };
        *word = 1 << (cpu % BITS);
        // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Spawn `nprocs` node threads, run `body` on each, and join.
///
/// Under [`SchedMode::Lockstep`] every node thread first confines itself to
/// the CPU this call was entered on (module docs, "Placement").
///
/// The outcome vector is ordered by node id. Panics in any node are
/// propagated (a protocol deadlock shows up as a hung test, which is
/// intentional: blocking is real blocking).
pub fn run_cluster<R, F>(nprocs: usize, params: Arc<SimParams>, body: F) -> Vec<NodeOutcome<R>>
where
    R: Send + 'static,
    F: Fn(&NodeEnv) -> R + Send + Sync + 'static,
{
    assert!(nprocs >= 1, "cluster needs at least one node");
    let home = (params.sched == SchedMode::Lockstep)
        .then(current_cpu)
        .flatten();
    let body = Arc::new(body);
    let mut handles = Vec::with_capacity(nprocs);
    for id in 0..nprocs {
        let body = Arc::clone(&body);
        let params = Arc::clone(&params);
        handles.push(
            thread::Builder::new()
                .name(format!("node-{id}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    if let Some(cpu) = home {
                        confine_self(cpu);
                    }
                    let env = NodeEnv {
                        id,
                        nprocs,
                        clock: shared_clock(),
                        params,
                    };
                    let result = body(&env);
                    let clock = env.clock.borrow();
                    NodeOutcome {
                        id,
                        finish: clock.now(),
                        stats: clock.stats.clone(),
                        result,
                    }
                })
                .expect("spawn node thread"),
        );
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect()
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

    #[test]
    fn runs_all_nodes_and_orders_results() {
        let out = run_cluster(4, Arc::new(SimParams::default()), |env| {
            env.clock.borrow_mut().advance(Ns(100 * (env.id as u64 + 1)));
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
            env.clock.borrow_mut().compute(Ns(500));
        });
        let agg = cluster_stats(&out);
        assert_eq!(agg.compute_time, Ns(1000));
    }

    #[test]
    fn single_node_cluster_works() {
        let out = run_cluster(1, Arc::new(SimParams::default()), |_| 42u32);
        assert_eq!(out[0].result, 42);
    }

    /// The calling thread's affinity mask as the kernel prints it: `0-1`,
    /// `3`, `0,2-5`.
    #[cfg(target_os = "linux")]
    fn allowed() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        list.expect("no Cpus_allowed_list").trim().to_string()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn lockstep_nodes_share_the_callers_cpu_and_nobody_else_moves() {
        let masks = |params: &Arc<SimParams>| -> Vec<String> {
            let out = run_cluster(5, Arc::clone(params), |_| allowed());
            out.into_iter().map(|o| o.result).collect()
        };
        let lockstep = Arc::new(SimParams::lockstep_testbed());
        let freerun = Arc::new(SimParams::paper_testbed());
        // On a thread of our own, so that confining the caller below
        // cannot leak into whatever the harness runs on this one next.
        thread::spawn(move || {
            let mine = allowed();
            let (before, nodes, after) = (current_cpu(), masks(&lockstep), current_cpu());
            let cpu: usize = nodes[0].parse().expect("exactly one CPU in a node's mask");
            assert!(
                nodes.iter().all(|m| *m == nodes[0]),
                "nodes disagree: {nodes:?}"
            );
            let in_mine = mine.split(',').any(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                (lo.parse().unwrap()..=hi.parse().unwrap()).contains(&cpu)
            });
            assert!(in_mine, "CPU {cpu} is outside the caller's mask {mine}");
            if before == after {
                assert_eq!(Some(cpu), before, "not the CPU the caller entered on");
            }
            assert_eq!(allowed(), mine, "lockstep run changed the caller's mask");

            assert!(
                masks(&freerun).iter().all(|m| *m == mine),
                "free-run nodes moved"
            );
            assert_eq!(allowed(), mine, "free-run run changed the caller's mask");

            // A caller already confined to one CPU: the nodes join it there.
            assert!(confine_self(cpu));
            assert!(masks(&lockstep).iter().all(|m| *m == cpu.to_string()));
            assert_eq!(allowed(), cpu.to_string());
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        run_cluster(0, Arc::new(SimParams::default()), |_| ());
    }
}
