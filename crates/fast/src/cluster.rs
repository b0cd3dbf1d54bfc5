//! Cluster runners: spawn an n-node DSM cluster over a chosen transport.
//!
//! These are the entry points the examples, integration tests and the
//! experiment harness all use: one closure, run on every node, with a
//! ready [`Tmk`] runtime bound to FAST/GM or UDP/GM.

use std::sync::Arc;

use tm_gm::gm_cluster;
use tm_myrinet::Fabric;
use tm_sim::runner::NodeOutcome;
use tm_sim::{run_cluster_with, SimParams};
use tm_udp::UdpSubstrate;
use tmk::{Tmk, TmkConfig};

use crate::substrate::{FastConfig, FastSubstrate};

/// Which communication subsystem to bind TreadMarks to — the paper's two
/// contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// FAST/GM: the paper's substrate.
    Fast,
    /// UDP/GM: sockets over GM (the baseline).
    Udp,
}

impl Transport {
    pub fn label(self) -> &'static str {
        match self {
            Transport::Fast => "FAST/GM",
            Transport::Udp => "UDP/GM",
        }
    }
}

/// Run `body` on an `n`-node FAST/GM cluster.
pub fn run_fast_dsm<R, F>(
    n: usize,
    params: Arc<SimParams>,
    fast_cfg: FastConfig,
    tmk_cfg: TmkConfig,
    body: F,
) -> Vec<NodeOutcome<R>>
where
    R: 'static,
    F: Fn(&mut Tmk<FastSubstrate>) -> R + 'static,
{
    let (_fabric, board, nics) = gm_cluster(n, Arc::clone(&params));
    run_cluster_with(params, nics, move |env, nic| {
        let sub = FastSubstrate::new(
            nic,
            env.clock.clone(),
            Arc::clone(&env.params),
            Arc::clone(&board),
            fast_cfg.clone(),
        );
        let mut tmk = Tmk::new(sub, tmk_cfg.clone());
        let r = body(&mut tmk);
        tmk.exit();
        r
    })
}

/// Run `body` on an `n`-node UDP/GM cluster.
pub fn run_udp_dsm<R, F>(
    n: usize,
    params: Arc<SimParams>,
    tmk_cfg: TmkConfig,
    body: F,
) -> Vec<NodeOutcome<R>>
where
    R: 'static,
    F: Fn(&mut Tmk<UdpSubstrate>) -> R + 'static,
{
    let (_fabric, nics) = Fabric::new(n, Arc::clone(&params));
    run_cluster_with(params, nics, move |env, nic| {
        let sub = UdpSubstrate::new(nic, env.clock.clone(), Arc::clone(&env.params));
        let mut tmk = Tmk::new(sub, tmk_cfg.clone());
        let r = body(&mut tmk);
        tmk.exit();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_cluster_runs_hello() {
        let params = Arc::new(SimParams::paper_testbed());
        let cfg = FastConfig::paper(&params);
        let out = run_fast_dsm(4, params, cfg, TmkConfig::default(), |tmk| {
            let r = tmk.malloc(4096);
            if tmk.proc_id() == 0 {
                tmk.set_u32(r, 0, 99);
            }
            tmk.barrier(1);
            tmk.get_u32(r, 0)
        });
        assert!(out.iter().all(|o| o.result == 99));
    }

    #[test]
    fn udp_cluster_runs_hello() {
        let params = Arc::new(SimParams::paper_testbed());
        let out = run_udp_dsm(4, params, TmkConfig::default(), |tmk| {
            let r = tmk.malloc(4096);
            if tmk.proc_id() == 0 {
                tmk.set_u32(r, 0, 77);
            }
            tmk.barrier(1);
            tmk.get_u32(r, 0)
        });
        assert!(out.iter().all(|o| o.result == 77));
    }

    fn work_body<S: tmk::Substrate>(tmk: &mut Tmk<S>) -> u32 {
        let r = tmk.malloc(4096 * 8);
        tmk.barrier(0);
        for it in 0..5u32 {
            if tmk.proc_id() == 0 {
                for i in 0..512 {
                    tmk.set_u32(r, i, it * 1000 + i as u32);
                }
            }
            tmk.barrier(100 + 2 * it);
            let v = tmk.get_u32(r, 511);
            assert_eq!(v, it * 1000 + 511);
            // Second barrier: readers finish before the next epoch's
            // writes begin (race-free, as TreadMarks programs must be).
            tmk.barrier(101 + 2 * it);
        }
        1
    }

    #[test]
    fn fast_work_only() {
        let params = Arc::new(SimParams::paper_testbed());
        let cfg = FastConfig::paper(&params);
        let out = run_fast_dsm(4, params, cfg, TmkConfig::default(), work_body);
        assert!(out.iter().all(|o| o.result == 1));
    }

    #[test]
    fn udp_work_only() {
        let params = Arc::new(SimParams::paper_testbed());
        let out = run_udp_dsm(4, params, TmkConfig::default(), work_body);
        assert!(out.iter().all(|o| o.result == 1));
    }

    #[test]
    fn fast_beats_udp_on_the_same_workload() {
        let params = Arc::new(SimParams::paper_testbed());
        let cfg = FastConfig::paper(&params);
        let fast = run_fast_dsm(4, Arc::clone(&params), cfg, TmkConfig::default(), work_body);
        let udp = run_udp_dsm(4, Arc::clone(&params), TmkConfig::default(), work_body);
        let tf = tm_sim::runner::cluster_time(&fast);
        let tu = tm_sim::runner::cluster_time(&udp);
        assert!(
            tu > tf,
            "UDP/GM ({tu}) should be slower than FAST/GM ({tf})"
        );
    }
}
