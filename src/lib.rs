//! # treadmarks-gm — TreadMarks over GM on Myrinet, reproduced in Rust
//!
//! Facade crate re-exporting the whole reproduction of *"Implementing
//! TreadMarks over GM on Myrinet: Challenges, Design Experience, and
//! Performance Evaluation"* (Noronha & Panda, IPDPS 2003):
//!
//! * [`sim`] — virtual-time engine and the calibrated cost model
//! * [`myrinet`] — simulated Myrinet-2000 fabric + LANai NIC
//! * [`gm`] — the GM user-level message layer (ports, preposted
//!   buffers by size class, registered memory, send tokens)
//! * [`udp`] — the kernel sockets/UDP baseline (UDP/GM) and its binding
//!   to TreadMarks
//! * [`fast`] — FAST/GM, the paper's substrate (+ the cluster runners)
//! * [`tmk`] — the TreadMarks lazy-release-consistency DSM runtime
//! * [`apps`] — SOR, Jacobi, TSP and 3D-FFT with sequential references
//!
//! ## Quick taste
//!
//! ```
//! use std::sync::Arc;
//! use treadmarks_gm::fast::{run_fast_dsm, FastConfig};
//! use treadmarks_gm::sim::SimParams;
//! use treadmarks_gm::tmk::TmkConfig;
//!
//! let params = Arc::new(SimParams::paper_testbed());
//! let cfg = FastConfig::paper(&params);
//! let out = run_fast_dsm(2, params, cfg, TmkConfig::default(), |tmk| {
//!     let r = tmk.malloc(4096);
//!     if tmk.proc_id() == 0 {
//!         tmk.set_u32(r, 0, 7);
//!     }
//!     tmk.barrier(1);
//!     tmk.get_u32(r, 0)
//! });
//! assert!(out.iter().all(|o| o.result == 7));
//! ```

pub use tm_apps as apps;
pub use tm_fast as fast;
pub use tm_gm as gm;
pub use tm_myrinet as myrinet;
pub use tm_sim as sim;
pub use tm_udp as udp;
pub use tmk;
