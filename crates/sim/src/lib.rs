//! # tm-sim — virtual-time simulation engine
//!
//! The paper's evaluation ran on a 16-node Pentium-III / Myrinet-2000
//! cluster. That hardware does not exist here, so the entire reproduction
//! runs on a *virtual-time* substrate: every simulated node executes the
//! real DSM protocol code, as a context on the thread that called
//! [`run_cluster`], but time is a per-node logical clock advanced by
//! modeled costs instead of wall time, and which node moves next is
//! decided from those clocks alone — every run is byte-reproducible.
//!
//! The pieces:
//!
//! * [`Ns`] — the time unit (nanoseconds, `u64`).
//! * [`NodeClock`] — a per-node clock, and the [`AsyncScheme`]s that say
//!   when an asynchronous request reaches a busy node and at what cost (the
//!   central design point of the paper, §2.2.4).
//! * [`params`] — the calibrated cost model (Myrinet wire model, GM host
//!   overheads, UDP kernel-stack costs, DSM memory-management costs).
//! * [`stats`] — per-node event counters used by the experiment harness.
//! * [`runner`] — runs one body per node and collects the results.
//! * [`sched`] — the scheduler: one event at a time, minimum virtual key
//!   first, and only when no node is running.
//! * [`mailbox`] — the scheduler's one client: every node's inbox, and the
//!   one send and the one receive rule (a poll is a wait with deadline
//!   *now*) every transport goes through.
//! * [`context`] — the stackful contexts nodes run as: the one module in
//!   the workspace that is not safe Rust (CI greps for that).
//!
//! Nothing in this crate knows about GM, UDP, or TreadMarks; it is the
//! substrate everything else is built on.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod context;
pub mod faults;
pub mod mailbox;
pub mod params;
pub mod runner;
pub mod sched;
pub mod stats;
pub mod time;

pub use clock::{AsyncScheme, NodeClock, SharedClock};
pub use faults::FaultPlan;
pub use params::SimParams;
pub use runner::{run_cluster, run_cluster_with, NodeEnv};
pub use sched::Wait;
pub use stats::NodeStats;
pub use time::Ns;
