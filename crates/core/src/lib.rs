//! # tmk — the TreadMarks software DSM runtime
//!
//! A from-scratch implementation of the TreadMarks lazy release consistency
//! (LRC) protocol (Keleher et al. 1994; Amza et al. 1996), the system the
//! paper layers over GM. The runtime provides the classic Tmk API —
//! `malloc`/`distribute`, `barrier`, lock `acquire`/`release` — over any
//! transport implementing the [`Substrate`] trait; the paper's two
//! contenders are FAST/GM and UDP/GM (both in `tm-fast`).
//!
//! Protocol highlights, all implemented here:
//!
//! * **Vector timestamps & intervals** ([`vc`], [`interval`]): each node's
//!   execution is carved into intervals delimited by synchronization;
//!   write notices propagate lazily along the happens-before order.
//! * **Twins & diffs** ([`diff`], [`page`]): a write in an interval first
//!   copies the units of the page it reaches into the page's twin (a unit
//!   is 64 bytes of a 4 KiB page); at interval end comparing those units
//!   with the page yields a run-length-encoded diff. A page copy holds only
//!   the units written or received. Multiple concurrent writers to one
//!   page are supported (diffs are applied to the copy and to the units
//!   the twin holds), which is what makes false sharing survivable.
//! * **Distributed locks** ([`tmk`]): statically assigned managers,
//!   migrating ownership, direct (manager-owned) and indirect (third-node)
//!   acquisition — the two cases of the paper's Lock microbenchmark.
//! * **Barriers**: the paper's centralized barrier (arrivals carry fresh
//!   intervals to the manager; the release broadcasts the union) plus a
//!   radix-k combining-tree barrier — see [`tmk::BarrierAlgo`].
//! * **Request/response protocol** ([`protocol`]): asynchronous requests
//!   and synchronous responses, exactly the split the paper's Figure 1
//!   draws — requests interrupt the peer, responses are awaited.
//!
//! Access detection: instead of mprotect/SIGSEGV (not available inside a
//! multi-node-in-one-process simulation), applications access shared
//! memory through [`Tmk::read_bytes`]/[`Tmk::write_bytes`] (and typed
//! helpers), which perform page-granular validity checks and drive exactly
//! the fault transitions the mprotect implementation would, charging the
//! modeled fault costs.

pub mod diff;
pub mod framing;
pub mod interval;
pub mod memsub;
pub mod metrics;
pub mod page;
pub mod protocol;
pub mod substrate;
pub mod tmk;
pub mod vc;
pub mod wire;

pub use metrics::{EventStat, LayerMetrics, MetricsHandle};
pub use substrate::{Chan, IncomingMsg, Substrate};
pub use tmk::{BarrierAlgo, DiffFetch, Profile, SharedId, Tmk, TmkConfig, TmkEvent};
pub use vc::VectorClock;
