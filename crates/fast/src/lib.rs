//! # tm-fast — FAST/GM, the paper's communication substrate
//!
//! The thin layer between TreadMarks and GM (§2.2 of the paper),
//! implementing the four components of its Figure 2:
//!
//! 1. **Connection management** ([`substrate`]): all peers are multiplexed
//!    over exactly **two GM ports** — one asynchronous port for requests
//!    (NIC raises a host interrupt: the modified-firmware scheme the paper
//!    adopted) and one synchronous port for responses (polled by the
//!    blocked requester). Connection descriptors degenerate to GM node
//!    ids; scalability no longer depends on GM's seven usable ports.
//! 2. **Pre-posting of receive buffers** (§2.2.2): `o·(n−1)` small
//!    (size-4) buffers for requests, `(n−1)` buffers of each size 5…15
//!    for asynchronous barrier traffic, and one buffer per size 4…15 for
//!    the single outstanding synchronous response — about
//!    `64KB·(n−1) + 64KB` of registered memory, exactly the paper's
//!    arithmetic ([`prepost_bytes`], which experiment E5 also evaluates at
//!    class 13 for the rendezvous alternative the paper sizes). Every
//!    message, however large, lands in a preposted buffer: there is one
//!    data path.
//! 3. **Buffer management** (§2.2.3): outgoing messages are copied into a
//!    pool of registered send buffers (paying the copy, saving the
//!    repinning); incoming requests are processed in place.
//! 4. **Asynchronous messages** (§2.2.4): NIC interrupt on the request
//!    port; the timer alternative remains available as a
//!    [`tm_sim::AsyncScheme`] option for the ablation (E6).
//!
//! [`cluster`] holds the cluster runners the examples, tests and benches
//! use — one per transport, so a benchmark swaps UDP/GM (`tm-udp`'s
//! [`UdpSubstrate`], re-exported here) for FAST/GM with one type parameter.

pub mod cluster;
pub mod substrate;

pub use cluster::{run_fast_dsm, run_udp_dsm, Transport};
pub use substrate::{prepost_bytes, FastConfig, FastSubstrate};
pub use tm_udp::UdpSubstrate;
