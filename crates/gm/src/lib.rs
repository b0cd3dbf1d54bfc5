//! # tm-gm — the GM user-level message layer, modeled
//!
//! GM is Myricom's user-level protocol for Myrinet (the paper's §1.2). This
//! crate reproduces the GM API surface and — more importantly — every GM
//! semantic the paper's design discussion (§2.1) hinges on:
//!
//! * **No asynchronous notification**: receives are polled
//!   ([`GmNode::receive`]); the only escape is the paper's firmware
//!   modification, modeled as a per-port interrupt flag whose cost is
//!   charged by the async scheme at service time.
//! * **Pre-posted receive buffers by size class**
//!   ([`size::gm_size`], [`GmNode::provide_receive_buffer`]): a message of
//!   length `l` can only land in a buffer of size `⌈log2(l+1)⌉`. A message
//!   with no matching buffer waits; if the receiver lets it wait past the
//!   resend window, the receiving NIC drops it and NACKs the sender, and
//!   the sending port is **disabled** (the next send on it returns
//!   [`GmError::PortDisabled`]) — re-enabling costs a network probe
//!   ([`GmNode::reenable_port`]), the paper's dreaded failure mode. The
//!   NACK is a packet on the fabric like any other: no node reads another's
//!   state.
//! * **Registered (pinned) memory** ([`memory`]): send and receive buffers
//!   must live in DMA-registered regions; pinning costs time and counts
//!   against physical memory.
//! * **≤ 8 ports, port 0 reserved for the mapper** ([`GmNode::open_port`]):
//!   the constraint that forces the paper's two-port connection
//!   multiplexing design.
//! * **Connectionless reliable delivery and send tokens**: every message
//!   lands in a preposted buffer; GM's directed send (an RDMA write into a
//!   remote registered region) is not modeled, because FAST/GM as the paper
//!   built it never needs one.

pub mod memory;
pub mod node;
pub mod size;

pub use memory::{DmaPool, PooledBuf, RegBook};
pub use node::{gm_cluster, FailureBoard, GmError, GmEvent, GmNode, MAPPER_PORT, NUM_PORTS};
pub use size::{gm_max_length, gm_size, MAX_SIZE_CLASS};
