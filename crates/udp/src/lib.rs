//! # tm-udp — the Sockets-GM / UDP baseline transport (UDP/GM)
//!
//! TreadMarks as distributed speaks UDP through the sockets API; on the
//! paper's testbed that meant Myricom's "Sockets over GM" emulation. The
//! kernel is in the critical path: every send and receive pays syscalls,
//! kernel⇄user copies, UDP/IP protocol processing, a per-packet receive
//! interrupt, and (for asynchronous requests) SIGIO signal delivery.
//!
//! This crate models that stack over the same simulated Myrinet fabric the
//! GM layer uses — faithfully to the paper's setup, where UDP/GM and
//! FAST/GM shared NICs and switch and differed only in the software path.
//!
//! UDP is unreliable: datagrams can be dropped (configurable probability,
//! plus deterministic drops on socket-buffer overflow). The paper notes
//! UDP/GM bandwidth "could not be measured accurately because of the
//! unreliable nature of UDP"; timing runs here default to zero loss.

//!
//! [`UdpSubstrate`] binds TreadMarks to that stack: the stock sockets
//! binding the paper's FAST/GM replaces.

pub mod socket;
pub mod substrate;

pub use socket::{Datagram, UdpStack, SOCKET_PORT_BASE};
pub use substrate::UdpSubstrate;
