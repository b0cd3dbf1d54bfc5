//! # tm-apps — the TreadMarks application suite
//!
//! The four applications of the paper's §3.3, reimplemented against our
//! Tmk API with the same synchronization characters the paper describes:
//!
//! * [`jacobi`] — barrier-only iterative relaxation, the highest
//!   computation-to-communication ratio of the four;
//! * [`sor`] — red-black successive over-relaxation, with a lock-guarded
//!   global residual every sweep (locks used for global synchronization,
//!   as the paper notes for its SOR);
//! * [`tsp`] — branch-and-bound traveling salesman over a lock-protected
//!   shared work queue and best-tour bound (lock-dominated, migratory
//!   data);
//! * [`fft`] — 3-D complex FFT with a distributed transpose (barrier
//!   synchronization, the largest messages and highest data rate).
//!
//! Every application computes a *real* answer and ships a sequential
//! reference implementation; parallel runs are validated bit-for-bit
//! (Jacobi/SOR/FFT) or value-exact (TSP's optimal tour length) in the
//! test suite. Computation is charged to the virtual clock through
//! per-point work constants calibrated for the paper's 700 MHz P-III.

pub mod fft;
pub mod jacobi;
pub mod partition;
pub mod sor;
pub mod tsp;

pub use fft::{fft_parallel, fft_parallel_with, fft_seq, FftConfig};
pub use jacobi::{jacobi_parallel, jacobi_seq, JacobiConfig};
pub use partition::band;
pub use sor::{sor_parallel, sor_seq, SorConfig};
pub use tsp::{tsp_parallel, tsp_seq, TspConfig};
