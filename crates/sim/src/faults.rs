//! Deterministic fault-injection plan.
//!
//! The paper's two substrates differ exactly in their failure contract:
//! GM delivers reliably (with send-token backpressure and error
//! callbacks), while UDP forces TreadMarks to carry its own
//! timeout/retransmission machinery. To reproduce that asymmetry the sim
//! needs faults that are *injected deterministically*: every decision is
//! drawn from a per-node seeded RNG and scheduled on virtual time, so a
//! given `(FaultPlan, workload)` pair always produces the identical
//! sequence of drops, duplicates, reorders and stalls — down to exact
//! retransmission counts asserted in tests.
//!
//! The plan injects five faults: datagram drop, duplicate and reorder and
//! socket receive-buffer depth on UDP/GM, and send-token starvation on
//! GM. It injects no corruption: a UDP receiver's checksum turns a
//! corrupted datagram into a drop, and GM resends a frame that fails its
//! CRC in firmware, so corruption is either a drop or nothing.
//!
//! The plan lives on [`crate::SimParams`]; consumers (the UDP socket
//! model, the GM node model) read the knobs that apply to their layer.
//! Everything defaults to off, and no consumer draws from an RNG unless
//! the relevant knob is non-zero — zero-fault runs stay bit-identical to
//! a build without any of this code.

use crate::time::Ns;

/// A reproducible schedule of injected faults.
///
/// All probabilities are per-datagram (or per-frame) and drawn from a
/// stream seeded by [`FaultPlan::stream_seed`], so two runs with the same
/// plan and workload observe the same faults in the same order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Base seed; mixed with the node id and a per-consumer salt.
    pub seed: u64,
    /// Probability a datagram is dropped in flight (UDP is unreliable; the
    /// paper could not even measure UDP/GM bandwidth because of this).
    pub drop_probability: f64,
    /// Probability a datagram is delivered twice.
    pub duplicate_probability: f64,
    /// Probability a datagram is delayed by [`FaultPlan::reorder_delay`],
    /// letting later traffic overtake it.
    pub reorder_probability: f64,
    /// Extra in-flight delay applied to reordered datagrams.
    pub reorder_delay: Ns,
    /// GM token starvation: when non-zero, sends fail with
    /// `NoSendTokens` during the first `token_starvation_duration` of
    /// every `token_starvation_period` of virtual time.
    pub token_starvation_period: Ns,
    /// Length of each starvation window (must be < the period to let
    /// progress resume).
    pub token_starvation_duration: Ns,
    /// Receive-buffer pressure: overrides the per-socket queue depth
    /// (0 = keep the stack's default), so overflow drops can be forced.
    pub recvbuf_datagrams: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xfa17_0000_0000_0001,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_delay: Ns::from_us(200),
            token_starvation_period: Ns(0),
            token_starvation_duration: Ns(0),
            recvbuf_datagrams: 0,
        }
    }
}

impl FaultPlan {
    /// Any fault at all enabled?
    pub fn enabled(&self) -> bool {
        self.unreliable() || self.token_starvation_period > Ns(0)
    }

    /// Does this plan make UDP/GM unreliable — can a datagram be lost,
    /// delivered twice or overtaken? The one answer the socket's fault
    /// stream and the substrate's retransmit timeout both read.
    pub fn unreliable(&self) -> bool {
        self.drop_probability > 0.0
            || self.duplicate_probability > 0.0
            || self.reorder_probability > 0.0
            || self.recvbuf_datagrams > 0
    }

    /// Is virtual time `now` inside a GM token-starvation window?
    pub fn token_starved(&self, now: Ns) -> bool {
        self.token_starvation_period > Ns(0)
            && now.0 % self.token_starvation_period.0 < self.token_starvation_duration.0
    }

    /// Seed for one consumer's fault stream on one node. A distinct salt
    /// per consumer keeps one stream independent of another's, so adding a
    /// consumer never perturbs an existing sequence.
    pub fn stream_seed(&self, node: usize, salt: u64) -> u64 {
        self.seed
            ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let f = FaultPlan::default();
        assert!(!f.enabled());
        assert!(!f.unreliable());
        assert!(!f.token_starved(Ns(0)));
        assert!(!f.token_starved(Ns(123_456_789)));
    }

    #[test]
    fn unreliable_when_dropping_duplicating_reordering_or_overflowing() {
        let datagram_faults = [
            FaultPlan {
                drop_probability: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                duplicate_probability: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                reorder_probability: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                recvbuf_datagrams: 4,
                ..FaultPlan::default()
            },
        ];
        for f in datagram_faults {
            assert!(f.unreliable() && f.enabled(), "{f:?}");
        }
        // Token starvation stalls GM sends; it loses no datagram.
        let starved = FaultPlan {
            token_starvation_period: Ns::from_ms(1),
            token_starvation_duration: Ns::from_us(100),
            ..FaultPlan::default()
        };
        assert!(starved.enabled() && !starved.unreliable());
    }

    #[test]
    fn starvation_windows_repeat_on_the_period() {
        let f = FaultPlan {
            token_starvation_period: Ns::from_ms(1),
            token_starvation_duration: Ns::from_us(100),
            ..FaultPlan::default()
        };
        assert!(f.token_starved(Ns(0)));
        assert!(f.token_starved(Ns(99_999)));
        assert!(!f.token_starved(Ns(100_000)));
        assert!(!f.token_starved(Ns(999_999)));
        assert!(f.token_starved(Ns(1_000_000)));
        assert!(f.token_starved(Ns(1_050_000)));
    }

    #[test]
    fn stream_seeds_differ_by_node_and_salt() {
        let f = FaultPlan::default();
        assert_ne!(f.stream_seed(0, 1), f.stream_seed(1, 1));
        assert_ne!(f.stream_seed(0, 1), f.stream_seed(0, 2));
        // But they are pure functions of (plan, node, salt).
        assert_eq!(f.stream_seed(3, 7), f.stream_seed(3, 7));
    }
}
