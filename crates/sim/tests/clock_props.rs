//! Property tests on the virtual clock: the invariants the whole timing
//! model stands on.

use proptest::prelude::*;
use tm_sim::{AsyncScheme, NodeClock, Ns};

proptest! {
    /// The clock never goes backwards and every nanosecond of it is booked
    /// in one bucket, whatever mix of operations runs — a compute segment
    /// closed over any stretch of them included.
    #[test]
    fn clock_is_monotone_and_fully_booked(
        ops in proptest::collection::vec((0u8..4, 0u64..1_000_000), 1..64),
    ) {
        let mut c = NodeClock::new();
        let scheme = AsyncScheme::Interrupt { cost: Ns::from_us(7) };
        let mut last = Ns::ZERO;
        let mut idle_at_start = Ns::ZERO;
        for (kind, val) in ops {
            match kind {
                0 => c.advance(Ns(val)),
                1 => {
                    c.book_compute(idle_at_start, Ns(val));
                    idle_at_start = c.stats.idle_time;
                }
                2 => c.wait_until(Ns(val)),
                _ => {
                    c.service_window(Ns(val), &scheme, Ns(val / 2 + 1));
                }
            }
            prop_assert!(c.now() >= last, "clock regressed");
            prop_assert_eq!(c.stats.booked_time(), c.now());
            last = c.now();
        }
    }

    /// A service never begins before the scheme can deliver the request,
    /// nor before the node is free.
    #[test]
    fn service_respects_scheme_latency_and_the_nodes_own_work(
        arrival in 0u64..1_000_000,
        dur in 1u64..100_000,
        pre in 0u64..2_000_000,
    ) {
        let scheme = AsyncScheme::Interrupt { cost: Ns::from_us(7) };
        let mut c = NodeClock::new();
        c.advance(Ns(pre));
        let finish = c.service_window(Ns(arrival), &scheme, Ns(dur));
        let begin = finish - Ns(dur);
        prop_assert_eq!(begin, scheme.earliest_service(Ns(arrival)).max(Ns(pre)));
    }

    /// Back-to-back services of the same arrival serialize: each later
    /// finish is strictly after the previous.
    #[test]
    fn services_serialize(count in 2usize..10, arrival in 0u64..100_000) {
        let scheme = AsyncScheme::Interrupt { cost: Ns::from_us(7) };
        let mut c = NodeClock::new();
        c.advance(Ns::from_ms(1));
        let mut prev = Ns::ZERO;
        for _ in 0..count {
            let f = c.service_window(Ns(arrival), &scheme, Ns(5_000));
            prop_assert!(f > prev);
            prev = f;
        }
    }

    /// Timer scheme delivery is always at a tick boundary plus dispatch,
    /// at or after arrival.
    #[test]
    fn timer_ticks_align(arrival in 1u64..10_000_000, period in 1_000u64..1_000_000) {
        let s = AsyncScheme::Timer { period: Ns(period), dispatch: Ns(2_000) };
        let t = s.earliest_service(Ns(arrival));
        let tick = t - Ns(2_000);
        prop_assert!(tick >= Ns(arrival));
        prop_assert_eq!(tick.0 % period, 0);
        prop_assert!(tick.0 - arrival < period + 1);
    }
}
