//! Admission-control primitive of `pka-net`: token-bucket properties.

use pka_net::TokenBucket;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Tokens are never negative, never exceed burst, and every refusal
    /// carries a finite wait hint.
    #[test]
    fn bucket_tokens_stay_within_bounds(
        rate_milli in 1u64..10_000_000,
        burst in 1u64..10_000,
        steps in proptest::collection::vec((0u64..5_000_000, 0u8..4), 0..64),
    ) {
        let mut bucket = TokenBucket::new(rate_milli as f64 / 1000.0, burst as f64);
        for (advance_us, takes) in steps {
            bucket.advance(Duration::from_micros(advance_us));
            prop_assert!(bucket.tokens() <= bucket.burst() + 1e-9);
            for _ in 0..takes {
                if let Err(wait) = bucket.try_take() {
                    prop_assert!(wait > Duration::ZERO);
                    prop_assert!(wait <= Duration::from_secs(3600));
                }
                prop_assert!(bucket.tokens() >= 0.0);
            }
        }
    }

    /// Refill saturates at burst: no amount of idle time banks more than
    /// `burst` admissions.
    #[test]
    fn bucket_refill_saturates_at_burst(
        rate in 1u64..100_000,
        burst in 1u64..256,
        idle_s in 1u64..100_000,
    ) {
        let mut bucket = TokenBucket::new(rate as f64, burst as f64);
        bucket.advance(Duration::from_secs(idle_s));
        let mut admitted = 0u64;
        while bucket.try_take().is_ok() {
            admitted += 1;
            prop_assert!(admitted <= burst, "admitted past burst");
        }
        prop_assert_eq!(admitted, burst);
    }

    /// Admission is monotone in elapsed time: if a bucket admits after
    /// waiting `d`, it also admits after waiting any `d' >= d` from the
    /// same state.
    #[test]
    fn bucket_admission_monotone_in_elapsed_time(
        rate_milli in 1u64..1_000_000,
        burst in 1u64..64,
        drain in 0u64..64,
        wait_us in 0u64..10_000_000,
        extra_us in 0u64..10_000_000,
    ) {
        let mut base = TokenBucket::new(rate_milli as f64 / 1000.0, burst as f64);
        for _ in 0..drain {
            let _ = base.try_take();
        }
        let mut shorter = base.clone();
        let mut longer = base;
        shorter.advance(Duration::from_micros(wait_us));
        longer.advance(Duration::from_micros(wait_us + extra_us));
        if shorter.try_take().is_ok() {
            prop_assert!(longer.try_take().is_ok(), "longer wait must not lose admission");
        }
    }
}
