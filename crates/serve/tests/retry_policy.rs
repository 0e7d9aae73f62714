//! Property tests for the retry policy: a backoff schedule must be a
//! pure function of its seed, must never exceed the retry budget or the
//! attempt count, and — the multiplier dominating the jitter — must be
//! monotonically spaced.

use accelviz_serve::RetryPolicy;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn schedules_are_deterministic_bounded_and_monotone(
        seed in 0u64..1_000_000_000_000,
        attempts in 2u32..10,
        base_ms in 1u64..200,
        budget_ms in 50u64..5_000,
    ) {
        let policy = RetryPolicy {
            max_attempts: attempts,
            base_delay: Duration::from_millis(base_ms),
            max_delay: Duration::from_secs(5),
            seed,
            budget: Duration::from_millis(budget_ms),
        };

        // Deterministic: the same policy always emits the same schedule,
        // bit for bit.
        let schedule = policy.schedule();
        prop_assert_eq!(&schedule, &policy.schedule());

        // Bounded by the attempt count (first try is not a retry) and by
        // the wall-clock budget even if every attempt failed instantly.
        prop_assert!((schedule.len() as u32) < attempts);
        let total: Duration = schedule.iter().sum();
        prop_assert!(total <= policy.budget, "{total:?} > {:?}", policy.budget);

        // Monotonically spaced: each wait at least as long as the last.
        for w in schedule.windows(2) {
            prop_assert!(w[1] >= w[0], "schedule not monotone: {schedule:?}");
        }

        // Every single delay respects the jittered per-delay cap.
        let cap = Duration::from_secs_f64(
            policy.max_delay.as_secs_f64() * (1.0 + RetryPolicy::JITTER),
        );
        for d in &schedule {
            prop_assert!(*d <= cap, "{d:?} exceeds cap {cap:?}");
        }
    }

    #[test]
    fn delay_for_is_pure_and_seed_sensitive(
        seed in 0u64..1_000_000_000_000,
        attempt in 0u32..16,
    ) {
        let p = RetryPolicy::seeded(seed);
        prop_assert_eq!(p.delay_for(attempt), p.delay_for(attempt));
        // A different seed must not produce an identical full schedule
        // (individual delays may collide; five in a row will not).
        let q = RetryPolicy::seeded(seed ^ 0xDEAD_BEEF);
        let ps: Vec<_> = (0..5).map(|a| p.delay_for(a)).collect();
        let qs: Vec<_> = (0..5).map(|a| q.delay_for(a)).collect();
        prop_assert!(ps != qs, "seeds {seed} and {} jitter identically", seed ^ 0xDEAD_BEEF);
    }

    #[test]
    fn next_delay_never_busts_the_budget(
        seed in 0u64..1_000_000_000_000,
        elapsed_ms in 0u64..40_000,
        attempt in 0u32..8,
    ) {
        let p = RetryPolicy::seeded(seed);
        let elapsed = Duration::from_millis(elapsed_ms);
        if let Some(d) = p.next_delay(attempt, elapsed) {
            prop_assert!(elapsed + d <= p.budget);
            prop_assert!(attempt + 2 <= p.max_attempts);
        }
    }
}
