//! Retry scheduling for the frame-service client: the one retry loop in
//! the crate, and behind a router (which walks once and hands a failed
//! walk back as `ERR_BUSY`) still the only backoff and the only deadline.
//!
//! The policy is a pure function of `(seed, attempt)`: exponential
//! backoff with deterministic jitter, capped per-delay and bounded by a
//! total retry budget. Determinism matters here for the same reason it
//! does in [`crate::fault`] — a chaos run that retried its way to
//! success (or failure) must be replayable byte for byte.

use accelviz_core::shard::splitmix64;
use std::time::Duration;

/// Draw `n` of the jitter sequence seeded `seed`: u ∈ [0, 1) from the
/// top 53 bits of a SplitMix64 draw. The retry backoff and the health
/// prober's interval both jitter with it.
pub(crate) fn unit_draw(seed: u64, n: u64) -> f64 {
    let bits = splitmix64(seed ^ n.wrapping_mul(0xA24B_AED4_963E_E407));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// When and how often the client retries a failed request.
///
/// A transient failure on attempt `n` (zero-based) sleeps
/// `min(max_delay, base_delay * MULTIPLIER^n) * (1 + JITTER * u_n)`
/// where `u_n ∈ [0, 1)` is drawn deterministically from `seed` and `n`.
/// Retries stop when `max_attempts` have been made or when the elapsed
/// time plus the next delay would exceed `budget`.
///
/// Since [`RetryPolicy::MULTIPLIER`] ≥ 1 + [`RetryPolicy::JITTER`], the
/// schedule is monotonically non-decreasing.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (so `1` means never
    /// retry).
    pub max_attempts: u32,
    /// Delay before the first retry, pre-jitter.
    pub base_delay: Duration,
    /// Upper bound on any single pre-jitter delay.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
    /// Total wall-clock allowance for retrying one operation; once the
    /// elapsed time plus the next delay would exceed it, the client
    /// gives up.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
            seed: 0,
            budget: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// Exponential growth factor between consecutive delays.
    pub const MULTIPLIER: f64 = 2.0;
    /// Jitter fraction: each delay is stretched by up to 50 %.
    pub const JITTER: f64 = 0.5;

    /// A policy that differs from the default only in its jitter seed —
    /// handy for tests that want distinct but reproducible schedules.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        }
    }

    /// A fast-retry variant for tests: short delays, generous attempts,
    /// tight budget. Still fully deterministic.
    pub fn fast(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            seed,
            budget: Duration::from_secs(10),
        }
    }

    /// The jittered delay before retry number `attempt` (zero-based).
    /// Pure: same policy and attempt always give the same answer.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.as_secs_f64().max(0.0)
            * RetryPolicy::MULTIPLIER.powi(attempt.min(64) as i32);
        let capped = exp.min(self.max_delay.as_secs_f64());
        let u = unit_draw(self.seed, u64::from(attempt));
        Duration::from_secs_f64(capped * (1.0 + RetryPolicy::JITTER * u))
    }

    /// This policy reseeded for one request for `frame` at `threshold`:
    /// the jitter is a pure function of `(seed, frame, threshold)`, so
    /// requests that fail together (every viewer parked on one dead
    /// shard) do not retry in lockstep, while a fixed seed still replays.
    pub(crate) fn for_request(self, frame: u32, threshold: f64) -> RetryPolicy {
        RetryPolicy {
            seed: splitmix64(splitmix64(self.seed ^ u64::from(frame)) ^ threshold.to_bits()),
            ..self
        }
    }

    /// Decides whether to retry after a transient failure: `attempt` is
    /// the zero-based index of the retry being considered and `elapsed`
    /// the time already spent on this operation. Returns the delay to
    /// sleep, or `None` when attempts or budget are exhausted.
    pub fn next_delay(&self, attempt: u32, elapsed: Duration) -> Option<Duration> {
        // attempt N being considered means N + 1 attempts already failed;
        // allow it only if a further try stays within max_attempts.
        if attempt + 2 > self.max_attempts {
            return None;
        }
        let delay = self.delay_for(attempt);
        if elapsed + delay > self.budget {
            return None;
        }
        Some(delay)
    }

    /// The full backoff schedule this policy would produce if every
    /// attempt failed instantly (so elapsed time is the sum of prior
    /// delays). Used by the property tests.
    pub fn schedule(&self) -> Vec<Duration> {
        let mut out = Vec::new();
        let mut elapsed = Duration::ZERO;
        for attempt in 0.. {
            match self.next_delay(attempt, elapsed) {
                Some(d) => {
                    elapsed += d;
                    out.push(d);
                }
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_only_policy_never_retries() {
        let p = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert_eq!(p.next_delay(0, Duration::ZERO), None);
        assert!(p.schedule().is_empty());
    }

    #[test]
    fn defaults_produce_a_monotone_bounded_schedule() {
        let p = RetryPolicy::default();
        let s = p.schedule();
        assert_eq!(s.len() as u32, p.max_attempts - 1);
        for w in s.windows(2) {
            assert!(w[1] >= w[0], "schedule must be non-decreasing: {s:?}");
        }
        let total: Duration = s.iter().sum();
        assert!(total <= p.budget);
        for d in &s {
            assert!(
                *d <= Duration::from_secs_f64(
                    p.max_delay.as_secs_f64() * (1.0 + RetryPolicy::JITTER)
                )
            );
        }
    }

    #[test]
    fn budget_cuts_the_schedule_short() {
        let p = RetryPolicy {
            budget: Duration::from_millis(150),
            ..RetryPolicy::default()
        };
        let s = p.schedule();
        assert!(
            (s.len() as u32) < p.max_attempts - 1,
            "150 ms budget cannot fit the full default schedule: {s:?}"
        );
        let total: Duration = s.iter().sum();
        assert!(total <= p.budget);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let a = RetryPolicy::seeded(42).schedule();
        let b = RetryPolicy::seeded(42).schedule();
        let c = RetryPolicy::seeded(43).schedule();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must jitter differently");
    }

    #[test]
    fn per_request_jitter_is_pure_in_seed_frame_and_threshold() {
        let p = RetryPolicy::seeded(42);
        let a = p.for_request(3, 0.5).schedule();
        assert_eq!(a, p.for_request(3, 0.5).schedule());
        assert_ne!(a, p.for_request(4, 0.5).schedule(), "frames in lockstep");
        assert_ne!(
            a,
            p.for_request(3, 0.25).schedule(),
            "thresholds in lockstep"
        );
        assert_ne!(a, RetryPolicy::seeded(43).for_request(3, 0.5).schedule());
    }
}
