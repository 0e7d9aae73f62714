//! Per-shard circuit breakers for the router's upstream leg.
//!
//! Without a breaker, every request routed to a dead shard pays for
//! finding that out again — a refused dial at best, a connect timeout
//! at worst — before degrading. A breaker makes the *knowledge* that a
//! shard is down cheap to reuse:
//! after `failure_threshold` consecutive upstream failures the shard's
//! breaker trips [`BreakerState::Open`] and subsequent requests
//! fast-fail in microseconds (skipping straight to the next replica, or
//! to the degraded path when no replica remains).
//!
//! Open is a latch with no clock: it lasts until the breaker hears one
//! success. No client request is ever handed to an ejected shard to
//! find out whether it recovered — that is the background
//! [`crate::health`] prober's job, whose bounded `Stats` pings are the
//! one automatic way back in (a request admitted before the trip that
//! succeeds late closes it too). An operator repoint
//! (`FrameRouter::set_shard_addr`, and `reinstate_shard` through it)
//! [`CircuitBreaker::reset`]s the breaker outright.
//!
//! The breaker is deliberately *pessimistic about consecutive failures
//! only*: one success resets the count, so a shard that answers most
//! requests but occasionally times out never trips. Every state
//! transition is surfaced as a [`Transition`] so the router can land it
//! on the `router.breaker_*` counters.

use crate::lock;
use std::sync::Mutex;

/// When a shard's breaker trips.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive upstream failures (requests or probes) that trip the
    /// breaker from Closed to Open. One success resets the count, and
    /// closes an Open breaker.
    pub failure_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
        }
    }
}

/// The externally visible breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests fast-fail without touching the shard until one success
    /// (a probe, as a rule) closes the breaker.
    Open,
}

/// What `admit` decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allow,
    /// Breaker open: fail fast without touching the shard.
    FastFail,
}

/// A state transition worth a counter increment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Closed → Open: the shard was ejected.
    Opened,
    /// Open → Closed: the shard was reinstated.
    Closed,
}

enum State {
    Closed { consecutive_failures: u32 },
    Open,
}

/// One shard's circuit breaker. Thread-safe; every method is a short
/// critical section, so `admit` on an open breaker costs microseconds —
/// that *is* the feature.
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker with the given trip threshold.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
        }
    }

    /// The current state, for gauges and tests.
    pub fn state(&self) -> BreakerState {
        match *lock(&self.state) {
            State::Closed { .. } => BreakerState::Closed,
            State::Open => BreakerState::Open,
        }
    }

    /// Decides whether one request may proceed: every request while
    /// Closed, none while Open.
    pub fn admit(&self) -> Admission {
        match *lock(&self.state) {
            State::Closed { .. } => Admission::Allow,
            State::Open => Admission::FastFail,
        }
    }

    /// Reports a successful upstream operation (request or probe): the
    /// breaker closes from any state and the failure count resets.
    pub fn on_success(&self) -> Option<Transition> {
        self.reset()
    }

    /// Reports a failed upstream operation. Closed breakers count it and
    /// trip at the threshold; an Open breaker stays Open.
    pub fn on_failure(&self) -> Option<Transition> {
        let mut state = lock(&self.state);
        let State::Closed {
            consecutive_failures,
        } = *state
        else {
            return None;
        };
        let failures = consecutive_failures + 1;
        if failures >= self.config.failure_threshold {
            *state = State::Open;
            Some(Transition::Opened)
        } else {
            *state = State::Closed {
                consecutive_failures: failures,
            };
            None
        }
    }

    /// Forces the breaker closed with a clean slate — the
    /// `set_shard_addr` operator override: a pool repointed at a
    /// replacement shard must not inherit the dead one's verdict.
    pub fn reset(&self) -> Option<Transition> {
        let mut state = lock(&self.state);
        let was_closed = matches!(*state, State::Closed { .. });
        *state = State::Closed {
            consecutive_failures: 0,
        };
        if was_closed {
            None
        } else {
            Some(Transition::Closed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
        }
    }

    /// A breaker whose third consecutive failure tripped it.
    fn tripped() -> CircuitBreaker {
        let b = CircuitBreaker::new(fast());
        for _ in 0..3 {
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        b
    }

    #[test]
    fn trips_open_after_consecutive_failures_and_fast_fails() {
        let b = CircuitBreaker::new(fast());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.on_failure(), Some(Transition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::FastFail);
    }

    #[test]
    fn one_success_resets_the_failure_count() {
        let b = CircuitBreaker::new(fast());
        b.on_failure();
        b.on_failure();
        assert_eq!(b.on_success(), None, "closed stays closed");
        // The count restarted: two more failures do not trip.
        b.on_failure();
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// Open is a latch: no number of admissions or failures lets a
    /// request through or counts as a second trip, and one success —
    /// a probe's, as a rule — closes it.
    #[test]
    fn open_is_a_latch_that_one_success_releases() {
        let b = tripped();
        for _ in 0..1000 {
            assert_eq!(b.admit(), Admission::FastFail);
            assert_eq!(b.on_failure(), None, "an Open breaker trips once");
            assert_eq!(b.state(), BreakerState::Open);
        }
        assert_eq!(b.on_success(), Some(Transition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Allow);
        // ...with a clean count: the next trip takes the whole threshold.
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.on_failure(), Some(Transition::Opened));
    }

    #[test]
    fn reset_closes_from_any_state() {
        let b = tripped();
        assert_eq!(b.reset(), Some(Transition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.reset(), None, "already closed");
        assert_eq!(b.admit(), Admission::Allow);
    }
}
