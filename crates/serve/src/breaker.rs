//! Per-shard circuit breakers for the router's upstream leg.
//!
//! Without a breaker, every request routed to a dead shard pays for
//! finding that out again — a refused dial at best, a connect timeout
//! at worst — before degrading. A breaker makes the *knowledge* that a
//! shard is down cheap to reuse:
//! after `failure_threshold` consecutive upstream failures the shard's
//! breaker trips [`BreakerState::Open`] and subsequent requests
//! fast-fail in microseconds (skipping straight to the next replica, or
//! to the degraded path when no replica remains). After
//! `open_cooldown`, the first arrival is admitted as a single
//! [`Admission::Trial`] ([`BreakerState::HalfOpen`]); its success
//! closes the breaker, its failure re-opens it for another cooldown.
//! The background [`crate::health`] prober drives the same state
//! machine from its `Stats` pings, so a recovering shard is reinstated
//! even when no client traffic is probing it.
//!
//! The breaker is deliberately *pessimistic about consecutive failures
//! only*: one success resets the count, so a shard that answers most
//! requests but occasionally times out never trips. Every state
//! transition is surfaced as a [`Transition`] so the router can land it
//! on the `router.breaker_*` counters.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// When a shard's breaker trips and how long it stays tripped.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive upstream failures (requests or probes) that trip the
    /// breaker from Closed to Open. One success resets the count.
    pub failure_threshold: u32,
    /// How long an Open breaker fast-fails before admitting a single
    /// half-open trial. A failure while Open (from a request admitted
    /// before the trip) refreshes this window.
    pub open_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(500),
        }
    }
}

/// The externally visible breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests fast-fail without touching the shard.
    Open,
    /// One trial request is probing whether the shard recovered.
    HalfOpen,
}

/// What `admit` decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allow,
    /// Breaker half-open and this caller won the single trial slot; its
    /// `on_success`/`on_failure` report decides the next state.
    Trial,
    /// Breaker open (or a trial is already in flight): fail fast
    /// without touching the shard.
    FastFail,
}

/// A state transition worth a counter increment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Closed or HalfOpen → Open: the shard was ejected.
    Opened,
    /// Open → HalfOpen: the cooldown elapsed and a trial was admitted.
    HalfOpened,
    /// Open or HalfOpen → Closed: the shard was reinstated.
    Closed,
}

enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen { trial_started: Option<Instant> },
}

/// One shard's circuit breaker. Thread-safe; every method is a short
/// critical section, so `admit` on an open breaker costs microseconds —
/// that *is* the feature.
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker with the given trip thresholds.
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
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Decides whether one request arriving at `now` may proceed. Open
    /// breakers at or past their cooldown admit exactly one
    /// [`Admission::Trial`]; a trial whose owner never reports back
    /// (e.g. an isolated panic) is abandoned once *more* than another
    /// cooldown has passed, so the breaker cannot wedge in HalfOpen
    /// forever. The caller supplies the clock, so the state machine is
    /// a pure function of the instants it is shown.
    pub fn admit(&self, now: Instant) -> (Admission, Option<Transition>) {
        let mut state = lock(&self.state);
        match *state {
            State::Closed { .. } => (Admission::Allow, None),
            State::Open { until } if now >= until => {
                *state = State::HalfOpen {
                    trial_started: Some(now),
                };
                (Admission::Trial, Some(Transition::HalfOpened))
            }
            State::Open { .. } => (Admission::FastFail, None),
            State::HalfOpen { trial_started } => match trial_started {
                Some(started) if now.duration_since(started) <= self.config.open_cooldown => {
                    (Admission::FastFail, None)
                }
                // No trial in flight (or the previous one was abandoned):
                // this caller takes the slot.
                _ => {
                    *state = State::HalfOpen {
                        trial_started: Some(now),
                    };
                    (Admission::Trial, None)
                }
            },
        }
    }

    /// Reports a successful upstream operation (request or probe): the
    /// breaker closes from any state and the failure count resets.
    pub fn on_success(&self) -> Option<Transition> {
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

    /// Reports an upstream operation that failed at `now`. Closed
    /// breakers count it (and trip at the threshold); a failed half-open
    /// trial re-opens; a failure reported while already Open (a request
    /// admitted before the trip) refreshes the cooldown window.
    pub fn on_failure(&self, now: Instant) -> Option<Transition> {
        let mut state = lock(&self.state);
        match *state {
            State::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= self.config.failure_threshold {
                    *state = State::Open {
                        until: now + self.config.open_cooldown,
                    };
                    Some(Transition::Opened)
                } else {
                    *state = State::Closed {
                        consecutive_failures: failures,
                    };
                    None
                }
            }
            State::HalfOpen { .. } => {
                *state = State::Open {
                    until: now + self.config.open_cooldown,
                };
                Some(Transition::Opened)
            }
            State::Open { .. } => {
                *state = State::Open {
                    until: now + self.config.open_cooldown,
                };
                None
            }
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

/// Locks, ignoring poison: a panicked holder leaves nothing half-updated
/// that the next holder could trip over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(30);
    const NS: Duration = Duration::from_nanos(1);

    fn fast() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: COOLDOWN,
        }
    }

    /// A breaker whose third consecutive failure landed at `t0`, so it
    /// is Open until exactly `t0 + COOLDOWN`.
    fn tripped(t0: Instant) -> CircuitBreaker {
        let b = CircuitBreaker::new(fast());
        for _ in 0..3 {
            b.on_failure(t0);
        }
        assert_eq!(b.state(), BreakerState::Open);
        b
    }

    #[test]
    fn trips_open_after_consecutive_failures_and_fast_fails() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(fast());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.on_failure(t0), None);
        assert_eq!(b.on_failure(t0), None);
        assert_eq!(b.on_failure(t0), Some(Transition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(t0), (Admission::FastFail, None));
    }

    #[test]
    fn one_success_resets_the_failure_count() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(fast());
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.on_success(), None, "closed stays closed");
        // The count restarted: two more failures do not trip.
        b.on_failure(t0);
        assert_eq!(b.on_failure(t0), None);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_admits_one_trial_then_success_closes() {
        let t0 = Instant::now();
        let b = tripped(t0);
        let later = t0 + COOLDOWN + NS;
        assert_eq!(
            b.admit(later),
            (Admission::Trial, Some(Transition::HalfOpened))
        );
        // A second arrival while the trial is in flight fast-fails.
        assert_eq!(b.admit(later).0, Admission::FastFail);
        assert_eq!(b.on_success(), Some(Transition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(later).0, Admission::Allow);
    }

    #[test]
    fn the_cooldown_ends_exactly_at_its_boundary() {
        let t0 = Instant::now();
        let b = tripped(t0);
        assert_eq!(b.admit(t0 + COOLDOWN - NS).0, Admission::FastFail);
        assert_eq!(b.admit(t0 + COOLDOWN).0, Admission::Trial);
    }

    #[test]
    fn failed_trial_reopens_for_another_cooldown() {
        let t0 = Instant::now();
        let b = tripped(t0);
        let trial = t0 + COOLDOWN;
        assert_eq!(b.admit(trial).0, Admission::Trial);
        assert_eq!(b.on_failure(trial), Some(Transition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(trial + COOLDOWN - NS).0, Admission::FastFail);
        // ...and the next cooldown admits a fresh trial.
        assert_eq!(b.admit(trial + COOLDOWN).0, Admission::Trial);
    }

    #[test]
    fn abandoned_trial_is_reclaimed_only_past_a_full_cooldown() {
        let t0 = Instant::now();
        let b = tripped(t0);
        let trial = t0 + COOLDOWN;
        assert_eq!(b.admit(trial).0, Admission::Trial);
        // The trial's owner vanishes without reporting. A full cooldown
        // later the slot is still its own; one nanosecond past that it is
        // reclaimed instead of wedging HalfOpen.
        assert_eq!(b.admit(trial + COOLDOWN).0, Admission::FastFail);
        assert_eq!(
            b.admit(trial + COOLDOWN + NS),
            (Admission::Trial, None),
            "a reclaimed slot is not a second Open → HalfOpen transition"
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn reset_closes_from_any_state() {
        let t0 = Instant::now();
        let b = tripped(t0);
        assert_eq!(b.reset(), Some(Transition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.reset(), None, "already closed");
        assert_eq!(b.admit(t0).0, Admission::Allow);
    }

    #[test]
    fn open_failure_refreshes_the_cooldown() {
        let t0 = Instant::now();
        let b = tripped(t0);
        // A straggler admitted before the trip reports its failure two
        // thirds of the way through: the cooldown restarts from there, so
        // at the original deadline the breaker is still fully open.
        let straggler = t0 + Duration::from_millis(20);
        assert_eq!(b.on_failure(straggler), None);
        assert_eq!(b.admit(t0 + COOLDOWN).0, Admission::FastFail);
        assert_eq!(b.admit(straggler + COOLDOWN).0, Admission::Trial);
    }
}
