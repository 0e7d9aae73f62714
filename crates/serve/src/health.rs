//! Background shard health probing for the router — the one automatic
//! way an ejected shard gets back in.
//!
//! The circuit breakers in [`crate::breaker`] learn about shard death
//! from request traffic, but an Open breaker is a latch with no clock:
//! no client request is ever handed to an ejected shard to find out
//! whether it recovered. The crate-internal `Prober` closes that loop:
//! a single background thread walks every shard on a seeded-jitter
//! interval and issues the cheapest genuine round trip the protocol has
//! — connect, `Hello`, `Stats` — with tight timeouts and no retries.
//! Each verdict is reported back to the router, which feeds the shard's
//! breaker: a successful ping closes an open breaker (reinstating the
//! shard with no operator in the loop), a failed ping counts toward
//! tripping it before any client request pays the discovery cost. A
//! shard that accepts connections but never answers is ejected by these
//! short-timeout pings, not by clients' 30 s reads.
//!
//! `probe_interval: Duration::ZERO` (what tests use for deterministic
//! counters) switches the prober off, and leaves an operator repoint as
//! the only way back in: `FrameRouter::set_shard_addr`, or
//! `ShardedFrameService::reinstate_shard` through it.
//!
//! The interval is jittered deterministically per `probe_seed` so a
//! fleet of routers probing shared shards does not synchronize into a
//! probe storm — the same argument as the retry jitter in
//! [`crate::retry`], and just as replayable.

use crate::client::{Client, ClientConfig};
use crate::frontdoor::Spawn;
use crate::retry::unit_draw;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the background prober paces and bounds its pings.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Base pause between probe rounds (each round pings every shard).
    /// `Duration::ZERO` disables probing entirely — breakers then learn
    /// of death only from request traffic, and an ejected shard is back
    /// only through `set_shard_addr` or `reinstate_shard`.
    pub probe_interval: Duration,
    /// Fraction by which each round's pause is stretched, drawn
    /// deterministically from `probe_seed` — e.g. `0.2` spreads rounds
    /// over `[interval, 1.2 * interval)`.
    pub probe_jitter: f64,
    /// Connect/read/write bound on one ping; a dead-but-routable shard
    /// costs at most this long per round.
    pub probe_timeout: Duration,
    /// Seed for the jitter sequence.
    pub probe_seed: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            probe_interval: Duration::from_millis(500),
            probe_jitter: 0.2,
            probe_timeout: Duration::from_secs(2),
            probe_seed: 0,
        }
    }
}

impl HealthConfig {
    /// The jittered pause before probe round `tick`: pure in
    /// `(probe_seed, tick)`, so a probing schedule is replayable.
    pub fn interval_for(&self, tick: u64) -> Duration {
        let u = unit_draw(self.probe_seed, tick);
        Duration::from_secs_f64(
            self.probe_interval.as_secs_f64() * (1.0 + self.probe_jitter.max(0.0) * u),
        )
    }
}

/// One liveness ping: connect, `Hello`, `Stats`, every leg bounded by
/// `timeout`, no retries — either the shard answers a genuine request
/// quickly or it is counted down. `Stats` is the cheapest request that
/// exercises the shard's full request/reply path without touching the
/// extraction cache or any frame payload.
pub fn probe(addr: SocketAddr, timeout: Duration) -> bool {
    let config = ClientConfig {
        connect_timeout: Some(timeout),
        read_timeout: Some(timeout),
        write_timeout: Some(timeout),
        retry: None,
    };
    match Client::connect_with(addr, config) {
        Ok(mut client) => client.stats().is_ok(),
        Err(_) => false,
    }
}

/// The name of the prober's thread.
pub(crate) const PROBER_THREAD: &str = "router-prober";

/// Wakes the prober loop out of its inter-round sleep at shutdown.
struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// The background probing thread: walks shards `0..shard_count` each
/// round, resolving the current address via `addr_of` (so
/// `set_shard_addr` repoints probing too) and reporting each verdict
/// through `on_verdict`. Owned by the router; join on drop is bounded
/// by one probe timeout plus one jittered interval.
pub(crate) struct Prober {
    handle: Option<JoinHandle<()>>,
    stop: Arc<StopFlag>,
}

impl Prober {
    /// Starts the probe loop through `spawn`, or returns `None` when
    /// `probe_interval` is zero (probing disabled). A thread the OS
    /// refuses is the caller's error, not a panic.
    pub(crate) fn spawn(
        config: HealthConfig,
        shard_count: usize,
        addr_of: impl Fn(usize) -> SocketAddr + Send + 'static,
        on_verdict: impl Fn(usize, bool) + Send + 'static,
        spawn: Spawn,
    ) -> io::Result<Option<Prober>> {
        if config.probe_interval.is_zero() {
            return Ok(None);
        }
        let stop = Arc::new(StopFlag {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
        let flag = Arc::clone(&stop);
        let probe_loop = Box::new(move || {
            let mut tick = 0u64;
            loop {
                // Sleep first so a freshly spawned router (whose shards
                // were all reachable at spawn) does not pay a probe
                // round before serving its first request.
                let pause = config.interval_for(tick);
                tick = tick.wrapping_add(1);
                {
                    let guard = flag.stopped.lock().unwrap_or_else(|e| e.into_inner());
                    let (guard, _timeout) = flag
                        .cv
                        .wait_timeout_while(guard, pause, |stopped| !*stopped)
                        .unwrap_or_else(|e| e.into_inner());
                    if *guard {
                        return;
                    }
                }
                for shard in 0..shard_count {
                    if *flag.stopped.lock().unwrap_or_else(|e| e.into_inner()) {
                        return;
                    }
                    let ok = probe(addr_of(shard), config.probe_timeout);
                    on_verdict(shard, ok);
                }
            }
        });
        let handle = spawn(PROBER_THREAD, probe_loop)?;
        Ok(Some(Prober {
            handle: Some(handle),
            stop,
        }))
    }

    /// Stops the loop and joins the thread.
    pub(crate) fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        *self.stop.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.stop.cv.notify_all();
        let _ = handle.join();
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontdoor::spawn_thread;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jittered_intervals_are_deterministic_and_bounded() {
        let config = HealthConfig {
            probe_interval: Duration::from_millis(100),
            probe_jitter: 0.5,
            probe_seed: 42,
            ..HealthConfig::default()
        };
        let again = config;
        let mut distinct = false;
        for tick in 0..64 {
            let d = config.interval_for(tick);
            assert_eq!(d, again.interval_for(tick), "pure in (seed, tick)");
            assert!(d >= Duration::from_millis(100));
            assert!(d < Duration::from_millis(150));
            if d != config.interval_for(0) {
                distinct = true;
            }
        }
        assert!(distinct, "jitter must actually vary across ticks");
        let other = HealthConfig {
            probe_seed: 43,
            ..config
        };
        assert_ne!(
            (0..8).map(|t| config.interval_for(t)).collect::<Vec<_>>(),
            (0..8).map(|t| other.interval_for(t)).collect::<Vec<_>>(),
            "different seeds must schedule differently"
        );
    }

    #[test]
    fn probe_distinguishes_live_from_dead() {
        use crate::server::{FrameServer, ServerConfig};
        let server = FrameServer::spawn_loopback(Vec::new(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        assert!(probe(addr, Duration::from_secs(2)), "live server answers");
        server.shutdown();
        assert!(
            !probe(addr, Duration::from_millis(500)),
            "dead server fails the ping"
        );
    }

    #[test]
    fn zero_interval_disables_the_prober() {
        let config = HealthConfig {
            probe_interval: Duration::ZERO,
            ..HealthConfig::default()
        };
        let addr = |_| "127.0.0.1:1".parse().unwrap();
        let prober = Prober::spawn(config, 1, addr, |_, _| {}, spawn_thread);
        assert!(prober.unwrap().is_none());
    }

    #[test]
    fn prober_reports_verdicts_and_stops_cleanly() {
        use crate::server::{FrameServer, ServerConfig};
        let server = FrameServer::spawn_loopback(Vec::new(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let verdicts = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&verdicts);
        let mut prober = Prober::spawn(
            HealthConfig {
                probe_interval: Duration::from_millis(10),
                probe_timeout: Duration::from_secs(2),
                ..HealthConfig::default()
            },
            1,
            move |_| addr,
            move |shard, ok| {
                assert_eq!(shard, 0);
                assert!(ok, "loopback server must answer the ping");
                seen.fetch_add(1, Ordering::SeqCst);
            },
            spawn_thread,
        )
        .unwrap()
        .expect("interval is nonzero");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while verdicts.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            verdicts.load(Ordering::SeqCst) >= 2,
            "prober must keep probing"
        );
        prober.shutdown();
        let after = verdicts.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            verdicts.load(Ordering::SeqCst),
            after,
            "a stopped prober must not probe again"
        );
        server.shutdown();
    }
}
