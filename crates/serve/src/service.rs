//! The one frame service: everything a frame request goes through after
//! the door's dispatch, whichever origin its frames come from.
//!
//! [`crate::server::FrameServer`] and [`crate::router::FrameRouter`] are
//! one [`Service`] over two [`FrameOrigin`]s: a run's residency window
//! (`server::Window`), which extracts frames, and a replica set
//! (`router::Replicas`), which fetches them from shards. An origin says
//! what frames exist, produces one on a miss and fills in the `Stats`
//! reply; the service owns the rest:
//!
//! - **The frame cache and its ledger.** One [`CoalescingCache`] weighed
//!   in bytes; a fetch fills the encoding its request's shape asks for
//!   before the entry is admitted ([`Served::prefill`]). A request is
//!   counted by how the cache answered it, whatever the fetch returned: a
//!   miss ran the fetch, a hit found the entry, and a coalesced waiter —
//!   a hit as well — shared a fetch in flight.
//! - **Fetch permits.** A miss takes a permit before it fetches; past the
//!   limit it is shed with `ERR_BUSY` on its live connection and counted
//!   under `<role>.shed_extractions` only. Hits and coalesced waiters
//!   never need one. The limit is the role's: a server's
//!   `max_inflight_extractions`, none for a router, whose shards shed.
//! - **Read-ahead.** Over an origin that reads ahead, the session that
//!   stepped produces the frame it will probably ask for next, after its
//!   reply is written and before it reads again, through the same lookup
//!   ([`Service::read_ahead`]). It gives way to everything: one read-ahead
//!   fetch per service at a time (a hint that finds one running is
//!   dropped), a `try` permit, the origin's veto
//!   ([`FrameOrigin::reads_ahead`]), and its own `<role>.readahead_*`
//!   counters, so hits and misses keep counting *requests*. Over one that
//!   does not, a hint is neither counted nor run.
//!
//! The service owns no thread: the door (`crate::frontdoor`) runs it on
//! its sessions. Every counter and span a role counts under is
//! `<role>.<name>`, and every thread its door starts is `<role>-<name>`,
//! from the one [`CounterNames`] per role that [`counter_names!`] builds.

use crate::cache::{CacheKey, CoalescingCache, Fetched, Lookup, Served};
use crate::frontdoor::{CountGuard, ReadAhead, Shape, Spawn};
use crate::protocol::{FrameInfo, Refusal, ERR_BUSY};
use accelviz_trace::registry::{Registry, Snapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The registry keys and span names one role counts under, each
/// `<role>.<name>`, and the names of the threads its door starts, each
/// `<role>-<name>`: a server's sessions land on `serve.*` and a router's
/// on `router.*`. Built by [`counter_names!`].
pub(crate) struct CounterNames {
    pub(crate) requests: &'static str,
    pub(crate) bytes_sent: &'static str,
    pub(crate) frames_served: &'static str,
    pub(crate) shed_connections: &'static str,
    pub(crate) accept_errors: &'static str,
    pub(crate) handler_panics: &'static str,
    /// Histogram of request service time.
    pub(crate) latency: &'static str,
    /// What served frames would occupy as raw v1 payloads.
    pub(crate) frame_bytes_raw: &'static str,
    /// Frame payload bytes actually written.
    pub(crate) frame_bytes_wire: &'static str,
    pub(crate) lod_requests: &'static str,
    pub(crate) lod_chunks: &'static str,
    pub(crate) lod_bytes_wire: &'static str,
    pub(crate) cache_hits: &'static str,
    pub(crate) cache_misses: &'static str,
    /// Hits that waited on a fetch already in flight.
    pub(crate) coalesced_fetches: &'static str,
    pub(crate) shed_extractions: &'static str,
    pub(crate) readahead_hints: &'static str,
    pub(crate) readahead_fetches: &'static str,
    pub(crate) readahead_dropped: &'static str,
    /// Span around one dispatched request.
    pub(crate) span_request: &'static str,
    /// Span around encoding and writing one full frame.
    pub(crate) span_send: &'static str,
    /// Span around planning one progressive stream.
    pub(crate) span_lod_send: &'static str,
    /// Span around one frame request's cache lookup, its fetch included;
    /// `None` opens none.
    pub(crate) span_lookup: Option<&'static str>,
    /// Span around one hint's read-ahead, on the session that stepped.
    pub(crate) span_readahead: &'static str,
    /// The door's accept loop.
    pub(crate) thread_accept: &'static str,
    /// One admitted connection's session.
    pub(crate) thread_session: &'static str,
    /// A worker that answers shed connections.
    pub(crate) thread_shed: &'static str,
}

/// The [`CounterNames`] of role `$role`: every name is `$role` joined to
/// its suffix by `concat!`, so a role's table is a `const`. A thread name
/// must fit Linux's 15 bytes, which a role of up to 7 bytes does.
macro_rules! counter_names {
    ($role:literal) => {
        $crate::service::CounterNames {
            requests: concat!($role, ".requests"),
            bytes_sent: concat!($role, ".bytes_sent"),
            frames_served: concat!($role, ".frames_served"),
            shed_connections: concat!($role, ".shed_connections"),
            accept_errors: concat!($role, ".accept_errors"),
            handler_panics: concat!($role, ".handler_panics"),
            latency: concat!($role, ".request_latency"),
            frame_bytes_raw: concat!($role, ".frame_bytes_raw"),
            frame_bytes_wire: concat!($role, ".frame_bytes_wire"),
            lod_requests: concat!($role, ".lod_requests"),
            lod_chunks: concat!($role, ".lod_chunks"),
            lod_bytes_wire: concat!($role, ".lod_bytes_wire"),
            cache_hits: concat!($role, ".cache_hits"),
            cache_misses: concat!($role, ".cache_misses"),
            coalesced_fetches: concat!($role, ".coalesced_fetches"),
            shed_extractions: concat!($role, ".shed_extractions"),
            readahead_hints: concat!($role, ".readahead_hints"),
            readahead_fetches: concat!($role, ".readahead_fetches"),
            readahead_dropped: concat!($role, ".readahead_dropped"),
            span_request: concat!($role, ".request"),
            span_send: concat!($role, ".send"),
            span_lod_send: concat!($role, ".lod_send"),
            span_lookup: Some(concat!($role, ".extract")),
            span_readahead: concat!($role, ".readahead"),
            thread_accept: concat!($role, "-accept"),
            thread_session: concat!($role, "-session"),
            thread_shed: concat!($role, "-shed"),
        }
    };
}
pub(crate) use counter_names;

/// Where a service's frames come from. The service asks its origin for
/// the catalog, for a frame on a cache miss, and for the `Stats` reply;
/// everything else is the service's.
pub(crate) trait FrameOrigin: Send + Sync + 'static {
    /// Where the service over this origin counts.
    const NAMES: CounterNames;

    /// Whether a stepping session reads ahead over this origin.
    const READS_AHEAD: bool;

    /// Frames in the catalog; a request for one at or past this is
    /// refused before the origin is asked.
    fn frame_count(&self) -> usize;

    /// The catalog a `ListFrames` reply carries.
    fn catalog(&self) -> Vec<FrameInfo>;

    /// Frame `frame`, inside the catalog, at a non-NaN `threshold` — the
    /// one its cache key stands for — as the entry the cache will hold,
    /// or why it cannot be had right now.
    fn fetch(&self, frame: u32, threshold: f64) -> Result<Served, Refusal>;

    /// Whether a read-ahead may produce frame `next` now; asked only when
    /// [`FrameOrigin::READS_AHEAD`] and `next` is not cached.
    fn reads_ahead(&self, _next: u32) -> bool {
        false
    }

    /// The snapshot a `Stats` reply carries, given the service's own
    /// registry.
    fn stats(&self, own: &Registry) -> Snapshot;
}

/// How a service runs: what its role's public config says.
#[derive(Clone, Copy)]
pub(crate) struct ServiceConfig {
    /// Byte budget of the frame cache.
    pub(crate) cache_bytes: u64,
    /// Misses whose fetches may run at once; past it one is shed.
    pub(crate) permits: usize,
    /// Bound on any single blocking read from a client; `None` waits
    /// forever.
    pub(crate) read_timeout: Option<Duration>,
    /// Same bound for writes.
    pub(crate) write_timeout: Option<Duration>,
    /// Connections (and so session threads) served concurrently.
    pub(crate) max_connections: usize,
    /// Starts each session thread; a refusal sheds the connection.
    pub(crate) spawn: Spawn,
}

/// What every session of one service shares.
pub(crate) struct Service<O> {
    pub(crate) origin: O,
    cache: CoalescingCache,
    /// The registry [`FrameOrigin::NAMES`] index into.
    pub(crate) metrics: Arc<Registry>,
    pub(crate) config: ServiceConfig,
    /// Fetches running now, each holding a permit.
    fetching: AtomicUsize,
    /// Read-ahead fetches running now: 0 or 1.
    fetching_ahead: AtomicUsize,
}

impl<O: FrameOrigin> Service<O> {
    /// The state of a service over `origin`, counting into `metrics`.
    pub(crate) fn new(origin: O, metrics: Arc<Registry>, config: ServiceConfig) -> Service<O> {
        Service {
            origin,
            cache: CoalescingCache::new(config.cache_bytes, Served::held_bytes),
            metrics,
            config,
            fetching: AtomicUsize::new(0),
            fetching_ahead: AtomicUsize::new(0),
        }
    }

    /// Frame `frame < frame_count()` at a non-NaN `threshold`, cached as
    /// `shape` will send it, or why it cannot be had right now.
    pub(crate) fn frame(&self, frame: u32, threshold: f64, shape: Shape) -> Fetched {
        let mut span = O::NAMES.span_lookup.map(|name| {
            let mut span = accelviz_trace::span(name);
            span.arg("frame", frame as f64);
            span.arg("threshold", threshold);
            span
        });
        let (fetched, lookup) = self.lookup(frame, threshold, shape, None);
        let hit = matches!(lookup, Some(Lookup::Hit | Lookup::Coalesced));
        if let Some(span) = &mut span {
            span.arg("cache_hit", hit as u64 as f64);
        }
        // A shed request reached no origin: it is counted where it was
        // refused, never as a hit or a miss. A request answered from an
        // entry a read-ahead produced, or is producing, is a hit.
        match lookup {
            None => {}
            Some(Lookup::Fetched) => {
                self.metrics.add(O::NAMES.cache_misses, 1);
            }
            Some(Lookup::Hit) => {
                self.metrics.add(O::NAMES.cache_hits, 1);
            }
            Some(Lookup::Coalesced) => {
                self.metrics.add(O::NAMES.cache_hits, 1);
                self.metrics.add(O::NAMES.coalesced_fetches, 1);
            }
        }
        fetched
    }

    /// The session just answered is stepping and will probably ask for
    /// `hint` next: produce it now, on that session, before it reads its
    /// next request. A panicking fetch has vacated its key by the time it
    /// unwinds to here (the cache's rule) and costs that one hint: the
    /// session, which has already answered, serves on. An origin that
    /// does not read ahead ignores the hint, uncounted.
    pub(crate) fn read_ahead(&self, hint: ReadAhead) {
        if !O::READS_AHEAD {
            return;
        }
        self.metrics.add(O::NAMES.readahead_hints, 1);
        let run = std::panic::AssertUnwindSafe(|| self.speculate(hint));
        let _ = std::panic::catch_unwind(run);
    }

    /// The one cache lookup, for demand and speculative callers alike:
    /// the entry, and how the cache answered — `None` for a miss shed for
    /// want of a permit. On a miss the fetch is one origin fetch under a
    /// permit, encoded as `shape` asks before it is admitted, so the entry
    /// is weighed with its payload — and shedding and an origin's work
    /// never touch a request the cache can answer or coalesce. A demand
    /// caller passes no permit and takes one there, or is shed; a
    /// read-ahead brings its own, taken *before* the key can be marked in flight, so
    /// a demand request never coalesces onto a fetch that is then dropped
    /// for want of one.
    fn lookup(
        &self,
        frame: u32,
        threshold: f64,
        shape: Shape,
        permit: Option<CountGuard<'_>>,
    ) -> (Fetched, Option<Lookup>) {
        let mut shed = false;
        let (fetched, lookup) = self
            .cache
            .get_or_fetch(CacheKey::new(frame, threshold), || {
                let speculative = permit.is_some();
                let Some(_permit) = permit.or_else(|| self.try_permit()) else {
                    shed = true;
                    self.metrics.add(O::NAMES.shed_extractions, 1);
                    return Err(Refusal::new(
                        ERR_BUSY,
                        "extraction capacity reached; retry after ~100 ms",
                    ));
                };
                let served = self.origin.fetch(frame, threshold)?;
                served.prefill(shape)?;
                // Counted before the entry is published: whoever is served
                // from it can already read that it was fetched ahead.
                if speculative {
                    self.metrics.add(O::NAMES.readahead_fetches, 1);
                }
                Ok(Arc::new(served))
            });
        (fetched, (!shed).then_some(lookup))
    }

    /// One hint: produce the frame unless it is resident, then fill the
    /// encoding the session will ask for. Never at a demand request's
    /// expense, and one fetch per service at a time — while another
    /// read-ahead fetches, or without the origin's leave or a free permit,
    /// the hint is dropped.
    fn speculate(&self, hint: ReadAhead) {
        let _span = accelviz_trace::span(O::NAMES.span_readahead);
        let ReadAhead {
            frame,
            threshold,
            shape,
        } = hint;
        if let Some(resident) = self.cache.get(&CacheKey::new(frame, threshold)) {
            let _ = resident.prefill(shape);
            return;
        }
        let claim =
            (self.fetching_ahead).compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
        if claim.is_err() {
            self.metrics.add(O::NAMES.readahead_dropped, 1);
            return;
        }
        let _ahead = CountGuard(&self.fetching_ahead);
        let room = self.origin.reads_ahead(frame);
        let Some(permit) = room.then(|| self.try_permit()).flatten() else {
            self.metrics.add(O::NAMES.readahead_dropped, 1);
            return;
        };
        // An entry this hint coalesced onto was filled for its fetcher's
        // shape, which need not be this session's.
        if let (Ok(served), _) = self.lookup(frame, threshold, shape, Some(permit)) {
            let _ = served.prefill(shape);
        }
    }

    /// Tries to take one fetch permit; `None` means the limit is reached
    /// and the request should be shed.
    fn try_permit(&self) -> Option<CountGuard<'_>> {
        let take = |n: usize| (n < self.config.permits).then_some(n + 1);
        let taken = self
            .fetching
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take);
        taken.ok().map(|_| CountGuard(&self.fetching))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ERR_INTERNAL;
    use crate::router::Replicas;
    use crate::server::{Origin, ServerConfig, Window};
    use crate::stats::*;
    use crate::wire::encode_frame_v2;
    use accelviz_beam::distribution::Distribution;
    use accelviz_core::hybrid::HybridFrame;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;
    use accelviz_octree::sorted_store::PartitionedData;
    use std::sync::Barrier;

    fn stores(n: usize) -> Vec<PartitionedData> {
        (0..n)
            .map(|i| {
                let ps = Distribution::default_beam().sample(800, i as u64 + 1);
                partition(&ps, PlotType::XYZ, BuildParams::default())
            })
            .collect()
    }

    /// A server's state over `stores(frames)`, no door.
    fn started(frames: usize, config: ServerConfig) -> Service<Window> {
        let origin = Origin::from(stores(frames));
        let window = Window { origin, config };
        Service::new(window, Arc::new(Registry::new()), config.service())
    }

    fn hint(frame: u32) -> ReadAhead {
        ReadAhead {
            frame,
            threshold: f64::INFINITY,
            shape: Shape::Plain,
        }
    }

    /// Spins until `done`: a wait on a counter, not on the clock.
    fn wait_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    fn building<O: FrameOrigin>(service: &Service<O>) -> usize {
        service.fetching.load(Ordering::SeqCst)
    }

    /// The names operators read, and OPERATIONS.md's tables, are the
    /// names each role's door and ledger count under.
    #[test]
    fn each_roles_derived_names_are_its_public_names() {
        use crate::router::*;
        let serve = Window::NAMES;
        let router = Replicas::NAMES;
        let pairs = [
            (
                serve.requests,
                CTR_REQUESTS,
                router.requests,
                CTR_ROUTER_REQUESTS,
            ),
            (
                serve.bytes_sent,
                CTR_BYTES_SENT,
                router.bytes_sent,
                CTR_ROUTER_BYTES_SENT,
            ),
            (
                serve.frames_served,
                CTR_FRAMES_SERVED,
                router.frames_served,
                CTR_ROUTER_FRAMES_SERVED,
            ),
            (
                serve.shed_connections,
                CTR_SHED_CONNECTIONS,
                router.shed_connections,
                CTR_ROUTER_SHED_CONNECTIONS,
            ),
            (
                serve.accept_errors,
                CTR_ACCEPT_ERRORS,
                router.accept_errors,
                CTR_ROUTER_ACCEPT_ERRORS,
            ),
            (
                serve.handler_panics,
                CTR_HANDLER_PANICS,
                router.handler_panics,
                CTR_ROUTER_HANDLER_PANICS,
            ),
            (
                serve.latency,
                HIST_LATENCY,
                router.latency,
                HIST_ROUTER_LATENCY,
            ),
            (
                serve.frame_bytes_raw,
                CTR_FRAME_BYTES_RAW,
                router.frame_bytes_raw,
                CTR_ROUTER_FRAME_BYTES_RAW,
            ),
            (
                serve.frame_bytes_wire,
                CTR_FRAME_BYTES_WIRE,
                router.frame_bytes_wire,
                CTR_ROUTER_FRAME_BYTES_WIRE,
            ),
            (
                serve.lod_requests,
                CTR_LOD_REQUESTS,
                router.lod_requests,
                CTR_ROUTER_LOD_REQUESTS,
            ),
            (
                serve.lod_chunks,
                CTR_LOD_CHUNKS,
                router.lod_chunks,
                CTR_ROUTER_LOD_CHUNKS,
            ),
            (
                serve.lod_bytes_wire,
                CTR_LOD_BYTES_WIRE,
                router.lod_bytes_wire,
                CTR_ROUTER_LOD_BYTES_WIRE,
            ),
            (
                serve.cache_hits,
                CTR_CACHE_HITS,
                router.cache_hits,
                CTR_ROUTER_CACHE_HITS,
            ),
            (
                serve.cache_misses,
                CTR_CACHE_MISSES,
                router.cache_misses,
                CTR_ROUTER_CACHE_MISSES,
            ),
            (
                serve.coalesced_fetches,
                CTR_COALESCED,
                router.coalesced_fetches,
                CTR_ROUTER_COALESCED,
            ),
        ];
        for (serve_name, serve_const, router_name, router_const) in pairs {
            assert_eq!(serve_name, serve_const);
            assert_eq!(router_name, router_const);
        }
        // Counted by a server only: a router neither sheds a fetch nor
        // reads ahead.
        for (name, public) in [
            (serve.shed_extractions, CTR_SHED_EXTRACTIONS),
            (serve.readahead_hints, CTR_READAHEAD_HINTS),
            (serve.readahead_fetches, CTR_READAHEAD_FETCHES),
            (serve.readahead_dropped, CTR_READAHEAD_DROPPED),
        ] {
            assert_eq!(name, public);
        }
        assert_eq!(serve.span_lookup, Some("serve.extract"));
        assert_eq!(router.span_lookup, None, "a router's lookup opens no span");
    }

    /// One frame behind a gate: its fetch meets the test at `entered`,
    /// then waits at `gate` to be let through. Counts as a server, or as a
    /// router.
    struct Gated<const ROUTER: bool> {
        entered: Barrier,
        gate: Barrier,
    }

    impl<const ROUTER: bool> FrameOrigin for Gated<ROUTER> {
        const NAMES: CounterNames = if ROUTER {
            Replicas::NAMES
        } else {
            Window::NAMES
        };
        const READS_AHEAD: bool = if ROUTER {
            Replicas::READS_AHEAD
        } else {
            Window::READS_AHEAD
        };

        fn frame_count(&self) -> usize {
            1
        }

        fn catalog(&self) -> Vec<FrameInfo> {
            Vec::new()
        }

        fn fetch(&self, frame: u32, threshold: f64) -> Result<Served, Refusal> {
            self.entered.wait();
            self.gate.wait();
            let data = &stores(1)[0];
            Ok(Served::new(HybridFrame::from_partition(
                data,
                frame as usize,
                threshold,
                [2, 2, 2],
            )))
        }

        fn reads_ahead(&self, _next: u32) -> bool {
            true
        }

        fn stats(&self, own: &Registry) -> Snapshot {
            own.snapshot()
        }
    }

    /// A service over a gated origin of either role.
    fn gated<const ROUTER: bool>() -> Service<Gated<ROUTER>> {
        let origin = Gated::<ROUTER> {
            entered: Barrier::new(2),
            gate: Barrier::new(2),
        };
        let config = ServerConfig::default().service();
        Service::new(origin, Arc::new(Registry::new()), config)
    }

    /// `HERD` requests for one cold frame, all held on its one gated
    /// fetch: one miss, and every other request a hit that coalesced.
    fn a_herd_costs_one_fetch<const ROUTER: bool>() {
        const HERD: usize = 6;
        let service = gated::<ROUTER>();
        let key = CacheKey::new(0, 0.5);
        std::thread::scope(|s| {
            let ask = || s.spawn(|| service.frame(0, 0.5, Shape::Plain).is_ok());
            let fetcher = ask();
            service.origin.entered.wait(); // the one fetch is running
            let waiters: Vec<_> = (1..HERD).map(|_| ask()).collect();
            wait_until(|| service.cache.parked(&key) == HERD - 1);
            service.origin.gate.wait();
            for request in std::iter::once(fetcher).chain(waiters) {
                assert!(request.join().unwrap(), "every request gets the frame");
            }
        });
        let names = Gated::<ROUTER>::NAMES;
        let count = |name| service.metrics.counter(name);
        let ledger = (
            count(names.cache_misses),
            count(names.cache_hits),
            count(names.coalesced_fetches),
        );
        let herd = HERD as u64;
        assert_eq!(ledger, (1, herd - 1, herd - 1));
        if ROUTER {
            // A router neither reads ahead nor counts the hints it is
            // handed.
            service.read_ahead(hint(0));
            let counted = service.metrics.snapshot().counters;
            assert_eq!(counted.len(), 3, "only the ledger: {counted:?}");
        }
    }

    #[test]
    fn a_herd_on_a_cold_frame_is_one_miss_on_a_server() {
        a_herd_costs_one_fetch::<false>();
    }

    #[test]
    fn a_herd_on_a_cold_frame_is_one_miss_on_a_router() {
        a_herd_costs_one_fetch::<true>();
    }

    /// Two stepping sessions hint while the first one's read-ahead fetch
    /// is held in its origin: that fetch is the only one, and the second
    /// hint is dropped, neither shed nor waiting.
    #[test]
    fn one_read_ahead_fetch_runs_at_a_time() {
        let service = gated::<false>();
        let (entered, gate) = (&service.origin.entered, &service.origin.gate);
        let at = |threshold| ReadAhead {
            frame: 0,
            threshold,
            shape: Shape::Plain,
        };
        let count = |name| service.metrics.counter(name);
        std::thread::scope(|s| {
            let first = s.spawn(|| service.read_ahead(at(0.5)));
            entered.wait(); // the first session's fetch is running
            s.spawn(|| service.read_ahead(at(0.25))).join().unwrap();
            assert_eq!(
                (count(CTR_READAHEAD_FETCHES), count(CTR_READAHEAD_DROPPED)),
                (0, 1)
            );
            gate.wait();
            first.join().unwrap();
        });
        assert_eq!(
            (count(CTR_READAHEAD_HINTS), count(CTR_READAHEAD_FETCHES)),
            (2, 1)
        );
        assert_eq!(count(CTR_SHED_EXTRACTIONS), 0, "nothing was refused");
        assert!(service.cache.get(&CacheKey::new(0, 0.5)).is_some());
        assert!(service.cache.get(&CacheKey::new(0, 0.25)).is_none());
        // The next hint finds no read-ahead running, and fetches.
        std::thread::scope(|s| {
            let next = s.spawn(|| service.read_ahead(at(0.25)));
            entered.wait();
            gate.wait();
            next.join().unwrap();
        });
        assert_eq!(count(CTR_READAHEAD_FETCHES), 2);
        assert_eq!(building(&service), 0, "every permit came back");
    }

    #[test]
    fn fetch_permits_are_bounded_and_returned() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let service = started(0, config);
        let a = service.try_permit();
        let b = service.try_permit();
        assert!(a.is_some() && b.is_some());
        assert!(service.try_permit().is_none(), "limit is 2");
        drop(a);
        assert!(
            service.try_permit().is_some(),
            "a dropped permit frees a slot"
        );
    }

    #[test]
    fn a_speculative_fetch_is_encoded_ahead_and_then_hit() {
        let service = started(3, ServerConfig::default());
        let count = |name| service.metrics.counter(name);
        service.speculate(hint(1));
        assert_eq!(count(CTR_READAHEAD_FETCHES), 1);
        assert_eq!(building(&service), 0, "the permit came back");
        let served = service.frame(1, f64::INFINITY, Shape::Plain).unwrap();
        let frame = served.frame().unwrap();
        let encoded_ahead = served.held_bytes() - frame.total_bytes();
        assert_eq!(encoded_ahead, encode_frame_v2(frame).0.len() as u64);
        // The request is a hit; the speculative fetch was never a miss.
        assert_eq!((count(CTR_CACHE_HITS), count(CTR_CACHE_MISSES)), (1, 0));
        // A hint for a resident frame fetches nothing and drops nothing.
        service.speculate(hint(1));
        assert_eq!(
            (count(CTR_READAHEAD_FETCHES), count(CTR_READAHEAD_DROPPED)),
            (1, 0)
        );
        // The same as a counted hint.
        service.read_ahead(hint(2));
        assert_eq!(
            (count(CTR_READAHEAD_HINTS), count(CTR_READAHEAD_FETCHES)),
            (1, 2)
        );
        assert_eq!(count(CTR_READAHEAD_DROPPED), 0);
    }

    #[test]
    fn with_every_permit_held_a_hint_is_dropped_not_shed() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let service = started(2, config);
        let held = [service.try_permit(), service.try_permit()];
        assert!(held.iter().all(Option::is_some));
        service.read_ahead(hint(1));
        let count = |name| service.metrics.counter(name);
        assert_eq!(
            (count(CTR_READAHEAD_FETCHES), count(CTR_READAHEAD_DROPPED)),
            (0, 1)
        );
        assert_eq!(count(CTR_SHED_EXTRACTIONS), 0, "nothing was refused");
        drop(held);
        // The demand request for the same frame is served, as a miss.
        assert!(service.frame(1, f64::INFINITY, Shape::Plain).is_ok());
        assert_eq!((count(CTR_CACHE_HITS), count(CTR_CACHE_MISSES)), (0, 1));
    }

    /// A read-ahead whose fetch panics (here: binning into a grid with no
    /// cells, which a config never asks for) vacates its key, returns its
    /// permit and its claim, and costs that hint only: the next one runs.
    #[test]
    fn a_panicking_read_ahead_takes_down_neither_the_next_hint_nor_the_key() {
        let config = ServerConfig {
            volume_dims: [0, 1, 1],
            ..ServerConfig::default()
        };
        let service = started(2, config);
        let count = |name| service.metrics.counter(name);
        service.read_ahead(hint(1));
        service.read_ahead(hint(0));
        assert_eq!(count(CTR_READAHEAD_HINTS), 2);
        assert_eq!(
            (count(CTR_READAHEAD_FETCHES), count(CTR_READAHEAD_DROPPED)),
            (0, 0),
            "both hints ran their fetch, and neither finished it"
        );
        assert_eq!(
            building(&service),
            0,
            "the doomed fetches' permits came back"
        );
        assert_eq!(service.fetching_ahead.load(Ordering::SeqCst), 0);
        let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = service.frame(1, f64::INFINITY, Shape::Plain);
        }));
        assert!(
            doomed.is_err(),
            "the key is vacant: a demand fetch runs, and panics itself"
        );
        // A frame past the catalog, which the door never asks for, is a
        // refusal, not a panic.
        let past = service
            .frame(7, f64::INFINITY, Shape::Plain)
            .err()
            .expect("no frame 7");
        assert_eq!(past.code, ERR_INTERNAL, "{past:?}");
    }
}
