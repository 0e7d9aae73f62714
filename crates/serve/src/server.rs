//! The multi-client frame server.
//!
//! A [`FrameServer`] is the frame origin behind one `crate::frontdoor`:
//! one [`CoalescingCache`] of extractions, weighed in bytes like the
//! router's ([`crate::cache`]), and one per-server metrics [`Registry`]
//! (counters under the `serve.*` names in [`crate::stats`]).
//! The door owns the connection lifecycle and the protocol — one
//! acceptor thread, one session thread per admitted connection running a
//! strict request/reply loop, one dispatcher answering every request.
//! The server owns the *partitioned* data — the density-sorted stores
//! produced by preprocessing, behind one residency window whether they
//! are still in memory or already in a run file (one [`Origin`]) — and
//! extracts hybrid frames on demand at whatever threshold a client
//! dials, which is exactly the paper's split: preprocessing near the
//! simulation, compact hybrid frames shipped to the desktop.
//!
//! Protection: the server sheds rather than degrades. Past
//! [`ServerConfig::max_connections`] a new connection gets one in-band
//! `ERR_BUSY` (with a retry-after hint) from a small bounded pool and is
//! closed, so a connect flood cannot mint threads. Past
//! [`ServerConfig::max_inflight_extractions`] a frame request that would
//! start a *new* extraction gets `ERR_BUSY` on its live connection
//! (cached and coalescing requests are always admitted — they are
//! cheap). A panicking request handler is isolated: the client gets
//! `ERR_INTERNAL`, the connection and the listener survive. Repeated
//! `accept(2)` failures (fd exhaustion) back off exponentially and are
//! counted under `serve.accept_errors` instead of hot-spinning. Shutdown
//! ends the acceptor's blocked `accept` with one connection to its own
//! address and drains in-flight replies (for at most a second) before
//! returning.
//!
//! Read-ahead: when the door reports that a session is stepping through
//! the series (`frontdoor::ReadAhead`), one helper thread per server
//! produces the successor — page-in, extraction, and the encoding that
//! session will ask for — through the same cache lookup a demand request
//! uses, while the current frame is still being sent, decoded and drawn.
//! It is speculation and gives way to everything: a 1-slot queue whose
//! overflow is dropped, a `try` extraction permit, no read-ahead at all
//! when the run's residency budget cannot hold the particles of the
//! current frame and the next together, and its own `serve.readahead_*`
//! counters so that `serve.cache_hits` / `serve.cache_misses` keep
//! counting *requests*.
//!
//! Scale-out: N of these servers can sit behind one
//! [`crate::router::FrameRouter`], all over one origin, each the
//! preferred owner of a rendezvous-hashed share of the catalog — clients
//! speak the identical protocol to the router and cannot tell the
//! difference (`crate::router`).

use crate::cache::{CacheKey, CoalescingCache, Fetched, Lookup, Served, DEFAULT_CACHE_BYTES};
use crate::frontdoor::{
    spawn_thread, CountGuard, CounterNames, DoorConfig, FrontDoor, Handler, ReadAhead, Shape, Spawn,
};
use crate::protocol::{FrameInfo, Refusal, ERR_BUSY, ERR_INTERNAL};
use crate::router::{invalid_input, ShardMap};
use crate::stats::{
    CTR_ACCEPT_ERRORS, CTR_BYTES_SENT, CTR_CACHE_HITS, CTR_CACHE_MISSES, CTR_FRAMES_SERVED,
    CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_HANDLER_PANICS, CTR_LOD_BYTES_WIRE,
    CTR_LOD_CHUNKS, CTR_LOD_REQUESTS, CTR_READAHEAD_DROPPED, CTR_READAHEAD_FETCHES,
    CTR_READAHEAD_HINTS, CTR_REQUESTS, CTR_SHED_CONNECTIONS, CTR_SHED_EXTRACTIONS, HIST_LATENCY,
};
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_core::shard::ShardSpec;
use accelviz_octree::extraction::threshold_for_budget_tree;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::{Registry, Snapshot};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Byte budget of the shared frame cache: LRU by what each entry
    /// holds on admission, the frame plus the encoding its request's shape
    /// asked for ([`Served::held_bytes`]). The router weighs its cache the
    /// same way ([`crate::router::RouterConfig::cache_bytes`]), and both
    /// default to [`DEFAULT_CACHE_BYTES`]. 0 holds the newest frame only,
    /// which is what a shard behind a router is given
    /// ([`crate::router::ShardedFrameService`]).
    pub cache_bytes: u64,
    /// Resolution of the density volume in served frames.
    pub volume_dims: [usize; 3],
    /// Point budget behind the catalog's suggested threshold.
    pub point_budget: usize,
    /// How long a session blocks reading a request before the connection
    /// is dropped; `None` waits forever. Without a bound, a client that
    /// connects and goes silent (or dribbles bytes) pins its session
    /// thread indefinitely.
    pub read_timeout: Option<Duration>,
    /// Same bound for writes (a client that stops draining its socket).
    pub write_timeout: Option<Duration>,
    /// Connections served concurrently; past this, new arrivals get one
    /// in-band `ERR_BUSY` and are closed (thread-per-connection must not
    /// become thread-per-attacker).
    pub max_connections: usize,
    /// Frame requests allowed to start *new* extractions concurrently;
    /// past this they are shed with `ERR_BUSY` on their live connection.
    /// Cached and coalescing requests are always admitted.
    pub max_inflight_extractions: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            volume_dims: [16, 16, 16],
            point_budget: 1_000,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
            max_inflight_extractions: 8,
        }
    }
}

/// Where a run's frames live: one [`ResidentRun`] window, paging from a
/// run file or seeded with partitions in memory. Every frame is extracted
/// from the window, so a server — direct or one shard of many — serves a
/// run bit-identically to the partitions it was written from.
#[derive(Clone)]
pub struct Origin {
    run: Arc<ResidentRun>,
    /// Under [`Origin::layout`], whether this shard holds a replica of
    /// each frame: the only frames a router asks it for, so the only ones
    /// it reads ahead. `None` reads ahead every frame.
    owned: Option<Arc<[bool]>>,
}

impl From<Vec<PartitionedData>> for Origin {
    fn from(data: Vec<PartitionedData>) -> Origin {
        Origin::from(Arc::new(ResidentRun::from_memory(data)))
    }
}

impl From<Arc<ResidentRun>> for Origin {
    fn from(run: Arc<ResidentRun>) -> Origin {
        Origin { run, owned: None }
    }
}

impl Origin {
    /// Whether to read frame `next < frame_count()` ahead: this shard
    /// holds a replica of it, and the window can page it in beside its
    /// predecessor — the frame being served meanwhile — without evicting
    /// either. Both frames are charged their raw particle bytes, not
    /// their compact window entries: a cold page-in holds the whole frame
    /// while it bins the grid. A window seeded from memory is unbounded.
    fn reads_ahead(&self, next: usize) -> bool {
        let run = &self.run;
        let current = (next + run.frame_count() - 1) % run.frame_count();
        let bytes = |i| run.particle_count(i).saturating_mul(BYTES_PER_PARTICLE);
        let room = bytes(current).saturating_add(bytes(next)) <= run.stats().budget_bytes;
        room && self.owned.as_ref().is_none_or(|owned| owned[next])
    }

    /// Frame `frame` extracted at `threshold` into a `dims` volume, from
    /// what the window holds of the frame's kept prefix and grid: it
    /// reads only what the window lacks, and never the particles the
    /// threshold discards.
    fn extract(&self, frame: u32, threshold: f64, dims: [usize; 3]) -> Fetched {
        let index = frame as usize;
        let (extracted, _) = self.run.hybrid_frame(index, threshold, dims).map_err(|e| {
            let why = format!("run store failed loading frame {frame}: {e}");
            Refusal::new(ERR_INTERNAL, why)
        })?;
        Ok(Arc::new(Served::new(extracted)))
    }

    /// Spreads this origin over `shards` shards, each frame on
    /// `replication` of them: the [`ShardMap`] a router routes by
    /// ([`ShardMap::shared_replicated`]), and at index `s` shard `s`'s
    /// origin: the one window, read ahead where `s` holds a replica.
    /// `InvalidInput` for zero shards or zero replication; `replication`
    /// above `shards` clamps. [`crate::router::FrameRouter`]'s example
    /// wires a router.
    pub fn layout(&self, shards: usize, replication: usize) -> io::Result<(ShardMap, Vec<Origin>)> {
        if shards == 0 {
            return Err(invalid_input("a sharded service needs at least one shard"));
        }
        if replication == 0 {
            return Err(invalid_input(
                "a sharded service needs a replication factor of at least 1",
            ));
        }
        let spec = ShardSpec::new(shards);
        let map = ShardMap::shared_replicated(&spec, self.run.frame_count(), replication);
        let holds = |s, g| map.replicas(g).into_iter().flatten().any(|&(o, _)| o == s);
        let origins = (0..shards as u32).map(|s| Origin {
            run: Arc::clone(&self.run),
            owned: Some((0..map.frame_count() as u32).map(|g| holds(s, g)).collect()),
        });
        let origins = origins.collect();
        Ok((map, origins))
    }
}

/// The state every session of one server, and its read-ahead helper,
/// share.
struct Shared {
    origin: Origin,
    config: ServerConfig,
    cache: CoalescingCache,
    metrics: Registry,
    building_extractions: AtomicUsize,
    /// The helper's queue: one slot, so a hint finds room or is dropped.
    /// `None` once the server is stopping — which is also how the helper
    /// learns of it.
    hints: Mutex<Option<mpsc::SyncSender<ReadAhead>>>,
}

impl Handler for Shared {
    const NAMES: CounterNames = CounterNames {
        requests: CTR_REQUESTS,
        bytes_sent: CTR_BYTES_SENT,
        frames_served: CTR_FRAMES_SERVED,
        shed_connections: CTR_SHED_CONNECTIONS,
        accept_errors: CTR_ACCEPT_ERRORS,
        handler_panics: CTR_HANDLER_PANICS,
        latency: HIST_LATENCY,
        frame_bytes_raw: CTR_FRAME_BYTES_RAW,
        frame_bytes_wire: CTR_FRAME_BYTES_WIRE,
        lod_requests: CTR_LOD_REQUESTS,
        lod_chunks: CTR_LOD_CHUNKS,
        lod_bytes_wire: CTR_LOD_BYTES_WIRE,
        span_request: "serve.request",
        span_send: "serve.send",
        span_lod_send: "serve.lod_send",
    };

    fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn frame_count(&self) -> usize {
        self.origin.run.frame_count()
    }

    /// From particle counts and the always-resident octrees: no I/O.
    fn catalog(&self) -> Vec<FrameInfo> {
        let (run, budget) = (&self.origin.run, self.config.point_budget);
        (0..run.frame_count())
            .map(|i| FrameInfo {
                frame: i as u32,
                step: i as u64,
                particles: run.particle_count(i),
                default_threshold: threshold_for_budget_tree(&run.tree(i).0, budget),
            })
            .collect()
    }

    fn frame(&self, frame: u32, threshold: f64, shape: Shape) -> Fetched {
        let mut span = accelviz_trace::span("serve.extract");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let (fetched, lookup) = self.lookup(frame, threshold, shape, None);
        span.arg("cache_hit", (lookup != Lookup::Fetched) as u64 as f64);
        // A refusal served nothing: it is counted where it was refused
        // (`serve.shed_extractions`), never as a hit or a miss. A request
        // answered from an entry the helper produced, or is producing,
        // is a hit.
        if fetched.is_ok() {
            let served_from = match lookup {
                Lookup::Fetched => CTR_CACHE_MISSES,
                Lookup::Hit | Lookup::Coalesced => CTR_CACHE_HITS,
            };
            self.metrics.add(served_from, 1);
        }
        fetched
    }

    /// The registry, plus a paged window's counters under their
    /// `store.resident_*` names. A window seeded from memory never pages,
    /// so its server's reply is the registry alone.
    fn stats(&self) -> Snapshot {
        let mut snapshot = self.metrics.snapshot();
        if self.origin.run.pages() {
            for (name, value) in self.origin.run.stats().counters() {
                snapshot.counters.insert(name.to_string(), value);
            }
        }
        snapshot
    }

    /// Queues the hint for the helper, or drops it: the session that
    /// brought it is waiting for its own frame.
    fn read_ahead(&self, hint: ReadAhead) {
        self.metrics.add(CTR_READAHEAD_HINTS, 1);
        let hints = lock(&self.hints);
        if hints.as_ref().is_none_or(|tx| tx.try_send(hint).is_err()) {
            self.metrics.add(CTR_READAHEAD_DROPPED, 1);
        }
    }
}

impl Shared {
    /// The shared state and, unless `spawn_helper` refuses, its running
    /// read-ahead helper. A refused helper takes the queue's receiving
    /// end with it, so every hint finds the queue closed and is dropped.
    fn start(
        origin: Origin,
        config: ServerConfig,
        spawn_helper: Spawn,
    ) -> (Arc<Shared>, Option<JoinHandle<()>>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let shared = Arc::new(Shared {
            origin,
            config,
            cache: CoalescingCache::new(config.cache_bytes, Served::held_bytes),
            metrics: Registry::new(),
            building_extractions: AtomicUsize::new(0),
            hints: Mutex::new(Some(tx)),
        });
        let helper = {
            let shared = Arc::clone(&shared);
            spawn_helper(Box::new(move || read_ahead_loop(&shared, rx))).ok()
        };
        (shared, helper)
    }

    /// Closes the hint queue and joins the helper: the hint it is running
    /// finishes (a fetch others may have coalesced onto is never
    /// abandoned), a queued one is discarded.
    fn stop_helper(&self, helper: Option<JoinHandle<()>>) {
        *lock(&self.hints) = None;
        if let Some(helper) = helper {
            let _ = helper.join();
        }
    }

    /// The one cache lookup, for demand and speculative callers alike.
    /// On a miss the fetch is one fresh extraction under an extraction
    /// permit, encoded as `shape` asks before it is admitted, so the entry
    /// is weighed with its payload — and load shedding and a run's page-in never
    /// touch a request the cache can answer or coalesce; those are cheap
    /// and always admitted, and serving them must not churn the
    /// residency window. A demand caller passes no permit and takes one
    /// there, or is shed; the helper brings its own, taken *before* the
    /// key can be marked in flight, so a demand request never coalesces
    /// onto a fetch that is then dropped for want of one.
    fn lookup(
        &self,
        frame: u32,
        threshold: f64,
        shape: Shape,
        permit: Option<CountGuard<'_>>,
    ) -> (Fetched, Lookup) {
        self.cache
            .get_or_fetch(CacheKey::new(frame, threshold), || {
                let speculative = permit.is_some();
                let Some(_permit) = permit.or_else(|| try_extraction_permit(self)) else {
                    self.metrics.add(CTR_SHED_EXTRACTIONS, 1);
                    return Err(Refusal::new(
                        ERR_BUSY,
                        "extraction capacity reached; retry after ~100 ms",
                    ));
                };
                let served = self
                    .origin
                    .extract(frame, threshold, self.config.volume_dims)?;
                served.prefill(shape);
                // Counted before the entry is published: whoever is served
                // from it can already read that it was fetched ahead.
                if speculative {
                    self.metrics.add(CTR_READAHEAD_FETCHES, 1);
                }
                Ok(served)
            })
    }

    /// One hint, on the helper's thread: produce the frame unless it is
    /// resident, then fill the encoding the session will ask for. Never
    /// at a demand request's expense — without a free extraction permit,
    /// or room in the residency window for this frame beside the one
    /// being served, or a replica of it on this shard, the hint is
    /// dropped.
    fn speculate(&self, hint: ReadAhead) {
        let _span = accelviz_trace::span("serve.readahead");
        let ReadAhead {
            frame,
            threshold,
            shape,
        } = hint;
        if let Some(resident) = self.cache.get(&CacheKey::new(frame, threshold)) {
            return resident.prefill(shape);
        }
        let room = self.origin.reads_ahead(frame as usize);
        let Some(permit) = room.then(|| try_extraction_permit(self)).flatten() else {
            self.metrics.add(CTR_READAHEAD_DROPPED, 1);
            return;
        };
        // An entry this hint coalesced onto was filled for its fetcher's
        // shape, which need not be this session's.
        if let (Ok(served), _) = self.lookup(frame, threshold, shape, Some(permit)) {
            served.prefill(shape);
        }
    }
}

/// The helper thread: runs queued hints until the queue closes. A
/// panicking fetch has vacated its key by the time it unwinds to here
/// (the cache's rule) and costs that one hint, not the helper.
fn read_ahead_loop(shared: &Shared, hints: mpsc::Receiver<ReadAhead>) {
    while let Ok(hint) = hints.recv() {
        // Stopping: what is still queued is nobody's next frame.
        if lock(&shared.hints).is_none() {
            break;
        }
        let run = std::panic::AssertUnwindSafe(|| shared.speculate(hint));
        let _ = std::panic::catch_unwind(run);
    }
}

/// A running frame server. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the acceptor — woken by a connection
/// to its own address, so an *idle* server shuts down promptly too —
/// drains in-flight replies for at most a second, then joins the
/// read-ahead helper.
pub struct FrameServer {
    door: FrontDoor<Shared>,
    /// The read-ahead helper; `None` when the OS refused the thread (the
    /// server then serves without read-ahead) and once it is joined.
    helper: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` and starts serving `origin`'s frames, frame `i` at
    /// step `i`: an out-of-core run (`Arc<ResidentRun>`, of which only
    /// the run's budget worth of particle data is ever in memory), or
    /// partitions in memory (`Vec<PartitionedData>`, in index order),
    /// which seed a window of their own.
    pub fn spawn(
        addr: &str,
        origin: impl Into<Origin>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, origin.into(), config, spawn_thread)
    }

    /// [`FrameServer::spawn`] on an OS-assigned loopback port — the test
    /// and example topology.
    pub fn spawn_loopback(
        origin: impl Into<Origin>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn("127.0.0.1:0", origin, config)
    }

    /// [`FrameServer::spawn_loopback`] under its older name, kept only
    /// because the benchmark harness calls it.
    pub fn spawn_stored_loopback(
        origin: impl Into<Origin>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_loopback(origin, config)
    }

    /// `spawn_helper` starts the read-ahead helper; a refusal costs
    /// read-ahead, not the server.
    fn spawn_inner(
        addr: &str,
        origin: Origin,
        config: ServerConfig,
        spawn_helper: Spawn,
    ) -> io::Result<FrameServer> {
        let (shared, helper) = Shared::start(origin, config, spawn_helper);
        let door = FrontDoor::open(
            addr,
            Arc::clone(&shared),
            DoorConfig {
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                max_connections: config.max_connections,
                spawn: spawn_thread,
            },
        );
        match door {
            Ok(door) => Ok(FrameServer { door, helper }),
            Err(e) => {
                shared.stop_helper(helper);
                Err(e)
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.door.addr()
    }

    /// This server's private metrics registry — what a `Stats` reply
    /// carries ([`Registry::snapshot`]), read in process. A stored
    /// server's reply adds its run's residency counters
    /// ([`accelviz_store::ResidentStats::counters`]).
    pub fn metrics(&self) -> &Registry {
        &self.door.handler().metrics
    }

    /// Stops accepting connections, joins the acceptor, drains in-flight
    /// replies for at most a second, and joins the read-ahead helper.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.door.close();
        self.door.handler().stop_helper(self.helper.take());
    }
}

/// Tries to take one extraction permit; `None` means the limit is
/// reached and the request should be shed.
fn try_extraction_permit(shared: &Shared) -> Option<CountGuard<'_>> {
    let limit = shared.config.max_inflight_extractions;
    let gauge = &shared.building_extractions;
    let mut current = gauge.load(Ordering::SeqCst);
    loop {
        if current >= limit {
            return None;
        }
        match gauge.compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return Some(CountGuard(gauge)),
            Err(actual) => current = actual,
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
    use crate::client::Client;
    use crate::wire::encode_frame_v2;
    use accelviz_beam::distribution::Distribution;
    use accelviz_core::hybrid::HybridFrame;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;

    fn stores(n: usize) -> Vec<PartitionedData> {
        (0..n)
            .map(|i| {
                let ps = Distribution::default_beam().sample(800, i as u64 + 1);
                partition(&ps, PlotType::XYZ, BuildParams::default())
            })
            .collect()
    }

    #[test]
    fn server_binds_an_ephemeral_loopback_port() {
        let server = FrameServer::spawn_loopback(stores(1), ServerConfig::default()).unwrap();
        assert!(server.addr().port() != 0);
        assert!(server.addr().ip().is_loopback());
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_under_drop() {
        let server = FrameServer::spawn_loopback(stores(1), ServerConfig::default()).unwrap();
        drop(server); // Drop runs stop() after an explicit-path exercise elsewhere
    }

    /// Shared state over `stores(frames)` with a running helper, no door.
    fn started(frames: usize, config: ServerConfig) -> (Arc<Shared>, Option<JoinHandle<()>>) {
        Shared::start(stores(frames).into(), config, spawn_thread)
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

    #[test]
    fn extraction_permits_are_bounded_and_returned() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let (shared, helper) = started(0, config);
        let a = try_extraction_permit(&shared);
        let b = try_extraction_permit(&shared);
        assert!(a.is_some() && b.is_some());
        assert!(try_extraction_permit(&shared).is_none(), "limit is 2");
        drop(a);
        assert!(
            try_extraction_permit(&shared).is_some(),
            "a dropped permit frees a slot"
        );
        shared.stop_helper(helper);
    }

    #[test]
    fn a_speculative_fetch_is_encoded_ahead_and_then_hit() {
        let (shared, helper) = started(3, ServerConfig::default());
        let count = |name| shared.metrics.counter(name);
        shared.speculate(hint(1));
        assert_eq!(count(CTR_READAHEAD_FETCHES), 1);
        assert_eq!(building(&shared), 0, "the permit came back");
        let served = shared.frame(1, f64::INFINITY, Shape::Plain).unwrap();
        let encoded_ahead = served.held_bytes() - served.frame().total_bytes();
        assert_eq!(
            encoded_ahead,
            encode_frame_v2(served.frame()).0.len() as u64
        );
        // The request is a hit; the speculative fetch was never a miss.
        assert_eq!((count(CTR_CACHE_HITS), count(CTR_CACHE_MISSES)), (1, 0));
        // A hint for a resident frame fetches nothing and drops nothing.
        shared.speculate(hint(1));
        assert_eq!(
            (count(CTR_READAHEAD_FETCHES), count(CTR_READAHEAD_DROPPED)),
            (1, 0)
        );
        // The same through the queue, on the helper's thread.
        shared.read_ahead(hint(2));
        wait_until(|| count(CTR_READAHEAD_FETCHES) == 2);
        assert_eq!(
            (count(CTR_READAHEAD_HINTS), count(CTR_READAHEAD_DROPPED)),
            (1, 0)
        );
        shared.stop_helper(helper);
    }

    fn building(shared: &Shared) -> usize {
        shared.building_extractions.load(Ordering::SeqCst)
    }

    #[test]
    fn with_every_permit_held_a_hint_is_dropped_not_shed() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let (shared, helper) = started(2, config);
        let held = [
            try_extraction_permit(&shared),
            try_extraction_permit(&shared),
        ];
        assert!(held.iter().all(Option::is_some));
        shared.read_ahead(hint(1));
        let count = |name| shared.metrics.counter(name);
        wait_until(|| count(CTR_READAHEAD_DROPPED) == 1);
        assert_eq!(count(CTR_READAHEAD_FETCHES), 0);
        assert_eq!(count(CTR_SHED_EXTRACTIONS), 0, "nothing was refused");
        drop(held);
        // The demand request for the same frame is served, as a miss.
        assert!(shared.frame(1, f64::INFINITY, Shape::Plain).is_ok());
        assert_eq!((count(CTR_CACHE_HITS), count(CTR_CACHE_MISSES)), (0, 1));
        shared.stop_helper(helper);
    }

    /// A fetch that panics on the helper's thread (here: binning into a
    /// grid with no cells, which a config never asks for) vacates its key
    /// and costs that hint only.
    #[test]
    fn a_panicking_speculative_fetch_takes_down_neither_the_helper_nor_the_key() {
        let config = ServerConfig {
            volume_dims: [0, 1, 1],
            ..ServerConfig::default()
        };
        let (shared, helper) = started(2, config);
        let count = |name| shared.metrics.counter(name);
        shared.read_ahead(hint(1));
        // A hint finds the slot free only once the helper has taken the
        // one before it: three admitted means the helper outlived the
        // first hint's panic.
        wait_until(|| {
            shared.read_ahead(hint(0));
            count(CTR_READAHEAD_HINTS) - count(CTR_READAHEAD_DROPPED) == 3
        });
        shared.stop_helper(helper);
        assert_eq!(count(CTR_READAHEAD_FETCHES), 0);
        assert_eq!(
            building(&shared),
            0,
            "the doomed fetches' permits came back"
        );
        let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = shared.frame(1, f64::INFINITY, Shape::Plain);
        }));
        assert!(
            doomed.is_err(),
            "the key is vacant: a demand fetch runs, and panics itself"
        );
        // A frame past the catalog, which the door never asks for, is a
        // refusal, not a panic.
        let past = shared
            .frame(7, f64::INFINITY, Shape::Plain)
            .err()
            .expect("no frame 7");
        assert_eq!(past.code, ERR_INTERNAL, "{past:?}");
    }

    /// Stop with one hint in flight and one queued: the one in flight
    /// finishes (here it has coalesced onto a fetch this test holds open),
    /// the queued one is discarded, and the helper is gone on return.
    #[test]
    fn stop_finishes_the_hint_in_flight_and_discards_the_queued_one() {
        let (shared, helper) = started(3, ServerConfig::default());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // A demand-side fetch of frame 1, parked inside its fetch.
            let shared = &*shared;
            s.spawn(move || {
                let key = CacheKey::new(1, f64::INFINITY);
                let _ = shared.cache.get_or_fetch(key, || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    let dims = shared.config.volume_dims;
                    shared.origin.extract(1, f64::INFINITY, dims)
                });
            });
            entered_rx.recv().unwrap();
            shared.read_ahead(hint(1)); // in flight: coalesces onto the parked fetch
            let count = |name| shared.metrics.counter(name);
            // Once a second hint finds the slot free the helper has taken
            // the first; a third then finds the slot full.
            wait_until(|| {
                shared.read_ahead(hint(2));
                count(CTR_READAHEAD_HINTS) - count(CTR_READAHEAD_DROPPED) == 2
            });
            let stopper = s.spawn(move || shared.stop_helper(helper));
            wait_until(|| lock(&shared.hints).is_none());
            release_tx.send(()).unwrap();
            stopper.join().unwrap();
            assert_eq!(count(CTR_READAHEAD_FETCHES), 0, "frame 2 was never fetched");
            assert!(shared.cache.get(&CacheKey::new(2, f64::INFINITY)).is_none());
        });
        assert_eq!(Arc::strong_count(&shared), 1, "the helper thread is gone");
    }

    /// The OS refusing the helper thread costs read-ahead, not the
    /// server: a stepping session is served bit-identically, every hint
    /// counted as dropped.
    #[test]
    fn a_refused_helper_thread_costs_read_ahead_not_the_server() {
        let refuse: Spawn = |_body| Err(io::Error::from(io::ErrorKind::WouldBlock));
        let data = stores(4);
        let config = ServerConfig::default();
        let origin = data.clone().into();
        let server = FrameServer::spawn_inner("127.0.0.1:0", origin, config, refuse)
            .expect("the server starts without its helper");
        assert!(server.helper.is_none());
        let mut client = Client::connect(server.addr()).unwrap();
        for (i, d) in data.iter().enumerate() {
            let (got, _) = client.fetch(i as u32, f64::INFINITY).unwrap();
            let want = HybridFrame::from_partition(d, i, f64::INFINITY, config.volume_dims);
            assert_eq!(got, want, "frame {i}");
        }
        let count = |name| server.metrics().counter(name);
        assert_eq!(
            (count(CTR_READAHEAD_HINTS), count(CTR_READAHEAD_DROPPED)),
            (3, 3)
        );
        assert_eq!(
            (count(CTR_READAHEAD_FETCHES), count(CTR_CACHE_MISSES)),
            (0, 4)
        );
        drop(client);
        server.shutdown();
    }
}
