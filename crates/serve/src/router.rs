//! The shard router: one AVWF front door over N frame servers.
//!
//! The paper's remote pipeline pairs one server with one viewer; scaling
//! one terascale run to many concurrent dashboards means spreading the
//! frame catalog over N shard servers ([`crate::server::FrameServer`]s)
//! and putting a router in front that clients cannot tell from a single
//! big server — the same `crate::frontdoor` serves both:
//!
//! - `Hello` negotiates a protocol version locally, exactly like a
//!   direct server — the client's session version is independent of the
//!   (always newest) version the router speaks to its shards.
//! - `ListFrames` answers with the merged catalog: every shard's local
//!   catalog stitched back into global frame order at spawn time.
//! - `RequestFrame` routes to the owning shard (the [`ShardMap`] built
//!   from an [`ShardSpec`] rendezvous layout) over a pooled upstream
//!   [`crate::client::Client`] — so the proxy leg inherits the client
//!   layer's reconnect-and-replay retry machinery unchanged.
//! - `Stats` sums every shard's counters into one wire-shaped
//!   [`ServerStats`]; the router's own `router.*` counters live in its
//!   private registry ([`FrameRouter::metrics`]) because the `Stats`
//!   wire shape is frozen.
//!
//! Herd coalescing: the router keeps its own small LRU of decoded frames
//! keyed `(global frame, threshold bits)`, with the same
//! collapse-identical-requests discipline as the server's extraction
//! cache — a thundering herd of M clients on one cold frame costs one
//! upstream fetch (and therefore at most one extraction on the owning
//! shard). Upstream *failures* are shared with every coalesced waiter
//! but never cached, so a shard coming back is observed on the very next
//! request.
//!
//! Failure semantics (the PR 5 degradation model, one hop out): when a
//! shard dies mid-session the router retries per its upstream policy,
//! then answers that frame with an in-band `ERR_INTERNAL` while the
//! catalog and every other shard's frames keep serving. A resilient
//! client ([`crate::client::RemoteFrames`]) turns that into a
//! flagged-stale degraded frame instead of a dead session; when the
//! shard returns (or [`FrameRouter::set_shard_addr`] repoints its pool
//! at a replacement), the same requests simply succeed again.

use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::cache::CacheKey;
use crate::client::{Client, ClientConfig};
use crate::frontdoor::{CounterNames, DoorConfig, FrontDoor, Handler};
use crate::health::{HealthConfig, Prober};
use crate::lru::LruOrder;
use crate::protocol::{
    write_response_v, FrameInfo, Request, Response, ERR_BAD_REQUEST, ERR_BAD_THRESHOLD,
    ERR_INTERNAL, ERR_NO_SUCH_FRAME, RESP_FRAME,
};
use crate::retry::RetryPolicy;
use crate::server::{FrameServer, ServerConfig};
use crate::stats::ServerStats;
use crate::wire::{encode_frame, encode_frame_v2, write_envelope_v, V2, VERSION};
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::shard::ShardSpec;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::Registry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Registry counter: requests the router handled, across all clients
/// and kinds.
pub const CTR_ROUTER_REQUESTS: &str = "router.requests";
/// Registry counter: frame replies the router sent downstream.
pub const CTR_ROUTER_FRAMES_SERVED: &str = "router.frames_served";
/// Registry counter: payload + framing bytes the router wrote to
/// clients.
pub const CTR_ROUTER_BYTES_SENT: &str = "router.bytes_sent";
/// Registry counter: frame requests answered from the router's frame
/// cache (including coalesced waiters).
pub const CTR_ROUTER_CACHE_HITS: &str = "router.cache_hits";
/// Registry counter: frame requests that went upstream to a shard.
pub const CTR_ROUTER_CACHE_MISSES: &str = "router.cache_misses";
/// Registry counter: frame requests that coalesced into an upstream
/// fetch already in flight (a subset of `router.cache_hits` — the herd
/// collapse at work).
pub const CTR_ROUTER_COALESCED: &str = "router.coalesced_fetches";
/// Registry counter: upstream fetches the router started (each one
/// costs the owning shard at most one extraction).
pub const CTR_ROUTER_UPSTREAM_FETCHES: &str = "router.upstream_fetches";
/// Registry counter: retries the pooled upstream clients burned against
/// shards (transient shard failures absorbed by the proxy leg).
pub const CTR_ROUTER_UPSTREAM_RETRIES: &str = "router.upstream_retries";
/// Registry counter: upstream operations that failed even after the
/// upstream retry policy — each one became an in-band `ERR_INTERNAL`
/// (for frames) or a zero contribution (for stats aggregation).
pub const CTR_ROUTER_UPSTREAM_ERRORS: &str = "router.upstream_errors";
/// Registry counter: connections shed at the router's connection cap —
/// answered one in-band `ERR_BUSY` from a bounded pool and closed,
/// exactly as a shard server sheds.
pub const CTR_ROUTER_SHED_CONNECTIONS: &str = "router.shed_connections";
/// Registry counter: `accept(2)` failures on the router listener.
pub const CTR_ROUTER_ACCEPT_ERRORS: &str = "router.accept_errors";
/// Registry counter: request handlers that panicked and were isolated
/// (the client got `ERR_INTERNAL`; the listener survived).
pub const CTR_ROUTER_HANDLER_PANICS: &str = "router.handler_panics";
/// Registry histogram: router request service time, including the
/// upstream hop for cache misses.
pub const HIST_ROUTER_LATENCY: &str = "router.request_latency";
/// Registry counter: progressive (LOD) frame requests the router served
/// by fetching the full frame upstream and re-chunking it locally.
pub const CTR_ROUTER_LOD_REQUESTS: &str = "router.lod_requests";
/// Registry counter: progressive chunk records the router wrote.
pub const CTR_ROUTER_LOD_CHUNKS: &str = "router.lod_chunks";
/// Registry counter: breaker trips (Closed or HalfOpen → Open) — a
/// shard was ejected from routing until it proves itself again.
pub const CTR_ROUTER_BREAKER_OPEN: &str = "router.breaker_open";
/// Registry counter: breaker cooldowns that elapsed into a half-open
/// trial (Open → HalfOpen).
pub const CTR_ROUTER_BREAKER_HALF_OPEN: &str = "router.breaker_half_open";
/// Registry counter: breaker reinstatements (Open or HalfOpen →
/// Closed), whether from a successful trial, a successful probe, or a
/// `set_shard_addr` reset.
pub const CTR_ROUTER_BREAKER_CLOSED: &str = "router.breaker_closed";
/// Registry counter: fetch attempts an open breaker rejected in
/// microseconds instead of burning the upstream retry budget.
pub const CTR_ROUTER_BREAKER_FAST_FAILS: &str = "router.breaker_fast_fails";
/// Registry counter: background health probes a shard answered.
pub const CTR_ROUTER_PROBE_OK: &str = "router.probe_ok";
/// Registry counter: background health probes a shard failed.
pub const CTR_ROUTER_PROBE_FAIL: &str = "router.probe_fail";
/// Registry counter: frame fetches ultimately served by a replica other
/// than the frame's primary owner — the redundancy at work.
pub const CTR_ROUTER_REPLICA_FAILOVERS: &str = "router.replica_failovers";
/// Registry counter: fetches where the hedge delay elapsed and a second
/// replica was raced against the slow primary.
pub const CTR_ROUTER_HEDGED_REQUESTS: &str = "router.hedged_requests";
/// Registry counter: hedged fetches where the raced replica answered
/// first (with the primary still in flight).
pub const CTR_ROUTER_HEDGED_WINS: &str = "router.hedged_wins";
/// Registry histogram: one upstream fetch attempt against a shard,
/// retries included — the distribution the hedge delay quantile is
/// derived from.
pub const HIST_ROUTER_UPSTREAM_LATENCY: &str = "router.upstream_latency";

/// Where every global frame lives: which shards hold a replica of it
/// (preference-ordered, primary first) and which *local* index each of
/// those shards knows it by. Built once from a [`ShardSpec`], a frame
/// count, and a replication factor, then shared by the shard launcher
/// (to provision the — possibly overlapping — slices) and the router
/// (to route requests and fall through replicas on failure).
///
/// ```
/// use accelviz_core::shard::ShardSpec;
/// use accelviz_serve::ShardMap;
///
/// let map = ShardMap::sliced(&ShardSpec::new(2), 6);
/// assert_eq!(map.frame_count(), 6);
/// assert_eq!(map.replication(), 1);
/// let (shard, _local) = map.locate(4).expect("frame 4 exists");
/// assert!(shard < map.shard_count());
/// // Out-of-catalog frames have no owner.
/// assert!(map.locate(6).is_none());
///
/// // At replication 2 every frame lives on two shards.
/// let map = ShardMap::sliced_replicated(&ShardSpec::new(3), 6, 2);
/// assert_eq!(map.replication(), 2);
/// assert_eq!(map.replicas(0).expect("frame 0 exists").len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// `replicas[g]` = preference-ordered `(shard, local index)` pairs
    /// for global frame `g`; the first entry is the primary owner.
    replicas: Vec<Vec<(u32, u32)>>,
    shards: usize,
    replication: usize,
}

impl ShardMap {
    /// The single-replica sliced layout — identical to the
    /// pre-replication behavior: each shard holds only the frames it
    /// primarily owns, packed in ascending global order. Shorthand for
    /// [`ShardMap::sliced_replicated`] with `replication == 1`.
    pub fn sliced(spec: &ShardSpec, frame_count: usize) -> ShardMap {
        ShardMap::sliced_replicated(spec, frame_count, 1)
    }

    /// The layout for *physically sliced* shards at a replication
    /// factor: each shard holds every frame whose top-`replication`
    /// rendezvous owner set includes it, packed in ascending global
    /// order, so global frame `g` is that shard's `rank(g)`-th local
    /// frame. This is what
    /// [`ShardedFrameService::spawn_loopback_replicated`] feeds its
    /// shards. `replication` is clamped to the shard count; zero is
    /// rejected by the underlying [`ShardSpec::owners`].
    pub fn sliced_replicated(spec: &ShardSpec, frame_count: usize, replication: usize) -> ShardMap {
        let mut next_local = vec![0u32; spec.shards()];
        let replicas = (0..frame_count)
            .map(|g| {
                spec.owners(g as u32, replication)
                    .into_iter()
                    .map(|shard| {
                        let local = next_local[shard];
                        next_local[shard] += 1;
                        (shard as u32, local)
                    })
                    .collect()
            })
            .collect();
        ShardMap {
            replicas,
            shards: spec.shards(),
            replication: replication.min(spec.shards()),
        }
    }

    /// The single-replica shared layout (every shard exposes the full
    /// catalog); shorthand for [`ShardMap::shared_replicated`] with
    /// `replication == 1`.
    pub fn shared(spec: &ShardSpec, frame_count: usize) -> ShardMap {
        ShardMap::shared_replicated(spec, frame_count, 1)
    }

    /// The layout for shards that all expose the *full* catalog (e.g.
    /// N stored servers sharing one run file): routing preference still
    /// follows the rendezvous replica set, but a frame's local index on
    /// every replica is its global index. This is what
    /// [`ShardedFrameService::spawn_stored_loopback_replicated`] uses.
    pub fn shared_replicated(spec: &ShardSpec, frame_count: usize, replication: usize) -> ShardMap {
        let replicas = (0..frame_count)
            .map(|g| {
                spec.owners(g as u32, replication)
                    .into_iter()
                    .map(|shard| (shard as u32, g as u32))
                    .collect()
            })
            .collect();
        ShardMap {
            replicas,
            shards: spec.shards(),
            replication: replication.min(spec.shards()),
        }
    }

    /// Shards this map routes over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Global frames this map covers.
    pub fn frame_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas every frame lives on (after clamping to the shard
    /// count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Where global frame `g` primarily lives: `(shard, local index)`,
    /// or `None` when `g` is outside the catalog.
    pub fn locate(&self, g: u32) -> Option<(usize, u32)> {
        self.replicas
            .get(g as usize)
            .map(|set| (set[0].0 as usize, set[0].1))
    }

    /// Every `(shard, local index)` replica of global frame `g` in
    /// routing-preference order (primary first), or `None` when `g` is
    /// outside the catalog.
    pub fn replicas(&self, g: u32) -> Option<&[(u32, u32)]> {
        self.replicas.get(g as usize).map(|set| set.as_slice())
    }

    /// The global frames shard `s` holds a replica of (primary or
    /// fallback), ascending — the slice the shard launcher provisions.
    pub fn frames_owned_by(&self, s: usize) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, set)| set.iter().any(|&(shard, _)| shard as usize == s))
            .map(|(g, _)| g)
            .collect()
    }
}

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Byte budget for the router's decoded-frame cache (the
    /// herd-coalescing layer), LRU by resident frame bytes
    /// ([`HybridFrame::total_bytes`] per frame); must be positive.
    /// Frames vary by orders of magnitude with threshold and grid
    /// dims, so the budget counts bytes rather than entries; a frame
    /// larger than the whole budget is still admitted (to serve its
    /// coalesced waiters) and becomes the next eviction victim.
    pub cache_bytes: u64,
    /// Bound on any single blocking read from a client; `None` waits
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Same bound for writes.
    pub write_timeout: Option<Duration>,
    /// Client connections served concurrently; past this, new arrivals
    /// are counted under `router.shed_connections`, answered one in-band
    /// `ERR_BUSY`, and closed.
    pub max_connections: usize,
    /// The resilience knobs for the pooled upstream connections to the
    /// shards — retry/backoff on this leg is what turns a shard blip
    /// into a blip instead of a failed client request. `max_version` is
    /// honored, so a `wire::V1`-capped upstream config forces
    /// uncompressed shard hops.
    pub upstream: ClientConfig,
    /// Overrides `upstream.retry` when set — the knob operators tune
    /// without rebuilding a whole [`ClientConfig`]. Whichever policy
    /// wins, its seed is only a *base*: every fresh upstream dial
    /// derives its own jitter seed from `(base seed, shard, dial
    /// count)`, so a shard restart does not march every pooled
    /// connection through identical backoff schedules (a synchronized
    /// retry storm), while any fixed base seed still replays exactly.
    pub upstream_retry: Option<RetryPolicy>,
    /// Idle upstream connections kept pooled per shard.
    pub upstream_idle: usize,
    /// When a shard's circuit breaker trips and how long it cools down.
    pub breaker: BreakerConfig,
    /// The background health prober's pacing (zero interval disables
    /// it).
    pub health: HealthConfig,
    /// Hedged upstream reads: `None` (the default) never hedges;
    /// `Some` races the next replica when the primary is slower than a
    /// latency quantile says it should be. Only meaningful with
    /// replicated shard maps — with one replica per frame there is
    /// nothing to race.
    pub hedge: Option<HedgeConfig>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            cache_bytes: 128 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            upstream: ClientConfig::default(),
            upstream_retry: None,
            upstream_idle: 4,
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
            hedge: None,
        }
    }
}

/// When and how aggressively to hedge a slow upstream fetch with a
/// request to the next replica.
#[derive(Clone, Copy, Debug)]
pub struct HedgeConfig {
    /// The latency quantile of `router.upstream_latency` that sets the
    /// hedge delay: a primary slower than this is raced. `0.95` hedges
    /// roughly the slowest 5% of fetches.
    pub quantile: f64,
    /// Floor on the derived delay — hedging below this would duplicate
    /// upstream work on healthy fetch jitter.
    pub min_delay: Duration,
    /// Ceiling on the derived delay, and the delay used while the
    /// latency histogram is still empty (or the quantile lands in its
    /// unbounded overflow bucket).
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl HedgeConfig {
    /// The hedge delay derived from the observed upstream latency
    /// distribution, clamped to `[min_delay, max_delay]`.
    fn delay_from(&self, metrics: &Registry) -> Duration {
        metrics
            .histogram(HIST_ROUTER_UPSTREAM_LATENCY)
            .and_then(|h| h.quantile_upper_bound(self.quantile))
            .map(Duration::from_secs_f64)
            .unwrap_or(self.max_delay)
            .clamp(self.min_delay, self.max_delay)
    }
}

/// How a router frame fetch was satisfied.
enum FetchOutcome {
    /// Already decoded and resident in the router cache.
    Hit,
    /// Joined an upstream fetch another request had in flight.
    Coalesced,
    /// Went upstream (and the result, success or failure, was shared
    /// with any waiters that arrived meanwhile).
    Fetched,
}

/// In-flight upstream fetch of one key. Waiters block on `cv` until
/// `done` holds the shared outcome; unlike the extraction cache's
/// pending slot this carries a `Result`, because an upstream fetch can
/// *fail* (dead shard) and that failure must be delivered to every
/// coalesced waiter — never panicked across threads, never cached.
struct FetchPending {
    done: StdMutex<Option<Result<Arc<HybridFrame>, String>>>,
    cv: Condvar,
}

enum FetchEntry {
    Ready(Arc<HybridFrame>),
    Fetching(Arc<FetchPending>),
}

struct FetchInner {
    /// Byte budget over resident decoded frames
    /// ([`HybridFrame::total_bytes`] each).
    budget: u64,
    /// Bytes currently resident under `Ready` entries.
    resident_bytes: u64,
    /// LRU over *ready* keys only; in-flight fetches cannot be evicted.
    order: LruOrder<CacheKey>,
    entries: HashMap<CacheKey, FetchEntry>,
}

/// The router's frame cache: LRU over decoded frames plus the
/// same-key coalescing that collapses a thundering herd into one
/// upstream fetch. Failures are shared with waiters but vacated, not
/// cached — the next request after a shard recovers goes upstream.
///
/// Capacity is a *byte* budget, not an entry count: frames vary by
/// orders of magnitude with threshold and grid dims, so an entry count
/// either wastes the budget on small frames or blows it on large ones.
/// A frame larger than the whole budget is still admitted (and becomes
/// the next eviction victim) — the just-fetched frame must be resident
/// to serve its coalesced waiters.
struct FetchCache {
    inner: Mutex<FetchInner>,
}

impl FetchCache {
    fn new(budget: u64) -> FetchCache {
        assert!(budget > 0, "router cache needs a positive byte budget");
        FetchCache {
            inner: Mutex::new(FetchInner {
                budget,
                resident_bytes: 0,
                order: LruOrder::new(),
                entries: HashMap::new(),
            }),
        }
    }

    /// Returns the frame for `key`, fetching it with `fetch` when it is
    /// neither cached nor already in flight. Concurrent calls with the
    /// same key run `fetch` once and share its outcome.
    fn get_or_fetch(
        &self,
        key: CacheKey,
        fetch: impl FnOnce() -> Result<Arc<HybridFrame>, String>,
    ) -> (Result<Arc<HybridFrame>, String>, FetchOutcome) {
        let pending = {
            let mut g = self.inner.lock();
            match g.entries.get(&key) {
                Some(FetchEntry::Ready(frame)) => {
                    let frame = Arc::clone(frame);
                    g.order.touch(key);
                    return (Ok(frame), FetchOutcome::Hit);
                }
                Some(FetchEntry::Fetching(p)) => Arc::clone(p),
                None => {
                    let p = Arc::new(FetchPending {
                        done: StdMutex::new(None),
                        cv: Condvar::new(),
                    });
                    g.entries.insert(key, FetchEntry::Fetching(Arc::clone(&p)));
                    drop(g);
                    return (self.run_fetch(key, p, fetch), FetchOutcome::Fetched);
                }
            }
        };
        // Coalesced: wait outside every lock for the in-flight fetch and
        // share its outcome, failure included.
        let mut d = pending.done.lock().unwrap_or_else(|e| e.into_inner());
        while d.is_none() {
            d = pending.cv.wait(d).unwrap_or_else(|e| e.into_inner());
        }
        let outcome = d.clone().expect("outcome present");
        (outcome, FetchOutcome::Coalesced)
    }

    /// Runs `fetch` for a key this thread just marked in flight, then
    /// publishes the outcome to the map (success only) and to every
    /// coalesced waiter (success or failure).
    fn run_fetch(
        &self,
        key: CacheKey,
        pending: Arc<FetchPending>,
        fetch: impl FnOnce() -> Result<Arc<HybridFrame>, String>,
    ) -> Result<Arc<HybridFrame>, String> {
        let outcome = fetch();
        {
            let mut g = self.inner.lock();
            match &outcome {
                Ok(frame) => {
                    // Make room by bytes: evict oldest Ready frames
                    // until the newcomer fits (or nothing is left to
                    // evict — an oversized frame is admitted anyway and
                    // is simply the next victim). The newcomer is not
                    // in `order` yet, so it can never evict itself.
                    let incoming = frame.total_bytes();
                    while g.resident_bytes + incoming > g.budget {
                        let Some(victim) = g.order.pop_oldest() else {
                            break;
                        };
                        if let Some(FetchEntry::Ready(evicted)) = g.entries.remove(&victim) {
                            g.resident_bytes -= evicted.total_bytes();
                        }
                    }
                    g.order.touch(key);
                    g.resident_bytes += incoming;
                    g.entries.insert(key, FetchEntry::Ready(Arc::clone(frame)));
                }
                // A failed fetch vacates the key so recovery is observed
                // on the very next request.
                Err(_) => {
                    g.entries.remove(&key);
                }
            }
        }
        *pending.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome.clone());
        pending.cv.notify_all();
        outcome
    }
}

/// SplitMix64 — the workspace's stock seed mixer, used here to derive
/// decorrelated per-connection retry seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard's pooled upstream connections. Checked-out clients that
/// finish their operation cleanly go back to the idle pool (up to
/// `max_idle`); any failure drops the connection instead — its stream
/// may be mid-envelope, and the next checkout dials fresh.
struct UpstreamPool {
    shard: usize,
    addr: Mutex<SocketAddr>,
    idle: Mutex<Vec<Client>>,
    config: ClientConfig,
    /// Fresh dials so far — the per-connection retry seed counter.
    dialed: AtomicU64,
    max_idle: usize,
}

impl UpstreamPool {
    fn new(shard: usize, addr: SocketAddr, config: ClientConfig, max_idle: usize) -> UpstreamPool {
        UpstreamPool {
            shard,
            addr: Mutex::new(addr),
            idle: Mutex::new(Vec::new()),
            config,
            dialed: AtomicU64::new(0),
            max_idle,
        }
    }

    /// Where this pool currently dials — the address the health prober
    /// pings, so `set_shard_addr` repoints probing too.
    fn addr(&self) -> SocketAddr {
        *self.addr.lock()
    }

    /// Repoints the pool (shard restarted elsewhere); idle connections
    /// to the old address are dropped.
    fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock() = addr;
        self.idle.lock().clear();
    }

    /// The config for one fresh dial: the shared policy with a retry
    /// seed derived from `(base seed, shard, dial count)`. Each
    /// connection jitters its backoff on its own schedule — a shard
    /// restart must not turn N pooled connections into N synchronized
    /// retry volleys — while a fixed base seed keeps the whole pattern
    /// replayable.
    fn dial_config(&self) -> ClientConfig {
        let mut config = self.config;
        if let Some(retry) = &mut config.retry {
            let dial = self.dialed.fetch_add(1, Ordering::Relaxed);
            retry.seed = splitmix64(retry.seed ^ ((self.shard as u64) << 32) ^ dial);
        }
        config
    }

    /// Runs `op` on a pooled (or freshly dialed) client. Returns the
    /// result plus the retries the client burned inside the call — the
    /// upstream leg's resilience cost, surfaced for `router.*` counters.
    fn with<T>(
        &self,
        op: impl FnOnce(&mut Client) -> crate::error::Result<T>,
    ) -> crate::error::Result<(T, u64)> {
        let mut client = match self.idle.lock().pop() {
            Some(c) => c,
            None => Client::connect_with(self.addr(), self.dial_config())?,
        };
        let before = client.client_stats().retries;
        match op(&mut client) {
            Ok(v) => {
                let retries = client.client_stats().retries - before;
                let mut idle = self.idle.lock();
                if idle.len() < self.max_idle {
                    idle.push(client);
                }
                Ok((v, retries))
            }
            Err(e) => Err(e),
        }
    }
}

/// The state every session of one router shares.
struct RouterShared {
    map: ShardMap,
    catalog: Vec<FrameInfo>,
    pools: Vec<UpstreamPool>,
    /// One circuit breaker per shard, fed by upstream fetches, stats
    /// hops, and the background prober alike.
    breakers: Vec<CircuitBreaker>,
    cache: FetchCache,
    config: RouterConfig,
    metrics: Registry,
}

impl Handler for RouterShared {
    const NAMES: CounterNames = CounterNames {
        requests: CTR_ROUTER_REQUESTS,
        bytes_sent: CTR_ROUTER_BYTES_SENT,
        frames_served: CTR_ROUTER_FRAMES_SERVED,
        shed_connections: CTR_ROUTER_SHED_CONNECTIONS,
        accept_errors: CTR_ROUTER_ACCEPT_ERRORS,
        handler_panics: CTR_ROUTER_HANDLER_PANICS,
        latency: HIST_ROUTER_LATENCY,
    };

    fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn respond<S: Write>(
        self: &Arc<Self>,
        req: Request,
        stream: &mut S,
        session_version: &mut u16,
    ) -> crate::error::Result<(u64, bool)> {
        respond_router(self, req, stream, session_version)
    }
}

/// Lands a breaker state transition on the `router.breaker_*` counters.
fn note_transition(metrics: &Registry, transition: Option<Transition>) {
    match transition {
        Some(Transition::Opened) => {
            metrics.add(CTR_ROUTER_BREAKER_OPEN, 1);
        }
        Some(Transition::HalfOpened) => {
            metrics.add(CTR_ROUTER_BREAKER_HALF_OPEN, 1);
        }
        Some(Transition::Closed) => {
            metrics.add(CTR_ROUTER_BREAKER_CLOSED, 1);
        }
        None => {}
    }
}

/// A running shard router: binds its own listener, speaks the unchanged
/// AVWF protocol to clients, and proxies frame requests to the owning
/// shard over pooled, retrying upstream connections. See the
/// [module docs](self) for the full semantics.
///
/// ```
/// use accelviz_beam::distribution::Distribution;
/// use accelviz_core::shard::ShardSpec;
/// use accelviz_octree::builder::{partition, BuildParams};
/// use accelviz_octree::plots::PlotType;
/// use accelviz_serve::{Client, FrameRouter, FrameServer, RouterConfig, ServerConfig, ShardMap};
///
/// // Two shards that each expose the full 3-frame catalog, so the
/// // shared layout applies (local index == global index).
/// let data: Vec<_> = (0..3u64)
///     .map(|i| {
///         let ps = Distribution::default_beam().sample(300, i + 1);
///         partition(&ps, PlotType::XYZ, BuildParams::default())
///     })
///     .collect();
/// let a = FrameServer::spawn_loopback(data.clone(), ServerConfig::default()).unwrap();
/// let b = FrameServer::spawn_loopback(data, ServerConfig::default()).unwrap();
///
/// let map = ShardMap::shared(&ShardSpec::new(2), 3);
/// let router = FrameRouter::spawn(
///     "127.0.0.1:0",
///     vec![a.addr(), b.addr()],
///     map,
///     RouterConfig::default(),
/// )
/// .unwrap();
///
/// // A stock client cannot tell the router from a single server.
/// let mut client = Client::connect(router.addr()).unwrap();
/// assert_eq!(client.frame_count(), 3);
/// let (frame, _) = client.fetch(1, f64::INFINITY).unwrap();
/// assert_eq!(frame.step, 1);
///
/// drop(client);
/// router.shutdown();
/// a.shutdown();
/// b.shutdown();
/// ```
pub struct FrameRouter {
    door: FrontDoor<RouterShared>,
    prober: Option<Prober>,
}

impl FrameRouter {
    /// Binds `addr` and starts routing over the given shard addresses.
    /// `shards[i]` must be the server owning every `(i, local)` entry of
    /// `map`. Fails fast — with an error, not a degraded catalog — when
    /// the shard set is empty, its length disagrees with the map, any
    /// shard is unreachable at spawn, or a shard advertises fewer frames
    /// than the map routes to it.
    pub fn spawn(
        addr: &str,
        shards: Vec<SocketAddr>,
        map: ShardMap,
        config: RouterConfig,
    ) -> io::Result<FrameRouter> {
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one shard",
            ));
        }
        if shards.len() != map.shard_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard map routes over {} shards but {} addresses were given",
                    map.shard_count(),
                    shards.len()
                ),
            ));
        }
        // The operator override wins over the full upstream config; the
        // winner's seed is re-derived per dial inside the pool.
        let mut upstream = config.upstream;
        if let Some(retry) = config.upstream_retry {
            upstream.retry = Some(retry);
        }
        let shard_count = shards.len();
        let pools: Vec<UpstreamPool> = shards
            .into_iter()
            .enumerate()
            .map(|(i, a)| UpstreamPool::new(i, a, upstream, config.upstream_idle))
            .collect();
        let breakers = (0..shard_count)
            .map(|_| CircuitBreaker::new(config.breaker))
            .collect();
        let catalog = merge_catalogs(&map, &pools)?;
        let shared = Arc::new(RouterShared {
            map,
            catalog,
            pools,
            breakers,
            cache: FetchCache::new(config.cache_bytes.max(1)),
            config,
            metrics: Registry::new(),
        });
        let door = FrontDoor::open(
            addr,
            Arc::clone(&shared),
            DoorConfig {
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                max_connections: config.max_connections,
                faults: None,
            },
        )?;
        let prober = {
            let addrs = Arc::clone(&shared);
            let verdicts = shared;
            Prober::spawn(
                config.health,
                shard_count,
                move |i| addrs.pools[i].addr(),
                move |i, ok| {
                    if ok {
                        verdicts.metrics.add(CTR_ROUTER_PROBE_OK, 1);
                        note_transition(&verdicts.metrics, verdicts.breakers[i].on_success());
                    } else {
                        verdicts.metrics.add(CTR_ROUTER_PROBE_FAIL, 1);
                        note_transition(&verdicts.metrics, verdicts.breakers[i].on_failure());
                    }
                },
            )
        };
        Ok(FrameRouter { door, prober })
    }

    fn shared(&self) -> &RouterShared {
        self.door.handler()
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.door.addr()
    }

    /// Shards this router routes over.
    pub fn shard_count(&self) -> usize {
        self.shared().map.shard_count()
    }

    /// The merged catalog served to `ListFrames`, in global frame order.
    pub fn catalog(&self) -> &[FrameInfo] {
        &self.shared().catalog
    }

    /// The router's private metrics registry — every `router.*` counter
    /// documented in this module, for tests and embedders. The wire
    /// `Stats` reply carries the *summed shard* counters instead,
    /// because its shape is frozen.
    pub fn metrics(&self) -> &Registry {
        &self.shared().metrics
    }

    /// Repoints shard `shard`'s upstream pool at `addr` — the failover
    /// hook for a shard restarted on a new address. Idle pooled
    /// connections to the old address are dropped, and the shard's
    /// circuit breaker is reset to Closed: a replacement shard must not
    /// inherit the dead one's verdict, or the router would keep
    /// fast-failing a healthy server until a cooldown elapsed. The
    /// merged catalog is kept, so the replacement must serve the same
    /// frame slice. Errors when `shard` is out of range.
    pub fn set_shard_addr(&self, shard: usize, addr: SocketAddr) -> io::Result<()> {
        match self.shared().pools.get(shard) {
            Some(pool) => {
                pool.set_addr(addr);
                note_transition(
                    &self.shared().metrics,
                    self.shared().breakers[shard].reset(),
                );
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {shard} out of range ({} shards)", self.shard_count()),
            )),
        }
    }

    /// Shard `shard`'s current circuit-breaker state, for dashboards
    /// and tests. Panics when `shard` is out of range.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.shared().breakers[shard].state()
    }

    /// Stops accepting, joins the acceptor, and drains in-flight replies
    /// for at most a second — the same stop a server runs.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Stop probing first: a dying deployment's shards going away
        // must not race verdicts into the breakers mid-shutdown.
        if let Some(mut prober) = self.prober.take() {
            prober.shutdown();
        }
        self.door.close();
    }
}

impl Drop for FrameRouter {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Fetches every shard's catalog and stitches the merged global catalog:
/// entry `g` comes from its *primary* owner's local slot, relabeled with
/// the global index (`frame = g`, `step = g` — the run-wide convention a
/// direct server of the unsliced data would report). Every fallback
/// replica's local index is validated against its shard's catalog too —
/// a replica that cannot actually serve its frames would otherwise only
/// be discovered during a failover, the worst possible moment.
fn merge_catalogs(map: &ShardMap, pools: &[UpstreamPool]) -> io::Result<Vec<FrameInfo>> {
    let mut shard_catalogs = Vec::with_capacity(pools.len());
    for (i, pool) in pools.iter().enumerate() {
        let (catalog, _retries) = pool.with(|c| c.list_frames()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {i} catalog fetch failed: {e}"),
            )
        })?;
        shard_catalogs.push(catalog);
    }
    let mut merged = Vec::with_capacity(map.frame_count());
    for g in 0..map.frame_count() {
        let replicas = map.replicas(g as u32).expect("g < frame_count");
        for &(shard, local) in replicas {
            let (shard, local) = (shard as usize, local as usize);
            if local >= shard_catalogs[shard].len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {shard} advertises {} frames but the map routes global frame {g} \
                         to its local index {local}",
                        shard_catalogs[shard].len()
                    ),
                ));
            }
        }
        let (shard, local) = (replicas[0].0 as usize, replicas[0].1 as usize);
        let entry = &shard_catalogs[shard][local];
        merged.push(FrameInfo {
            frame: g as u32,
            step: g as u64,
            particles: entry.particles,
            default_threshold: entry.default_threshold,
        });
    }
    Ok(merged)
}

/// Serves one request at the router; returns (wire bytes written, was a
/// frame reply). Mirrors the server's `respond` contract so a client
/// cannot tell the difference.
fn respond_router<S: Write>(
    shared: &Arc<RouterShared>,
    req: Request,
    stream: &mut S,
    session_version: &mut u16,
) -> crate::error::Result<(u64, bool)> {
    match req {
        Request::Hello { version } => {
            let reply = if version == 0 {
                Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: format!("protocol version must be at least 1, client sent {version}"),
                }
            } else {
                let negotiated = version.min(VERSION);
                *session_version = negotiated;
                Response::HelloAck {
                    version: negotiated,
                    frame_count: shared.catalog.len() as u32,
                }
            };
            Ok((write_response_v(stream, *session_version, &reply)?, false))
        }
        Request::ListFrames => {
            let frames = shared.catalog.clone();
            Ok((
                write_response_v(stream, *session_version, &Response::FrameList(frames))?,
                false,
            ))
        }
        Request::RequestFrame { frame, threshold } => {
            let frame = match route_frame(shared, frame, threshold, stream, *session_version)? {
                Ok(frame) => frame,
                Err(reply_written) => return Ok(reply_written),
            };
            // Re-encode at the *client's* negotiated version, straight
            // from the cached Arc — both codecs are deterministic, so the
            // bytes match what a direct server of the same data writes.
            let payload = if *session_version >= V2 {
                encode_frame_v2(&frame).0
            } else {
                encode_frame(&frame)
            };
            let bytes = write_envelope_v(stream, *session_version, RESP_FRAME, &payload)?;
            Ok((bytes, true))
        }
        Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        } => {
            // Same v2-session gate as a direct server: the chunk records
            // only exist on the v2 wire.
            if *session_version < V2 {
                let reply = Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: "progressive streaming requires a v2 session; \
                              send Hello with version >= 2 first"
                        .to_string(),
                };
                return Ok((write_response_v(stream, *session_version, &reply)?, false));
            }
            let frame = match route_frame(shared, frame, threshold, stream, *session_version)? {
                Ok(frame) => frame,
                Err(reply_written) => return Ok(reply_written),
            };
            // The upstream hop stays a *full* fetch through the shared
            // cache (coalescing with plain requests for the same key);
            // the router re-chunks locally with the same planner the
            // shards run, which is a pure function of (frame, budget) —
            // so the record bytes a sharded session sees are identical
            // to a direct server's.
            let records =
                crate::lod::plan_frame_chunks(&frame, crate::lod::chunk_budget(chunk_bytes));
            let mut bytes = 0u64;
            for record in &records {
                bytes += crate::protocol::write_chunk(stream, record)?;
            }
            shared.metrics.add(CTR_ROUTER_LOD_REQUESTS, 1);
            shared
                .metrics
                .add(CTR_ROUTER_LOD_CHUNKS, records.len() as u64);
            Ok((bytes, true))
        }
        Request::Stats => {
            let snapshot = aggregate_stats(shared);
            Ok((
                write_response_v(stream, *session_version, &Response::Stats(snapshot))?,
                false,
            ))
        }
    }
}

/// The shared routing path behind both frame request kinds: validates
/// the threshold, locates the frame's replica set, and resolves the
/// decoded frame through the router cache (one upstream fetch per
/// herd). On a policy or upstream failure the in-band error reply is
/// already written and the inner `Err` carries `respond_router`'s
/// return value; the outer `Err` is a dead client connection.
fn route_frame<S: Write>(
    shared: &Arc<RouterShared>,
    frame: u32,
    threshold: f64,
    stream: &mut S,
    session_version: u16,
) -> crate::error::Result<std::result::Result<Arc<HybridFrame>, (u64, bool)>> {
    if threshold.is_nan() {
        let reply = Response::Error {
            code: ERR_BAD_THRESHOLD,
            message: format!("threshold must not be NaN, got {threshold}"),
        };
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    if shared.map.replicas(frame).is_none() {
        let reply = Response::Error {
            code: ERR_NO_SUCH_FRAME,
            message: format!(
                "frame {frame} requested, {} available",
                shared.catalog.len()
            ),
        };
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    let key = CacheKey::new(frame, threshold);
    let global = frame as usize;
    let (result, outcome) = shared
        .cache
        .get_or_fetch(key, || fetch_replicated(shared, frame, global, threshold));
    match outcome {
        FetchOutcome::Hit => {
            shared.metrics.add(CTR_ROUTER_CACHE_HITS, 1);
        }
        FetchOutcome::Coalesced => {
            shared.metrics.add(CTR_ROUTER_CACHE_HITS, 1);
            shared.metrics.add(CTR_ROUTER_COALESCED, 1);
        }
        FetchOutcome::Fetched => {
            shared.metrics.add(CTR_ROUTER_CACHE_MISSES, 1);
        }
    }
    match result {
        Ok(frame) => Ok(Ok(frame)),
        Err(why) => {
            // Upstream retries exhausted: degrade this frame
            // in-band, keep the session. A resilient client turns
            // this into a flagged stale frame (PR 5 model).
            let reply = Response::Error {
                code: ERR_INTERNAL,
                message: why,
            };
            Ok(Err((
                write_response_v(stream, session_version, &reply)?,
                false,
            )))
        }
    }
}

/// One upstream frame fetch attempt against shard `shard`, through its
/// pool, with the shard's breaker told the outcome. The decoded frame
/// is relabeled with its *global* step index: a sliced shard only knows
/// its local frame numbering, and the run-wide convention (what a
/// direct server of the unsliced data bakes into the frame, and what
/// the merged catalog advertises) is `step == global index`.
fn attempt_fetch(
    shared: &RouterShared,
    shard: usize,
    local: u32,
    global: usize,
    threshold: f64,
) -> Result<Arc<HybridFrame>, String> {
    shared.metrics.add(CTR_ROUTER_UPSTREAM_FETCHES, 1);
    let t0 = Instant::now();
    let result = shared.pools[shard].with(|c| c.fetch(local, threshold));
    shared
        .metrics
        .record_seconds(HIST_ROUTER_UPSTREAM_LATENCY, t0.elapsed().as_secs_f64());
    match result {
        Ok(((mut frame, _metrics), retries)) => {
            shared.metrics.add(CTR_ROUTER_UPSTREAM_RETRIES, retries);
            note_transition(&shared.metrics, shared.breakers[shard].on_success());
            frame.step = global;
            Ok(Arc::new(frame))
        }
        Err(e) => {
            shared.metrics.add(CTR_ROUTER_UPSTREAM_ERRORS, 1);
            note_transition(&shared.metrics, shared.breakers[shard].on_failure());
            Err(format!(
                "shard {shard} failed serving its frame {local}: {e}"
            ))
        }
    }
}

/// Advances `cursor` to the next replica whose breaker admits an
/// attempt, counting fast-fails along the way. Returns the replica's
/// position in the preference list plus its `(shard, local)` target, or
/// `None` when every remaining replica fast-failed. Admission is lazy —
/// a half-open trial slot is only claimed when the fetch is actually
/// about to use it.
fn next_candidate(
    shared: &RouterShared,
    replicas: &[(u32, u32)],
    cursor: &mut usize,
) -> Option<(usize, usize, u32)> {
    while *cursor < replicas.len() {
        let idx = *cursor;
        *cursor += 1;
        let (shard, local) = (replicas[idx].0 as usize, replicas[idx].1);
        let (admission, transition) = shared.breakers[shard].admit();
        note_transition(&shared.metrics, transition);
        match admission {
            Admission::FastFail => {
                shared.metrics.add(CTR_ROUTER_BREAKER_FAST_FAILS, 1);
            }
            Admission::Allow | Admission::Trial => return Some((idx, shard, local)),
        }
    }
    None
}

/// One logical frame fetch, resolved across the frame's replica set:
/// walk the preference order, skip replicas whose breaker fast-fails
/// (microseconds each), attempt the rest in turn — optionally hedged —
/// and stop at the first success. Only when every replica has either
/// fast-failed or genuinely failed does the fetch fail, which the
/// caller turns into the in-band `ERR_INTERNAL` degraded path; with
/// replication ≥ 2 a single dead shard therefore costs zero degraded
/// frames.
fn fetch_replicated(
    shared: &Arc<RouterShared>,
    frame: u32,
    global: usize,
    threshold: f64,
) -> Result<Arc<HybridFrame>, String> {
    let replicas = shared
        .map
        .replicas(frame)
        .expect("caller checked the frame exists")
        .to_vec();
    let mut cursor = 0usize;
    let mut last_err: Option<String> = None;
    while let Some((idx, shard, local)) = next_candidate(shared, &replicas, &mut cursor) {
        let outcome = match shared.config.hedge {
            Some(hedge) => hedged_attempt(
                shared,
                &replicas,
                &mut cursor,
                idx,
                shard,
                local,
                global,
                threshold,
                hedge,
            ),
            None => attempt_fetch(shared, shard, local, global, threshold).map(|f| (f, idx)),
        };
        match outcome {
            Ok((decoded, served_idx)) => {
                if served_idx > 0 {
                    shared.metrics.add(CTR_ROUTER_REPLICA_FAILOVERS, 1);
                }
                return Ok(decoded);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        format!(
            "every replica's circuit breaker is open for frame {global} \
             ({} replicas)",
            replicas.len()
        )
    }))
}

/// One fetch attempt with a hedge: the primary runs on a helper thread;
/// if it has not answered within the quantile-derived hedge delay, the
/// next admissible replica is raced against it and the first genuine
/// reply wins. The loser is not cancelled — it finishes on its thread
/// and reports its own outcome to its breaker and counters, it just
/// cannot win. Returns the frame plus the preference index of the
/// replica that served it.
#[allow(clippy::too_many_arguments)]
fn hedged_attempt(
    shared: &Arc<RouterShared>,
    replicas: &[(u32, u32)],
    cursor: &mut usize,
    primary_idx: usize,
    shard: usize,
    local: u32,
    global: usize,
    threshold: f64,
    hedge: HedgeConfig,
) -> Result<(Arc<HybridFrame>, usize), String> {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::channel();
    let spawn_attempt = |idx: usize, shard: usize, local: u32| {
        let s = Arc::clone(shared);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let outcome = attempt_fetch(&s, shard, local, global, threshold);
            // A send after the winner returned just goes nowhere.
            let _ = tx.send((idx, outcome));
        });
    };
    let delay = hedge.delay_from(&shared.metrics);
    spawn_attempt(primary_idx, shard, local);
    let mut in_flight = 1usize;
    let mut hedge_launched = false;
    let mut last_err: Option<String> = None;
    while in_flight > 0 {
        let (idx, outcome) = if hedge_launched {
            rx.recv().expect("tx is owned by this frame until return")
        } else {
            match rx.recv_timeout(delay) {
                Ok(msg) => msg,
                Err(_slow_primary) => {
                    hedge_launched = true;
                    if let Some((idx2, shard2, local2)) = next_candidate(shared, replicas, cursor) {
                        shared.metrics.add(CTR_ROUTER_HEDGED_REQUESTS, 1);
                        spawn_attempt(idx2, shard2, local2);
                        in_flight += 1;
                    }
                    continue;
                }
            }
        };
        in_flight -= 1;
        match outcome {
            Ok(frame) => {
                if idx != primary_idx && in_flight > 0 {
                    shared.metrics.add(CTR_ROUTER_HEDGED_WINS, 1);
                }
                return Ok((frame, idx));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least the primary attempt completed"))
}

/// Sums every reachable shard's `Stats` snapshot into one wire-shaped
/// total; a shard that cannot answer contributes zeros (and an
/// `router.upstream_errors` count) instead of failing the reply, and a
/// shard whose breaker is open is skipped outright (a
/// `router.breaker_fast_fails` count) — one dead shard must not add its
/// full retry budget to every `Stats` round trip. Stats hops feed the
/// breakers like any other upstream traffic, so a `Stats` poll doubles
/// as a half-open trial once the cooldown elapses.
fn aggregate_stats(shared: &RouterShared) -> ServerStats {
    let mut total = ServerStats::default();
    for (shard, pool) in shared.pools.iter().enumerate() {
        let (admission, transition) = shared.breakers[shard].admit();
        note_transition(&shared.metrics, transition);
        if admission == Admission::FastFail {
            shared.metrics.add(CTR_ROUTER_BREAKER_FAST_FAILS, 1);
            continue;
        }
        match pool.with(|c| c.stats()) {
            Ok((s, retries)) => {
                shared.metrics.add(CTR_ROUTER_UPSTREAM_RETRIES, retries);
                note_transition(&shared.metrics, shared.breakers[shard].on_success());
                total.requests += s.requests;
                total.frames_served += s.frames_served;
                total.bytes_sent += s.bytes_sent;
                total.cache_hits += s.cache_hits;
                total.cache_misses += s.cache_misses;
                total.frame_bytes_raw += s.frame_bytes_raw;
                total.frame_bytes_wire += s.frame_bytes_wire;
                for (t, c) in total.latency.counts.iter_mut().zip(s.latency.counts.iter()) {
                    *t += c;
                }
            }
            Err(_) => {
                shared.metrics.add(CTR_ROUTER_UPSTREAM_ERRORS, 1);
                note_transition(&shared.metrics, shared.breakers[shard].on_failure());
            }
        }
    }
    total
}

/// A whole sharded deployment in one handle: N loopback shard servers,
/// each owning its rendezvous slice of the catalog, fronted by a
/// [`FrameRouter`] — the test, example, and single-host topology. For a
/// distributed deployment, spawn [`FrameServer`]s where the data lives
/// and wire a [`FrameRouter::spawn`] to their addresses instead.
///
/// ```
/// use accelviz_beam::distribution::Distribution;
/// use accelviz_octree::builder::{partition, BuildParams};
/// use accelviz_octree::plots::PlotType;
/// use accelviz_serve::{Client, RouterConfig, ServerConfig, ShardedFrameService};
///
/// let data: Vec<_> = (0..3u64)
///     .map(|i| {
///         let ps = Distribution::default_beam().sample(300, i + 1);
///         partition(&ps, PlotType::XYZ, BuildParams::default())
///     })
///     .collect();
/// let service = ShardedFrameService::spawn_loopback(
///     data,
///     2,
///     ServerConfig::default(),
///     RouterConfig::default(),
/// )
/// .unwrap();
/// assert_eq!(service.shard_count(), 2);
///
/// let mut client = Client::connect(service.addr()).unwrap();
/// let catalog = client.list_frames().unwrap();
/// assert_eq!(catalog.len(), 3);
/// let (frame, _) = client.fetch(2, f64::INFINITY).unwrap();
/// assert_eq!(frame.step, 2);
///
/// drop(client);
/// service.shutdown();
/// ```
pub struct ShardedFrameService {
    /// `None` marks a shard killed by [`ShardedFrameService::kill_shard`]
    /// and not yet reinstated.
    shards: Vec<Option<FrameServer>>,
    /// What each shard serves — retained so a killed shard can be
    /// respawned bit-identically by
    /// [`ShardedFrameService::reinstate_shard`].
    sources: Vec<ShardSource>,
    shard_config: ServerConfig,
    router: FrameRouter,
}

/// The data a shard was provisioned with, kept for reinstatement.
enum ShardSource {
    /// A physically sliced shard's frames, in local-index order.
    Sliced(Vec<PartitionedData>),
    /// A stored shard's shared out-of-core run.
    Stored(Arc<ResidentRun>),
}

impl ShardedFrameService {
    /// Spawns `shards` loopback shard servers over `data` sliced by
    /// rendezvous ownership ([`ShardMap::sliced`]) plus the fronting
    /// router — the single-replica layout, bit-identical to the
    /// pre-replication service. Rejects an empty shard set with
    /// `InvalidInput`.
    pub fn spawn_loopback(
        data: Vec<PartitionedData>,
        shards: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        Self::spawn_loopback_replicated(data, shards, 1, shard_config, router_config)
    }

    /// Spawns `shards` loopback shard servers over `data`, each
    /// provisioned with the (overlapping, when `replication > 1`)
    /// slice of frames whose rendezvous replica set includes it
    /// ([`ShardMap::sliced_replicated`]), plus the fronting router.
    /// With `replication >= 2` every frame lives on at least two shards
    /// and a single shard kill costs zero degraded frames. Rejects an
    /// empty shard set or a zero replication factor with
    /// `InvalidInput`; `replication` above the shard count clamps.
    pub fn spawn_loopback_replicated(
        data: Vec<PartitionedData>,
        shards: usize,
        replication: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let spec = Self::validated_spec(shards, replication)?;
        let map = ShardMap::sliced_replicated(&spec, data.len(), replication);
        let mut slices: Vec<Vec<PartitionedData>> = (0..shards).map(|_| Vec::new()).collect();
        for (g, d) in data.into_iter().enumerate() {
            let set = map.replicas(g as u32).expect("g is in range");
            // Ascending-g pushes reproduce each shard's local ranking;
            // the last replica takes the original, the rest clone.
            let (last, rest) = set.split_last().expect("replica sets are nonempty");
            for &(shard, _) in rest {
                slices[shard as usize].push(d.clone());
            }
            slices[last.0 as usize].push(d);
        }
        let sources: Vec<ShardSource> = slices.into_iter().map(ShardSource::Sliced).collect();
        Self::front(sources, map, shard_config, router_config)
    }

    /// Spawns `shards` loopback shard servers that all read the same
    /// out-of-core `run` (ownership is logical, [`ShardMap::shared`]),
    /// plus the fronting router — single-replica routing preference.
    pub fn spawn_stored_loopback(
        run: Arc<ResidentRun>,
        shards: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        Self::spawn_stored_loopback_replicated(run, shards, 1, shard_config, router_config)
    }

    /// The replicated twin of
    /// [`ShardedFrameService::spawn_stored_loopback`]: every shard
    /// already exposes the full catalog, so replication here is purely
    /// a routing property ([`ShardMap::shared_replicated`]) — no frame
    /// is provisioned twice, but each request has `replication` shards
    /// to fall through.
    pub fn spawn_stored_loopback_replicated(
        run: Arc<ResidentRun>,
        shards: usize,
        replication: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let spec = Self::validated_spec(shards, replication)?;
        let map = ShardMap::shared_replicated(&spec, run.frame_count(), replication);
        let sources = (0..shards)
            .map(|_| ShardSource::Stored(Arc::clone(&run)))
            .collect();
        Self::front(sources, map, shard_config, router_config)
    }

    fn validated_spec(shards: usize, replication: usize) -> io::Result<ShardSpec> {
        if shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded service needs at least one shard",
            ));
        }
        if replication == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded service needs a replication factor of at least 1",
            ));
        }
        Ok(ShardSpec::new(shards))
    }

    fn front(
        sources: Vec<ShardSource>,
        map: ShardMap,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let servers = sources
            .iter()
            .map(|source| spawn_shard(source, shard_config))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = servers.iter().map(|s| s.addr()).collect();
        let router = FrameRouter::spawn("127.0.0.1:0", addrs, map, router_config)?;
        Ok(ShardedFrameService {
            shards: servers.into_iter().map(Some).collect(),
            sources,
            shard_config,
            router,
        })
    }

    /// The router address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Shard servers behind the router (killed ones included).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s server handle (its private address, metrics, stats).
    ///
    /// # Panics
    /// Panics when shard `i` is currently killed — a dead server has no
    /// handle to return.
    pub fn shard(&self, i: usize) -> &FrameServer {
        self.shards[i]
            .as_ref()
            .expect("shard was killed and not reinstated")
    }

    /// Whether shard `i` is currently live.
    pub fn shard_alive(&self, i: usize) -> bool {
        self.shards[i].is_some()
    }

    /// Kills shard `i`: shuts the server down and drops its handle, so
    /// every connection to it — pooled upstream connections included —
    /// starts failing. The router is told nothing; discovering the
    /// death (retries, breaker trip, probe failures) and surviving it
    /// (replica fall-through) is exactly what this hook exists to
    /// exercise. A no-op when the shard is already dead.
    pub fn kill_shard(&mut self, i: usize) {
        if let Some(server) = self.shards[i].take() {
            server.shutdown();
        }
    }

    /// Reinstates a killed shard `i`: respawns a server over the same
    /// source data (bit-identical frames, fresh address) and repoints
    /// the router's pool at it — which also resets the shard's breaker,
    /// per [`FrameRouter::set_shard_addr`]. A no-op when the shard is
    /// alive.
    pub fn reinstate_shard(&mut self, i: usize) -> io::Result<()> {
        if self.shards[i].is_some() {
            return Ok(());
        }
        let server = spawn_shard(&self.sources[i], self.shard_config)?;
        self.router.set_shard_addr(i, server.addr())?;
        self.shards[i] = Some(server);
        Ok(())
    }

    /// The fronting router (its `router.*` metrics, the failover hook).
    pub fn router(&self) -> &FrameRouter {
        &self.router
    }

    /// Sum of every *live* shard's local stats — the same totals a
    /// client reads with a `Stats` request through the router (which
    /// likewise counts a dead shard as zeros).
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for shard in self.shards.iter().flatten() {
            let s = shard.stats();
            total.requests += s.requests;
            total.frames_served += s.frames_served;
            total.bytes_sent += s.bytes_sent;
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.frame_bytes_raw += s.frame_bytes_raw;
            total.frame_bytes_wire += s.frame_bytes_wire;
            for (t, c) in total.latency.counts.iter_mut().zip(s.latency.counts.iter()) {
                *t += c;
            }
        }
        total
    }

    /// Stops the router first (so no request races a dying shard), then
    /// every live shard.
    pub fn shutdown(self) {
        let ShardedFrameService { shards, router, .. } = self;
        router.shutdown();
        for shard in shards.into_iter().flatten() {
            shard.shutdown();
        }
    }
}

/// Spawns one shard server over its retained source.
fn spawn_shard(source: &ShardSource, config: ServerConfig) -> io::Result<FrameServer> {
    match source {
        ShardSource::Sliced(slice) => FrameServer::spawn_loopback(slice.clone(), config),
        ShardSource::Stored(run) => FrameServer::spawn_stored_loopback(Arc::clone(run), config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;

    fn tiny_frame(step: usize) -> Arc<HybridFrame> {
        let ps = Distribution::default_beam().sample(100, step as u64 + 1);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        Arc::new(HybridFrame::from_partition(
            &data,
            step,
            f64::INFINITY,
            [2, 2, 2],
        ))
    }

    #[test]
    fn sliced_map_ranks_local_indices_per_shard() {
        let spec = ShardSpec::new(3);
        let map = ShardMap::sliced(&spec, 50);
        let mut seen = [0u32; 3];
        for g in 0..50u32 {
            let (shard, local) = map.locate(g).unwrap();
            assert_eq!(shard, spec.owner_of(g));
            assert_eq!(local, seen[shard], "locals are dense and ascending");
            seen[shard] += 1;
        }
        let total: u32 = seen.iter().sum();
        assert_eq!(total, 50);
        for (s, &count) in seen.iter().enumerate() {
            assert_eq!(map.frames_owned_by(s).len(), count as usize);
        }
    }

    #[test]
    fn shared_map_uses_global_indices_locally() {
        let map = ShardMap::shared(&ShardSpec::new(2), 10);
        for g in 0..10u32 {
            let (_, local) = map.locate(g).unwrap();
            assert_eq!(local, g);
        }
        assert!(map.locate(10).is_none());
    }

    #[test]
    fn fetch_cache_coalesces_and_shares_failures_without_caching_them() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;

        let cache = Arc::new(FetchCache::new(1 << 20));
        let key = CacheKey::new(0, 1.0);
        let calls = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(2));

        // First wave: the fetch fails; a waiter that arrives mid-fetch
        // shares the failure.
        let waiter = {
            let (cache, gate) = (Arc::clone(&cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait(); // fetcher is inside its fetch
                cache
                    .get_or_fetch(key, || panic!("waiter must coalesce, not fetch"))
                    .0
            })
        };
        let (first, _) = cache.get_or_fetch(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            gate.wait();
            // Give the waiter time to register on the pending slot.
            std::thread::sleep(Duration::from_millis(50));
            Err("shard down".to_string())
        });
        assert_eq!(first.unwrap_err(), "shard down");
        assert_eq!(waiter.join().unwrap().unwrap_err(), "shard down");

        // The failure was not cached: the next call fetches again and a
        // success is then served from cache.
        let frame = tiny_frame(0);
        let served = Arc::clone(&frame);
        let fetch_calls = Arc::clone(&calls);
        let (second, _) = cache.get_or_fetch(key, move || {
            fetch_calls.fetch_add(1, Ordering::SeqCst);
            Ok(served)
        });
        assert!(Arc::ptr_eq(&second.unwrap(), &frame));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let (third, _) = cache.get_or_fetch(key, || panic!("cached now"));
        assert!(Arc::ptr_eq(&third.unwrap(), &frame));
    }

    #[test]
    fn fetch_cache_evicts_lru_by_bytes() {
        // A budget of exactly two frames: the third insert must evict
        // the least recently used resident frame.
        let frame_bytes = tiny_frame(0).total_bytes();
        let cache = FetchCache::new(2 * frame_bytes);
        let keys: Vec<CacheKey> = (0..3).map(|f| CacheKey::new(f, 1.0)).collect();
        for (i, &k) in keys[..2].iter().enumerate() {
            let (r, _) = cache.get_or_fetch(k, || Ok(tiny_frame(i)));
            r.unwrap();
        }
        // Touch key 0 so key 1 is the LRU victim.
        cache
            .get_or_fetch(keys[0], || panic!("resident"))
            .0
            .unwrap();
        cache.get_or_fetch(keys[2], || Ok(tiny_frame(2))).0.unwrap();
        cache
            .get_or_fetch(keys[0], || panic!("survived"))
            .0
            .unwrap();
        let mut refetched = false;
        cache
            .get_or_fetch(keys[1], || {
                refetched = true;
                Ok(tiny_frame(1))
            })
            .0
            .unwrap();
        assert!(refetched, "key 1 was the LRU victim");
    }

    #[test]
    fn fetch_cache_admits_frames_larger_than_the_whole_budget() {
        let cache = FetchCache::new(1);
        let key = CacheKey::new(0, 1.0);
        let frame = tiny_frame(0);
        let served = Arc::clone(&frame);
        let (r, _) = cache.get_or_fetch(key, move || Ok(served));
        assert!(Arc::ptr_eq(&r.unwrap(), &frame));
        // Still resident: the just-inserted frame is never its own
        // eviction victim, so its coalesced waiters are served.
        let (again, _) = cache.get_or_fetch(key, || panic!("resident"));
        assert!(Arc::ptr_eq(&again.unwrap(), &frame));
        // The next distinct insert evicts it.
        cache
            .get_or_fetch(CacheKey::new(1, 1.0), || Ok(tiny_frame(1)))
            .0
            .unwrap();
        let mut refetched = false;
        cache
            .get_or_fetch(key, || {
                refetched = true;
                Ok(tiny_frame(0))
            })
            .0
            .unwrap();
        assert!(refetched, "the oversized frame was the next victim");
    }
}
