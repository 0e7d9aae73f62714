//! The shard router: one AVWF front door over N frame servers.
//!
//! The paper's remote pipeline pairs one server with one viewer; scaling
//! one terascale run to many concurrent dashboards means spreading the
//! frame catalog over N shard servers ([`crate::server::FrameServer`]s)
//! and putting a router in front that clients cannot tell from a single
//! big server. A router is the same frame service as a server
//! (`crate::service`: door, protocol, frame cache, ledger) over a
//! different frame *origin*, the replica set (`Replicas`), so this module
//! is routing only:
//!
//! - the catalog is the merged one: every shard's local catalog stitched
//!   back into global frame order at spawn time;
//! - a frame comes from the owning shard (the [`ShardMap`] built from a
//!   [`ShardSpec`] rendezvous layout) over one `Upstream` per shard — a
//!   small pool of non-retrying [`crate::client::Client`]s, plus the
//!   circuit breaker every path that talks to the shard reports to;
//! - `Stats` answers with the router's own `router.*` registry
//!   ([`FrameRouter::metrics`]) merged with every reachable shard's
//!   `Stats` snapshot — its `serve.*` registry, and from one shard the
//!   window they share — so one poll of the router reads the whole
//!   service.
//!
//! Forwarding: a frame is the shard's reply as read. Its envelope
//! checksum is verified once, on the upstream read, and the router keeps
//! the reply ([`crate::wire::Sealed`]) and writes those bytes to every
//! client: it decodes, relabels, re-encodes and hashes nothing. It reads
//! only the header's step — a reply for another step than the one asked
//! is the shard's fault, and the walk moves on — and the trailer's raw
//! length, for `router.frame_bytes_raw`; the trailer's hash is verified
//! end to end, at the client. So every replica must serve global frame
//! `g` as step `g`, which [`FrameRouter::spawn`] checks against the
//! shards' catalogs. A progressive request decodes the cached reply once
//! and plans its records from it (`crate::cache::Served`).
//!
//! Herd coalescing: forwarded replies sit in the service's frame cache,
//! as a server's extractions do, budgeted by their bytes (and a decoded
//! frame's, once a progressive session has asked for one) — a thundering
//! herd of M clients on one cold frame costs one upstream fetch (and
//! therefore at most one extraction on the owning shard), and an upstream
//! *failure* is shared with every coalesced waiter but never cached, so a
//! shard coming back is observed on the very next request. The replica
//! set does not read ahead, so a router runs no helper and counts no
//! hints: its upstream failure policy is settled for demand traffic only.
//! Nor does it limit fetches in flight: its shards shed for it.
//!
//! Failure semantics (the PR 5 degradation model, one hop out): the
//! router walks a frame's replicas once per request and never sleeps;
//! the client's retry policy is the one backoff and the one deadline
//! (DESIGN.md §16 has the whole failure order). A failed walk a replay
//! may fix is answered `ERR_BUSY`, which the client's ladder replays
//! through the coalescing cache; one it cannot fix (every replica
//! ejected, or a non-transient error) `ERR_INTERNAL`, while the catalog
//! and every other shard's frames keep serving. A resilient client
//! ([`crate::client::RemoteFrames`]) turns either into a flagged-stale
//! degraded frame once its ladder is spent; when the shard returns (or
//! [`FrameRouter::set_shard_addr`] repoints its pool at a replacement),
//! the same requests simply succeed again. A shard that answers
//! `ERR_BUSY` is *alive*: its breaker hears a success and the walk moves
//! on to the next replica. An ejected shard gets no client request: its
//! breaker is a latch that the background prober ([`crate::health`])
//! releases with one answered ping, or an operator repoint resets.

use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::cache::{Served, DEFAULT_CACHE_BYTES};
use crate::client::{Client, ClientConfig};
use crate::error::ServeError;
use crate::frontdoor::{spawn_thread, FrontDoor, Spawn};
use crate::health::{HealthConfig, Prober};
use crate::lock;
use crate::protocol::{FrameInfo, Refusal, ERR_BUSY, ERR_INTERNAL};
use crate::server::{FrameServer, Origin, ServerConfig};
use crate::service::{FrameOrigin, ServiceConfig};
use crate::stats::{CounterNames, ROUTER};
use crate::wire::{FramePeek, Sealed};
use accelviz_core::shard::ShardSpec;
use accelviz_trace::registry::{Registry, Snapshot};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Registry counter: upstream fetches the router started (each one
/// costs the owning shard at most one extraction).
pub const CTR_ROUTER_UPSTREAM_FETCHES: &str = "router.upstream_fetches";
/// Registry counter: failed walks handed back to the client as an
/// in-band `ERR_BUSY` for its retry policy to replay — a frame's replica
/// walk came back without a frame while some replica could still serve
/// it.
pub const CTR_ROUTER_UPSTREAM_RETRIES: &str = "router.upstream_retries";
/// Registry counter: attempts against a shard that failed (one dial or
/// one request, nothing retried inside). For a frame the walk moves on
/// to the next replica and only a walk that found no frame answers
/// in-band (`ERR_BUSY` or `ERR_INTERNAL`); for stats aggregation it is a
/// zero contribution.
pub const CTR_ROUTER_UPSTREAM_ERRORS: &str = "router.upstream_errors";
/// Registry counter: breaker trips (Closed → Open) — a shard was
/// ejected from routing until a probe hears it answer again.
pub const CTR_ROUTER_BREAKER_OPEN: &str = "router.breaker_open";
/// Registry counter: breaker reinstatements (Open → Closed), whether
/// from a successful probe, a late success of a request admitted before
/// the trip, or a `set_shard_addr` reset.
pub const CTR_ROUTER_BREAKER_CLOSED: &str = "router.breaker_closed";
/// Registry counter: attempts an open breaker rejected in microseconds
/// instead of dialing a shard it already knows is down.
pub const CTR_ROUTER_BREAKER_FAST_FAILS: &str = "router.breaker_fast_fails";
/// Registry counter: background health probes a shard answered.
pub const CTR_ROUTER_PROBE_OK: &str = "router.probe_ok";
/// Registry counter: background health probes a shard failed.
pub const CTR_ROUTER_PROBE_FAIL: &str = "router.probe_fail";
/// Registry counter: frame fetches ultimately served by a replica other
/// than the frame's primary owner — the redundancy at work.
pub const CTR_ROUTER_REPLICA_FAILOVERS: &str = "router.replica_failovers";
/// Registry histogram: one upstream fetch attempt against one shard —
/// a single dial-or-reuse plus request, no retries inside.
pub const HIST_ROUTER_UPSTREAM_LATENCY: &str = "router.upstream_latency";

/// Idle upstream connections kept pooled per shard.
const UPSTREAM_IDLE: usize = 4;

/// Where every global frame lives: which shards hold a replica of it
/// (preference-ordered, primary first) and which *local* index each of
/// those shards knows it by. Built once from a [`ShardSpec`], a frame
/// count, and a replication factor — by [`Origin::layout`], which also
/// hands every shard the one origin — then kept by the router to route
/// requests and fall through replicas on failure.
///
/// ```
/// use accelviz_core::shard::ShardSpec;
/// use accelviz_serve::ShardMap;
///
/// let map = ShardMap::shared_replicated(&ShardSpec::new(2), 6, 1);
/// assert_eq!(map.frame_count(), 6);
/// assert_eq!(map.replication(), 1);
/// let (shard, _local) = map.locate(4).expect("frame 4 exists");
/// assert!(shard < map.shard_count());
/// // Out-of-catalog frames have no owner.
/// assert!(map.locate(6).is_none());
///
/// // At replication 2 every frame lives on two shards.
/// let map = ShardMap::shared_replicated(&ShardSpec::new(3), 6, 2);
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
    /// The layout for *physically sliced* shards at a replication
    /// factor: each shard holds every frame whose top-`replication`
    /// rendezvous owner set includes it, packed in ascending global
    /// order, so global frame `g` is that shard's `rank(g)`-th local
    /// frame. No origin is laid out this way ([`Origin::layout`] shares),
    /// and a router refuses such a map at spawn, since it forwards the
    /// steps a shard writes; this stays public only as the locator the
    /// benchmark harness calls.
    /// `replication` is clamped to the shard count; zero is rejected by
    /// the underlying [`ShardSpec::owners`].
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

    /// The layout for shards that all expose the *full* catalog (e.g.
    /// N servers sharing one run file): routing preference still
    /// follows the rendezvous replica set, but a frame's local index on
    /// every replica is its global index. This is how [`Origin::layout`]
    /// spreads every origin.
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
}

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Byte budget for the router's frame cache (the herd-coalescing
    /// layer), LRU by the bytes each entry holds on admission: the
    /// shard's reply payload, plus the decoded frame and its records once
    /// a progressive request asked for them
    /// ([`crate::cache::Served::held_bytes`]), weighed as a server weighs
    /// its own ([`ServerConfig::cache_bytes`]), with the
    /// same default ([`DEFAULT_CACHE_BYTES`]) and the same one-touch cap
    /// (a tenth, [`crate::cache::ONE_TOUCH_DIVISOR`]). Frames vary by
    /// orders of magnitude with threshold and grid dims, so the budget
    /// counts bytes rather than entries; a frame larger than the whole
    /// budget is still admitted and becomes the next eviction victim, so
    /// 0 holds the newest frame only.
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
    /// When a shard's circuit breaker trips.
    pub breaker: BreakerConfig,
    /// The background health prober's pacing — the one automatic way an
    /// ejected shard gets back in (zero interval disables it).
    pub health: HealthConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

impl RouterConfig {
    /// The service a router runs under this config: no limit on fetches
    /// in flight, since the shards shed for it.
    fn service(&self) -> ServiceConfig {
        ServiceConfig {
            cache_bytes: self.cache_bytes,
            permits: usize::MAX,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            max_connections: self.max_connections,
            spawn: spawn_thread,
        }
    }
}

/// One shard as the router sees it: where it is, a small pool of
/// connections to it, and the circuit breaker that every path talking to
/// it — frame fetches, `Stats` hops, the background prober, an operator
/// repoint — reports to, so "is this shard alive" is decided and counted
/// in one place.
struct Upstream {
    addr: Mutex<SocketAddr>,
    /// Clients that finished their last operation cleanly, at most
    /// [`UPSTREAM_IDLE`]; emptied whenever the shard is reported down.
    idle: Mutex<Vec<Client>>,
    breaker: CircuitBreaker,
    /// The router's registry (`router.*`).
    metrics: Arc<Registry>,
}

impl Upstream {
    /// Lands a breaker state transition on the `router.breaker_*`
    /// counters.
    fn note(&self, transition: Option<Transition>) {
        let counter = match transition {
            Some(Transition::Opened) => CTR_ROUTER_BREAKER_OPEN,
            Some(Transition::Closed) => CTR_ROUTER_BREAKER_CLOSED,
            None => return,
        };
        self.metrics.add(counter, 1);
    }

    /// Tells the breaker whether the shard just proved alive. A shard
    /// that failed — an attempt or a probe — took every idle connection
    /// with it: they are dropped now rather than found dead one request
    /// at a time.
    fn report(&self, alive: bool) {
        self.note(if alive {
            self.breaker.on_success()
        } else {
            lock(&self.idle).clear();
            self.breaker.on_failure()
        });
    }

    /// One attempt against the shard: `None` when its breaker refuses
    /// (a counted fast-fail that cost microseconds and no dial), else
    /// `op` on a pooled or freshly dialed client — once, no backoff
    /// inside — then the verdict to the breaker and, on failure, one
    /// upstream error to the counters. A well-formed `ERR_BUSY` is an
    /// error for the caller but a *live* shard for the breaker: load must
    /// not eject a healthy shard and move its load onto its replicas.
    fn call<T>(
        &self,
        op: impl Fn(&mut Client) -> crate::error::Result<T>,
    ) -> Option<crate::error::Result<T>> {
        if self.breaker.admit() == Admission::FastFail {
            self.metrics.add(CTR_ROUTER_BREAKER_FAST_FAILS, 1);
            return None;
        }
        // Each lock is released before dialing: a dial to an unroutable
        // shard can take a whole connect timeout, and must block neither
        // the pool nor a repoint.
        let dial = || {
            let addr = *lock(&self.addr);
            Client::connect_with(addr, ClientConfig::no_retry())
        };
        let run = |mut client: Client| -> crate::error::Result<T> {
            let value = op(&mut client)?;
            let mut idle = lock(&self.idle);
            if idle.len() < UPSTREAM_IDLE {
                idle.push(client);
            }
            Ok(value)
        };
        let pooled = lock(&self.idle).pop();
        let reused = pooled.is_some();
        let mut result = pooled.map_or_else(dial, Ok).and_then(run);
        // A pooled connection the shard hung up on while it sat idle (its
        // `read_timeout`, or a restart on the same address) is no verdict
        // on the shard: drop its equally old siblings and redial once.
        if reused && result.as_ref().is_err_and(hung_up) {
            lock(&self.idle).clear();
            result = dial().and_then(run);
        }
        match &result {
            Ok(_) => self.report(true),
            Err(e) => {
                self.metrics.add(CTR_ROUTER_UPSTREAM_ERRORS, 1);
                self.report(is_busy(e));
            }
        }
        Some(result)
    }
}

/// A well-formed in-band `ERR_BUSY`: the shard is shedding load, not down.
fn is_busy(e: &ServeError) -> bool {
    matches!(e, ServeError::Remote { code: ERR_BUSY, .. })
}

/// The peer closed the connection before a single reply byte. Not a
/// timeout: that is the shard being slow, not the connection being old.
fn hung_up(e: &ServeError) -> bool {
    use io::ErrorKind::{TimedOut, WouldBlock};
    match e {
        ServeError::Io(e) => !matches!(e.kind(), TimedOut | WouldBlock),
        ServeError::Truncated { got: 0, .. } => true,
        _ => false,
    }
}

pub(crate) fn invalid_input(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, why.into())
}

/// A shard's `reply` to a request for global frame `frame`, kept as it
/// was read, to be written to every client that asks: nothing is decoded
/// or re-encoded. Only its header's step and its trailer's raw length are
/// read ([`FramePeek`]); a reply that names another step is the shard's
/// fault, and the walk moves on to the next replica.
fn forwarded(reply: Sealed, frame: u32) -> crate::error::Result<Served> {
    let peek = FramePeek::read(reply.payload())?;
    if peek.step != u64::from(frame) {
        return Err(ServeError::Corrupt(format!(
            "the reply for frame {frame} carries step {}",
            peek.step
        )));
    }
    Ok(Served::forwarded(reply, peek.raw_len))
}

/// A router's frame origin: the replica set — where every frame lives,
/// the merged catalog, and one [`Upstream`] per shard.
pub(crate) struct Replicas {
    map: ShardMap,
    catalog: Vec<FrameInfo>,
    upstreams: Vec<Arc<Upstream>>,
    /// The router's registry (`router.*`).
    metrics: Arc<Registry>,
}

impl FrameOrigin for Replicas {
    const NAMES: CounterNames = ROUTER;
    const READS_AHEAD: bool = false;

    fn frame_count(&self) -> usize {
        self.catalog.len()
    }

    fn catalog(&self) -> Vec<FrameInfo> {
        self.catalog.clone()
    }

    /// One logical frame fetch: one walk over the frame's replicas in
    /// preference order, never a wait. A breaker that fast-fails is
    /// skipped in microseconds, a failed attempt (transport or `ERR_BUSY`)
    /// falls through to the next replica at once, the first frame wins —
    /// so with replication ≥ 2 a single dead shard costs zero degraded
    /// frames. A walk that found no frame is answered at once:
    /// `ERR_INTERNAL` when a replay cannot help (no breaker admitted an
    /// attempt, every replica's breaker ended `Open`, or the error is not
    /// transient), else `ERR_BUSY`, the one code a client's ladder — the
    /// one backoff and the one deadline — replays. A busy replica is
    /// alive, so its `ERR_BUSY` outranks a dead replica's error.
    fn fetch(&self, frame: u32, threshold: f64) -> Result<Served, Refusal> {
        let replicas = self.map.replicas(frame);
        let replicas = replicas.expect("the door refuses frames outside the catalog");
        let mut failed = None;
        for (idx, &(shard, local)) in replicas.iter().enumerate() {
            let t0 = Instant::now();
            let upstream = &self.upstreams[shard as usize];
            let forward = |reply| forwarded(reply, frame);
            let Some(result) = upstream.call(|c| c.fetch_reply(local, threshold, forward)) else {
                continue;
            };
            self.metrics.add(CTR_ROUTER_UPSTREAM_FETCHES, 1);
            self.metrics
                .record_seconds(HIST_ROUTER_UPSTREAM_LATENCY, t0.elapsed().as_secs_f64());
            match result {
                Ok((served, _metrics)) => {
                    if idx > 0 {
                        self.metrics.add(CTR_ROUTER_REPLICA_FAILOVERS, 1);
                    }
                    return Ok(served);
                }
                Err(e) => {
                    if failed.as_ref().is_none_or(|(_, _, kept)| !is_busy(kept)) {
                        failed = Some((shard, local, e));
                    }
                }
            }
        }
        let Some((shard, local, e)) = failed else {
            let n = replicas.len();
            let why =
                format!("every replica's circuit breaker is open for frame {frame} ({n} replicas)");
            return Err(Refusal::new(ERR_INTERNAL, why));
        };
        let why = format!("shard {shard} failed serving its frame {local}: {e}");
        let ejected = replicas
            .iter()
            .all(|&(s, _)| self.upstreams[s as usize].breaker.state() == BreakerState::Open);
        if ejected || !e.is_transient() {
            return Err(Refusal::new(ERR_INTERNAL, why));
        }
        self.metrics.add(CTR_ROUTER_UPSTREAM_RETRIES, 1);
        Err(Refusal::new(ERR_BUSY, format!("{why}; retry shortly")))
    }

    /// Merges every reachable shard's `Stats` snapshot with the router's
    /// own, taken after the walk so the reply counts it; a shard that
    /// cannot answer contributes zeros (and an `router.upstream_errors`
    /// count) instead of failing the reply, and a shard whose breaker is
    /// open is skipped outright (a `router.breaker_fast_fails` count) —
    /// one dead shard must not add a connect timeout to every `Stats`
    /// round trip. Stats hops to a Closed shard feed its breaker like any
    /// other upstream traffic; an Open shard is skipped until the prober
    /// reinstates it.
    fn stats(&self, own: &Registry) -> Snapshot {
        let mut total = Snapshot::default();
        for upstream in &self.upstreams {
            if let Some(Ok(shard)) = upstream.call(|c| c.stats()) {
                total.merge(&shard);
            }
        }
        total.merge(&own.snapshot());
        total
    }
}

/// A running shard router: binds its own listener, speaks the unchanged
/// AVWF protocol to clients, and proxies frame requests to the owning
/// shard (or its replicas) over pooled upstream connections. See the
/// [module docs](self) for the full semantics.
///
/// ```
/// use accelviz_beam::distribution::Distribution;
/// use accelviz_octree::builder::{partition, BuildParams};
/// use accelviz_octree::plots::PlotType;
/// use accelviz_serve::{Client, FrameRouter, FrameServer, Origin, RouterConfig, ServerConfig};
///
/// let data: Vec<_> = (0..3u64)
///     .map(|i| {
///         let ps = Distribution::default_beam().sample(300, i + 1);
///         partition(&ps, PlotType::XYZ, BuildParams::default())
///     })
///     .collect();
/// // Three frames over two shards, each frame routed to one of them.
/// let (map, origins) = Origin::from(data).layout(2, 1).unwrap();
/// let shards: Vec<_> = origins
///     .into_iter()
///     .map(|origin| FrameServer::spawn_loopback(origin, ServerConfig::default()).unwrap())
///     .collect();
/// let addrs = shards.iter().map(|s| s.addr()).collect();
/// let router = FrameRouter::spawn("127.0.0.1:0", addrs, map, RouterConfig::default()).unwrap();
///
/// // A stock client cannot tell the router from a single server.
/// let mut client = Client::connect(router.addr()).unwrap();
/// assert_eq!(client.frame_count(), 3);
/// let (frame, _) = client.fetch(1, f64::INFINITY).unwrap();
/// assert_eq!(frame.step, 1);
///
/// drop(client);
/// router.shutdown();
/// shards.into_iter().for_each(FrameServer::shutdown);
/// ```
pub struct FrameRouter {
    door: FrontDoor<Replicas>,
    prober: Option<Prober>,
}

impl FrameRouter {
    /// Binds `addr` and starts routing over the given shard addresses.
    /// `shards[i]` must be the server owning every `(i, local)` entry of
    /// `map`. Fails fast — with an error, not a degraded catalog — when
    /// the shard set's length disagrees with the map (which has at least
    /// one shard), any shard is unreachable at spawn (one attempt each:
    /// shards come up before their router), a shard advertises fewer
    /// frames than the map routes to it or a step other than the global
    /// frame the map routes to a local index (replies are forwarded as
    /// the shard writes them), or the OS refuses the prober's thread —
    /// without it an ejected shard would never be reinstated.
    pub fn spawn(
        addr: &str,
        shards: Vec<SocketAddr>,
        map: ShardMap,
        config: RouterConfig,
    ) -> io::Result<FrameRouter> {
        FrameRouter::spawn_inner(addr, shards, map, config, spawn_thread)
    }

    /// `spawn_prober` starts the prober's thread; a refusal is the
    /// router's error.
    fn spawn_inner(
        addr: &str,
        shards: Vec<SocketAddr>,
        map: ShardMap,
        config: RouterConfig,
        spawn_prober: Spawn,
    ) -> io::Result<FrameRouter> {
        if shards.len() != map.shard_count() {
            return Err(invalid_input(format!(
                "shard map routes over {} shards but {} addresses were given",
                map.shard_count(),
                shards.len()
            )));
        }
        let metrics = Arc::new(Registry::new());
        // A router that never handed a walk back reports 0, not an absent
        // key.
        metrics.add(CTR_ROUTER_UPSTREAM_RETRIES, 0);
        let upstreams: Vec<Arc<Upstream>> = shards
            .into_iter()
            .map(|addr| {
                Arc::new(Upstream {
                    addr: Mutex::new(addr),
                    idle: Mutex::new(Vec::new()),
                    breaker: CircuitBreaker::new(config.breaker),
                    metrics: Arc::clone(&metrics),
                })
            })
            .collect();
        let catalog = merge_catalogs(&map, &upstreams)?;
        let replicas = Replicas {
            map,
            catalog,
            upstreams,
            metrics: Arc::clone(&metrics),
        };
        let door = FrontDoor::open(addr, replicas, metrics, config.service())?;
        let prober = {
            let addrs = door.service().origin.upstreams.clone();
            let verdicts = addrs.clone();
            Prober::spawn(
                config.health,
                addrs.len(),
                move |i| *lock(&addrs[i].addr),
                move |i, ok| {
                    let counter = if ok {
                        CTR_ROUTER_PROBE_OK
                    } else {
                        CTR_ROUTER_PROBE_FAIL
                    };
                    verdicts[i].metrics.add(counter, 1);
                    verdicts[i].report(ok);
                },
                spawn_prober,
            )?
        };
        Ok(FrameRouter { door, prober })
    }

    fn replicas(&self) -> &Replicas {
        &self.door.service().origin
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.door.addr()
    }

    /// Shards this router routes over.
    pub fn shard_count(&self) -> usize {
        self.replicas().map.shard_count()
    }

    /// The merged catalog served to `ListFrames`, in global frame order.
    pub fn catalog(&self) -> &[FrameInfo] {
        &self.replicas().catalog
    }

    /// The router's private metrics registry: its [`ROUTER`] table and
    /// the `CTR_ROUTER_*` counters documented in this module. A `Stats`
    /// reply carries it merged with the shards' snapshots.
    pub fn metrics(&self) -> &Registry {
        &self.door.service().metrics
    }

    /// Repoints shard `shard`'s upstream pool at `addr` — the failover
    /// hook for a shard restarted on a new address. Idle pooled
    /// connections to the old address are dropped, and the shard's
    /// circuit breaker is reset to Closed: a replacement shard must not
    /// inherit the dead one's verdict, or the router would keep
    /// fast-failing a healthy server until a probe answered. The
    /// merged catalog is kept, so the replacement must serve the same
    /// frames. Errors when `shard` is out of range.
    pub fn set_shard_addr(&self, shard: usize, addr: SocketAddr) -> io::Result<()> {
        let upstream = self.replicas().upstreams.get(shard).ok_or_else(|| {
            invalid_input(format!(
                "shard {shard} out of range ({} shards)",
                self.shard_count()
            ))
        })?;
        *lock(&upstream.addr) = addr;
        lock(&upstream.idle).clear();
        upstream.note(upstream.breaker.reset());
        Ok(())
    }

    /// Shard `shard`'s current circuit-breaker state, for dashboards
    /// and tests. Panics when `shard` is out of range.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.replicas().upstreams[shard].breaker.state()
    }

    /// Stops probing, then stops accepting, joins the acceptor, and
    /// drains in-flight replies for at most a second — the same stop a
    /// server runs.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for FrameRouter {
    fn drop(&mut self) {
        // Stop probing before the service: a dying deployment's shards
        // going away must not race verdicts into the breakers.
        self.prober.take();
    }
}

/// Fetches every shard's catalog and stitches the merged global catalog:
/// entry `g` comes from its *primary* owner's local slot (`frame = g`,
/// `step = g` — the run-wide convention a direct server of the unsliced
/// data reports). Every replica's local index is validated against its
/// shard's catalog — a replica that cannot actually serve its frames
/// would otherwise only be discovered during a failover, the worst
/// possible moment — and so is the step it advertises there, which must
/// be `g`: the router forwards replies as the shard writes them, so a
/// shard that numbers its frames locally is refused here, by shard and
/// frame.
fn merge_catalogs(map: &ShardMap, upstreams: &[Arc<Upstream>]) -> io::Result<Vec<FrameInfo>> {
    let mut shard_catalogs = Vec::with_capacity(upstreams.len());
    for (i, upstream) in upstreams.iter().enumerate() {
        let fetched = upstream.call(|c| c.list_frames());
        let catalog = fetched.expect("a breaker nothing has reported to yet admits");
        shard_catalogs.push(catalog.map_err(|e| {
            let why = format!("shard {i} catalog fetch failed: {e}");
            io::Error::new(io::ErrorKind::ConnectionRefused, why)
        })?);
    }
    let mut merged = Vec::with_capacity(map.frame_count());
    for g in 0..map.frame_count() {
        let replicas = map.replicas(g as u32).expect("g < frame_count");
        for &(shard, local) in replicas {
            let (shard, local) = (shard as usize, local as usize);
            let advertised = shard_catalogs[shard].len();
            let why = match shard_catalogs[shard].get(local) {
                None => format!(
                    "shard {shard} advertises {advertised} frames but the map routes global \
                     frame {g} to its local index {local}"
                ),
                Some(entry) if entry.step != g as u64 => format!(
                    "shard {shard} numbers its local frame {local} step {}, but the map routes \
                     global frame {g} there: replies are forwarded as the shard writes them, \
                     so a replica must serve frame {g} as step {g}",
                    entry.step
                ),
                Some(_) => continue,
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
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

/// A whole sharded deployment in one handle: N loopback shard servers
/// over one origin, each the preferred owner of its rendezvous share of
/// the catalog, fronted by a
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
/// let service = ShardedFrameService::spawn_loopback_replicated(
///     data,
///     2,
///     1,
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
    /// Each shard's origin, kept so
    /// [`ShardedFrameService::reinstate_shard`] can rebuild a shard.
    origins: Vec<Origin>,
    /// The caller's shard config at a cache budget of 0.
    shard_config: ServerConfig,
    router: FrameRouter,
}

impl ShardedFrameService {
    /// Spawns `shards` loopback shard servers over `origin` as
    /// [`Origin::layout`] spreads it at `replication`, plus the fronting
    /// router, and fails as that does. With `replication >= 2` a single
    /// shard kill costs zero degraded frames.
    ///
    /// Every shard runs `shard_config` with its `cache_bytes` set to 0, so
    /// it holds only the frame it is sending: the router caches every
    /// frame a shard sends, under the same `(frame, threshold)` key and
    /// with its own budget, so a shard's cache could only hit what the
    /// router had already evicted, while holding entries its clients never
    /// ask for again.
    pub fn spawn_loopback_replicated(
        origin: impl Into<Origin>,
        shards: usize,
        replication: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let (map, origins) = origin.into().layout(shards, replication)?;
        let shard_config = ServerConfig {
            cache_bytes: 0,
            ..shard_config
        };
        let servers = origins
            .iter()
            .map(|shard| FrameServer::spawn_loopback(shard.clone(), shard_config))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = servers.iter().map(|s| s.addr()).collect();
        let router = FrameRouter::spawn("127.0.0.1:0", addrs, map, router_config)?;
        Ok(ShardedFrameService {
            shards: servers.into_iter().map(Some).collect(),
            origins,
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
    /// Panics when shard `i` is out of range, or currently killed — a
    /// dead server has no handle to return.
    pub fn shard(&self, i: usize) -> &FrameServer {
        self.shards[i]
            .as_ref()
            .expect("shard was killed and not reinstated")
    }

    /// Whether shard `i` is currently live.
    ///
    /// # Panics
    /// Panics when shard `i` is out of range.
    pub fn shard_alive(&self, i: usize) -> bool {
        self.shards[i].is_some()
    }

    /// Kills shard `i`: shuts the server down and drops its handle, so
    /// every connection to it — pooled upstream connections included —
    /// starts failing. The router is told nothing; discovering the
    /// death (failed attempts, breaker trip, probe failures) and surviving it
    /// (replica fall-through) is exactly what this hook exists to
    /// exercise. A no-op when the shard is already dead.
    ///
    /// # Panics
    /// Panics when shard `i` is out of range.
    pub fn kill_shard(&mut self, i: usize) {
        if let Some(server) = self.shards[i].take() {
            server.shutdown();
        }
    }

    /// Reinstates a killed shard `i`: respawns a server over the same
    /// frames (bit-identical, fresh address) and repoints the router's
    /// pool at it — which also resets the shard's breaker, per
    /// [`FrameRouter::set_shard_addr`]. A no-op when the shard is alive;
    /// `InvalidInput` when `i` is out of range. The new server shares
    /// the service's one window, and with it every frame and grid the
    /// window already holds.
    pub fn reinstate_shard(&mut self, i: usize) -> io::Result<()> {
        let n = self.shards.len();
        let out_of_range = || invalid_input(format!("shard {i} out of range ({n} shards)"));
        let slot = self.shards.get_mut(i).ok_or_else(out_of_range)?;
        if slot.is_some() {
            return Ok(());
        }
        let server = FrameServer::spawn_loopback(self.origins[i].clone(), self.shard_config)?;
        self.router.set_shard_addr(i, server.addr())?;
        *slot = Some(server);
        Ok(())
    }

    /// The fronting router (its `router.*` metrics, the failover hook).
    pub fn router(&self) -> &FrameRouter {
        &self.router
    }

    /// The router's registry and frame-cache levels merged with every
    /// *live* shard's [`FrameServer::stats`] — what a client reads with a
    /// `Stats` request through the router (which likewise counts a dead
    /// shard as zeros), read in process. The shards' one window is in it once, from
    /// shard 0 while it lives.
    pub fn stats(&self) -> Snapshot {
        let mut total = self.router.metrics().snapshot();
        for shard in self.shards.iter().flatten() {
            total.merge(&shard.stats());
        }
        self.router.door.service().put_cache_levels(&mut total);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontdoor::Shape;
    use crate::lod::chunk_budget;
    use crate::protocol::{read_response, write_request, Request};
    use crate::server::Window;
    use crate::wire::{read_sealed, MAX_PAYLOAD, V2};
    use accelviz_beam::distribution::Distribution;
    use accelviz_core::hybrid::HybridFrame;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;
    use accelviz_octree::sorted_store::PartitionedData;
    use accelviz_store::progressive::decode_record;
    use std::net::TcpStream;

    fn stores(n: usize) -> Vec<PartitionedData> {
        (0..n)
            .map(|i| {
                let ps = Distribution::default_beam().sample(800, i as u64 + 1);
                partition(&ps, PlotType::XYZ, BuildParams::default())
            })
            .collect()
    }

    /// One shard over `data`, as a sharded service lays it out, and a
    /// router in front of it.
    fn routed(data: Vec<PartitionedData>) -> (FrameServer, FrameRouter) {
        let (map, origins) = Origin::from(data).layout(1, 1).unwrap();
        let config = ServerConfig::default();
        let shard = FrameServer::spawn_loopback(origins[0].clone(), config).unwrap();
        let addrs = vec![shard.addr()];
        let router = FrameRouter::spawn("127.0.0.1:0", addrs, map, RouterConfig::default());
        (shard, router.unwrap())
    }

    /// The bytes `addr` answers `req` with on a fresh session: its one
    /// envelope, or every envelope of a progressive stream.
    fn reply_bytes(addr: SocketAddr, req: Request) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_request(&mut stream, &Request::Hello { version: V2 }).unwrap();
        read_response(&mut stream).unwrap();
        write_request(&mut stream, &req).unwrap();
        let mut wire = Vec::new();
        loop {
            let reply = read_sealed(&mut stream, MAX_PAYLOAD).unwrap();
            reply.write_to(&mut wire).unwrap();
            let last = match req {
                Request::RequestFrameProgressive { .. } => {
                    let record = decode_record(reply.payload()).unwrap();
                    record.seq + 1 == record.total
                }
                _ => true,
            };
            if last {
                return wire;
            }
        }
    }

    /// A routed frame is the shard's reply byte for byte, and the router's
    /// entry holds those bytes and no frame: nothing was decoded.
    #[test]
    fn a_plain_fetch_forwards_the_shards_reply_undecoded() {
        let (shard, router) = routed(stores(3));
        let t = f64::INFINITY;
        let req = Request::RequestFrame {
            frame: 2,
            threshold: t,
        };
        let routed = reply_bytes(router.addr(), req);
        assert_eq!(routed, reply_bytes(shard.addr(), req), "the shard's bytes");
        let entry = router.door.service().frame(2, t, Shape::Plain).unwrap();
        assert_eq!(router.metrics().counter(ROUTER.cache_hits), 1);
        let (reply, raw_len) = entry.v2();
        assert_eq!(reply.wire_bytes(), routed.len() as u64);
        assert_eq!(
            entry.held_bytes(),
            reply.payload().len() as u64,
            "undecoded"
        );
        let frame = HybridFrame::from_partition(&stores(3)[2], 2, t, [16, 16, 16]);
        assert_eq!(*raw_len, crate::wire::encode_frame(&frame).len() as u64);
        router.shutdown();
        shard.shutdown();
    }

    /// A progressive fetch through a router decodes the forwarded frame
    /// once, keeps it and its records, and sends the records a direct
    /// server sends.
    #[test]
    fn a_progressive_fetch_through_a_router_decodes_once() {
        let (shard, router) = routed(stores(3));
        let direct = FrameServer::spawn_loopback(stores(3), ServerConfig::default()).unwrap();
        let t = f64::INFINITY;
        let chunk_bytes = 2_048;
        let req = Request::RequestFrameProgressive {
            frame: 1,
            threshold: t,
            chunk_bytes,
        };
        let routed = reply_bytes(router.addr(), req);
        assert_eq!(routed, reply_bytes(direct.addr(), req), "a direct server's");
        assert_eq!(routed, reply_bytes(router.addr(), req), "and again, a hit");
        let shape = Shape::Progressive { chunk_bytes };
        let entry = router.door.service().frame(1, t, shape).unwrap();
        let frame = entry.frame().unwrap();
        assert!(std::ptr::eq(frame, entry.frame().unwrap()), "decoded once");
        let records = entry.chunks(chunk_budget(chunk_bytes)).unwrap();
        assert!(matches!(records, std::borrow::Cow::Borrowed(_)), "kept");
        let records: usize = records.iter().map(|r| r.payload().len()).sum();
        let payload = entry.v2().0.payload().len();
        let held = frame.total_bytes() + (payload + records) as u64;
        assert_eq!(entry.held_bytes(), held);
        let counted = |name| router.metrics().counter(name);
        let ledger = (counted(ROUTER.cache_misses), counted(ROUTER.cache_hits));
        assert_eq!(ledger, (1, 2));
        router.shutdown();
        shard.shutdown();
        direct.shutdown();
    }

    /// A map that routes a global frame to a shard's local index of
    /// another step — the sliced layout over shards that share the run —
    /// is refused at spawn, naming the shard and the frame: replies are
    /// forwarded, so nothing could relabel them.
    #[test]
    fn a_locally_numbered_map_is_refused_at_spawn() {
        const FRAMES: usize = 6;
        let (_, origins) = Origin::from(stores(FRAMES)).layout(3, 1).unwrap();
        let config = ServerConfig::default();
        let shards: Vec<_> = origins
            .into_iter()
            .map(|origin| FrameServer::spawn_loopback(origin, config).unwrap())
            .collect();
        let addrs = shards.iter().map(FrameServer::addr).collect();
        let sliced = ShardMap::sliced_replicated(&ShardSpec::new(3), FRAMES, 1);
        let (g, (shard, local)) = (0..FRAMES as u32)
            .map(|g| (g, sliced.locate(g).unwrap()))
            .find(|&(g, (_, local))| local != g)
            .expect("a sliced map numbers some frame locally");
        let spawned = FrameRouter::spawn("127.0.0.1:0", addrs, sliced, RouterConfig::default());
        let err = spawned.map(drop).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let why = err.to_string();
        let named = format!("shard {shard} numbers its local frame {local} step {local}");
        assert!(why.contains(&named), "{why}");
        assert!(why.contains(&format!("global frame {g} there")), "{why}");
        shards.into_iter().for_each(FrameServer::shutdown);
    }

    /// A shard whose catalog is right but whose frames carry the step
    /// after the one asked for.
    struct Mislabelled(Window);

    impl FrameOrigin for Mislabelled {
        const NAMES: CounterNames = Window::NAMES;
        const READS_AHEAD: bool = false;

        fn frame_count(&self) -> usize {
            self.0.frame_count()
        }

        fn catalog(&self) -> Vec<FrameInfo> {
            self.0.catalog()
        }

        fn fetch(&self, frame: u32, threshold: f64) -> Result<Served, Refusal> {
            let mut wrong = self.0.fetch(frame, threshold)?.frame()?.clone();
            wrong.step += 1;
            Ok(Served::new(wrong))
        }

        fn stats(&self, own: &Registry) -> Snapshot {
            own.snapshot()
        }
    }

    /// A reply for the wrong step is a shard fault: the walk falls
    /// through to the next replica, and the client gets the right frame.
    #[test]
    fn a_reply_for_the_wrong_step_falls_through_to_the_replica() {
        const FRAMES: usize = 6;
        let data = stores(FRAMES);
        let config = ServerConfig::default();
        let bad = Window {
            origin: Origin::from(data.clone()),
            config,
        };
        let metrics = Arc::new(Registry::new());
        let bad = FrontDoor::open("127.0.0.1:0", Mislabelled(bad), metrics, config.service());
        let bad = bad.unwrap();
        let good = FrameServer::spawn_loopback(data.clone(), config).unwrap();
        let spec = ShardSpec::new(2);
        let map = ShardMap::shared_replicated(&spec, FRAMES, 2);
        let g = (0..FRAMES as u32)
            .find(|&g| spec.owner_of(g) == 0)
            .expect("shard 0 is some frame's primary");
        let addrs = vec![bad.addr(), good.addr()];
        let router =
            FrameRouter::spawn("127.0.0.1:0", addrs, map, RouterConfig::default()).unwrap();
        let mut client = Client::connect_with(router.addr(), ClientConfig::no_retry()).unwrap();
        let (frame, _) = client.fetch(g, f64::INFINITY).unwrap();
        let want = HybridFrame::from_partition(
            &data[g as usize],
            g as usize,
            f64::INFINITY,
            config.volume_dims,
        );
        assert_eq!(frame, want);
        let counted = |name| router.metrics().counter(name);
        assert_eq!(
            counted(CTR_ROUTER_UPSTREAM_ERRORS),
            1,
            "the mislabelled reply"
        );
        assert_eq!(counted(CTR_ROUTER_REPLICA_FAILOVERS), 1);
        drop(client);
        router.shutdown();
        good.shutdown();
        drop(bad);
    }

    #[test]
    fn sliced_map_ranks_local_indices_per_shard() {
        let spec = ShardSpec::new(3);
        let map = ShardMap::sliced_replicated(&spec, 50, 1);
        let mut seen = [0u32; 3];
        for g in 0..50u32 {
            let (shard, local) = map.locate(g).unwrap();
            assert_eq!(shard, spec.owner_of(g));
            assert_eq!(local, seen[shard], "locals are dense and ascending");
            seen[shard] += 1;
        }
        assert_eq!(seen.iter().sum::<u32>(), 50);
    }

    /// The OS refusing the prober's thread is the router's error, not a
    /// panic and not a router that could never reinstate a shard; with
    /// probing off no thread is asked for.
    #[test]
    fn a_refused_prober_thread_is_the_routers_error() {
        let refuse: Spawn = |_role, _body| Err(io::Error::from(io::ErrorKind::WouldBlock));
        let shard = FrameServer::spawn_loopback(Vec::new(), ServerConfig::default()).unwrap();
        let map = || ShardMap::shared_replicated(&ShardSpec::new(1), 0, 1);
        let spawn = |config| {
            FrameRouter::spawn_inner("127.0.0.1:0", vec![shard.addr()], map(), config, refuse)
        };
        let err = spawn(RouterConfig::default()).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let unprobed = RouterConfig {
            health: HealthConfig {
                probe_interval: Duration::ZERO,
                ..HealthConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = spawn(unprobed).expect("probing off asks for no thread");
        assert!(router.prober.is_none());
        router.shutdown();
        shard.shutdown();
    }

    #[test]
    fn shared_map_uses_global_indices_locally() {
        let map = ShardMap::shared_replicated(&ShardSpec::new(2), 10, 1);
        for g in 0..10u32 {
            let (_, local) = map.locate(g).unwrap();
            assert_eq!(local, g);
        }
        assert!(map.locate(10).is_none());
    }
}
