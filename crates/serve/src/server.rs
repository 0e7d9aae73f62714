//! The frame server: the one frame service (`crate::service`) over a
//! run's residency window.
//!
//! A [`FrameServer`]'s origin is the *partitioned* data — the
//! density-sorted stores produced by preprocessing, behind one residency
//! window whether they are still in memory or already in a run file (one
//! [`Origin`]) — from which it extracts hybrid frames on demand at
//! whatever threshold a client dials, which is exactly the paper's split:
//! preprocessing near the simulation, compact hybrid frames shipped to the
//! desktop. The door, the protocol, the byte-weighed frame cache
//! ([`crate::cache`]) and its ledger are the service's, as they are a
//! router's; the server counts under `serve.*` ([`crate::stats::SERVE`])
//! in a private [`Registry`].
//!
//! Protection: the server sheds rather than degrades. Past
//! [`ServerConfig::max_connections`] a new connection gets one in-band
//! `ERR_BUSY` and is closed; past
//! [`ServerConfig::max_inflight_extractions`] a frame request that would
//! start a *new* extraction gets `ERR_BUSY` on its live connection
//! (cached and coalescing requests are always admitted). The door
//! isolates a panicking request, backs off a failing `accept(2)` and
//! drains in-flight replies at shutdown (`crate::frontdoor`).
//!
//! Read-ahead: the window is the origin that reads ahead. When a session
//! steps through the series, that session produces the successor —
//! page-in, extraction, and the encoding it will ask for — once the
//! current frame is written, while its client decodes and draws it,
//! counted under `serve.readahead_*`. The window vetoes a frame when the run's residency
//! budget cannot hold the particles of the current frame and the next
//! together, and, on a shard, a frame it holds no replica of.
//!
//! Scale-out: N of these servers can sit behind one
//! [`crate::router::FrameRouter`], all over one origin, each the
//! preferred owner of a rendezvous-hashed share of the catalog — clients
//! speak the identical protocol to the router and cannot tell the
//! difference (`crate::router`).

use crate::cache::{Served, DEFAULT_CACHE_BYTES};
use crate::frontdoor::{spawn_thread, FrontDoor};
use crate::protocol::{FrameInfo, Refusal, ERR_INTERNAL};
use crate::router::{invalid_input, ShardMap};
use crate::service::{FrameOrigin, ServiceConfig};
use crate::stats::{CounterNames, SERVE};
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_core::shard::ShardSpec;
use accelviz_octree::extraction::threshold_for_budget_tree;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::{Registry, Snapshot};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Byte budget of the shared frame cache: LRU by what each entry
    /// holds on admission, the frame plus the encoding its request's shape
    /// asked for ([`crate::cache::Served::held_bytes`]), with frames asked
    /// for once capped at a tenth of it
    /// ([`crate::cache::ONE_TOUCH_DIVISOR`]). The router weighs
    /// its cache the same way ([`crate::router::RouterConfig::cache_bytes`]),
    /// and both default to [`DEFAULT_CACHE_BYTES`]. 0 holds the newest
    /// frame only, which is what a shard behind a router is given
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

impl ServerConfig {
    /// The service a server runs under this config.
    pub(crate) fn service(&self) -> ServiceConfig {
        ServiceConfig {
            cache_bytes: self.cache_bytes,
            permits: self.max_inflight_extractions,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            max_connections: self.max_connections,
            spawn: spawn_thread,
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
    /// Whether a `Stats` reply over this origin carries the window's
    /// counters: false on shards 1.. of a layout, whose shared window
    /// shard 0 reports.
    reports_window: bool,
}

impl From<Vec<PartitionedData>> for Origin {
    fn from(data: Vec<PartitionedData>) -> Origin {
        Origin::from(Arc::new(ResidentRun::from_memory(data)))
    }
}

impl From<Arc<ResidentRun>> for Origin {
    fn from(run: Arc<ResidentRun>) -> Origin {
        Origin {
            run,
            owned: None,
            reports_window: true,
        }
    }
}

impl Origin {
    /// Spreads this origin over `shards` shards, each frame on
    /// `replication` of them: the [`ShardMap`] a router routes by
    /// ([`ShardMap::shared_replicated`]), and at index `s` shard `s`'s
    /// origin: the one window, read ahead where `s` holds a replica and
    /// reported by shard 0 alone, so a router's merged `Stats` counts it
    /// once.
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
            reports_window: s == 0,
        });
        let origins = origins.collect();
        Ok((map, origins))
    }
}

/// A server's frame origin: an [`Origin`] as its server's config serves
/// it.
pub(crate) struct Window {
    pub(crate) origin: Origin,
    pub(crate) config: ServerConfig,
}

impl FrameOrigin for Window {
    const NAMES: CounterNames = SERVE;
    const READS_AHEAD: bool = true;

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

    /// Frame `frame` extracted at `threshold` into the server's volume,
    /// from what the window holds of the frame's kept prefix and grid: it
    /// reads only what the window lacks, and never the particles the
    /// threshold discards.
    fn fetch(&self, frame: u32, threshold: f64) -> Result<Served, Refusal> {
        let run = &self.origin.run;
        let (extracted, _) = run
            .hybrid_frame(frame as usize, threshold, self.config.volume_dims)
            .map_err(|e| {
                let why = format!("run store failed loading frame {frame}: {e}");
                Refusal::new(ERR_INTERNAL, why)
            })?;
        Ok(Served::new(extracted))
    }

    /// Whether to read frame `next` ahead: this shard holds a replica of
    /// it, and the window can page it in beside its predecessor — the
    /// frame being served meanwhile — without evicting either. Both frames
    /// are charged their raw particle bytes, not their compact window
    /// entries: a cold page-in holds the whole frame while it bins the
    /// grid. A window seeded from memory is unbounded.
    fn reads_ahead(&self, next: u32) -> bool {
        let (run, next) = (&self.origin.run, next as usize);
        let current = (next + run.frame_count() - 1) % run.frame_count();
        let bytes = |i| run.particle_count(i).saturating_mul(BYTES_PER_PARTICLE);
        let room = bytes(current).saturating_add(bytes(next)) <= run.stats().budget_bytes;
        room && self.origin.owned.as_ref().is_none_or(|owned| owned[next])
    }

    /// The registry, plus a paged window's counters under their
    /// `store.resident_*` names, unless another shard of the layout
    /// reports them. A window seeded from memory never pages, so its
    /// server's reply is the registry alone.
    fn stats(&self, own: &Registry) -> Snapshot {
        let mut snapshot = own.snapshot();
        let run = &self.origin.run;
        if run.pages() && self.origin.reports_window {
            for (name, value) in run.stats().counters() {
                snapshot.counters.insert(name.to_string(), value);
            }
        }
        snapshot
    }
}

/// A running frame server: an acceptor, two workers that answer shed
/// connections, and one thread per admitted session, which also runs its
/// session's read-ahead. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the acceptor — woken by a connection
/// to its own address, so an *idle* server shuts down promptly too — and
/// drains in-flight replies for at most a second.
pub struct FrameServer {
    door: FrontDoor<Window>,
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
        let window = Window {
            origin: origin.into(),
            config,
        };
        let metrics = Arc::new(Registry::new());
        let door = FrontDoor::open(addr, window, metrics, config.service())?;
        Ok(FrameServer { door })
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

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.door.addr()
    }

    /// This server's private metrics registry, counting under
    /// [`crate::stats::SERVE`].
    pub fn metrics(&self) -> &Registry {
        &self.door.service().metrics
    }

    /// What a `Stats` reply from this server carries, read in process:
    /// its registry's snapshot, plus its run's residency counters
    /// ([`accelviz_store::ResidentStats::counters`]) when its window pages
    /// from a file and no other shard of its layout reports it.
    pub fn stats(&self) -> Snapshot {
        self.door.service().stats()
    }

    /// Stops accepting connections, joins the acceptor, and drains
    /// in-flight replies for at most a second. A session's read-ahead is
    /// no reply: it is not waited for, and none starts after the stop.
    pub fn shutdown(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
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
}
