//! The multi-client frame server.
//!
//! A [`FrameServer`] is the frame origin behind one `crate::frontdoor`:
//! one [`CoalescingCache`] of extractions and one per-server metrics
//! [`Registry`] (counters under the `serve.*` names in [`crate::stats`]).
//! The door owns the connection lifecycle and the protocol — one
//! acceptor thread, one session thread per admitted connection running a
//! strict request/reply loop, one dispatcher answering every request.
//! The server owns the *partitioned* data — the density-sorted stores
//! produced by preprocessing — and extracts hybrid frames on demand at
//! whatever threshold a client dials, which is exactly the paper's
//! split: preprocessing near the simulation, compact hybrid frames
//! shipped to the desktop.
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
//! Scale-out: N of these servers can sit behind one
//! [`crate::router::FrameRouter`], each owning a rendezvous-hashed slice
//! of the catalog — clients speak the identical protocol to the router
//! and cannot tell the difference (`crate::router`).

use crate::cache::{CacheKey, CoalescingCache, Fetched, Lookup};
use crate::fault::FaultScript;
use crate::frontdoor::{CountGuard, CounterNames, DoorConfig, FrontDoor, Handler};
use crate::protocol::{FrameInfo, Refusal, ERR_BUSY, ERR_INTERNAL};
use crate::stats::{
    ServerStats, CTR_ACCEPT_ERRORS, CTR_BYTES_SENT, CTR_CACHE_HITS, CTR_CACHE_MISSES,
    CTR_FRAMES_SERVED, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_HANDLER_PANICS,
    CTR_LOD_BYTES_WIRE, CTR_LOD_CHUNKS, CTR_LOD_REQUESTS, CTR_REQUESTS, CTR_SHED_CONNECTIONS,
    CTR_SHED_EXTRACTIONS, HIST_LATENCY,
};
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::extraction::{threshold_for_budget, threshold_for_budget_tree};
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::Registry;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Extractions the shared cache holds.
    pub cache_capacity: usize,
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
            cache_capacity: 8,
            volume_dims: [16, 16, 16],
            point_budget: 1_000,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
            max_inflight_extractions: 8,
        }
    }
}

/// Where the server's frames live: fully resident in memory (the
/// original topology — every partitioned store loaded up front), or
/// backed by an on-disk run whose particle data pages in and out under
/// [`ResidentRun`]'s byte budget. The frame origin is written against
/// this enum, so an out-of-core server serves bit-identical frames.
enum Backend {
    /// Every frame's partitioned store held in memory.
    Resident(Vec<PartitionedData>),
    /// Frames fetched on demand from an `accelviz-store` run file.
    Stored(Arc<ResidentRun>),
}

impl Backend {
    fn frame_count(&self) -> usize {
        match self {
            Backend::Resident(data) => data.len(),
            Backend::Stored(run) => run.frame_count(),
        }
    }

    /// The frame catalog. The stored backend answers from directory
    /// metadata and the always-resident octrees — no particle I/O.
    fn frame_infos(&self, point_budget: usize) -> Vec<FrameInfo> {
        match self {
            Backend::Resident(data) => data
                .iter()
                .enumerate()
                .map(|(i, d)| FrameInfo {
                    frame: i as u32,
                    step: i as u64,
                    particles: d.particles().len() as u64,
                    default_threshold: threshold_for_budget(d, point_budget),
                })
                .collect(),
            Backend::Stored(run) => (0..run.frame_count())
                .map(|i| FrameInfo {
                    frame: i as u32,
                    step: i as u64,
                    particles: run.particle_count(i),
                    default_threshold: threshold_for_budget_tree(&run.tree(i).0, point_budget),
                })
                .collect(),
        }
    }
}

/// The state every session of one server shares.
struct Shared {
    backend: Backend,
    config: ServerConfig,
    cache: CoalescingCache,
    metrics: Registry,
    building_extractions: AtomicUsize,
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
        self.backend.frame_count()
    }

    fn catalog(&self) -> Vec<FrameInfo> {
        self.backend.frame_infos(self.config.point_budget)
    }

    fn frame(&self, frame: u32, threshold: f64) -> Fetched {
        let mut span = accelviz_trace::span("serve.extract");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let key = CacheKey::new(frame, threshold);
        let (fetched, lookup) = self
            .cache
            .get_or_fetch(key, || self.extract(frame, threshold));
        span.arg("cache_hit", (lookup != Lookup::Fetched) as u64 as f64);
        // A refusal served nothing: it is counted where it was refused
        // (`serve.shed_extractions`), never as a hit or a miss.
        if fetched.is_ok() {
            let served_from = match lookup {
                Lookup::Fetched => CTR_CACHE_MISSES,
                Lookup::Hit | Lookup::Coalesced => CTR_CACHE_HITS,
            };
            self.metrics.add(served_from, 1);
        }
        fetched
    }

    fn stats(&self) -> ServerStats {
        ServerStats::from_registry(&self.metrics)
    }
}

impl Shared {
    /// The cache's fetch: one fresh extraction. It runs on a miss only,
    /// so load shedding and the stored backend's page-in never touch a
    /// request the cache can answer or coalesce — those are cheap and
    /// always admitted, and serving them must not churn the residency
    /// window.
    fn extract(&self, frame: u32, threshold: f64) -> Fetched {
        let Some(_permit) = try_extraction_permit(self) else {
            self.metrics.add(CTR_SHED_EXTRACTIONS, 1);
            return Err(Refusal::new(
                ERR_BUSY,
                "extraction capacity reached; retry after ~100 ms",
            ));
        };
        let (index, dims) = (frame as usize, self.config.volume_dims);
        let extracted = match &self.backend {
            Backend::Resident(data) => {
                HybridFrame::from_partition(&data[index], index, threshold, dims)
            }
            Backend::Stored(run) => {
                let paged_in = run.fetch(index).map_err(|e| {
                    let why = format!("run store failed loading frame {frame}: {e}");
                    Refusal::new(ERR_INTERNAL, why)
                })?;
                HybridFrame::from_partition(&paged_in.data, index, threshold, dims)
            }
        };
        Ok(Arc::new(extracted))
    }
}

/// A running frame server. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the acceptor — woken by a connection
/// to its own address, so an *idle* server shuts down promptly too — then
/// drains in-flight replies for at most a second.
pub struct FrameServer {
    door: FrontDoor<Shared>,
}

impl FrameServer {
    /// Binds a loopback server on an OS-assigned port — the test and
    /// example topology. The partitioned stores are served in index
    /// order; frame `i`'s step is `i`.
    pub fn spawn_loopback(
        data: Vec<PartitionedData>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn("127.0.0.1:0", data, config)
    }

    /// Binds `addr` and starts accepting clients.
    pub fn spawn(
        addr: &str,
        data: Vec<PartitionedData>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, Backend::Resident(data), config, None)
    }

    /// Binds a loopback server over an out-of-core run: frames come from
    /// `run`'s disk file and only [`ResidentRun`]'s budget worth of
    /// particle data is ever in memory.
    pub fn spawn_stored_loopback(
        run: Arc<ResidentRun>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_stored("127.0.0.1:0", run, config)
    }

    /// Binds `addr` over an out-of-core run backend.
    pub fn spawn_stored(
        addr: &str,
        run: Arc<ResidentRun>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, Backend::Stored(run), config, None)
    }

    /// A loopback server whose every connection is faulted by `script` —
    /// the server-side chaos hook. Only tests call this; [`spawn`] never
    /// wraps streams.
    ///
    /// [`spawn`]: FrameServer::spawn
    pub fn spawn_chaos(
        data: Vec<PartitionedData>,
        config: ServerConfig,
        script: Arc<FaultScript>,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner("127.0.0.1:0", Backend::Resident(data), config, Some(script))
    }

    fn spawn_inner(
        addr: &str,
        backend: Backend,
        config: ServerConfig,
        faults: Option<Arc<FaultScript>>,
    ) -> io::Result<FrameServer> {
        let shared = Arc::new(Shared {
            backend,
            config,
            cache: CoalescingCache::new(config.cache_capacity as u64, |_| 1),
            metrics: Registry::new(),
            building_extractions: AtomicUsize::new(0),
        });
        let door = FrontDoor::open(
            addr,
            shared,
            DoorConfig {
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                max_connections: config.max_connections,
                faults,
            },
        )?;
        Ok(FrameServer { door })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.door.addr()
    }

    /// A local snapshot of the statistics (the same data a client gets
    /// from a `Stats` request).
    pub fn stats(&self) -> ServerStats {
        self.door.handler().stats()
    }

    /// This server's private metrics registry — the source the wire
    /// `Stats` snapshot is assembled from. Exposed so tests (and embedding
    /// applications) can assert on individual counters.
    pub fn metrics(&self) -> &Registry {
        &self.door.handler().metrics
    }

    /// Stops accepting connections, joins the acceptor, and drains
    /// in-flight replies for at most a second.
    pub fn shutdown(mut self) {
        self.door.close();
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

    #[test]
    fn extraction_permits_are_bounded_and_returned() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let shared = Shared {
            backend: Backend::Resident(Vec::new()),
            config,
            cache: CoalescingCache::new(2, |_| 1),
            metrics: Registry::new(),
            building_extractions: AtomicUsize::new(0),
        };
        let a = try_extraction_permit(&shared);
        let b = try_extraction_permit(&shared);
        assert!(a.is_some() && b.is_some());
        assert!(try_extraction_permit(&shared).is_none(), "limit is 2");
        drop(a);
        assert!(
            try_extraction_permit(&shared).is_some(),
            "a dropped permit frees a slot"
        );
    }
}
