//! The multi-client frame server.
//!
//! A [`FrameServer`] is the state behind one `crate::frontdoor`: one
//! [`ExtractionCache`], one per-server metrics [`Registry`] (counters
//! under the `serve.*` names in [`crate::stats`]), and the `respond`
//! request handler. The door owns the connection lifecycle — one
//! acceptor thread, one session thread per admitted connection running a
//! strict request/reply loop. The server owns the *partitioned* data —
//! the density-sorted stores produced by preprocessing — and extracts
//! hybrid frames on demand at whatever threshold a client dials, which
//! is exactly the paper's split: preprocessing near the simulation,
//! compact hybrid frames shipped to the desktop.
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
//! wakes the acceptor deterministically through a self-pipe and drains
//! in-flight replies (for at most a second) before returning.
//!
//! Scale-out: N of these servers can sit behind one
//! [`crate::router::FrameRouter`], each owning a rendezvous-hashed slice
//! of the catalog — clients speak the identical protocol to the router
//! and cannot tell the difference (`crate::router`).

use crate::cache::{CacheKey, ExtractionCache, Probe};
use crate::fault::FaultScript;
use crate::frontdoor::{CountGuard, CounterNames, DoorConfig, FrontDoor, Handler};
use crate::protocol::{
    write_response_v, FrameInfo, Request, Response, ERR_BAD_REQUEST, ERR_BAD_THRESHOLD, ERR_BUSY,
    ERR_INTERNAL, ERR_NO_SUCH_FRAME, RESP_FRAME,
};
use crate::stats::{
    ServerStats, CTR_ACCEPT_ERRORS, CTR_BYTES_SENT, CTR_CACHE_HITS, CTR_CACHE_MISSES,
    CTR_FRAMES_SERVED, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_HANDLER_PANICS,
    CTR_LOD_BYTES_WIRE, CTR_LOD_CHUNKS, CTR_LOD_REQUESTS, CTR_REQUESTS, CTR_SHED_CONNECTIONS,
    CTR_SHED_EXTRACTIONS, HIST_LATENCY,
};
use crate::wire::{encode_frame, encode_frame_v2, write_envelope_v, V2, VERSION};
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::extraction::{threshold_for_budget, threshold_for_budget_tree};
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::Registry;
use std::io::{self, Write};
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
/// [`ResidentRun`]'s byte budget. The request handlers are written
/// against this enum, so an out-of-core server speaks the identical
/// protocol and serves bit-identical frames.
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
    cache: ExtractionCache,
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
        let _span = accelviz_trace::span("serve.request");
        respond(self, req, stream, session_version)
    }
}

/// A running frame server. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the acceptor — woken
/// deterministically through a self-pipe, so an *idle* server shuts down
/// promptly too — then drains in-flight replies for at most a second.
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
            cache: ExtractionCache::new(config.cache_capacity),
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
    /// from [`Request::Stats`]).
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_registry(self.metrics())
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

/// Serves one request; returns (wire bytes written, was a frame reply).
/// `session_version` is the connection's negotiated protocol version —
/// `Hello` updates it, every reply is framed with it.
fn respond<S: Write>(
    shared: &Shared,
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
                // Speak the older of the two sides: a v1 client keeps its
                // byte-identical session, a v2 (or future) client gets
                // the newest encoding this build knows.
                let negotiated = version.min(VERSION);
                *session_version = negotiated;
                Response::HelloAck {
                    version: negotiated,
                    frame_count: shared.backend.frame_count() as u32,
                }
            };
            Ok((write_response_v(stream, *session_version, &reply)?, false))
        }
        Request::ListFrames => {
            let frames = shared.backend.frame_infos(shared.config.point_budget);
            Ok((
                write_response_v(stream, *session_version, &Response::FrameList(frames))?,
                false,
            ))
        }
        Request::RequestFrame { frame, threshold } => {
            let extracted = match acquire_frame(shared, frame, threshold, stream, *session_version)?
            {
                Ok(frame) => frame,
                Err(reply_written) => return Ok(reply_written),
            };
            // Encode straight from the cached Arc — no frame clone. The
            // session version picks the payload encoding; both are
            // counted so the stats expose the live compression ratio.
            let bytes = {
                let mut span = accelviz_trace::span("serve.send");
                let (payload, raw_len) = if *session_version >= V2 {
                    encode_frame_v2(&extracted)
                } else {
                    let payload = encode_frame(&extracted);
                    let raw_len = payload.len() as u64;
                    (payload, raw_len)
                };
                shared.metrics.add(CTR_FRAME_BYTES_RAW, raw_len);
                shared
                    .metrics
                    .add(CTR_FRAME_BYTES_WIRE, payload.len() as u64);
                let bytes = write_envelope_v(stream, *session_version, RESP_FRAME, &payload)?;
                span.arg("bytes", bytes as f64);
                bytes
            };
            Ok((bytes, true))
        }
        Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        } => {
            // The chunk records ride v2 envelopes and splice back into a
            // frame the v2 trailer can verify; a v1 session has neither,
            // so the request is a protocol error there — and pre-v2
            // clients never send it, keeping their byte streams frozen.
            if *session_version < V2 {
                let reply = Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: "progressive streaming requires a v2 session; \
                              send Hello with version >= 2 first"
                        .to_string(),
                };
                return Ok((write_response_v(stream, *session_version, &reply)?, false));
            }
            let extracted = match acquire_frame(shared, frame, threshold, stream, *session_version)?
            {
                Ok(frame) => frame,
                Err(reply_written) => return Ok(reply_written),
            };
            // Same cache entry as a plain fetch — a progressive and a
            // full request for the same (frame, threshold) coalesce on
            // one extraction; only the wire shape differs from here on.
            let records = {
                let mut span = accelviz_trace::span("serve.lod_send");
                let records = crate::lod::plan_frame_chunks(
                    &extracted,
                    crate::lod::chunk_budget(chunk_bytes),
                );
                span.arg("chunks", records.len() as f64);
                records
            };
            let mut bytes = 0u64;
            for record in &records {
                bytes += crate::protocol::write_chunk(stream, record)?;
            }
            shared.metrics.add(CTR_LOD_REQUESTS, 1);
            shared.metrics.add(CTR_LOD_CHUNKS, records.len() as u64);
            shared.metrics.add(CTR_LOD_BYTES_WIRE, bytes);
            Ok((bytes, true))
        }
        Request::Stats => {
            let snapshot = ServerStats::from_registry(&shared.metrics);
            Ok((
                write_response_v(stream, *session_version, &Response::Stats(snapshot))?,
                false,
            ))
        }
    }
}

/// The shared admission-and-build path behind both frame request kinds:
/// validates the threshold and frame index, applies extraction-limit
/// shedding, pages the frame in on the stored backend, and resolves the
/// extraction through the cache. On a policy failure the in-band error
/// reply is already written and the inner `Err` carries `respond`'s
/// return value for it; the outer `Err` is a dead client connection.
fn acquire_frame<S: Write>(
    shared: &Shared,
    frame: u32,
    threshold: f64,
    stream: &mut S,
    session_version: u16,
) -> crate::error::Result<std::result::Result<Arc<HybridFrame>, (u64, bool)>> {
    if threshold.is_nan() {
        // NaN has no place in the density order: extraction's
        // partition_point would silently return an empty prefix,
        // and the many NaN bit patterns would each occupy their
        // own cache slot. Reject in-band. (±Inf stay valid dials:
        // +Inf is the catalog's own "serve everything" sentinel,
        // -Inf is an empty extraction.)
        let reply = Response::Error {
            code: ERR_BAD_THRESHOLD,
            message: format!("threshold must not be NaN, got {threshold}"),
        };
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    if frame as usize >= shared.backend.frame_count() {
        let reply = Response::Error {
            code: ERR_NO_SUCH_FRAME,
            message: format!(
                "frame {frame} requested, {} available",
                shared.backend.frame_count()
            ),
        };
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    let key = CacheKey::new(frame, threshold);
    // Load shedding at the extraction limit: only requests that
    // would start a *new* extraction are shed — cached frames and
    // coalescing waiters are cheap and always admitted. The probe
    // is advisory (the entry may change before get_or_build), so
    // the limit is a strong bound, not a hard invariant.
    let probe = shared.cache.probe(&key);
    let _permit = match probe {
        Probe::Vacant => match try_extraction_permit(shared) {
            Some(p) => Some(p),
            None => {
                shared.metrics.add(CTR_SHED_EXTRACTIONS, 1);
                let reply = Response::Error {
                    code: ERR_BUSY,
                    message: "extraction capacity reached; retry after ~100 ms".to_string(),
                };
                return Ok(Err((
                    write_response_v(stream, session_version, &reply)?,
                    false,
                )));
            }
        },
        Probe::Ready | Probe::Building => None,
    };
    // The stored backend pages the frame's particles in *before*
    // committing to build, so a disk failure is an in-band
    // ERR_INTERNAL instead of a panic. A Ready probe skips the
    // fetch — serving a cached extraction must not churn the
    // residency window.
    let part: Option<Arc<PartitionedData>> = match &shared.backend {
        Backend::Stored(run) if probe != Probe::Ready => match run.fetch(frame as usize) {
            Ok(fetch) => Some(fetch.data),
            Err(e) => {
                let reply = Response::Error {
                    code: ERR_INTERNAL,
                    message: format!("run store failed loading frame {frame}: {e}"),
                };
                return Ok(Err((
                    write_response_v(stream, session_version, &reply)?,
                    false,
                )));
            }
        },
        _ => None,
    };
    let (extracted, hit) = {
        let mut span = accelviz_trace::span("serve.extract");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let (extracted, hit) = shared
            .cache
            .get_or_build(CacheKey::new(frame, threshold), || {
                build_frame(shared, part.as_deref(), frame as usize, threshold)
            });
        span.arg("cache_hit", hit as u64 as f64);
        (extracted, hit)
    };
    shared.metrics.add(
        if hit {
            CTR_CACHE_HITS
        } else {
            CTR_CACHE_MISSES
        },
        1,
    );
    Ok(Ok(extracted))
}

/// Builds one frame for the extraction cache. `part` is the paged-in
/// partition for the stored backend (`None` for the resident backend, or
/// in the rare race where a Ready probe was evicted before the build —
/// then the fetch reruns here, and a disk failure panics into the
/// handler's isolation instead of silently serving nothing).
fn build_frame(
    shared: &Shared,
    part: Option<&PartitionedData>,
    frame: usize,
    threshold: f64,
) -> HybridFrame {
    let dims = shared.config.volume_dims;
    match (&shared.backend, part) {
        (Backend::Resident(data), _) => {
            HybridFrame::from_partition(&data[frame], frame, threshold, dims)
        }
        (Backend::Stored(_), Some(p)) => HybridFrame::from_partition(p, frame, threshold, dims),
        (Backend::Stored(run), None) => {
            let fetch = run
                .fetch(frame)
                .unwrap_or_else(|e| panic!("run store failed loading frame {frame}: {e}"));
            HybridFrame::from_partition(&fetch.data, frame, threshold, dims)
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
            cache: ExtractionCache::new(2),
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
