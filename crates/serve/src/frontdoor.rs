//! The one front door: open, accept loop, admission, session loop,
//! protocol dispatch and stop.
//!
//! [`crate::server::FrameServer`] and [`crate::router::FrameRouter`] are
//! one [`Service`] over two origins, and each runs it behind a
//! [`FrontDoor`], which owns everything between the listening socket and
//! the service's frames:
//!
//! - **Accept.** One thread blocks in `accept`; repeated failures (fd
//!   exhaustion) are counted and cooled down with [`AcceptBackoff`]
//!   instead of hot-spinning. The door's threads are `<role>-accept`,
//!   `-session` and `-shed` ([`spawn_thread`]); the service starts none.
//! - **Admission.** One OS thread per admitted connection, at most
//!   [`ServiceConfig::max_connections`] of them. Past the cap — or when the
//!   OS refuses a thread — the arrival is counted and handed to a small
//!   bounded pool that answers one in-band `ERR_BUSY` and closes, so a
//!   connect flood cannot mint threads.
//! - **Session.** Read request → shutdown check → in-flight guard →
//!   `catch_unwind(dispatch)` → counters → latency histogram → the
//!   request's read-ahead, if it stepped. A panicking request costs its
//!   client one `ERR_INTERNAL`; the connection and the listener survive.
//!   Malformed framing gets `ERR_BAD_REQUEST`, then a close (stream sync
//!   is gone).
//! - **Protocol.** [`dispatch`] is the only code that answers a
//!   [`Request`]: the version check, validation, one send path per reply
//!   shape (each ships what the cached [`Served`] entry holds), the chunk
//!   loop, and the byte counters and spans
//!   that go with them — so a client cannot tell a router from a server,
//!   by construction.
//! - **Read-ahead.** The door sees each session's request stream, so it
//!   is the one place that can tell a viewer is stepping: a frame request
//!   for `n` that follows one for `n − 1` at the same threshold leaves a
//!   [`ReadAhead`] hint for `n + 1` in its session, which runs it
//!   ([`Service::read_ahead`]) once `n` is written and counted, outside
//!   the in-flight guard, before it reads again.
//! - **Stop.** Flag, unpark, one connection to the door's own address
//!   (so a blocked `accept` returns and sees the flag), join the
//!   acceptor, then wait (bounded by [`DRAIN_TIMEOUT`]) for replies
//!   already being computed or written — not for a read-ahead, which a
//!   session that sees the flag no longer starts.

use crate::cache::{CacheKey, Fetched, Served};
use crate::error::ServeError;
use crate::lod::chunk_budget;
use crate::protocol::{
    read_request, write_response, Refusal, Request, Response, ERR_BAD_REQUEST, ERR_BAD_THRESHOLD,
    ERR_BUSY, ERR_INTERNAL, ERR_NO_SUCH_FRAME,
};
use crate::service::{FrameOrigin, Service, ServiceConfig};
use crate::wire::V2;
use accelviz_trace::registry::Registry;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`FrontDoor::close`] waits for in-flight replies to finish.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// Bound on [`FrontDoor::close`]'s connection to its own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The in-band message a shed connection gets with its `ERR_BUSY`.
const SHED_CONNECTION_MSG: &str = "server at connection capacity; retry after ~100 ms";

/// How a door, a router or a remote source starts a thread named for its
/// role: [`spawn_thread`] in production; a test passes one that refuses,
/// which is how the OS under `pids.max` / `RLIMIT_NPROC` behaves and
/// `std::thread::spawn` would panic on. A refused session or speculation
/// thread costs that connection or that speculation (`RemoteFrames` keeps
/// its connection); a refused prober fails the router's spawn, which has
/// no other way to reinstate a shard.
pub(crate) type Spawn = fn(&'static str, Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>;

/// The production [`Spawn`] and the crate's one thread builder: `body`
/// runs on a thread named `role`, which must fit Linux's 15 bytes.
pub(crate) fn spawn_thread(
    role: &'static str,
    body: Box<dyn FnOnce() + Send>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(role.to_owned())
        .spawn(body)
}

/// The reply shape a frame request asked for — what a read-ahead should
/// have encoded by the time the session asks for the successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// One full frame.
    Plain,
    /// The chunked stream under the request's `chunk_bytes`.
    Progressive { chunk_bytes: u64 },
}

/// A stepping session's probable next request: frame `frame` at
/// `threshold`, to be sent as `shape`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ReadAhead {
    pub(crate) frame: u32,
    pub(crate) threshold: f64,
    pub(crate) shape: Shape,
}

/// Decrements a shared gauge on drop, panic or not.
pub(crate) struct CountGuard<'a>(pub(crate) &'a AtomicUsize);

impl<'a> CountGuard<'a> {
    fn enter(gauge: &'a AtomicUsize) -> CountGuard<'a> {
        gauge.fetch_add(1, Ordering::SeqCst);
        CountGuard(gauge)
    }
}

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the acceptor, the shed pool and every session thread share.
struct Door<O> {
    service: Service<O>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    inflight_requests: AtomicUsize,
}

/// A running service: a bound, accepting listener and the service behind
/// it. Dropping it (or calling [`FrontDoor::close`]) stops both.
pub(crate) struct FrontDoor<O: FrameOrigin> {
    door: Arc<Door<O>>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl<O: FrameOrigin> FrontDoor<O> {
    /// Binds `addr` and starts serving `origin`'s frames, counting into
    /// `metrics`.
    pub(crate) fn open(
        addr: &str,
        origin: O,
        metrics: Arc<Registry>,
        config: ServiceConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let door = Arc::new(Door {
            service: Service::new(origin, metrics, config),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            inflight_requests: AtomicUsize::new(0),
        });
        let acceptor = Arc::clone(&door);
        let accept = Box::new(move || accept_loop(acceptor, listener));
        let accept = spawn_thread(O::NAMES.thread_accept, accept)?;
        Ok(FrontDoor {
            door,
            addr,
            accept: Some(accept),
        })
    }

    /// The address clients connect to.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the door.
    pub(crate) fn service(&self) -> &Service<O> {
        &self.door.service
    }

    /// Stops accepting, joins the acceptor, and lets replies already being
    /// computed or written reach their clients (bounded by
    /// [`DRAIN_TIMEOUT`]). Requests that arrive after the flag is up are
    /// dropped at the request boundary, and no read-ahead starts after it.
    /// Idempotent.
    pub(crate) fn close(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.stop_accepting(accept);
        }
    }

    fn stop_accepting(&self, accept: JoinHandle<()>) {
        self.door.shutdown.store(true, Ordering::SeqCst);
        // The acceptor is in one of two waits and each gets its wake, so
        // an idle door stops now, not at the next connection. An error
        // cooldown ends at the unpark. A blocked `accept` returns the
        // connection below, which the loop drops on seeing the flag; if
        // that connection cannot be made the process is out of fds, so
        // `accept` is failing fast as well and the unpark reaches it.
        accept.thread().unpark();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
        let _ = accept.join();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.door.inflight_requests.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl<O: FrameOrigin> Drop for FrontDoor<O> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The bounded pool that answers shed connections: a fixed worker count
/// and a bounded queue, so the cap being enforced cannot be defeated by
/// a thread per shed socket. When the queue overflows the connection is
/// dropped (the shed was already counted, and under a real flood a
/// silent close is the correct degraded answer).
struct ShedPool {
    tx: Option<mpsc::SyncSender<TcpStream>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShedPool {
    const WORKERS: usize = 2;
    const QUEUE: usize = 32;
    /// Cap on how long a shed worker waits for the client's Hello (a
    /// real client sends it immediately); keeps a mute flood from
    /// pinning the pool and bounds how long stop can block on it.
    const MAX_WAIT: Duration = Duration::from_secs(1);

    fn start<O: FrameOrigin>(door: &Arc<Door<O>>) -> ShedPool {
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(Self::QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..Self::WORKERS)
            .filter_map(|_| {
                let rx = Arc::clone(&rx);
                let door = Arc::clone(door);
                // A refused worker thread only thins the pool: offers
                // still queue for the workers that did start, or drop.
                let worker = Box::new(move || loop {
                    let next = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    let Ok(stream) = next else { break };
                    if door.shutdown.load(Ordering::SeqCst) {
                        continue; // stopping: just close it
                    }
                    answer_shed(&door.service.config, stream);
                });
                spawn_thread(O::NAMES.thread_shed, worker).ok()
            })
            .collect();
        ShedPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Hands a shed connection to the pool; drops it (closing the
    /// socket) when the queue is full.
    fn offer(&self, stream: TcpStream) {
        if let Some(tx) = &self.tx {
            let _ = tx.try_send(stream);
        }
    }
}

impl Drop for ShedPool {
    fn drop(&mut self) {
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Answers one shed connection in-band: consume the client's first
/// request (its Hello) so the close after the reply is clean — closing
/// with unread inbound data would RST the socket and the client would
/// never see the reply — then send `ERR_BUSY` and drop the stream.
fn answer_shed(config: &ServiceConfig, mut stream: TcpStream) {
    let cap = |t: Option<Duration>| Some(t.unwrap_or(ShedPool::MAX_WAIT).min(ShedPool::MAX_WAIT));
    let _ = stream.set_read_timeout(cap(config.read_timeout));
    let _ = stream.set_write_timeout(cap(config.write_timeout));
    let _ = read_request(&mut stream);
    let _ = write_response(
        &mut stream,
        &Response::Error {
            code: ERR_BUSY,
            message: SHED_CONNECTION_MSG.to_string(),
        },
    );
}

/// Admits one accepted connection onto its own session thread, or sheds
/// it: at the connection cap, and when the OS refuses the thread (EAGAIN
/// under `pids.max` / `RLIMIT_NPROC`) — `std::thread::spawn` would panic
/// there and take the acceptor with it, hence [`ServiceConfig::spawn`].
fn admit<O: FrameOrigin>(door: &Arc<Door<O>>, shed: &ShedPool, stream: TcpStream) {
    let shed_connections = O::NAMES.shed_connections;
    if door.active_connections.load(Ordering::SeqCst) >= door.service.config.max_connections {
        door.service.metrics.add(shed_connections, 1);
        shed.offer(stream);
        return;
    }
    door.active_connections.fetch_add(1, Ordering::SeqCst);
    // The stream rides in a slot so a refused spawn, which drops its
    // closure, still leaves it here to be answered.
    let slot = Arc::new(Mutex::new(Some(stream)));
    let (session_door, session_slot) = (Arc::clone(door), Arc::clone(&slot));
    let body = Box::new(move || {
        let _guard = CountGuard(&session_door.active_connections);
        let stream = session_slot.lock().ok().and_then(|mut s| s.take());
        if let Some(stream) = stream {
            serve_connection(&session_door, stream);
        }
    });
    let spawned = (door.service.config.spawn)(O::NAMES.thread_session, body);
    if spawned.is_err() {
        door.active_connections.fetch_sub(1, Ordering::SeqCst);
        door.service.metrics.add(shed_connections, 1);
        if let Some(stream) = slot.lock().ok().and_then(|mut s| s.take()) {
            shed.offer(stream);
        }
    }
}

/// Exponential backoff for a failing accept loop.
///
/// `accept(2)` failing is not like a connection failing: the listener is
/// shared, the error usually reflects process-wide pressure (EMFILE,
/// ENFILE, ENOBUFS), and the naive `continue` turns the accept thread
/// into a 100%-CPU spin until the pressure clears. Each consecutive
/// failure doubles the pause (from [`AcceptBackoff::FIRST`] up to
/// [`AcceptBackoff::MAX`]); any successful accept resets it.
#[derive(Default)]
struct AcceptBackoff {
    consecutive_errors: u32,
}

impl AcceptBackoff {
    /// Pause after the first failure.
    const FIRST: Duration = Duration::from_millis(1);
    /// Ceiling on the pause, however long the error streak.
    const MAX: Duration = Duration::from_millis(100);

    /// Records one accept failure; returns how long to pause before
    /// retrying.
    fn on_error(&mut self) -> Duration {
        let shift = self.consecutive_errors.min(16);
        self.consecutive_errors = self.consecutive_errors.saturating_add(1);
        Self::FIRST.saturating_mul(1u32 << shift).min(Self::MAX)
    }

    /// Records a successful accept, resetting the schedule.
    fn on_success(&mut self) {
        self.consecutive_errors = 0;
    }
}

/// The accept loop: block in `accept`, look at the stop flag, admit. The
/// connection [`FrontDoor::close`] makes to end the block is dropped at
/// the flag, before admission, so it is neither a session nor a shed.
fn accept_loop<O: FrameOrigin>(door: Arc<Door<O>>, listener: TcpListener) {
    let shed = ShedPool::start(&door);
    let mut backoff = AcceptBackoff::default();
    loop {
        let accepted = listener.accept();
        if door.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                backoff.on_success();
                admit(&door, &shed, stream);
            }
            Err(_) => {
                // EMFILE and friends: count it and cool down instead of
                // hot-spinning on a failing accept. `close` unparks.
                door.service.metrics.add(O::NAMES.accept_errors, 1);
                std::thread::park_timeout(backoff.on_error());
            }
        }
    }
    // ShedPool::drop joins its workers (bounded by MAX_WAIT).
}

fn serve_connection<O: FrameOrigin>(door: &Door<O>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A stalled or byte-dribbling client must not pin this thread
    // forever: a timed-out read/write surfaces as an Io error in the
    // session and the connection is dropped.
    let _ = stream.set_read_timeout(door.service.config.read_timeout);
    let _ = stream.set_write_timeout(door.service.config.write_timeout);
    session(door, stream);
}

/// What one connection's requests leave behind for its next one.
#[derive(Default)]
struct Session {
    /// The session's last frame request (plain or progressive), unless
    /// it was malformed: what the next one is a successor of, or not.
    last_frame: Option<CacheKey>,
    /// The read-ahead the request being answered asks for, when it
    /// stepped: run once its reply is written, before the next read.
    hint: Option<ReadAhead>,
}

/// The frame a session that asked for `last` and now asks for `now` will
/// probably ask for next: `now + 1` when `now` is `last + 1` at the same
/// threshold, indices modulo the catalog (a looping playback steps from
/// the last frame to frame 0). Forward, stride 1 only. The one read-ahead
/// rule on both sides of the link: the door hints its origin with it, and
/// [`crate::client::RemoteFrames`] speculates with it.
pub(crate) fn successor(last: Option<CacheKey>, now: CacheKey, frame_count: usize) -> Option<u32> {
    let count = u32::try_from(frame_count).ok().filter(|&count| count > 1)?;
    let last = last.filter(|last| last.threshold_bits == now.threshold_bits)?;
    ((last.frame + 1) % count == now.frame).then_some((now.frame + 1) % count)
}

/// One connection's strict request/reply loop. A request that stepped is
/// followed by its read-ahead, while the client decodes and draws.
fn session<O: FrameOrigin, S: Read + Write>(door: &Door<O>, mut stream: S) {
    let metrics = &door.service.metrics;
    let mut session = Session::default();
    loop {
        let req = match read_request(&mut stream) {
            Ok(req) => req,
            // A clean disconnect shows up as EOF at an envelope boundary.
            Err(ServeError::Truncated { got: 0, .. }) | Err(ServeError::Io(_)) => return,
            Err(e) => {
                // Malformed framing: answer in-band, then drop the
                // connection — stream sync is gone.
                let reply = Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                };
                let _ = write_response(&mut stream, &reply);
                return;
            }
        };
        // Graceful stop: requests already being processed drain to their
        // replies, but nothing *new* is admitted once the flag is up.
        if door.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let t0 = Instant::now();
        let inflight = CountGuard::enter(&door.inflight_requests);
        // Panic isolation: a poisoned request must not take the
        // connection (let alone the listener) down with it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(&door.service, req, &mut stream, &mut session)
        }));
        let (bytes, served_frame) = match outcome {
            Ok(Ok(r)) => r,
            Ok(Err(_)) => return, // client went away mid-reply
            Err(_panic) => {
                metrics.add(O::NAMES.handler_panics, 1);
                let reply = Response::Error {
                    code: ERR_INTERNAL,
                    message: "internal error serving this request; the connection survives"
                        .to_string(),
                };
                match write_response(&mut stream, &reply) {
                    Ok(bytes) => (bytes, false),
                    Err(_) => return,
                }
            }
        };
        metrics.add(O::NAMES.requests, 1);
        metrics.add(O::NAMES.bytes_sent, bytes);
        if served_frame {
            metrics.add(O::NAMES.frames_served, 1);
        }
        metrics.record_seconds(O::NAMES.latency, t0.elapsed().as_secs_f64());
        // The reply is out: what follows is no request `close` drains.
        drop(inflight);
        if let Some(hint) = session.hint.take() {
            if !door.shutdown.load(Ordering::SeqCst) {
                door.service.read_ahead(hint);
            }
        }
    }
}

/// Answers one request from `service`'s frames; returns (wire bytes
/// written, was a frame reply). An `Err` means the client went away
/// mid-reply.
fn dispatch<O: FrameOrigin, S: Write>(
    service: &Service<O>,
    req: Request,
    stream: &mut S,
    session: &mut Session,
) -> crate::error::Result<(u64, bool)> {
    let _span = accelviz_trace::span(O::NAMES.span_request);
    let reply = match req {
        // Every reply is framed at v2 from the first byte; a client
        // that cannot speak it is told so in-band and may say Hello again.
        Request::Hello { version } if version < V2 => Response::from(Refusal::new(
            ERR_BAD_REQUEST,
            format!("protocol version 2 required, client sent {version}"),
        )),
        Request::Hello { .. } => Response::HelloAck {
            version: V2,
            frame_count: service.origin.frame_count() as u32,
        },
        Request::ListFrames => Response::FrameList(service.origin.catalog()),
        Request::Stats => Response::Stats(service.origin.stats(&service.metrics)),
        Request::RequestFrame { frame, threshold } => {
            match checked_frame(service, session, frame, threshold, Shape::Plain) {
                Ok(served) => return send_frame(service, &served, stream),
                Err(refusal) => refusal.into(),
            }
        }
        Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        } => {
            let shape = Shape::Progressive { chunk_bytes };
            match checked_frame(service, session, frame, threshold, shape) {
                Ok(served) => return send_chunks(service, &served, chunk_bytes, stream),
                Err(refusal) => refusal.into(),
            }
        }
    };
    Ok((write_response(stream, &reply)?, false))
}

/// Validates a frame request, asks the service for the frame at the
/// threshold its cache key stands for, and leaves the session its
/// read-ahead when it continues a step sequence (`-0.0` is asked as `0.0`). A progressive and a plain request
/// for the same `(frame, threshold)` resolve to the same cached entry;
/// only the wire shape differs after.
fn checked_frame<O: FrameOrigin>(
    service: &Service<O>,
    session: &mut Session,
    frame: u32,
    threshold: f64,
    shape: Shape,
) -> Fetched {
    // A refused request is no step: the sequence starts over after it.
    let last_frame = session.last_frame.take();
    if threshold.is_nan() {
        // NaN has no place in the density order: extraction's
        // partition_point would silently return an empty prefix, and the
        // many NaN bit patterns would each occupy their own cache slot.
        // (±Inf stay valid dials: +Inf is the catalog's own "serve
        // everything" sentinel, -Inf is an empty extraction.)
        return Err(Refusal::new(
            ERR_BAD_THRESHOLD,
            format!("threshold must not be NaN, got {threshold}"),
        ));
    }
    let available = service.origin.frame_count();
    if frame as usize >= available {
        return Err(Refusal::new(
            ERR_NO_SUCH_FRAME,
            format!("frame {frame} requested, {available} available"),
        ));
    }
    let key = CacheKey::new(frame, threshold);
    session.last_frame = Some(key);
    let served = service.frame(frame, key.threshold(), shape)?;
    session.hint = successor(last_frame, key, available).map(|next| ReadAhead {
        frame: next,
        threshold: key.threshold(),
        shape,
    });
    Ok(served)
}

/// Writes one full frame reply: the sealed v2 envelope the cached entry
/// holds, encoded and hashed by whoever needed it first — a read-ahead, a
/// coalesced neighbour, or this send — so the send itself is a write. The
/// codec is deterministic, so a router's bytes match what a direct server
/// of the same data writes. Raw and wire sizes are both counted, per
/// send, so the stats expose the live compression ratio.
fn send_frame<O: FrameOrigin, S: Write>(
    service: &Service<O>,
    served: &Served,
    stream: &mut S,
) -> crate::error::Result<(u64, bool)> {
    let mut span = accelviz_trace::span(O::NAMES.span_send);
    let (reply, raw_len) = served.v2();
    let metrics = &service.metrics;
    metrics.add(O::NAMES.frame_bytes_raw, *raw_len);
    metrics.add(O::NAMES.frame_bytes_wire, reply.payload().len() as u64);
    let bytes = reply.write_to(stream)?;
    span.arg("bytes", bytes as f64);
    Ok((bytes, true))
}

/// Streams one frame coarse-to-fine. The planner is a pure function of
/// (frame, budget), so the records a routed session sees are identical to
/// a direct server's — and the records the cached entry keeps are the
/// ones a fresh plan would give. An entry whose forwarded frame does not
/// decode has no records: the session gets that refusal in-band.
fn send_chunks<O: FrameOrigin, S: Write>(
    service: &Service<O>,
    served: &Served,
    chunk_bytes: u64,
    stream: &mut S,
) -> crate::error::Result<(u64, bool)> {
    let records = {
        let mut span = accelviz_trace::span(O::NAMES.span_lod_send);
        let records = match served.chunks(chunk_budget(chunk_bytes)) {
            Ok(records) => records,
            Err(refusal) => return Ok((write_response(stream, &refusal.into())?, false)),
        };
        span.arg("chunks", records.len() as f64);
        records
    };
    let mut bytes = 0u64;
    for record in records.iter() {
        bytes += record.write_to(stream)?;
    }
    let metrics = &service.metrics;
    metrics.add(O::NAMES.lod_requests, 1);
    metrics.add(O::NAMES.lod_chunks, records.len() as u64);
    metrics.add(O::NAMES.lod_bytes_wire, bytes);
    Ok((bytes, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CACHE_BYTES;
    use crate::fault::{FaultDirection, FaultEvent, FaultKind, FaultPlan, FaultyTransport};
    use crate::protocol::{read_response, write_request, FrameInfo};
    use crate::server::Window;
    use crate::service::{counter_names, CounterNames};
    use crate::stats::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_core::hybrid::HybridFrame;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;
    use accelviz_trace::registry::{Registry, Snapshot};

    fn tiny_frame(threshold: f64) -> HybridFrame {
        let ps = Distribution::default_beam().sample(50, 1);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        HybridFrame::from_partition(&data, 0, threshold, [2, 2, 2])
    }

    /// The state of a service over `origin`, with no door.
    fn unstarted<O: FrameOrigin>(origin: O) -> Service<O> {
        let metrics = Arc::new(Registry::new());
        Service::new(origin, metrics, config(1, spawn_thread))
    }

    /// A service's config: `max_connections` sessions, started by `spawn`.
    fn config(max_connections: usize, spawn: Spawn) -> ServiceConfig {
        ServiceConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            permits: usize::MAX,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections,
            spawn,
        }
    }

    /// An origin of one frame: the catalog panics, `Stats` reports that
    /// it has entered and then parks until the test lets it answer, and
    /// the first fetch of the frame panics.
    struct Fake {
        entered: Mutex<mpsc::Sender<()>>,
        gate: Mutex<mpsc::Receiver<()>>,
        fetched_before: AtomicBool,
    }

    impl FrameOrigin for Fake {
        const NAMES: CounterNames = counter_names!("fake");
        const READS_AHEAD: bool = false;

        fn frame_count(&self) -> usize {
            1
        }

        fn catalog(&self) -> Vec<FrameInfo> {
            panic!("scripted handler panic")
        }

        fn fetch(&self, _frame: u32, threshold: f64) -> Result<Served, Refusal> {
            if !self.fetched_before.swap(true, Ordering::SeqCst) {
                panic!("scripted fetch panic");
            }
            Ok(Served::new(tiny_frame(threshold)))
        }

        fn stats(&self, _own: &Registry) -> Snapshot {
            self.entered.lock().unwrap().send(()).unwrap();
            self.gate.lock().unwrap().recv().unwrap();
            Snapshot::default()
        }
    }

    /// An open door over a [`Fake`], the receiver of its "Stats entered"
    /// signal, and the sender that lets a parked `Stats` answer.
    fn open(max_connections: usize) -> (FrontDoor<Fake>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        open_at("127.0.0.1:0", max_connections, spawn_thread)
    }

    fn open_at(
        addr: &str,
        max_connections: usize,
        spawn: Spawn,
    ) -> (FrontDoor<Fake>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel();
        let fake = Fake {
            entered: Mutex::new(entered_tx),
            gate: Mutex::new(gate_rx),
            fetched_before: AtomicBool::new(false),
        };
        let metrics = Arc::new(Registry::new());
        let config = config(max_connections, spawn);
        let door = FrontDoor::open(addr, fake, metrics, config).unwrap();
        (door, entered_rx, gate_tx)
    }

    fn connect(door: &FrontDoor<Fake>) -> TcpStream {
        let stream = TcpStream::connect(door.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn ask(stream: &mut TcpStream, req: Request) -> crate::error::Result<Response> {
        write_request(stream, &req)?;
        read_response(stream).map(|(reply, _)| reply)
    }

    fn error_code(reply: Response) -> u16 {
        match reply {
            Response::Error { code, .. } => code,
            other => panic!("expected an in-band error, got {other:?}"),
        }
    }

    #[test]
    fn arrivals_past_the_cap_get_err_busy_in_band_and_are_all_counted() {
        let (door, _entered, _gate) = open(1);
        let mut admitted = connect(&door);
        // A served request proves the only slot is held.
        ask(&mut admitted, Request::Hello { version: 2 }).unwrap();
        for _ in 0..5 {
            let mut shed = connect(&door);
            let reply = ask(&mut shed, Request::Hello { version: 2 }).unwrap();
            assert_eq!(error_code(reply), ERR_BUSY);
        }
        let metrics = &door.service().metrics;
        assert_eq!(metrics.counter(Fake::NAMES.shed_connections), 5);
        ask(&mut admitted, Request::Hello { version: 2 }).unwrap();
    }

    /// The OS refusing a session thread sheds that connection — in-band
    /// `ERR_BUSY`, counted, the slot returned — and costs nothing else.
    #[test]
    fn a_refused_session_thread_sheds_its_connection_in_band() {
        let refuse: Spawn = |_role, _body| Err(io::Error::from(io::ErrorKind::WouldBlock));
        let (door, _entered, _gate) = open_at("127.0.0.1:0", 4, refuse);
        for shed_so_far in 1..=3 {
            let mut stream = connect(&door);
            let reply = ask(&mut stream, Request::Hello { version: 2 }).unwrap();
            assert_eq!(error_code(reply), ERR_BUSY);
            let metrics = &door.service().metrics;
            assert_eq!(metrics.counter(Fake::NAMES.shed_connections), shed_so_far);
        }
        assert_eq!(door.door.active_connections.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_handler_panic_costs_one_err_internal_and_the_connection_serves_on() {
        let (door, _entered, _gate) = open(4);
        let mut stream = connect(&door);
        let reply = ask(&mut stream, Request::ListFrames).unwrap();
        assert_eq!(error_code(reply), ERR_INTERNAL);
        let reply = ask(&mut stream, Request::Hello { version: 2 }).unwrap();
        assert!(matches!(reply, Response::HelloAck { version: V2, .. }));
        let metrics = &door.service().metrics;
        assert_eq!(metrics.counter(Fake::NAMES.handler_panics), 1);
    }

    /// No wedge: a fetch that panics inside the cache costs its client
    /// one `ERR_INTERNAL`; the next request for the same key is answered,
    /// not parked behind the dead fetch.
    #[test]
    fn a_panicking_fetch_does_not_wedge_its_key() {
        let (door, _entered, _gate) = open(4);
        let wanted = Request::RequestFrame {
            frame: 0,
            threshold: 1.0,
        };
        let mut first = connect(&door);
        assert_eq!(error_code(ask(&mut first, wanted).unwrap()), ERR_INTERNAL);
        let mut second = connect(&door);
        let reply = ask(&mut second, wanted).unwrap();
        assert!(matches!(reply, Response::Frame(_)), "got {reply:?}");
        let metrics = &door.service().metrics;
        assert_eq!(metrics.counter(Fake::NAMES.handler_panics), 1);
    }

    #[test]
    fn malformed_framing_gets_err_bad_request_then_a_close() {
        let (door, _entered, _gate) = open(4);
        let mut stream = connect(&door);
        stream.write_all(b"GET / HTTP/1.1\r\n").unwrap(); // 16 bytes, bad magic
        let (reply, _) = read_response(&mut stream).unwrap();
        assert_eq!(error_code(reply), ERR_BAD_REQUEST);
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "then EOF");
    }

    /// A reply write that fails mid-frame ends the session: the frame is
    /// not counted as served, nothing panics, no request stays in flight,
    /// and the client has the bytes written before the cut, then EOF.
    #[test]
    fn a_reply_write_failing_mid_frame_ends_the_session() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        write_request(&mut client, &Request::Hello { version: V2 }).unwrap();
        write_request(&mut client, &plain(0, 0.5)).unwrap();
        let frame_count = Stepper::FRAMES;
        let ack = Response::HelloAck {
            version: V2,
            frame_count,
        };
        let cut = write_response(&mut io::sink(), &ack).unwrap() + 20;
        let door = Door {
            service: unstarted(Stepper),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            inflight_requests: AtomicUsize::new(0),
        };
        let (server, _) = listener.accept().unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            direction: FaultDirection::Write,
            at_byte: cut,
            kind: FaultKind::Truncate,
        }]);
        session(&door, FaultyTransport::new(server, plan.script()));
        let metrics = &door.service.metrics;
        let count = |name| metrics.counter(name);
        assert_eq!(count(Fake::NAMES.requests), 1, "the Hello only");
        assert_eq!(count(Fake::NAMES.frames_served), 0);
        assert_eq!(count(Fake::NAMES.handler_panics), 0);
        assert_eq!(door.inflight_requests.load(Ordering::SeqCst), 0);
        let mut received = Vec::new();
        client.read_to_end(&mut received).unwrap();
        assert_eq!(received.len() as u64, cut);
    }

    #[test]
    fn an_idle_door_closes_without_waiting_for_a_connection() {
        let (mut door, _entered, _gate) = open(4);
        let t0 = Instant::now();
        door.close();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    }

    #[test]
    fn a_door_bound_to_the_wildcard_address_closes_promptly() {
        let (mut door, _entered, _gate) = open_at("0.0.0.0:0", 4, spawn_thread);
        assert!(door.addr().ip().is_unspecified());
        let t0 = Instant::now();
        door.close();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    }

    /// The connection `close` makes to end the blocked `accept` is
    /// counted as nothing: a door at its cap, every session parked in
    /// the handler, closes with the shed and request counters unmoved.
    #[test]
    fn a_full_door_closes_and_the_wake_connection_is_not_a_shed() {
        let (mut door, entered, _gate) = open(2);
        let mut parked: Vec<TcpStream> = (0..2).map(|_| connect(&door)).collect();
        for stream in &mut parked {
            write_request(stream, &Request::Stats).unwrap();
            entered.recv().unwrap(); // this session is inside stats()
        }
        let counters = |door: &FrontDoor<Fake>| {
            let metrics = &door.service().metrics;
            (
                metrics.counter(Fake::NAMES.shed_connections),
                metrics.counter(Fake::NAMES.requests),
            )
        };
        let before = counters(&door);
        let t0 = Instant::now();
        door.close();
        // Nothing answers while parked, so close waits out the drain.
        assert!(t0.elapsed() < DRAIN_TIMEOUT + Duration::from_secs(2));
        assert_eq!(counters(&door), before);
    }

    /// An origin of [`Stepper::FRAMES`] frames that reads ahead.
    struct Stepper;

    impl Stepper {
        const FRAMES: u32 = 5;
    }

    impl FrameOrigin for Stepper {
        const NAMES: CounterNames = Fake::NAMES;
        const READS_AHEAD: bool = true;

        fn frame_count(&self) -> usize {
            Stepper::FRAMES as usize
        }

        fn catalog(&self) -> Vec<FrameInfo> {
            Vec::new()
        }

        fn fetch(&self, _frame: u32, threshold: f64) -> Result<Served, Refusal> {
            Ok(Served::new(tiny_frame(threshold)))
        }

        fn stats(&self, own: &Registry) -> Snapshot {
            own.snapshot()
        }
    }

    /// The hints one session's `requests` leave it, in order.
    fn hints_of(requests: &[Request]) -> Vec<ReadAhead> {
        let service = unstarted(Stepper);
        let mut session = Session::default();
        let mut hints = Vec::new();
        for &req in requests {
            dispatch(&service, req, &mut io::sink(), &mut session).unwrap();
            hints.extend(session.hint.take());
        }
        hints
    }

    fn plain(frame: u32, threshold: f64) -> Request {
        Request::RequestFrame { frame, threshold }
    }

    #[test]
    fn a_step_forward_at_one_threshold_hints_its_successor() {
        let hint = |frame| ReadAhead {
            frame,
            threshold: 0.5,
            shape: Shape::Plain,
        };
        let steps = [plain(0, 0.5), plain(1, 0.5), plain(2, 0.5)];
        assert_eq!(hints_of(&steps), [hint(2), hint(3)]);
        // A looping playback: the last frame's successor is frame 0, and
        // stepping onto frame 0 from the last frame is a step.
        let last = Stepper::FRAMES - 1;
        let wrap = [plain(last - 1, 0.5), plain(last, 0.5), plain(0, 0.5)];
        assert_eq!(hints_of(&wrap), [hint(0), hint(1)]);
        // Another request in between does not break the sequence.
        let polled = [plain(0, 0.5), Request::Stats, plain(1, 0.5)];
        assert_eq!(hints_of(&polled), [hint(2)]);
        // -0.0 and 0.0 are one dial.
        assert_eq!(hints_of(&[plain(0, 0.0), plain(1, -0.0)]).len(), 1);
    }

    #[test]
    fn the_hint_carries_the_requests_shape() {
        let progressive = |frame| Request::RequestFrameProgressive {
            frame,
            threshold: 0.5,
            chunk_bytes: 4_096,
        };
        let hints = hints_of(&[progressive(2), progressive(3)]);
        let shape = Shape::Progressive { chunk_bytes: 4_096 };
        let want = ReadAhead {
            frame: 4,
            threshold: 0.5,
            shape,
        };
        assert_eq!(hints, [want]);
        // A plain step after a progressive one is still a step.
        let mixed = hints_of(&[progressive(2), plain(3, 0.5)]);
        assert_eq!(mixed[0].shape, Shape::Plain);
    }

    #[test]
    fn anything_but_a_forward_step_at_one_threshold_hints_nothing() {
        let none: [ReadAhead; 0] = [];
        let out_of_range = Stepper::FRAMES;
        for requests in [
            vec![plain(0, 0.5)],                                    // one fetch per session
            vec![plain(0, 0.5), plain(2, 0.5)],                     // a stride
            vec![plain(1, 0.5), plain(0, 0.5)],                     // backward
            vec![plain(1, 0.5), plain(1, 0.5)],                     // a repeat
            vec![plain(0, 0.5), plain(1, 0.25)],                    // two thresholds
            vec![plain(0, f64::NAN), plain(1, f64::NAN)],           // refused: NaN
            vec![plain(0, 0.5), plain(1, f64::NAN), plain(1, 0.5)], // a refusal in between
            vec![plain(out_of_range - 1, 0.5), plain(out_of_range, 0.5)], // refused: no such frame
        ] {
            assert_eq!(hints_of(&requests), none, "{requests:?}");
        }
    }

    #[test]
    fn a_catalog_of_one_frame_has_no_successor() {
        let key = CacheKey::new(0, 0.5);
        assert_eq!(successor(Some(key), key, 1), None);
        assert_eq!(successor(Some(key), CacheKey::new(1, 0.5), 2), Some(0));
        assert_eq!(successor(None, key, 2), None);
    }

    #[test]
    fn accept_backoff_doubles_caps_and_resets() {
        let mut b = AcceptBackoff::default();
        let first = b.on_error();
        assert_eq!(first, AcceptBackoff::FIRST);
        let mut prev = first;
        let mut saw_cap = false;
        for _ in 0..20 {
            let d = b.on_error();
            assert!(d >= prev, "backoff must be non-decreasing");
            assert!(d <= AcceptBackoff::MAX);
            saw_cap |= d == AcceptBackoff::MAX;
            prev = d;
        }
        assert!(saw_cap, "20 consecutive failures must reach the cap");
        b.on_success();
        assert_eq!(b.on_error(), AcceptBackoff::FIRST, "success resets");
    }

    #[test]
    fn a_hundred_failures_sleep_long_enough_to_not_spin() {
        // The regression the schedule exists for: a persistent accept
        // error (EMFILE) must not become a hot loop. 100 consecutive
        // failures must schedule well over a second of cumulative pause.
        let mut b = AcceptBackoff::default();
        let total: Duration = (0..100).map(|_| b.on_error()).sum();
        assert!(
            total >= Duration::from_secs(5),
            "100 failures only paused {total:?}"
        );
    }

    #[test]
    fn a_request_in_flight_at_close_still_gets_its_reply() {
        let (mut door, entered, gate) = open(4);
        let state = Arc::clone(&door.door);
        let mut stream = connect(&door);
        write_request(&mut stream, &Request::Stats).unwrap();
        entered.recv().unwrap(); // the handler is inside stats()
        let closer = std::thread::spawn(move || door.close());
        // Let the handler answer only once close has raised the flag.
        while !state.shutdown.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        gate.send(()).unwrap();
        let (reply, _) = read_response(&mut stream).unwrap();
        assert!(matches!(reply, Response::Stats(_)));
        closer.join().unwrap();
        // Nothing new is admitted on the drained connection.
        assert!(ask(&mut stream, Request::Hello { version: 2 }).is_err());
    }

    /// An origin of [`Doomed::FRAMES`] frames that reads ahead, whose
    /// first fetch of its last frame panics.
    struct Doomed {
        fetched_last: AtomicBool,
    }

    impl Doomed {
        const FRAMES: u32 = 3;
    }

    impl FrameOrigin for Doomed {
        const NAMES: CounterNames = Window::NAMES;
        const READS_AHEAD: bool = true;

        fn frame_count(&self) -> usize {
            Doomed::FRAMES as usize
        }

        fn catalog(&self) -> Vec<FrameInfo> {
            Vec::new()
        }

        fn fetch(&self, frame: u32, threshold: f64) -> Result<Served, Refusal> {
            if frame == Doomed::FRAMES - 1 && !self.fetched_last.swap(true, Ordering::SeqCst) {
                panic!("scripted read-ahead panic");
            }
            Ok(Served::new(tiny_frame(threshold)))
        }

        fn reads_ahead(&self, _next: u32) -> bool {
            true
        }

        fn stats(&self, own: &Registry) -> Snapshot {
            own.snapshot()
        }
    }

    /// A read-ahead whose fetch panics costs that hint only: its session
    /// writes no byte for it and counts no handler panic, the key is
    /// vacant, and the session serves on — the frame it then asks for is
    /// a demand miss that succeeds.
    #[test]
    fn a_panicking_read_ahead_costs_its_hint_only() {
        let origin = Doomed {
            fetched_last: AtomicBool::new(false),
        };
        let metrics = Arc::new(Registry::new());
        let door =
            FrontDoor::open("127.0.0.1:0", origin, metrics, config(4, spawn_thread)).unwrap();
        let mut stream = TcpStream::connect(door.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Frame 1 after frame 0 hints the doomed frame 2, whose read-ahead
        // runs before this session reads its next request: the reply to
        // that request is the next thing on the socket.
        for frame in 0..Doomed::FRAMES {
            let reply = ask(&mut stream, plain(frame, 0.5)).unwrap();
            assert!(
                matches!(reply, Response::Frame(_)),
                "frame {frame}: {reply:?}"
            );
        }
        // Frame 2's read-ahead, of frame 0, is done once this is answered.
        ask(&mut stream, Request::Hello { version: V2 }).unwrap();
        let count = |name| door.service().metrics.counter(name);
        assert_eq!(count(CTR_HANDLER_PANICS), 0);
        assert_eq!(count(CTR_REQUESTS), 4);
        assert_eq!(
            (count(CTR_READAHEAD_HINTS), count(CTR_READAHEAD_FETCHES)),
            (2, 0),
            "frame 2's read-ahead died, frame 0 was resident"
        );
        assert_eq!(count(CTR_READAHEAD_DROPPED), 0);
        assert_eq!((count(CTR_CACHE_MISSES), count(CTR_CACHE_HITS)), (3, 0));
    }

    /// Every thread the crate starts carries its role's name, short
    /// enough for Linux to keep whole; an origin's fetch runs on a
    /// server's session and a prober's verdict on the router's prober.
    #[test]
    fn every_thread_is_named_for_its_role() {
        use crate::client::SPECULATION_THREAD;
        use crate::health::{HealthConfig, Prober, PROBER_THREAD};
        use crate::router::Replicas;
        let names = [Window::NAMES, Replicas::NAMES];
        let roles = names
            .iter()
            .flat_map(|n| [n.thread_accept, n.thread_session, n.thread_shed]);
        for role in roles.chain([PROBER_THREAD, SPECULATION_THREAD]) {
            assert!(role.len() <= 15, "{role} is cut short by the kernel");
        }

        let (tx, names) = mpsc::channel();
        let origin = Named(Mutex::new(tx.clone()));
        let metrics = Arc::new(Registry::new());
        let door =
            FrontDoor::open("127.0.0.1:0", origin, metrics, config(4, spawn_thread)).unwrap();
        let mut stream = TcpStream::connect(door.addr()).unwrap();
        ask(&mut stream, plain(0, 0.5)).unwrap();
        assert_eq!(names.recv().unwrap().as_deref(), Some("serve-session"));

        let health = HealthConfig {
            probe_interval: Duration::from_millis(1),
            ..HealthConfig::default()
        };
        let addr = door.addr();
        let verdict = move |_shard, _ok| {
            let _ = tx.send(std::thread::current().name().map(str::to_owned));
        };
        let prober = Prober::spawn(health, 1, move |_| addr, verdict, spawn_thread);
        let prober = prober.unwrap().expect("the interval is not zero");
        assert_eq!(names.recv().unwrap().as_deref(), Some("router-prober"));
        drop(prober);
    }

    /// An origin of one frame whose fetch reports the name of the thread
    /// it runs on.
    struct Named(Mutex<mpsc::Sender<Option<String>>>);

    impl FrameOrigin for Named {
        const NAMES: CounterNames = Window::NAMES;
        const READS_AHEAD: bool = false;

        fn frame_count(&self) -> usize {
            1
        }

        fn catalog(&self) -> Vec<FrameInfo> {
            Vec::new()
        }

        fn fetch(&self, _frame: u32, threshold: f64) -> Result<Served, Refusal> {
            let name = std::thread::current().name().map(str::to_owned);
            self.0.lock().unwrap().send(name).unwrap();
            Ok(Served::new(tiny_frame(threshold)))
        }

        fn stats(&self, own: &Registry) -> Snapshot {
            own.snapshot()
        }
    }
}
