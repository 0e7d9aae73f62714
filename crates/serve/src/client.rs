//! The client side: a resilient connection handle plus [`RemoteFrames`],
//! a [`FrameSource`] that lets an unmodified
//! [`accelviz_core::session::ViewerSession`] run against a remote server.
//!
//! Resilience model: the protocol is strict request/reply and every
//! request (`Hello`, `ListFrames`, `RequestFrame`, `Stats`) is
//! idempotent, so any transport failure — timeout, reset, truncation,
//! corruption — can be healed by reconnecting, re-running the `Hello`
//! handshake, and replaying the request. [`Client`] does exactly that,
//! paced by a [`RetryPolicy`]; when retries are exhausted,
//! [`RemoteFrames`] degrades to its most recent resident frame (flagged
//! [`FrameLoad::degraded`]) so the viewer keeps rendering instead of
//! freezing. Retries, reconnects, degraded loads and speculative fetches
//! are counted on the global [`accelviz_trace`] registry under the
//! `client.*` names below.
//!
//! Overlap: a stepping [`RemoteFrames`] fetches the next frame on a
//! helper thread while the viewer draws the current one. The [`Client`]
//! itself moves to the helper with that request and back with its reply,
//! so the connection stays strictly request/reply under one retry loop.

use crate::cache::CacheKey;
use crate::error::{Result, ServeError};
use crate::fault::{FaultScript, FaultyTransport};
use crate::frontdoor::{spawn_thread, successor, Spawn};
use crate::lod::ProgressiveAssembler;
use crate::protocol::{
    read_chunk_reply, read_response, response_of, write_request, ChunkReply, FrameInfo, Request,
    Response, RESP_FRAME,
};
use crate::retry::RetryPolicy;
use crate::wire::{decode_frame_v2, read_sealed, Sealed, MAX_PAYLOAD, V2};
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::viewer::{FrameLoad, FrameSource};
use accelviz_store::cache::Cache;
use accelviz_trace::registry::Snapshot;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A frame fetch outcome: the frame and what it cost.
type FetchOutcome = Result<(HybridFrame, FetchMetrics)>;

/// A progressive fetch outcome: the final result, plus — on failure —
/// the renderable partial frame the stream reached and what it cost.
type ProgressiveFetch = (FetchOutcome, Option<(HybridFrame, FetchMetrics)>);

/// Global-registry counter: requests retried after a transient failure.
pub const CTR_CLIENT_RETRIES: &str = "client.retries";
/// Global-registry counter: connections re-established (including the
/// `Hello` re-handshake).
pub const CTR_CLIENT_RECONNECTS: &str = "client.reconnects";
/// Global-registry counter: loads served from a stale resident frame
/// after retries were exhausted.
pub const CTR_CLIENT_DEGRADED: &str = "client.degraded_frames";
/// Global-registry counter: progressive chunk records applied to an
/// assembling frame (replayed records skipped at the high-water mark do
/// not count).
pub const CTR_CLIENT_REFINE_CHUNKS: &str = "client.refine_chunks";
/// Global-registry counter: loads answered with a *partially refined*
/// frame after a progressive stream failed past the renderable coarse
/// head (the [`FrameLoad::partial`] degradation).
pub const CTR_CLIENT_REFINE_PARTIAL: &str = "client.refine_partial_frames";
/// Global-registry counter: speculative fetches [`RemoteFrames`] started.
pub const CTR_CLIENT_SPECULATIVE_FETCHES: &str = "client.speculative_fetches";
/// Global-registry counter: speculative fetches whose frame a load took.
pub const CTR_CLIENT_SPECULATIVE_USED: &str = "client.speculative_used";
/// Global-registry counter: speculative fetches discarded — the next load
/// asked for another frame, the fetch failed, or the source was dropped
/// first.
pub const CTR_CLIENT_SPECULATIVE_UNUSED: &str = "client.speculative_unused";

/// What one frame fetch actually cost on the wire — the measured numbers
/// the `TransferModel` predicts analytically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FetchMetrics {
    /// Envelope bytes received for the frame reply.
    pub wire_bytes: u64,
    /// Wall-clock seconds from request write to decoded frame, including
    /// any retries and reconnects in between.
    pub seconds: f64,
}

/// A client connection stream. Anything `Read + Write` qualifies; the
/// production transport is a `TcpStream`, tests substitute
/// [`FaultyTransport`]-wrapped streams.
pub trait Transport: Read + Write + Send {}

impl<S: Read + Write + Send> Transport for S {}

/// Produces fresh [`Transport`]s — called once at connect time and again
/// on every reconnect. Implement it to put anything between the client
/// and the server (the crate ships [`TcpConnector`] and
/// [`FaultyConnector`]).
pub trait Connector: Send {
    /// Opens a new transport to the server.
    fn connect(&mut self) -> Result<Box<dyn Transport>>;
}

/// Client-side resilience knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection; `None` uses the OS
    /// default. Mirrors the server's 30 s worker timeouts.
    pub connect_timeout: Option<Duration>,
    /// Bound on any single blocking read — a stalled or half-open server
    /// must not hang the viewer forever.
    pub read_timeout: Option<Duration>,
    /// Same bound for writes.
    pub write_timeout: Option<Duration>,
    /// How transient failures are retried; `None` fails fast on the
    /// first error (the pre-resilience behavior).
    pub retry: Option<RetryPolicy>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(30)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry: Some(RetryPolicy::default()),
        }
    }
}

impl ClientConfig {
    /// Timeouts on, retries off: any transport failure surfaces
    /// immediately, like the client behaved before the resilience layer.
    pub fn no_retry() -> ClientConfig {
        ClientConfig {
            retry: None,
            ..ClientConfig::default()
        }
    }
}

/// Dials a TCP address with the configured timeouts.
pub struct TcpConnector {
    addrs: Vec<SocketAddr>,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl TcpConnector {
    /// Resolves `addr` once and dials it (first address that answers)
    /// with `config`'s timeouts on every connect.
    pub fn new(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<TcpConnector> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(ServeError::Io)?.collect();
        if addrs.is_empty() {
            return Err(ServeError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        Ok(TcpConnector {
            addrs,
            connect_timeout: config.connect_timeout,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
        })
    }

    fn dial(&self) -> Result<TcpStream> {
        let mut last: Option<io::Error> = None;
        for addr in &self.addrs {
            let attempt = match self.connect_timeout {
                Some(t) => TcpStream::connect_timeout(addr, t),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(self.read_timeout);
                    let _ = stream.set_write_timeout(self.write_timeout);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ServeError::Io(last.expect("addrs is non-empty")))
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>> {
        Ok(Box::new(self.dial()?))
    }
}

/// A [`TcpConnector`] whose every transport is wrapped in a
/// [`FaultyTransport`] drawing from one shared [`FaultScript`] — the
/// chaos-test connector, and the one place faults enter a session (a
/// server-side fault is the same plan with its directions swapped). Byte
/// positions in the script are cumulative across reconnects, so one
/// seeded plan describes the whole session.
pub struct FaultyConnector {
    inner: TcpConnector,
    script: Arc<FaultScript>,
}

impl FaultyConnector {
    /// Wraps `inner` so every connection it opens is faulted by `script`.
    pub fn new(inner: TcpConnector, script: Arc<FaultScript>) -> FaultyConnector {
        FaultyConnector { inner, script }
    }
}

impl Connector for FaultyConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>> {
        let stream = self.inner.dial()?;
        Ok(Box::new(FaultyTransport::new(
            stream,
            Arc::clone(&self.script),
        )))
    }
}

/// What the resilience layer has done on this client's behalf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests retried after a transient failure.
    pub retries: u64,
    /// Connections re-established (each includes a `Hello` re-handshake).
    pub reconnects: u64,
    /// Operations that failed even after exhausting the retry policy.
    pub giveups: u64,
}

/// A connected client. One transport at a time, strict request/reply;
/// transparently reconnects and replays on transient failures when a
/// [`RetryPolicy`] is configured.
pub struct Client {
    connector: Box<dyn Connector>,
    config: ClientConfig,
    transport: Option<Box<dyn Transport>>,
    frame_count: u32,
    stats: ClientStats,
    ever_connected: bool,
}

impl Client {
    /// Connects with default resilience (30 s timeouts, default retry
    /// policy) and performs the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit resilience knobs.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client> {
        let connector = TcpConnector::new(addr, &config)?;
        Client::connect_via(Box::new(connector), config)
    }

    /// Connects through an arbitrary [`Connector`] — the entry point for
    /// fault-injected transports.
    pub fn connect_via(connector: Box<dyn Connector>, config: ClientConfig) -> Result<Client> {
        let mut client = Client {
            connector,
            config,
            transport: None,
            frame_count: 0,
            stats: ClientStats::default(),
            ever_connected: false,
        };
        // The initial connect gets the same retry treatment as any later
        // operation: a server still coming up is a transient condition.
        client.retry_loop(config.retry, |_t| Ok(()))?;
        Ok(client)
    }

    /// Frames the server advertised at the (most recent) handshake.
    pub fn frame_count(&self) -> usize {
        self.frame_count as usize
    }

    /// What the resilience layer has done so far.
    pub fn client_stats(&self) -> ClientStats {
        self.stats
    }

    /// Fetches the frame catalog.
    pub fn list_frames(&mut self) -> Result<Vec<FrameInfo>> {
        match self.call(Request::ListFrames)? {
            Response::FrameList(frames) => Ok(frames),
            other => Err(unexpected("FrameList", &other)),
        }
    }

    /// Fetches one frame at one threshold, measuring the transfer
    /// (retries and reconnects included in the measured seconds).
    pub fn fetch(&mut self, frame: u32, threshold: f64) -> Result<(HybridFrame, FetchMetrics)> {
        self.fetch_reply(frame, threshold, |reply| decode_frame_v2(reply.payload()))
    }

    /// Fetches one frame at one threshold as its reply envelope, read
    /// whole and checksum-verified, and makes of it what `finish` does.
    /// `finish` runs inside the retry loop, so a reply it refuses (a frame
    /// that does not decode, say) reconnects and replays like any other
    /// corrupt read.
    pub(crate) fn fetch_reply<T>(
        &mut self,
        frame: u32,
        threshold: f64,
        finish: impl Fn(Sealed) -> Result<T>,
    ) -> Result<(T, FetchMetrics)> {
        // The wire-transfer span of the pipeline trace: request write to
        // finished reply, as seen from the viewer side.
        let mut span = accelviz_trace::span("serve.fetch");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let t0 = Instant::now();
        let req = Request::RequestFrame { frame, threshold };
        let (value, wire_bytes) = self.retry_loop(self.retry_for(&req), |t| {
            write_request(t, &req)?;
            let reply = read_sealed(t, MAX_PAYLOAD)?;
            if reply.kind() != RESP_FRAME {
                return Err(unexpected("Frame", &response_of(&reply)?));
            }
            let wire_bytes = reply.wire_bytes();
            Ok((finish(reply)?, wire_bytes))
        })?;
        span.arg("wire_bytes", wire_bytes as f64);
        let seconds = t0.elapsed().as_secs_f64();
        let metrics = FetchMetrics {
            wire_bytes,
            seconds,
        };
        Ok((value, metrics))
    }

    /// Fetches one frame progressively: a coarse renderable head first,
    /// then refinement records, reassembled and verified against the
    /// frame's trailer — the returned frame is bit-identical to what
    /// [`Client::fetch`] returns for the same request. `chunk_bytes` is
    /// the requested chunk budget (0 lets the server choose).
    ///
    /// Resilience: a mid-stream transport failure reconnects and
    /// replays the request; the server restarts from the first record
    /// and already-applied records are skipped at the assembler's
    /// high-water mark, so refinement resumes instead of restarting.
    pub fn fetch_progressive(
        &mut self,
        frame: u32,
        threshold: f64,
        chunk_bytes: u64,
    ) -> Result<(HybridFrame, FetchMetrics)> {
        self.fetch_progressive_inner(frame, threshold, chunk_bytes)
            .0
    }

    /// The progressive fetch with its degradation channel: on failure,
    /// the second slot carries the renderable partial frame the stream
    /// got to (if it reached the coarse head at all) and what it cost.
    /// [`RemoteFrames`] uses this to hand the viewer a reduced-fidelity
    /// rendition of the *requested* frame instead of a stale one.
    fn fetch_progressive_inner(
        &mut self,
        frame: u32,
        threshold: f64,
        chunk_bytes: u64,
    ) -> ProgressiveFetch {
        let mut span = accelviz_trace::span("serve.fetch_progressive");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let t0 = Instant::now();
        // The assembler lives *outside* the retry loop: it is the
        // replay high-water mark, and on total failure it still holds
        // the renderable partial.
        let mut asm = ProgressiveAssembler::new();
        let mut wire_bytes = 0u64;
        let req = Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        };
        let result = self.retry_loop(self.retry_for(&req), |t| {
            write_request(t, &req)?;
            loop {
                let (reply, bytes) = read_chunk_reply(t)?;
                let record = match reply {
                    ChunkReply::Chunk(record) => record,
                    ChunkReply::Error { code, message } => {
                        return Err(ServeError::Remote { code, message });
                    }
                };
                // A replayed stream restarts at seq 0; records already
                // spliced are skipped, not re-applied.
                let rec = accelviz_store::progressive::decode_record(&record)?;
                if rec.seq < asm.next_seq() {
                    continue;
                }
                let done = asm.accept_record(rec)?;
                wire_bytes += bytes;
                accelviz_trace::global().add(CTR_CLIENT_REFINE_CHUNKS, 1);
                if done {
                    return Ok(());
                }
            }
        });
        let seconds = t0.elapsed().as_secs_f64();
        let metrics = FetchMetrics {
            wire_bytes,
            seconds,
        };
        span.arg("wire_bytes", wire_bytes as f64);
        match result {
            Ok(()) => {
                let frame = asm.into_frame().expect("completed stream has a frame");
                (Ok((frame, metrics)), None)
            }
            Err(e) => {
                span.arg("failed", 1.0);
                let partial = asm.partial_frame().map(|p| (p, metrics));
                (Err(e), partial)
            }
        }
    }

    /// Fetches one frame the way [`RemoteFrames`] loads it: plain, or
    /// progressively under `progressive`'s chunk budget, with the partial
    /// frame a failed stream left behind.
    fn fetch_for_load(
        &mut self,
        frame: u32,
        threshold: f64,
        progressive: Option<u64>,
    ) -> ProgressiveFetch {
        match progressive {
            Some(budget) => self.fetch_progressive_inner(frame, threshold, budget),
            None => (self.fetch(frame, threshold), None),
        }
    }

    /// Fetches the service's metrics snapshot: a server's registry (a
    /// stored server's with its run's `store.resident_*` counters), or a
    /// router's merged with its reachable shards'.
    pub fn stats(&mut self) -> Result<Snapshot> {
        match self.call(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// One request/reply exchange under the retry loop. An in-band
    /// [`Response::Error`] becomes `Err(Remote)` *inside* the loop so
    /// `ERR_BUSY` is retried with backoff like any transient failure;
    /// non-retryable remote errors pass straight through.
    fn call(&mut self, req: Request) -> Result<Response> {
        self.retry_loop(self.retry_for(&req), move |t| {
            write_request(t, &req)?;
            let (resp, _) = read_response(t)?;
            if let Response::Error { code, message } = resp {
                return Err(ServeError::Remote { code, message });
            }
            Ok(resp)
        })
    }

    /// Opens a fresh transport and re-runs the `Hello` handshake. An ack
    /// at any version but [`V2`] is a protocol error.
    fn establish(&mut self) -> Result<Box<dyn Transport>> {
        let mut t = self.connector.connect()?;
        write_request(&mut t, &Request::Hello { version: V2 })?;
        let (resp, _) = read_response(&mut t)?;
        match resp {
            Response::HelloAck {
                version: V2,
                frame_count,
            } => {
                self.frame_count = frame_count;
                if self.ever_connected {
                    self.stats.reconnects += 1;
                    accelviz_trace::global().add(CTR_CLIENT_RECONNECTS, 1);
                }
                self.ever_connected = true;
                Ok(t)
            }
            Response::HelloAck { version, .. } => Err(ServeError::Protocol(format!(
                "server acked protocol version {version}, this client speaks {V2}"
            ))),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The retry policy for `req`; a frame request's policy jitters per
    /// `(seed, frame, threshold)`, so the requests one dead shard fails
    /// together (directly or through a router) do not retry in lockstep.
    fn retry_for(&self, req: &Request) -> Option<RetryPolicy> {
        match *req {
            Request::RequestFrame { frame, threshold }
            | Request::RequestFrameProgressive {
                frame, threshold, ..
            } => self.config.retry.map(|p| p.for_request(frame, threshold)),
            _ => self.config.retry,
        }
    }

    /// Runs `op` against a live transport, reconnecting and replaying on
    /// transient failures as `policy` allows — the one loop in the crate
    /// that sleeps between attempts. The idempotence of every protocol
    /// request is what makes blind replay correct.
    fn retry_loop<T>(
        &mut self,
        policy: Option<RetryPolicy>,
        mut op: impl FnMut(&mut Box<dyn Transport>) -> Result<T>,
    ) -> Result<T> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let result = match self.transport.take() {
                Some(mut t) => match op(&mut t) {
                    Ok(v) => {
                        self.transport = Some(t);
                        return Ok(v);
                    }
                    Err(e) => {
                        // A Remote error arrived in a well-formed reply:
                        // the stream is still in sync, keep it. Anything
                        // else may have desynced the framing — drop the
                        // transport so the next attempt reconnects.
                        if matches!(e, ServeError::Remote { .. }) {
                            self.transport = Some(t);
                        }
                        Err(e)
                    }
                },
                None => self.establish().map(|t| {
                    self.transport = Some(t);
                }),
            };
            let err = match result {
                Ok(()) => continue, // transport established; run op next
                Err(e) => e,
            };
            let delay = match &policy {
                Some(policy) if err.is_transient() => policy.next_delay(attempt, start.elapsed()),
                _ => None,
            };
            match delay {
                Some(d) => {
                    self.stats.retries += 1;
                    accelviz_trace::global().add(CTR_CLIENT_RETRIES, 1);
                    std::thread::sleep(d);
                    attempt += 1;
                }
                None => {
                    if policy.is_some() && err.is_transient() {
                        self.stats.giveups += 1;
                    }
                    return Err(err);
                }
            }
        }
    }
}

/// Converts an in-band error reply to [`ServeError::Remote`]; anything
/// else out of order is a protocol violation.
fn unexpected(wanted: &str, got: &Response) -> ServeError {
    match got {
        Response::Error { code, message } => ServeError::Remote {
            code: *code,
            message: message.clone(),
        },
        other => ServeError::Protocol(format!("expected {wanted}, got {}", response_name(other))),
    }
}

fn response_name(r: &Response) -> &'static str {
    match r {
        Response::HelloAck { .. } => "HelloAck",
        Response::FrameList(_) => "FrameList",
        Response::Stats(_) => "Stats",
        Response::Error { .. } => "Error",
    }
}

/// A network-backed [`FrameSource`]: frames come over TCP at a fixed
/// extraction threshold, with a client-side resident set so revisited
/// frames display without a round trip — the remote twin of the viewer's
/// local [`accelviz_core::viewer::FrameCache`]. When a fetch fails even
/// after the client's retries, the source *degrades* instead of erroring:
/// it hands back its most recently displayed resident frame flagged
/// [`FrameLoad::degraded`], so the viewer keeps rendering something
/// honest rather than freezing.
///
/// Speculation: once `load(n)` follows `load(n − 1)` (the server's own
/// read-ahead rule, looping at the end of the catalog), the source
/// expects `n + 1` next, and when the viewer starts drawing frame `n`
/// ([`FrameSource::drawing`]) it fetches `n + 1` on a helper thread, so
/// the socket wait and the decode of the next frame overlap the drawing
/// of this one. The connection travels with the speculative request and
/// comes back with its result: requests stay strictly request/reply on
/// the one connection, under the one retry loop, and at most one is in
/// flight. The next load takes the result when it asks for that frame;
/// otherwise it waits for the speculation and fetches on demand. A
/// speculative frame enters the resident set only when a load asks for
/// it, and a failed speculation is discarded silently — the demand fetch
/// runs its own retries and degradation ladder, so speculation never
/// yields a degraded or partial load. Nothing is fetched ahead after a
/// first load, a jump or a degraded load, when the successor is resident
/// already, for a viewer that loads without drawing, or when the OS
/// refuses the helper thread — the connection then never leaves home.
pub struct RemoteFrames {
    /// The connection; `None` exactly while a speculation holds it.
    client: Option<Client>,
    /// What the handshake advertised. Kept here: asking the connection
    /// would wait for a running speculation.
    frame_count: usize,
    threshold: f64,
    /// Up to `max_resident` frames by index, LRU; filled by `get` + `insert`
    /// (a failed fetch carries a partial frame and a non-`Clone` error).
    resident: Cache<u32, HybridFrame, ()>,
    /// The frame `load` last returned in full (the most recently used
    /// resident one): the stale fallback.
    last: Option<Arc<HybridFrame>>,
    /// The frame the previous `load` asked for: what the next one is a
    /// successor of, or not.
    asked: Option<u32>,
    /// The frame the last load expects to be asked for next: what
    /// [`FrameSource::drawing`] fetches ahead.
    expected: Option<u32>,
    /// The running speculation: its frame, and the helper thread that
    /// holds the connection until it returns it with the fetch's result.
    ahead: Option<(u32, Helper)>,
    /// A joined speculation no load has taken yet: its frame and result.
    settled: Option<(u32, FetchOutcome)>,
    /// `Some(chunk budget)` switches cold loads to progressive fetches
    /// (0 = server default); the degradation ladder then prefers a
    /// partial rendition of the requested frame over a stale one.
    progressive: Option<u64>,
    /// How a speculation's helper thread is started.
    spawn: Spawn,
    /// Wire bytes received across all fetches, speculative ones included.
    pub bytes_fetched: u64,
    /// Loads answered with a stale resident frame after retries were
    /// exhausted.
    pub degraded_loads: u64,
    /// Loads answered with a partially refined frame after a
    /// progressive stream failed past its renderable head.
    pub partial_loads: u64,
}

impl RemoteFrames {
    /// A remote source fetching at `threshold`, holding up to
    /// `max_resident` frames client-side.
    pub fn new(client: Client, threshold: f64, max_resident: usize) -> RemoteFrames {
        assert!(max_resident > 0, "need room for at least the current frame");
        RemoteFrames {
            frame_count: client.frame_count(),
            client: Some(client),
            threshold,
            resident: Cache::new(max_resident as u64, |_| 1),
            last: None,
            asked: None,
            expected: None,
            ahead: None,
            settled: None,
            progressive: None,
            spawn: spawn_thread,
            bytes_fetched: 0,
            degraded_loads: 0,
            partial_loads: 0,
        }
    }

    /// Switches cold loads to progressive streaming with the given
    /// chunk budget (0 = server default). The fully refined frame is
    /// bit-identical to a plain fetch, so the resident set and the
    /// session above are unaffected — but when a stream dies past its
    /// renderable head, the viewer gets the requested frame at partial
    /// refinement ([`FrameLoad::partial`]) instead of a stale one. A
    /// speculation streams its frame whole and shows no partial.
    pub fn progressive(mut self, chunk_bytes: u64) -> RemoteFrames {
        self.progressive = Some(chunk_bytes);
        self
    }

    /// The connection, e.g. to pull server stats mid-session. A running
    /// speculation is joined first; its result waits for the load that
    /// asks for its frame.
    pub fn client(&mut self) -> &mut Client {
        if let Some((frame, helper)) = self.ahead.take() {
            let (client, fetched) = helper.join();
            self.client = Some(client);
            self.settled = Some((frame, fetched));
        }
        self.client
            .as_mut()
            .expect("the connection is home once no speculation runs")
    }

    /// What the speculation fetched for `key`, if it was for `key` and
    /// succeeded. Whatever else it settled to — another frame, a failure
    /// — is discarded.
    fn speculated(&mut self, key: u32) -> Option<(HybridFrame, FetchMetrics)> {
        self.client();
        match self.settled.take()? {
            (frame, Ok(fetched)) if frame == key => {
                accelviz_trace::global().add(CTR_CLIENT_SPECULATIVE_USED, 1);
                Some(fetched)
            }
            (_, fetched) => {
                if let Ok((_, metrics)) = fetched {
                    self.bytes_fetched += metrics.wire_bytes;
                }
                accelviz_trace::global().add(CTR_CLIENT_SPECULATIVE_UNUSED, 1);
                None
            }
        }
    }

    /// The frame to fetch ahead once `key` is drawn: its successor when
    /// `key` continued a stride-1 step from `previous` and the successor
    /// is not resident.
    fn expect_successor(&mut self, previous: Option<u32>, key: u32) {
        let at = |frame| CacheKey::new(frame, self.threshold);
        self.expected = successor(previous.map(at), at(key), self.frame_count)
            .filter(|next| !self.resident.contains(next));
    }

    /// The stale-frame fallback: most recently used resident frame,
    /// after `waited` seconds of failing fetches.
    fn fallback(&mut self, waited: f64) -> Option<(Arc<HybridFrame>, FrameLoad)> {
        let frame = self.last.clone()?;
        self.degraded_loads += 1;
        accelviz_trace::global().add(CTR_CLIENT_DEGRADED, 1);
        Some((
            frame,
            FrameLoad {
                cache_hit: true,
                bytes_loaded: 0,
                seconds: waited,
                texture_resident: true,
                degraded: true,
                partial: false,
            },
        ))
    }
}

impl FrameSource for RemoteFrames {
    fn frame_count(&self) -> usize {
        self.frame_count
    }

    /// `FrameLoad::seconds` is what the viewer waited here: 0 for a
    /// resident frame, the join for a speculative one, the fetch — after
    /// any speculation it waited out — for a demand one.
    fn load(&mut self, index: usize) -> io::Result<(Arc<HybridFrame>, FrameLoad)> {
        let key = index as u32;
        let previous = self.asked.replace(key);
        self.expected = None;
        if let Some(frame) = self.resident.get(&key) {
            self.last = Some(Arc::clone(&frame));
            self.expect_successor(previous, key);
            let load = FrameLoad {
                cache_hit: true,
                bytes_loaded: 0,
                seconds: 0.0,
                texture_resident: true,
                degraded: false,
                partial: false,
            };
            return Ok((frame, load));
        }
        let t0 = Instant::now();
        let (fetched, partial) = match self.speculated(key) {
            Some(fetched) => (Ok(fetched), None),
            None => {
                let (threshold, progressive) = (self.threshold, self.progressive);
                self.client().fetch_for_load(key, threshold, progressive)
            }
        };
        let (frame, metrics) = match (fetched, partial) {
            (Ok(r), _) => r,
            // The stream died but got past its renderable head: hand the
            // viewer the *requested* frame at partial refinement. Not
            // cached — the next visit refetches toward the full frame.
            (Err(_), Some((partial, metrics))) => {
                self.partial_loads += 1;
                self.bytes_fetched += metrics.wire_bytes;
                accelviz_trace::global().add(CTR_CLIENT_REFINE_PARTIAL, 1);
                return Ok((
                    Arc::new(partial),
                    FrameLoad {
                        cache_hit: false,
                        bytes_loaded: metrics.wire_bytes,
                        seconds: t0.elapsed().as_secs_f64(),
                        texture_resident: false,
                        degraded: true,
                        partial: true,
                    },
                ));
            }
            (Err(e), None) => {
                // Retries (if configured) are exhausted. Degrade to the
                // most recent resident frame if we have one; a session
                // with no resident frame yet has nothing to show and the
                // error must surface.
                return match self.fallback(t0.elapsed().as_secs_f64()) {
                    Some(degraded) => Ok(degraded),
                    None => Err(io::Error::from(e)),
                };
            }
        };
        let frame = Arc::new(frame);
        self.resident.insert(key, Arc::clone(&frame));
        self.last = Some(Arc::clone(&frame));
        self.bytes_fetched += metrics.wire_bytes;
        self.expect_successor(previous, key);
        let load = FrameLoad {
            cache_hit: false,
            bytes_loaded: metrics.wire_bytes,
            seconds: t0.elapsed().as_secs_f64(),
            texture_resident: false,
            degraded: false,
            partial: false,
        };
        Ok((frame, load))
    }

    /// Starts fetching the expected frame on a helper thread, unless a
    /// speculation is outstanding. The connection goes with the request
    /// once the thread runs; a refused thread is no speculation, and the
    /// connection stays here.
    fn drawing(&mut self) {
        if self.ahead.is_some() || self.settled.is_some() {
            return;
        }
        let Some(next) = self.expected.take() else {
            return;
        };
        let (threshold, progressive) = (self.threshold, self.progressive);
        let (lend, borrowed) = mpsc::channel::<Client>();
        let (reply, replied) = mpsc::channel();
        let speculate = Box::new(move || {
            if let Ok(mut client) = borrowed.recv() {
                let (fetched, _partial) = client.fetch_for_load(next, threshold, progressive);
                let _ = reply.send((client, fetched));
            }
        });
        let started = (self.spawn)(SPECULATION_THREAD, speculate);
        let Ok(thread) = started else {
            return;
        };
        let client = self.client.take().expect("no speculation holds it");
        lend.send(client)
            .expect("the helper waits for the connection");
        accelviz_trace::global().add(CTR_CLIENT_SPECULATIVE_FETCHES, 1);
        self.ahead = Some((next, Helper { thread, replied }));
    }
}

/// The name of a speculation's thread.
pub(crate) const SPECULATION_THREAD: &str = "client-spec";

/// A running speculation's thread and the channel it hands the connection
/// back on, with the fetch's result.
struct Helper {
    thread: JoinHandle<()>,
    replied: mpsc::Receiver<(Client, FetchOutcome)>,
}

impl Helper {
    /// Waits for the connection and the result; a panic in the fetch
    /// resumes here.
    fn join(self) -> (Client, FetchOutcome) {
        if let Err(panic) = self.thread.join() {
            std::panic::resume_unwind(panic);
        }
        self.replied
            .recv()
            .expect("a helper that returned has replied")
    }
}

impl Drop for RemoteFrames {
    /// Joins a running speculation — never detaches it — so no helper
    /// thread outlives the source. The join is bounded by the client's
    /// timeouts and retry policy.
    fn drop(&mut self) {
        let outstanding = match self.ahead.take() {
            Some((_, helper)) => {
                let _ = helper.thread.join();
                true
            }
            None => self.settled.take().is_some(),
        };
        if outstanding {
            accelviz_trace::global().add(CTR_CLIENT_SPECULATIVE_UNUSED, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FrameServer, ServerConfig};
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;
    use accelviz_octree::sorted_store::PartitionedData;

    /// The OS refusing the speculation's thread costs the speculation, not
    /// the viewer: a drawing playback steps bit-identically on the one
    /// connection, which stays usable, and nothing is counted as fetched
    /// ahead.
    #[test]
    fn a_refused_speculation_thread_costs_speculation_not_the_connection() {
        let refuse: Spawn = |_role, _body| Err(io::Error::from(io::ErrorKind::WouldBlock));
        let data: Vec<PartitionedData> = (0..4u64)
            .map(|i| {
                let ps = Distribution::default_beam().sample(800, i + 1);
                partition(&ps, PlotType::XYZ, BuildParams::default())
            })
            .collect();
        let config = ServerConfig::default();
        let server = FrameServer::spawn_loopback(data.clone(), config).unwrap();
        let client = Client::connect(server.addr()).unwrap();
        let mut remote = RemoteFrames::new(client, f64::INFINITY, 2);
        remote.spawn = refuse;
        let fetches = || accelviz_trace::global().counter(CTR_CLIENT_SPECULATIVE_FETCHES);
        let before = fetches();
        for (i, d) in data.iter().enumerate().cycle().take(2 * data.len()) {
            let (got, load) = remote.load(i).unwrap();
            let want = HybridFrame::from_partition(d, i, f64::INFINITY, config.volume_dims);
            assert_eq!(*got, want, "frame {i}");
            assert!(!load.degraded);
            remote.drawing();
            assert!(remote.ahead.is_none() && remote.client.is_some());
        }
        assert_eq!(fetches(), before, "nothing was fetched ahead");
        let served = remote.client().stats().unwrap();
        assert_eq!(served.counter("serve.frames_served"), 2 * data.len() as u64);
        drop(remote);
        server.shutdown();
    }
}
