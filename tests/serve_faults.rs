//! Chaos matrix for the resilience layer: a seeded fault plan injecting
//! delays, disconnects, truncations, and bit flips into a live session
//! must be survivable — every frame delivered bit-identical to a
//! fault-free run — while retries-disabled behavior matches the
//! pre-resilience client, exhausted retries degrade to a stale frame
//! instead of erroring, and an overloaded server sheds with `ERR_BUSY`.
//!
//! The seed comes from `ACCELVIZ_CHAOS_SEED` (CI runs the suite under
//! two fixed seeds); every run is reproducible from its seed alone.
//!
//! NOTE for CI: no test in this file may legitimately print
//! "panicked at" — the chaos job greps the output for exactly that
//! string to prove no panic escapes a connection handler. Panic
//! *isolation* (which intentionally panics a handler) is exercised in
//! `serve_robustness.rs` instead.

mod common;

use accelviz::core::session::{SessionOp, ViewerSession};
use accelviz::render::framebuffer::Framebuffer;
use accelviz::serve::client::{FaultyConnector, TcpConnector};
use accelviz::serve::protocol::ERR_BUSY;
use accelviz::serve::stats::{
    CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_HANDLER_PANICS, CTR_REQUESTS,
    CTR_SHED_CONNECTIONS, CTR_SHED_EXTRACTIONS,
};
use accelviz::serve::{
    Client, ClientConfig, FaultPlan, FrameServer, RemoteFrames, RetryPolicy, ServeError,
    ServerConfig,
};
use common::stores;
use std::sync::Arc;
use std::time::Duration;

const FRAMES: usize = 5;

fn chaos_seed() -> u64 {
    std::env::var("ACCELVIZ_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_806)
}

fn fast_retry(seed: u64) -> ClientConfig {
    ClientConfig {
        retry: Some(RetryPolicy::fast(seed)),
        ..ClientConfig::default()
    }
}

/// The acceptance bar: a 5-frame session under a seeded plan with
/// ≥1 disconnect, ≥1 truncation, and ≥1 delay completes with every frame
/// bit-identical to the fault-free run, visible in the fault and client
/// counters, with zero handler panics server-side.
#[test]
fn chaos_session_delivers_frames_bit_identical_to_fault_free_run() {
    let seed = chaos_seed();
    let server = FrameServer::spawn_loopback(stores(FRAMES, 800), ServerConfig::default()).unwrap();

    // Fault-free reference run, and the measured reply volume that
    // calibrates the chaos plan's byte span.
    let mut reference = Vec::new();
    let mut reply_bytes = 0u64;
    let mut clean = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    for frame in 0..FRAMES as u32 {
        let (f, m) = clean.fetch(frame, f64::INFINITY).unwrap();
        reply_bytes += m.wire_bytes;
        reference.push(f);
    }
    drop(clean);

    // Chaos run: the mandatory delay/disconnect/truncation land in the
    // first half of the reply volume, so a completed session provably
    // survived all three.
    let plan = FaultPlan::chaos(seed, 8, reply_bytes);
    let script = plan.script();
    let config = fast_retry(seed);
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let client = Client::connect_via(Box::new(connector), config).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, FRAMES);

    // Every session speaks the compressed AVWF v2 encoding, so the
    // bit-identity assertions below also prove the v2 codec (and its
    // decoded-payload checksum) under every injected fault — including
    // across reconnects and their re-handshakes.
    use accelviz::core::viewer::FrameSource;
    for (i, want) in reference.iter().enumerate() {
        let (got, load) = remote.load(i).unwrap();
        assert!(!load.degraded, "frame {i} must be genuine, not a fallback");
        assert_eq!(&*got, want, "frame {i} differs from the fault-free run");
    }
    // Compression was real: the v2 frame payloads on the wire undercut
    // what the same frames cost raw.
    let stats = remote.client().stats().unwrap();
    let (wire, raw) = (
        stats.counter(CTR_FRAME_BYTES_WIRE),
        stats.counter(CTR_FRAME_BYTES_RAW),
    );
    assert!(
        wire < raw,
        "v2 session moved {wire} wire bytes against {raw} raw"
    );

    // The plan actually fired its mandatory trio.
    let fired = script.stats();
    assert!(fired.delays >= 1, "no delay fired: {fired:?}");
    assert!(fired.disconnects >= 1, "no disconnect fired: {fired:?}");
    assert!(fired.truncations >= 1, "no truncation fired: {fired:?}");

    // The resilience layer did real work and it is all on the counters.
    let cs = remote.client().client_stats();
    assert!(cs.retries >= 1, "faults must have forced retries: {cs:?}");
    assert!(
        cs.reconnects >= 1,
        "a disconnect must force a reconnect: {cs:?}"
    );
    assert_eq!(remote.degraded_loads, 0);

    // No injected fault may escalate into a server-side handler panic.
    assert_eq!(server.metrics().counter(CTR_HANDLER_PANICS), 0);
    server.shutdown();
}

/// The chaos matrix extended to the scale-out layer: the same seeded
/// fault plan injected between the client and a 2-shard
/// [`ShardedFrameService`] router must still deliver every frame
/// bit-identical to the fault-free run — the router's proxy hop adds no
/// new way to corrupt or lose a frame — with zero handler panics on the
/// router and on both shards.
///
/// [`ShardedFrameService`]: accelviz::serve::ShardedFrameService
#[test]
fn sharded_chaos_session_delivers_bit_identical_frames() {
    use accelviz::serve::router::CTR_ROUTER_HANDLER_PANICS;
    use accelviz::serve::{RouterConfig, ShardedFrameService};

    let seed = chaos_seed();
    let service = ShardedFrameService::spawn_loopback_replicated(
        stores(FRAMES, 800),
        2,
        1,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();

    // Fault-free reference through the router, measuring the reply
    // volume that calibrates the chaos plan.
    let mut reference = Vec::new();
    let mut reply_bytes = 0u64;
    let mut clean = Client::connect_with(service.addr(), ClientConfig::no_retry()).unwrap();
    for frame in 0..FRAMES as u32 {
        let (f, m) = clean.fetch(frame, f64::INFINITY).unwrap();
        reply_bytes += m.wire_bytes;
        reference.push(f);
    }
    drop(clean);

    // Chaos on the client↔router leg; the router↔shard legs stay clean
    // (shard death is covered by `serve_shard.rs`).
    let plan = FaultPlan::chaos(seed, 8, reply_bytes);
    let script = plan.script();
    let config = fast_retry(seed);
    let connector = FaultyConnector::new(
        TcpConnector::new(service.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let client = Client::connect_via(Box::new(connector), config).unwrap();
    let mut remote = RemoteFrames::new(client, f64::INFINITY, FRAMES);

    use accelviz::core::viewer::FrameSource;
    for (i, want) in reference.iter().enumerate() {
        let (got, load) = remote.load(i).unwrap();
        assert!(!load.degraded, "frame {i} must be genuine, not a fallback");
        assert_eq!(&*got, want, "frame {i} differs from the fault-free run");
    }
    assert_eq!(remote.degraded_loads, 0);

    let fired = script.stats();
    assert!(fired.disconnects >= 1, "no disconnect fired: {fired:?}");
    let cs = remote.client().client_stats();
    assert!(
        cs.reconnects >= 1,
        "chaos must have forced reconnects: {cs:?}"
    );

    assert_eq!(
        service
            .router()
            .metrics()
            .counter(CTR_ROUTER_HANDLER_PANICS),
        0
    );
    for s in 0..service.shard_count() {
        assert_eq!(service.shard(s).metrics().counter(CTR_HANDLER_PANICS), 0);
    }
    service.shutdown();
}

/// A server whose end of the link suffers a delay, a truncated reply and
/// disconnects both ways, placed inside the first frame's reply volume:
/// the plan a server-side hook once ran, replayed through the client's
/// connector with each event's direction swapped (what the server writes
/// is what the client reads). Client retries alone deliver every frame
/// bit-identical to a fault-free run, with zero handler panics.
#[test]
fn server_side_chaos_is_survivable() {
    use accelviz::serve::fault::{FaultDirection, FaultEvent, FaultKind};
    let server = FrameServer::spawn_loopback(stores(3, 600), ServerConfig::default()).unwrap();
    let mut clean = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();
    let reference: Vec<_> = (0..3)
        .map(|frame| clean.fetch(frame, f64::INFINITY).unwrap().0)
        .collect();
    drop(clean);

    let event = |direction, at_byte, kind| FaultEvent {
        direction,
        at_byte,
        kind,
    };
    let delay = FaultKind::Delay(Duration::from_millis(5));
    let plan = FaultPlan::new(vec![
        event(FaultDirection::Read, 64, delay),
        event(FaultDirection::Read, 3_000, FaultKind::Truncate),
        event(FaultDirection::Read, 9_000, FaultKind::Disconnect),
        event(FaultDirection::Write, 400, FaultKind::Disconnect),
    ]);
    let script = plan.script();
    let config = fast_retry(20_260_807);
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let mut client = Client::connect_via(Box::new(connector), config).unwrap();
    for (i, want) in reference.iter().enumerate() {
        let (got, _) = client.fetch(i as u32, f64::INFINITY).unwrap();
        assert_eq!(&got, want, "frame {i} over a faulted link differs");
    }

    let fired = script.stats();
    assert!(fired.delays >= 1, "no delay fired: {fired:?}");
    assert!(fired.truncations >= 1, "no truncation fired: {fired:?}");
    assert!(fired.disconnects >= 1, "no disconnect fired: {fired:?}");
    assert_eq!(server.metrics().counter(CTR_HANDLER_PANICS), 0);
    server.shutdown();
}

/// With retries disabled the client behaves like the pre-resilience
/// code: the first transport fault surfaces as an error, nothing is
/// retried behind the caller's back.
#[test]
fn retries_disabled_fails_fast_like_the_old_client() {
    use accelviz::serve::fault::{FaultDirection, FaultEvent, FaultKind};
    let server = FrameServer::spawn_loopback(stores(1, 800), ServerConfig::default()).unwrap();

    // One disconnect placed past the HelloAck (~30 bytes) so the
    // handshake succeeds and the first frame read dies.
    let plan = FaultPlan::new(vec![FaultEvent {
        direction: FaultDirection::Read,
        at_byte: 64,
        kind: FaultKind::Disconnect,
    }]);
    let script = plan.script();
    let config = ClientConfig::no_retry();
    let connector = FaultyConnector::new(
        TcpConnector::new(server.addr(), &config).unwrap(),
        Arc::clone(&script),
    );
    let mut client = Client::connect_via(Box::new(connector), config).unwrap();

    let err = client.fetch(0, f64::INFINITY).unwrap_err();
    assert!(
        err.is_transient(),
        "a reset is transient, just not retried: {err}"
    );
    let cs = client.client_stats();
    assert_eq!(cs.retries, 0, "no_retry must never retry");
    assert_eq!(cs.reconnects, 0, "no_retry must never reconnect mid-call");
    assert_eq!(script.stats().disconnects, 1);
    server.shutdown();
}

/// Exhausted retries degrade to the most recent resident frame — flagged
/// — instead of erroring, and the viewer session keeps rendering it.
#[test]
fn exhausted_retries_degrade_to_a_stale_resident_frame() {
    let seed = chaos_seed();
    let server = FrameServer::spawn_loopback(stores(3, 800), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // A tight policy so exhaustion takes milliseconds, not seconds.
    let config = ClientConfig {
        retry: Some(RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(10),
            budget: Duration::from_secs(2),
            ..RetryPolicy::seeded(seed)
        }),
        ..ClientConfig::default()
    };
    let client = Client::connect_with(addr, config).unwrap();
    let remote = RemoteFrames::new(client, f64::INFINITY, 4);
    let mut session = ViewerSession::open_with(Box::new(remote));

    let healthy = session.apply(SessionOp::StepTo(1));
    assert!(!healthy.failed && !healthy.degraded);
    assert_eq!(session.current(), 1);
    let genuine_step = session.frame().step;

    // Kill the data path entirely, then step again.
    server.shutdown();
    let cost = session.apply(SessionOp::StepTo(2));
    assert!(
        cost.degraded,
        "a dead server must degrade, not freeze: {cost:?}"
    );
    assert!(!cost.failed, "degradation is not a failure");
    assert_eq!(
        session.current(),
        1,
        "the session must not pretend it reached frame 2"
    );
    assert_eq!(
        session.frame().step,
        genuine_step,
        "stale frame is the last good one"
    );

    // The degraded session still renders — boundary edits and drawing
    // are all local state, untouched by the dead link.
    let boundary = session.preprocessing_boundary();
    session.apply(SessionOp::SetBoundary(boundary));
    let mut fb = Framebuffer::new(48, 48);
    let stats = session.render(&mut fb);
    assert!(stats.points_drawn > 0, "degraded session must keep drawing");
    assert!(stats.volume_samples > 0);
}

/// Past the connection cap the server sheds new arrivals with one
/// in-band `ERR_BUSY` (carrying a retry hint) while serving the admitted
/// client untouched; a retrying client gets in once the slot frees.
#[test]
fn connection_cap_sheds_with_err_busy_and_serves_the_rest() {
    let seed = chaos_seed();
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(stores(2, 800), config).unwrap();

    let mut admitted = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();

    // Second arrival without retries: shed, with the hint in-band.
    match Client::connect_with(server.addr(), ClientConfig::no_retry()) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ERR_BUSY);
            assert!(message.contains("retry"), "hint missing: {message}");
        }
        other => panic!(
            "expected ERR_BUSY shed, got {:?}",
            other.map(|_| "a client")
        ),
    }
    assert!(server.metrics().counter(CTR_SHED_CONNECTIONS) >= 1);

    // The admitted client never noticed.
    let (frame, _) = admitted.fetch(0, f64::INFINITY).unwrap();
    assert_eq!(frame.step, 0);

    // Free the slot; a retrying client absorbs the handoff race and
    // gets in.
    drop(admitted);
    let mut patient = Client::connect_with(server.addr(), fast_retry(seed)).unwrap();
    let (frame, _) = patient.fetch(1, f64::INFINITY).unwrap();
    assert_eq!(frame.step, 1);
    server.shutdown();
}

/// Past the in-flight extraction limit, frame requests that would start
/// a new extraction are shed with `ERR_BUSY` on their live connection —
/// the connection survives and cheap requests still flow.
#[test]
fn extraction_limit_sheds_fresh_extractions_in_band() {
    // Limit 0: every fresh extraction is shed — fully deterministic.
    let config = ServerConfig {
        max_inflight_extractions: 0,
        ..ServerConfig::default()
    };
    let server = FrameServer::spawn_loopback(stores(1, 800), config).unwrap();
    let mut client = Client::connect_with(server.addr(), ClientConfig::no_retry()).unwrap();

    match client.fetch(0, f64::INFINITY) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ERR_BUSY);
            assert!(message.contains("retry"), "hint missing: {message}");
        }
        other => panic!("expected ERR_BUSY shed, got {other:?}"),
    }
    assert!(server.metrics().counter(CTR_SHED_EXTRACTIONS) >= 1);

    // The same connection keeps serving non-extraction requests.
    assert_eq!(client.list_frames().unwrap().len(), 1);
    assert!(client.stats().unwrap().counter(CTR_REQUESTS) >= 1);
    server.shutdown();
}
